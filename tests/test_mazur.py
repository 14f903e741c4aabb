import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from lpfraisse.core import PIndex, rng_from_seed
from lpfraisse import mazur
from lpfraisse.mazur import MazurParams, mazur_embedding, mazur_map, transfer_instance
from lpfraisse.spaces import ColumnEntry, LampertiEmbedding, VectorP, random_isometric_lamperti
from lpfraisse import ramsey, equi


class TestMazurMap:
    def test_identity_when_p_equals_q(self):
        x = VectorP([0.3, -0.7], PIndex.of(2))
        y = mazur_map(x, MazurParams(2, 2))
        assert y.entries == pytest.approx(x.entries)

    def test_norm_identity_example(self):
        # (0.5, 0.5) at p=1 maps to (sqrt(.5), sqrt(.5)) with unit l_2 norm
        x = VectorP([0.5, 0.5], PIndex.of(1))
        y = mazur_map(x, MazurParams(1, 2))
        assert y.entries == pytest.approx(np.sqrt([0.5, 0.5]))
        assert y.norm() == pytest.approx(1.0)

    # magnitudes below ~1e-30 can underflow through |x|^(p/q) in float mode;
    # the exact representation (sign, |x|^p) is what carries tiny weights
    _entry = st.one_of(st.just(0.0), st.floats(1e-6, 5), st.floats(-5, -1e-6))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(_entry, min_size=1, max_size=6),
           st.sampled_from([(1, 2), (3, 1), (2, 3), (1.5, 2.5)]))
    def test_round_trip_and_support(self, entries, pq):
        p, q = pq
        x = VectorP(np.array(entries), PIndex.of(Fraction(p)))
        fwd = mazur_map(x, MazurParams(Fraction(p), Fraction(q)))
        back = mazur_map(fwd, MazurParams(Fraction(q), Fraction(p)))
        assert back.entries == pytest.approx(x.entries, abs=1e-10)
        assert np.array_equal(np.sign(fwd.entries), np.sign(x.entries))
        assert np.array_equal(fwd.entries != 0, x.entries != 0)

    def test_norm_identity_random(self):
        rng = rng_from_seed(1)
        for _ in range(200):
            p, q = rng.uniform(1, 4, size=2)
            x = rng.standard_normal(5)
            mx = np.sign(x) * np.abs(x) ** (p / q)
            assert np.sum(np.abs(mx) ** q) == pytest.approx(np.sum(np.abs(x) ** p), rel=1e-12)


class TestMazurEmbedding:
    def test_identity_embedding(self):
        g = LampertiEmbedding(3, 3, PIndex.of(1), tuple((ColumnEntry(j, 1, 1),) for j in range(3)))
        out = mazur_embedding(g, MazurParams(1, 2))
        assert out.p == PIndex.of(2)
        assert out.signature() == g.signature()

    def test_weight_pow_invariance(self):
        half = Fraction(1, 2)
        g = LampertiEmbedding(1, 2, PIndex.of(1), ((ColumnEntry(0, 1, half), ColumnEntry(1, 1, half)),))
        out = mazur_embedding(g, MazurParams(1, 2))
        assert [e.wpow for e in out.columns[0]] == [Fraction(1, 2), Fraction(1, 2)]
        assert out.is_isometric()

    def test_exact_involution_on_stored_data(self):
        rng = rng_from_seed(2)
        for _ in range(40):
            p, q = Fraction(3), Fraction(5, 4)
            g = random_isometric_lamperti(rng, 2, 5, p)
            back = mazur_embedding(mazur_embedding(g, MazurParams(p, q)), MazurParams(q, p))
            assert back.signature() == g.signature()

    def test_embedding_modulus_on_operators(self):
        # ||M(gamma) - M(eta)|| <= tau(||gamma - eta||) on sampled operator norms
        rng = rng_from_seed(3)
        p, q = 3, 1
        params = MazurParams(p, q)
        for _ in range(25):
            g = random_isometric_lamperti(rng, 2, 5, p)
            e = random_isometric_lamperti(rng, 2, 5, p)
            gm, em = g.to_linear_map().matrix, e.to_linear_map().matrix
            mg = mazur_embedding(g, params).to_linear_map().matrix
            me = mazur_embedding(e, params).to_linear_map().matrix
            pts = rng.standard_normal((500, 2))
            pts /= np.sum(np.abs(pts) ** p, axis=1)[:, None] ** (1 / p)
            lhs_pts = pts.copy()
            # same sphere measured at q after transport
            qts = np.sign(pts) * np.abs(pts) ** (p / q)
            dist_p = np.max(np.sum(np.abs((gm - em) @ pts.T) ** p, axis=0) ** (1 / p))
            dist_q = np.max(np.sum(np.abs((mg - me) @ qts.T) ** q, axis=0) ** (1 / q))
            assert dist_q <= mazur.continuity_modulus(params, dist_p) + 1e-6

    def test_rejects_non_isometric(self):
        bad = LampertiEmbedding(1, 1, PIndex.of(1), ((ColumnEntry(0, 1, Fraction(1, 2)),),))
        with pytest.raises(ValueError):
            mazur_embedding(bad, MazurParams(1, 2))


class TestTransfer:
    def test_p_equals_q(self):
        t = transfer_instance(2, 4, 2, 0.1, 3, 3)
        assert t.eps_transferred == 0.1 and t.constant is None

    def test_contracting_direction_example(self):
        t = transfer_instance(2, 4, 2, 0.1, 3, 1)
        assert t.eps_transferred == pytest.approx(0.3)
        # validated by a sampled modulus: ratio never exceeds p/q
        rng = rng_from_seed(4)
        xs = rng.standard_normal((4000, 4))
        xs /= np.sum(np.abs(xs) ** 3, axis=1)[:, None] ** (1 / 3)
        ys = xs + 0.05 * rng.standard_normal(xs.shape)
        ys /= np.sum(np.abs(ys) ** 3, axis=1)[:, None] ** (1 / 3)
        num = np.sum(np.abs(np.sign(xs) * np.abs(xs) ** 3 - np.sign(ys) * np.abs(ys) ** 3), axis=1)
        den = np.sum(np.abs(xs - ys) ** 3, axis=1) ** (1 / 3)
        assert np.max(num[den > 1e-9] / den[den > 1e-9]) <= 3 + 1e-9

    def test_expanding_direction_stamps_constant(self):
        t = transfer_instance(2, 4, 2, 0.1, 1, 3)
        assert t.constant is not None
        assert t.eps_transferred == pytest.approx(t.constant * 0.1 ** (1 / 3))

    def test_exponent_two_warns(self):
        t = transfer_instance(2, 4, 2, 0.1, 2, 3)
        assert t.warning is not None

    def test_infinite_exponent_rejected(self):
        with pytest.raises(ValueError):
            transfer_instance(2, 4, 2, 0.1, None, 3)

    @pytest.mark.parametrize("p,q", [(1, 2), (1, 3), (Fraction(3, 2), 2), (2, 3), (3, 5), (1, 4)])
    def test_closed_form_constant(self, p, q):
        pf, qf = float(p), float(q)
        t = transfer_instance(2, 4, 2, 0.1, p, q)
        assert t.constant == 2 ** (1 - pf / qf)
        assert t.eps_transferred == t.constant * 0.1 ** (pf / qf)

    @pytest.mark.parametrize("p,q", [(1, 2), (1, 3), (Fraction(3, 2), 2), (2, 3)])
    def test_constant_attained_at_antipodes(self, p, q):
        # ||M(x) - M(-x)||_q = 2^(1-p/q) ||x - (-x)||_p^(p/q) on the unit sphere
        params = MazurParams(p, q)
        pf, qf = float(p), float(q)
        xs = rng_from_seed(6).standard_normal((200, 4))
        xs /= np.sum(np.abs(xs) ** pf, axis=1)[:, None] ** (1 / pf)
        mx = np.sign(xs) * np.abs(xs) ** (pf / qf)
        lhs = np.sum(np.abs(2 * mx) ** qf, axis=1) ** (1 / qf)
        dist = np.sum(np.abs(2 * xs) ** pf, axis=1) ** (1 / pf)
        assert lhs == pytest.approx(mazur.continuity_modulus(params, dist), rel=1e-12)


def unital_from_equipartition(parts) -> LampertiEmbedding:
    """The unital isometric l_1 embedding u_j -> (d/n) sum_{k in s_j} u_k of
    an equipartition s_1, ..., s_d of range(n)."""
    d, n = len(parts), sum(len(s) for s in parts)
    cols = tuple(tuple(ColumnEntry(k, 1, Fraction(d, n)) for k in sorted(s)) for s in parts)
    return LampertiEmbedding(d, n, PIndex.of(1), cols)


def test_monochromatic_family_transports():
    """End-to-end replay on a tiny instance: an exhaustively certified
    equipartition family stays close after transport, with the transported
    distance controlled by the continuity modulus."""
    res = ramsey.exhaustive_ramsey_check(6, 2, 2, 2, 0.5, 0.0)
    assert res.decided and res.holds
    p, q = 1, 3
    params = MazurParams(p, q)
    fam = [equi.Equisurjection(v, 2) for v in ramsey.enumerate_equi(6, 2, 0.0)]
    embeddings = {F: unital_from_equipartition(
        [[i for i, v in enumerate(F.values) if v == j] for j in range(2)]) for F in fam}
    for F in fam[:6]:
        for G in fam[:6]:
            d_h = float(equi.hamming(F, G))
            gm = embeddings[F].to_linear_map().matrix
            em = embeddings[G].to_linear_map().matrix
            # l_1 operator distance of unital embeddings vs Hamming distance
            dist1 = float(np.max(np.sum(np.abs(gm - em), axis=0)))
            assert dist1 <= 2 * 2 * d_h + 1e-12
            mg = mazur_embedding(embeddings[F], params).to_linear_map().matrix
            me = mazur_embedding(embeddings[G], params).to_linear_map().matrix
            pts = rng_from_seed(5).standard_normal((400, 2))
            pts /= np.sum(np.abs(pts), axis=1)[:, None]
            qts = np.sign(pts) * np.abs(pts) ** (p / q)
            dq = float(np.max(np.sum(np.abs((mg - me) @ qts.T) ** q, axis=0) ** (1 / q)))
            assert dq <= mazur.continuity_modulus(params, dist1) + 1e-6
