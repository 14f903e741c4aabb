import numpy as np
import pytest
from fractions import Fraction

from lpfraisse.core import PIndex, norm_p, rng_from_seed, sphere_points
from lpfraisse import spaces
from lpfraisse.spaces import (
    ColumnEntry, DistortionReport, LampertiEmbedding, LinearMap, NotInjectiveError,
    RankDeficientError, ShapeMismatchError, amalgamate, compose, distortion,
    hilbert_round, northwest_coupling, operator_distance_l2, product_coupling,
    random_isometric_lamperti,
)


def lamperti(d, n, p, cols):
    """Structured embedding from per-column (coordinate, sign, weight_pow) triples."""
    return LampertiEmbedding(d, n, PIndex.of(p),
                             tuple(tuple(ColumnEntry(k, s, Fraction(w)) for (k, s, w) in es) for es in cols))


def identity(n, p):
    return lamperti(n, n, p, [[(j, 1, 1)] for j in range(n)])


class TestDistortion:
    def test_lamperti_example(self):
        # column weights: (1/2 + 1/2) = 1 and 9/10
        T = lamperti(2, 3, 1, [[(0, 1, Fraction(1, 2)), (1, 1, Fraction(1, 2))],
                               [(2, 1, Fraction(9, 10))]])
        rep = distortion(T)
        assert rep.certified
        assert rep.lower == pytest.approx(0.9)
        assert rep.upper == pytest.approx(1.0)
        assert rep.delta == pytest.approx(1 / 0.9 - 1)

    def test_identity_any_p(self):
        for p in (1, 2, 3, None):
            T = identity(3, p)
            rep = distortion(T)
            assert rep.certified and rep.lower == rep.upper == 1.0 and rep.delta == 0.0

    def test_l1_upper_matches_sphere_grid_oracle(self):
        rng = rng_from_seed(1)
        m = rng.normal(size=(3, 3))
        T = LinearMap(m, PIndex.of(1), PIndex.of(2))
        rep = distortion(T, samples=2000, seed=2)
        # independent dense sphere oracle for the upper bound
        pts = sphere_points(rng_from_seed(99), 200_000, 3, PIndex.of(1))
        vals = np.linalg.norm(m @ pts.T, axis=0)
        assert rep.upper >= np.max(vals) - 1e-9
        assert rep.upper == pytest.approx(max(np.linalg.norm(m[:, j]) for j in range(3)))
        assert not rep.certified

    def test_zero_column_rejected(self):
        with pytest.raises((NotInjectiveError, ValueError)):
            lamperti(1, 1, 1, [[]])

    def test_lamperti_norm_identity_vs_dense_sampling(self):
        # ||T x||_p^p = sum |x_j|^p w_j^p, checked against sampling for d <= 4
        rng = rng_from_seed(5)
        for p in (1, 2, 3):
            for _ in range(5):
                d = int(rng.integers(1, 5))
                T = random_isometric_lamperti(rng, d, d + 3, p)
                M = T.to_linear_map().matrix
                rep = distortion(T)
                pts = sphere_points(rng, 4000, d, PIndex.of(p))
                pf = float(p)
                vals = np.sum(np.abs(M @ pts.T) ** pf, axis=0) ** (1 / pf)
                assert np.min(vals) >= rep.lower - 1e-9
                assert np.max(vals) <= rep.upper + 1e-9


class TestHilbertRound:
    def test_scalar_polar_factor(self):
        T = LinearMap(np.array([[1.3]]), PIndex.of(2), PIndex.of(2))
        R = hilbert_round(T)
        assert R.matrix == pytest.approx(np.array([[1.0]]))
        assert operator_distance_l2(T, R) == pytest.approx(0.3)

    def test_diag_example(self):
        T = LinearMap(np.diag([1.1, 1 / 1.1]), PIndex.of(2), PIndex.of(2))
        R = hilbert_round(T)
        assert R.matrix == pytest.approx(np.eye(2))
        d = operator_distance_l2(T, R)
        assert d == pytest.approx(0.1)
        assert d <= distortion_delta_l2(T) + 1e-12

    def test_isometry_fixed_point(self):
        q, _ = np.linalg.qr(rng_from_seed(3).normal(size=(4, 2)) if False else
                            rng_from_seed(3).standard_normal((4, 2)))
        T = LinearMap(q, PIndex.of(2), PIndex.of(2))
        R = hilbert_round(T)
        assert R.matrix == pytest.approx(T.matrix)

    def test_rank_deficient_rejected(self):
        T = LinearMap(np.array([[1.0, 1.0], [1.0, 1.0]]), PIndex.of(2), PIndex.of(2))
        with pytest.raises(RankDeficientError):
            hilbert_round(T)


def distortion_delta_l2(T: LinearMap) -> float:
    s = np.linalg.svd(T.matrix, compute_uv=False)
    return max(np.max(s) - 1, 1 / np.min(s) - 1)


class TestAmalgamation:
    def test_identity_example(self):
        g = lamperti(1, 2, 1, [[(0, 1, Fraction(1, 2)), (1, 1, Fraction(1, 2))]])
        e = identity(1, 1)
        N, i, j = amalgamate(g, e)
        assert N == 2
        # i is an identity relabeling, j carries the split weights
        assert all(len(c) == 1 and c[0].wpow == 1 for c in i.columns)
        assert sorted(x.wpow for x in j.columns[0]) == [Fraction(1, 2), Fraction(1, 2)]
        assert compose(i, g).signature() == compose(j, e).signature()

    def test_diagonal_amalgam(self):
        rng = rng_from_seed(11)
        g = random_isometric_lamperti(rng, 2, 4, 3)
        N, i, j = amalgamate(g, g)
        assert i.signature() == j.signature()
        assert compose(i, g).signature() == compose(j, g).signature()

    def test_random_pairs_rational_identity(self):
        rng = rng_from_seed(12)
        for _ in range(50):
            d = int(rng.integers(1, 4))
            g = random_isometric_lamperti(rng, d, d + int(rng.integers(0, 4)), 3)
            e = random_isometric_lamperti(rng, d, d + int(rng.integers(0, 4)), 3)
            N, i, j = amalgamate(g, e)
            assert i.is_isometric() and j.is_isometric()
            assert compose(i, g).signature() == compose(j, e).signature()

    def test_product_coupling_flag(self):
        rng = rng_from_seed(13)
        g = random_isometric_lamperti(rng, 2, 5, 1)
        e = random_isometric_lamperti(rng, 2, 4, 1)
        N, i, j = amalgamate(g, e, coupling="product")
        assert compose(i, g).signature() == compose(j, e).signature()

    def test_rejects_non_isometric(self):
        bad = lamperti(1, 1, 1, [[(0, 1, Fraction(1, 2))]])
        with pytest.raises(ValueError):
            amalgamate(bad, identity(1, 1))

    def test_rejects_p_mismatch(self):
        a = identity(1, 1)
        b = identity(1, 2)
        with pytest.raises(ValueError):
            amalgamate(a, b)

    def test_refuses_sup_norm(self):
        # both isometric at p = inf (largest modulus 1); the stored moduli are
        # not masses, so no coupling applies
        g = lamperti(1, 2, None, [[(1, -1, 1)]])
        e = lamperti(1, 2, None, [[(0, 1, 1), (1, 1, Fraction(1, 2))]])
        assert g.is_isometric() and e.is_isometric()
        with pytest.raises(ValueError, match="finite p"):
            amalgamate(g, e)


class TestCouplings:
    def test_northwest_margins(self):
        row = [Fraction(1, 2), Fraction(1, 2)]
        col = [Fraction(1, 4), Fraction(3, 4)]
        pi = northwest_coupling(row, col)
        assert sum(pi.values()) == 1
        for a in range(2):
            assert sum(v for (x, _), v in pi.items() if x == a) == row[a]
        for b in range(2):
            assert sum(v for (_, y), v in pi.items() if y == b) == col[b]
        # support minimality: at most len(row)+len(col)-1 entries
        assert len(pi) <= 3

    def test_unequal_mass_rejected(self):
        with pytest.raises(ValueError):
            northwest_coupling([Fraction(1)], [Fraction(1, 2)])
        with pytest.raises(ValueError):
            product_coupling([Fraction(1)], [Fraction(1, 2)])


class TestComposeApply:
    def test_apply_identity(self):
        x = np.array([1.0, -2.0])
        T = identity(2, 1)
        assert T.to_linear_map().matrix @ x == pytest.approx(x)

    def test_compose_identity(self):
        rng = rng_from_seed(21)
        T = random_isometric_lamperti(rng, 2, 4, 1)
        out = compose(identity(4, 1), T)
        assert out.signature() == T.signature()

    def test_compose_disjoint_supports(self):
        rng = rng_from_seed(22)
        for _ in range(20):
            T = random_isometric_lamperti(rng, 2, 4, 3)
            S = random_isometric_lamperti(rng, 4, 7, 3)
            C = compose(S, T)
            sup = [C.support(j) for j in range(C.d)]
            assert not (sup[0] & sup[1])
            assert C.is_isometric()

    def test_compose_distortion_product_bound(self):
        rng = rng_from_seed(23)
        for _ in range(20):
            # near-isometric structured maps: scale weights slightly
            T = random_isometric_lamperti(rng, 2, 4, 2)
            S = random_isometric_lamperti(rng, 4, 6, 2)
            scale_t = Fraction(int(rng.integers(90, 111)), 100)
            cols_t = tuple(tuple(ColumnEntry(e.k, e.sign, e.wpow * scale_t) for e in c) for c in T.columns)
            T2 = LampertiEmbedding(T.d, T.n, T.p, cols_t)
            d1, d2 = distortion(T2).delta, distortion(S).delta
            dc = distortion(compose(S, T2)).delta
            assert dc <= (1 + d1) * (1 + d2) - 1 + 1e-9

    def test_shape_mismatch(self):
        a = identity(2, 1)
        b = identity(3, 1)
        with pytest.raises(ShapeMismatchError):
            compose(a, b)


def test_json_round_trip():
    rng = rng_from_seed(31)
    T = random_isometric_lamperti(rng, 3, 6, Fraction(3, 2))
    again = LampertiEmbedding.from_json(T.to_json())
    assert again.signature() == T.signature()
    # dense maps are only read, in the format of docs/formats.md
    m = rng.standard_normal((3, 2))
    again_m = LinearMap.from_json({"matrix": m.tolist(), "domain_p": 1, "codomain_p": "inf"})
    assert again_m.matrix == pytest.approx(m)
    assert again_m.domain_p == PIndex.of(1) and again_m.codomain_p == PIndex.of(None)


def test_infinity_weight_semantics():
    T = lamperti(1, 2, None, [[(0, 1, Fraction(1)), (1, -1, Fraction(1, 3))]])
    assert T.is_isometric()
    rep = distortion(T)
    assert rep.lower == rep.upper == 1.0
