import math

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from lpfraisse.core import PIndex, rng_from_seed
from lpfraisse import measures as M
from lpfraisse.measures import (
    DiscreteMeasure, DiscreteSpace, characteristic_oracle,
    even_p_counterexample, gp_grid,
    invert_cdf_with_error, levy_prokhorov, odd_p_falsification_search, p_characteristic,
    p_characteristic_grid,
)


def measure_1d(pairs):
    return DiscreteMeasure(np.array([[z] for z, _ in pairs]), np.array([m for _, m in pairs]))


def point_mass(z):
    return DiscreteMeasure(np.atleast_2d(np.asarray(z, dtype=float)), np.array([1.0]))


def density(mu: DiscreteMeasure, alpha: float, j: int | None = None) -> DiscreteMeasure:
    """Reweight by |z_j|^alpha (Euclidean |z|^alpha when j is None); zero-weight atoms drop."""
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    if alpha == 0:
        return mu
    base = np.abs(mu.points[:, j]) if j is not None else np.linalg.norm(mu.points, axis=1)
    w = base**alpha
    keep = w > 0
    if not np.any(keep):
        raise ValueError("density vanishes on every atom")
    return DiscreteMeasure(mu.points[keep], mu.masses[keep] * w[keep])


class TestDiscreteSpace:
    def test_masses_cached_read_only(self):
        sp = DiscreteSpace(((0, Fraction(1, 3)), (1, Fraction(1, 6)), (2, Fraction(1, 2))))
        assert sp.masses.tolist() == [float(m) for _, m in sp.atoms]
        assert sp.masses is sp.masses
        with pytest.raises(ValueError):
            sp.masses[0] = 1.0

    def test_norm_reduces_over_axis_zero(self):
        rng = rng_from_seed(2)
        sp = DiscreteSpace(tuple((i, Fraction(int(rng.integers(1, 9)), 40)) for i in range(10)))
        vals = rng.normal(size=(10, 7))
        for p in (1, 3, None):
            pidx = PIndex.of(p)
            norms = sp.norm(vals, pidx)
            assert norms.shape == (7,)
            assert norms == pytest.approx([sp.norm(vals[:, j], pidx) for j in range(7)], rel=1e-14)


class TestDensity:
    def test_alpha_zero_is_identity(self):
        mu = measure_1d([(1.0, 0.5), (2.0, 0.5)])
        assert density(mu, 0.0) is mu

    def test_cube_example(self):
        mu = point_mass([2.0])
        out = density(mu, 3.0, j=0)
        assert out.masses[0] == pytest.approx(8.0)

    def test_total_mass_oracle(self):
        rng = rng_from_seed(2)
        pts = rng.normal(size=(6, 2))
        ms = rng.uniform(0.1, 1, size=6)
        mu = DiscreteMeasure(pts, ms)
        for alpha in (0.5, 1.0, 2.5):
            out = density(mu, alpha)
            direct = np.sum(ms * np.linalg.norm(pts, axis=1) ** alpha)
            assert np.sum(out.masses) == pytest.approx(direct)


class TestCharacteristic:
    def test_point_mass_at_zero(self):
        mu = point_mass([0.0, 0.0])
        for a in ([0.0, 0.0], [3.0, -1.0]):
            assert p_characteristic(mu, a, 3) == pytest.approx(1.0)

    def test_point_mass_at_one(self):
        mu = point_mass([1.0])
        for a in (-2.0, 0.3, 5.0):
            assert p_characteristic(mu, [a], 2) == pytest.approx(abs(1 + a))

    def test_growth_bound(self):
        # value <= total^{1/p} + |a| (p-th moment)^{1/p}
        rng = rng_from_seed(3)
        for _ in range(50):
            k = int(rng.integers(1, 4))
            mu = DiscreteMeasure(rng.normal(size=(5, k)), rng.uniform(0.1, 1, size=5))
            p = float(rng.uniform(1, 4))
            a = rng.normal(size=k)
            val = p_characteristic(mu, a, Fraction(p).limit_denominator(100))
            pf = float(Fraction(p).limit_denominator(100))
            moment = np.sum(mu.masses * np.linalg.norm(mu.points, axis=1) ** pf)
            bound = np.sum(mu.masses) ** (1 / pf) + np.linalg.norm(a) * moment ** (1 / pf)
            assert val <= bound + 1e-9

    def test_moment_identity(self):
        # integral |x + c|^p dmu = |c|^p char(1/c)^p
        rng = rng_from_seed(4)
        for p in (1, 2, 3):
            mu = measure_1d([(float(z), float(m)) for z, m in
                             zip(rng.normal(size=6), rng.uniform(0.1, 1, size=6))])
            for c in (0.7, -1.3, 2.0):
                direct = float(np.sum(mu.masses * np.abs(mu.points[:, 0] + c) ** p))
                via = abs(c) ** p * p_characteristic(mu, [1 / c], p) ** p
                assert direct == pytest.approx(via, rel=1e-12)


class TestLevyProkhorov:
    def test_identity(self):
        mu = measure_1d([(0.0, 0.4), (1.0, 0.6)])
        assert levy_prokhorov(mu, mu).value == 0.0

    def test_shifted_point_masses(self):
        mu, nu = point_mass([0.0]), point_mass([0.3])
        r = levy_prokhorov(mu, nu)
        assert r.exact and r.value == pytest.approx(0.3)

    def test_symmetry_and_triangle(self):
        rng = rng_from_seed(5)
        for _ in range(25):
            ms = [measure_1d([(float(z), float(m)) for z, m in
                              zip(rng.normal(size=3), rng.uniform(0.1, 1, size=3))])
                  for _ in range(3)]
            d01 = levy_prokhorov(ms[0], ms[1]).value
            d10 = levy_prokhorov(ms[1], ms[0]).value
            d02 = levy_prokhorov(ms[0], ms[2]).value
            d12 = levy_prokhorov(ms[1], ms[2]).value
            assert d01 == pytest.approx(d10, abs=1e-12)
            assert d02 <= d01 + d12 + 1e-12

    def test_mass_gap_case(self):
        # same support, different masses: distance is the mass gap
        mu = measure_1d([(0.0, 1.0)])
        nu = measure_1d([(0.0, 0.75)])
        assert levy_prokhorov(mu, nu).value == pytest.approx(0.25)

    def test_max_flow_oracle(self):
        # Strassen duality for probability measures: feasibility at eps is a
        # max-flow problem over the <= eps edges
        from scipy.sparse.csgraph import maximum_flow
        from scipy.sparse import csr_matrix

        rng = rng_from_seed(6)
        for _ in range(12):
            na, nb = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            za = rng.integers(-4, 5, size=na).astype(float)
            zb = rng.integers(-4, 5, size=nb).astype(float)
            wa = rng.integers(1, 6, size=na)
            wb_raw = rng.integers(1, 6, size=nb)
            denom_a, denom_b = wa.sum(), wb_raw.sum()
            mu = measure_1d([(z, w / denom_a) for z, w in zip(za, wa)])
            nu = measure_1d([(z, w / denom_b) for z, w in zip(zb, wb_raw)])
            got = levy_prokhorov(mu, nu).value

            scale = int(denom_a * denom_b)
            ca = [int(w * denom_b) for w in wa]
            cb = [int(w * denom_a) for w in wb_raw]
            dist = np.abs(za[:, None] - zb[None, :])
            cands = sorted(set([0.0] + [float(d) for d in dist.ravel()]))
            best = None
            for i, lev in enumerate(cands):
                n_nodes = na + nb + 2
                rows, cols, caps = [], [], []
                for a in range(na):
                    rows.append(0); cols.append(2 + a); caps.append(ca[a])
                for b in range(nb):
                    rows.append(2 + na + b); cols.append(1); caps.append(cb[b])
                for a in range(na):
                    for b in range(nb):
                        if dist[a, b] <= lev + 1e-12:
                            rows.append(2 + a); cols.append(2 + na + b); caps.append(scale)
                g = csr_matrix((caps, (rows, cols)), shape=(n_nodes, n_nodes))
                flow = maximum_flow(g, 0, 1).flow_value
                need = 1.0 - flow / scale  # unmoved mass must fit under eps
                cand = max(lev, need)
                upper = cands[i + 1] if i + 1 < len(cands) else math.inf
                if cand < upper + 1e-12 and (best is None or cand < best):
                    best = cand
            assert got == pytest.approx(best, abs=1e-9)

    def test_exact_on_large_supports(self):
        # 15 + 15 atoms: the former coarsening bracket here was
        # [0.43673442891094144, 1.0054062818697984]
        rng = rng_from_seed(7)
        mu = DiscreteMeasure(rng.normal(size=(15, 1)), rng.uniform(0.1, 1, size=15))
        nu = DiscreteMeasure(rng.normal(size=(15, 1)), rng.uniform(0.1, 1, size=15))
        r = levy_prokhorov(mu, nu)
        assert r.exact and r.lower == r.upper
        assert 0.43673442891094144 <= r.value <= 1.0054062818697984

    def test_matches_subset_walk(self):
        rng = rng_from_seed(21)
        for trial in range(200):
            dim = int(rng.integers(1, 4))
            na, nb = int(rng.integers(1, 9)), int(rng.integers(1, 9))
            if trial % 2:  # integer lattice: many tied cross distances
                za = rng.integers(-2, 3, size=(na, dim)).astype(float)
                zb = rng.integers(-2, 3, size=(nb, dim)).astype(float)
            else:
                za, zb = rng.normal(size=(na, dim)), rng.normal(size=(nb, dim))
            wa, wb = rng.uniform(0.05, 1, size=na), rng.uniform(0.05, 1, size=nb)
            if trial % 3 == 0:
                wa, wb = wa / wa.sum(), wb / wb.sum()
            mu, nu = DiscreteMeasure(za, wa), DiscreteMeasure(zb, wb)
            assert repr(levy_prokhorov(mu, nu)) == repr(_subset_walk_lp(mu, nu))


def _max_mass_gap_walk(masses_a, cover, masses_b):
    """max over subsets A of sum(masses_a[A]) - mass_b(union of cover[a], a in A).

    Gray-code walk with per-target coverage counters keeps each step O(cover row).
    """
    n = len(masses_a)
    counts = [0] * len(masses_b)
    in_a = [False] * n
    cur_a = Fraction(0)
    cur_b = Fraction(0)
    best = Fraction(0)  # empty set
    for g in range(1, 1 << n):
        flip = (g ^ (g >> 1)) ^ ((g - 1) ^ ((g - 1) >> 1))
        i = flip.bit_length() - 1
        if in_a[i]:
            cur_a -= masses_a[i]
            for t in cover[i]:
                counts[t] -= 1
                if counts[t] == 0:
                    cur_b -= masses_b[t]
        else:
            cur_a += masses_a[i]
            for t in cover[i]:
                if counts[t] == 0:
                    cur_b += masses_b[t]
                counts[t] += 1
        in_a[i] = not in_a[i]
        if cur_a - cur_b > best:
            best = cur_a - cur_b
    return best


class _Cand:
    """A candidate epsilon, either a rational mass value or sqrt(rational)
    distance (frozen copy of the comparison the library once used)."""

    __slots__ = ("kind", "q")

    def __init__(self, kind: str, q: Fraction):
        self.kind = kind  # 'm' value q, or 'd' value sqrt(q)
        self.q = q

    def value(self) -> float:
        return float(self.q) if self.kind == "m" else math.sqrt(float(self.q))

    def __le__(self, other: "_Cand") -> bool:
        if self.kind == other.kind:
            return self.q <= other.q
        if self.kind == "m":  # q vs sqrt(r)
            if self.q < 0:
                return True
            return self.q**2 <= other.q
        if other.q < 0:
            return False
        return self.q <= other.q**2

    def __lt__(self, other: "_Cand") -> bool:
        return self <= other and not (other <= self)


def _subset_walk_lp(mu, nu):
    """Reference oracle: both mass gaps by exhaustive subset walks at every
    distance level, and the least feasible candidate over all levels."""
    m_mass = [Fraction(float(x)) for x in mu.masses]
    n_mass = [Fraction(float(x)) for x in nu.masses]
    sq = [[sum((Fraction(x) - Fraction(y)) ** 2 for x, y in zip(a, b)) for b in nu.points] for a in mu.points]
    levels = sorted({Fraction(0)} | {d for row in sq for d in row})
    best = None
    for li, lev in enumerate(levels):
        cover_mu = [[t for t in range(nu.size) if sq[i][t] <= lev] for i in range(mu.size)]
        cover_nu = [[i for i in range(mu.size) if sq[i][t] <= lev] for t in range(nu.size)]
        gap = max(_max_mass_gap_walk(m_mass, cover_mu, n_mass), _max_mass_gap_walk(n_mass, cover_nu, m_mass))
        cand = _Cand("d", lev) if _Cand("m", gap) <= _Cand("d", lev) else _Cand("m", gap)
        if li + 1 < len(levels) and not (cand < _Cand("d", levels[li + 1])):
            continue
        if best is None or cand < best:
            best = cand
    return M.LPResult(best.value(), best.value(), True)


def _gp_exact(x: Fraction, a: Fraction, eps: Fraction, p: int) -> Fraction:
    """Rational evaluation of the bump, for oracle checks."""
    segs = M._gp_segment_coeffs(p)
    tau = (Fraction(x) - Fraction(a)) / Fraction(eps)
    i = max(-1, min(p, math.floor(tau)))
    acc = Fraction(0)
    for c in reversed(segs[i + 1]):
        acc = acc * tau + c
    return acc


class TestBump:
    def test_paper_values(self):
        vals = gp_grid(np.array([1.5, 5.0, 3.5]), 2, 1, 3)
        assert vals == pytest.approx([1.0, 0.0, 0.5], abs=1e-15)

    def test_outer_segments_exactly_constant(self):
        # the alternating binomial identities come out in exact arithmetic
        for p in (1, 3, 5, 7):
            segs = M._gp_segment_coeffs(p)
            assert segs[0] == tuple([Fraction(1)] + [Fraction(0)] * p)
            assert segs[-1] == tuple([Fraction(0)] * (p + 1))

    def test_symmetry_identity(self):
        # G(x) + G(2a + p*eps - x) = 1
        rng = rng_from_seed(10)
        for p in (1, 3, 5, 7):
            for _ in range(25):
                a, eps = float(rng.uniform(-3, 3)), float(rng.uniform(0.01, 2))
                x = float(rng.uniform(a - 1, a + eps * p + 1))
                s = gp_grid(np.array([x, 2 * a + p * eps - x]), a, eps, p).sum()
                assert s == pytest.approx(1.0, abs=1e-11)

    def test_grid_matches_scalar_and_exact(self):
        # the whole grid agrees with one-point grids and with the rational oracle
        rng = rng_from_seed(11)
        xs = rng.uniform(-4, 8, size=64)
        for p in (3, 7):
            vals = gp_grid(xs, 1.0, 0.01, p)
            for x, v in zip(xs, vals):
                assert v == gp_grid(np.array([x]), 1.0, 0.01, p)[0]
                exact = _gp_exact(Fraction(float(x)), Fraction(1), Fraction(1, 100), p)
                assert v == pytest.approx(float(exact), abs=1e-11)

    def test_monotone_and_bounded(self):
        rng = rng_from_seed(12)
        for p in (1, 3, 5, 7):
            for _ in range(25):
                a, eps = float(rng.uniform(-2, 2)), float(rng.uniform(0.005, 2))
                xs = np.linspace(a, a + eps * p, 300)
                vals = gp_grid(xs, a, eps, p)
                assert np.all(vals <= 1 + 1e-11) and np.all(vals >= -1e-11)
                assert np.all(np.diff(vals) <= 1e-11)

    def test_even_p_rejected(self):
        with pytest.raises(ValueError):
            gp_grid(np.array([0.0]), 0.0, 1.0, 2)

    def test_nonpositive_width_rejected(self):
        for eps in (0.0, -0.5):
            with pytest.raises(ValueError):
                gp_grid(np.array([0.0]), 0.0, eps, 3)


class TestInversion:
    def test_point_mass_left(self):
        mu = point_mass([0.0])
        char = characteristic_oracle(mu, 3)
        for eps in (0.5, 0.1, 0.01):
            assert invert_cdf_with_error(char, 1.0, eps, 3)[0] == pytest.approx(1.0, abs=1e-9)

    def test_point_mass_right(self):
        mu = point_mass([1.0])
        char = characteristic_oracle(mu, 3)
        # zero once eps*p < 1
        assert invert_cdf_with_error(char, 0.0, 0.2, 3)[0] == pytest.approx(0.0, abs=1e-9)

    def test_sandwich_random(self):
        rng = rng_from_seed(13)
        for _ in range(20):
            k = int(rng.integers(1, 8))
            mu = measure_1d([(float(z), float(m)) for z, m in
                             zip(rng.uniform(-2, 2, size=k), rng.uniform(0.05, 1, size=k))])
            p = int(rng.choice([1, 3]))
            char = characteristic_oracle(mu, p)
            for a in rng.uniform(-2.5, 2.5, size=4):
                eps = float(rng.uniform(0.02, 0.4))
                v, err, a_used = invert_cdf_with_error(char, float(a), eps, p)
                assert mu.cdf(a_used) - err - 1e-12 <= v <= mu.cdf(a_used + eps * p) + err + 1e-12

    def test_jitter_documented(self):
        mu = point_mass([0.5])
        char = characteristic_oracle(mu, 3)
        v, err, a_used = invert_cdf_with_error(char, -0.2, 0.1, 3)  # a + 2 eps = 0
        assert a_used != -0.2
        assert v == pytest.approx(mu.cdf(a_used), abs=1e-9)


class TestCounterexamples:
    def test_spec_frozen_pair_p2(self):
        mu = measure_1d([(1.0, 0.5), (-1.0, 0.5)])
        nu = measure_1d([(2.0, 0.125), (-2.0, 0.125), (0.0, 0.75)])
        grid = np.linspace(-5, 5, 1000)[:, None]
        gap = np.max(np.abs(p_characteristic_grid(mu, grid, 2) - p_characteristic_grid(nu, grid, 2)))
        assert gap < 1e-10
        assert levy_prokhorov(mu, nu).value > 0.1

    def test_generated_pairs(self):
        for p in (2, 4):
            rep = even_p_counterexample(p)
            assert rep.char_gap < 1e-10
            assert rep.lp_distance > 0.1

    def test_odd_p_attack_fails(self):
        gap, pair = odd_p_falsification_search(3, 300, seed=42)
        assert gap >= 1e-6
        assert levy_prokhorov(*pair).value > 0.1

    def test_odd_p_search_pinned(self):
        # repeated node sets are skipped, and the first best pair is kept
        for p, trials, gap, mu, nu in ((1, 2000, 0.09090909090909083, [-12.0, -10.0], [-11.0]),
                                       (3, 300, 0.026397896158287137, [-11.0, -9.0, -3.0], [-10.0, -4.0])):
            got, pair = odd_p_falsification_search(p, trials, seed=42)
            assert got == gap
            assert [m.points.ravel().tolist() for m in pair] == [mu, nu]

    def test_even_p_attack_succeeds(self):
        # the attack is p-agnostic: at even p its pairs are genuine counterexamples
        for p in (2, 4):
            gap, _ = odd_p_falsification_search(p, 16, seed=42)
            assert gap <= 1e-10

    def test_null_vector_exact(self):
        rng = rng_from_seed(16)
        kinds = set()
        for _ in range(300):
            order = int(rng.integers(0, 6))
            n = order + 2 + int(rng.integers(0, 4))
            points = []
            while len(points) < n:
                z = Fraction(int(rng.integers(-40, 41)), int(rng.integers(1, 7)))
                if z not in points:
                    points.append(z)
            kinds |= {(z < 0, z.denominator != 1) for z in points}
            w = M._rational_null_vector(points, order)
            assert len(w) == n
            for j in range(order + 1):
                assert sum(q * z**j for q, z in zip(w, points)) == 0
            assert sum(q * z ** (order + 1) for q, z in zip(w, points)) != 0
            assert all(q != 0 for q in w[:order + 2]) and all(q == 0 for q in w[order + 2:])
            assert w[order + 1] == 1
        assert kinds == {(False, False), (False, True), (True, False), (True, True)}

    def test_null_vector_refusals(self):
        with pytest.raises(ValueError):
            M._rational_null_vector([Fraction(0), Fraction(1)], 1)
        with pytest.raises(ValueError):
            M._rational_null_vector([Fraction(0), Fraction(1), Fraction(1, 1)], 1)


def test_continuity_at_desk_scale():
    """Shrinking atom perturbations drive the reweighted LP distances to 0,
    monotonically in the scale."""
    rng = rng_from_seed(15)
    base = measure_1d([(float(z), float(m)) for z, m in
                       zip(rng.uniform(-2, 2, size=5), rng.uniform(0.1, 1, size=5))])
    direction = rng.normal(size=5)
    for p in (1, 3):
        prev_lp = {}
        for t in (0.2, 0.1, 0.05, 0.025, 0.0125, 0.00625):
            pert = DiscreteMeasure(base.points + t * direction[:, None], base.masses)
            for alpha in (0.0, 1.0, float(p)):
                lp = levy_prokhorov(density(base, alpha), density(pert, alpha)).value
                if alpha in prev_lp:
                    assert lp <= prev_lp[alpha] + 1e-9
                prev_lp[alpha] = lp
        for alpha, v in prev_lp.items():
            scale = 1 + np.sum(density(base, alpha).masses)
            assert v < 0.05 * scale


def test_json_round_trip():
    mu = measure_1d([(0.0, 0.5), (1.0, 0.5)])
    again = DiscreteMeasure.from_json(mu.to_json())
    assert again.points == pytest.approx(mu.points)
    assert again.masses == pytest.approx(mu.masses)
