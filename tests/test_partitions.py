import numpy as np
import pytest
from fractions import Fraction

from lpfraisse.core import PIndex, rng_from_seed
from lpfraisse.measures import DiscreteSpace, levy_prokhorov, DiscreteMeasure
from lpfraisse.partitions import (
    TAIL, CellMismatchError, _axis_breakpoints, _snap_off, build_appropriate, conditional_expectation, envelope,
    tail_weight, transfer_isometry,
)


def uniform_space(n):
    return DiscreteSpace(tuple((i, Fraction(1, n)) for i in range(n)))


class TestBuildAppropriate:
    def test_single_function_widths(self):
        # values in [0,1], eps=0.3, p=1, total mass 1: axis widths < 0.1
        rng = rng_from_seed(1)
        sp = uniform_space(16)
        vals = rng.uniform(0, 1, size=(1, 16))
        part, cells = build_appropriate(vals, sp, 0.3, 1)
        assert np.max(np.diff(part.breakpoints[0])) < 0.3 / 3 + 1e-12
        # no mass beyond K
        assert all(k[0] != TAIL for k in sorted(cells))

    def test_constant_function_single_cell(self):
        sp = uniform_space(8)
        vals = np.full((1, 8), 0.37)
        part, cells = build_appropriate(vals, sp, 0.5, 1)
        assert len(sorted(cells)) == 1

    def test_breakpoints_avoid_atom_values(self):
        rng = rng_from_seed(2)
        sp = uniform_space(20)
        vals = rng.normal(size=(2, 20))
        part, cells = build_appropriate(vals, sp, 0.4, 3)
        for ax in range(2):
            for b in part.breakpoints[ax]:
                assert not np.any(np.isclose(vals[ax], b, rtol=0, atol=0))

    def test_stability_under_lp_close_perturbation(self):
        # a nearby family keeps the tail condition, tail weight beyond K below
        # eps^p / 3 (the admissible nearness depends on the single-atom tail
        # budget, so keep atoms light)
        rng = rng_from_seed(3)
        sp = uniform_space(32)
        vals = rng.normal(size=(2, 32))
        part, cells = build_appropriate(vals, sp, 0.4, 1)
        assert tail_weight(vals, sp.masses, part.K, 1) < 0.4 / 3
        pert = vals + rng.uniform(-1e-4, 1e-4, size=vals.shape)
        assert tail_weight(pert, sp.masses, part.K, 1) < 0.4 / 3
        # the pushforwards really are close: check on a small slice exactly
        mu = DiscreteMeasure(vals.T[:8].copy(), sp.masses[:8])
        nu = DiscreteMeasure(pert.T[:8].copy(), sp.masses[:8])
        assert levy_prokhorov(mu, nu).upper < 1e-3

    def test_eps_out_of_range(self):
        with pytest.raises(ValueError):
            build_appropriate(np.ones((1, 4)), uniform_space(4), 1.5, 1)


def mask_breakpoints(values, K, width):
    """One axis's breakpoints as `build_appropriate` found them before it
    bisected: a boolean mask over every midpoint at each step (a test-only
    oracle)."""
    vals = np.unique(values)
    taken = set(vals.tolist())
    mids = (vals[:-1] + vals[1:]) / 2 if len(vals) > 1 else np.array([])
    bp = [-K]
    while bp[-1] < K:
        lo = bp[-1]
        limit = lo + width * (1 - 1e-9)
        if limit >= K:
            bp.append(K)
            break
        snap = mids[(mids > lo) & (mids <= limit)]
        if snap.size:
            bp.append(float(snap[-1]))
        else:
            bp.append(_snap_off(lo + width * (1 - 1e-6), taken))
    return tuple(bp)


def ulp_pair(x):
    """The floats either side of x, whose midpoint is x itself."""
    a, b = np.nextafter(x, -np.inf), np.nextafter(x, np.inf)
    assert (a + b) / 2 == x
    return [a, b]


class TestBisectedBreakpoints:
    def test_seeded_values_match_mask_loop(self):
        rng = rng_from_seed(90)
        for _ in range(300):
            n = int(rng.integers(1, 60))
            vals = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 1)
            if rng.random() < 0.5:  # ties and ulp-close values
                vals = np.concatenate([vals, vals[: n // 2], np.nextafter(vals[: n // 3], np.inf)])
            K = float(np.max(np.abs(vals))) * rng.uniform(0.2, 1.2)
            width = K * 10.0 ** rng.uniform(-2.5, 0.5)
            assert _axis_breakpoints(vals, K, width) == mask_breakpoints(vals, K, width)

    @pytest.mark.parametrize("seed, p", [(1, 1), (2, 3), (3, "3/2")])
    def test_build_appropriate_matches_mask_loop(self, seed, p):
        rng = rng_from_seed(seed)
        sp = uniform_space(40)
        vals = np.round(rng.normal(size=(3, 40)), 2)  # with repeated values
        part, _ = build_appropriate(vals, sp, 0.3, p)
        width = 0.3 / 3 ** (1 / float(Fraction(p)))
        assert part.breakpoints == tuple(mask_breakpoints(v, part.K, width) for v in vals)

    @pytest.mark.parametrize("case", ["mid at limit", "mid at lo", "single value", "equal mids"])
    def test_edge_cases_match_mask_loop(self, case):
        K, width = 1.0, 0.25
        if case == "mid at limit":
            limit = -K + width * (1 - 1e-9)
            vals, expect = ulp_pair(limit) + [0.5], limit
        elif case == "mid at lo":
            vals, expect = ulp_pair(-K) + [0.5], None
        elif case == "single value":
            vals, expect = [0.37] * 5, None
        else:
            vals = [0.3, np.nextafter(0.3, 1), np.nextafter(np.nextafter(0.3, 1), 1)]
            assert (vals[0] + vals[1]) / 2 == (vals[1] + vals[2]) / 2
            K, width, expect = 1.0, 1.5, (vals[0] + vals[1]) / 2
        bp = _axis_breakpoints(np.array(vals), K, width)
        assert bp == mask_breakpoints(np.array(vals), K, width)
        if expect is not None:
            assert bp[1] == expect
        if case == "mid at lo":
            assert bp[1] > -K


class TestConditionalExpectation:
    def test_projection_fixes_cell_measurable(self):
        rng = rng_from_seed(4)
        sp = uniform_space(12)
        vals = rng.normal(size=(1, 12))
        part, cells = build_appropriate(vals, sp, 0.5, 1)
        f = conditional_expectation(rng.normal(size=12), cells, sp)
        again = conditional_expectation(f, cells, sp)
        assert again == pytest.approx(f)

    def test_single_cell_gives_mean(self):
        sp = DiscreteSpace(((0, Fraction(1, 4)), (1, Fraction(3, 4))))
        vals = np.zeros((1, 2))
        part, cells = build_appropriate(vals, sp, 0.5, 1)
        f = np.array([4.0, 0.0])
        ef = conditional_expectation(f, cells, sp)
        assert ef == pytest.approx(np.array([1.0, 1.0]))

    def test_norm_one_projection(self):
        rng = rng_from_seed(5)
        sp = uniform_space(20)
        vals = rng.normal(size=(2, 20))
        part, cells = build_appropriate(vals, sp, 0.3, 2)
        for p in (1, 2, 3):
            pidx = PIndex.of(p)
            for _ in range(40):
                f = rng.normal(size=20)
                assert sp.norm(conditional_expectation(f, cells, sp), pidx) <= sp.norm(f, pidx) + 1e-12

    def test_projection_error_on_partitioned_functions(self):
        # the defining functions are reproduced within eps
        rng = rng_from_seed(6)
        for p in (1, 3):
            sp = uniform_space(32)
            vals = rng.normal(size=(2, 32))
            eps = 0.35
            part, cells = build_appropriate(vals, sp, eps, p)
            pidx = PIndex.of(p)
            for j in range(2):
                err = sp.norm(vals[j] - conditional_expectation(vals[j], cells, sp), pidx)
                assert err <= eps + 1e-12

    def test_trailing_axes_match_columns(self):
        rng = rng_from_seed(14)
        sp = DiscreteSpace(tuple((i, Fraction(int(rng.integers(1, 9)), 50)) for i in range(18)))
        vals = rng.normal(size=(2, 18))
        part, cells = build_appropriate(vals, sp, 0.6, 3)
        f = rng.normal(size=(18, 5))
        ef = conditional_expectation(f, cells, sp)
        for j in range(5):
            assert ef[:, j] == pytest.approx(conditional_expectation(f[:, j], cells, sp), rel=1e-14)

    def test_tail_and_bounded_pieces(self):
        # restricted-piece inequalities behind the projection error
        rng = rng_from_seed(7)
        p = 1
        sp = uniform_space(40)
        vals = np.concatenate([rng.normal(size=(1, 36)), 50 + rng.normal(size=(1, 4)) * 10], axis=1)
        eps = 0.5
        part, cells = build_appropriate(vals, sp, eps, p)
        masses = sp.masses
        ef = conditional_expectation(vals[0], cells, sp)
        for axis in (0,):
            un_keys = [k for k in sorted(cells) if k[axis] == TAIL]
            atoms_un = [a for k in un_keys for a in cells[k]]
            if atoms_un:
                lhs = np.sum(np.abs(ef[atoms_un]) ** p * masses[atoms_un])
                mid = np.sum(np.abs(vals[0][atoms_un]) ** p * masses[atoms_un])
                assert lhs <= mid + 1e-12
                assert mid < eps**p / 3 + 1e-12
            atoms_b = [a for k in sorted(cells) if k[axis] != TAIL for a in cells[k]]
            err = np.sum(np.abs(ef[atoms_b] - vals[0][atoms_b]) ** p * masses[atoms_b])
            assert err <= eps**p / 3 + 1e-12


class TestEnvelope:
    def test_constant_span(self):
        sp = uniform_space(10)
        env = envelope(np.ones((10, 1)), sp, 0.2, 1, seed=0)
        assert env.num_cells == 1
        assert env.defect == pytest.approx(0.0, abs=1e-12)

    def test_requires_constants(self):
        rng = rng_from_seed(8)
        sp = uniform_space(10)
        with pytest.raises(ValueError):
            envelope(rng.normal(size=(10, 1)), sp, 0.2, 1, seed=0)

    def test_two_dim_defect(self):
        rng = rng_from_seed(9)
        masses = [Fraction(int(rng.integers(1, 9)), 64) for _ in range(64)]
        sp = DiscreteSpace(tuple((i, m) for i, m in enumerate(masses)))
        B = np.column_stack([np.ones(64), rng.normal(size=64)])
        env = envelope(B, sp, 0.2, 1, seed=1)
        assert env.defect <= 0.2

    def test_weighted_norm_identity(self):
        # disjoint indicators: the envelope norm is the weighted p-norm
        rng = rng_from_seed(10)
        sp = uniform_space(16)
        B = np.column_stack([np.ones(16), rng.normal(size=16)])
        env = envelope(B, sp, 0.3, 3, seed=2)
        atoms = env.partition.cells_of(env.basis.T)
        for _ in range(20):
            c = rng.normal(size=env.num_cells)
            f = np.zeros(16)
            for ci, key in enumerate(env.cell_keys):
                f[list(atoms[key])] = c[ci]
            cells = DiscreteSpace(tuple(zip(env.cell_keys, env.weights)))
            assert cells.norm(c, env.p) == pytest.approx(sp.norm(f, env.p), rel=1e-12)


class TestTransfer:
    def test_inclusion_is_identity(self):
        rng = rng_from_seed(11)
        sp = uniform_space(24)
        B = np.column_stack([np.ones(24), rng.normal(size=24)])
        eps = 0.25
        env = envelope(B, sp, eps, 1, seed=3)
        tr = transfer_isometry(env, env.basis, sp, seed=3)
        assert tr.isometric_exact
        assert tr.defect <= eps + 1e-12
        assert all(r == 1 for r in tr.ratios)

    def test_refinement_transfer(self):
        rng = rng_from_seed(12)
        sp = uniform_space(12)
        B = np.column_stack([np.ones(12), rng.normal(size=12)])
        eps = 0.3
        env = envelope(B, sp, eps, 3, seed=4)
        # split every atom in two children with uneven masses
        child_parent = [i for i in range(12) for _ in range(2)]
        masses = []
        for i in range(12):
            m = sp.atoms[i][1]
            masses += [m * Fraction(1, 3), m * Fraction(2, 3)]
        sp1 = DiscreteSpace(tuple((j, m) for j, m in enumerate(masses)))
        G = env.basis[child_parent, :]
        tr = transfer_isometry(env, G, sp1, seed=4)
        assert tr.isometric_exact
        assert tr.defect <= eps

    def test_cell_mismatch_refusal(self):
        rng = rng_from_seed(13)
        sp = uniform_space(12)
        B = np.column_stack([np.ones(12), rng.normal(size=12)])
        env = envelope(B, sp, 0.3, 1, seed=5)
        G = env.basis + 100.0  # everything lands far away
        with pytest.raises(CellMismatchError) as exc:
            transfer_isometry(env, G, sp, seed=5)
        assert exc.value.offending


def _interval_index_reference(part, axis, value):
    """Frozen copy of the per-atom interval lookup cells_of replaced."""
    if abs(value) > part.K:
        return TAIL
    bp = part.breakpoints[axis]
    idx = int(np.searchsorted(bp, value, side="right")) - 1
    return min(max(idx, 0), len(bp) - 2)


def test_cells_of_matches_per_atom_lookup():
    rng = rng_from_seed(16)
    for trial in range(12):
        nfun, natoms = 1 + trial % 3, 10 + 7 * trial
        sp = DiscreteSpace(tuple((i, Fraction(int(rng.integers(1, 9)), 64)) for i in range(natoms)))
        vals = rng.normal(size=(nfun, natoms)) * (1 + trial % 4)
        part, cells = build_appropriate(vals, sp, 0.5, (1, 3)[trial % 2])
        # probe values: the atoms, every breakpoint and its neighbours,
        # +-K, beyond K and signed zeros
        probes = [vals]
        for ax in range(nfun):
            bp = np.array(part.breakpoints[ax])
            extra = np.concatenate([bp, np.nextafter(bp, -np.inf), np.nextafter(bp, np.inf),
                                    [part.K, -part.K, 1.5 * part.K, -1.5 * part.K, 0.0, -0.0]])
            col = np.tile(vals[:, :1], (1, extra.size))
            col[ax] = extra
            probes.append(col)
        values = np.hstack(probes)
        want: dict = {}
        for a in range(values.shape[1]):
            key = tuple(_interval_index_reference(part, j, float(values[j, a])) for j in range(nfun))
            want.setdefault(key, []).append(a)
        got = part.cells_of(values)
        assert list(got) == list(want)
        assert all(got[k] == tuple(v) for k, v in want.items())
        assert any(TAIL in k for k in got)
        assert cells == part.cells_of(vals)


def test_xi_matches_per_cell_loop():
    rng = rng_from_seed(17)
    for trial in range(8):
        natoms, k = 12 + 5 * trial, 1 + trial % 3
        sp = DiscreteSpace(tuple((i, Fraction(int(rng.integers(1, 9)), 64)) for i in range(natoms)))
        B = np.column_stack([np.ones(natoms)] + [rng.normal(size=natoms) for _ in range(k - 1)])
        env = envelope(B, sp, 0.5, (1, 3)[trial % 2], seed=trial, samples=64)
        xi = np.zeros((env.num_cells, k))
        cells = env.partition.cells_of(env.basis.T)
        for ci, key in enumerate(env.cell_keys):
            idx = list(cells[key])
            w = sp.masses[idx]
            xi[ci] = (w[:, None] * env.basis[idx]).sum(axis=0) / w.sum()
        assert np.array_equal(env.xi, xi)


def test_batched_defects_match_per_sample_loop():
    # reference: the defects computed one sample at a time
    rng = rng_from_seed(15)
    sp = DiscreteSpace(tuple((i, Fraction(int(rng.integers(1, 9)), 40)) for i in range(60)))
    B = np.column_stack([np.ones(60), rng.normal(size=60)])
    for p in (1, 3):
        pidx = PIndex.of(p)
        env = envelope(B, sp, 0.9, p, seed=6, samples=64)
        G = env.basis
        tr = transfer_isometry(env, G, sp, seed=6, samples=64)
        cells = env.partition.cells_of(env.basis.T)
        env_defect = tr_defect = 0.0
        for c in rng_from_seed(7).standard_normal((64, 2)):
            f = env.basis @ c
            err = sp.norm(conditional_expectation(f, cells, sp) - f, pidx)
            env_defect = max(env_defect, err / sp.norm(f, pidx))
        for c in rng_from_seed(8).standard_normal((64, 2)):
            err = sp.norm(tr.matrix @ (env.xi @ c) - G @ c, pidx)
            tr_defect = max(tr_defect, err / sp.norm(env.basis @ c, pidx))
        assert env.defect == pytest.approx(env_defect, rel=1e-12, abs=1e-15)
        assert tr.defect == pytest.approx(tr_defect, rel=1e-12, abs=1e-15)
        assert env.defect > 1e-6 and tr.defect > 1e-6


def pinned_instance(seed, p, k, eps, n_atoms=24):
    """Envelope of a span of few-valued functions, transferred onto the same
    atoms with fresh masses, so that cells hold several atoms and the cell
    ratios are not all 1.  Also returns the |det| of the Auerbach basis in the
    coordinates of the spanning functions, the volume the ascent maximizes."""
    rng = rng_from_seed(seed)

    def space():
        masses = [Fraction(int(rng.integers(1, 20))) for _ in range(n_atoms)]
        total = sum(masses)
        return DiscreteSpace(tuple((a, m / total) for a, m in enumerate(masses)))

    sp0 = space()
    B = np.column_stack([np.ones(n_atoms)] + [rng.integers(-2, 3, size=n_atoms) / 2 for _ in range(k - 1)])
    env = envelope(B, sp0, eps, p, seed=seed)
    tr = transfer_isometry(env, env.basis, space(), seed=seed)
    volume = abs(np.linalg.det(np.linalg.lstsq(B, env.basis, rcond=None)[0]))
    return env, tr, volume


# Each change in the Auerbach basis found or in the partition built moves
# these cells, masses and ratios.  The last field is a floor on the Auerbach
# volume: the |det| the earlier coordinate ascent reached, whose steps at
# p = 3 stopped short of the dual-norm argmax.
PINNED = [
    ((21, 1, 2, 0.6), 7,
     "1/5 1/9 19/135 17/135 19/90 7/270 5/27",
     "47/64 47/27 893/1296 799/1215 893/486 329/972 1175/486",
     2.1318282840098255),
    ((22, 3, 2, 0.6), 8,
     "7/34 23/204 1/17 13/68 13/204 5/34 4/51 29/204",
     "277/204 6371/3672 277/408 3601/4080 277/408 277/442 277/204 8033/5304",
     1.37129783932468),
    ((23, 3, 3, 0.8), 17,
     "7/106 7/212 7/106 17/212 9/106 2/53 13/212 9/106 13/212 3/212 3/212 9/212 3/106 4/53 "
     "13/212 13/106 7/106",
     "1757/212 1757/1696 251/318 4267/636 2259/4558 502/795 251/212 2259/1802 3263/1060 251/636 "
     "753/1696 2259/1484 251/530 251/212 3263/6360 3263/3710 1757/424",
     1.5988504803389294),
]


@pytest.mark.parametrize("args, cells, weights, ratios, volume_floor", PINNED, ids=["p1-k2", "p3-k2", "p3-k3"])
def test_pinned_envelope_transfer(args, cells, weights, ratios, volume_floor):
    env, tr, volume = pinned_instance(*args)
    assert env.num_cells == cells
    assert env.weights == tuple(Fraction(w) for w in weights.split())
    assert tr.ratios == tuple(Fraction(r) for r in ratios.split())
    assert tr.isometric_exact
    assert volume >= volume_floor - 1e-12
