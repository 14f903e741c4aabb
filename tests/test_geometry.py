from fractions import Fraction

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse
from scipy.spatial.distance import cdist

from lpfraisse import geometry
from lpfraisse.core import PIndex, norm_p, rng_from_seed
from lpfraisse.geometry import (
    GapPreconditionError, Subspace, _dists_to_unit_ball, _dual_norm_argmax, _linprog,
    auerbach_basis, bm_from_gap, dist_to_unit_ball, functional_norms, gap_estimate,
)
from lpfraisse.spaces import VectorP


def coord_subspace(n, p, cols):
    b = np.zeros((n, len(cols)))
    for i, c in enumerate(cols):
        b[c, i] = 1.0
    return Subspace(n, PIndex.of(p), b)


class TestDistToBall:
    def test_inside_ball(self):
        Y = coord_subspace(2, 1, [0])
        assert dist_to_unit_ball(VectorP([1.0, 0.0], PIndex.of(1)), Y) == pytest.approx(0.0, abs=1e-9)

    def test_radial_projection(self):
        Y = coord_subspace(2, 1, [0])
        assert dist_to_unit_ball(VectorP([2.0, 0.0], PIndex.of(1)), Y) == pytest.approx(1.0, abs=1e-9)

    def test_orthogonal_axis_l1(self):
        # min over t of ||u_0 - t u_1||_1 = min (1 + |t|) = 1 at t = 0
        Y = coord_subspace(2, 1, [1])
        assert dist_to_unit_ball(VectorP([1.0, 0.0], PIndex.of(1)), Y) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("p", [1, 2, None])
    def test_certified_ps_match_sampling_oracle(self, p):
        rng = rng_from_seed(3)
        pidx = PIndex.of(p)
        for _ in range(10):
            n, k = 4, 2
            Y = Subspace(n, pidx, rng.standard_normal((n, k)))
            x = VectorP(rng.standard_normal(n), pidx)
            d = dist_to_unit_ball(x, Y)
            # brute-force grid over the coefficient body
            best = np.inf
            for c in rng.standard_normal((20000, k)):
                y = Y.basis @ c
                ny = np.max(np.abs(y)) if pidx.is_inf else np.sum(np.abs(y) ** float(pidx)) ** (1 / float(pidx))
                if ny > 1:
                    y = y / ny
                diff = x.entries - y
                nd = np.max(np.abs(diff)) if pidx.is_inf else np.sum(np.abs(diff) ** float(pidx)) ** (1 / float(pidx))
                best = min(best, nd)
            assert d <= best + 1e-6
            assert d >= best - 0.05  # sampling oracle is itself loose

    def test_general_p_best_effort(self):
        rng = rng_from_seed(4)
        Y = Subspace(3, PIndex.of(3), rng.standard_normal((3, 2)))
        x = VectorP(rng.standard_normal(3), PIndex.of(3))
        d, y = dist_to_unit_ball(x, Y, return_minimizer=True)
        assert d >= 0
        assert np.sum(np.abs(y) ** 3) <= 1 + 1e-9


def one_point_lp(x, B, p):
    """Reference: the distance-to-ball LP of a single point, dense, one solve."""
    n, k = B.shape
    if p.is_inf:
        one, nil = np.ones((n, 1)), np.zeros((n, 1))
        A = np.vstack([np.hstack([-B, -one]), np.hstack([B, -one]),
                       np.hstack([B, nil]), np.hstack([-B, nil])])
        b = np.concatenate([-x, x, np.ones(2 * n)])
        obj = np.concatenate([np.zeros(k), [1.0]])
        bounds = [(None, None)] * k + [(0, None)]
    else:
        eye, zero = np.eye(n), np.zeros((n, n))
        A = np.vstack([np.hstack([-B, -eye, zero]), np.hstack([B, -eye, zero]),
                       np.hstack([B, zero, -eye]), np.hstack([-B, zero, -eye]),
                       np.concatenate([np.zeros(k + n), np.ones(n)])[None, :]])
        b = np.concatenate([-x, x, np.zeros(2 * n), [1.0]])
        obj = np.concatenate([np.zeros(k), np.ones(n), np.zeros(n)])
        bounds = [(None, None)] * k + [(0, None)] * (2 * n)
    res = scipy.optimize.linprog(obj, A_ub=A, b_ub=b, bounds=bounds, method="highs")
    assert res.status == 0
    return res.fun


class TestStackedDistances:
    @pytest.mark.parametrize("p", [1, None])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_one_point_lps(self, p, k):
        rng = rng_from_seed(20 + k)
        pidx = PIndex.of(p)
        Y = Subspace(4, pidx, rng.standard_normal((4, k)))
        P = rng.standard_normal((50, 4)) * rng.uniform(0.1, 3, size=(50, 1))
        d, ys = _dists_to_unit_ball(P, Y)
        ref = np.array([one_point_lp(x, Y.basis, pidx) for x in P])
        assert np.max(np.abs(d - ref)) <= 1e-12
        for x, y, di in zip(P, ys, d):
            assert norm_p(y, pidx) <= 1 + 1e-9
            assert norm_p(x - y, pidx) == pytest.approx(di, abs=1e-9)

    @pytest.mark.parametrize("p", [1, None])
    def test_failed_block_raises(self, p):
        # HiGHS reads |b| >= 1e20 as infinite: one such block fails the stacked LP
        rng = rng_from_seed(31)
        Y = Subspace(4, PIndex.of(p), rng.standard_normal((4, 2)))
        P = rng.standard_normal((50, 4))
        P[17, 2] = 1e20
        with pytest.raises(RuntimeError, match="LP failed"):
            _dists_to_unit_ball(P, Y)


def kron_linprog(obj, A, rhs, lb):
    """The stacked LP solved as `_linprog` solved it before its lean entry
    point: a kron-built block-diagonal matrix and a list of bound pairs through
    scipy.optimize.linprog (a test-only reference)."""
    m = len(obj) // A.shape[1]
    bounds = [(None if np.isneginf(b) else b, None) for b in lb] * m
    res = scipy.optimize.linprog(obj, A_ub=scipy.sparse.kron(scipy.sparse.identity(m), A), b_ub=rhs,
                                 bounds=bounds, method="highs")
    assert res.status == 0
    return res.x


class TestLinprog:
    @pytest.mark.parametrize("p", [1, None])
    @pytest.mark.parametrize("n, k, m", [(2, 1, 1), (4, 2, 5), (9, 3, 7), (20, 2, 16), (48, 3, 16)])
    def test_matches_kron_linprog(self, p, n, k, m, monkeypatch):
        rng = rng_from_seed(70 + n + k + m)
        Y = Subspace(n, PIndex.of(p), rng.standard_normal((n, k)))
        G = rng.standard_normal((m, k))
        P = rng.standard_normal((m, n)) * rng.uniform(0.1, 3, size=(m, 1))
        # the stacked LPs of both callers, each solved both ways: equal x, so equal outputs
        calls = []
        monkeypatch.setattr(geometry, "_linprog", lambda *a: calls.append(a) or _linprog(*a))
        _dual_norm_argmax(G, Y), _dists_to_unit_ball(P, Y)
        assert len(calls) == 2
        for args in calls:
            assert np.array_equal(_linprog(*args), kron_linprog(*args))

    @pytest.mark.parametrize("excess, fails", [(1e-3, True), (1e-5, False)])
    def test_infeasible_solution_raises(self, excess, fails, monkeypatch):
        # scaling the optimum of max g.c over ||Bc||_inf <= 1 by 1 + excess
        # breaks its tight constraint by excess; the check forgives 10 sqrt(1e-9)
        milp = scipy.optimize.milp

        def tampered(*args, **kwargs):
            res = milp(*args, **kwargs)
            res.x = res.x * (1 + excess)
            return res

        rng = rng_from_seed(32)
        Y = Subspace(6, PIndex.of(None), rng.standard_normal((6, 3)))
        G = rng.standard_normal((4, 3))
        monkeypatch.setattr(scipy.optimize, "milp", tampered)
        if fails:
            with pytest.raises(RuntimeError, match="LP failed"):
                _dual_norm_argmax(G, Y)
        else:
            assert np.max(norm_p(_dual_norm_argmax(G, Y) @ Y.basis.T, PIndex.of(None), axis=1)) \
                == pytest.approx(1 + excess, abs=1e-9)


def perturbed_pair(p, k):
    rng = rng_from_seed(100 + k)
    A = rng.standard_normal((4, k))
    B = A + 0.05 * rng.standard_normal((4, k))
    return Subspace(4, PIndex.of(p), A), Subspace(4, PIndex.of(p), B)


# (lower, upper) of gap_estimate(budget=12, seed=3) on perturbed_pair(p, k), from
# the per-point LPs and the dense cdist mesh that the stacked LP and k-d tree replaced
PINNED_GAPS = {
    (1, 1): (0.04398195298105992, 0.04398195298106042),
    (1, 2): (0.04662482194527859, 1.126414794711799),
    (1, 3): (0.059762483422734686, 1.551533561268487),
    (2, 1): (0.04130792976683514, 0.04130792976683566),
    (2, 2): (0.04389665598053251, 0.9598964152886246),
    (2, 3): (0.08316384835813731, 1.7598737595681417),
    (None, 1): (0.045116006353792704, 0.045116006353792815),
    (None, 2): (0.056568758545558706, 1.0711900964186387),
    (None, 3): (0.12070156606033855, 1.9787771974694897),
}


class TestGapEstimate:
    @pytest.mark.parametrize("p, k", sorted(PINNED_GAPS, key=str))
    def test_pinned(self, p, k):
        g = gap_estimate(*perturbed_pair(p, k), budget=12, seed=3)
        lower, upper = PINNED_GAPS[p, k]
        assert g.lower == pytest.approx(lower, rel=1e-12)
        assert g.upper == pytest.approx(upper, rel=1e-12)

    @pytest.mark.parametrize("p", [1, 2, None])
    @pytest.mark.parametrize("k, budget", [(1, 8), (2, 40), (3, 300)])
    def test_mesh_matches_cdist(self, p, k, budget):
        X, Y = perturbed_pair(p, k)
        extra = X.basis.T / np.array([norm_p(v, X.ambient_p) for v in X.basis.T])[:, None]
        g = gap_estimate(X, Y, budget=budget, seed=5, extra_points=extra)
        metric = {1: "cityblock", 2: "euclidean", None: "chebyshev"}[p]
        rng = rng_from_seed(5)
        mesh = 0.0
        for A, pts in ((X, np.vstack([X.sphere_grid(budget), extra])), (Y, Y.sphere_grid(budget))):
            probes = A.sphere_sample(rng, 4 * budget)
            mesh = max(mesh, float(np.max(np.min(cdist(probes, pts, metric=metric), axis=1))))
        assert g.upper == g.lower + 2 * mesh


    def test_equal_subspaces(self):
        X = coord_subspace(3, 1, [0, 1])
        g = gap_estimate(X, X, budget=24, seed=0)
        assert g.lower == pytest.approx(0.0, abs=1e-9)

    def test_orthogonal_lines_l1(self):
        X = coord_subspace(2, 1, [0])
        Y = coord_subspace(2, 1, [1])
        g = gap_estimate(X, Y, budget=16, seed=0)
        assert g.lower == pytest.approx(1.0, abs=1e-9)

    def test_symmetry(self):
        rng = rng_from_seed(5)
        X = Subspace(3, PIndex.of(2), rng.standard_normal((3, 2)))
        Y = Subspace(3, PIndex.of(2), rng.standard_normal((3, 2)))
        a = gap_estimate(X, Y, budget=48, seed=1)
        b = gap_estimate(Y, X, budget=48, seed=1)
        assert a.lower == pytest.approx(b.lower, abs=0.05)

    def test_image_gap_inequality(self):
        # gap between images of two near-isometries is controlled by the
        # operator distance, on certified lower estimates
        rng = rng_from_seed(6)
        for _ in range(30):
            n, k = 3, 2
            delta = float(rng.uniform(0, 0.5))
            def mk():
                perm = rng.permutation(n)[:k]
                m = np.zeros((n, k))
                for j in range(k):
                    m[perm[j], j] = rng.choice([-1, 1]) * rng.uniform(1 / (1 + delta), 1 + delta)
                return m
            g, h = mk(), mk()
            X, Y = Subspace(n, PIndex.of(2), g), Subspace(n, PIndex.of(2), h)
            opnorm = float(np.linalg.norm(g - h, 2))
            est = gap_estimate(X, Y, budget=32, seed=7)
            assert est.lower <= 2 * (1 + delta) * opnorm + 1e-9


def slsqp_dual_norm(g, B, p, rng):
    """max <g, c> over ||Bc||_p <= 1 by SLSQP from the p = 2 optimum and one
    random start, each end point scaled onto the sphere (a test-only reference)."""
    def cons_jac(c):
        z = B @ c
        return p * (np.abs(z) ** (p - 1) * np.sign(z)) @ B

    cons = [{"type": "eq", "fun": lambda c: np.sum(np.abs(B @ c) ** p) - 1, "jac": cons_jac}]
    best = -np.inf
    for c0 in (np.linalg.solve(B.T @ B, g), rng.standard_normal(len(g))):
        r = scipy.optimize.minimize(lambda c: -g @ c, c0 / norm_p(B @ c0, p), jac=lambda c: -g,
                                    method="SLSQP", constraints=cons, options={"maxiter": 200, "ftol": 1e-14})
        best = max(best, g @ r.x / norm_p(B @ r.x, p))
    return best


class TestDualNormArgmax:
    @pytest.mark.parametrize("p", ["5/4", "3/2", "2", "3", "7"])
    def test_finite_p_matches_slsqp(self, p):
        rng = rng_from_seed(60)
        pf = float(Fraction(p))
        for _ in range(100):
            n = int(rng.integers(2, 51))
            k = int(rng.integers(1, min(n, 4) + 1))
            B, g = rng.standard_normal((n, k)), rng.standard_normal(k)
            c = _dual_norm_argmax(g[None, :], Subspace(n, PIndex.of(p), B))[0]
            assert norm_p(B @ c, pf) == pytest.approx(1.0, abs=1e-12)
            ref = slsqp_dual_norm(g, B, pf, rng)
            assert g @ c == pytest.approx(ref, rel=1e-10)

    @pytest.mark.parametrize("p", [1, None])
    def test_stacked_lp_matches_rows(self, p):
        rng = rng_from_seed(61)
        for n, k in ((3, 2), (8, 3), (30, 4)):
            Y = Subspace(n, PIndex.of(p), rng.standard_normal((n, k)))
            G = rng.standard_normal((16, k))
            C = _dual_norm_argmax(G, Y)
            rows = np.array([_dual_norm_argmax(g[None, :], Y)[0] for g in G])
            assert np.max(np.abs(np.sum(G * C, axis=1) - np.sum(G * rows, axis=1))) <= 1e-12
            assert np.max(norm_p(C @ Y.basis.T, PIndex.of(p), axis=1)) <= 1 + 1e-9


def auerbach_per_restart(X, restarts, seed, ascent_rounds=30):
    """`auerbach_basis` at p != 2 as it ran before its restarts were stacked:
    one restart and one cofactor at a time (a test-only oracle)."""
    k = X.dim
    B, p = X.basis, X.ambient_p
    rng = rng_from_seed(seed)
    Cs = [rng.standard_normal((k, k)) for _ in range(restarts)]
    for C in Cs:
        for j in range(k):
            C[:, j] /= norm_p(B @ C[:, j], p)
    active = range(restarts)
    for _ in range(ascent_rounds):
        improved = set()
        for j in range(k):
            cofs = {}
            for r in active:
                minor = np.delete(Cs[r], j, axis=1)
                cof = np.array([(-1) ** (i + j) * np.linalg.det(np.delete(minor, i, axis=0))
                                for i in range(k)])
                if np.any(cof != 0):
                    cofs[r] = cof
            if not cofs:
                continue
            for r, c in zip(cofs, _dual_norm_argmax(np.array(list(cofs.values())), X)):
                Cc = Cs[r].copy()
                Cc[:, j] = c
                if abs(np.linalg.det(Cc)) > abs(np.linalg.det(Cs[r])) + 1e-12:
                    Cs[r] = Cc
                    improved.add(r)
        active = sorted(improved)
        if not active:
            break
    best_C = max(Cs, key=lambda C: abs(np.linalg.det(C)))
    vecs = B @ best_C
    for j in range(k):
        vecs[:, j] /= norm_p(vecs[:, j], p)
    return vecs


def circle_ratios(X, count=4000):
    """max over a dense coefficient circle of |a_j| / ||sum_i a_i x_i||_p,
    for each j: a lower bound on each functional norm."""
    th = np.linspace(0, 2 * np.pi, count, endpoint=False)
    coeffs = np.stack([np.cos(th), np.sin(th)], axis=1)
    norms = norm_p(coeffs @ X.basis.T, X.ambient_p, axis=1)
    return np.max(np.abs(coeffs) / norms[:, None], axis=0)


class TestFunctionalNorms:
    @pytest.mark.parametrize("p, basis, expected", [
        (None, [[1.0, 1.0], [0.0, 1.0]], [2.0, 1.0]),
        (1, [[1.0, 0.5], [0.0, 0.5]], [1.0, 2.0]),
        (2, [[1.0, 2**-0.5], [0.0, 2**-0.5]], [2**0.5, 2**0.5]),
    ])
    def test_closed_form_planes(self, p, basis, expected):
        X = Subspace(2, PIndex.of(p), np.array(basis))
        assert functional_norms(X) == pytest.approx(expected, rel=1e-9)

    def test_one_dimensional(self):
        X = Subspace(3, PIndex.of(3), np.array([[2.0], [0.0], [-1.0]]))
        assert functional_norms(X) == pytest.approx([9 ** (-1 / 3)], rel=1e-15)

    def test_dense_circle_at_p3(self):
        X = Subspace(4, PIndex.of(3), rng_from_seed(12).standard_normal((4, 2)))
        exact, sampled = functional_norms(X), circle_ratios(X)
        # the circle never beats the exact norms, and comes close to both
        assert np.all(sampled <= exact + 1e-9)
        assert np.all(sampled >= exact - 1e-4)
        assert abs(exact[0] - exact[1]) > 1e-2


# |det| of the coefficient matrix of the basis the coordinate ascent found at
# p = 2, on rng_from_seed(40 + k).standard_normal((n, k))
ASCENT_VOLUMES = {(4, 2): 0.3429514788663467, (5, 3): 0.5465280051002613, (6, 4): 0.19771599331736758}


class TestAuerbach:
    def test_unit_basis_is_auerbach(self):
        for p in (1, 2, None):
            X = coord_subspace(3, p, [0, 1, 2])
            vecs = auerbach_basis(X, restarts=4, seed=0)
            assert np.max(functional_norms(Subspace(3, PIndex.of(p), vecs))) <= 1 + 1e-9

    def test_one_dimensional(self):
        X = Subspace(3, PIndex.of(1), np.array([[2.0], [0.0], [0.0]]))
        vecs = auerbach_basis(X)
        assert np.abs(vecs[0, 0]) == pytest.approx(1.0)

    def test_random_2dim_l1_defect(self):
        rng = rng_from_seed(8)
        X = Subspace(4, PIndex.of(1), rng.standard_normal((4, 2)))
        au = Subspace(4, X.ambient_p, auerbach_basis(X, restarts=8, seed=1))
        # the dense coefficient circle never finds a larger defect than the exact norms
        assert np.max(circle_ratios(au)) <= np.max(functional_norms(au)) + 1e-9

    @pytest.mark.parametrize("p", [1, 3, None])
    def test_random_plane_is_nearly_auerbach(self, p):
        rng = rng_from_seed(8)
        X = Subspace(4, PIndex.of(p), rng.standard_normal((4, 2)))
        vecs = auerbach_basis(X, restarts=8, seed=1)
        norms = functional_norms(Subspace(4, X.ambient_p, vecs))
        assert np.all(norms >= 1 - 1e-9) and np.all(norms <= 1 + 1e-3)

    @pytest.mark.parametrize("n, k", sorted(ASCENT_VOLUMES))
    def test_euclidean_qr_basis(self, n, k):
        B = rng_from_seed(40 + k).standard_normal((n, k))
        vecs = auerbach_basis(Subspace(n, PIndex.of(2), B))
        assert np.allclose(np.linalg.norm(vecs, axis=0), 1.0, atol=1e-12)
        assert functional_norms(Subspace(n, PIndex.of(2), vecs)) == pytest.approx(np.ones(k), abs=1e-12)
        volume = abs(np.linalg.det(np.linalg.lstsq(B, vecs, rcond=None)[0]))
        assert volume >= ASCENT_VOLUMES[n, k] - 1e-12


    @pytest.mark.parametrize("p", [1, 3, None])
    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("restarts", [3, 16])
    def test_stacked_ascent_matches_per_restart_loop(self, p, k, restarts):
        rng = rng_from_seed(80 + k)
        X = Subspace(k + 3, PIndex.of(p), rng.standard_normal((k + 3, k)))
        vecs = auerbach_basis(X, restarts=restarts, seed=k)
        assert np.array_equal(vecs, auerbach_per_restart(X, restarts, seed=k))


class TestBmBridge:
    def test_identical_subspaces(self):
        rng = rng_from_seed(9)
        X = Subspace(3, PIndex.of(2), np.linalg.qr(rng.standard_normal((3, 2)))[0])
        br = bm_from_gap(X, X, budget=64, seed=0)
        assert br.bound == pytest.approx(0.0, abs=1e-6)

    def test_perturbed_pair_bound(self):
        rng = rng_from_seed(10)
        A = np.linalg.qr(rng.standard_normal((4, 2)))[0]
        X = Subspace(4, PIndex.of(2), A)
        Y = Subspace(4, PIndex.of(2), A + 0.002 * rng.standard_normal(A.shape))
        br = bm_from_gap(X, Y, budget=96, seed=0)
        assert br.gap.upper <= 0.01 or br.bound <= 0.08
        assert br.bound <= 4 * 2 * br.gap.upper + 1e-6

    def test_precondition_refusal(self):
        X = coord_subspace(2, 1, [0])
        Y = coord_subspace(2, 1, [1])
        with pytest.raises(GapPreconditionError) as exc:
            bm_from_gap(X, Y, budget=16, seed=0)
        assert exc.value.gap_upper >= 1.0


def test_json_round_trip():
    # subspaces are only read, in the format of docs/formats.md
    X = coord_subspace(3, 1, [0, 2])
    again = Subspace.from_json({"ambient_n": 3, "ambient_p": 1, "basis": [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]})
    assert again.basis == pytest.approx(X.basis)
    assert again.ambient_p == X.ambient_p
