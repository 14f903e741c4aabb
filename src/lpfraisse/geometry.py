"""Gap (opening) metric between subspaces, Auerbach bases, and the
constructive gap-to-Banach-Mazur bridge.

The gap between unit balls is estimated from seeded sphere samples.  Its
lower value is the largest distance from a grid point of one side to the
unit ball of the other.  At p in {1, 2, inf} every distance is exact (closed
form for p = 2, linear programs for p in {1, inf}), so the value is a
certified lower bound.  At other p it is best-effort only: a local SLSQP
solve returns the norm of a feasible point, an upper estimate of each
distance.  The reported upper bound adds an explicit covering-mesh slack,
never a claim of exactness.  All the points of one gap direction are
measured in one solve: the closed form is batched, and the per-point LPs
are stacked block-diagonally into one separable LP.  The covering mesh is
the largest distance from a random probe to its nearest grid point, found
by an exact k-d tree query in the ambient norm (Friedman, Bentley and
Finkel 1977) without a probe-by-grid matrix.

Every LP goes through `_linprog`: one HiGHS call per stacked LP, with the
block-diagonal matrix tiled from one block's CSC arrays, and a check that
the solution meets its bounds and constraints.

Auerbach bases: at p = 2 the orthonormal factor of a QR factorization.
Otherwise a max-volume coordinate ascent whose every step is an exact
dual-norm argmax: at p in {1, inf} the steps of all restarts still improving
are stacked into one block-diagonal LP; at other finite p each step is a
Newton solve on the smooth side of the primal-dual pair, stopped by a
relative primal-dual gap of 1e-12.  The restarts are one stacked array, and
the cofactors of all of them come from one stacked determinant.

Out of scope: the Kadets-style pseudometric that takes an infimum of the
gap over all isometric copies of the two subspaces; only direct gaps and a
Banach-Mazur upper estimator are provided.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from lpfraisse.core import PIndex, norm_p, rng_from_seed
from lpfraisse.spaces import VectorP


class GapPreconditionError(ValueError):
    def __init__(self, gap_upper: float, needed: float):
        self.gap_upper = gap_upper
        self.needed = needed
        super().__init__(f"gap upper bound {gap_upper:.6g} exceeds required {needed:.6g}")


@dataclass(frozen=True)
class Subspace:
    ambient_n: int
    ambient_p: PIndex
    basis: np.ndarray  # (ambient_n, dim), columns are basis vectors

    def __post_init__(self):
        b = np.asarray(self.basis, dtype=float)
        if b.ndim != 2 or b.shape[0] != self.ambient_n:
            raise ValueError("basis must be ambient_n x dim")
        if np.linalg.matrix_rank(b) < b.shape[1]:
            raise ValueError("basis vectors must be linearly independent")
        object.__setattr__(self, "basis", b)
        object.__setattr__(self, "ambient_p", PIndex.of(self.ambient_p))

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def _normalize(self, pts: np.ndarray) -> np.ndarray:
        norms = norm_p(pts, self.ambient_p, axis=1)
        norms[norms == 0] = 1.0
        return pts / norms[:, None]

    def sphere_sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Random points on the unit sphere of the subspace, as ambient vectors."""
        cs = rng.standard_normal((count, self.dim))
        return self._normalize(cs @ self.basis.T)

    def sphere_grid(self, count: int) -> np.ndarray:
        """Deterministic quasi-uniform sphere points (smaller covering gaps
        than random draws): antipodes, equal angles, or a spiral grid."""
        k = self.dim
        if k == 1:
            cs = np.array([[1.0], [-1.0]])
        elif k == 2:
            th = np.linspace(0, 2 * np.pi, count, endpoint=False)
            cs = np.stack([np.cos(th), np.sin(th)], axis=1)
        elif k == 3:
            i = np.arange(count) + 0.5
            phi = np.arccos(1 - 2 * i / count)
            golden = np.pi * (1 + 5**0.5)
            th = golden * i
            cs = np.stack([np.cos(th) * np.sin(phi), np.sin(th) * np.sin(phi), np.cos(phi)], axis=1)
        else:
            cs = rng_from_seed(10_007).standard_normal((count, k))
            cs /= np.linalg.norm(cs, axis=1)[:, None]
        return self._normalize(cs @ self.basis.T)

    @classmethod
    def from_json(cls, obj) -> "Subspace":
        basis = np.array(obj["basis"], dtype=float).T
        return cls(obj["ambient_n"], PIndex.from_json(obj["ambient_p"]), basis)


# the feasibility tolerance scipy's linprog applies to a HiGHS result
LP_FEAS_TOL = 10 * np.sqrt(1e-9)


def _linprog(obj: np.ndarray, A: np.ndarray, rhs: np.ndarray, lb: np.ndarray) -> np.ndarray:
    """min obj.x over m independent blocks A x_b <= rhs_b, x_b >= lb (free where
    lb is -inf): the stacked minimizer, m = len(obj) // A.shape[1].

    One HiGHS solve (`scipy.optimize.milp` with no integrality runs HiGHS's LP
    path) of the block-diagonal CSC matrix, tiled from A's own CSC arrays.
    The result is checked as scipy's linprog checks it: a solution with no
    NaN, within 10 sqrt(1e-9) of its bounds and constraints; a solve that is
    not optimal, or fails the check, raises RuntimeError.
    """
    import scipy.optimize
    import scipy.sparse

    A = scipy.sparse.csc_array(A)
    rows, nv = A.shape
    m = len(obj) // nv
    blocks = np.arange(m)[:, None]
    indptr = np.concatenate([[0], (A.indptr[1:] + A.nnz * blocks).ravel()])
    full = scipy.sparse.csc_array((np.tile(A.data, m), (A.indices + rows * blocks).ravel(), indptr),
                                  shape=(m * rows, m * nv))
    lbs = np.tile(lb, m)
    res = scipy.optimize.milp(obj, bounds=scipy.optimize.Bounds(lbs, np.inf),
                              constraints=scipy.optimize.LinearConstraint(full, -np.inf, rhs))
    if res.status != 0:
        raise RuntimeError(f"LP failed: {res.message}")
    x = res.x
    if x is None or np.isnan(x).any() or np.any(x < lbs - LP_FEAS_TOL) \
            or np.any(full @ x > rhs + LP_FEAS_TOL):
        raise RuntimeError("LP failed: the solution does not satisfy the constraints "
                           f"within {LP_FEAS_TOL:.3g}")
    return x


def _dists_to_unit_ball(P: np.ndarray, Y: Subspace) -> tuple[np.ndarray, np.ndarray]:
    """min over the unit ball of Y of ||x - y|| in the ambient norm, for every
    row x of the (m, n) array P: the m distances and the (m, n) minimizers.

    Certified (closed form or LP optimum, gap <= 1e-6) for p in {1, 2, inf}:
    the m per-point LPs are stacked block-diagonally into one LP, which is
    separable, so its optimum is optimal in every block.  Multistart local
    solve, flagged by callers as best-effort, otherwise.
    """
    B = Y.basis
    n, k = B.shape
    m = len(P)
    p = Y.ambient_p

    if not p.is_inf and float(p) == 2:
        # project, scale into the ball, measure
        C = np.linalg.lstsq(B, P.T, rcond=None)[0]
        Z = (B @ C).T
        ys = Z / np.maximum(np.linalg.norm(Z, axis=1), 1.0)[:, None]
        return np.linalg.norm(P - ys, axis=1), ys

    if p.is_inf or float(p) == 1:
        if p.is_inf:
            # vars: c (k, free), t (>=0); min t
            one, nil = np.ones((n, 1)), np.zeros((n, 1))
            A = np.vstack([np.hstack([-B, -one]), np.hstack([B, -one]),
                           np.hstack([B, nil]), np.hstack([-B, nil])])
            rhs = np.hstack([-P, P, np.ones((m, 2 * n))])
            obj = np.concatenate([np.zeros(k), [1.0]])
        else:
            # vars: c (k, free), s (n, >=0), w (n, >=0); min sum s
            eye, zero = np.eye(n), np.zeros((n, n))
            A = np.vstack([np.hstack([-B, -eye, zero]), np.hstack([B, -eye, zero]),
                           np.hstack([B, zero, -eye]), np.hstack([-B, zero, -eye]),
                           np.concatenate([np.zeros(k + n), np.ones(n)])[None, :]])
            rhs = np.hstack([-P, P, np.zeros((m, 2 * n)), np.ones((m, 1))])
            obj = np.concatenate([np.zeros(k), np.ones(n), np.zeros(n)])
        lb = np.concatenate([np.full(k, -np.inf), np.zeros(A.shape[1] - k)])
        sol = _linprog(np.tile(obj, m), A, rhs.ravel(), lb).reshape(m, -1)
        d = sol[:, k] if p.is_inf else np.sum(sol[:, k:k + n], axis=1)
        return d, sol[:, :k] @ B.T

    # general p: smooth constrained solve from a few starts, feasibility by scaling
    import scipy.optimize

    pf = float(p)

    def _scale(c):
        z = B @ c
        nz = norm_p(z, p)
        return c / max(1.0, nz)

    cons = [{"type": "ineq", "fun": lambda c: 1.0 - np.sum(np.abs(B @ c) ** pf)}]
    ds, ys = np.empty(m), np.empty((m, n))
    for i, xe in enumerate(P):
        def fun(c):
            return float(np.sum(np.abs(xe - B @ c) ** pf))

        best, best_c = np.inf, None
        rng = rng_from_seed(17)
        starts = [np.linalg.lstsq(B, xe, rcond=None)[0]] + [0.2 * rng.standard_normal(k) for _ in range(3)]
        for c0 in starts:
            r = scipy.optimize.minimize(fun, _scale(c0), method="SLSQP", constraints=cons,
                                        options={"maxiter": 200, "ftol": 1e-14})
            c = _scale(r.x)
            v = norm_p(xe - B @ c, p)
            if v < best:
                best, best_c = float(v), c
        ds[i], ys[i] = best, B @ best_c
    return ds, ys


def dist_to_unit_ball(x: VectorP, Y: Subspace, return_minimizer: bool = False):
    """min over the unit ball of Y of ||x - y|| in the ambient norm.

    Certified (closed form or LP optimum, gap <= 1e-6) for p in {1, 2, inf};
    multistart local solve, flagged by callers as best-effort, otherwise.
    The one-point case of `_dists_to_unit_ball`.
    """
    if len(x) != Y.ambient_n or x.p != Y.ambient_p:
        raise ValueError("ambient mismatch")
    d, ys = _dists_to_unit_ball(x.entries[None, :], Y)
    d, y = float(d[0]), ys[0]
    return (d, y) if return_minimizer else d


@dataclass(frozen=True)
class GapEstimate:
    lower: float
    upper: float


def gap_estimate(X: Subspace, Y: Subspace, budget: int = 64, seed: int = 0,
                 extra_points: np.ndarray | None = None) -> GapEstimate:
    """Hausdorff distance between unit balls, from sphere samples of each side.

    lower: largest distance among the grid points of each side, one batched
    solve per direction; a sound lower bound at p in {1, 2, inf}, where each
    distance is exact, and best-effort elsewhere, where each distance is a
    local solve's upper estimate;
    upper: lower + 2 * measured covering mesh of the grid, the largest
    distance from 4 * budget random sphere probes to their nearest grid
    point, an exact k-d tree query (honest slack, itself sampled -- see
    module docstring).
    """
    if X.dim != Y.dim or X.ambient_n != Y.ambient_n or X.ambient_p != Y.ambient_p:
        raise ValueError("dimension/ambient mismatch")
    import scipy.spatial

    rng = rng_from_seed(seed)
    lower = 0.0
    mesh = 0.0
    for (A, B) in ((X, Y), (Y, X)):
        pts = A.sphere_grid(budget)
        if extra_points is not None and A is X:
            pts = np.vstack([pts, extra_points])
        lower = max(lower, float(np.max(_dists_to_unit_ball(pts, B)[0])))
        probes = A.sphere_sample(rng, 4 * budget)
        nearest, _ = scipy.spatial.cKDTree(pts).query(probes, k=1, p=float(X.ambient_p))
        mesh = max(mesh, float(np.max(nearest)))
    return GapEstimate(lower, lower + 2 * mesh)


def _newton_argmax(g: np.ndarray, B: np.ndarray, Mi: np.ndarray, p: float) -> np.ndarray:
    """max <g, c> over ||Bc||_p <= 1 at finite p > 1, by Newton's method
    with equality constraints and a backtracking line search (Boyd and
    Vandenberghe, sec. 10.2) on the smooth side of the pair: for p > 2,
    min sum |Bc|^p on g.c = 1; for p <= 2 the dual, min ||u||_q on B^T u = g
    with q = p/(p-1) >= 2, whose optimal u is a multiple of |Bc|^(p-1) sgn(Bc).
    The start is the Euclidean optimum, so at p = 2 no step is taken.

    Every iterate gives a feasible c and a dual u, and u.Bc = g.c bounds the
    value by ||u||_q, so the relative gap (||u||_q - g.c) / ||u||_q
    certifies it.  Stops when the gap is at most 1e-12, or when a step no
    longer lowers the objective (the float floor, about 1e-9 at p = 20).
    B has no zero row, and Mi is the inverse of B^T B.
    """
    n = len(B)
    q = p / (p - 1)

    def primal_and_gap(y):
        if p > 2:
            c = y
            z = B @ c
            u = np.abs(z) ** (p - 1) * np.sign(z)
            u *= (g @ c) / (u @ z)
        else:
            u = y
            c = Mi @ (B.T @ (np.abs(u) ** (q - 1) * np.sign(u)))
        c = c / norm_p(B @ c, p)
        u = u + B @ (Mi @ (g - B.T @ u))  # project onto B^T u = g
        dual = norm_p(u, q)
        return c, (dual - g @ c) / dual

    # minimise sum |A y|^r over the affine set E^T y = const from the
    # Euclidean optimum, with g rescaled so that the start has unit norm
    ci = Mi @ g
    if p > 2:
        s = norm_p(B @ ci, p)
        g, y = g * s / (g @ ci), ci / s
        A, E, r = B, g[:, None], p
    else:
        s = norm_p(B @ ci, q)
        g, y = g / s, B @ ci / s
        A, E, r = np.eye(n), B, q
    d = len(y)
    K = np.zeros((d + E.shape[1],) * 2)  # the KKT matrix [[H, E], [E^T, 0]]
    K[:d, d:], K[d:, :d] = E, E.T
    rhs = np.zeros(len(K))
    f = np.sum(np.abs(A @ y) ** r)
    best, gap = primal_and_gap(y)
    while gap > 1e-12:
        x = A @ y
        w = np.abs(x) ** (r - 2)
        grad = A.T @ (w * x)  # gradient / r
        K[:d, :d] = (r - 1) * A.T @ (w[:, None] * A)
        rhs[:d] = -grad
        dy = np.linalg.solve(K, rhs)[:d]
        t, slope = 1.0, r * grad @ dy
        while (f_new := np.sum(np.abs(A @ (y + t * dy)) ** r)) > f + 0.25 * t * slope and t > 1e-12:
            t /= 2
        if f_new >= f:
            break
        y, f = y + t * dy, f_new
        c, gap = primal_and_gap(y)
        if g @ c > g @ best:
            best = c
    return best


def _dual_norm_argmax(G: np.ndarray, Y: Subspace) -> np.ndarray:
    """For every row g of the (m, k) array G, coefficients c maximizing <g, c>
    over the coefficient body ||Bc||_p <= 1: the (m, k) array of maximizers.

    At p in {1, inf} the m LPs stacked block-diagonally into one LP, which is
    separable, so its optimum is optimal in every block; at other p, Newton
    with a primal-dual gap stop (`_newton_argmax`).
    """
    B, p = Y.basis, Y.ambient_p
    if not (p.is_inf or float(p) == 1):
        B = B[np.any(B != 0, axis=1)]  # zero rows would make the dual KKT system singular
        Mi = np.linalg.inv(B.T @ B)
        return np.array([_newton_argmax(g, B, Mi, float(p)) for g in G])
    m, k = G.shape
    n = len(B)
    if p.is_inf:
        # vars c; max g.c s.t. Bc <= 1, -Bc <= 1
        A, b, obj = np.vstack([B, -B]), np.ones(2 * n), -G
    else:
        # vars c, w; max g.c s.t. Bc <= w, -Bc <= w, sum w <= 1
        eye = np.eye(n)
        A = np.vstack([np.hstack([B, -eye]), np.hstack([-B, -eye]),
                       np.concatenate([np.zeros(k), np.ones(n)])[None, :]])
        b = np.concatenate([np.zeros(2 * n), [1.0]])
        obj = np.hstack([-G, np.zeros((m, n))])
    lb = np.concatenate([np.full(k, -np.inf), np.zeros(A.shape[1] - k)])
    return _linprog(obj.ravel(), A, np.tile(b, m), lb).reshape(m, -1)[:, :k]


def functional_norms(X: Subspace) -> np.ndarray:
    """The norms ||x_j*|| = max{a_j : ||sum_i a_i x_i||_p <= 1} of the
    coordinate functionals of X's basis: closed forms at k = 1 and p = 2,
    otherwise one stacked `_dual_norm_argmax` whose primal values (the LP
    optimum at p in {1, inf}, Newton to a relative primal-dual gap of 1e-12
    elsewhere) are not yet certified upper bounds."""
    B, p, k = X.basis, X.ambient_p, X.dim
    if k == 1:
        return np.array([1 / norm_p(B[:, 0], p)])
    if float(p) == 2:  # the row norms of the pseudo-inverse (B^T B)^-1 B^T
        return np.sqrt(np.diag(np.linalg.inv(B.T @ B)))
    return np.diag(_dual_norm_argmax(np.eye(k), X)).copy()


def auerbach_basis(X: Subspace, restarts: int = 16, seed: int = 0, ascent_rounds: int = 30) -> np.ndarray:
    """Normalized (ambient_n, dim) basis with norm-one coordinate functionals,
    up to the ascent's accuracy (`functional_norms` measures them).

    At p = 2 it is the orthonormal factor of a QR factorization.  Otherwise
    it is found by maximizing |det| of the coefficient matrix over the unit
    sphere (max-volume bases are Auerbach) with seeded multistart coordinate
    ascent; each coordinate step is an exact dual-norm argmax
    (`_dual_norm_argmax`), and the restarts ascend in lockstep, so that each
    step is one stacked solve over the restarts still improving.
    """
    k = X.dim
    B, p = X.basis, X.ambient_p
    if k == 1:
        return (B[:, 0] / norm_p(B[:, 0], p))[:, None]
    if float(p) == 2:
        return np.linalg.qr(B)[0]

    rng = rng_from_seed(seed)
    Cs = rng.standard_normal((restarts, k, k))
    for C in Cs:
        for j in range(k):
            C[:, j] /= norm_p(B @ C[:, j], p)
    # rows[i] drops index i: the (i, j) minor of C is C[rows[i]][:, rows[j]]
    rows = np.array([np.delete(np.arange(k), i) for i in range(k)])
    signs = (-1.0) ** np.add.outer(np.arange(k), np.arange(k))
    active = np.arange(restarts)  # a restart leaves after a round with no improvement
    for _ in range(ascent_rounds):
        improved = np.zeros(restarts, dtype=bool)
        for j in range(k):
            # cofactors of column j, one stacked det over the minors of every active restart
            cofs = signs[:, j] * np.linalg.det(Cs[active][:, rows[:, :, None], rows[j]])
            live = np.any(cofs != 0, axis=1)
            if not live.any():
                continue
            rs = active[live]
            # the coefficient body is symmetric, so argmax(-cof) = -argmax(cof) gives the same |det|
            Cc = Cs[rs]
            Cc[:, :, j] = _dual_norm_argmax(cofs[live], X)
            better = np.abs(np.linalg.det(Cc)) > np.abs(np.linalg.det(Cs[rs])) + 1e-12
            Cs[rs[better]] = Cc[better]
            improved[rs[better]] = True
        active = np.flatnonzero(improved)
        if not active.size:
            break
    best_C = Cs[np.argmax(np.abs(np.linalg.det(Cs)))]

    vecs = B @ best_C
    for j in range(k):
        vecs[:, j] /= norm_p(vecs[:, j], p)
    return vecs


@dataclass(frozen=True)
class BmBridge:
    displacement: float       # max_j ||x_j - y_j||
    bound: float              # certified log(||theta|| ||theta^-1||) bound
    gap: GapEstimate


def bm_from_gap(X: Subspace, Y: Subspace, budget: int = 64, seed: int = 0) -> BmBridge:
    """Certified Banach-Mazur bound for the isomorphism theta: x_j -> y_j
    that sends an Auerbach basis of X to the nearest points of Y's unit
    ball: log(||theta|| ||theta^-1||) <= 4k * Lambda_upper whenever the
    measured gap is below 1/(2k).  Only the bound, the displacement
    max_j ||x_j - y_j|| and the gap are returned; theta itself is not built.
    The Auerbach defect max(0, max_j ||x_j*|| - 1) widening it is the
    solver-exact primal value of `functional_norms`, not yet certified.
    """
    k = X.dim
    xs = auerbach_basis(X, seed=seed)
    gap = gap_estimate(X, Y, budget=budget, seed=seed, extra_points=xs.T)
    if gap.upper > 1 / (2 * k):
        raise GapPreconditionError(gap.upper, 1 / (2 * k))
    defect = max(0.0, float(np.max(functional_norms(Subspace(X.ambient_n, X.ambient_p, xs)))) - 1)
    ys = _dists_to_unit_ball(xs.T, Y)[1].T
    dmax = max(norm_p(xs[:, j] - ys[:, j], X.ambient_p) for j in range(k))
    kd = k * dmax * (1 + defect)
    if kd >= 1:
        raise GapPreconditionError(gap.upper, 1 / (2 * k))
    return BmBridge(dmax, float(np.log((1 + kd) / (1 - kd))), gap)
