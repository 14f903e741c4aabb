"""Discrete measures on R^k: pushforwards, p-characteristic transforms with
inversion, Levy-Prokhorov distances, plateau functions, and support checks.

Exactness conventions: masses convert losslessly to rationals, fattenings are
closed, and the one-dimensional bump used for CDF inversion is evaluated from
exact piecewise-polynomial coefficients so that tiny widths cause no
cancellation.  The Levy-Prokhorov distance is exact at every support size: an
integer max flow decides each distance level.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np
import scipy.linalg

from lpfraisse.core import PIndex, rng_from_seed


@dataclass(frozen=True)
class DiscreteSpace:
    """Finite measure space: labelled atoms with positive rational masses."""

    atoms: tuple[tuple[object, Fraction], ...]

    def __post_init__(self):
        atoms = tuple((lab, Fraction(m)) for lab, m in self.atoms)
        if any(m <= 0 for _, m in atoms):
            raise ValueError("masses must be positive")
        object.__setattr__(self, "atoms", atoms)
        masses = np.array([float(m) for _, m in atoms])
        masses.setflags(write=False)
        object.__setattr__(self, "_masses", masses)

    @classmethod
    def uniform(cls, n: int) -> "DiscreteSpace":
        return cls(tuple((i, Fraction(1, n)) for i in range(n)))

    @property
    def masses(self) -> np.ndarray:
        """Float atom masses, built once at construction; read-only."""
        return self._masses

    def total_mass(self) -> Fraction:
        return sum((m for _, m in self.atoms), Fraction(0))

    def norm(self, values: np.ndarray, p: PIndex) -> float | np.ndarray:
        """L_p(mu) norm of a function given by its atom values (axis 0); extra
        trailing axes hold further functions and give an array of norms."""
        v = np.abs(np.asarray(values, dtype=float))
        if p.is_inf:
            out = np.max(v, axis=0)
        else:
            pf = float(p)
            v **= pf
            v *= self.masses.reshape((-1,) + (1,) * (v.ndim - 1))
            out = np.sum(v, axis=0) ** (1 / pf)
        return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class DiscreteMeasure:
    points: np.ndarray  # (m, k)
    masses: np.ndarray  # (m,)

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        ms = np.asarray(self.masses, dtype=float)
        if pts.shape[0] != ms.shape[0]:
            raise ValueError("points/masses length mismatch")
        if np.any(ms <= 0):
            raise ValueError("masses must be positive")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "masses", ms)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def size(self) -> int:
        return self.points.shape[0]

    def total_mass(self) -> float:
        return float(np.sum(self.masses))

    def cdf(self, a: float) -> float:
        """One-dimensional distribution function mu((-inf, a]]."""
        if self.dim != 1:
            raise ValueError("cdf needs dim 1")
        return float(np.sum(self.masses[self.points[:, 0] <= a]))

    def to_json(self):
        return {
            "dim": self.dim,
            "atoms": [{"z": list(map(float, z)), "m": float(m)} for z, m in zip(self.points, self.masses)],
        }

    @classmethod
    def from_json(cls, obj) -> "DiscreteMeasure":
        pts = np.array([a["z"] for a in obj["atoms"]], dtype=float).reshape(-1, obj["dim"])
        ms = np.array([a["m"] for a in obj["atoms"]], dtype=float)
        return cls(pts, ms)

    @classmethod
    def point(cls, z, mass=1.0) -> "DiscreteMeasure":
        return cls(np.atleast_2d(np.asarray(z, dtype=float)), np.array([mass], dtype=float))


@dataclass(frozen=True)
class PCharGrid:
    points: np.ndarray

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        if pts.shape[0] == 0:
            raise ValueError("grid must be nonempty")
        object.__setattr__(self, "points", pts)

    @classmethod
    def line(cls, lo: float, hi: float, count: int) -> "PCharGrid":
        return cls(np.linspace(lo, hi, count)[:, None])


def pushforward(space: DiscreteSpace, functions: Sequence[Callable]) -> DiscreteMeasure:
    """Image measure of the space under (f_1, ..., f_k); equal points merge."""
    merged: dict[tuple, Fraction] = {}
    for lab, mass in space.atoms:
        z = tuple(float(f(lab)) for f in functions)
        merged[z] = merged.get(z, Fraction(0)) + mass
    pts = np.array(list(merged.keys()), dtype=float)
    ms = np.array([float(v) for v in merged.values()])
    return DiscreteMeasure(pts, ms)


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


def p_characteristic(mu: DiscreteMeasure, a, p) -> float:
    """(integral of |1 + <a, z>|^p dmu)^(1/p)."""
    pf = float(PIndex.of(p))
    a = np.asarray(a, dtype=float).reshape(-1)
    vals = np.abs(1.0 + mu.points @ a) ** pf
    return float(np.sum(mu.masses * vals) ** (1 / pf))


def p_characteristic_grid(mu: DiscreteMeasure, grid: PCharGrid, p) -> np.ndarray:
    pf = float(PIndex.of(p))
    inner = 1.0 + grid.points @ mu.points.T  # (g, m)
    return np.sum(mu.masses[None, :] * np.abs(inner) ** pf, axis=1) ** (1 / pf)


# ---------------------------------------------------------------------------
# Levy-Prokhorov distance, exact by max flow
# ---------------------------------------------------------------------------


def _exact_sq_dist(z1, z2) -> Fraction:
    return sum((Fraction(a) - Fraction(b)) ** 2 for a, b in zip(z1, z2))


def _augment(res: list[list[int]], adj: list[list[int]], s: int, t: int) -> tuple[int, list[int]]:
    """Edmonds-Karp: push flow along shortest residual s-t paths until none is
    left.  Returns the flow added and the parent array of the last, failed
    search: node v is reachable from s in the residual graph iff parent[v] >= 0.
    res holds the residual capacities."""
    added = 0
    while True:
        parent = [-1] * len(adj)
        parent[s] = s
        queue = deque([s])
        while queue and parent[t] < 0:
            u = queue.popleft()
            for v in adj[u]:
                if parent[v] < 0 and res[u][v] > 0:
                    parent[v] = u
                    queue.append(v)
        if parent[t] < 0:
            return added, parent
        path = [t]
        while path[-1] != s:
            path.append(parent[path[-1]])
        push = min(res[u][v] for v, u in zip(path, path[1:]))
        for v, u in zip(path, path[1:]):
            res[u][v] -= push
            res[v][u] += push
        added += push


@dataclass(frozen=True)
class LPResult:
    lower: float
    upper: float
    exact: bool

    @property
    def value(self) -> float:
        return self.upper


def levy_prokhorov(mu: DiscreteMeasure, nu: DiscreteMeasure) -> LPResult:
    """Distance inf{eps: mu(A) <= nu(A_eps) + eps and vice versa, all A}, exact.

    Fattenings are closed, so on discrete supports the infimum is attained on
    the finite candidate set {cross distances} union {mass-gap values}.  At a
    distance level, max_A mu(A) - nu(A_eps) is mu's total mass minus the max
    flow from mu to nu over the cross pairs within that level (max-flow
    min-cut), and the same flow gives the reverse gap.  Masses scale to
    integer capacities, and one flow grows level by level as pairs join, so
    every support size is solved exactly in polynomial time.  Candidates
    never decrease with the level, so the first feasible one is the distance.
    """
    if mu.dim != nu.dim:
        raise ValueError("dimension mismatch")
    masses = [Fraction(float(x)) for x in (*mu.masses, *nu.masses)]
    den = math.lcm(*(q.denominator for q in masses))
    caps = [int(q * den) for q in masses]
    m = mu.size
    big = max(sum(caps[:m]), sum(caps[m:]))
    # nodes: source 0, mu atoms 1..m, nu atoms m+1..m+n, sink m+n+1
    s, t = 0, len(caps) + 1
    res = [[0] * (t + 1) for _ in range(t + 1)]
    adj: list[list[int]] = [[] for _ in range(t + 1)]

    def join(u: int, v: int, c: int) -> None:
        res[u][v] = c
        adj[u].append(v)
        adj[v].append(u)

    for i in range(m):
        join(s, 1 + i, caps[i])
    for i in range(m, len(caps)):
        join(1 + i, t, caps[i])
    pairs: dict[Fraction, list[tuple[int, int]]] = {Fraction(0): []}
    for i, a in enumerate(mu.points):
        for j, b in enumerate(nu.points):
            pairs.setdefault(_exact_sq_dist(a, b), []).append((1 + i, 1 + m + j))
    levels = sorted(pairs)

    # A failed search leaves a source-reachable set with no residual edge out
    # of it; a joined pair (u, v) can only open a path when it leaves that set.
    flow, reach = 0, None
    for li, lev in enumerate(levels):
        for u, v in pairs[lev]:
            join(u, v, big)
        if reach is None or any(reach[u] >= 0 > reach[v] for u, v in pairs[lev]):
            added, reach = _augment(res, adj, s, t)
            flow += added
        gap = Fraction(big - flow, den)
        # the candidate is max(gap, sqrt(lev)), feasible if below sqrt(next level)
        if gap * gap <= lev:
            v = math.sqrt(float(lev))
            return LPResult(v, v, True)
        if li + 1 == len(levels) or gap * gap < levels[li + 1]:
            return LPResult(float(gap), float(gap), True)


def dhat_p(mu: DiscreteMeasure, nu: DiscreteMeasure, grid: PCharGrid, p) -> float:
    """Grid lower bound (>= 1) of the multiplicative characteristic metric.

    A characteristic can vanish at isolated arguments (a point mass at z has
    a zero exactly where 1 + <a, z> does); finiteness of the metric forces
    the two transforms to vanish together, so common zeros contribute ratio
    one and a one-sided zero witnesses an infinite lower bound.
    """
    cm = p_characteristic_grid(mu, grid, p)
    cn = p_characteristic_grid(nu, grid, p)
    tiny = 1e-14 * (1 + mu.total_mass() + nu.total_mass())
    zm, zn = cm <= tiny, cn <= tiny
    if np.any(zm != zn):
        return float("inf")
    keep = ~zm
    if not np.any(keep):
        return 1.0
    r = cm[keep] / cn[keep]
    return float(max(np.max(r), np.max(1.0 / r), 1.0))


# ---------------------------------------------------------------------------
# The bump G_p and the inversion formula
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _gp_segment_coeffs(p: int) -> tuple[tuple[Fraction, ...], ...]:
    """Exact monomial coefficients of the degree-p pieces of the bump.

    On tau in [i, i+1] (tau the zoomed variable (x-a)/eps) the bump equals
    1/2 + (1/2p!) * sum_j (-1)^(j+1) C(p,j) s_ij (tau-j)^p with s_ij = +-1 by
    side; expanding once in exact rationals removes the 1/eps^p cancellation
    that defeats floating summation for small widths.
    """
    if p < 1 or p % 2 == 0:
        raise ValueError("p must be an odd positive integer")
    segs = []
    fact = math.factorial(p)
    for i in range(-1, p + 1):
        coeffs = [Fraction(0)] * (p + 1)
        coeffs[0] += Fraction(1, 2)
        for j in range(p + 1):
            side = 1 if j <= i else -1
            c = Fraction((-1) ** (j + 1) * math.comb(p, j) * side, 2 * fact)
            # (tau - j)^p expanded in powers of tau
            for r in range(p + 1):
                coeffs[r] += c * math.comb(p, r) * Fraction((-j) ** (p - r))
        segs.append(tuple(coeffs))
    return tuple(segs)


def gp(x: float, a: float, eps: float, p: int) -> float:
    """Bump with value 1 left of a and 0 right of a + eps*p, p odd."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    segs = _gp_segment_coeffs(p)
    tau = (x - a) / eps
    i = int(math.floor(tau))
    i = max(-1, min(p, i))
    coeffs = segs[i + 1]
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * tau + float(c)
    return acc


def gp_grid(xs: np.ndarray, a: float, eps: float, p: int) -> np.ndarray:
    segs = _gp_segment_coeffs(p)
    tau = (np.asarray(xs, dtype=float) - a) / eps
    idx = np.clip(np.floor(tau).astype(int), -1, p) + 1
    out = np.zeros_like(tau)
    coef = np.array([[float(c) for c in seg] for seg in segs])
    for s in range(p + 2):
        sel = idx == s
        if not np.any(sel):
            continue
        acc = np.zeros(np.count_nonzero(sel))
        for c in coef[s][::-1]:
            acc = acc * tau[sel] + c
        out[sel] = acc
    return out


def gp_exact(x: Fraction, a: Fraction, eps: Fraction, p: int) -> Fraction:
    """Rational evaluation of the bump, for oracle checks."""
    segs = _gp_segment_coeffs(p)
    tau = (Fraction(x) - Fraction(a)) / Fraction(eps)
    i = max(-1, min(p, math.floor(tau)))
    acc = Fraction(0)
    for c in reversed(segs[i + 1]):
        acc = acc * tau + c
    return acc


_JITTER = 1e-9


def invert_cdf_with_error(char: Callable[[float], float], a: float, eps: float, p: int) -> tuple[float, float, float]:
    """Evaluate the inversion sum from characteristic values only.

    Returns (value, rounding_error_bound, a_used).  The identity
    integral |x+c|^p dmu = |c|^p char(1/c)^p turns the bump integral into a
    finite alternating sum of characteristic evaluations; the value is
    sandwiched between the distribution function at a and at a + eps*p, up to
    the returned rounding bound.  When some a + j*eps hits zero the argument
    is shifted by a documented jitter.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if p < 1 or p % 2 == 0:
        raise ValueError("p must be an odd positive integer")
    a_used = a
    for _ in range(4):
        if all(abs(a_used + j * eps) > 1e-15 for j in range(p + 1)):
            break
        a_used += _JITTER
    else:
        raise ZeroDivisionError("could not shift a off the singular grid")
    total_mass = char(0.0) ** p
    scale = 1.0 / (2 * math.factorial(p) * eps**p)
    acc = 0.5 * total_mass
    mag = abs(acc)
    for j in range(p + 1):
        c = -(a_used + j * eps)
        term = (-1) ** (j + 1) * math.comb(p, j) * abs(c) ** p * char(1.0 / c) ** p * scale
        acc += term
        mag += abs(term)
    err = mag * 8 * (p + 2) * np.finfo(float).eps
    return acc, err, a_used


def characteristic_oracle(mu: DiscreteMeasure, p) -> Callable[[float], float]:
    """One-dimensional characteristic a -> mu_hat(a) as a black-box callable."""
    if mu.dim != 1:
        raise ValueError("need a one-dimensional measure")
    return lambda a: p_characteristic(mu, [a], p)


# ---------------------------------------------------------------------------
# Plateau function
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlateauReport:
    coeffs: np.ndarray
    p: float
    residual: float
    max_abs: float
    tail_exponent: float
    limit_at_zero_err: float
    ok: bool

    @property
    def a0(self) -> float:
        return float(self.coeffs[0])


def _plateau_exact_odd(p: int, m: int) -> PlateauReport:
    """Integer odd p: the whole system is rational, so the null vector, the
    one-sided tail cancellation, and the zero limit are all certified in
    exact arithmetic (the tails of sum a_j |z+j|^p are polynomials whose
    coefficients the system kills identically)."""
    rows: list[list[Fraction]] = []
    for k in range(p + 3):
        rows.append([Fraction(j**k) if j > 0 else Fraction(1 if k == 0 else 0) for j in range(m + 1)])
    for l in range(p + 2):
        e = p - l  # down to -1; j^e stays rational
        rows.append([Fraction(0)] + [Fraction(j) ** e for j in range(1, m + 1)])
    w = _null_vector_of_rows(rows)
    scale = max(abs(x) for x in w)
    w = [x / scale for x in w]

    def f_exact(z: Fraction) -> Fraction:
        return sum(wj * abs(z + j) ** p for j, wj in enumerate(w))

    for z in (Fraction(2 * m), Fraction(-2 * m), Fraction(5 * m), Fraction(-5 * m)):
        assert f_exact(z) == 0, "one-sided tails must cancel identically"
    z0 = Fraction(1, 100)
    lim_err = float(abs(f_exact(z0) / z0**p - w[0]))
    coeffs = np.array([float(x) for x in w])
    grid = np.linspace(-m - 1, m + 1, 800)
    max_abs = float(np.max(np.abs(sum(c * np.abs(grid + j) ** p for j, c in enumerate(coeffs)))))
    ok = lim_err < 1e-3 * max(1.0, abs(coeffs[0]))
    return PlateauReport(coeffs, float(p), 0.0, max_abs, float("inf"), lim_err, ok)


def plateau_function(p: float, m: int | None = None) -> PlateauReport:
    """Coefficients a_0..a_m making f(z) = sum a_j |z+j|^p bounded and integrable.

    Solves the homogeneous system sum_j a_j j^k = 0 (k <= [p]+2) and
    sum_{j>=1} a_j j^(p-l) = 0 (l <= [p]+1) by null-space extraction, then
    verifies decay (an empirical tail fit; the printed decay exponent is not
    encoded) and the limit f(z)/|z|^p -> a_0 near zero.  Odd integer p runs
    entirely in exact rational arithmetic.
    """
    fp = math.floor(p)
    if p < 1 or (fp == p and fp % 2 == 0):
        raise ValueError("p must be >= 1 and not an even integer")
    if m is None:
        m = 2 * fp + 6
    if m < 2 * fp + 6:
        raise ValueError(f"need m >= {2 * fp + 6}")
    if fp == p:
        return _plateau_exact_odd(int(p), m)

    rows = []
    for k in range(fp + 3):
        rows.append([float(j**k) if j > 0 else (1.0 if k == 0 else 0.0) for j in range(m + 1)])
    for l in range(fp + 2):
        rows.append([0.0] + [float(j ** (p - l)) for j in range(1, m + 1)])
    A_unscaled = np.array(rows)
    row_scale = np.max(np.abs(A_unscaled), axis=1)
    A = A_unscaled / row_scale[:, None]
    ns = scipy.linalg.null_space(A)
    if ns.shape[1] == 0:
        return PlateauReport(np.zeros(m + 1), p, float(np.inf), 0.0, 0.0, 0.0, False)
    # prefer a representative with a_0 of decent size, for the limit check
    best = np.argmax(np.abs(ns[0, :]))
    coeffs = ns[:, best] / np.linalg.norm(ns[:, best])
    # iterative refinement in extended precision: the tail diagnostics need
    # the system satisfied a few digits beyond double rounding
    Al = A.astype(np.longdouble)
    gram = A @ A.T
    cl = coeffs.astype(np.longdouble)
    for _ in range(4):
        r = Al @ cl
        try:
            y = np.linalg.solve(gram, r.astype(float))
        except np.linalg.LinAlgError:
            break
        cl = cl - Al.T @ y.astype(np.longdouble)
        cl = cl / np.sqrt(np.sum(cl * cl))
    coeffs = cl.astype(float)
    residual = float(np.max(np.abs(Al @ cl)))

    def f(z):
        z = np.asarray(z, dtype=np.longdouble)
        return sum(cl[j] * np.abs(z + j) ** np.longdouble(p) for j in range(m + 1))

    grid = np.concatenate([-np.geomspace(1e-4, 1e4, 300), np.geomspace(1e-4, 1e4, 300)])
    max_abs = float(np.max(np.abs(f(grid))))
    # coefficient noise feeds back into the tail as ~ z^p and eventually
    # swamps the genuine decay; fit on the decreasing prefix only
    tail = np.geomspace(max(2.5 * m, 35), 2e4, 100)
    tv = (np.abs(f(tail)) + np.abs(f(-tail))).astype(float)
    i1 = 1
    while i1 < len(tv) and tv[i1] <= tv[i1 - 1] * 1.05:
        i1 += 1
    if i1 >= 6 and tail[i1 - 1] / tail[0] >= 5:
        slope = np.polyfit(np.log(tail[:i1]), np.log(tv[:i1]), 1)[0]
        tail_exp = float(-slope)
    else:
        tail_exp = 0.0
    # limit point: large enough that the O(z^{[p]+2-p}) correction is still
    # small but division by z^p stays above the coefficient noise
    z0 = float(np.clip((5e-4) ** (1 / min(2.0, fp + 2 - p)), 1e-4, 3e-2))
    zl = np.longdouble(z0)
    lim_err = float(abs((f(zl) / zl ** np.longdouble(p)) - cl[0]))
    ok = residual < 1e-8 and tail_exp > 1 and lim_err < 1e-3 * max(1.0, abs(coeffs[0]))
    return PlateauReport(coeffs, p, residual, max_abs, tail_exp, lim_err, ok)


# ---------------------------------------------------------------------------
# epsilon-full support
# ---------------------------------------------------------------------------


def eps_full_support(u: np.ndarray, basis: np.ndarray, space: DiscreteSpace, p,
                     samples: int = 4096, seed: int = 0) -> float:
    """Norm of the restriction-to-{u=0} projection on span(basis).

    Exact for p = 2 (generalized eigenproblem); sampled lower bound otherwise.
    basis has one column per spanning function, rows indexed by atoms.
    """
    p = PIndex.of(p)
    u = np.asarray(u, dtype=float)
    B = np.asarray(basis, dtype=float)
    mask = (np.abs(u) <= 1e-12).astype(float)
    w = space.masses
    if not p.is_inf and float(p) == 2:
        M = B.T @ (w[:, None] * B)
        A = B.T @ ((w * mask)[:, None] * B)
        vals = scipy.linalg.eigh(A, M, eigvals_only=True)
        return float(np.sqrt(max(0.0, vals[-1])))
    rng = rng_from_seed(seed)
    cs = rng.standard_normal((samples, B.shape[1]))
    best = 0.0
    for c in cs:
        f = B @ c
        n = space.norm(f, p)
        if n < 1e-12:
            continue
        best = max(best, space.norm(f * mask, p) / n)
    return best


# ---------------------------------------------------------------------------
# Even-p counterexamples (and the odd-p falsification generator)
# ---------------------------------------------------------------------------


def _null_vector_of_rows(rows: list[list[Fraction]]) -> list[Fraction]:
    """Nonzero rational solution of a homogeneous system, by exact RREF."""
    ncols = len(rows[0])
    mat = [row[:] for row in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = mat[r][c]
        mat[r] = [x / inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    free = [c for c in range(ncols) if c not in pivots]
    if not free:
        raise ValueError("moment system has trivial null space")
    w = [Fraction(0)] * ncols
    w[free[0]] = Fraction(1)
    for i, c in enumerate(pivots):
        w[c] = -mat[i][free[0]]
    return w


def _rational_null_vector(points: list[Fraction], order: int) -> list[Fraction]:
    """Nonzero rational w with sum w_i z_i^j = 0 for j = 0..order."""
    return _null_vector_of_rows([[Fraction(z) ** j for z in points] for j in range(order + 1)])


def _split_null_vector(points: list[Fraction], w: list[Fraction]) -> tuple[DiscreteMeasure, DiscreteMeasure]:
    """Positive and negative parts of a null vector w on the line, each
    normalized to a probability measure.  The zeroth moment of w cancels, so
    both parts carry the same mass; a one-signed w is refused."""
    pos = [(z, q) for z, q in zip(points, w) if q > 0]
    neg = [(z, -q) for z, q in zip(points, w) if q < 0]
    if not pos or not neg:
        raise ValueError("null vector has no sign change")
    s = sum(q for _, q in pos)
    mu = DiscreteMeasure(np.array([[float(z)] for z, _ in pos]), np.array([float(q / s) for _, q in pos]))
    nu = DiscreteMeasure(np.array([[float(z)] for z, _ in neg]), np.array([float(q / s) for _, q in neg]))
    return mu, nu


@dataclass(frozen=True)
class CounterexampleReport:
    mu: DiscreteMeasure
    nu: DiscreteMeasure
    char_gap: float
    lp_distance: float


def even_p_counterexample(p: int, grid_count: int = 1000, grid_radius: float = 5.0) -> CounterexampleReport:
    """Distinct measures on R with identical p-characteristics (p even).

    For even p the transform is a polynomial in the moments of order <= p, so
    any moment-matched signed splitting works; the pair is verified on a
    dense grid and in Levy-Prokhorov distance.
    """
    if p < 2 or p % 2 != 0:
        raise ValueError("p must be a positive even integer")
    half = p // 2 + 1
    points = [Fraction(i) for i in range(-half, half + 1)]
    mu, nu = _split_null_vector(points, _rational_null_vector(points, p))
    grid = PCharGrid.line(-grid_radius, grid_radius, grid_count)
    gap = float(np.max(np.abs(p_characteristic_grid(mu, grid, p) - p_characteristic_grid(nu, grid, p))))
    lp = levy_prokhorov(mu, nu).value
    return CounterexampleReport(mu, nu, gap, lp)


def _kink_adapted_grid(mu: DiscreteMeasure, nu: DiscreteMeasure, base: int = 64) -> PCharGrid:
    """Evaluation points that localize characteristic differences: the map
    a -> |1 + a z| has its only nonsmooth point at a = -1/z, so two measures
    with different atoms must disagree near some kink; we take all kinks,
    midpoints between consecutive ones, and a coarse wide background grid."""
    zs = np.concatenate([mu.points.ravel(), nu.points.ravel()])
    kinks = np.sort(np.unique(-1.0 / zs[zs != 0]))
    pts = [kinks]
    if len(kinks) > 1:
        pts.append((kinks[:-1] + kinks[1:]) / 2)
        pts.append(kinks[:-1] + 0.25 * np.diff(kinks))
        pts.append(kinks[:-1] + 0.75 * np.diff(kinks))
    lo = kinks[0] - 1 if len(kinks) else -4.0
    hi = kinks[-1] + 1 if len(kinks) else 4.0
    pts.append(np.linspace(lo, hi, base))
    return PCharGrid(np.concatenate(pts)[:, None])


def odd_p_falsification_search(p: int, trials: int, seed: int):
    """Seeded hunt for distinct equal-characteristic pairs at odd p.

    Generates moment-matched distinct pairs (the even-p recipe, which is the
    strongest known attack) and evaluates the characteristic gap on a
    kink-adapted grid, returning the best (smallest) gap found and its pair.
    The uniqueness theorem predicts every genuinely distinct pair keeps a
    positive gap.
    """
    if p % 2 == 0:
        raise ValueError("p must be odd here")
    rng = rng_from_seed(seed)
    best_gap = float("inf")
    best_pair = None
    for _ in range(trials):
        npts = int(rng.integers(p + 2, p + 6))
        raw = rng.integers(-12, 13, size=npts)
        pts = sorted(set(int(v) for v in raw))
        while len(pts) < p + 2:
            pts = sorted(set(pts) | {int(rng.integers(-15, 16))})
        points = [Fraction(z) for z in pts]
        try:
            mu, nu = _split_null_vector(points, _rational_null_vector(points, p))
        except ValueError:
            continue
        # disjoint integer supports with unit total mass: taking A = supp(mu),
        # the defining inequality fails below min(1, min cross distance), so
        # the LP distance is at least 1 here; no per-trial exact solve needed
        grid = _kink_adapted_grid(mu, nu)
        gap = float(np.max(np.abs(p_characteristic_grid(mu, grid, p) - p_characteristic_grid(nu, grid, p))))
        if gap < best_gap:
            best_gap, best_pair = gap, (mu, nu)
    return best_gap, best_pair
