"""Discrete measures on R^k: p-characteristic transforms with inversion,
Levy-Prokhorov distances, and moment-matched pairs of measures.

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
from typing import Callable

import numpy as np

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


def p_characteristic(mu: DiscreteMeasure, a, p) -> float:
    """(integral of |1 + <a, z>|^p dmu)^(1/p)."""
    pf = float(PIndex.of(p))
    a = np.asarray(a, dtype=float).reshape(-1)
    vals = np.abs(1.0 + mu.points @ a) ** pf
    return float(np.sum(mu.masses * vals) ** (1 / pf))


def p_characteristic_grid(mu: DiscreteMeasure, grid: np.ndarray, p) -> np.ndarray:
    pf = float(PIndex.of(p))
    inner = 1.0 + grid @ mu.points.T  # (g, m)
    return np.sum(mu.masses[None, :] * np.abs(inner) ** pf, axis=1) ** (1 / pf)


# ---------------------------------------------------------------------------
# Levy-Prokhorov distance, exact by max flow
# ---------------------------------------------------------------------------


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
    # float coordinates are dyadic rationals: on their common denominator D
    # they are integers, and each squared distance is an integer level over D^2
    ratios = [[x.as_integer_ratio() for x in z] for z in np.vstack([mu.points, nu.points]).tolist()]
    D = max(d for z in ratios for _, d in z)
    zs = [[a * (D // d) for a, d in z] for z in ratios]
    pairs: dict[int, list[tuple[int, int]]] = {0: []}
    for i in range(m):
        for j in range(m, len(caps)):
            sq = sum((a - b) ** 2 for a, b in zip(zs[i], zs[j]))
            pairs.setdefault(sq, []).append((1 + i, 1 + j))
    levels = sorted(pairs)
    D2, den2 = D * D, den * den

    # A failed search leaves a source-reachable set with no residual edge out
    # of it; a joined pair (u, v) can only open a path when it leaves that set.
    flow, reach = 0, None
    for li, lev in enumerate(levels):
        for u, v in pairs[lev]:
            join(u, v, big)
        if reach is None or any(reach[u] >= 0 > reach[v] for u, v in pairs[lev]):
            added, reach = _augment(res, adj, s, t)
            flow += added
        gap2 = (big - flow) ** 2 * D2  # (gap * den * D)^2
        # the candidate is max(gap, sqrt(lev) / D), feasible if below the next level's distance
        if gap2 <= lev * den2:
            v = math.sqrt(lev / D2)
            return LPResult(v, v, True)
        if li + 1 == len(levels) or gap2 < levels[li + 1] * den2:
            gap = float(Fraction(big - flow, den))
            return LPResult(gap, gap, True)


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


def gp_grid(xs: np.ndarray, a: float, eps: float, p: int) -> np.ndarray:
    """Bump with value 1 left of a and 0 right of a + eps*p, p odd, at each x."""
    if eps <= 0:
        raise ValueError("eps must be positive")
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
# Moment-matched pairs: even-p counterexamples and the falsification search
# ---------------------------------------------------------------------------


def _rational_null_vector(points: list[Fraction], order: int) -> list[Fraction]:
    """Nonzero rational w with sum w_i z_i^j = 0 for j = 0..order.

    These are the weights of the divided difference on the first order + 2
    nodes, w_i = 1 / prod_{j != i} (z_i - z_j), which kills every polynomial
    of degree <= order; they are scaled so that the last is 1, and the
    remaining nodes get weight 0.  On the common denominator of the nodes the
    products are integers, and the scale cancels from every ratio.
    """
    k = order + 2
    if len(points) < k:
        raise ValueError("moment system has trivial null space")
    den = math.lcm(*(z.denominator for z in points[:k]))
    ns = [z.numerator * (den // z.denominator) for z in points[:k]]
    prods = [math.prod(a - b for j, b in enumerate(ns) if j != i) for i, a in enumerate(ns)]
    if 0 in prods:
        raise ValueError("nodes must be distinct")
    return [Fraction(prods[-1], d) for d in prods] + [Fraction(0)] * (len(points) - k)


def _split_null_vector(points: list[Fraction], w: list[Fraction]) -> tuple[DiscreteMeasure, DiscreteMeasure]:
    """Positive and negative parts of a null vector w on the line, each
    normalized to a probability measure.  The zeroth moment of w cancels, so
    both parts are nonempty and carry the same mass."""
    pos = [(z, q) for z, q in zip(points, w) if q > 0]
    neg = [(z, -q) for z, q in zip(points, w) if q < 0]
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


# even_p_counterexample compares the two characteristics at CHAR_GRID_COUNT
# evenly spaced points of [-CHAR_GRID_RADIUS, CHAR_GRID_RADIUS]
CHAR_GRID_RADIUS = 5.0
CHAR_GRID_COUNT = 1000
KINK_BACKGROUND_POINTS = 64  # background points of _kink_adapted_grid


def even_p_counterexample(p: int) -> CounterexampleReport:
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
    grid = np.linspace(-CHAR_GRID_RADIUS, CHAR_GRID_RADIUS, CHAR_GRID_COUNT)[:, None]
    gap = float(np.max(np.abs(p_characteristic_grid(mu, grid, p) - p_characteristic_grid(nu, grid, p))))
    lp = levy_prokhorov(mu, nu).value
    return CounterexampleReport(mu, nu, gap, lp)


def _kink_adapted_grid(mu: DiscreteMeasure, nu: DiscreteMeasure) -> np.ndarray:
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
    pts.append(np.linspace(lo, hi, KINK_BACKGROUND_POINTS))
    return np.concatenate(pts)[:, None]


def odd_p_falsification_search(p: int, trials: int, seed: int):
    """Seeded hunt for distinct equal-characteristic pairs.

    Generates moment-matched distinct pairs (the even-p recipe, which is the
    strongest known attack) and evaluates the characteristic gap on a
    kink-adapted grid, returning the best (smallest) gap found and its pair.
    At odd p the uniqueness theorem predicts every pair keeps a positive gap;
    at even p every pair has gap 0 up to rounding, which shows that the
    attack finds equal characteristics where they exist.
    """
    rng = rng_from_seed(seed)
    best_gap = float("inf")
    best_pair = None
    seen = set()
    for _ in range(trials):
        npts = int(rng.integers(p + 2, p + 6))
        raw = rng.integers(-12, 13, size=npts)
        pts = sorted(set(int(v) for v in raw))
        while len(pts) < p + 2:
            pts = sorted(set(pts) | {int(rng.integers(-15, 16))})
        # the null vector weights only the first p + 2 nodes, so the pair
        # depends on them alone; a repeat cannot beat its first occurrence
        key = tuple(pts[:p + 2])
        if key in seen:
            continue
        seen.add(key)
        points = [Fraction(z) for z in pts]
        mu, nu = _split_null_vector(points, _rational_null_vector(points, p))
        # disjoint integer supports with unit total mass: taking A = supp(mu),
        # the defining inequality fails below min(1, min cross distance), so
        # the LP distance is at least 1 here; no per-trial exact solve needed
        grid = _kink_adapted_grid(mu, nu)
        gap = float(np.max(np.abs(p_characteristic_grid(mu, grid, p) - p_characteristic_grid(nu, grid, p))))
        if gap < best_gap:
            best_gap, best_pair = gap, (mu, nu)
    return best_gap, best_pair
