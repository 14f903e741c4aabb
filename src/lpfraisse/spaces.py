"""Core vectors, linear maps, exact disjoint-support embeddings, and amalgamation.

Structured embeddings store per-column (coordinate, sign, weight_pow) triples
where weight_pow is the exact rational p-th power of the coefficient modulus
(the coefficient itself for p = infinity).  Isometry and composite equality
are then decidable exactly; real coefficients are materialized only for norm
evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from lpfraisse.core import (
    FLOAT_TOL,
    PIndex,
    frac_to_json,
    norm_p,
    rng_from_seed,
    sphere_points,
)

DEFAULT_SPHERE_SAMPLES = 100_000
MAX_SPLIT = 3  # largest support of one column in random_isometric_lamperti


class NotInjectiveError(ValueError):
    pass


class ShapeMismatchError(ValueError):
    pass


@dataclass(frozen=True)
class VectorP:
    entries: np.ndarray
    p: PIndex

    def __post_init__(self):
        object.__setattr__(self, "entries", np.asarray(self.entries, dtype=float))
        if not np.all(np.isfinite(self.entries)):
            raise ValueError("entries must be finite")

    def norm(self) -> float:
        return norm_p(self.entries, self.p)

    def __len__(self):
        return self.entries.size


@dataclass(frozen=True)
class LinearMap:
    """Dense map l_p^d -> l_q^n; columns are the images of the unit basis."""

    matrix: np.ndarray
    domain_p: PIndex
    codomain_p: PIndex

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
            raise ShapeMismatchError(f"matrix must be 2-d and nonempty, got shape {m.shape}")
        object.__setattr__(self, "matrix", m)

    @property
    def domain_dim(self) -> int:
        return self.matrix.shape[1]

    @classmethod
    def from_json(cls, obj) -> "LinearMap":
        return cls(
            np.array(obj["matrix"], dtype=float),
            PIndex.from_json(obj["domain_p"]),
            PIndex.from_json(obj["codomain_p"]),
        )


@dataclass(frozen=True)
class ColumnEntry:
    k: int
    sign: int
    wpow: Fraction

    def __post_init__(self):
        if self.sign not in (-1, 1):
            raise ValueError("sign must be +1 or -1")
        object.__setattr__(self, "wpow", Fraction(self.wpow))
        if self.wpow <= 0:
            raise ValueError("weight_pow must be positive")


@dataclass(frozen=True)
class LampertiEmbedding:
    """Disjoint-support map l_p^d -> l_p^n with exact rational weight data."""

    d: int
    n: int
    p: PIndex
    columns: tuple[tuple[ColumnEntry, ...], ...]

    def __post_init__(self):
        if self.d < 1 or self.n < 1 or len(self.columns) != self.d:
            raise ShapeMismatchError("column count must equal d >= 1")
        cols = tuple(tuple(es) for es in self.columns)
        object.__setattr__(self, "columns", cols)
        seen: set[int] = set()
        for es in cols:
            if not es:
                raise NotInjectiveError("zero column in a claimed embedding")
            for e in es:
                if not (0 <= e.k < self.n):
                    raise ShapeMismatchError(f"coordinate {e.k} out of range")
                if e.k in seen:
                    raise ValueError(f"coordinate {e.k} used by two columns")
                seen.add(e.k)

    def column_weight_pow(self, j: int) -> Fraction:
        """Exact column p-th-power weight (max |coeff| at p = infinity)."""
        if self.p.is_inf:
            return max(e.wpow for e in self.columns[j])
        return sum((e.wpow for e in self.columns[j]), Fraction(0))

    def column_weight(self, j: int) -> float:
        w = self.column_weight_pow(j)
        if self.p.is_inf:
            return float(w)
        return float(w) ** (1.0 / float(self.p))

    def is_isometric(self) -> bool:
        """Exact rational check: every column weight_pow sums to 1."""
        return all(self.column_weight_pow(j) == 1 for j in range(self.d))

    def coefficient(self, entry: ColumnEntry) -> float:
        if self.p.is_inf:
            return entry.sign * float(entry.wpow)
        return entry.sign * float(entry.wpow) ** (1.0 / float(self.p))

    def to_linear_map(self) -> LinearMap:
        m = np.zeros((self.n, self.d))
        for j, es in enumerate(self.columns):
            for e in es:
                m[e.k, j] = self.coefficient(e)
        return LinearMap(m, self.p, self.p)

    def support(self, j: int) -> frozenset[int]:
        return frozenset(e.k for e in self.columns[j])

    def signature(self):
        """Canonical (sign, weight_pow) data keyed by coordinate, for exact comparisons."""
        return tuple(tuple(sorted((e.k, e.sign, e.wpow) for e in es)) for es in self.columns)

    def to_json(self):
        return {
            "p": self.p.to_json(),
            "d": self.d,
            "n": self.n,
            "cols": [
                [{"k": e.k, "s": e.sign, "wpow": frac_to_json(e.wpow)} for e in es]
                for es in self.columns
            ],
        }

    @classmethod
    def from_json(cls, obj) -> "LampertiEmbedding":
        return cls(
            obj["d"],
            obj["n"],
            PIndex.from_json(obj["p"]),
            tuple(
                tuple(ColumnEntry(c["k"], c["s"], Fraction(c["wpow"])) for c in es)
                for es in obj["cols"]
            ),
        )


@dataclass(frozen=True)
class DistortionReport:
    lower: float
    upper: float
    certified: bool
    delta: float
    samples: int = 0
    seed: int | None = None

    def __post_init__(self):
        if not (0 <= self.lower <= self.upper + FLOAT_TOL):
            raise ValueError("need 0 <= lower <= upper")

    def to_json(self):
        out = {
            "lower": self.lower,
            "upper": self.upper,
            "certified": self.certified,
            "delta": self.delta,
        }
        if not self.certified:
            out["samples"] = self.samples
            out["seed"] = self.seed
        return out


def _delta_from_bounds(lower: float, upper: float) -> float:
    worst = upper - 1.0
    if lower > 0:
        worst = max(worst, 1.0 / lower - 1.0)
    else:
        worst = float("inf")
    return max(worst, 0.0)


def distortion(T, samples: int = DEFAULT_SPHERE_SAMPLES, seed: int = 0) -> DistortionReport:
    """Two-sided bounds on ||Tx||/||x||.

    Certified exactly for structured embeddings (column weights) and, on the
    upper side, for domain p = 1 (extreme points of the l_1 ball are the
    signed unit vectors).  Everything else is a seeded sphere-grid estimate
    and is flagged uncertified.
    """
    if isinstance(T, LampertiEmbedding):
        ws = [T.column_weight(j) for j in range(T.d)]
        lo, hi = min(ws), max(ws)
        return DistortionReport(lo, hi, True, _delta_from_bounds(lo, hi))

    m = T.matrix
    col_norms = [norm_p(m[:, j], T.codomain_p) for j in range(T.domain_dim)]
    if min(col_norms) == 0.0 and T.domain_dim == 1:
        raise NotInjectiveError("zero column in a claimed embedding")
    rng = rng_from_seed(seed)
    pts = sphere_points(rng, samples, T.domain_dim, T.domain_p)
    vals = norm_p(m @ pts.T, T.codomain_p, axis=0)
    # include unit basis directions in the sample
    vals = np.concatenate([vals, np.asarray(col_norms)])
    lo = float(np.min(vals))
    if not T.domain_p.is_inf and float(T.domain_p) == 1:
        hi = max(col_norms)  # exact on the l_1 ball
    else:
        hi = float(np.max(vals))
    return DistortionReport(lo, hi, False, _delta_from_bounds(lo, hi), samples, seed)


class RankDeficientError(ValueError):
    pass


def hilbert_round(T: LinearMap) -> LinearMap:
    """Nearest isometry in the Euclidean case: normalize singular values to 1.

    If T is a delta-isometry the operator distance to the output is
    max_i |s_i - 1| <= delta.
    """
    if T.domain_p != PIndex.of(2) or T.codomain_p != PIndex.of(2):
        raise ValueError("hilbert_round requires domain_p = codomain_p = 2")
    u, s, vt = np.linalg.svd(T.matrix, full_matrices=False)
    if s[-1] <= T.matrix.shape[1] * np.finfo(float).eps * s[0] or s[-1] == 0:
        raise RankDeficientError("rank-deficient map cannot be rounded to an isometry")
    return LinearMap(u @ vt, T.domain_p, T.codomain_p)


def operator_distance_l2(a: LinearMap, b: LinearMap) -> float:
    return float(np.linalg.norm(a.matrix - b.matrix, 2))


def compose(S: LampertiEmbedding, T: LampertiEmbedding) -> LampertiEmbedding:
    """S after T: two structured embeddings compose to a structured embedding."""
    if S.p != T.p:
        raise ShapeMismatchError("p mismatch")
    if S.d != T.n:
        raise ShapeMismatchError(f"cannot compose {S.d} <- with -> {T.n}")
    cols = []
    for j in range(T.d):
        es = []
        for e in T.columns[j]:
            for f in S.columns[e.k]:
                es.append(ColumnEntry(f.k, e.sign * f.sign, e.wpow * f.wpow))
        cols.append(tuple(es))
    return LampertiEmbedding(T.d, S.n, S.p, tuple(cols))


def northwest_coupling(row: Sequence[Fraction], col: Sequence[Fraction]) -> dict[tuple[int, int], Fraction]:
    """Deterministic coupling of two equal-mass nonnegative rational vectors.

    Walk both margins in index order transferring the minimal residual mass;
    support size is at most len(row) + len(col) - 1.
    """
    if sum(row, Fraction(0)) != sum(col, Fraction(0)):
        raise ValueError("margins must have equal total mass")
    if min(row) < 0 or min(col) < 0:
        raise ValueError("margins must be nonnegative")
    # each step moves a or b on, so no cell is visited twice; with equal
    # nonnegative totals both margins run out together
    pi: dict[tuple[int, int], Fraction] = {}
    a, b = 0, 0
    ra, cb = Fraction(row[0]), Fraction(col[0])
    while True:
        m = min(ra, cb)
        if m > 0:
            pi[(a, b)] = m
        ra -= m
        cb -= m
        if ra == 0 and a + 1 < len(row):
            a += 1
            ra = Fraction(row[a])
        elif cb == 0 and b + 1 < len(col):
            b += 1
            cb = Fraction(col[b])
        else:
            return pi


def product_coupling(row: Sequence[Fraction], col: Sequence[Fraction]) -> dict[tuple[int, int], Fraction]:
    """Independent coupling, available for cross-checking the amalgam."""
    total = sum(row, Fraction(0))
    if total != sum(col, Fraction(0)):
        raise ValueError("margins must have equal total mass")
    return {
        (a, b): (ra * cb) / total
        for a, ra in enumerate(row)
        for b, cb in enumerate(col)
        if ra > 0 and cb > 0
    }


def amalgamate(gamma: LampertiEmbedding, eta: LampertiEmbedding, coupling: str = "northwest"):
    """Common extension of two isometric structured embeddings of the same
    space, for finite p.

    Returns (N, i, j) with i, j isometric and i . gamma = j . eta holding as an
    exact identity on the stored (sign, weight_pow) data: per source coordinate
    the two weight vectors are coupled, the amalgam gets one atom per coupling
    pair, and both composites carry coefficient sign*sign*pi^(1/p) there.
    """
    if gamma.p != eta.p:
        raise ValueError("p mismatch")
    if gamma.p.is_inf:
        # the sup-norm weight data are coefficient moduli, not masses summing
        # to 1 per column, so there is nothing to couple
        raise ValueError("amalgamation is defined for finite p only")
    if gamma.d != eta.d:
        raise ValueError("domain dimension mismatch")
    if not gamma.is_isometric() or not eta.is_isometric():
        raise ValueError("amalgamation requires isometric inputs (exact rational check)")
    couple = northwest_coupling if coupling == "northwest" else product_coupling

    atom = 0
    i_cols: dict[int, list[ColumnEntry]] = {a: [] for a in range(gamma.n)}
    j_cols: dict[int, list[ColumnEntry]] = {b: [] for b in range(eta.n)}
    for k in range(gamma.d):
        g_entries = sorted(gamma.columns[k], key=lambda e: e.k)
        e_entries = sorted(eta.columns[k], key=lambda e: e.k)
        pi = couple([e.wpow for e in g_entries], [e.wpow for e in e_entries])
        for (a, b), mass in sorted(pi.items()):
            ga, eb = g_entries[a], e_entries[b]
            i_cols[ga.k].append(ColumnEntry(atom, eb.sign, mass / ga.wpow))
            j_cols[eb.k].append(ColumnEntry(atom, ga.sign, mass / eb.wpow))
            atom += 1
    g_used = set().union(*(gamma.support(k) for k in range(gamma.d)))
    e_used = set().union(*(eta.support(k) for k in range(eta.d)))
    for a in range(gamma.n):
        if a not in g_used:
            i_cols[a].append(ColumnEntry(atom, 1, Fraction(1)))
            atom += 1
    for b in range(eta.n):
        if b not in e_used:
            j_cols[b].append(ColumnEntry(atom, 1, Fraction(1)))
            atom += 1
    big_n = atom
    i = LampertiEmbedding(gamma.n, big_n, gamma.p, tuple(tuple(i_cols[a]) for a in range(gamma.n)))
    j = LampertiEmbedding(eta.n, big_n, eta.p, tuple(tuple(j_cols[b]) for b in range(eta.n)))
    return big_n, i, j


def random_isometric_lamperti(rng: np.random.Generator, d: int, n: int, p) -> LampertiEmbedding:
    """Random isometric structured embedding: disjoint supports of at most
    MAX_SPLIT coordinates each, rational weights."""
    p = PIndex.of(p)
    if n < d:
        raise ValueError("need n >= d")
    perm = rng.permutation(n)
    counts = np.ones(d, dtype=int)
    spare = n - d
    for _ in range(spare):
        j = int(rng.integers(d))
        if counts[j] < MAX_SPLIT:
            counts[j] += 1
    pos = 0
    cols = []
    for j in range(d):
        c = int(counts[j])
        ks = [int(perm[pos + t]) for t in range(c)]
        pos += c
        # random rational split of mass 1
        denom = int(rng.integers(4, 40))
        cuts = sorted(rng.choice(np.arange(1, denom), size=c - 1, replace=False).tolist()) if c > 1 else []
        bounds = [0] + list(cuts) + [denom]
        wpows = [Fraction(bounds[t + 1] - bounds[t], denom) for t in range(c)]
        signs = [int(s) for s in rng.choice([-1, 1], size=c)]
        if p.is_inf:
            # max-norm isometry: largest coefficient per column is 1
            wpows = [Fraction(1)] + [Fraction(int(rng.integers(1, denom)), denom) for _ in range(c - 1)]
        cols.append(tuple(ColumnEntry(k, s, w) for k, s, w in zip(ks, signs, wpows) if w > 0))
    return LampertiEmbedding(d, n, p, tuple(cols))
