"""Approximate lattice-embedding predicates between finite-dimensional
M-spaces (sup-norm sequence spaces) and the entry-dropping rounding that
lands exactly in the lattice class.

The sup-to-sup operator norm of a real matrix is the maximum absolute row
sum (the maximum over sign patterns is attained at the worst row), so all
operator-norm statements here are exact.

For contrast (recorded, not implemented): without lattice constraints every
approximate sup-norm embedding sits within its defect of an exact one, but
no rounding algorithm is provided for that unconstrained statement here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class MSpaceMap:
    """Map between sup-norm spaces in the atom bases; matrix is (n, m)."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=float)
        if mat.ndim != 2:
            raise ValueError("matrix must be 2-d")
        if not np.all(np.isfinite(mat)):
            raise ValueError("entries must be finite")
        object.__setattr__(self, "matrix", mat)

    @property
    def domain_dim(self) -> int:
        return self.matrix.shape[1]


def sup_operator_norm(matrix: np.ndarray) -> float:
    """Exact sup-to-sup norm: max over sign patterns equals max |row| sum."""
    return float(np.max(np.sum(np.abs(matrix), axis=1)))


@dataclass(frozen=True)
class PredicateReport:
    disjoint: bool
    positive: bool
    isometric: bool
    delta: float


def predicates(gamma: MSpaceMap, delta: float) -> PredicateReport:
    """Check the three approximate lattice-embedding predicates at delta.

    disjoint: shared coordinates of two columns never both exceed delta in
    modulus; positive: no entry below -delta; isometric: column sup-norms
    within the delta-isometry window (certified for disjoint-ish columns,
    where the extreme gains are the column norms).
    """
    if not (math.isfinite(delta) and delta >= 0):
        raise ValueError("need finite delta >= 0")
    A = np.abs(gamma.matrix)
    m = gamma.domain_dim
    disjoint = True
    for j in range(m):
        for k in range(j + 1, m):
            if float(np.max(np.minimum(A[:, j], A[:, k]))) > delta:
                disjoint = False
    positive = bool(np.max(np.maximum(-gamma.matrix, 0.0)) <= delta)
    col = np.max(A, axis=0)
    lo, hi = float(np.min(col)), float(np.max(col))
    isometric = lo >= 1 / (1 + delta) - 1e-12 and hi <= 1 + delta + 1e-12
    return PredicateReport(disjoint, positive, isometric, delta)


class RoundingError(ValueError):
    pass


@dataclass(frozen=True)
class RoundedEmbedding:
    xi: MSpaceMap
    distance: float       # exact sup-to-sup operator distance ||gamma - xi||
    bound: float          # the guaranteed 3 * delta * dim A


def lattice_round(gamma: MSpaceMap, delta: float, mode: str = "lattice") -> RoundedEmbedding:
    """Drop entries of modulus <= delta, renormalize columns by sup-norm.

    With the predicates holding at delta the survivors are pairwise disjoint
    (in lattice mode, positive), the output is exactly isometric, and the
    operator distance obeys 3 * delta * dim A.  Disjointness and positivity
    need no check of their own: an entry survives only if its modulus
    exceeds delta, and the predicates allow no two such entries in one row
    and no entry below -delta.
    """
    if mode not in ("lattice", "disjoint"):
        raise ValueError("mode must be 'lattice' or 'disjoint'")
    rep = predicates(gamma, delta)
    needed = rep.disjoint and rep.isometric and (rep.positive or mode == "disjoint")
    if not needed:
        raise RoundingError(f"predicates fail at delta={delta}: {rep}")
    A = gamma.matrix
    kept = np.where(np.abs(A) > delta, A, 0.0)  # strict threshold; ties drop
    m = gamma.domain_dim
    cols = []
    for j in range(m):
        c = kept[:, j]
        s = float(np.max(np.abs(c)))
        if s == 0:
            raise RoundingError(f"column {j} vanishes after thresholding")
        cols.append(c / s)
    xi = np.stack(cols, axis=1)
    return RoundedEmbedding(MSpaceMap(xi), sup_operator_norm(A - xi), 3 * delta * m)


def random_exact_embedding(rng: np.random.Generator, m: int, n: int,
                           mode: str = "lattice") -> MSpaceMap:
    """Exact lattice (or disjoint) embedding: disjoint unit columns."""
    if n < m:
        raise ValueError("need n >= m")
    perm = rng.permutation(n)
    counts = np.ones(m, dtype=int)
    for _ in range(n - m):
        counts[int(rng.integers(m))] += 1
    mat = np.zeros((n, m))
    pos = 0
    for j in range(m):
        rows = perm[pos:pos + counts[j]]
        pos += counts[j]
        vals = rng.uniform(0.2, 1.0, size=len(rows))
        vals[int(rng.integers(len(rows)))] = 1.0
        if mode == "disjoint":
            vals = vals * rng.choice([-1.0, 1.0], size=len(rows))
            if not np.any(np.abs(vals) == 1.0):
                vals[0] = 1.0
        mat[rows, j] = vals
    return MSpaceMap(mat)


def perturb_embedding(rng: np.random.Generator, xi: MSpaceMap, delta: float,
                      mode: str = "lattice") -> MSpaceMap:
    """delta-perturbation keeping all three predicates valid at delta."""
    A = xi.matrix.copy()
    n, m = A.shape
    nonzero = A != 0
    # wiggle surviving entries, keeping moduli inside the isometry window
    scale = 1 + rng.uniform(-delta / 2, delta / 2, size=A.shape)
    A = A * scale
    col = np.max(np.abs(A), axis=0)
    A = A / np.maximum(col, 1.0)[None, :]
    lowfloor = 1 / (1 + delta) + 1e-9
    for j in range(m):
        c = float(np.max(np.abs(A[:, j])))
        if c < lowfloor:
            A[:, j] *= lowfloor / c
    # sprinkle off-support noise of modulus <= delta (kept below the threshold)
    noise = rng.uniform(-delta, delta, size=A.shape) * (rng.random(size=A.shape) < 0.3)
    A = np.where(nonzero, A, np.clip(noise, -delta, delta) * 0.999)
    if mode == "lattice":
        A = np.where(nonzero, A, np.abs(A) * np.where(rng.random(size=A.shape) < 0.8, 1, -1))
        A = np.where((~nonzero) & (A < -delta), -A, A)
    return MSpaceMap(A)
