"""Axis-box partitions with small bounded cells and controlled tails, pullback
cells over a discrete space, conditional expectations, and the envelope
pipeline that re-embeds a finite-dimensional function space into a weighted
sequence space.

Breakpoints snap to midpoints between consecutive distinct atom values so
every cell is a continuity set of the pushforward measure.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from lpfraisse.core import PIndex, rng_from_seed
from lpfraisse.geometry import Subspace, auerbach_basis
from lpfraisse.measures import DiscreteSpace

TAIL = -1  # interval index of the unbounded piece |t| > K


class CellMismatchError(ValueError):
    def __init__(self, offending):
        self.offending = offending
        super().__init__(f"positive source cells have no mass on the target side: {sorted(offending)}")


@dataclass(frozen=True)
class BoxPartition:
    dim: int
    K: float
    epsilon: float
    breakpoints: tuple[tuple[float, ...], ...]  # per axis, -K .. K inclusive

    def cells_of(self, values: np.ndarray) -> dict[tuple[int, ...], tuple[int, ...]]:
        """Atoms grouped by the box holding them, in atom order; values is
        (dim, atoms).  A key holds one interval index per axis, TAIL where
        |value| > K."""
        values = np.asarray(values, dtype=float)
        idx = np.empty(values.shape, dtype=int)
        for j, bp in enumerate(self.breakpoints):
            # half-open [b_i, b_{i+1}), last interval closed at K
            idx[j] = np.clip(np.searchsorted(bp, values[j], side="right") - 1, 0, len(bp) - 2)
        idx[np.abs(values) > self.K] = TAIL
        cells: dict[tuple[int, ...], list[int]] = {}
        for a, key in enumerate(zip(*idx.tolist())):
            cells.setdefault(key, []).append(a)
        return {k: tuple(v) for k, v in cells.items()}

    def to_json(self):
        return {
            "dim": self.dim,
            "K": self.K,
            "epsilon": self.epsilon,
            "breakpoints": [list(bp) for bp in self.breakpoints],
        }


@dataclass(frozen=True)
class PullbackPartition:
    cells: dict[tuple[int, ...], tuple[int, ...]]  # cell key -> atom indices

    @property
    def positive_keys(self) -> list[tuple[int, ...]]:
        return sorted(self.cells.keys())


def _snap_off(value: float, taken: set[float]) -> float:
    step = max(abs(value), 1.0) * 2.0 ** -40
    while value in taken:
        value += step
    return value


def tail_weight(values: np.ndarray, masses: np.ndarray, K: float, p: float) -> float:
    """max_j sum of |f_j|^p mass over atoms with |f_j| >= K."""
    sel = np.abs(values) >= K
    return float(np.max(np.sum(np.where(sel, np.abs(values) ** p * masses[None, :], 0.0), axis=1)))


def _axis_breakpoints(values: np.ndarray, K: float, width: float) -> tuple[float, ...]:
    """Breakpoints -K .. K of one axis.  Each step goes to the last midpoint
    between consecutive distinct values in (lo, lo + width (1 - 1e-9)], found
    by bisection, or else to lo + width (1 - 1e-6) snapped off the values."""
    vals = np.unique(values)
    taken = set(vals.tolist())
    mids = ((vals[:-1] + vals[1:]) / 2).tolist()  # ascending
    bp = [-K]
    while bp[-1] < K:
        lo = bp[-1]
        limit = lo + width * (1 - 1e-9)
        if limit >= K:
            bp.append(K)
            break
        at = bisect_right(mids, limit) - 1
        if at >= 0 and mids[at] > lo:
            bp.append(mids[at])
        else:
            bp.append(_snap_off(lo + width * (1 - 1e-6), taken))
    return tuple(bp)


def build_appropriate(values: np.ndarray, space: DiscreteSpace, eps: float, p
                      ) -> tuple[BoxPartition, PullbackPartition]:
    """(eps, K)-appropriate box partition for the functions F plus its pullback.

    K is the smallest value on the dyadic grid max|f| * 2^-i whose tail weight
    stays below eps^p/3; bounded axis intervals have width strictly below
    eps / (3 ||mu||)^(1/p) with breakpoints snapped off atom values.
    """
    if not (0 < eps <= 1):
        raise ValueError("eps must lie in (0, 1]")
    values = np.atleast_2d(np.asarray(values, dtype=float))
    nfun = len(values)
    pf = float(PIndex.of(p))
    masses = space.masses

    vmax = float(np.max(np.abs(values)))
    if vmax == 0:
        vmax = 1.0
    budget = eps**pf / 3
    K = vmax * (1 + 2.0 ** -20)
    i = 0
    while i < 60:
        cand = vmax * 2.0 ** -(i + 1)
        if cand <= 0 or tail_weight(values, masses, cand, pf) >= budget:
            break
        K = cand
        i += 1
    K = _snap_off(K, set(np.abs(values).ravel().tolist()))

    total = float(space.total_mass())
    width = eps / (3 * total) ** (1 / pf)
    breakpoints = tuple(_axis_breakpoints(row, K, width) for row in values)
    part = BoxPartition(nfun, K, eps, breakpoints)
    return part, PullbackPartition(part.cells_of(values))


def conditional_expectation(f: np.ndarray, pullback: PullbackPartition, space: DiscreteSpace) -> np.ndarray:
    """Mass-weighted cell averages; a norm-one projection by Jensen.  Atoms
    run along axis 0; extra trailing axes hold further functions."""
    f = np.asarray(f, dtype=float)
    masses = space.masses
    out = np.empty_like(f)
    for atoms in pullback.cells.values():
        idx = list(atoms)
        w = masses[idx]
        out[idx] = np.sum(w.reshape((-1,) + (1,) * (f.ndim - 1)) * f[idx], axis=0) / np.sum(w)
    return out


@dataclass(frozen=True)
class Envelope:
    space: DiscreteSpace
    p: PIndex
    eps: float
    partition: BoxPartition
    pullback: PullbackPartition
    cell_keys: tuple[tuple[int, ...], ...]
    weights: tuple[Fraction, ...]          # exact cell masses
    basis: np.ndarray                      # (atoms, k) Auerbach-normalized functions
    xi: np.ndarray                         # (cells, k): cell averages of each basis function
    defect: float                          # sampled ||xi - inclusion||

    @property
    def num_cells(self) -> int:
        return len(self.cell_keys)


def _weighted_subspace(basis_vals: np.ndarray, space: DiscreteSpace, p: PIndex) -> tuple[Subspace, np.ndarray]:
    """L_p(mu) embeds isometrically in l_p^n by scaling with mass^(1/p)."""
    scale = space.masses ** (1 / float(p))
    return Subspace(len(space.atoms), p, scale[:, None] * basis_vals), scale


def envelope(basis_vals: np.ndarray, space: DiscreteSpace, eps: float, p,
             seed: int = 0, samples: int = 512) -> Envelope:
    """Envelope of X = span(basis): Auerbach-normalize, build an
    (eps/(6k), K)-appropriate partition, and project by conditional
    expectation.  Requires the constant function in the span.  Every finite
    p gives an envelope; the transfer guarantee needs p not even."""
    p = PIndex.of(p)
    if p.is_inf:
        raise ValueError("envelopes are built for finite p")
    B = np.atleast_2d(np.asarray(basis_vals, dtype=float))
    if B.ndim != 2:
        raise ValueError("basis must be (atoms, k)")
    natoms, k = B.shape
    ones = np.ones(natoms)
    sol, res, *_ = np.linalg.lstsq(B, ones, rcond=None)
    if np.linalg.norm(B @ sol - ones) > 1e-8:
        raise ValueError("constant function must lie in the span of the basis")
    sub, scale = _weighted_subspace(B, space, p)
    au = auerbach_basis(sub, restarts=3, seed=seed, check_samples=500, ascent_rounds=10)
    F = au.vectors / scale[:, None]  # back to plain function values

    part, pb = build_appropriate(F.T, space, eps / (6 * k), p)
    keys = pb.positive_keys
    masses_exact = {key: sum((space.atoms[a][1] for a in pb.cells[key]), Fraction(0)) for key in keys}
    xi = conditional_expectation(F, pb, space)[[pb.cells[key][0] for key in keys]]

    rng = rng_from_seed(seed + 1)
    f = F @ rng.standard_normal((samples, k)).T  # (atoms, samples)
    nf = space.norm(f, p)
    ef = conditional_expectation(f, pb, space)
    ef -= f
    keep = nf > 1e-12
    defect = float(np.max(space.norm(ef, p)[keep] / nf[keep], initial=0.0))
    env = Envelope(space, p, eps, part, pb, tuple(keys), tuple(masses_exact[kk] for kk in keys),
                   F, xi, defect)
    if defect > eps:
        raise AssertionError(f"envelope defect {defect:.3g} exceeds eps {eps:.3g}")
    return env


@dataclass(frozen=True)
class TransferResult:
    matrix: np.ndarray        # (atoms1, cells): images of the cell indicators
    ratios: tuple[Fraction, ...]
    defect: float
    isometric_exact: bool


def transfer_isometry(env: Envelope, gamma_vals: np.ndarray, space1: DiscreteSpace,
                      seed: int = 0, samples: int = 512) -> TransferResult:
    """Isometry I from the envelope onto cell indicators of the target side.

    gamma_vals holds the images (atoms1 x k) of the envelope's basis.  The
    indicator of a source cell R maps to (mu0(R)/mu1(R'))^(1/p) 1_{R'} where
    R' collects the target atoms falling in the same box; the exponent 1/p is
    what makes the displayed weighted-norm computation come out isometric.
    Target masses are exact rationals, so I is isometric by construction.
    """
    G = np.asarray(gamma_vals, dtype=float)
    natoms1, k = G.shape
    if k != env.basis.shape[1]:
        raise ValueError("gamma must provide images of the envelope basis")
    pf = float(env.p)

    target_cells = env.partition.cells_of(G.T)

    missing = [key for key in env.cell_keys if key not in target_cells]
    if missing:
        raise CellMismatchError(missing)

    m1 = {key: sum((space1.atoms[a][1] for a in target_cells[key]), Fraction(0)) for key in env.cell_keys}
    ratios = tuple(env.weights[i] / m1[key] for i, key in enumerate(env.cell_keys))
    I = np.zeros((natoms1, env.num_cells))
    for ci, key in enumerate(env.cell_keys):
        I[list(target_cells[key]), ci] = float(ratios[ci]) ** (1 / pf)

    # exact isometry certificate: ||I(sum a_R 1_R)||^p = sum |a_R|^p (mu0/mu1) mu1 = sum |a_R|^p mu0
    isometric = all(ratios[i] * m1[key] == env.weights[i] for i, key in enumerate(env.cell_keys))

    rng = rng_from_seed(seed + 2)
    cs = rng.standard_normal((samples, k)).T  # (k, samples)
    n0 = env.space.norm(env.basis @ cs, env.p)
    through = I @ (env.xi @ cs)
    through -= G @ cs
    keep = n0 >= 1e-12
    defect = float(np.max(space1.norm(through, env.p)[keep] / n0[keep], initial=0.0))
    return TransferResult(I, ratios, defect, isometric)
