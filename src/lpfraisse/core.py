"""Shared primitives: the exponent index p, p-norms, seeded sampling."""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

FLOAT_TOL = 1e-9


@dataclass(frozen=True)
class PIndex:
    """Exponent of an l_p norm.  Finite values are kept exact; None means infinity."""

    value: Fraction | None = None

    def __post_init__(self):
        if self.value is not None:
            v = Fraction(self.value)
            if v < 1:
                raise ValueError(f"p must be >= 1, got {v}")
            object.__setattr__(self, "value", v)

    @classmethod
    def of(cls, p) -> "PIndex":
        if isinstance(p, PIndex):
            return p
        if p is None or p == float("inf") or p == "inf":
            return cls(None)
        return cls(Fraction(p))

    @property
    def is_inf(self) -> bool:
        return self.value is None

    def __float__(self) -> float:
        return float("inf") if self.value is None else float(self.value)

    def __repr__(self):
        return "p=inf" if self.value is None else f"p={self.value}"

    def to_json(self):
        if self.value is None:
            return "inf"
        if self.value.denominator == 1:
            return self.value.numerator
        return f"{self.value.numerator}/{self.value.denominator}"

    @classmethod
    def from_json(cls, obj) -> "PIndex":
        if obj == "inf":
            return cls(None)
        return cls(Fraction(obj))


def norm_p(x: np.ndarray, p, axis: int | None = None) -> float | np.ndarray:
    """l_p norm of a coordinate vector (max-norm when p is infinite), or the
    array of norms of its slices along axis; the one unweighted l_p norm."""
    x = np.asarray(x, dtype=float)
    if x.size == 0:
        return 0.0
    out = np.linalg.norm(x, float(p), axis)
    return float(out) if axis is None else out


def frac_to_json(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def rng_from_seed(seed: int) -> np.random.Generator:
    """One seeded generator; workers derive independent streams via spawn."""
    return np.random.default_rng(np.random.PCG64(seed))


def sphere_points(rng: np.random.Generator, count: int, dim: int, p: PIndex) -> np.ndarray:
    """Quasi-uniform sample of the l_p unit sphere: Gaussian directions, p-normalized."""
    g = rng.standard_normal((count, dim))
    # avoid zero rows
    bad = np.all(g == 0, axis=1)
    g[bad, 0] = 1.0
    return g / norm_p(g, p, axis=1)[:, None]


def dumps_canonical(obj) -> str:
    """Deterministic JSON used by every report writer."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)
