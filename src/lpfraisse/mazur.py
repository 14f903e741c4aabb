"""Mazur maps between l_p and l_q spheres and transport of Ramsey instances.

The coordinatewise map x -> sign(x)|x|^(p/q) preserves supports and signs and
satisfies ||M(x)||_q^q = ||x||_p^p.  On structured embeddings it acts by
keeping the stored weight_pow data literally (|c|^p at p equals |c'|^q at q),
so the transform is exact on that representation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from lpfraisse.core import PIndex
from lpfraisse.spaces import LampertiEmbedding, VectorP


@dataclass(frozen=True)
class MazurParams:
    p: PIndex
    q: PIndex

    def __post_init__(self):
        object.__setattr__(self, "p", PIndex.of(self.p))
        object.__setattr__(self, "q", PIndex.of(self.q))
        if self.p.is_inf or self.q.is_inf:
            raise ValueError("Mazur maps require finite p, q")

    @property
    def exponent(self) -> float:
        return float(self.p) / float(self.q)


def mazur_map(x: VectorP, params: MazurParams) -> VectorP:
    """Coordinatewise sign(x)|x|^(p/q), sending the l_p sphere to the l_q sphere."""
    if x.p != params.p:
        raise ValueError(f"vector lives at {x.p}, params expect {params.p}")
    if params.p == params.q:
        return VectorP(x.entries.copy(), params.q)
    r = params.exponent
    out = np.sign(x.entries) * np.abs(x.entries) ** r
    return VectorP(out, params.q)


def mazur_embedding(gamma: LampertiEmbedding, params: MazurParams) -> LampertiEmbedding:
    """Columnwise transport u_i -> M(gamma u_i); exact on stored weight data."""
    if gamma.p != params.p:
        raise ValueError(f"embedding lives at {gamma.p}, params expect {params.p}")
    if not gamma.is_isometric():
        raise ValueError("transport is defined for isometric structured embeddings")
    return replace(gamma, p=params.q)


def holder_constant(params: MazurParams) -> float:
    """Sharp constant c_{p,q} = 2^(1 - p/q) of the p < q modulus.

    With r = p/q <= 1, |sgn(a)|a|^r - sgn(b)|b|^r| <= 2^(1-r) |a - b|^r for
    all reals (same signs: subadditivity of t^r; opposite signs: concavity),
    so summing q-th powers over coordinates gives
    ||M(x) - M(y)||_q <= 2^(1-r) ||x - y||_p^r, with equality at x = -y.
    See Benyamini-Lindenstrauss, Geometric Nonlinear Functional Analysis,
    ch. 9.
    """
    return 2.0 ** (1.0 - params.exponent)


def continuity_modulus(params: MazurParams, t):
    """tau_{p,q}(t): (p/q) t when p >= q, else 2^(1-p/q) t^(p/q)."""
    t = np.asarray(t, dtype=float)
    p, q = float(params.p), float(params.q)
    if p >= q:
        return (p / q) * t
    return holder_constant(params) * t ** (p / q)


@dataclass(frozen=True)
class TransferredInstance:
    d: int
    m: int
    r: int
    eps: float
    p: PIndex
    q: PIndex
    eps_transferred: float
    constant: float | None
    warning: str | None = None

    def to_json(self):
        return {
            "d": self.d,
            "m": self.m,
            "r": self.r,
            "p": self.p.to_json(),
            "q": self.q.to_json(),
            "eps": self.eps,
            "eps_transferred": self.eps_transferred,
            "constant": self.constant,
            "warning": self.warning,
        }


def transfer_instance(d: int, m: int, r: int, eps: float, p, q) -> TransferredInstance:
    """Move a Ramsey instance between exponents: same (d, m, r), the admitted
    error becomes tau_{p,q}(eps).  Witness families transport through
    mazur_embedding with the same modulus.
    """
    p, q = PIndex.of(p), PIndex.of(q)
    if p.is_inf or q.is_inf:
        raise ValueError("transfer requires finite p, q")
    warning = None
    if p == PIndex.of(2) or q == PIndex.of(2):
        warning = "exponent 2 is outside the transport hypothesis; result is formal"
    params = MazurParams(p, q)
    if p == q:
        return TransferredInstance(d, m, r, eps, p, q, eps, None, warning)
    pf, qf = float(p), float(q)
    if pf >= qf:
        return TransferredInstance(d, m, r, eps, p, q, (pf / qf) * eps, None, warning)
    c = holder_constant(params)
    return TransferredInstance(d, m, r, eps, p, q, c * eps ** (pf / qf), c, warning)
