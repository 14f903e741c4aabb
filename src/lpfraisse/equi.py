"""Equisurjections with Hamming geometry, matching and rounding, exact
counting, concentration functions, and sufficient-n Ramsey certificates.

All combinatorial bounds are checked in exact rational arithmetic; measure
and concentration quantities that can be astronomically small are carried in
log space inside replayable certificates.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

SUBSET_EXACT_BUDGET = 300_000
CERTIFICATE_N_BUDGET = 4_000_000
EXACT_DP_CAP = 2000
EXACT_SPACE_CAP = 2_000_000
REPLAY_RTOL = 1e-12


class NotSurjectiveError(ValueError):
    pass


@dataclass(frozen=True)
class Equisurjection:
    """Map T -> S given by values in [0, S_size); must hit every target."""

    values: tuple[int, ...]
    s_size: int

    def __post_init__(self):
        vals = tuple(int(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if any(not (0 <= v < self.s_size) for v in vals):
            raise ValueError("values out of range")
        if len(set(vals)) != self.s_size:
            raise NotSurjectiveError("map must be surjective onto S")

    @property
    def t_size(self) -> int:
        return len(self.values)

    def preimage_counts(self) -> list[int]:
        c = [0] * self.s_size
        for v in self.values:
            c[v] += 1
        return c


def delta_of(F: Equisurjection) -> Fraction:
    """Smallest delta in the preimage-size window inequality, exact."""
    ratio = Fraction(F.s_size, F.t_size)
    return max(abs(Fraction(c) * ratio - 1) for c in F.preimage_counts())


def hamming(F: Equisurjection, G: Equisurjection) -> Fraction:
    if F.t_size != G.t_size:
        raise ValueError("size mismatch")
    return Fraction(sum(1 for a, b in zip(F.values, G.values) if a != b), F.t_size)


def match_permutation(phi: Equisurjection, psi: Equisurjection) -> tuple[int, ...]:
    """Permutation pi of T with d_H(psi . pi, phi) <= (delta + delta')/2.

    For every s, pair the preimages of s under phi and psi in index order, as
    far as the smaller one reaches, and complete to a bijection by
    ascending-index fill.
    """
    if phi.t_size != psi.t_size or phi.s_size != psi.s_size:
        raise ValueError("shape mismatch")
    t = phi.t_size
    A = {s: [i for i, v in enumerate(phi.values) if v == s] for s in range(phi.s_size)}
    B = {s: [i for i, v in enumerate(psi.values) if v == s] for s in range(phi.s_size)}
    pi = [None] * t
    used = [False] * t
    for s in range(phi.s_size):
        for a_i, b_i in zip(A[s], B[s]):
            pi[a_i] = b_i
            used[b_i] = True
    rest_dom = [i for i in range(t) if pi[i] is None]
    rest_rng = [i for i in range(t) if not used[i]]
    for a_i, b_i in zip(rest_dom, rest_rng):
        pi[a_i] = b_i
    return tuple(pi)


def apply_permutation(psi: Equisurjection, pi: tuple[int, ...]) -> Equisurjection:
    return Equisurjection(tuple(psi.values[pi[i]] for i in range(len(pi))), psi.s_size)


def brute_force_optimal_hamming(phi: Equisurjection, psi: Equisurjection) -> Fraction:
    """Independent oracle: minimum of d_H(psi . pi, phi) over all permutations."""
    t = phi.t_size
    best = Fraction(1)
    for pi in itertools.permutations(range(t)):
        best = min(best, hamming(apply_permutation(psi, pi), phi))
    return best


def canonical_exact(t: int, s: int) -> Equisurjection:
    """Blocks in index order: the first t/s points to 0, the next to 1, ..."""
    if t % s != 0:
        raise ValueError("need s | t")
    b = t // s
    return Equisurjection(tuple(i // b for i in range(t)), s)


def round_to_exact(F: Equisurjection) -> Equisurjection:
    """Nearest-in-bound exact equisurjection: psi . pi for the canonical psi.

    d_H(F, output) <= delta(F)/2 holds exactly.
    """
    if F.t_size % F.s_size != 0:
        raise ValueError("need #S | #T")
    psi = canonical_exact(F.t_size, F.s_size)
    pi = match_permutation(F, psi)
    return apply_permutation(psi, pi)


# ---------------------------------------------------------------------------
# counting
# ---------------------------------------------------------------------------


def _window(n: int, s: int, delta) -> tuple[int, int]:
    dd = Fraction(delta)
    base = Fraction(n, s)
    lo = math.ceil(base * (1 - dd))
    hi = math.floor(base * (1 + dd))
    return max(lo, 1), min(hi, n)  # surjectivity floors the window at 1


def count_equi(n: int, s: int, delta) -> tuple[int, float]:
    """Number of maps n -> s with every preimage count in the delta window,
    exact at every n.  Returns (count, fraction of s^n).

    With w_c(r) the number of maps of r points onto c colors with every count
    in the window, w_{a+b}(r) = sum_j C(r, j) w_a(j) w_b(r - j); w_s comes
    from w_floor(s/2) and w_ceil(s/2) by this convolution, each binomial row
    walked incrementally, down to w_1, the indicator of the window.
    """
    lo, hi = _window(n, s, delta)
    if lo > hi:
        return 0, 0.0
    tables = {1: dict.fromkeys(range(lo, hi + 1), 1)}  # tables[c][r] = w_c(r), r <= n

    def w(a: int, b: int, r: int) -> int:
        """w_{a+b}(r) from the tables of a and b."""
        wa, wb = table(a), table(b)
        j0, j1 = max(a * lo, r - b * hi), min(a * hi, r - b * lo)
        if j0 > j1:
            return 0
        total, binom = 0, math.comb(r, j0)
        for j in range(j0, j1 + 1):
            total += binom * wa[j] * wb[r - j]
            binom = binom * (r - j) // (j + 1)
        return total

    def table(c: int) -> dict[int, int]:
        if c not in tables:
            tables[c] = {r: w(c // 2, c - c // 2, r) for r in range(c * lo, min(c * hi, n) + 1)}
        return tables[c]

    count = w(s // 2, s - s // 2, n) if s > 1 else tables[1].get(n, 0)
    frac = float(Fraction(count, s**n)) if count else 0.0
    return count, frac


def equi_fraction_lower_bound_printed(n: int, s: int, delta: float) -> float:
    """The paper-stated asymptotic lower bound 1 - exp(-delta^2 n / (9 (s(s-1))^2))."""
    return 1 - math.exp(-(delta**2) * n / (9 * (s * (s - 1)) ** 2))


def count_fraction_log(n: int, s: int, delta) -> float:
    """Fraction of s^n maps in the delta window, via a vectorized log-space
    multinomial scan (s <= 3).  Agrees with the exact DP to float accuracy;
    used for long-n sweeps where repeating the big-integer DP is wasteful.
    Rounding can carry the sum past 1, so the result is clamped at 1."""
    from scipy.special import gammaln, logsumexp

    lo, hi = _window(n, s, delta)
    if lo > hi:
        return 0.0
    ks = np.arange(lo, hi + 1)
    lg = gammaln(n + 1)
    if s == 2:
        k2 = n - ks
        valid = (k2 >= lo) & (k2 <= hi)
        if not np.any(valid):
            return 0.0
        terms = lg - gammaln(ks[valid] + 1) - gammaln(n - ks[valid] + 1)
        return min(1.0, math.exp(logsumexp(terms) - n * math.log(2)))
    if s == 3:
        k0 = ks[:, None]
        k1 = ks[None, :]
        k2 = n - k0 - k1
        valid = (k2 >= lo) & (k2 <= hi)
        if not np.any(valid):
            return 0.0
        terms = lg - gammaln(k0 + 1) - gammaln(k1 + 1) - gammaln(np.where(valid, k2, 0) + 1)
        return min(1.0, math.exp(logsumexp(terms[valid]) - n * math.log(3)))
    raise ValueError("vectorized scan covers s in {2, 3}; use count_equi otherwise")


def log_hoeffding_mass_bound(n: int, s: int, delta: float) -> float:
    """log of an explicit lower bound for the delta-window fraction:
    each preimage count is a sum of n Bernoulli(1/s), so a two-sided Hoeffding
    bound per target plus a union bound gives 1 - 2 s exp(-2 delta^2 n / s^2).
    Returns -inf when the bound is vacuous."""
    miss = 2 * s * math.exp(-2 * delta**2 * n / s**2)
    if miss >= 1:
        return -math.inf
    return math.log1p(-miss)


# ---------------------------------------------------------------------------
# concentration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConcentrationResult:
    lower: float
    upper: float
    mode: str  # subset-exact | harper | candidates | trivial

    @property
    def exact(self) -> bool:
        return self.mode in ("subset-exact", "harper")

    @property
    def value(self) -> float:
        return self.upper if self.exact else self.lower


def _fatten(mask: np.ndarray, n: int, s: int, steps: int) -> np.ndarray:
    """Closed graph fattening on S^n: one step joins all points differing in
    one coordinate.

    Points are indexed by their base-s digits, most significant first.  For
    the coordinate ax the flat mask is viewed as (s**ax, s, rest): the OR of
    the s slices along the middle axis marks every line through ax that
    meets the set, and ORing it back by broadcasting fills those lines.
    """
    f = mask
    for _ in range(steps):
        g = f.copy()
        for ax in range(n):
            v = f.reshape(s**ax, s, -1)
            line = v[:, 0].copy()
            for i in range(1, s):
                line |= v[:, i]
            gv = g.reshape(s**ax, s, -1)
            gv |= line[:, None]
        f = g
    return f


def _candidate_sets(n: int, s: int, k: int) -> list[np.ndarray]:
    """Masks of k-point candidate sets in S^n, points indexed by their base-s
    digits, most significant first.

    Always the initial segment of the simplicial order (Hamming weight from
    the zero string, ties by earlier support; for s = 2 Harper's order) and
    the first k points of the smallest balanced box prod [0, t_i) holding k
    points.  For s > 2 also segments of four more orders: weight or digit
    sum, ties by index, reversed index or largest digit.
    """
    N = s**n
    idx = np.arange(N)
    digits = np.empty((N, n), dtype=np.int64)
    x = idx.copy()
    for j in reversed(range(n)):
        digits[:, j] = x % s
        x //= s
    weight = np.count_nonzero(digits, axis=1)
    tie = np.zeros(N, dtype=np.int64)
    for j in range(n):
        tie = tie * 2 + (digits[:, j] == 0)
    orders = [np.lexsort((tie, weight))]
    if s > 2:
        dsum = digits.sum(axis=1)
        orders += [np.lexsort((idx, weight)), np.lexsort((idx[::-1], weight)),
                   np.lexsort((idx, dsum)), np.lexsort((digits.max(axis=1), dsum))]
    t = [1] * n
    while math.prod(t) < k:
        t[int(np.argmin(t))] += 1
    box = np.flatnonzero(np.all(digits < np.array(t), axis=1))
    masks = []
    for take in [order[:k] for order in orders] + [box[:k]]:
        mask = np.zeros(N, dtype=bool)
        mask[take] = True
        masks.append(mask)
    return masks


def alpha_profile(n: int, s: int, theta: float, steps: int) -> np.ndarray:
    """1 - min cover of the candidate sets of measure >= theta, fattened by
    t = 0..steps, as an array indexed by t.

    A lower bound for alpha(theta, t/n) on (S^n, d_H); for s = 2 it is exact,
    since fattenings of simplicial initial segments are again initial
    segments and those are optimal (Harper).  Every candidate is fattened
    one step at a time, so the whole profile costs one pass, and a candidate
    that covers S^n stops there: every later radius reads N.
    """
    N = s**n
    k = max(1, math.ceil(theta * N - 1e-12))
    covers = np.full(steps + 1, N, dtype=np.int64)
    for cur in _candidate_sets(n, s, k):
        for t in range(steps + 1):
            if t:
                cur = _fatten(cur, n, s, 1)
            c = np.count_nonzero(cur)
            if c == N:
                break
            covers[t] = min(covers[t], c)
    return 1.0 - covers / N


def _comb_at_most(N: int, k: int, budget: int) -> bool:
    """C(N, k) <= budget, without building C(N, k): the binomials C(N, i)
    grow up to i = min(k, N - k), so the walk C(N, i + 1) = C(N, i)(N - i)/(i + 1)
    stops as soon as it passes the budget."""
    c = 1 if k <= N else 0
    for i in range(min(k, N - k)):
        c = c * (N - i) // (i + 1)
        if c > budget:
            return False
    return c <= budget


def concentration_exact(n: int, s: int, theta: float, eps: float) -> ConcentrationResult:
    """alpha(theta, eps) = 1 - inf{mu(A_eps) : mu(A) >= theta} on (S^n, d_H).

    Closed fattenings; eps floors to the attainable grid floor(eps*n)/n.
    Modes: full subset enumeration (exact) when C(N, k) fits the budget;
    alpha_profile for s = 2 (exact, "harper"); otherwise alpha_profile as a
    certified lower bound ("candidates").  Beyond the space cap only the
    trivial bracket [0, 1 - theta] is returned ("trivial").
    """
    N = s**n
    k = max(1, math.ceil(theta * N - 1e-12))
    steps = int(math.floor(eps * n + 1e-12))
    if steps >= n:
        return ConcentrationResult(0.0, 0.0, "subset-exact")
    if N > EXACT_SPACE_CAP:
        return ConcentrationResult(0.0, 1.0 - theta, "trivial")

    if _comb_at_most(N, k, SUBSET_EXACT_BUDGET):
        reach = []
        for i in range(N):
            m = np.zeros(N, dtype=bool)
            m[i] = True
            reach.append(np.flatnonzero(_fatten(m, n, s, steps)))
        masks = [0] * N
        for i in range(N):
            v = 0
            for j in reach[i]:
                v |= 1 << int(j)
            masks[i] = v
        best_cover = N
        for combo in itertools.combinations(range(N), k):
            acc = 0
            for i in combo:
                acc |= masks[i]
            c = acc.bit_count()
            if c < best_cover:
                best_cover = c
        val = 1.0 - best_cover / N
        return ConcentrationResult(val, val, "subset-exact")

    val = float(alpha_profile(n, s, theta, steps)[steps])
    if s == 2:
        return ConcentrationResult(val, val, "harper")
    return ConcentrationResult(val, 1.0 - theta, "candidates")


def hamming_bound_exp(n: int, eps: float) -> float:
    """The product-space concentration bound exp(-eps^2 n / 8)."""
    return math.exp(-(eps**2) * n / 8)


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CertLine:
    description: str
    lhs: float
    relation: str
    rhs: float
    space: str = "linear"  # or "log"

    def holds(self) -> bool:
        ops = {
            "<": lambda a, b: a < b,
            "<=": lambda a, b: a <= b,
            "==": lambda a, b: a == b,
            ">=": lambda a, b: a >= b,
            ">": lambda a, b: a > b,
        }
        return ops[self.relation](self.lhs, self.rhs)

    def to_json(self):
        return {"type": "line", "description": self.description, "lhs": _encode_log(self.lhs),
                "relation": self.relation, "rhs": _encode_log(self.rhs), "space": self.space}


def _encode_log(x: float):
    """JSON has no infinities: log(0) = -inf is written as the string "-inf"."""
    return "-inf" if x == -math.inf else x


def _decode_log(x):
    return -math.inf if x == "-inf" else x


@dataclass(frozen=True)
class Certificate:
    payload: dict
    lines: tuple[CertLine, ...]
    verdict: bool

    def to_jsonl(self) -> str:
        out = [{"type": "header", **self.payload}, *(l.to_json() for l in self.lines),
               {"type": "verdict", "ok": self.verdict}]
        return "".join(json.dumps(o, sort_keys=True, allow_nan=False) + "\n" for o in out)

    @classmethod
    def from_jsonl(cls, text: str) -> "Certificate":
        header, lines, verdict = None, [], None
        for raw in text.strip().splitlines():
            obj = json.loads(raw)
            t = obj.pop("type")
            if t == "header":
                header = obj
            elif t == "line":
                lines.append(CertLine(obj["description"], _decode_log(obj["lhs"]), obj["relation"],
                                      _decode_log(obj["rhs"]), obj.get("space", "linear")))
            elif t == "verdict":
                verdict = obj["ok"]
        return cls(header, tuple(lines), verdict)


class CertificateSearchError(ValueError):
    def __init__(self, message, failing_line: CertLine | None = None):
        super().__init__(message)
        self.failing_line = failing_line


def _log_window_fraction_dp(n: int, s: int, delta) -> float | None:
    """Log of the window fraction by composition enumeration in log space;
    None when the window is too wide to enumerate cheaply."""
    lo, hi = _window(n, s, delta)
    if lo > hi or (hi - lo + 1) ** s > 10_000:
        return None
    from scipy.special import logsumexp

    terms = []

    def rec(color, remaining, acc):
        if color == s - 1:
            if lo <= remaining <= hi:
                terms.append(acc - math.lgamma(remaining + 1))
            return
        for k in range(max(lo, remaining - hi * (s - color - 1)),
                       min(hi, remaining) + 1):
            rec(color + 1, remaining - k, acc - math.lgamma(k + 1))

    rec(0, n, math.lgamma(n + 1))
    if not terms:
        return None
    return float(logsumexp(terms)) - n * math.log(s)


def _mass_lines(n: int, m: int, delta: float) -> tuple[float, list[CertLine]]:
    """Log lower bound on the window fraction, with its provenance line."""
    if n <= EXACT_DP_CAP:
        _, frac = count_equi(n, m, delta)
        if frac <= 0:
            return -math.inf, [CertLine("window fraction (exact count) positive", -math.inf, ">", 0.0, "log")]
        lg = math.log(frac)
        return lg, [CertLine("log window fraction, exact multinomial count", lg, "<=", lg, "log")]
    lg = log_hoeffding_mass_bound(n, m, delta)
    if lg > -math.inf:
        return lg, [CertLine("log window fraction, Hoeffding two-sided union bound", lg, "<=", lg, "log")]
    lg = _log_window_fraction_dp(n, m, delta)
    if lg is not None:
        lg -= 1e-9  # rounding slack on the lgamma-based sum
        return lg, [CertLine("log window fraction, log-space composition sum", lg, "<=", lg, "log")]
    return -math.inf, [CertLine("window fraction lower bound unavailable", -math.inf, ">", 0.0, "log")]


def _certificate_for(d: int, m: int, r: int, eps: float, delta: float, n: int) -> Certificate:
    """Assemble the inequality chain certifying the Ramsey conclusion at n.

    Derived chain with explicit constants: split eps = eps/2 + eps/2; the
    product-space bound exp(-(eps/2)^2 n / 8) must undercut both the smallest
    admissible color-class measure (shift-rule hypothesis) and the
    group-averaging margin mass/m!.
    """
    lines = [
        CertLine("d divides m", float(m % d), "==", 0.0),
        CertLine("m divides n", float(n % m), "==", 0.0),
    ]
    if r == 1:
        lines.append(CertLine("single color: any exact refinement is monochromatic", 0.0, "<=", 0.0))
        return Certificate(
            {"d": d, "m": m, "r": r, "eps": eps, "delta": delta, "n": n, "kind": "equi-ramsey"},
            tuple(lines), all(l.holds() for l in lines))
    log_mass, mass_lines = _mass_lines(n, m, delta)
    lines += mass_lines
    log_conc = -(eps / 2) ** 2 * n / 8
    lines.append(CertLine(
        "shift-rule hypothesis: log alpha(eps/2) < log(mass/r)",
        log_conc, "<", log_mass - math.log(r), "log"))
    lines.append(CertLine(
        "group averaging: log alpha(eps/2) < log(mass/m!)",
        log_conc, "<", log_mass - math.lgamma(m + 1), "log"))
    ok = all(l.holds() for l in lines)
    return Certificate(
        {"d": d, "m": m, "r": r, "eps": eps, "delta": delta, "n": n, "kind": "equi-ramsey"},
        tuple(lines), ok)


def sufficient_n_certificate(d: int, m: int, r: int, eps: float, delta: float) -> tuple[int, Certificate]:
    """Smallest n in the doubling-then-bisecting schedule of multiples of m,
    up to CERTIFICATE_N_BUDGET, whose assembled inequality chain certifies
    the Ramsey conclusion.
    """
    if m % d != 0:
        raise ValueError("need d | m")
    if r < 1 or eps <= 0:
        raise ValueError("need r >= 1 and eps > 0")
    if r == 1:
        return m, _certificate_for(d, m, r, eps, delta, m)
    hi, n_budget = m, CERTIFICATE_N_BUDGET
    while hi <= n_budget:
        cert = _certificate_for(d, m, r, eps, delta, hi)
        if cert.verdict:
            break
        hi *= 2
    else:
        cert = _certificate_for(d, m, r, eps, delta, n_budget - n_budget % m)
        bad = next((l for l in cert.lines if not l.holds()), None)
        raise CertificateSearchError("no certified n within budget", bad)
    lo = max(hi // 2, m)  # lo failed (or equals hi = m), hi certified with cert
    while hi - lo > m:
        mid = (lo + hi) // (2 * m) * m
        mid_cert = _certificate_for(d, m, r, eps, delta, mid)
        if mid_cert.verdict:
            hi, cert = mid, mid_cert
        else:
            lo = mid
    return hi, cert


def replay(cert: Certificate) -> bool:
    """Re-derive the whole chain from the header and re-evaluate every line;
    each re-derived value must match to REPLAY_RTOL relative (absolute below 1)."""
    p = cert.payload
    if p.get("kind") != "equi-ramsey":
        raise ValueError("unknown certificate kind")
    fresh = _certificate_for(p["d"], p["m"], p["r"], p["eps"], p["delta"], p["n"])
    if len(fresh.lines) != len(cert.lines):
        return False
    for a, b in zip(fresh.lines, cert.lines):
        if a.description != b.description or a.relation != b.relation:
            return False
        for x, y in ((a.lhs, b.lhs), (a.rhs, b.rhs)):
            if x == -math.inf and y == -math.inf:
                continue
            if abs(x - y) > REPLAY_RTOL * max(1.0, abs(x), abs(y)):
                return False
        if not b.holds():
            return False
    return fresh.verdict == cert.verdict
