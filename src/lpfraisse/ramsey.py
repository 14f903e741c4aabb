"""Spread vectors and their DP approximation, tiny-scale exhaustive Ramsey
checks with randomized falsification, rigid surjections, and the l_inf/l_1
quotient duality.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from lpfraisse.core import PIndex, rng_from_seed
from lpfraisse.equi import Certificate, canonical_exact, _window
from lpfraisse.spaces import ColumnEntry, LampertiEmbedding

EXHAUSTIVE_BUDGET = 2**24
FALSIFY_BATCH = 4096  # colorings evaluated at once by falsify_certificate, at most
SPREAD_B_SAMPLES = 200  # sampled unit combinations per profile of spread_vector_search
SPREAD_DESCENT_ROUNDS = 40  # perturbations tried per seed profile


@dataclass(frozen=True)
class SpreadVector:
    a: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        if abs(np.sum(np.abs(a)) - 1.0) > 1e-12:
            raise ValueError("profile must be normalized in l_1")
        object.__setattr__(self, "a", a)

    @property
    def k(self) -> int:
        return self.a.size


def spread(a: SpreadVector, s, N: int) -> np.ndarray:
    """Place a_j at position s_j; the l_1 norm is preserved."""
    s = list(s)
    if any(s[i] >= s[i + 1] for i in range(len(s) - 1)):
        raise ValueError("index set must be strictly increasing")
    if len(s) != a.k or (s and s[-1] >= N):
        raise ValueError("index set must have k entries below N")
    v = np.zeros(N)
    v[s] = a.a
    return v


def block_positions(k: int, j: int) -> list[int]:
    """Canonical block placements k^2 j + k (l+1), l < k."""
    return [k * k * j + k * (l + 1) for l in range(k)]


def block_ambient(k: int, m: int) -> int:
    return k * k * m + k


def block_vector(a: SpreadVector, j: int, m: int) -> np.ndarray:
    return spread(a, block_positions(a.k, j), block_ambient(a.k, m))


def best_spread_dp(x: np.ndarray, a: SpreadVector, windows=None) -> tuple[list[int], float]:
    """Exact minimizer of ||x - spread(a, s)||_1 over increasing s in the
    allowed windows, by an O(k N) alignment DP."""
    x = np.asarray(x, dtype=float)
    N = x.size
    pos = sorted(set(range(N) if windows is None else (int(w) for w in windows)))
    k = a.k
    if len(pos) < k:
        raise ValueError("not enough allowed positions")
    base = float(np.sum(np.abs(x)))
    INF = float("inf")
    T = len(pos)
    dp = np.full((k + 1, T + 1), INF)
    dp[0, :] = 0.0
    choice = np.zeros((k + 1, T + 1), dtype=bool)
    for j in range(1, k + 1):
        for t in range(j, T + 1):
            skip = dp[j, t - 1]
            xe = x[pos[t - 1]]
            place = dp[j - 1, t - 1] + (abs(xe - a.a[j - 1]) - abs(xe))
            if place < skip:
                dp[j, t] = place
                choice[j, t] = True
            else:
                dp[j, t] = skip
    s = []
    j, t = k, T
    while j > 0:
        if choice[j, t]:
            s.append(pos[t - 1])
            j -= 1
        t -= 1
    s.reverse()
    return s, base + float(dp[k, T])


def brute_force_spread(x: np.ndarray, a: SpreadVector, windows=None) -> float:
    """Oracle: enumerate every increasing placement."""
    x = np.asarray(x, dtype=float)
    pos = sorted(set(range(x.size) if windows is None else (int(w) for w in windows)))
    best = float("inf")
    for s in itertools.combinations(pos, a.k):
        v = x.copy()
        v[list(s)] -= a.a
        best = min(best, float(np.sum(np.abs(v))))
    return best


@dataclass(frozen=True)
class SpreadSearchReport:
    a: SpreadVector
    worst_error: float
    witness_b: np.ndarray
    eps: float
    sampled_b: int
    verified_on_sample: bool


def spread_vector_search(m: int, eps: float, k_budget: int = 6, seed: int = 0) -> SpreadSearchReport:
    """Heuristic profile search maximizing the worst-case DP margin over a
    seeded sample of unit combinations of the block vectors.  Evidence is
    sampled only; no universal claim is made."""
    rng = rng_from_seed(seed)

    def worst_error(a: SpreadVector) -> tuple[float, np.ndarray]:
        k = a.k
        N = block_ambient(k, m)
        blocks = np.stack([block_vector(a, j, m) for j in range(m)])
        worst, wit = -1.0, None
        bs = []
        for _ in range(SPREAD_B_SAMPLES):
            b = rng.dirichlet(np.ones(m)) * rng.choice([-1.0, 1.0], size=m)
            bs.append(b)
        bs += [np.eye(m)[j] for j in range(m)]
        for b in bs:
            x = b @ blocks
            wins = sorted({w for j in range(m) if b[j] != 0
                           for w in range(k * k * j + k // 2, min(k * k * (j + 1) + k // 2, N))})
            if len(wins) < k:
                wins = list(range(N))
            _, err = best_spread_dp(x, a, wins)
            if err > worst:
                worst, wit = err, b
        return worst, wit

    best = None
    for k in range(2, k_budget + 1):
        # sign flips of a combination are absorbed by shifting an
        # alternating profile one slot, so alternating seeds dominate
        alt = (-1.0) ** np.arange(k)
        seeds = [alt / k, alt * (np.abs(rng.standard_normal(k)) + 0.1)]
        for rho in (0.6, 0.8, 0.9):
            seeds.append(alt * rho ** np.arange(k))
        for raw in seeds:
            a = SpreadVector(raw / np.sum(np.abs(raw)))
            err, wit = worst_error(a)
            cur = (err, a, wit)
            for _ in range(SPREAD_DESCENT_ROUNDS):
                i = int(rng.integers(k))
                pert = cur[1].a.copy()
                pert[i] = pert[i] * float(np.exp(0.3 * rng.standard_normal()))
                if pert[i] == 0:
                    pert[i] = 1e-6
                cand = SpreadVector(pert / np.sum(np.abs(pert)))
                e2, w2 = worst_error(cand)
                if e2 < cur[0]:
                    cur = (e2, cand, w2)
            if best is None or cur[0] < best[0]:
                best = cur
        if best[0] < eps:
            break
    err, a, wit = best
    return SpreadSearchReport(a, err, wit, eps, SPREAD_B_SAMPLES, err < eps)


# ---------------------------------------------------------------------------
# equisurjection universes and the exhaustive Ramsey check
# ---------------------------------------------------------------------------


def enumerate_equi(n: int, s: int, delta: float) -> list[tuple[int, ...]]:
    """All surjections n -> s with every preimage count in the delta window."""
    lo, hi = _window(n, s, delta)
    out = []

    def rec(prefix, counts):
        if len(prefix) == n:
            if all(lo <= c <= hi for c in counts):
                out.append(tuple(prefix))
            return
        remaining = n - len(prefix)
        # prune: each count must be able to reach lo and not exceed hi
        need = sum(max(0, lo - c) for c in counts)
        if need > remaining:
            return
        for v in range(s):
            if counts[v] + 1 > hi:
                continue
            counts[v] += 1
            prefix.append(v)
            rec(prefix, counts)
            prefix.pop()
            counts[v] -= 1

    rec([], [0] * s)
    return out


@dataclass(frozen=True)
class RamseyCheckResult:
    decided: bool          # True when the full coloring space was swept
    holds: bool            # verdict (exhaustive) or "no counterexample found"
    colorings: int
    counterexample: tuple | None = None


def exhaustive_ramsey_check(n: int, d: int, m: int, r: int, eps: float, delta: float,
                            seed: int = 0, falsification_colorings: int = 10**6) -> RamseyCheckResult:
    """Decide (or randomly probe) the tiny-scale Ramsey statement: every
    r-coloring of the delta-window maps n -> d admits R in Equi(n, m) whose
    Equi_delta(m, d)-orbit lies in one (delta+eps)-fattened color class."""
    if n % m != 0 or m % d != 0:
        raise ValueError("need d | m | n")
    universe = enumerate_equi(n, d, delta)
    U = len(universe)
    index = {u: i for i, u in enumerate(universe)}
    sigmas = enumerate_equi(m, d, delta)
    rs = [canonical_exact(n, m).values]
    rs += [tuple(v) for v in enumerate_equi(n, m, 0.0)]
    rs = list(dict.fromkeys(rs))
    radius = delta + eps

    orbit_masks = []
    for R in rs:
        mask = 0
        ok = True
        for sig in sigmas:
            comp = tuple(sig[v] for v in R)
            if comp not in index:
                ok = False
                break
            mask |= 1 << index[comp]
        if ok:
            orbit_masks.append(mask)
    if not orbit_masks:
        raise ValueError("no admissible refinement family")
    # refinements with one orbit test it once
    orbit_masks = list(dict.fromkeys(orbit_masks))

    # closed Hamming fattening of singletons, as bitmasks over the universe
    arr = np.array(universe, dtype=np.int8)
    ball = []
    limit = radius * n + 1e-9
    for i in range(U):
        near = np.flatnonzero(np.sum(arr != arr[i][None, :], axis=1) <= limit)
        v = 0
        for j in near:
            v |= 1 << int(j)
        ball.append(v)

    total = r**U
    if total <= EXHAUSTIVE_BUDGET and r == 2 and U <= 63:
        return _sweep_two_colors(U, ball, orbit_masks, total)
    if total <= EXHAUSTIVE_BUDGET:
        return _sweep_general(U, r, ball, orbit_masks, total)
    return _falsify_random(U, r, ball, orbit_masks, falsification_colorings, seed)


def _classes_fattened(coloring, r, ball, U):
    fat = [0] * r
    for u in range(U):
        fat[coloring[u]] |= ball[u]
    return fat


def _sweep_general(U, r, ball, orbit_masks, total) -> RamseyCheckResult:
    for bits in itertools.product(range(r), repeat=U):
        fat = _classes_fattened(bits, r, ball, U)
        if not any((om & ~f) == 0 for om in orbit_masks for f in fat):
            return RamseyCheckResult(True, False, total, tuple(bits))
    return RamseyCheckResult(True, True, total)


def _sweep_two_colors(U, ball, orbit_masks, total) -> RamseyCheckResult:
    """Sweep all 2**U two-colorings c, bit u of c the color of point u.

    With lo = U // 2, write c = h * 2**lo + a.  The fattening of color 1 is
    one_hi[h] | one_lo[a], where each table holds the OR of ball[u] over the
    set bits of its index, built by doubling: t = concat(t, t | ball[u]).
    Color 0 takes the same tables at the complemented index, that is
    reversed.  The tables are stored complemented, so a chunk of rows of h
    gives the missed points of each class by one broadcast AND.
    """
    lo = U // 2

    def missed(coords):
        t = np.zeros(1, dtype=np.uint64)
        for u in coords:
            t = np.concatenate([t, t | np.uint64(ball[u])])
        return ~t

    miss1_lo, miss1_hi = missed(range(lo)), missed(range(lo, U))
    miss0_lo, miss0_hi = miss1_lo[::-1], miss1_hi[::-1]
    # chunks of 2**18 colorings, one set of buffers updated in place: fresh
    # multi-megabyte temporaries per chunk cost more than the bit operations
    rows = min(max(1, (1 << 18) >> lo), miss1_hi.size)
    f1, f0, tmp = (np.empty((rows, miss1_lo.size), dtype=np.uint64) for _ in range(3))
    ok, hit = (np.empty(f1.shape, dtype=bool) for _ in range(2))
    for h in range(0, miss1_hi.size, rows):
        np.bitwise_and(miss1_hi[h:h + rows, None], miss1_lo, out=f1)
        np.bitwise_and(miss0_hi[h:h + rows, None], miss0_lo, out=f0)
        # orbit masks only hold bits below U, so a class covers the orbit
        # exactly when the complement of its fattening misses the mask
        ok.fill(False)
        for om in orbit_masks:
            omv = np.uint64(om)
            for f in (f1, f0):
                np.bitwise_and(f, omv, out=tmp)
                np.equal(tmp, 0, out=hit)
                ok |= hit
        if not np.all(ok):
            bad = (h << lo) + int(np.flatnonzero(~ok)[0])
            coloring = tuple((bad >> u) & 1 for u in range(U))
            return RamseyCheckResult(True, False, total, coloring)
    return RamseyCheckResult(True, True, total)


def _falsify_random(U, r, ball, orbit_masks, colorings, seed) -> RamseyCheckResult:
    rng = rng_from_seed(seed)
    for _ in range(colorings):
        bits = rng.integers(0, r, size=U)
        fat = _classes_fattened(bits, r, ball, U)
        if not any((om & ~f) == 0 for om in orbit_masks for f in fat):
            return RamseyCheckResult(False, False, colorings, tuple(int(b) for b in bits))
    return RamseyCheckResult(False, True, colorings)


# ---------------------------------------------------------------------------
# certificate falsification at large n (lazy hashed colorings)
# ---------------------------------------------------------------------------


def _stable_hash(data: bytes) -> int:
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "little")


_P1 = np.uint64(0x9E3779B97F4A7C15)
_P2 = np.uint64(0xBF58476D1CE4E5B9)
_ONE = np.uint64(1)
PREFIX = 8  # pool entries colored for every (coloring, member) pair


def _reached(h: np.ndarray, t: np.ndarray, r: int) -> np.ndarray:
    """The colors that the colorings t give the pool hashes h, over axis 0,
    as bitmasks: shape h.shape[1:] + (ceil(r / 64),), bit c % 64 of word
    c // 64 set when some entry gets color c."""
    x = h ^ t
    x *= _P2
    x ^= x >> np.uint64(29)
    x >>= np.uint64(32)
    if r & (r - 1):
        x %= np.uint64(r)
    else:  # the same remainder, without a 64-bit division
        x &= np.uint64(r - 1)
    if r <= 64:
        return np.bitwise_or.reduce(_ONE << x, axis=0)[..., None]
    word, bit = x >> np.uint64(6), _ONE << (x & np.uint64(63))
    zero = np.uint64(0)
    return np.stack([np.bitwise_or.reduce(np.where(word == w, bit, zero), axis=0)
                     for w in range(-(-r // 64))], axis=-1)


def falsify_certificate(cert: Certificate, colorings: int = 10**6, seed: int = 0,
                        pool_per_member: int = 256) -> RamseyCheckResult:
    """Randomized cross-check of a sufficient-n certificate.

    Colorings are lazy hash functions on the delta-window universe at the
    certified n.  For the canonical refinement R the orbit members are
    computed explicitly; for each member a pool of window-preserving
    witnesses within Hamming distance delta+eps is sampled once, and a
    coloring passes when one color covers every member through its pool.
    Reports "no counterexample found" only; never a proof.

    Colorings are evaluated in stages.  Each member's first PREFIX pool
    entries are colored, and the set of colors they reach is kept as a
    bitmask; the rest of the pool is colored only for the (coloring, member)
    pairs whose prefix misses some color.  A coloring passes exactly when the
    AND of its member masks is nonzero.  The result, including the first
    failing ("hash-seed", index), depends only on (cert, colorings, seed,
    pool_per_member); FALSIFY_BATCH caps how many colorings are evaluated at once.
    """
    p = cert.payload
    n, d, m, r = p["n"], p["d"], p["m"], p["r"]
    eps, delta = p["eps"], p["delta"]
    rng = rng_from_seed(seed)
    R = canonical_exact(n, m)
    sigmas = enumerate_equi(m, d, delta)
    members = [bytes(sig[v] for v in R.values) for sig in sigmas]
    swaps = int(max(0, math.floor((delta + eps) * n / 2)))
    # keep the per-batch color and mask tensors near a fixed footprint
    pool_per_member = max(32, min(pool_per_member, 65536 // max(1, len(members))))
    words = -(-r // 64)
    width = max(pool_per_member, words)
    batch = int(np.clip(4_000_000 // max(1, len(members) * width), 64, FALSIFY_BATCH))

    pools = []
    for x in members:
        hs = [_stable_hash(x)]
        for _ in range(pool_per_member - 1):
            # one draw of 2k indices gives the values of k draws of 2: below
            # 2**32, bounded draws take the generator's 32-bit outputs in turn
            ij = rng.integers(0, n, size=2 * int(rng.integers(0, swaps + 1))).tolist()
            y = bytearray(x)
            for i, j in zip(ij[::2], ij[1::2]):
                y[i], y[j] = y[j], y[i]
            hs.append(_stable_hash(y))
        pools.append(hs)
    # pool entries on axis 0, so that each stage ORs whole contiguous slabs
    H = np.ascontiguousarray(np.array(pools, dtype=np.uint64).T)  # (pool, members)
    head, tail = H[:PREFIX, None], H[PREFIX:]
    full = np.full(words, np.uint64(2**64 - 1))
    full[-1] = np.uint64((1 << (r - 64 * (words - 1))) - 1)

    checked = 0
    base_seed = np.uint64(seed * 1_000_003 + 12345)
    while checked < colorings:
        cnt = min(batch, colorings - checked)
        ts = (np.arange(checked, checked + cnt, dtype=np.uint64) + base_seed) * _P1
        masks = _reached(head, ts[:, None], r)  # (cnt, members, words)
        # the escalated pairs never outnumber cnt * members, so this tensor
        # stays below the (cnt, members, pool) one of a full evaluation
        c, k = np.nonzero(np.any(masks != full, axis=2))
        masks[c, k] |= _reached(tail[:, k], ts[c], r)
        ok = np.any(np.bitwise_and.reduce(masks, axis=1) != 0, axis=1)
        if not np.all(ok):
            bad = int(np.flatnonzero(~ok)[0]) + checked
            return RamseyCheckResult(False, False, colorings, ("hash-seed", bad))
        checked += cnt
    return RamseyCheckResult(False, True, colorings)


# ---------------------------------------------------------------------------
# rigid surjections, duality
# ---------------------------------------------------------------------------


def is_rigid(values) -> bool:
    """Is values a rigid surjection onto range(k), k its number of distinct
    values: do the first occurrences of 0, 1, ..., k - 1 come in that order?"""
    firsts = {}
    for i, v in enumerate(values):
        firsts.setdefault(v, i)
    keys = sorted(firsts)
    return keys == list(range(len(keys))) and all(
        firsts[a] < firsts[b] for a, b in zip(keys, keys[1:])
    )


def quo_check(M: np.ndarray, mode: str = "disjoint") -> tuple[bool, list[int]]:
    """Verify the dual membership chain of a quotient matrix, exactly.

    disjoint: columns in [-1,1] x unit vectors, each u_k attained with sign;
    lattice: columns in [0,1] x unit vectors, each u_k attained positively.
    Returns (ok, offending column indices).
    """
    M = np.asarray(M, dtype=float)
    d, n = M.shape
    offending = []
    attained = [False] * d
    for j in range(n):
        col = M[:, j]
        nz = np.flatnonzero(col)
        if len(nz) > 1:
            offending.append(j)
            continue
        if len(nz) == 0:
            continue
        k, v = int(nz[0]), float(col[nz[0]])
        if mode == "lattice":
            if not (0 <= v <= 1):
                offending.append(j)
                continue
            if v == 1.0:
                attained[k] = True
        else:
            if not (-1 <= v <= 1):
                offending.append(j)
                continue
            if abs(v) == 1.0:
                attained[k] = True
    ok = not offending and all(attained)
    if not all(attained) and not offending:
        offending = [-1 - k for k in range(d) if not attained[k]]  # missing units
    return ok, offending


def gamma_f_theta(f, theta, m: int) -> LampertiEmbedding:
    """Coding embedding u_k -> theta_k u_{f(k)} in the sup-norm spaces."""
    f = list(f)
    d = len(f)
    if len(set(f)) != d or any(not (0 <= v < m) for v in f):
        raise ValueError("f must be an injection into range(m)")
    cols = tuple((ColumnEntry(f[k], int(theta[k]), Fraction(1)),) for k in range(d))
    return LampertiEmbedding(d, m, PIndex.of(None), cols)


def dualize(gamma: LampertiEmbedding) -> tuple[np.ndarray, LampertiEmbedding]:
    """Transpose of a disjoint-preserving sup-norm embedding, plus a section.

    Returns (sigma, gamma_{f,theta}) with sigma . gamma_{f,theta} = Id exact;
    sigma is the (d, n) quotient matrix l_1^n -> l_1^d, every column a scalar
    multiple of a unit vector.
    """
    if not gamma.p.is_inf:
        raise ValueError("dualize expects a sup-norm embedding")
    sigma = gamma.to_linear_map().matrix.T  # (d, n)
    ok, off = quo_check(sigma, "disjoint")
    if not ok:
        raise ValueError(f"dual chain fails at columns {off}")
    d, n = sigma.shape
    f, theta = [], []
    for k in range(d):
        col = None
        for j in range(n):
            v = sigma[k, j]
            if abs(v) == 1.0 and np.count_nonzero(sigma[:, j]) == 1:
                col, sign = j, int(np.sign(v))
                break
        if col is None:
            raise ValueError(f"no unit column for coordinate {k}")
        f.append(col)
        theta.append(sign)
    section = gamma_f_theta(f, theta, n)
    comp = sigma @ section.to_linear_map().matrix
    assert np.array_equal(comp, np.eye(d)), "section identity must hold exactly"
    return sigma, section


# ---------------------------------------------------------------------------
# tiny dual-Ramsey demonstration (alphabet coding)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DualRamseyDemo:
    d: int
    m: int
    e: int
    n: int
    eps: float
    h_rigid: bool
    approx_error: float
    ok: bool


def dual_ramsey_demo(d: int, m: int, e: int, seed: int = 0) -> DualRamseyDemo:
    """Replay the alphabet coding behind the sup-norm quotient Ramsey step.

    Builds the graded alphabet of scaled signed units and its product with
    the embedding codes, samples a rigid surjection g and a quotient tau,
    constructs the rigid h with ||tau . sigma - Phi(h . g)|| <= 1/e, and
    verifies both rigidity and the bound.  Guarded to d, m, e <= 2; larger
    parameters are rejected with a size estimate.
    """
    if d > 2 or m > 2 or e > 2:
        delta_size = 2 * e * d + 1
        lam = delta_size * math.perm(m, d) * 2**d
        raise ValueError(f"demonstration limited to d, m, e <= 2 (alphabet would have {lam} letters)")
    if d > m:
        raise ValueError("need d <= m")
    eps = 1.0 / e
    rng = rng_from_seed(seed)

    # Delta: 0 plus s(l/e)u_k ordered by level l; Lambda = Delta x E
    delta_letters = [(0, 1, 0)]  # (l, s, k); level 0 collapses to the single 0
    for l in range(1, e + 1):
        for s in (1, -1):
            for k in range(d):
                delta_letters.append((l, s, k))
    codes = [(f, theta) for f in itertools.permutations(range(m), d)
             for theta in itertools.product((1, -1), repeat=d)]
    lam_letters = [(dl, c) for dl in delta_letters for c in codes]

    # tau: a random quotient l_1^m -> l_1^d with a designated section
    f_tau = sorted(rng.choice(m, size=d, replace=False).tolist())
    th_tau = [int(v) for v in rng.choice([-1, 1], size=d)]
    T = np.zeros((d, m))
    for k in range(d):
        T[k, f_tau[k]] = th_tau[k]
    for j in range(m):
        if j not in f_tau and rng.random() < 0.7:
            T[int(rng.integers(d)), j] = float(rng.uniform(-1, 1))

    # g: a rigid surjection n -> Lambda (canonical order + padding)
    L = len(lam_letters)
    n = L + int(rng.integers(0, 4))
    g_vals = list(range(L)) + [int(v) for v in rng.integers(0, L, size=n - L)]

    def phi_letter(dl):
        l, s, k = dl
        v = np.zeros(d)
        v[k] = s * l / e
        return v

    def gamma_code(c):
        f, theta = c
        G = np.zeros((m, d))
        for k in range(d):
            G[f[k], k] = theta[k]
        return G

    # sigma: n -> m from g; Phi(h.g): n -> d from h
    sigma_cols = []
    for j in range(n):
        dl, c = lam_letters[g_vals[j]]
        sigma_cols.append(gamma_code(c) @ phi_letter(dl))
    S = np.array(sigma_cols).T  # (m, n)

    h = {}
    for li, (dl, c) in enumerate(lam_letters):
        l, s, k = dl
        f, theta = c
        img = T @ (gamma_code(c) @ phi_letter(dl))
        if not np.any(img):
            h[li] = (0, 1, 0)
            continue
        if (list(f), list(theta)) == (list(f_tau), list(th_tau)):
            h[li] = dl
            continue
        i = int(np.flatnonzero(img)[0])
        b = float(img[i])
        lp = math.ceil(e * abs(b)) - 1
        c_sign = 1 if b >= 0 else -1
        h[li] = (lp, c_sign, i) if lp > 0 else (0, 1, 0)

    # rigidity of h with respect to the level-graded orders, onto all of Delta
    delta_order = {dl: i for i, dl in enumerate(delta_letters)}
    h_vals = [delta_order[h[li]] for li in range(L)]
    h_rigid = is_rigid(h_vals) and len(set(h_vals)) == len(delta_letters)

    HG = np.array([phi_letter(h[g_vals[j]]) for j in range(n)]).T  # (d, n)
    err = float(np.max(np.sum(np.abs(T @ S - HG), axis=0)))  # l_1 -> l_1 operator norm
    return DualRamseyDemo(d, m, e, n, eps, h_rigid, err, h_rigid and err <= eps + 1e-12)
