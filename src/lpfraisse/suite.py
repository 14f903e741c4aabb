"""The acceptance battery: one named check per contract, shared by the CLI
`suite` subcommand and the test suite.  Every check is deterministic given
its seed and returns a structured pass/fail record.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from lpfraisse import equi, geometry, lattice, mazur, measures, partitions, ramsey, spaces
from lpfraisse.core import PIndex, norm_p, rng_from_seed


@dataclass
class CheckResult:
    name: str
    passed: bool
    runtime: float
    certified: bool
    details: dict = field(default_factory=dict)

    def row(self):
        return {
            "name": self.name,
            "passed": self.passed,
            "certified": self.certified,
            **{k: v for k, v in self.details.items() if isinstance(v, (int, float, str, bool))},
        }


def _timed(fn):
    def wrapper(seed: int = 0, fast: bool = False) -> CheckResult:
        t0 = time.perf_counter()
        res = fn(seed=seed, fast=fast)
        res.runtime = time.perf_counter() - t0
        return res
    wrapper.__name__ = fn.__name__
    wrapper.__doc__ = fn.__doc__
    return wrapper


# 1 -------------------------------------------------------------------------


@_timed
def check_bump_identities(seed=0, fast=False) -> CheckResult:
    """Bump suite: value 1 left of a, 0 right of a + eps*p, monotone between,
    within [0,1], all to 1e-9, for p in {1,3,5,7} and random (a, eps)."""
    rng = rng_from_seed(seed)
    tol = 1e-9
    trials = 25 if fast else 100
    worst = 0.0
    ok = True
    for p in (1, 3, 5, 7):
        for _ in range(trials):
            a = float(rng.uniform(-5, 5))
            eps = float(rng.uniform(1e-6, 2.0))
            xs = np.sort(rng.uniform(a - 2 - eps * p, a + 2 + 2 * eps * p, size=1000))
            vals = measures.gp_grid(xs, a, eps, p)
            left = xs <= a
            right = xs >= a + eps * p
            mid = ~left & ~right
            dev = 0.0
            if np.any(left):
                dev = max(dev, float(np.max(np.abs(vals[left] - 1))))
            if np.any(right):
                dev = max(dev, float(np.max(np.abs(vals[right]))))
            dev = max(dev, float(np.max(vals - 1)), float(np.max(-vals)))
            if np.count_nonzero(mid) > 1:
                inc = np.diff(vals[mid])
                dev = max(dev, float(np.max(inc)) if inc.size else 0.0)
            worst = max(worst, dev)
            if dev > tol:
                ok = False
    return CheckResult("bump-identities", ok, 0.0, True, {"worst_deviation": worst})


# 2 -------------------------------------------------------------------------


@_timed
def check_cdf_inversion(seed=0, fast=False) -> CheckResult:
    """Inversion sum lands in the distribution-function sandwich and converges
    at continuity points as the width halves."""
    rng = rng_from_seed(seed)
    n_measures = 12 if fast else 50
    ok = True
    worst_violation = -1.0
    worst_final = 0.0
    for _ in range(n_measures):
        k = int(rng.integers(1, 11))
        pts = np.round(rng.uniform(-3, 3, size=k), 3)
        ms = rng.uniform(0.05, 1.0, size=k)
        ms = ms / ms.sum()
        mu = measures.DiscreteMeasure(pts[:, None], ms)
        for p in (1, 3):
            char = measures.characteristic_oracle(mu, p)
            for a in rng.uniform(-3.5, 3.5, size=3):
                eps = 0.25
                for _ in range(7):
                    v, err, a_used = measures.invert_cdf_with_error(char, float(a), eps, p)
                    lo = mu.cdf(a_used) - err - 1e-12
                    hi = mu.cdf(a_used + eps * p) + err + 1e-12
                    if not (lo <= v <= hi):
                        ok = False
                        worst_violation = max(worst_violation, lo - v, v - hi)
                    eps /= 2
            # continuity point: midpoints well away from atoms
            sorted_pts = np.sort(pts)
            cont = float(sorted_pts[0] - 0.5) if k == 1 else float((sorted_pts[0] + sorted_pts[1]) / 2)
            if k > 1 and sorted_pts[1] - sorted_pts[0] < 0.1:
                cont = float(sorted_pts[-1] + 0.5)
            eps = 0.25
            last = None
            for _ in range(7):
                v, err, a_used = measures.invert_cdf_with_error(char, cont, eps, p)
                last = abs(v - mu.cdf(a_used))
                eps /= 2
            gap_to_atom = float(np.min(np.abs(pts - cont)))
            if gap_to_atom > 0.25 / 2**6 * p * 1.5:
                worst_final = max(worst_final, last)
                if last > 1e-6:
                    ok = False
    return CheckResult("cdf-inversion", ok, 0.0, True,
                       {"worst_final_error": worst_final, "worst_violation": worst_violation})


# 3 -------------------------------------------------------------------------


@_timed
def check_even_odd_uniqueness(seed=0, fast=False) -> CheckResult:
    """Even p: constructed distinct pairs share characteristics to 1e-10, and
    the seeded moment-matched attack finds such pairs too, which shows that it
    would catch an odd-p counterexample of its kind; odd p: the same attack
    never pushes the characteristic gap below 1e-6.
    The pairs' Levy-Prokhorov distances are reported, not tested: their
    supports are disjoint integer sets of unit mass, so each is exactly 1."""
    ok = True
    details = {}
    for p in (2, 4):
        rep = measures.even_p_counterexample(p)
        details[f"even{p}_char_gap"] = rep.char_gap
        details[f"even{p}_lp"] = rep.lp_distance
        gap, _ = measures.odd_p_falsification_search(p, 16, seed + p)
        details[f"even{p}_attack_gap"] = gap
        if rep.char_gap > 1e-10 or gap > 1e-10:
            ok = False
    trials = 1000 if fast else 10_000
    for p in (1, 3):
        gap, pair = measures.odd_p_falsification_search(p, trials, seed + p)
        details[f"odd{p}_best_gap"] = gap
        details[f"odd{p}_best_lp"] = measures.levy_prokhorov(*pair).value
        if gap < 1e-6:
            ok = False
    return CheckResult("characteristic-uniqueness", ok, 0.0, True, details)


# 4 -------------------------------------------------------------------------


def _random_surjection(rng, t, s) -> equi.Equisurjection:
    while True:
        vals = rng.integers(0, s, size=t)
        if len(set(vals.tolist())) == s:
            return equi.Equisurjection(tuple(int(v) for v in vals), s)


@_timed
def check_matching_bound(seed=0, fast=False) -> CheckResult:
    """Permutation matching obeys the half-sum bound exactly and attains the
    brute-force optimum on small instances."""
    rng = rng_from_seed(seed)
    trials = 200 if fast else 1000
    ok = True
    for _ in range(trials):
        s = int(rng.integers(2, 7))
        t = int(rng.integers(s, 61))
        phi = _random_surjection(rng, t, s)
        psi = _random_surjection(rng, t, s)
        pi = equi.match_permutation(phi, psi)
        ach = equi.hamming(equi.apply_permutation(psi, pi), phi)
        bound = (equi.delta_of(phi) + equi.delta_of(psi)) / 2
        if ach > bound:
            ok = False
        # closed-form optimum: unmatched mass across classes
        ca, cb = phi.preimage_counts(), psi.preimage_counts()
        opt = Fraction(t - sum(min(a, b) for a, b in zip(ca, cb)), t)
        if ach != opt:
            ok = False
    brute_trials = 5 if fast else 20
    for _ in range(brute_trials):
        s = int(rng.integers(2, 4))
        t = int(rng.integers(s, 9))
        phi = _random_surjection(rng, t, s)
        psi = _random_surjection(rng, t, s)
        pi = equi.match_permutation(phi, psi)
        ach = equi.hamming(equi.apply_permutation(psi, pi), phi)
        if ach != equi.brute_force_optimal_hamming(phi, psi):
            ok = False
    return CheckResult("matching-bound", ok, 0.0, True, {"trials": trials})


# 5 -------------------------------------------------------------------------


@_timed
def check_concentration_bound(seed=0, fast=False) -> CheckResult:
    """alpha(1/2, eps) never exceeds exp(-eps^2 n / 8) on every product space
    up to 2^16 points, and the shift rule replays on exact values."""
    cap = 2**12 if fast else 2**16
    ok = True
    worst_margin = math.inf
    spaces_checked = 0
    for s in range(2, cap + 1):
        # n = 1: fattening below distance one is the set itself
        alpha = 1 - math.ceil(s / 2) / s
        if alpha > math.exp(-1 / 8) + 1e-12:
            ok = False
        n = 2
        while s**n <= cap:
            alphas = equi.alpha_profile(n, s, 0.5, n - 1)
            for t in range(n):
                bound = equi.hamming_bound_exp(n, t / n)
                worst_margin = min(worst_margin, bound - alphas[t])
                if alphas[t] > bound + 1e-12:
                    ok = False
            spaces_checked += 1
            n += 1
    # shift rule on exact tiny spaces: alpha(delta, rho+eps) <= alpha(eps) when alpha(rho) < delta
    for (n, s) in ((2, 2), (3, 2), (4, 2), (2, 3), (2, 4)):
        thetas = [0.25, 0.5, 0.75]
        exact = {}
        for th in thetas:
            for t in range(n):
                r = equi.concentration_exact(n, s, th, t / n)
                if not r.exact:
                    continue
                exact[(th, t)] = r.value
        for th in thetas:
            for tr in range(n):
                if (0.5, tr) not in exact:
                    continue
                if exact[(0.5, tr)] < th:  # alpha(rho) < delta, rho = tr/n
                    for te in range(n - tr):
                        if (th, tr + te) in exact and (0.5, te) in exact:
                            if exact[(th, tr + te)] > exact[(0.5, te)] + 1e-12:
                                ok = False
    return CheckResult("concentration-bound", ok, 0.0, False,
                       {"spaces": spaces_checked, "worst_margin": worst_margin})


# 6 -------------------------------------------------------------------------


@_timed
def check_window_counting(seed=0, fast=False) -> CheckResult:
    """Window fractions meet the printed exponential lower bound past an
    observed threshold, match the exact DP, and match brute enumeration."""
    ok = True
    details = {}
    n_max = 300 if fast else 1000
    for s in (2, 3):
        for delta in (0.1, 0.3):
            fracs = np.array([equi.count_fraction_log(n, s, delta) for n in range(1, n_max + 1)])
            bounds = np.array([equi.equi_fraction_lower_bound_printed(n, s, delta)
                               for n in range(1, n_max + 1)])
            good = fracs >= bounds - 1e-12
            # smallest n after which the bound holds through the horizon
            idx = n_max
            for i in range(n_max - 1, -1, -1):
                if good[i]:
                    idx = i
                else:
                    break
            threshold = idx + 1
            details[f"threshold_s{s}_d{delta}"] = threshold
            if threshold > 120:
                ok = False
            # monotone in delta is checked at the pair level below
    # exact DP agrees with the log scan
    for s in (2, 3):
        for n in (4, 16, 100, n_max):
            c_exact, f_exact = equi.count_equi(n, s, 0.3)
            f_log = equi.count_fraction_log(n, s, 0.3)
            if f_exact > 0 and abs(f_exact - f_log) / f_exact > 1e-9:
                ok = False
    # brute enumeration cross-check on tiny spaces
    for (n, s) in ((4, 2), (6, 2), (5, 3), (8, 2)):
        for delta in (0.0, 0.25, 0.5):
            cnt, _ = equi.count_equi(n, s, delta)
            brute = len(ramsey.enumerate_equi(n, s, delta))
            if cnt != brute:
                ok = False
    # monotone in delta
    for s in (2, 3):
        for n in (10, 100, 500):
            f1 = equi.count_fraction_log(n, s, 0.1)
            f3 = equi.count_fraction_log(n, s, 0.3)
            if f3 < f1 - 1e-12:
                ok = False
    return CheckResult("window-counting", ok, 0.0, True, details)


# 7 -------------------------------------------------------------------------


@_timed
def check_lattice_rounding(seed=0, fast=False) -> CheckResult:
    """Rounded maps are exact lattice embeddings within 3*delta*m, with the
    sup operator norm evaluated exactly."""
    rng = rng_from_seed(seed)
    trials = 200 if fast else 1000
    ok = True
    worst = 0.0
    for _ in range(trials):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(m, 13))
        delta = float(rng.uniform(0.01, 0.1))
        mode = "lattice" if rng.random() < 0.7 else "disjoint"
        xi = lattice.random_exact_embedding(rng, m, n, mode)
        gam = lattice.perturb_embedding(rng, xi, delta, mode)
        try:
            r = lattice.lattice_round(gam, delta, mode)
        except lattice.RoundingError:
            ok = False
            continue
        rep = lattice.predicates(r.xi, 0.0)
        if not (rep.disjoint and rep.isometric and (mode == "disjoint" or rep.positive)):
            ok = False
        if r.distance > r.bound + 1e-12:
            ok = False
        worst = max(worst, r.distance / r.bound if r.bound > 0 else 0.0)
        r2 = lattice.lattice_round(r.xi, delta, mode)
        if not np.array_equal(r2.xi.matrix, r.xi.matrix):
            ok = False
    return CheckResult("lattice-rounding", ok, 0.0, True, {"worst_ratio": worst, "trials": trials})


# 8 -------------------------------------------------------------------------


@_timed
def check_amalgamation(seed=0, fast=False) -> CheckResult:
    """Amalgam composites agree as exact rational identities; both legs are
    isometric."""
    rng = rng_from_seed(seed)
    trials = 200 if fast else 1000
    ok = True
    for i in range(trials):
        p = (1, Fraction(3, 2), 3)[i % 3]
        d = int(rng.integers(1, 4))
        m = int(rng.integers(d, d + 5))
        n = int(rng.integers(d, d + 5))
        g = spaces.random_isometric_lamperti(rng, d, m, p)
        e = spaces.random_isometric_lamperti(rng, d, n, p)
        N, i_map, j_map = spaces.amalgamate(g, e)
        if not (i_map.is_isometric() and j_map.is_isometric()):
            ok = False
        if spaces.compose(i_map, g).signature() != spaces.compose(j_map, e).signature():
            ok = False
        # the product coupling satisfies the same contract
        if i % 37 == 0:
            N2, i2, j2 = spaces.amalgamate(g, e, coupling="product")
            if spaces.compose(i2, g).signature() != spaces.compose(j2, e).signature():
                ok = False
    return CheckResult("amalgamation", ok, 0.0, True, {"trials": trials})


# 9 -------------------------------------------------------------------------


@_timed
def check_hilbert_rounding(seed=0, fast=False) -> CheckResult:
    """Nearest-isometry rounding moves a delta-perturbed isometry by at most
    delta in operator norm."""
    rng = rng_from_seed(seed)
    trials = 2000 if fast else 10_000
    ok = True
    worst = 0.0
    p2 = PIndex.of(2)
    for _ in range(trials):
        d = int(rng.integers(1, 7))
        n = int(rng.integers(d, 7))
        u, _ = np.linalg.qr(rng.standard_normal((n, d)))
        v, _ = np.linalg.qr(rng.standard_normal((d, d)))
        delta = float(rng.uniform(0, 0.2))
        sing = rng.uniform(1 / (1 + delta), 1 + delta, size=d)
        T = spaces.LinearMap(u * sing @ v.T, p2, p2)
        R = spaces.hilbert_round(T)
        dist = spaces.operator_distance_l2(T, R)
        true_delta = max(np.max(sing) - 1, 1 / np.min(sing) - 1)
        if dist > true_delta + 1e-9:
            ok = False
        worst = max(worst, dist - true_delta)
        if abs(np.linalg.norm(R.matrix.T @ R.matrix - np.eye(d))) > 1e-9:
            ok = False
    return CheckResult("hilbert-rounding", ok, 0.0, True, {"trials": trials, "worst_excess": worst})


# 10 ------------------------------------------------------------------------


@_timed
def check_mazur(seed=0, fast=False) -> CheckResult:
    """Involution exact on stored data, norm identity, and sampled pairs
    within the closed-form continuity modulus: (p/q) t for p >= q,
    2^(1-p/q) t^(p/q) for p < q."""
    rng = rng_from_seed(seed)
    ok = True
    # exact involution and weight preservation on structured embeddings
    for i in range(60):
        p, q = (1, 2, 3, Fraction(3, 2))[i % 4], (2, 1, Fraction(5, 2))[i % 3]
        g = spaces.random_isometric_lamperti(rng, 2, 5, p)
        fwd = mazur.mazur_embedding(g, mazur.MazurParams(p, q))
        back = mazur.mazur_embedding(fwd, mazur.MazurParams(q, p))
        if back.signature() != g.signature() or not fwd.is_isometric():
            ok = False
    # norm identity and support/sign preservation on float vectors
    pairs = ((1, 2), (3, 1), (2, 3))
    samples = 2000 if fast else 10_000
    worst = {}
    for (p, q) in pairs:
        params = mazur.MazurParams(p, q)
        xs = rng.standard_normal((samples, 6))
        xs /= norm_p(xs, p, axis=1)[:, None]
        ys = xs + rng.standard_normal((samples, 6)) * rng.uniform(0, 0.5, size=(samples, 1))
        ys /= norm_p(ys, p, axis=1)[:, None]
        mx = np.sign(xs) * np.abs(xs) ** (p / q)
        my = np.sign(ys) * np.abs(ys) ** (p / q)
        norm_def = np.max(np.abs(np.sum(np.abs(mx) ** q, axis=1) - 1.0))
        if norm_def > 1e-12:
            ok = False
        if not np.array_equal(np.sign(mx), np.sign(xs)):
            ok = False
        lhs = norm_p(mx - my, q, axis=1)
        t = norm_p(xs - ys, p, axis=1)
        rhs = mazur.continuity_modulus(params, t)
        excess = float(np.max(lhs - rhs))
        worst[f"modulus_excess_{p}{q}"] = excess
        if excess > 1e-6:
            ok = False
    return CheckResult("mazur-transport", ok, 0.0, True, worst)


# 11 ------------------------------------------------------------------------


def _random_split_masses(rng, mass: Fraction, parts: int) -> list[Fraction]:
    if parts == 1:
        return [mass]
    denom = int(rng.integers(parts, 4 * parts))
    cuts = sorted(rng.choice(np.arange(1, denom), size=parts - 1, replace=False).tolist())
    bounds = [0] + cuts + [denom]
    return [mass * Fraction(bounds[i + 1] - bounds[i], denom) for i in range(parts)]


@_timed
def check_envelope_pipeline(seed=0, fast=False) -> CheckResult:
    """Envelope + transfer on refined spaces: the cell map is exactly
    isometric and the end-to-end defect stays below eps."""
    rng = rng_from_seed(seed)
    runs = 25 if fast else 100
    ok = True
    worst = 0.0
    for run in range(runs):
        p = (1, 3)[run % 2]
        n_atoms = int(rng.integers(12, 49))
        masses = [Fraction(int(rng.integers(1, 20)), 1) for _ in range(n_atoms)]
        total = sum(masses)
        space0 = measures.DiscreteSpace(tuple((i, m / total) for i, m in enumerate(masses)))
        k = int(rng.integers(1, 4))
        B = np.column_stack([np.ones(n_atoms)] + [rng.normal(size=n_atoms) for _ in range(k - 1)])
        eps = float(rng.uniform(0.2, 0.5))
        env = partitions.envelope(B, space0, eps, p, seed=seed + run)
        # mass-splitting refinement: each atom spawns 1..3 children
        child_parent = []
        child_mass = []
        for i in range(n_atoms):
            parts = int(rng.integers(1, 4))
            for mm in _random_split_masses(rng, space0.atoms[i][1], parts):
                child_parent.append(i)
                child_mass.append(mm)
        space1 = measures.DiscreteSpace(tuple((j, mm) for j, mm in enumerate(child_mass)))
        G = env.basis[child_parent, :]
        # value perturbation bounded by the distance to the nearest breakpoint
        margin = np.inf
        for ax in range(env.partition.dim):
            bp = np.array(env.partition.breakpoints[ax] + (env.partition.K, -env.partition.K))
            for v in env.basis[:, ax]:
                margin = min(margin, float(np.min(np.abs(bp - v))))
        wiggle = min(margin / 2, 1e-3)
        G = G + rng.uniform(-wiggle, wiggle, size=G.shape)
        try:
            tr = partitions.transfer_isometry(env, G, space1, seed=seed + run)
        except partitions.CellMismatchError:
            ok = False
            continue
        if not tr.isometric_exact:
            ok = False
        if tr.defect > eps:
            ok = False
        worst = max(worst, tr.defect / eps)
    return CheckResult("envelope-pipeline", ok, 0.0, True, {"runs": runs, "worst_defect_ratio": worst})


# 12 ------------------------------------------------------------------------


@_timed
def check_certificates(seed=0, fast=False) -> CheckResult:
    """Every emitted certificate replays line-by-line; randomized colorings at
    the certified n never produce a counterexample."""
    ok = True
    details = {}
    cases = [(2, 4, 2, 0.4, 0.1), (2, 2, 2, 0.6, 0.2), (3, 6, 2, 0.5, 0.2), (2, 4, 1, 0.3, 0.1)]
    colorings = 10_000 if fast else 1_000_000
    for (d, m, r, eps, delta) in cases:
        n, cert = equi.sufficient_n_certificate(d, m, r, eps, delta)
        details[f"n_{d}_{m}_{r}"] = n
        if not cert.verdict or not equi.replay(cert):
            ok = False
        round_trip = equi.Certificate.from_jsonl(cert.to_jsonl())
        if not equi.replay(round_trip):
            ok = False
        if r > 1:
            res = ramsey.falsify_certificate(cert, colorings=colorings, seed=seed)
            if not res.holds:
                ok = False
                details[f"counterexample_{d}_{m}_{r}"] = str(res.counterexample)
    return CheckResult("certificates", ok, 0.0, True, details)


# 13 ------------------------------------------------------------------------


@_timed
def check_spread_dp(seed=0, fast=False) -> CheckResult:
    """Alignment DP equals brute force within the enumeration cap and
    recovers planted placements exactly."""
    rng = rng_from_seed(seed)
    ok = True
    trials = 10 if fast else 40
    sizes = [(12, 3), (16, 4), (20, 4), (18, 5), (16, 8), (22, 5)]
    for i in range(trials):
        N, k = sizes[i % len(sizes)]
        assert math.comb(N, k) <= 10**5
        x = rng.normal(size=N)
        prof = np.abs(rng.normal(size=k)) + 0.05
        a = ramsey.SpreadVector(prof / prof.sum())
        wins = None
        if i % 3 == 0:
            wins = sorted(rng.choice(N, size=int(rng.integers(k, N + 1)), replace=False).tolist())
        s, e = ramsey.best_spread_dp(x, a, wins)
        bf = ramsey.brute_force_spread(x, a, wins)
        if abs(e - bf) > 1e-12:
            ok = False
    for _ in range(20):
        k = int(rng.integers(2, 6))
        N = int(rng.integers(k + 2, 30))
        prof = np.abs(rng.normal(size=k)) + 0.05
        a = ramsey.SpreadVector(prof / prof.sum())
        s0 = sorted(rng.choice(N, size=k, replace=False).tolist())
        x = ramsey.spread(a, s0, N)
        s, e = ramsey.best_spread_dp(x, a)
        if e > 1e-15 or s != s0:
            ok = False
    return CheckResult("spread-dp", ok, 0.0, True, {"trials": trials})


# 14 ------------------------------------------------------------------------


@_timed
def check_gap_geometry(seed=0, fast=False) -> CheckResult:
    """Image-gap and gap-to-isomorphism inequalities on estimated gaps."""
    rng = rng_from_seed(seed)
    ok = True
    total = 200 if fast else 1000
    claim_instances = int(total * 0.7)
    worst_claim = -math.inf
    ps = [PIndex.of(2), PIndex.of(1), PIndex.of(None)]
    for i in range(claim_instances):
        p = ps[0] if i % 5 < 3 else ps[1 + (i % 2)]
        k = int(rng.integers(1, 4))
        n = int(rng.integers(k, 5))
        delta = float(rng.uniform(0, 0.5))
        mats = []
        for _ in range(2):
            perm = rng.permutation(n)[:k]
            signs = rng.choice([-1.0, 1.0], size=k)
            gains = rng.uniform(1 / (1 + delta), 1 + delta, size=k)
            M = np.zeros((n, k))
            for j in range(k):
                M[perm[j], j] = signs[j] * gains[j]
            mats.append(M)
        g, h = mats
        Xg = geometry.Subspace(n, p, g) if np.linalg.matrix_rank(g) == k else None
        Xh = geometry.Subspace(n, p, h) if np.linalg.matrix_rank(h) == k else None
        if Xg is None or Xh is None:
            continue
        diff = g - h
        if p == PIndex.of(2):
            opnorm = float(np.linalg.norm(diff, 2))
        elif p == PIndex.of(1):
            opnorm = float(np.max(np.sum(np.abs(diff), axis=0)))
        else:
            opnorm = float(np.max(np.sum(np.abs(diff), axis=1)))
        budget = 16 if p == PIndex.of(2) else 10
        est = geometry.gap_estimate(Xg, Xh, budget=budget, seed=seed + i)
        worst_claim = max(worst_claim, est.lower - 2 * (1 + delta) * opnorm)
        if est.lower > 2 * (1 + delta) * opnorm + 1e-9:
            ok = False
    bridge_instances = total - claim_instances
    bridged = 0
    worst_bridge = -math.inf
    for i in range(bridge_instances):
        k = (1, 2, 2, 3)[i % 4]
        # the covering mesh must undercut 1/(2k); dim 3 needs dense sampling,
        # affordable with the closed-form Euclidean distance solve
        p = ps[0] if (k == 3 or i % 10 < 7) else ps[1 + (i % 2)]
        budget = {1: 8, 2: 80, 3: 2200}[k]
        n = int(rng.integers(k + 1, 5))
        A = rng.standard_normal((n, k))
        X = geometry.Subspace(n, p, A)
        B = A + rng.standard_normal((n, k)) * 0.002
        Y = geometry.Subspace(n, p, B)
        try:
            br = geometry.bm_from_gap(X, Y, budget=budget, seed=seed + i)
        except geometry.GapPreconditionError:
            continue
        bridged += 1
        worst_bridge = max(worst_bridge, br.bound - 4 * k * br.gap.upper)
        if br.bound > 4 * k * br.gap.upper + 1e-6:
            ok = False
    if bridged < bridge_instances * 0.5:
        ok = False
    return CheckResult("gap-geometry", ok, 0.0, False,
                       {"claim_instances": claim_instances, "bridged": bridged,
                        "worst_claim_excess": worst_claim, "worst_bridge_excess": worst_bridge})


# keyed by the name each check reports in its row
ALL_CHECKS = {
    "bump-identities": check_bump_identities,
    "cdf-inversion": check_cdf_inversion,
    "characteristic-uniqueness": check_even_odd_uniqueness,
    "matching-bound": check_matching_bound,
    "concentration-bound": check_concentration_bound,
    "window-counting": check_window_counting,
    "lattice-rounding": check_lattice_rounding,
    "amalgamation": check_amalgamation,
    "hilbert-rounding": check_hilbert_rounding,
    "mazur-transport": check_mazur,
    "envelope-pipeline": check_envelope_pipeline,
    "certificates": check_certificates,
    "spread-dp": check_spread_dp,
    "gap-geometry": check_gap_geometry,
}


def run_suite(seed: int = 0, fast: bool = False, names: list[str] | None = None) -> list[CheckResult]:
    unknown = sorted(set(names or ()) - ALL_CHECKS.keys())
    if unknown:
        raise ValueError(f"unknown criteria {unknown}; valid names: {', '.join(ALL_CHECKS)}")
    return [fn(seed=seed, fast=fast) for name, fn in ALL_CHECKS.items() if not names or name in names]
