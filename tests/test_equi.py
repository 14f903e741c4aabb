import functools
import hashlib
import json
import math

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from lpfraisse.core import rng_from_seed
from lpfraisse import equi
from lpfraisse.equi import (
    Certificate, CertificateSearchError, Equisurjection, NotSurjectiveError,
    apply_permutation, brute_force_optimal_hamming, canonical_exact, concentration_exact,
    count_equi, count_fraction_log, delta_of, hamming, hamming_bound_exp, match_permutation,
    replay, round_to_exact, sufficient_n_certificate,
)


def compose(inner: Equisurjection, outer: Equisurjection) -> Equisurjection:
    """outer . inner, for inner: T -> S and outer: S -> R."""
    assert outer.t_size == inner.s_size
    return Equisurjection(tuple(outer.values[v] for v in inner.values), outer.s_size)


class TestDelta:
    def test_balanced(self):
        assert delta_of(Equisurjection((0, 0, 1, 1), 2)) == 0

    def test_unbalanced_example(self):
        # preimage sizes 1 and 3 against the even split of 4 over 2
        assert delta_of(Equisurjection((0, 1, 1, 1), 2)) == Fraction(1, 2)

    def test_composition_window(self):
        rng = rng_from_seed(1)
        for _ in range(100):
            r, s, t = 2, int(rng.integers(2, 5)), int(rng.integers(6, 30))
            Fv = rng.integers(0, s, size=t)
            Gv = rng.integers(0, r, size=s)
            try:
                F = Equisurjection(tuple(int(v) for v in Fv), s)
                G = Equisurjection(tuple(int(v) for v in Gv), r)
            except NotSurjectiveError:
                continue
            comp = compose(F, G)
            d0, d1, dc = delta_of(G), delta_of(F), delta_of(comp)
            assert (1 - dc) <= (1 - d0) * (1 - d1) + 1e-15 or dc <= d0 + d1 + d0 * d1
            assert 1 + dc <= (1 + d0) * (1 + d1) + 1e-15

    def test_non_surjective_rejected(self):
        with pytest.raises(NotSurjectiveError):
            Equisurjection((0, 0, 0), 2)


class TestHamming:
    def test_self_distance(self):
        F = Equisurjection((0, 1, 0, 1), 2)
        assert hamming(F, F) == 0

    def test_one_mismatch(self):
        assert hamming(Equisurjection((0, 0, 1, 1), 2), Equisurjection((0, 1, 1, 1), 2)) == Fraction(1, 4)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(2, 3), st.integers(0, 10**6))
    def test_triangle(self, s, seed):
        rng = rng_from_seed(seed)
        t = int(rng.integers(s, 12))
        maps = []
        while len(maps) < 3:
            v = tuple(int(x) for x in rng.integers(0, s, size=t))
            if len(set(v)) == s:
                maps.append(Equisurjection(v, s))
        a, b, c = maps
        assert hamming(a, c) <= hamming(a, b) + hamming(b, c)


class TestMatching:
    def test_explicit_pair(self):
        phi = Equisurjection((0, 0, 1, 1), 2)
        psi = Equisurjection((0, 1, 1, 1), 2)
        pi = match_permutation(phi, psi)
        ach = hamming(apply_permutation(psi, pi), phi)
        assert ach <= Fraction(1, 4)
        # brute force over all 24 permutations confirms the optimum
        assert brute_force_optimal_hamming(phi, psi) == Fraction(1, 4)
        assert ach == Fraction(1, 4)

    def test_identical_maps(self):
        phi = Equisurjection((0, 1, 2, 0, 1, 2), 3)
        pi = match_permutation(phi, phi)
        assert hamming(apply_permutation(phi, pi), phi) == 0

    def test_random_instances_bound(self):
        rng = rng_from_seed(2)
        for _ in range(200):
            s = int(rng.integers(2, 6))
            t = int(rng.integers(s, 61))
            while True:
                a = tuple(int(x) for x in rng.integers(0, s, size=t))
                if len(set(a)) == s:
                    break
            while True:
                b = tuple(int(x) for x in rng.integers(0, s, size=t))
                if len(set(b)) == s:
                    break
            phi, psi = Equisurjection(a, s), Equisurjection(b, s)
            pi = match_permutation(phi, psi)
            ach = hamming(apply_permutation(psi, pi), phi)
            assert ach <= (delta_of(phi) + delta_of(psi)) / 2

    def test_lipschitz_composition_bounds(self):
        rng = rng_from_seed(3)
        for _ in range(200):
            t, s, r = 12, 4, 2
            def surj(size, target):
                while True:
                    v = tuple(int(x) for x in rng.integers(0, target, size=size))
                    if len(set(v)) == target:
                        return Equisurjection(v, target)
            phi0, phi1 = surj(t, s), surj(t, s)
            psi0, psi1 = surj(s, r), surj(s, r)
            d0 = delta_of(phi0)
            lhs = hamming(compose(phi0, psi0), compose(phi0, psi1))
            assert lhs <= (1 + d0) * hamming(psi0, psi1)
            assert hamming(compose(phi0, psi0), compose(phi1, psi0)) <= hamming(phi0, phi1)


class TestRounding:
    def test_already_exact(self):
        F = Equisurjection((0, 1, 0, 1), 2)
        R = round_to_exact(F)
        assert hamming(F, R) == 0

    def test_explicit_run(self):
        F = Equisurjection((0, 1, 1, 1), 2)
        R = round_to_exact(F)
        assert delta_of(R) == 0
        assert hamming(F, R) <= Fraction(1, 4)

    def test_random_bound(self):
        rng = rng_from_seed(4)
        for _ in range(200):
            s = int(rng.integers(2, 5))
            blocks = int(rng.integers(1, 8))
            t = s * blocks
            while True:
                v = tuple(int(x) for x in rng.integers(0, s, size=t))
                if len(set(v)) == s:
                    break
            F = Equisurjection(v, s)
            R = round_to_exact(F)
            assert delta_of(R) == 0
            assert hamming(F, R) <= delta_of(F) / 2

    def test_divisibility_required(self):
        with pytest.raises(ValueError):
            round_to_exact(Equisurjection((0, 1, 1), 2))


class TestCounting:
    def test_exact_split(self):
        assert count_equi(4, 2, 0.0) == (6, 6 / 16)

    def test_half_window(self):
        cnt, frac = count_equi(4, 2, 0.5)
        assert cnt == 14 and frac == 14 / 16

    def test_brute_force_agreement(self):
        from itertools import product
        for (n, s, delta) in ((5, 2, 0.3), (4, 3, 0.5), (6, 2, 0.2)):
            lo_hi = equi._window(n, s, delta)
            brute = 0
            for v in product(range(s), repeat=n):
                counts = [v.count(j) for j in range(s)]
                if all(lo_hi[0] <= c <= lo_hi[1] for c in counts):
                    brute += 1
            assert count_equi(n, s, delta)[0] == brute

    def test_log_scan_matches_exact(self):
        for s in (2, 3):
            for n in (10, 50, 333):
                _, f = count_equi(n, s, 0.25)
                assert count_fraction_log(n, s, 0.25) == pytest.approx(f, rel=1e-9)

    def test_log_scan_is_a_fraction(self):
        # the window-counting check's sweep, where rounding carried 175 values
        # past 1, such as count_fraction_log(1000, 2, 0.3) = 1.0000000000005684
        for s in (2, 3):
            for delta in (0.1, 0.3):
                for n in range(1, 1001):
                    f = count_fraction_log(n, s, delta)
                    assert f <= 1, (n, s, delta)
                    if s == 2 or n % 10 == 0:
                        assert f == pytest.approx(count_equi(n, s, delta)[1], rel=1e-9), (n, s, delta)

    def test_monotone_in_delta(self):
        for n in (9, 100):
            f1 = count_fraction_log(n, 3, 0.1)
            f2 = count_fraction_log(n, 3, 0.3)
            assert f2 >= f1 - 1e-15

    def test_matches_multinomial_recursion(self):
        # windows wider than delta = 0.6 only up to n = 120, where the
        # reference stays quick
        rng = rng_from_seed(11)
        for _ in range(1000):
            delta = float(rng.choice([0.0, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, round(float(rng.uniform(0, 1.2)), 3)]))
            n, s = int(rng.integers(1, 401 if delta < 0.6 else 121)), int(rng.integers(1, 8))
            assert repr(count_equi(n, s, delta)) == repr(_multinomial_recursion(n, s, delta)), (n, s, delta)

    def test_pinned_large_count(self):
        count, frac = count_equi(1536, 6, 0.2)
        assert count.bit_length() == 3971 and count % (10**9 + 7) == 705573410
        assert frac == 0.9974343923416337

    def test_edge_cases(self):
        # one color: its preimage holds all n points, inside or outside the window
        assert count_equi(7, 1, 0.0) == (1, 1.0)
        assert count_equi(7, 1, 2.0) == (1, 1.0)
        # more colors than points: no surjection, even with a nonempty window
        assert equi._window(3, 5, 1.0) == (1, 1)
        assert count_equi(3, 5, 1.0) == (0, 0.0)
        # empty window: no integer lies within 0.1 * 7/3 of 7/3
        assert equi._window(7, 3, 0.1) == (3, 2)
        assert count_equi(7, 3, 0.1) == (0, 0.0)
        # nonempty windows with n below s * lo and above s * hi
        assert equi._window(5, 3, 0.2) == (2, 2) and count_equi(5, 3, 0.2) == (0, 0.0)
        assert equi._window(7, 3, 0.2) == (2, 2) and count_equi(7, 3, 0.2) == (0, 0.0)
        for case in ((1, 1, 0.0), (1, 2, 1.0), (2, 2, 0.0), (6, 3, 0.0), (9, 3, 0.5)):
            assert repr(count_equi(*case)) == repr(_multinomial_recursion(*case))


def _multinomial_recursion(n, s, delta):
    """Reference: the memoised sum over the count k of one color at a time,
    with a fresh binomial C(remaining, k) per term."""
    lo, hi = equi._window(n, s, delta)
    if lo > hi:
        return 0, 0.0

    @functools.lru_cache(maxsize=None)
    def ways(colors_left, remaining):
        if colors_left == 0:
            return 1 if remaining == 0 else 0
        return sum(math.comb(remaining, k) * ways(colors_left - 1, remaining - k)
                   for k in range(max(lo, remaining - hi * (colors_left - 1)), min(hi, remaining) + 1))

    count = ways(s, n)
    return count, float(Fraction(count, s**n)) if count else 0.0


class TestConcentration:
    def test_tiny_exact_zero(self):
        r = concentration_exact(2, 2, 0.5, 0.5)
        assert r.mode == "subset-exact" and r.value == 0.0

    def test_bound_small_spaces(self):
        for (n, s) in ((2, 2), (3, 2), (4, 2), (2, 3)):
            for t in range(n):
                r = concentration_exact(n, s, 0.5, t / n)
                assert r.lower <= hamming_bound_exp(n, t / n) + 1e-12

    def test_harper_matches_subset_exact(self, monkeypatch):
        # the ordered-segment value agrees with brute enumeration on cubes
        for n in (2, 3, 4):
            for k_t in range(n):
                monkeypatch.setattr(equi, "SUBSET_EXACT_BUDGET", 300_000)
                ex = concentration_exact(n, 2, 0.5, k_t / n)
                monkeypatch.setattr(equi, "SUBSET_EXACT_BUDGET", 0)
                seg = concentration_exact(n, 2, 0.5, k_t / n)
                assert seg.mode == "harper"
                assert seg.value == pytest.approx(ex.value, abs=1e-12)

    def test_shift_rule_on_exact_values(self):
        n, s = 4, 2
        alpha = {}
        for th in (0.25, 0.5, 0.75):
            for t in range(n):
                alpha[(th, t)] = concentration_exact(n, s, th, t / n).value
        for th in (0.25, 0.5, 0.75):
            for tr in range(n):
                if alpha[(0.5, tr)] < th:
                    for te in range(n - tr):
                        assert alpha[(th, tr + te)] <= alpha[(0.5, te)] + 1e-12

    # (mode, lower, upper) for t = 0..n at theta = 1/2: reported values must
    # not drift when the candidate engine changes
    PINNED = {
        (16, 2): [("harper", v, v) for v in (
            0.5, 0.303619384765625, 0.15087890625, 0.059234619140625, 0.017578125,
            0.003692626953125, 0.00048828125, 3.0517578125e-05)]
        + [("harper", 0.0, 0.0)] * 8 + [("subset-exact", 0.0, 0.0)],
        (10, 3): [("candidates", v, 0.5) for v in (
            0.49999153245609573, 0.23871699774763333, 0.0693661196633305, 0.0086707649579163,
            0.00018628596589276292)]
        + [("candidates", 0.0, 0.5)] * 5 + [("subset-exact", 0.0, 0.0)],
    }

    @pytest.mark.parametrize("n,s", sorted(PINNED))
    def test_pinned_values(self, n, s):
        got = [concentration_exact(n, s, 0.5, t / n) for t in range(n + 1)]
        assert [(r.mode, r.lower, r.upper) for r in got] == self.PINNED[(n, s)]

    def test_pinned_theta_quarter(self):
        lowers = [concentration_exact(10, 3, 0.25, t / 10).lower for t in range(6)]
        assert lowers == [0.7499872986841436, 0.49883994648512253, 0.23844603634269845,
                          0.0693661196633305, 0.0086707649579163, 0.00018628596589276292]

    def test_profile_matches_fattening_from_scratch(self):
        # the last case runs past the diameter n, so every candidate covers
        # S^n before the last radius
        for (n, s, th, steps) in ((9, 2, 0.3, 8), (6, 3, 0.5, 5), (5, 4, 0.75, 4), (4, 3, 0.6, 6)):
            N = s**n
            cands = equi._candidate_sets(n, s, max(1, math.ceil(th * N - 1e-12)))
            prof = equi.alpha_profile(n, s, th, steps)
            assert len(prof) == steps + 1
            for t in range(steps + 1):
                cover = min(np.count_nonzero(equi._fatten(m, n, s, t)) for m in cands)
                assert prof[t] == 1.0 - cover / N

    def test_budget_boundary_picks_the_mode(self, monkeypatch):
        # subset enumeration runs exactly when C(N, k) fits the budget
        for n, s, th in ((2, 2, 0.5), (3, 2, 0.5), (4, 2, 0.25), (2, 3, 0.3), (2, 4, 0.5)):
            N = s**n
            c = math.comb(N, max(1, math.ceil(th * N - 1e-12)))
            monkeypatch.setattr(equi, "SUBSET_EXACT_BUDGET", c)
            assert concentration_exact(n, s, th, 1 / n).mode == "subset-exact"
            monkeypatch.setattr(equi, "SUBSET_EXACT_BUDGET", c - 1)
            below = concentration_exact(n, s, th, 1 / n).mode
            assert below == ("harper" if s == 2 else "candidates")

    def test_comb_at_most_boundary(self):
        for N in range(12):
            for k in range(N + 2):
                c = math.comb(N, k)
                for budget in (c - 1, c, c + 1):
                    assert equi._comb_at_most(N, k, budget) == (c <= budget)
        # near N = 2^16, with the binomials written out by hand
        N = 65_536
        for k, c in ((1, N), (2, N * (N - 1) // 2), (3, N * (N - 1) * (N - 2) // 6)):
            for kk in (k, N - k):
                assert equi._comb_at_most(N, kk, c) and not equi._comb_at_most(N, kk, c - 1)
        assert equi._comb_at_most(N, N, 1) and not equi._comb_at_most(N, N, 0)
        assert not equi._comb_at_most(N, N // 2, equi.SUBSET_EXACT_BUDGET)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_fatten_matches_hamming_balls(self, n):
        # every s with s^n <= 729: the points within Hamming distance t of
        # the seed set, from their digit vectors
        for s in (s for s in range(2, 730) if s**n <= 729):
            N = s**n
            digits = np.array([[(i // s ** (n - 1 - j)) % s for j in range(n)] for i in range(N)])
            dist = np.count_nonzero(digits[:, None, :] != digits[None, :, :], axis=2)
            rng = rng_from_seed(1000 * n + s)
            for density in (0.0, 2 / N, 0.05, 0.3):
                mask = rng.random(N) < density
                near = dist[:, mask].min(axis=1, initial=n + 1)
                for t in range(n + 1):
                    assert np.array_equal(equi._fatten(mask.copy(), n, s, t), near <= t), (s, density, t)

    def test_trivial_bracket_beyond_cap(self):
        import tracemalloc

        tracemalloc.start()
        r = concentration_exact(21, 2, 0.5, 0.25)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert (r.mode, r.lower, r.upper, r.exact) == ("trivial", 0.0, 0.5, False)
        assert peak < 100_000  # nothing of size 2^21 was built


class TestCertificates:
    def test_single_color_trivial(self):
        n, cert = sufficient_n_certificate(2, 4, 1, 0.3, 0.1)
        assert n == 4 and cert.verdict

    def test_search_and_replay(self):
        n, cert = sufficient_n_certificate(2, 4, 2, 0.4, 0.1)
        assert n % 4 == 0 and cert.verdict
        assert replay(cert)
        # serialization round trip replays too
        again = Certificate.from_jsonl(cert.to_jsonl())
        assert replay(again)

    def test_minimality_on_schedule(self):
        n, _ = sufficient_n_certificate(2, 4, 2, 0.4, 0.1)
        prev = equi._certificate_for(2, 4, 2, 0.4, 0.1, n - 4)
        assert not prev.verdict

    def test_tampered_certificate_fails(self):
        _, cert = sufficient_n_certificate(2, 2, 2, 0.6, 0.2)
        text = cert.to_jsonl().replace('"ok": true', '"ok": false')
        assert not replay(Certificate.from_jsonl(text))

    def test_divisibility_enforced(self):
        with pytest.raises(ValueError):
            sufficient_n_certificate(3, 4, 2, 0.4, 0.1)

    def test_log_zero_round_trip(self):
        cert = equi._certificate_for(2, 4, 2, 0.4, 0.0, 6)
        assert any(l.lhs == -math.inf or l.rhs == -math.inf for l in cert.lines)
        text = cert.to_jsonl()
        for raw in text.splitlines():
            json.loads(raw, parse_constant=lambda c: pytest.fail(f"non-JSON constant {c}"))
        again = Certificate.from_jsonl(text)
        assert again == cert
        assert replay(again) == replay(cert) and again.to_jsonl() == text

    def test_finite_certificate_bytes(self):
        _, cert = sufficient_n_certificate(2, 4, 2, 0.4, 0.1)
        head = ('{"d": 2, "delta": 0.1, "eps": 0.4, "kind": "equi-ramsey", "m": 4, "n": 720, '
                '"r": 2, "type": "header"}\n')
        assert cert.to_jsonl().startswith(head)
        assert cert.to_jsonl().endswith('{"ok": true, "type": "verdict"}\n')

    def test_pinned_search_results(self):
        # (n, first 16 hex digits of sha256(cert.to_jsonl())) per case
        for case, (n, digest) in _PINNED_SEARCHES.items():
            got_n, cert = sufficient_n_certificate(*case)
            assert (got_n, hashlib.sha256(cert.to_jsonl().encode()).hexdigest()[:16]) == (n, digest), case

    def test_budget_exhaustion_reports_failing_line(self, monkeypatch):
        monkeypatch.setattr(equi, "CERTIFICATE_N_BUDGET", 10_000)
        with pytest.raises(CertificateSearchError) as exc:
            sufficient_n_certificate(2, 4, 2, 1e-4, 0.1)
        assert exc.value.failing_line is not None


# (d, m, r, eps, delta) -> (n, digest) of sufficient_n_certificate: the
# battery's four cases; five wide-eps cases that certify at n = m or 2m; and
# one case per (d | m <= 6, r in 1..3) with eps ~ U[0.5, 0.7] and
# delta ~ U[0.1, 0.2] drawn from rng_from_seed(8), rounded to 3 digits.
_PINNED_SEARCHES = {
    (2, 4, 2, 0.4, 0.1): (720, "1876c048287886b7"),
    (2, 2, 2, 0.6, 0.2): (70, "6f7cef4da376912c"),
    (3, 6, 2, 0.5, 0.2): (852, "c632afe5312fa97a"),
    (2, 4, 1, 0.3, 0.1): (4, "77d2dbd7f6b6a071"),
    (2, 2, 2, 6.0, 0.5): (2, "86f2c715d7559f71"),
    (2, 2, 2, 4.0, 0.5): (4, "b148a9077c2fdacd"),
    (3, 3, 2, 5.0, 0.5): (6, "dff420145d53f464"),
    (2, 4, 3, 4.0, 0.5): (8, "a27143998134da8c"),
    (3, 6, 2, 3.0, 0.5): (30, "a122571b824f18ae"),
    (1, 2, 1, 0.565, 0.199): (2, "2254beeee2f6f1af"),
    (1, 2, 2, 0.564, 0.179): (80, "fbd24ab0afeb0f05"),
    (1, 2, 3, 0.674, 0.139): (92, "caee080af5d05415"),
    (2, 2, 1, 0.588, 0.137): (2, "20e2e1003620727f"),
    (2, 2, 2, 0.521, 0.148): (100, "e3748c5fa4f9a897"),
    (2, 2, 3, 0.548, 0.126): (134, "c21bf5e16db822fd"),
    (1, 3, 1, 0.537, 0.119): (3, "d2a5e9bd63f7a50d"),
    (1, 3, 2, 0.663, 0.142): (171, "0ae90c037219c840"),
    (1, 3, 3, 0.551, 0.159): (216, "f06e9243def79538"),
    (3, 3, 1, 0.621, 0.165): (3, "6d93d3061f0a25de"),
    (3, 3, 2, 0.682, 0.115): (180, "a5f80638f2616386"),
    (3, 3, 3, 0.574, 0.128): (219, "00fc2f6e36e334e1"),
    (1, 4, 1, 0.503, 0.118): (4, "686b268cc96d7094"),
    (1, 4, 2, 0.579, 0.139): (348, "c235a6b989d95fb4"),
    (1, 4, 3, 0.623, 0.145): (304, "a7b1451bfd034f7a"),
    (2, 4, 1, 0.621, 0.122): (4, "75b882f0cdff45bc"),
    (2, 4, 2, 0.527, 0.133): (424, "648dcaf3b4342b79"),
    (2, 4, 3, 0.519, 0.137): (424, "7b033885a8256f2a"),
    (4, 4, 1, 0.592, 0.172): (4, "4c5d82972acfa64e"),
    (4, 4, 2, 0.673, 0.105): (308, "631d881461c26e29"),
    (4, 4, 3, 0.691, 0.172): (244, "68b4f27191819a98"),
    (1, 5, 1, 0.698, 0.112): (5, "ed3a968feeae34cc"),
    (1, 5, 2, 0.575, 0.15): (505, "a080fd0264a8b899"),
    (1, 5, 3, 0.649, 0.131): (425, "57562c2e47ef7113"),
    (5, 5, 1, 0.59, 0.128): (5, "bca8144be8924164"),
    (5, 5, 2, 0.59, 0.151): (485, "34c977b4f01659a0"),
    (5, 5, 3, 0.613, 0.17): (445, "5be965bdcc9990ce"),
    (1, 6, 1, 0.548, 0.163): (6, "1f55f2129097680b"),
    (1, 6, 2, 0.518, 0.161): (816, "ffe99e94afbdb386"),
    (1, 6, 3, 0.592, 0.113): (696, "ce05226c4dff5317"),
    (2, 6, 1, 0.551, 0.106): (6, "710b869f23f6550b"),
    (2, 6, 2, 0.574, 0.14): (696, "a4787ae9892328a4"),
    (2, 6, 3, 0.598, 0.107): (702, "9cce33b0c84c0fe7"),
    (3, 6, 1, 0.643, 0.132): (6, "0ec1cff977d7e569"),
    (3, 6, 2, 0.556, 0.189): (702, "9e06aa0e9e5e0d73"),
    (3, 6, 3, 0.62, 0.166): (582, "905eb20764295eea"),
    (6, 6, 1, 0.606, 0.122): (6, "043090c90805492c"),
    (6, 6, 2, 0.53, 0.118): (834, "1b9e0ec4a325fa0d"),
    (6, 6, 3, 0.568, 0.117): (744, "611a08b9b5f4e56d"),
}
