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
            comp = F.compose(G)
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
            lhs = hamming(phi0.compose(psi0), phi0.compose(psi1))
            assert lhs <= (1 + d0) * hamming(psi0, psi1)
            assert hamming(phi0.compose(psi0), phi1.compose(psi0)) <= hamming(phi0, phi1)


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

    def test_monotone_in_delta(self):
        for n in (9, 100):
            f1 = count_fraction_log(n, 3, 0.1)
            f2 = count_fraction_log(n, 3, 0.3)
            assert f2 >= f1 - 1e-15


class TestConcentration:
    def test_tiny_exact_zero(self):
        r = concentration_exact(2, 2, 0.5, 0.5)
        assert r.mode == "subset-exact" and r.value == 0.0

    def test_bound_small_spaces(self):
        for (n, s) in ((2, 2), (3, 2), (4, 2), (2, 3)):
            for t in range(n):
                r = concentration_exact(n, s, 0.5, t / n)
                assert r.lower <= hamming_bound_exp(n, t / n) + 1e-12

    def test_harper_matches_subset_exact(self):
        # the ordered-segment value agrees with brute enumeration on cubes
        for n in (2, 3, 4):
            for k_t in range(n):
                ex = concentration_exact(n, 2, 0.5, k_t / n, subset_budget=300_000)
                seg = concentration_exact(n, 2, 0.5, k_t / n, subset_budget=0)
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
        for (n, s, th) in ((9, 2, 0.3), (6, 3, 0.5), (5, 4, 0.75)):
            N = s**n
            cands = equi._candidate_sets(n, s, max(1, math.ceil(th * N - 1e-12)))
            prof = equi.alpha_profile(n, s, th, n - 1)
            for t in range(n):
                cover = min(np.count_nonzero(equi._fatten(m, n, s, t)) for m in cands)
                assert prof[t] == 1.0 - cover / N

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

    def test_budget_exhaustion_reports_failing_line(self):
        with pytest.raises(CertificateSearchError) as exc:
            sufficient_n_certificate(2, 4, 2, 1e-4, 0.1, n_budget=10_000)
        assert exc.value.failing_line is not None
