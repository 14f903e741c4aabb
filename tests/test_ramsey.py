import itertools
import math

import numpy as np
import pytest

from lpfraisse.core import PIndex, rng_from_seed
from lpfraisse import equi, ramsey
from lpfraisse.ramsey import (
    SpreadVector, best_spread_dp, block_ambient, block_positions, block_vector,
    brute_force_spread, dual_ramsey_demo, dualize, enumerate_equi,
    exhaustive_ramsey_check, falsify_certificate, gamma_f_theta, is_rigid,
    quo_check, spread, spread_vector_search,
)
from lpfraisse.spaces import LampertiEmbedding


class TestSpread:
    def test_placement(self):
        a = SpreadVector(np.array([0.6, 0.4]))
        assert spread(a, [1, 3], 5) == pytest.approx([0, 0.6, 0, 0.4, 0])

    def test_block_positions(self):
        assert block_positions(2, 0) == [2, 4]
        a = SpreadVector(np.array([0.6, 0.4]))
        v = block_vector(a, 0, 1)
        assert v[2] == 0.6 and v[4] == 0.4

    def test_norm_preserved(self):
        a = SpreadVector(np.array([0.25, -0.5, 0.25]))
        v = spread(a, [0, 3, 7], 9)
        assert np.sum(np.abs(v)) == pytest.approx(1.0)

    def test_increasing_required(self):
        a = SpreadVector(np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            spread(a, [3, 1], 5)


class TestSpreadDP:
    def test_exact_recovery(self):
        a = SpreadVector(np.array([0.7, 0.3]))
        x = spread(a, [2, 5], 9)
        s, e = best_spread_dp(x, a)
        assert s == [2, 5] and e == 0.0

    def test_matches_brute_force(self):
        rng = rng_from_seed(1)
        for _ in range(30):
            N, k = 8, 3
            x = rng.normal(size=N)
            raw = np.abs(rng.normal(size=k)) + 0.05
            a = SpreadVector(raw / raw.sum())
            s, e = best_spread_dp(x, a)
            assert e == pytest.approx(brute_force_spread(x, a), abs=1e-12)

    def test_windows_respected(self):
        rng = rng_from_seed(2)
        a = SpreadVector(np.array([0.5, 0.5]))
        x = rng.normal(size=10)
        wins = [1, 4, 7, 9]
        s, e = best_spread_dp(x, a, wins)
        assert set(s) <= set(wins)
        assert e == pytest.approx(brute_force_spread(x, a, wins), abs=1e-12)

    def test_infeasible_windows(self):
        a = SpreadVector(np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            best_spread_dp(np.zeros(5), a, [2])


class TestSpreadSearch:
    def test_single_block(self, monkeypatch):
        # sign flips alone: the equal alternating profile shifts one slot,
        # costing 2/k, so the sampled margin clears 0.5
        monkeypatch.setattr(ramsey, "SPREAD_B_SAMPLES", 40)
        monkeypatch.setattr(ramsey, "SPREAD_DESCENT_ROUNDS", 5)
        rep = spread_vector_search(1, 0.5, k_budget=6, seed=0)
        assert rep.verified_on_sample
        assert rep.worst_error < 0.5

    def test_two_blocks_reports_honestly(self, monkeypatch):
        # k <= 6 cannot absorb the half-scale combinations; the search must
        # flag its best margin rather than claim success
        monkeypatch.setattr(ramsey, "SPREAD_B_SAMPLES", 60)
        monkeypatch.setattr(ramsey, "SPREAD_DESCENT_ROUNDS", 10)
        rep = spread_vector_search(2, 0.5, k_budget=6, seed=0)
        assert rep.witness_b is not None
        assert rep.verified_on_sample == (rep.worst_error < 0.5)
        assert rep.worst_error <= 1.0


class TestExhaustive:
    def test_single_color(self):
        res = exhaustive_ramsey_check(4, 2, 2, 1, 0.5, 0.0)
        assert res.decided and res.holds

    def test_n6_full_sweep(self):
        res = exhaustive_ramsey_check(6, 2, 2, 2, 0.5, 0.0)
        assert res.decided and res.holds
        assert res.colorings == 2**20

    def test_pinned_counterexample(self):
        # the first failing coloring in sweep order
        res = exhaustive_ramsey_check(6, 2, 6, 2, 0.55, 0.0)
        assert res.decided and not res.holds and res.colorings == 2**20
        assert res.counterexample == (1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0)

    def test_sweep_counterexample_past_first_chunk(self):
        # singleton balls and one orbit {18, 19}: a coloring fails exactly when
        # it splits 18 from 19, first at index 2**18, the start of chunk two
        res = ramsey._sweep_two_colors(20, [1 << u for u in range(20)], [3 << 18], 2**20)
        assert not res.holds
        assert res.counterexample == tuple(int(u == 18) for u in range(20))

    def test_two_color_sweep_matches_general(self):
        # _sweep_general runs the last point fastest and _sweep_two_colors the
        # first, so the general sweep gets the points in reverse order; then
        # both visit the colorings in one order and must stop at the same one
        def rev(x, U):
            return sum(((x >> u) & 1) << (U - 1 - u) for u in range(U))

        rng = rng_from_seed(12)
        verdicts = set()
        for U in range(1, 15):
            for density in (0.15, 0.6):
                ball = [sum(1 << v for v in range(U) if v == u or rng.random() < density) for u in range(U)]
                masks = [int(x) for x in rng.integers(1, 2**U, size=int(rng.integers(1, 4)))]
                masks += masks[:1]  # a duplicate is tested like the original
                got = ramsey._sweep_two_colors(U, ball, masks, 2**U)
                ref = ramsey._sweep_general(U, 2, [rev(b, U) for b in reversed(ball)],
                                            [rev(m, U) for m in masks], 2**U)
                assert (got.decided, got.holds, got.colorings) == (ref.decided, ref.holds, ref.colorings)
                assert got.counterexample == (None if ref.holds else ref.counterexample[::-1])
                verdicts.add(got.holds)
        assert verdicts == {True, False}

    def test_small_negative_case(self):
        # with a zero fattening radius and fine colorings the statement fails
        res = exhaustive_ramsey_check(4, 2, 2, 2, 0.0, 0.0)
        assert res.decided and not res.holds
        assert res.counterexample is not None

    def test_falsification_mode(self, monkeypatch):
        monkeypatch.setattr(ramsey, "EXHAUSTIVE_BUDGET", 2**20)
        res = exhaustive_ramsey_check(8, 2, 2, 2, 0.5, 0.0, falsification_colorings=2000, seed=3)
        assert not res.decided
        assert res.holds  # no counterexample found


class TestCertificateFalsification:
    def test_certified_n_survives_hashed_colorings(self):
        n, cert = equi.sufficient_n_certificate(2, 2, 2, 0.6, 0.2)
        res = falsify_certificate(cert, colorings=20_000, seed=5, pool_per_member=64)
        assert res.holds

    # Outputs of the unstaged evaluation (every pool entry colored for every
    # coloring).  Each payload has swap radius 1, so the pool stream and the
    # staged evaluation both decide the first failing index.
    @pytest.mark.parametrize("payload, bad", [
        ({"n": 8, "d": 2, "m": 4, "r": 2, "eps": 0.3, "delta": 0.1}, 10008),
        ({"n": 6, "d": 3, "m": 3, "r": 2, "eps": 0.3, "delta": 0.1}, 8601),
        ({"n": 8, "d": 2, "m": 4, "r": 3, "eps": 0.3, "delta": 0.1}, 651),
        ({"n": 8, "d": 2, "m": 2, "r": 65, "eps": 0.3, "delta": 0.1}, 8),
    ])
    def test_pinned_first_counterexample(self, payload, bad):
        cert = equi.Certificate(payload, (), True)
        res = falsify_certificate(cert, colorings=20_000, seed=5, pool_per_member=64)
        assert not res.holds
        assert res.counterexample == ("hash-seed", bad)

    def test_batch_only_sizes_the_work(self, monkeypatch):
        cert = equi.Certificate({"n": 8, "d": 2, "m": 4, "r": 3, "eps": 0.3, "delta": 0.1}, (), True)
        default = falsify_certificate(cert, colorings=2_000, seed=5, pool_per_member=64)
        results = set()
        for b in (1, 100, 4096):
            monkeypatch.setattr(ramsey, "FALSIFY_BATCH", b)
            results.add(falsify_certificate(cert, colorings=2_000, seed=5, pool_per_member=64))
        assert results == {default}


def rigid_surjections(n: int, R: int) -> list[tuple[int, ...]]:
    """The maps n -> R onto range(R) that is_rigid accepts, by brute force."""
    return [v for v in itertools.product(range(R), repeat=n) if len(set(v)) == R and is_rigid(v)]


class TestRigid:
    def test_hand_enumeration(self):
        assert rigid_surjections(3, 2) == [(0, 0, 1), (0, 1, 0), (0, 1, 1)]

    def test_single_target(self):
        assert rigid_surjections(3, 1) == [(0, 0, 0)]

    def test_counting_oracle(self):
        for n in (2, 4, 6, 8):
            assert len(rigid_surjections(n, 2)) == 2 ** (n - 1) - 1

    def test_too_small_domain(self):
        assert rigid_surjections(2, 3) == []

    def test_closed_under_composition(self):
        for f in rigid_surjections(5, 3):
            for g in rigid_surjections(3, 2):
                comp = tuple(g[v] for v in f)
                assert is_rigid(comp)


class TestQuoDuality:
    def test_hand_transpose(self):
        # u_0 -> -u_1 into the plane: dual rows are (0, -u_0)
        g = gamma_f_theta([1], [-1], 2)
        sigma, section = dualize(g)
        assert sigma.tolist() == [[0.0, -1.0]]
        comp = sigma @ section.to_linear_map().matrix
        assert np.array_equal(comp, np.eye(1))

    def test_positive_lattice_chain(self):
        g = gamma_f_theta([0, 2], [1, 1], 3)
        sigma, _ = dualize(g)
        ok, off = quo_check(sigma, "lattice")
        assert ok and not off

    def test_violating_row(self):
        M = np.array([[0.5, 1.0, 0.0], [0.5, 0.0, 1.0]])
        ok, off = quo_check(M, "disjoint")
        assert not ok and 0 in off

    def test_section_identity_random(self):
        rng = rng_from_seed(7)
        for _ in range(20):
            d = int(rng.integers(1, 4))
            m = int(rng.integers(d, 6))
            f = sorted(rng.choice(m, size=d, replace=False).tolist())
            theta = [int(v) for v in rng.choice([-1, 1], size=d)]
            g = gamma_f_theta(f, theta, m)
            sigma, section = dualize(g)
            comp = sigma @ section.to_linear_map().matrix
            assert np.array_equal(comp, np.eye(d))


class TestDualRamseyDemo:
    def test_small_alphabets(self):
        for seed in range(4):
            rep = dual_ramsey_demo(2, 2, 2, seed=seed)
            assert rep.ok, rep

    def test_size_guard(self):
        with pytest.raises(ValueError):
            dual_ramsey_demo(3, 3, 2)


def test_enumerate_equi_windows():
    out = enumerate_equi(4, 2, 0.0)
    assert len(out) == 6
    out = enumerate_equi(4, 2, 0.5)
    assert len(out) == 14

