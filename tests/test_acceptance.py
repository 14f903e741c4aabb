"""Acceptance battery: one test per criterion, each printing a PASS/FAIL line
and enforcing its runtime budget.  Trial counts and tolerances are pinned in
lpfraisse.suite; run with `pytest tests/test_acceptance.py -v -s`.
"""

import pytest

from lpfraisse import suite

SEED = 20_260_809

BUDGETS = {
    "bump-identities": 5,
    "cdf-inversion": 10,
    "characteristic-uniqueness": 60,
    "matching-bound": 10,
    "concentration-bound": 60,
    "window-counting": 30,
    "lattice-rounding": 10,
    "amalgamation": 10,
    "hilbert-rounding": 20,
    "mazur-transport": 20,
    "envelope-pipeline": 60,
    "certificates": 300,
    "spread-dp": 10,
    "gap-geometry": 120,
}


def test_budgets_name_every_check():
    assert BUDGETS.keys() == suite.ALL_CHECKS.keys()


def _report(res):
    status = "PASS" if res.passed else "FAIL"
    print(f"\n[{status}] {res.name}  ({res.runtime:.2f}s)  {res.details}")
    assert res.passed, f"{res.name} failed: {res.details}"
    assert res.runtime <= BUDGETS[res.name], (
        f"{res.name} exceeded its runtime budget: {res.runtime:.1f}s > {BUDGETS[res.name]}s")


@pytest.fixture(scope="module")
def results():
    return {}


def test_01_bump_identities(results):
    _report(suite.check_bump_identities(seed=SEED))


def test_02_cdf_inversion(results):
    _report(suite.check_cdf_inversion(seed=SEED))


def test_03_characteristic_uniqueness(results):
    _report(suite.check_even_odd_uniqueness(seed=SEED))


def test_04_matching_bound(results):
    _report(suite.check_matching_bound(seed=SEED))


def test_05_concentration_bound(results):
    _report(suite.check_concentration_bound(seed=SEED))


def test_06_window_counting(results):
    _report(suite.check_window_counting(seed=SEED))


def test_07_lattice_rounding(results):
    _report(suite.check_lattice_rounding(seed=SEED))


def test_08_amalgamation(results):
    _report(suite.check_amalgamation(seed=SEED))


def test_09_hilbert_rounding(results):
    _report(suite.check_hilbert_rounding(seed=SEED))


def test_10_mazur_transport(results):
    _report(suite.check_mazur(seed=SEED))


def test_11_envelope_pipeline(results):
    _report(suite.check_envelope_pipeline(seed=SEED))


def test_12_certificates(results):
    _report(suite.check_certificates(seed=SEED))


def test_13_spread_dp(results):
    _report(suite.check_spread_dp(seed=SEED))


def test_14_gap_geometry(results):
    _report(suite.check_gap_geometry(seed=SEED))
