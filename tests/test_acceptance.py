"""Acceptance battery: one test per criterion, each printing a PASS/FAIL line
and enforcing its runtime budget.  Trial counts and tolerances are pinned in
lpfraisse.suite; run with `pytest tests/test_acceptance.py -v -s`.
"""

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


def _acceptance_test(name):
    def test():
        _report(suite.ALL_CHECKS[name](seed=SEED))
    return test


# one test per check, named test_01_bump_identities ... test_14_gap_geometry
# in battery order, so that each can be selected on its own
for _i, _name in enumerate(BUDGETS, 1):
    _test = _acceptance_test(_name)
    _test.__name__ = f"test_{_i:02d}_{_name.replace('-', '_')}"
    globals()[_test.__name__] = _test
