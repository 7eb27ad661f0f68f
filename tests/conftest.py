"""Shared fixtures: the expensive enumerations run once per session."""

import pytest

from factorwords import Budget, brute_force_enumerate, enumerate_representable


@pytest.fixture(scope="session")
def enum_results():
    """Graph-search enumeration for orders 1..4, with the set listings."""
    return {n: enumerate_representable(n, collect_sets=True) for n in (1, 2, 3, 4)}


@pytest.fixture(scope="session")
def brute_small():
    """Brute-force oracle for orders 1..3, scanned until no state is new."""
    return {n: brute_force_enumerate(n, collect_sets=True) for n in (1, 2, 3)}


@pytest.fixture(scope="session")
def brute4():
    """Brute-force oracle for order 4 (the heavy one), to 25 letters."""
    return brute_force_enumerate(4, 25, Budget.default(workers=4), collect_sets=True)
