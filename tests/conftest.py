"""Shared fixtures: catalog oracles are cheap to build, so each test takes
a fresh one (call counters are per-oracle state)."""
from collections import Counter

import pytest

from altkit.fixtures import catalog, oracle_by_name, utility_by_name
from altkit.meter import COUNTS


@pytest.fixture
def cobb_oracle():
    return oracle_by_name("cobb_douglas")


@pytest.fixture
def linear_oracle():
    return oracle_by_name("linear")


@pytest.fixture
def catalog_names():
    return [spec.name for spec in catalog()]


@pytest.fixture
def cobb_spec():
    return utility_by_name("cobb_douglas")


@pytest.fixture
def built_witnesses(monkeypatch):
    """The list of every ``Witness`` constructed while the test runs."""
    from altkit.axioms import Witness

    built = []
    init = Witness.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)
    monkeypatch.setattr(Witness, "__init__", counting)
    return built


class Work:
    """What altkit adds to its work counts (``altkit.meter.COUNTS``) from
    the last ``clear()`` on: ``work.added()``, or one figure such as
    ``work["Philox blocks"]``."""

    def __init__(self) -> None:
        self.clear()

    def clear(self) -> None:
        self.before = COUNTS.copy()

    def added(self) -> Counter:
        return COUNTS - self.before

    def __getitem__(self, key) -> int:
        return self.added()[key]


@pytest.fixture
def work():
    """The work counts of the test, from its start or its last ``clear()``."""
    return Work()
