"""Shared fixtures: catalog oracles are cheap to build, so each test takes
a fresh one (call counters are per-oracle state)."""
import dataclasses

import numpy as np
import pytest

from altkit.fixtures import catalog, oracle_by_name, utility_by_name


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


@pytest.fixture
def philox_blocks(monkeypatch):
    """The number of Philox blocks of each ``sampling._philox`` call made
    while the test runs, in call order; their sum is the blocks computed."""
    from altkit import sampling

    blocks = []
    philox = sampling._philox

    def counting(ctr, seed):
        blocks.append(max(np.size(c) for c in ctr))
        return philox(ctr, seed)
    monkeypatch.setattr(sampling, "_philox", counting)
    return blocks


@pytest.fixture
def evaluator_rows(monkeypatch):
    """The row count of each array-function call of every oracle that
    ``altkit.fixtures`` builds while the test runs, set-up included, in
    call order; their sum is the evaluator rows valued."""
    from altkit import fixtures

    rows = []
    build = fixtures._build_oracle

    def counting(spec, *args, **kwargs):
        batch = spec.batch

        def counted(*arrays):
            rows.append(len(arrays[0]))
            return batch(*arrays)
        return build(dataclasses.replace(spec, batch=counted), *args, **kwargs)
    monkeypatch.setattr(fixtures, "_build_oracle", counting)
    return rows
