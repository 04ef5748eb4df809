import numpy as np
import pytest

import sortcycles as sc


@pytest.fixture(scope="session")
def table():
    """(params, chain) of the published calibration."""
    return sc.published_calibration()


@pytest.fixture(scope="session")
def boom_eq(table):
    params, chain = table
    shock = sc.AggregateShockState(z=chain.z_low)
    return sc.solve_static(params, shock, 1.0)


@pytest.fixture(scope="session")
def recession_eq(table):
    params, chain = table
    shock = sc.AggregateShockState(z=chain.z_high)
    return sc.solve_static(params, shock, 1.0)


@pytest.fixture(scope="session")
def policy(table):
    params, chain = table
    return sc.solve_policy(params, chain)


@pytest.fixture(scope="session")
def table_path(policy):
    return sc.simulate(policy, T=10_000, burn_in=100, seed=20_240_101)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
