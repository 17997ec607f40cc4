import numpy as np
import pytest

import sptlab.dataset as dataset
from sptlab.dataset import Dataset, PriceGrid
from sptlab.teacher import OracleTeacher, RevenueMatrix

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(autouse=True)
def empty_load_csv_cache():
    """Each test starts with load_csv's cache empty, so its first load of a
    file parses it whatever ran before; none keeps a Dataset alive after."""
    dataset._last = None
    yield
    dataset._last = None


def toy_probability(X, p):
    """Two customer types with perfectly inelastic demand: type A (x=0) buys
    up to price 10, type B (x=1) up to price 12."""
    X = np.atleast_2d(X)
    cap = np.where(X[:, 0] <= 0.5, 10.0, 12.0)
    p = np.broadcast_to(np.asarray(p, dtype=float), (X.shape[0],))
    return (p <= cap).astype(float)


@pytest.fixture
def toy_grid():
    return PriceGrid(np.asarray([10.0, 12.0]))


@pytest.fixture
def toy_features():
    return np.asarray([[0.0], [1.0]])


@pytest.fixture
def toy_teacher():
    return OracleTeacher(toy_probability, 1)


@pytest.fixture
def toy_revmat(toy_grid):
    # rows: type A -> (10, 0), type B -> (10, 12)
    return RevenueMatrix(np.asarray([[10.0, 0.0], [10.0, 12.0]]), toy_grid)


@pytest.fixture
def toy_dataset(toy_features):
    return Dataset(toy_features, np.asarray([10.0, 12.0]),
                   np.asarray([1, 1]), ("segment",))
