import numpy as np
import pytest

from delo import PointSet
from delo.geometry import _lifted_planes, _orient_signs, _plane_insphere_signs

_acceptance_outcomes: dict[str, str] = {}


def pytest_configure(config):
    config.addinivalue_line("markers", "acceptance: end-to-end acceptance criteria")


def pytest_runtest_logreport(report):
    if report.when == "call" and "test_acceptance" in report.nodeid:
        _acceptance_outcomes[report.nodeid] = report.outcome


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance_outcomes:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for nodeid in sorted(_acceptance_outcomes):
        name = nodeid.split("::")[-1]
        outcome = _acceptance_outcomes[nodeid].upper()
        terminalreporter.write_line(f"{name}: {outcome}")


def random_pointset(seed: int, n: int, k: int, lo=-1.0, hi=1.0) -> PointSet:
    rng = np.random.default_rng(seed)
    return PointSet(rng.uniform(lo, hi, size=(n, k)))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def orient_sign(simplex) -> int:
    """The exact orientation sign of k+1 points in R^k, from the kernel."""
    return int(_orient_signs(np.asarray(simplex, dtype=np.float64)[None])[0])


def insphere_signs(simplex, queries) -> np.ndarray:
    """Each query's exact position against the circumsphere of a simplex
    with a nonzero orientation, from the kernel: 1 strictly inside, 0 on,
    -1 strictly outside."""
    group = np.asarray(simplex, dtype=np.float64)[None]
    queries = np.asarray(queries, dtype=np.float64).reshape(-1, group.shape[2])
    h, orients = _lifted_planes(group)
    return _plane_insphere_signs(group, h, orients, np.zeros(len(queries), dtype=np.int64),
                                 queries)
