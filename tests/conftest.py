import numpy as np
import pytest

from phwc_lab import autodiff
from phwc_lab.geometry import Box, ChartManifold


def flat_chart(dim, half=1.0, quad_orders=6):
    eye = np.eye(dim).tolist()

    def metric(x):
        return eye

    return ChartManifold(
        f"flat-R{dim}",
        metric,
        Box(tuple([-half] * dim), tuple([half] * dim)),
        quad_orders=quad_orders,
    )


def sphere2_chart(quad_orders=24):
    """Unit S^2 in spherical coordinates (theta, phi)."""

    def metric(x):
        th = x[0]
        return [[1.0, 0.0], [0.0, np.sin(th) ** 2]]

    def embedding(x):
        th, ph = x[0], x[1]
        return [np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)]

    return ChartManifold(
        "S2",
        metric,
        Box((0.0, 0.0), (np.pi, 2 * np.pi), periodic=(1,)),
        quad_orders=quad_orders,
        embedding=embedding,
    )


@pytest.fixture(scope="session")
def flat2():
    return flat_chart(2)


@pytest.fixture(scope="session")
def flat3():
    return flat_chart(3)


@pytest.fixture(scope="session")
def s2():
    return sphere2_chart()


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture(autouse=True)
def cold_memo():
    """Every test starts from an empty memo of evaluations by point set, so what
    it counts does not depend on the tests that ran before it."""
    autodiff._memo_clear()
    return autodiff
