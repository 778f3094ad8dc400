import warnings

import pytest

import oracles
from fqlab import euclid_graph, make_field
from oracles import spectrum


@pytest.fixture(scope="session")
def f3():
    return make_field(3)


@pytest.fixture(scope="session")
def f7():
    return make_field(7)


@pytest.fixture(scope="session")
def f11():
    return make_field(11)


@pytest.fixture(scope="session")
def f19():
    return make_field(19)


@pytest.fixture(scope="session")
def f13():
    # 13 = 1 mod 4: -1 is a square, construction warns but proceeds
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return make_field(13)


@pytest.fixture(scope="session")
def g3_view(f3):
    """The oracle neighbor table of G_3(1) in dim 2, shared read-only."""
    return oracles.regular_view(euclid_graph(f3, 2, 1))


@pytest.fixture(scope="session")
def g3_lam(f3):
    """The exact second eigenvalue of G_3(1) in dim 2."""
    return spectrum(euclid_graph(f3, 2, 1)).second_eigenvalue
