import numpy as np
import pytest

from revflow import ProfileGrid, make_preset, space_from_expressions


@pytest.fixture(scope="session")
def euclid2():
    return make_preset("euclidean", n=2)


@pytest.fixture(scope="session")
def euclid3():
    return make_preset("euclidean", n=3)


@pytest.fixture(scope="session")
def hyper2():
    return make_preset("hyperbolic", -1.0, n=2)


@pytest.fixture(scope="session")
def sphere2():
    return make_preset("spherical", 1.0, n=2)


@pytest.fixture(scope="session")
def sphere3():
    return make_preset("spherical", 1.0, n=3)


@pytest.fixture(scope="session")
def custom_rss2():
    # f = cosh(r)^2, h = sinh(r): S_zi = -2, S_ri = -1 everywhere
    return space_from_expressions(
        2,
        f="cosh(r)^2", df="sinh(2*r)", d2f="2*cosh(2*r)",
        h="sinh(r)", dh="cosh(r)", d2h="sinh(r)",
    )


def cos_profile(m=201, a=0.0, b=1.0, amp=0.1):
    z = np.linspace(a, b, m)
    return ProfileGrid(a, b, 1.0 + amp * np.cos(np.pi * (z - a) / (b - a)))


def neck_profile(m=201, neck=0.05, bulge=0.9):
    """Two bulges against the walls joined by a long flat thin interior neck."""
    z = np.linspace(0.0, 1.0, m)
    return ProfileGrid(0.0, 1.0, neck + bulge * np.cos(np.pi * z) ** 6)
