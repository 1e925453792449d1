import tracemalloc

import pytest

from charbox import BasisMatrix, cached_field


@pytest.fixture(scope="session")
def f5():
    return cached_field(5, 1)


@pytest.fixture(scope="session")
def f25():
    return cached_field(5, 2, modulus=[2, 0, 1])


@pytest.fixture(scope="session")
def f31_2():
    return cached_field(31, 2, seed=0)


@pytest.fixture(scope="session")
def f31_3():
    return cached_field(31, 3, seed=0)


@pytest.fixture(scope="session")
def f61_2():
    return cached_field(61, 2, seed=0)


@pytest.fixture(scope="session")
def id_basis_31_2(f31_2):
    return BasisMatrix.identity(f31_2)


@pytest.fixture(scope="session")
def id_basis_31_3(f31_3):
    return BasisMatrix.identity(f31_3)


@pytest.fixture
def traced_peak():
    """traced_peak(fn): the tracemalloc peak, in bytes, of one call fn()."""
    def peak(fn) -> int:
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peak
