import numpy as np
import pytest

from mpf_lab import (
    SpectralOracle,
    build_heisenberg_chain,
    fragment_decomposition_s2,
    neel_state,
    second_order,
)


class ChainCase:
    """A built benchmark chain with its formula and exact-evolution oracle."""

    def __init__(self, n: int, seed: int = 2024):
        self.n = n
        self.seed = seed
        self.hamiltonian, self.fields = build_heisenberg_chain(n, seed)
        self.fragments = fragment_decomposition_s2(n, self.fields)
        self.pf = second_order(self.fragments)
        self.psi = neel_state(n)
        self.oracle = SpectralOracle(self.hamiltonian)


@pytest.fixture(scope="session")
def chain4():
    return ChainCase(4)


@pytest.fixture(scope="session")
def chain5():
    return ChainCase(5)


@pytest.fixture(scope="session")
def chain6():
    return ChainCase(6)


@pytest.fixture(scope="session")
def chain10():
    return ChainCase(10)


@pytest.fixture()
def rng():
    return np.random.default_rng(123)
