from dataclasses import dataclass

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


def basis_state(n: int, bits: str) -> np.ndarray:
    """Computational basis state; ``bits[j]`` is the value of qubit j."""
    if len(bits) != n or set(bits) - {"0", "1"}:
        raise ValueError(f"need {n} characters of 0/1, got {bits!r}")
    state = np.zeros(1 << n, dtype=complex)
    state[int(bits, 2)] = 1.0
    return state


def random_state(n: int, rng: np.random.Generator) -> np.ndarray:
    vec = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    return vec / np.linalg.norm(vec)


@pytest.fixture()
def rng():
    return np.random.default_rng(123)


# -- scaling-law fits of error data ---------------------------------------------

@dataclass(frozen=True)
class FitResult:
    prefactor: float
    exponents: dict[str, float]
    max_log10_residual: float

    def predict(self, **axes) -> np.ndarray:
        out = np.full_like(np.asarray(next(iter(axes.values())), dtype=float),
                           self.prefactor)
        for name, exp in self.exponents.items():
            out = out * np.asarray(axes[name], dtype=float) ** exp
        return out


def fit_scaling(values, **axes) -> FitResult:
    """Least-squares fit of ``value = a * prod axis_i^b_i`` in log10 space.

    Every supplied axis must be strictly positive and take at least two
    distinct values; otherwise the design matrix is degenerate.
    """
    vals = np.asarray(values, dtype=float)
    if vals.size == 0 or np.any(vals <= 0):
        raise ValueError("values must be positive for a log-space fit")
    if not axes:
        raise ValueError("need at least one axis")
    cols = [np.ones(vals.size)]
    names = sorted(axes)
    for name in names:
        ax = np.asarray(axes[name], dtype=float)
        if ax.shape != vals.shape or np.any(ax <= 0):
            raise ValueError(f"axis {name!r} must be positive and match values")
        if np.unique(ax).size < 2:
            raise ValueError(f"degenerate design matrix: axis {name!r} is constant")
        cols.append(np.log10(ax))
    design = np.column_stack(cols)
    if vals.size < design.shape[1]:
        raise ValueError("not enough samples for the requested fit")
    coef, *_ = np.linalg.lstsq(design, np.log10(vals), rcond=None)
    resid = design @ coef - np.log10(vals)
    return FitResult(
        prefactor=float(10.0 ** coef[0]),
        exponents={name: float(c) for name, c in zip(names, coef[1:])},
        max_log10_residual=float(np.abs(resid).max()),
    )
