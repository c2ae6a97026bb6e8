"""The benchmark Heisenberg chain and its five-fragment splitting.

The chain couples every nearest-neighbor pair with unit-weight XX + YY + ZZ
terms and adds a random longitudinal field h_j Z_j with h_j uniform on
[-1, 1].  Qubits are indexed from 0; "even" bonds are (0,1), (2,3), ...
"""

from __future__ import annotations

import numpy as np

from .pauli import PauliString, PauliSumOp, pauli_from_sites


def _bond_terms(n: int, j: int, weight: float) -> list[tuple[float, PauliString]]:
    return [
        (weight, pauli_from_sites(n, {j: axis, j + 1: axis})) for axis in "XYZ"
    ]


def build_heisenberg_chain(n: int, seed: int) -> tuple[PauliSumOp, np.ndarray]:
    """Build the n-qubit chain Hamiltonian; returns ``(H, h)``.

    ``h`` is the length-n field vector drawn uniformly from [-1, 1] using
    PCG64 seeded with ``seed``.
    """
    if n < 2:
        raise ValueError("the chain needs n >= 2 qubits")
    rng = np.random.default_rng(seed)
    fields = rng.uniform(-1.0, 1.0, size=n)
    terms: list[tuple[float, PauliString]] = []
    for j in range(n - 1):
        terms.extend(_bond_terms(n, j, 1.0))
    for j in range(n):
        terms.append((float(fields[j]), pauli_from_sites(n, {j: "Z"})))
    return PauliSumOp.from_terms(n, terms), fields


def fragment_decomposition_s2(n: int, fields: np.ndarray) -> list[PauliSumOp]:
    """Split the chain into the palindromic fragments [F1, F2, F3, F4, F5].

    F1 = F5 = half-weight odd bonds, F2 = F4 = half-weight fields,
    F3 = even bonds.  The fragments sum to the chain Hamiltonian exactly and
    the terms inside each fragment pairwise commute.
    """
    if n < 2:
        raise ValueError("the chain needs n >= 2 qubits")
    if len(fields) != n:
        raise ValueError("field vector length must equal n")
    odd: list[tuple[float, PauliString]] = []
    even: list[tuple[float, PauliString]] = []
    for j in range(n - 1):
        if j % 2:
            odd.extend(_bond_terms(n, j, 0.5))
        else:
            even.extend(_bond_terms(n, j, 1.0))
    f1 = PauliSumOp.from_terms(n, odd)
    f2 = PauliSumOp.from_terms(
        n, ((0.5 * float(fields[j]), pauli_from_sites(n, {j: "Z"})) for j in range(n))
    )
    f3 = PauliSumOp.from_terms(n, even)
    return [f1, f2, f3, f2, f1]
