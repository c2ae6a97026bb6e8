"""The benchmark Heisenberg chain and its three fragments.

The chain couples every nearest-neighbor pair with unit-weight XX + YY + ZZ
terms and adds a random longitudinal field h_j Z_j with h_j uniform on
[-1, 1].  Qubits are indexed from 0; "even" bonds are (0,1), (2,3), ...
"""

from __future__ import annotations

import numpy as np

from .pauli import PauliSumOp, pauli_from_sites


def _bonds(n: int, parity: int) -> PauliSumOp:
    """XX + YY + ZZ at unit weight on each bond (j, j + 1) with j of this
    parity."""
    return PauliSumOp.from_terms(n, [(1.0, pauli_from_sites(n, {j: axis, j + 1: axis}))
                                     for j in range(parity, n - 1, 2) for axis in "XYZ"])


def build_heisenberg_chain(n: int, seed: int) -> tuple[PauliSumOp, np.ndarray]:
    """Build the n-qubit chain Hamiltonian; returns ``(H, h)``.

    ``h`` is the length-n field vector drawn uniformly from [-1, 1] using
    PCG64 seeded with ``seed``.  H is the sum of the three fragments of
    :func:`fragment_decomposition_s2`.
    """
    if n < 2:
        raise ValueError("the chain needs n >= 2 qubits")
    fields = np.random.default_rng(seed).uniform(-1.0, 1.0, size=n)
    odd, field, even = fragment_decomposition_s2(n, fields)
    return odd + field + even, fields


def fragment_decomposition_s2(n: int, fields: np.ndarray) -> list[PauliSumOp]:
    """Split the chain into its three fragments [odd bonds, fields, even
    bonds], each at unit weight, with ``h_j`` on the fields.

    The fragments sum to the chain Hamiltonian exactly and the terms inside
    each fragment pairwise commute.  ``formulas.second_order`` makes of them
    the Strang palindrome odd/2, fields/2, even, fields/2, odd/2.
    """
    if n < 2:
        raise ValueError("the chain needs n >= 2 qubits")
    if len(fields) != n:
        raise ValueError("field vector length must equal n")
    field = PauliSumOp.from_terms(
        n, ((float(fields[j]), pauli_from_sites(n, {j: "Z"})) for j in range(n)))
    return [_bonds(n, 1), field, _bonds(n, 0)]
