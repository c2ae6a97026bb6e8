"""Pauli strings, real-coefficient Pauli sums, and their algebra.

Conventions used throughout the package:

* A Pauli word is a string over ``IXYZ``; character ``j`` acts on qubit ``j``.
* Qubit ``j`` maps to bit ``n - 1 - j`` of a basis-state index, so
  ``kron(op_0, op_1, ..., op_{n-1})`` and the mask-based statevector kernels
  agree on indexing.
* Operators are Hermitian by construction: coefficients are real floats and
  complex values are rejected at construction time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

import numpy as np

from .errors import ResourceLimitError

_VALID = frozenset("IXYZ")

# Most qubits for exact operator work on all 2^n basis states: ``to_dense``
# (4096 x 4096 at the cap), ``invariant_blocks``, the norms of Pauli sums, and
# exact evolution, whose series runs on the subspace a state touches: a run's
# walk (``formulas._Walk``) and ``statesim.SpectralOracle`` refuse above it.
DENSE_QUBIT_CAP = 12


@dataclass(frozen=True)
class PauliString:
    """A single Pauli word, e.g. ``"XXIZ"``."""

    word: str

    def __post_init__(self):
        if not self.word or not _VALID.issuperset(self.word):
            raise ValueError(f"invalid Pauli word: {self.word!r}")

    @property
    def n(self) -> int:
        return len(self.word)

    @cached_property
    def support(self) -> frozenset[int]:
        """Qubits on which the word acts non-trivially (derived, never stored)."""
        return frozenset(j for j, ch in enumerate(self.word) if ch != "I")

    @cached_property
    def x_mask(self) -> int:
        """Bit mask of sites with an X component (X or Y)."""
        n = self.n
        return sum(1 << (n - 1 - j) for j, ch in enumerate(self.word) if ch in "XY")

    @cached_property
    def z_mask(self) -> int:
        """Bit mask of sites with a Z component (Z or Y)."""
        n = self.n
        return sum(1 << (n - 1 - j) for j, ch in enumerate(self.word) if ch in "ZY")

    @cached_property
    def y_count(self) -> int:
        return self.word.count("Y")

    def __str__(self) -> str:
        return self.word


def pauli_from_sites(n: int, sites: dict[int, str]) -> PauliString:
    """Build an n-qubit word with the given single-site letters."""
    chars = ["I"] * n
    for j, ch in sites.items():
        if not 0 <= j < n:
            raise ValueError(f"qubit index {j} out of range for n={n}")
        chars[j] = ch
    return PauliString("".join(chars))


def pauli_product(a: PauliString, b: PauliString) -> tuple[int, PauliString]:
    """Return ``(e, r)`` with ``a @ b == i**e * r`` and ``e`` reduced mod 4.

    Uses the symplectic representation ``P = i^{|x & z|} X^x Z^z`` per site.
    """
    if a.n != b.n:
        raise ValueError("qubit-count mismatch")
    x3 = a.x_mask ^ b.x_mask
    z3 = a.z_mask ^ b.z_mask
    e = (
        (a.x_mask & a.z_mask).bit_count()
        + (b.x_mask & b.z_mask).bit_count()
        - (x3 & z3).bit_count()
        + 2 * (a.z_mask & b.x_mask).bit_count()
    ) % 4
    n = a.n
    chars = []
    for j in range(n):
        bit = 1 << (n - 1 - j)
        xb, zb = bool(x3 & bit), bool(z3 & bit)
        chars.append("Y" if xb and zb else "X" if xb else "Z" if zb else "I")
    return e, PauliString("".join(chars))


def commutes(a: PauliString, b: PauliString) -> bool:
    s = (a.x_mask & b.z_mask).bit_count() + (a.z_mask & b.x_mask).bit_count()
    return s % 2 == 0


def _as_real(coeff) -> float:
    if isinstance(coeff, complex) or np.iscomplexobj(coeff):
        if abs(complex(coeff).imag) != 0.0:
            raise ValueError(f"complex coefficient rejected: {coeff!r}")
        coeff = complex(coeff).real
    return float(coeff)


@dataclass(frozen=True)
class PauliSumOp:
    """A Hermitian operator stored as a real-weighted sum of Pauli words.

    Terms are normalized at construction: duplicates merged, exact zeros
    dropped, order fixed by word for determinism.
    """

    n: int
    terms: tuple[tuple[float, PauliString], ...]

    @classmethod
    def from_terms(cls, n: int, terms: Iterable[tuple[float, PauliString]]) -> "PauliSumOp":
        acc: dict[str, float] = {}
        for coeff, ps in terms:
            if ps.n != n:
                raise ValueError(f"term {ps.word!r} does not act on {n} qubits")
            acc[ps.word] = acc.get(ps.word, 0.0) + _as_real(coeff)
        kept = tuple(
            (c, PauliString(w)) for w, c in sorted(acc.items()) if c != 0.0
        )
        return cls(n=n, terms=kept)

    @classmethod
    def zero(cls, n: int) -> "PauliSumOp":
        return cls(n=n, terms=())

    @property
    def num_terms(self) -> int:
        return len(self.terms)

    @property
    def is_empty(self) -> bool:
        return not self.terms

    def __iter__(self) -> Iterator[tuple[float, PauliString]]:
        return iter(self.terms)

    def __add__(self, other: "PauliSumOp") -> "PauliSumOp":
        if self.n != other.n:
            raise ValueError("qubit-count mismatch")
        return PauliSumOp.from_terms(self.n, (*self.terms, *other.terms))

    def __sub__(self, other: "PauliSumOp") -> "PauliSumOp":
        return self + (-1.0) * other

    def __mul__(self, scalar) -> "PauliSumOp":
        s = _as_real(scalar)
        return PauliSumOp.from_terms(self.n, ((s * c, p) for c, p in self.terms))

    __rmul__ = __mul__


def commutator_minus_i(a: PauliSumOp, b: PauliSumOp) -> PauliSumOp:
    """Return ``-i [A, B]``, which is again a real Pauli sum for Hermitian A, B.

    Only anticommuting word pairs contribute; for those ``PQ - QP = 2 PQ``.
    """
    if a.n != b.n:
        raise ValueError("qubit-count mismatch")
    acc: dict[str, float] = {}
    for ca, pa in a.terms:
        for cb, pb in b.terms:
            if commutes(pa, pb):
                continue
            e, pr = pauli_product(pa, pb)
            # -i * 2 * i**e with e odd: e=1 -> +2, e=3 -> -2.
            sign = 2.0 if e == 1 else -2.0
            w = pr.word
            acc[w] = acc.get(w, 0.0) + sign * ca * cb
    return PauliSumOp.from_terms(a.n, ((c, PauliString(w)) for w, c in acc.items()))


# -- dense and block materialization -------------------------------------------

def pauli_action(ps: PauliString, idx: np.ndarray) -> np.ndarray:
    """Phase of a Pauli word on basis states: ``P|i> = phase[i] |i ^ x_mask>``.

    The phase is ``i^{#Y}`` times the sign ``(-1)^{popcount(idx & z_mask)}``,
    returned as a real array when ``i^{#Y}`` is real.  Every mask-based
    kernel of the package takes its phases from here, through
    :func:`_couplings`.
    """
    signs = 1.0 - 2.0 * (np.bitwise_count(idx & ps.z_mask) & 1)
    if ps.y_count % 2 == 0:
        # A real phase saves a complex pass per term and keeps diagonals real.
        return signs if ps.y_count % 4 == 0 else -signs
    return (1j ** ps.y_count) * signs


def _check_qubit_cap(n: int):
    if n > DENSE_QUBIT_CAP:
        raise ResourceLimitError(
            f"exact operator work is capped at n={DENSE_QUBIT_CAP} qubits; got n={n}")


def _couplings(op: PauliSumOp, idx: np.ndarray) -> dict[int, np.ndarray]:
    """Per ``x_mask`` of ``op``'s terms, in first-appearance order: the
    coupling ``<i ^ x_mask| sum c P |i>`` at each index ``i`` of ``idx``.

    Each coupling is summed term by term in term order.  This is the one
    place that order is fixed, so dense matrices, block stacks and fragment
    exponentials agree bit for bit.  Entries that cancel (|00> and |11>
    under XX + YY) are exact zeros.
    """
    couplings: dict[int, np.ndarray] = {}
    for coeff, ps in op.terms:
        if ps.x_mask not in couplings:
            couplings[ps.x_mask] = np.zeros(idx.shape, dtype=complex)
        couplings[ps.x_mask] += coeff * pauli_action(ps, idx)
    return couplings


def to_dense(op: PauliSumOp) -> np.ndarray:
    """Dense Hermitian matrix of a Pauli sum (n capped at DENSE_QUBIT_CAP):
    each ``x_mask`` group's couplings at ``(i ^ x_mask, i)``."""
    _check_qubit_cap(op.n)
    idx = np.arange(1 << op.n)
    mat = np.zeros((idx.size, idx.size), dtype=complex)
    for x_mask, coupling in _couplings(op, idx).items():
        mat[idx ^ x_mask, idx] = coupling
    return mat


def _partition(ops: list[PauliSumOp],
               couplings: Iterable[dict[int, np.ndarray]] | None = None) -> list[np.ndarray]:
    """Common invariant blocks of a set of Pauli sums, at any qubit count:
    one ``(count, size)`` array of ascending basis indices per block size,
    in ascending size.

    The blocks are the connected components of the pairs ``(i, i ^ x_mask)``
    with a nonzero coupling in some operator (:func:`_couplings`), found by
    min-label propagation with pointer jumping.  Each ``x_mask`` is a
    permutation of the basis, so a sweep is one masked minimum per mask, in
    place, which needs fewer sweeps (three from the Neel state at n=10 and
    12, against five and six with the labels of the last sweep).
    ``couplings`` holds every operator's couplings on all 2^n states when
    the caller has read them; else they are read one operator at a time, and
    memory is a few arrays of 2^n entries and one operator's couplings.
    """
    idx = np.arange(1 << ops[0].n)
    if couplings is None:
        couplings = (_couplings(op, idx) for op in ops)
    # Pauli sums are Hermitian, so a pair is linked from both of its ends.
    linked: dict[int, np.ndarray] = {}
    for groups in couplings:
        for x_mask, coupling in groups.items():
            if x_mask:
                linked[x_mask] = linked.get(x_mask, False) | (coupling != 0)
    label = idx.copy()
    while True:
        last = label.copy()
        for x_mask, hit in linked.items():
            np.minimum(label, label[idx ^ x_mask], out=label, where=hit)
        label = label[label]
        if np.array_equal(label, last):
            break
    # Each block's label is its least index: blocks in the order of their
    # labels, members ascending.
    sizes = np.bincount(label)
    sizes = sizes[sizes > 0]
    members = np.argsort(label, kind="stable")
    starts = np.cumsum(sizes) - sizes
    return [members[starts[sizes == s][:, None] + np.arange(s)]
            for s in sorted(set(sizes.tolist()))]


def invariant_blocks(ops: list[PauliSumOp]) -> tuple[list[np.ndarray], list[list[np.ndarray]]]:
    """Invariant blocks of a set of Pauli sums, and each sum in block form,
    without building any 2^n x 2^n matrix.

    Every product, commutator and exponential of the operators is
    block-diagonal on the blocks of :func:`_partition`; operators that
    conserve nothing give one block of the full dimension.

    Returns ``(blocks, parts)``.  ``blocks`` holds one ``(count, size)`` index
    array per block size, in ascending size.  ``parts[j]`` holds ``ops[j]`` as
    one ``(count, size, size)`` stack per block size, each coupling of
    :func:`_couplings` placed where :func:`to_dense` puts it, so the entries
    match bit for bit.  n above DENSE_QUBIT_CAP is refused before any work.
    """
    _check_qubit_cap(ops[0].n)
    states = np.arange(1 << ops[0].n)
    couplings = [_couplings(op, states) for op in ops]
    blocks = _partition(ops, couplings)
    # Entry (r, c) of a block sits at row_at[r] + col_at[c] of one flat
    # buffer that holds every block size's stack in turn.
    row_at, col_at = np.empty_like(states), np.empty_like(states)
    offsets = [0]
    for idx in blocks:
        count, size = idx.shape
        local = np.arange(size)
        row_at[idx] = offsets[-1] + (np.arange(count) * size * size)[:, None] + local * size
        col_at[idx] = local
        offsets.append(offsets[-1] + count * size * size)
    parts = []
    for groups in couplings:
        flat = np.zeros(offsets[-1], dtype=complex)
        for x_mask, coupling in groups.items():
            # Only nonzero couplings: a zero one may pair a state with one in
            # another block, and would land on an entry of this one.
            keep = np.flatnonzero(coupling)
            flat[row_at[keep ^ x_mask] + col_at[keep]] = coupling[keep]
        parts.append([flat[lo:hi].reshape(idx.shape[0], idx.shape[1], idx.shape[1])
                      for lo, hi, idx in zip(offsets, offsets[1:], blocks)])
    return blocks, parts


# -- serialization -----------------------------------------------------------

def parse_op(text: str, n: int | None = None) -> PauliSumOp:
    """Parse the line-oriented text form: one ``coeff word`` pair per line;
    blank lines and lines starting with ``#`` are ignored."""
    terms: list[tuple[float, PauliString]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'coeff word', got {raw!r}")
        coeff, word = parts
        ps = PauliString(word.upper())
        if n is None:
            n = ps.n
        terms.append((float(coeff), ps))
    if n is None:
        raise ValueError("empty operator text and no qubit count given")
    return PauliSumOp.from_terms(n, terms)
