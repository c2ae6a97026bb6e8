"""Statevector kernels: fragment exponentials, exact evolution inside the
Hamiltonian's invariant blocks, and low-rank norms of pure-state mixtures.

No 2^n x 2^n matrix is materialized here.  The fragment kernel runs in the
coordinates of a basis: an invariant subspace (a union of blocks such as
total-Z sectors) or the whole space, the basis of every index, with the
same bits on the subspace's amplitudes.  Exact evolution sums a Chebyshev
series of the Hamiltonian on an invariant subspace, from Chebyshev vectors
made once by sparse products on its own basis; it diagonalizes nothing and
calls no BLAS.  The subspace a state touches comes from one helper,
:func:`_subspace`.  The trace
norm of a mixture of r pure states comes from the r x r triangular factor
of a QR of the state block, which keeps its accuracy down to distances near
machine precision.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .errors import NumericalDegeneracyError, ResourceLimitError
from .pauli import PauliSumOp, _check_qubit_cap, _couplings, _partition, commutes


def neel_state(n: int) -> np.ndarray:
    """The |1010...> initial state (qubit 0 excited)."""
    state = np.zeros(1 << n, dtype=complex)
    state[int("".join("1" if j % 2 == 0 else "0" for j in range(n)), 2)] = 1.0
    return state


class _Rotation:
    """One ``x_mask`` group at one coupling magnitude ``mag``, on the S
    amplitudes of a basis: ``lo``/``hi`` index the paired states and
    ``u_lo``/``u_hi`` hold ``-i <hi|G|lo> / mag`` and ``-i <lo|G|hi> / mag``."""

    __slots__ = ("lo", "hi", "u_lo", "u_hi", "mag")

    def __init__(self, lo, hi, u_lo, u_hi, mag):
        self.lo, self.hi, self.mag = lo, hi, mag
        self.u_lo = -1j * _column(u_lo)
        self.u_hi = -1j * _column(u_hi)


def _column(u: np.ndarray) -> np.ndarray:
    """``u``, or its first entry alone when every entry has the same bits
    (as for the pairs of one bond), which broadcasts to the same products
    and keeps the per-row coefficients small."""
    bits = np.ascontiguousarray(u, dtype=complex).view(np.uint64).reshape(-1, 2)
    return u[:1] if (bits == bits[0]).all() else u


def _split(coupling: np.ndarray, basis: np.ndarray, x_mask: int) -> list[_Rotation]:
    """One rotation per coupling magnitude over the pairs ``i < i ^ x_mask``
    of the sorted ``basis`` with nonzero coupling; ``coupling`` holds each
    state's coupling to its partner, which must lie in the basis."""
    at = _partner_positions(basis, x_mask, coupling)
    mag = np.abs(coupling)
    keep = (basis < basis ^ x_mask) & (mag > 0.0)
    # The distinct magnitudes in ascending order (each kept one is positive);
    # a plain np.unique would import numpy.ma.
    mags = np.sort(mag[keep])
    out = []
    for value in mags[np.diff(mags, prepend=0.0) > 0.0]:
        lo = np.flatnonzero(keep & (mag == value))
        hi = at[lo]
        out.append(_Rotation(lo, hi, coupling[lo] / value, coupling[hi] / value, value))
    return out


def _partner_positions(basis: np.ndarray, x_mask: int, coupling: np.ndarray) -> np.ndarray:
    """Position in the sorted ``basis`` of each state's partner ``i ^ x_mask``
    (clipped into range where there is none); every state with a nonzero
    ``coupling`` must have its partner in the basis."""
    partner = basis ^ x_mask
    at = np.minimum(np.searchsorted(basis, partner), basis.size - 1)
    if np.any((basis[at] != partner) & (coupling != 0)):
        raise ValueError("basis is not invariant under the operator")
    return at


def _levels(diag: np.ndarray) -> tuple[np.ndarray, np.ndarray | slice]:
    """The distinct values of ``diag``, told apart by their bits (so 0.0 and
    -0.0 stay apart), and the position of each entry's value among them;
    ``diag`` itself and a whole slice, which gathers nothing, when every
    entry is distinct.  Sorted and compared: np.unique would import
    numpy.ma."""
    bits = np.ascontiguousarray(diag).view(np.uint64)
    order = np.argsort(bits, kind="stable")
    ranked = bits[order]
    first = np.ones(ranked.size, dtype=bool)
    first[1:] = ranked[1:] != ranked[:-1]
    if first.all():
        return diag, slice(None)
    at = np.empty(bits.size, dtype=np.intp)
    at[order] = np.cumsum(first) - 1
    return ranked[first].view(float), at


class FragmentEvolver:
    """Applies ``exp(-i t F)`` for a fragment F whose terms pairwise commute.

    At construction the terms are grouped by ``x_mask``, with their
    couplings read from ``pauli._couplings``.  Z-only terms fold into one real
    diagonal ``d``, applied as the phase ``exp(-i t d)``.  Terms sharing an
    ``x_mask`` fold into one Hermitian coupling G that pairs basis state
    ``lo`` with ``lo ^ x_mask``; on each pair ``G^2 = |g|^2``, so
    ``exp(-i t G) = cos(t|g|) - i sin(t|g|) G/|g|`` in closed form.  Pairs
    with zero coupling are dropped (|00>, |11> under XX + YY) and the rest
    are split by |g|, so each rotation needs one cos/sin per row.  The
    groups run in one fixed order, the rotations of one group touch disjoint
    pairs, and each amplitude takes the same arithmetic on every basis.

    The kernel acts on states in the coordinates of ``basis``, the sorted
    indices of a union of invariant blocks of F; None is the whole space,
    the basis of every index.  Each rotation gathers its pairs from the S
    amplitudes by index arrays, so the results on a subspace equal the
    whole-space ones on its indices bit for bit.

    The kernel works in place on rows it is handed (:meth:`_apply_in_place`,
    which ``ProductFormula._apply_on`` calls on the rows it owns); ``apply``
    copies first.  A rotation writes its halves from the two gathered copies
    with two temporaries, in the operation order of ``c y + a_lo x`` and
    ``c x + a_hi y``.  The phase exponentiates each distinct diagonal level
    once (:func:`_levels`: five and three on the chain's bond fragments at
    n=10, against 252 amplitudes), so it has the bits of one ``exp`` per
    amplitude; the kept coefficients hold the levels' phases, which each
    call gathers to the amplitudes.

    ``apply`` takes one state ``(S,)`` or a block ``(r, S)`` of rows, with
    one time or a length-r vector of per-row times.
    """

    def __init__(self, fragment: PauliSumOp, basis: np.ndarray | None = None):
        self.fragment = fragment
        self.n = fragment.n
        terms = fragment.terms
        for i in range(len(terms)):
            for j in range(i + 1, len(terms)):
                if not commutes(terms[i][1], terms[j][1]):
                    raise ValueError(
                        "fragment terms must pairwise commute; "
                        f"{terms[i][1]} and {terms[j][1]} do not"
                    )
        if basis is None:
            basis = np.arange(1 << self.n)
        self.dim = basis.size
        couplings = _couplings(fragment, basis)
        diag = couplings.pop(0, None)
        self._levels, self._level_of = (None, None) if diag is None else _levels(diag.real)
        self._rotations = [rot for x_mask, coupling in couplings.items()
                           for rot in _split(coupling, basis, x_mask)]
        self._cached_key = None
        self._cached = None

    @property
    def passes(self) -> int:
        """Sweeps over the amplitudes per ``apply``: one per rotation, and
        one for the diagonal phase."""
        return len(self._rotations) + (self._levels is not None)

    def _coefficients(self, times: np.ndarray):
        """Phases of the diagonal levels and rotation coefficients for these
        row times.  The last set is kept: a circuit reuses one time vector
        per slot."""
        key = times.tobytes()
        if key != self._cached_key:
            phase = None
            if self._levels is not None:
                phase = np.exp(-1j * np.multiply.outer(times, self._levels))
            rotations = []
            for rot in self._rotations:
                angle = (rot.mag * times)[:, None]
                sin = np.sin(angle)
                rotations.append((rot, np.cos(angle), sin * rot.u_lo, sin * rot.u_hi))
            self._cached = (phase, rotations)
            self._cached_key = key
        return self._cached

    def apply(self, state: np.ndarray, t) -> np.ndarray:
        """Return exp(-i t F) |state>; the input array is not modified.

        ``state`` is ``(S,)`` or ``(r, S)``; ``t`` is a scalar or, for a
        block, a length-r vector of per-row times.
        """
        state = np.asarray(state)
        if state.ndim not in (1, 2) or state.shape[-1] != self.dim:
            raise ValueError(
                f"state of shape {state.shape} does not match {self.n} qubits "
                f"(rows of dimension {self.dim})"
            )
        block = state.ndim == 2
        rows = state.shape[0] if block else 1
        times = np.asarray(t, dtype=float)
        if times.ndim == 0:
            times = np.full(rows, float(times))
        elif times.shape != (rows,) or not block:
            raise ValueError(f"times of shape {times.shape} do not match state of shape {state.shape}")
        out = np.array(state if block else state[None, :], dtype=complex)
        self._apply_in_place(out, times)
        return out if block else out[0]

    def _apply_in_place(self, rows: np.ndarray, times: np.ndarray):
        """Overwrite the complex ``(r, S)`` ``rows`` with exp(-i t_i F) of
        each row, for a length-r vector of row times; no check is made."""
        if not times.any():
            return
        phase, rotations = self._coefficients(times)
        if phase is not None:
            rows *= phase[:, self._level_of]
        for rot, c, a_lo, a_hi in rotations:
            # The gathers copy, so each half is written from them alone.
            x = rows[:, rot.lo]
            y = rows[:, rot.hi]
            new_lo = c * x
            new_lo += a_hi * y
            y *= c
            # Not x *= a_lo: a complex product's bits depend on the order of
            # its operands.
            np.multiply(a_lo, x, out=x)
            y += x
            rows[:, rot.hi] = y
            rows[:, rot.lo] = new_lo


def _subspace(blocks: list[np.ndarray], states: np.ndarray) -> np.ndarray:
    """The sorted basis indices of the blocks that ``states`` (``(..., dim)``)
    touches, that is has a nonzero amplitude on: an invariant subspace that
    holds them.  ``blocks`` holds one ``(count, size)`` index array per block
    size (``pauli._partition``, at any qubit count).  Every index when
    nothing is conserved, none for zero states."""
    dim = states.shape[-1]
    touched = states.reshape(-1, dim).any(axis=0)
    return np.sort(np.concatenate([idx[touched[idx].any(axis=1)].ravel() for idx in blocks]))


# Share of a state's norm that the Chebyshev series of an exact evolution may
# drop: the rigorous bound on the dropped terms sums to no more than this.
_TAIL = 2.0 ** -53

# Amplitudes (K series vectors x S subspace states) that one set of Chebyshev
# vectors may hold, 128 MB; a longer series is refused before any
# matrix-vector product (``_ChebyshevBlock.vectors``).  From the Neel state
# the chain's sector reaches it near t = 258 at n=12 (924 states) and
# t = 1,150 at n=10 (252 states).
_SERIES_MAX = 1 << 23


def _terms(x: float, tail: float) -> int:
    """Fewest terms K of ``exp(-i x y) = sum_k (2 - [k = 0]) (-i)^k J_k(x)
    T_k(y)`` whose dropped terms sum to at most ``tail`` for every y in
    [-1, 1], by the bound ``|J_k(x)| <= (x/2)^k / k!``: from K >= x on the
    bound at least halves from one term to the next, so the dropped terms
    sum to at most ``4 (x/2)^K / K!``."""
    if x == 0.0:
        return 1
    k = max(1, math.ceil(x))
    step = math.log(x / 2.0)
    log_dropped = math.log(4.0) + k * step - math.lgamma(k + 1)
    while log_dropped > math.log(tail):
        k += 1
        log_dropped += step - math.log(k)
    return k


def _bessel(x: float) -> np.ndarray:
    """``J_0(x), J_1(x), ..`` for ``x > 0`` by Miller's backward recurrence,
    in the ratio form ``J_k / J_{k-1} = x / (2k - x J_{k+1} / J_k)``, which
    cannot overflow.  It starts at ``J_{N+1} = 0`` with N the term count for
    the square of :data:`_TAIL`, so the start's error on the terms a series
    keeps is far below its tail, and is normalised by
    ``J_0 + 2 (J_2 + J_4 + ...) = 1``.  Returns ``J_0 .. J_N``."""
    start = _terms(x, _TAIL * _TAIL)
    ratios = np.empty(start)
    r = 0.0
    for k in range(start, 0, -1):
        r = x / (2 * k - x * r)
        ratios[k - 1] = r
    scaled = np.cumprod(np.concatenate(([1.0], ratios)))
    return scaled / (1.0 + 2.0 * scaled[2::2].sum())


def _series(x: float) -> np.ndarray:
    """The Bessel values ``J_0(x) .. J_{K-1}(x)`` of the series of
    ``exp(-i x y)`` that keeps K = ``_terms(x, _TAIL)`` terms, certified:
    the terms it drops (as far as :func:`_bessel` computes them) must sum
    within the tail bound, and the values must satisfy
    ``J_0^2 + 2 (J_1^2 + J_2^2 + ...) = 1``, which their normalisation does
    not impose, to 1e-13."""
    if x == 0.0:
        return np.ones(1)
    values = _bessel(x)
    kept = _terms(x, _TAIL)
    dropped = 2.0 * np.abs(values[kept:]).sum()
    parseval = values[0] ** 2 + 2.0 * (values[1:] ** 2).sum() - 1.0
    if not dropped <= _TAIL:
        raise NumericalDegeneracyError(
            f"Chebyshev certificate failed at x = {x:.6g}: the dropped terms sum to "
            f"{dropped:.3e}, above the tail bound {_TAIL:.3e}")
    if not abs(parseval) <= 1e-13:
        raise NumericalDegeneracyError(
            f"Chebyshev certificate failed at x = {x:.6g}: the Bessel normalisation "
            f"is off by {parseval:.3e}")
    return values[:kept]


class _ChebyshevBlock:
    """H on one invariant subspace (a union of blocks), for the Chebyshev
    series of ``exp(-i t H)`` (Tal-Ezer and Kosloff, J. Chem. Phys. 81, 3967
    (1984)).

    Built from the couplings of ``pauli._couplings`` on the subspace's sorted
    basis indices: row 0 of ``_cols``/``_entries`` is the diagonal, and each
    further row one ``x_mask`` group with a nonzero coupling on it,
    holding the position of each state's partner and ``<i|H|i ^ x_mask>``.
    The spectral interval is Gershgorin's on these rows, which is rigorous
    and needs no diagonalization.  The entries are stored as those of
    ``-i (H - centre) / half``, with the interval's centre and half-width,
    whose spectrum lies in [-i, i].  One product is one gather, one
    multiply and one sum over the rows in their fixed order, and calls no
    BLAS.
    """

    def __init__(self, hamiltonian: PauliSumOp, members: np.ndarray):
        size = members.size
        couplings = _couplings(hamiltonian, members)
        diag = couplings.pop(0, np.zeros(size)).real
        cols, entries = [np.arange(size)], []
        for x_mask, coupling in couplings.items():
            if coupling.any():
                cols.append(_partner_positions(members, x_mask, coupling))
                entries.append(coupling.conj())
        radius = np.abs(np.array(entries)).sum(axis=0) if entries else 0.0
        lo, hi = (diag - radius).min(), (diag + radius).max()
        self.centre, self.half = (lo + hi) / 2.0, (hi - lo) / 2.0
        scale = -1j / self.half if self.half > 0.0 else 0.0
        self._cols = np.array(cols)
        self._entries = np.array([(diag - self.centre) * scale, *(e * scale for e in entries)])

    def vectors(self, psi: np.ndarray, longest: float) -> np.ndarray:
        """The Chebyshev vectors of ``psi`` that the series of every time up
        to ``longest`` in magnitude sums, one row each.

        With ``M = -i (H - centre) / half`` they are ``v_k = (-i)^k T_k(i M)
        psi``: ``v_0 = psi``, ``v_1 = M psi`` and ``v_{k+1} = 2 M v_k +
        v_{k-1}``, K = ``_terms(half * longest, _TAIL)`` of them.  They do
        not depend on t, and each has the same bits however many are made.
        When the K vectors would hold more than :data:`_SERIES_MAX`
        amplitudes the series is refused before any product; K >= x, so x
        times the size above the cap is refused without counting K."""
        x, size = self.half * longest, psi.size
        count = None if x * size > _SERIES_MAX else _terms(x, _TAIL)
        if count is None or count * size > _SERIES_MAX:
            raise ResourceLimitError(
                f"a Chebyshev series of {count or f'at least {x:.0f}'} terms on {size} states "
                f"exceeds the cap of {_SERIES_MAX} amplitudes")
        vectors = np.empty((count, size), dtype=complex)
        vectors[0] = psi
        for k in range(1, count):
            image = (self._entries * vectors[k - 1][self._cols]).sum(axis=0)
            vectors[k] = image if k == 1 else 2.0 * image + vectors[k - 2]
        return vectors

    def evolve(self, vectors: np.ndarray, t: float) -> np.ndarray:
        """``exp(-i t H) psi`` from the Chebyshev vectors of ``psi``
        (:meth:`vectors`, made for a magnitude of at least ``|t|``); at
        t = 0 ``psi`` exactly.

        With ``x = half |t|`` this is ``exp(-i centre t) sum_k (2 - [k = 0])
        J_k(x) sign(t)^k v_k``, so the weights are real.  The time takes its
        own term count and Bessel values, and its sum over its terms runs in
        one fixed order (``np.einsum`` on the real and imaginary parts), so
        the result has the same bits from any set of vectors long enough for
        it.  It must keep the norm of ``psi`` to 1e-12 of it.
        """
        if t == 0.0:
            return vectors[0].copy()
        j = _series(self.half * abs(t))
        weights = 2.0 * j
        weights[0] = j[0]
        if t < 0.0:
            weights[1::2] *= -1.0
        row = (np.einsum("k,ks->s", weights, vectors[:j.size].view(float)).view(complex)
               * np.exp(-1j * self.centre * t))
        psi = vectors[0]
        norm = np.sqrt((psi.real ** 2 + psi.imag ** 2).sum())
        drift = abs(np.sqrt((row.real ** 2 + row.imag ** 2).sum()) - norm)
        if not drift <= 1e-12 * norm:
            raise NumericalDegeneracyError(
                f"Chebyshev certificate failed: an evolved row's norm is off by {drift:.3e}")
        return row


class SpectralOracle:
    """Exact evolution of a 2^n-amplitude state by a Chebyshev series on the
    invariant subspace that it touches.

    The constructor refuses n above ``pauli.DENSE_QUBIT_CAP`` before any
    work, and does nothing else.  The Hamiltonian's invariant blocks are
    found when :meth:`evolve` first needs them.  Each call builds H on the
    union of blocks the state touches (:func:`_subspace`,
    :class:`_ChebyshevBlock`) and keeps nothing; no other block is built,
    and nothing is diagonalized.  Runs take their exact states from
    ``formulas._Walk``, which builds H on its own basis once.
    """

    def __init__(self, hamiltonian: PauliSumOp):
        self.n = hamiltonian.n
        self._hamiltonian = hamiltonian
        _check_qubit_cap(self.n)

    @cached_property
    def _groups(self) -> list[np.ndarray]:
        """The Hamiltonian's invariant blocks (``pauli._partition``)."""
        return _partition([self._hamiltonian])

    def evolve(self, state: np.ndarray, t: float) -> np.ndarray:
        """Return exp(-i t H) |state> for one time t; at t = 0 the input
        exactly.  The series runs on the subspace the state touches, with
        H there and its vectors made for this call alone, and untouched
        blocks stay exactly zero."""
        state, time = np.asarray(state), np.asarray(t, dtype=float)
        if state.shape != (1 << self.n,):
            raise ValueError("dimension mismatch between oracle and state")
        if time.ndim or not np.isfinite(time):
            raise ValueError(f"t must be one finite time, got {t!r}")
        t, out = float(time), state.astype(complex)
        # Nothing is searched or built at t = 0, and nothing is built for a
        # zero state.
        basis = _subspace(self._groups, state) if t else state[:0]
        if basis.size:
            block = _ChebyshevBlock(self._hamiltonian, basis)
            out[basis] = block.evolve(block.vectors(state[basis], abs(t)), t)
        return out


def mixture_trace_norm(states: list[np.ndarray], weights) -> float:
    """Trace norm of ``sum_i w_i |phi_i><phi_i|`` from a QR of the states.

    With the states as the columns of ``S = Q R``, the operator is
    ``Q R diag(w) R^H Q^H`` with orthonormal Q, so its nonzero eigenvalues
    are those of the r x r Hermitian ``R diag(w) R^H`` and the trace norm is
    their absolute sum.
    """
    weights = np.asarray(weights, dtype=float)
    if len(states) != weights.size or weights.size == 0:
        raise ValueError("need matching, nonempty states and weights")
    r = np.linalg.qr(np.stack(states, axis=1), mode="r")
    return float(np.abs(np.linalg.eigvalsh((r * weights) @ r.conj().T)).sum())


def mixture_frobenius_sq(gram: np.ndarray, coeffs, overlaps) -> float:
    """Squared Frobenius distance ``1 + c^T M c - 2 L^T c`` between a pure
    reference state and the coefficient mixture with Gram matrix M and
    reference overlaps L."""
    m = np.asarray(gram, dtype=float)
    c = np.asarray(coeffs, dtype=float)
    ell = np.asarray(overlaps, dtype=float)
    if m.shape != (c.size, c.size) or ell.size != c.size:
        raise ValueError("shape mismatch")
    if not _near_symmetric(m):
        raise ValueError("Gram matrix must be symmetric")
    return float(1.0 + c @ m @ c - 2.0 * ell @ c)


def _near_symmetric(m: np.ndarray) -> bool:
    """``np.allclose(m, m.T, atol=1e-10)`` written out, without its set-up:
    every entry x with mirror y has ``x == y``, or a finite y with ``|x - y|
    <= 1e-10 + 1e-5 |y|``."""
    mt = m.T
    if np.isfinite(m).all():
        return bool((np.abs(m - mt) <= 1e-10 + 1e-5 * np.abs(mt)).all())
    # Entry by entry as Python floats, where inf - inf is a quiet NaN.
    return all(x == y or (math.isfinite(y) and abs(x - y) <= 1e-10 + 1e-5 * abs(y))
               for x, y in zip(m.ravel().tolist(), mt.ravel().tolist()))
