"""Product-formula recipes and their repeated application to statevectors.

A recipe is an ordered list of ``(fragment index, time multiplier)`` slots;
slot ``(a, m)`` contributes the unitary ``exp(-i m t F_a)`` and slots are
applied left to right.  Multipliers for each fragment index sum to one, so a
recipe always approximates ``exp(-i t H)`` with ``H`` the fragment sum.

Every state a formula makes from a start state stays in the common invariant
blocks of the fragments that the start touches, whose sorted basis indices
(``statesim._subspace``) are the one subspace of the state path.  A run
(:class:`_Walk`) finds it once, builds its one kernel program there
(:class:`_Program`), and carries its Trotter states, its exact states and
its pushes (:class:`_BlockPower`, built by tiled products, :func:`_products`)
in its coordinates.  ``ProductFormula.apply`` is the 2^n-amplitude form of
the same kernel, with a program per call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ResourceLimitError
from .pauli import PauliSumOp, _check_qubit_cap, _partition, commutes
from .statesim import FragmentEvolver, _ChebyshevBlock, _subspace

SUZUKI_ORDERS = (4, 6)
# Amplitudes (rows x the amplitudes of the space the kernel runs on) in one
# block of kernel rows, for a Trotter batch and for a block-power build
# alike.  From the Neel state that space is its total-Z sector: 81 rows of
# 252 amplitudes at n=10 (16 grid points of five circuits), 22 of 924 at
# n=12 (four points).  A block's memory is its rows plus, while a slot
# runs, the phase gathered to them or a rotation's gathered halves; its
# coefficient sets hold rows x levels phases and a rotation's coefficients
# per row (per row and pair where its pairs' couplings differ).
_KERNEL_AMPLITUDES = 20 * 1024
# Largest block a power is built for: a 1024-state block is 17 MB per
# matrix once padded to whole tiles (1040), and a build holds two at once
# (the power and a squaring's output).
_BUILD_MAX = 1024
# Cost of one kernel pass over one amplitude, in complex multiply-adds of a
# block product, fitted to wall time: from the Neel state with k0=26 and r=5
# (2 BLAS threads, medians of four in-process runs) the build pays from 4.5
# pushes at n=10 and 122 at n=12, counting the block pushes after it; 28 puts
# the rule (its thresholds are in `_BlockPower`) within 1.8x of both.  With
# the in-place kernel, which speeds the build's kernel steps and the kernel
# pushes alike, three such medians gave 4.8-5.6 pushes at n=10 and 130-155
# at n=12 (113-157 with the copying kernel, alternating), so the rule stays
# within 2x of both.  A pass costs 8-23 ns per amplitude against 0.3-0.4 ns
# per multiply-add of the squaring.
_SWEEP_COST = 28
# Block passes that one kernel call may make: a step S(t) makes its
# program's passes (a rotation, or a diagonal phase) over each block of
# `_KERNEL_AMPLITUDES` amplitudes of its rows, and fewer rows count as
# a whole block, since a pass pays its set-up however few amplitudes it
# sweeps.  A call above it is refused before its first step, and a walk whose
# Trotter batches would make more is refused before its series
# (`_Program.check`).  A block pass took 5-7 us on one row of 2 or 6 states
# (n=2, and n=4 at p=2 and 4), 37-75 us on the sectors of 252 and 924
# states at n=10 and 12, and 144-162 us on rows of all 4096 states at n=12
# (p=2 and 4, one BLAS thread), so a call at the cap runs for 5 s to 2.7
# minutes.  The n=12 shootout makes 714 a batch and 546 a push.
_PASSES_MAX = 1_000_000


def _step_count(k, name: str = "k") -> int:
    """A step count as an int: an integer >= 1, where an integral float
    reads as its integer (4.0 as 4).  Anything else (2.5, 0, -1, NaN, inf)
    is refused, so no circuit runs other than the one asked for."""
    try:
        count = int(k)
    except (TypeError, ValueError, OverflowError):
        count = 0
    if count < 1 or count != k:
        raise ValueError(f"step count {name} must be an integer >= 1")
    return count


@dataclass(frozen=True)
class ProductFormula:
    """An ordered exponential recipe over a fragment registry."""

    fragments: tuple[PauliSumOp, ...]
    steps: tuple[tuple[int, float], ...]
    order: int

    def __post_init__(self):
        if not self.fragments:
            raise ValueError("need at least one fragment")
        n = self.fragments[0].n
        if any(f.n != n for f in self.fragments):
            raise ValueError("fragments act on different qubit counts")
        count = len(self.fragments)
        sums = np.zeros(count)
        for idx, mult in self.steps:
            if not isinstance(idx, (int, np.integer)) or not 0 <= idx < count:
                raise ValueError(f"fragment index {idx!r} outside [0, {count})")
            sums[idx] += mult
        if not np.allclose(sums, 1.0, atol=1e-12):
            raise ValueError("per-fragment multipliers must sum to 1")

    @property
    def n(self) -> int:
        return self.fragments[0].n

    @cached_property
    def hamiltonian(self) -> PauliSumOp:
        total = self.fragments[0]
        for frag in self.fragments[1:]:
            total = total + frag
        return total

    @cached_property
    def slot_operators(self) -> tuple[PauliSumOp, ...]:
        """Effective operator of each slot: multiplier times fragment."""
        return tuple(mult * self.fragments[idx] for idx, mult in self.steps)

    @cached_property
    def _blocks(self) -> list[np.ndarray]:
        """Common invariant blocks of the distinct fragments, one
        ``(count, size)`` array of ascending basis indices per block size
        (``pauli._partition``), at any qubit count."""
        return _partition(list(dict.fromkeys(self.fragments)))

    def _basis(self, states: np.ndarray) -> np.ndarray:
        """The sorted basis indices of the common invariant blocks that
        ``states`` (``(..., 2^n)``) touches (``statesim._subspace``): an
        invariant subspace that holds every state the formula makes from
        them.  Every index when nothing is conserved, none for zero states."""
        return _subspace(self._blocks, states)

    def apply(self, state: np.ndarray, t, k=1) -> np.ndarray:
        """Return ``S(t)^k |state>``; the input array is not modified.

        ``state`` is ``(2^n,)`` or an ``(r, 2^n)`` block of rows, and for a
        block ``t`` and ``k`` may be length-r vectors: row i gets
        ``S(t_i)^{k_i}``.  The rows run as one block through a
        :class:`_Program` on the invariant subspace the states touch
        (:meth:`_basis`), with the same bits on its indices as on the whole
        space, and zeros elsewhere.
        """
        state = np.asarray(state)
        if state.ndim not in (1, 2) or state.shape[-1] != 1 << self.n:
            raise ValueError(f"state of shape {state.shape} is not a (2^n,) vector "
                             f"or an (r, 2^n) block for n={self.n}")
        basis = self._basis(state)
        out = np.zeros(state.shape, dtype=complex)
        out[..., basis] = _Program(self, basis).apply(state[..., basis], t, k)
        return out


class _Program:
    """A formula's kernel program on the states of ``basis``, the S sorted
    indices of a union of common invariant blocks of the fragments, built
    once by the owner of that subspace: a run's walk (:class:`_Walk`), or
    one ``ProductFormula.apply`` call.  ``slots`` are ``(evolver,
    multiplier)`` pairs, one evolver per distinct fragment and adjacent
    slots on equal fragments merged; ``passes`` counts the kernel passes of
    a step S(t); ``merged`` is the slot that runs the closing slot of one
    step and the opening slot of the next as one, when the recipe closes on
    the fragment it opens with (a palindrome), and None otherwise."""

    def __init__(self, pf: ProductFormula, basis: np.ndarray):
        self.basis = basis
        evolvers = {frag: FragmentEvolver(frag, basis) for frag in dict.fromkeys(pf.fragments)}
        slots: list[tuple[FragmentEvolver, float]] = []
        for idx, mult in pf.steps:
            evolver = evolvers[pf.fragments[idx]]
            if slots and slots[-1][0] is evolver:
                slots[-1] = (evolver, slots[-1][1] + mult)
            else:
                slots.append((evolver, mult))
        self.slots = tuple(slots)
        self.passes = sum(ev.passes for ev, _ in slots)
        (head, opening), (tail, closing) = slots[0], slots[-1]
        self.merged = (tail, closing + opening) if len(slots) > 1 and head is tail else None

    def check(self, rows: int, steps: int):
        """Refuse ``steps`` steps on ``rows`` rows when they would make more
        than :data:`_PASSES_MAX` block passes."""
        passes = steps * self.passes * -(-rows * self.basis.size // _KERNEL_AMPLITUDES)
        if passes > _PASSES_MAX:
            raise ResourceLimitError(
                f"a kernel call of {steps} steps on {rows} rows makes {passes} block passes, "
                f"above the cap of {_PASSES_MAX}")

    def apply(self, state: np.ndarray, t, k) -> np.ndarray:
        """``ProductFormula.apply`` on ``(S,)`` or ``(r, S)`` states in the
        coordinates of the basis; the result is in the same coordinates.
        Steps past :data:`_PASSES_MAX` are refused before the first.

        The call computes one coefficient set per distinct slot, the merged
        one included, for every row's time.  The rows are sorted longest
        circuit first, so at each step the live rows lead, and those that
        go on lead the live ones: the merged slot runs on that first range
        and the plain closing slot on the rest."""
        rows = state if state.ndim == 2 else state[None]
        count = rows.shape[0]
        try:
            times = np.broadcast_to(np.asarray(t, dtype=float), (count,))
            reps = np.broadcast_to(np.asarray(k), (count,))
        except ValueError:
            raise ValueError(f"t and k must be scalars or have one entry per row ({count})") from None
        if not np.isfinite(times).all():
            raise ValueError("t must be finite")
        reps = np.array([_step_count(rep) for rep in reps], dtype=int)
        if count == 0:
            return rows.astype(complex)
        if rows.shape[1] != self.basis.size:
            raise ValueError(f"states of shape {state.shape} are not in the coordinates of "
                             f"{self.basis.size} basis states")
        self.check(count, int(reps.max()))
        order = np.argsort(-reps, kind="stable")
        # The gather copies, so the kernel works on these rows in place; the
        # live rows lead, and a row whose steps are done stays where it is.
        cur = rows[order].astype(complex, copy=False)
        times, reps = times[order], reps[order]
        slots, merged = self.slots, self.merged
        last = len(slots) - 1
        sets = {slot: slot[0]._coefficients(slot[1] * times)
                for slot in dict.fromkeys(slots if merged is None else (*slots, merged))}
        for step in range(reps[0]):
            live = int(np.count_nonzero(reps > step))
            on = int(np.count_nonzero(reps > step + 1))
            for j, slot in enumerate(slots):
                if merged is not None and j == 0 and step > 0:
                    continue
                runs = [(slot, 0, live)]
                if merged is not None and j == last:
                    runs = [(merged, 0, on), (slot, on, live)]
                for key, lo, hi in runs:
                    if lo < hi:
                        slot[0]._apply_in_place(cur, sets[key], lo, hi)
        out = np.empty(rows.shape, dtype=complex)
        out[order] = cur
        return out if state.ndim == 2 else out[0]


def _kernel_rows(dim: int) -> int:
    """Rows of ``dim`` amplitudes in one block of kernel rows: as many as
    fit :data:`_KERNEL_AMPLITUDES`, and at least one."""
    return max(1, _KERNEL_AMPLITUDES // max(1, dim))


# Largest tile edge of the block products.  OpenBLAS runs a complex product
# of up to 65,536 multiply-adds (40^3 = 64,000) on the calling thread and
# larger ones (41^3 on) on two, so every tile product stays on one thread,
# and the products' bits do not depend on the BLAS thread count (a test
# compares 1 and 2 threads).
_TILE = 40


def _tile(size: int) -> int:
    """Edge of the fewest tiles of at most :data:`_TILE` that cover ``size``
    with the least padding (36 for 252, 39 for 924).  A size padded to
    whole tiles has the same edge."""
    return -(-size // -(-size // _TILE))


def _tiles(x: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """An ``(R, C)`` matrix as ``(R/rows, C/cols, rows, cols)`` tiles,
    zero-padded to whole tiles; a matrix already padded is viewed in
    place."""
    r, c = x.shape
    pad_r, pad_c = -r % rows, -c % cols
    if pad_r or pad_c:
        x = np.pad(x, ((0, pad_r), (0, pad_c)))
    return x.reshape((r + pad_r) // rows, rows, (c + pad_c) // cols, cols).swapaxes(1, 2)


def _whole(size: int) -> int:
    """``size`` padded to whole tiles (252 for 252, 936 for 924)."""
    return size + -size % _tile(size)


def _products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The matrix product ``a @ b`` from BLAS products of tiles at most
    :data:`_TILE` on a side, summed over the inner tiles in a fixed order,
    so each tile product runs on one thread and the bits do not depend on
    the BLAS thread count, as those of a whole-matrix BLAS product do.

    Either operand may come padded to whole tiles, as the block power's
    stored step does, and the inner sizes need only agree once padded: the
    tiles are then the same zero-padded ones, so the bits are those of the
    unpadded operands.  The result has the rows of ``a`` and the columns of
    ``b`` as given, padding included.

    The tile products are summed a band of row tiles at a time: as many as
    keep the band's partial sums no larger than one row of tiles of ``a``,
    and at least one.  A squaring thus holds one row of tiles of partial
    sums at once, and a push of a few states runs as one band.  A band
    changes no bit: every tile sums its products in the same order."""
    (m, inner), n = a.shape, b.shape[1]
    tm, tk, tn = _tile(m), _tile(inner), _tile(n)
    a4, b4 = _tiles(a, tm, tk), _tiles(b, tk, tn)
    out = np.empty((a4.shape[0], tm, b4.shape[1], tn), dtype=np.result_type(a, b))
    # The tile products land in the tiles of the result, so it needs no copy.
    tiles = out.swapaxes(1, 2)
    band = max(1, a4.size // out.size)
    for lo in range(0, a4.shape[0], band):
        rows = tiles[lo:lo + band]
        np.matmul(a4[lo:lo + band, 0, None], b4[None, 0], out=rows)
        for j in range(1, a4.shape[1]):
            rows += a4[lo:lo + band, j, None] @ b4[None, j]
    return out.reshape(a4.shape[0] * tm, b4.shape[1] * tn)[:m, :n]


class _BlockPower:
    """``S(t)^k`` of a formula for one ``(t, k)`` and a known number of
    pushes of ``count`` states each, on the basis of ``program``, the run's
    kernel program (:class:`_Program`): run either step by step through
    that program or through its power built on that subspace.

    The constructor decides, once and for every push, which of the two it
    is.  It builds if all the pushes through the kernel, k steps on each
    state, would cost at least as much as building the power (counted as
    one kernel step on each basis state of the subspace and the products of
    a right-to-left squaring, six for k=26), and then builds it at once.
    The costs count multiply-adds from the sizes alone (:data:`_SWEEP_COST`
    per amplitude a kernel pass sweeps), so the choice, and with it every
    output bit, does not depend on timing.  A subspace above
    :data:`_BUILD_MAX` states always runs through the kernel; a smaller one
    builds by the same rule at any qubit count, above
    ``pauli.DENSE_QUBIT_CAP`` too (a 2-state block at 13).  From the Neel
    state with k0=26 and five states the rule builds for 8 pushes or more at
    n=10 (the 252-state sector), 22 or more at n=11 (462 states) and 75 or
    more at n=12 (924 states).

    The power is built left to right over the bits of k: a squaring by
    tiled products per bit below the top one, and a step S(t) of the
    program on the columns of the power, :func:`_kernel_rows` per call, per
    set bit (four products and three steps for k=26).
    """

    def __init__(self, program: _Program, t: float, k: int, pushes: int, count: int):
        if not (t > 0 and pushes >= 1):
            raise ValueError(f"need t > 0 and pushes >= 1; got {t}, {pushes}")
        self._program, self._t, self._k = program, float(t), _step_count(k)
        # The power, padded to whole tiles; None when every push runs
        # through the kernel.
        self._power = self._build() if self._build_pays(pushes, count) else None

    def _build_pays(self, pushes: int, count: int) -> bool:
        """Whether building the power on the subspace costs no more than
        pushing ``count`` states through the kernel at every push."""
        size, k = self._program.basis.size, self._k
        if not 0 < size <= _BUILD_MAX:
            return False
        # Cost of one step S(t) per amplitude it sweeps, counted on the
        # program a kernel push runs.
        sweep = _SWEEP_COST * self._program.passes
        # One step and the products of a right-to-left squaring, as the
        # thresholds were fitted, though :meth:`_build` makes fewer products
        # and one step per set bit of k.
        products = k.bit_length() + k.bit_count() - 2
        build = size * size * sweep + products * size ** 3
        return pushes * k * count * size * sweep >= build

    def _build(self) -> np.ndarray:
        """``S(t)^k`` on the subspace, zero-padded to whole tiles of the
        block products (:func:`_products`), so neither a squaring nor a push
        pads or copies it.  The power starts as the identity, so the top bit
        of k steps the basis states; only the power and a squaring's output
        are whole matrices at once.  The steps run through its
        ``size``-square view, so the padding stays zero and no index here
        depends on it."""
        size = self._program.basis.size
        power = np.zeros((_whole(size), _whole(size)), dtype=complex)
        np.fill_diagonal(power[:size, :size], 1.0)
        for j, bit in enumerate(f"{self._k:b}"):
            if j:
                power = _products(power, power)
            if bit == "1":
                self._step(power[:size, :size])
        return power

    def _step(self, block: np.ndarray):
        """Replace each column of the ``(S, S)`` view ``block`` by its image
        under one step S(t) of the program, :func:`_kernel_rows` columns
        per call.  Only the call holds the view, so a squaring after it
        does not keep the power it was taken from."""
        width = _kernel_rows(block.shape[0])
        for lo in range(0, block.shape[1], width):
            cols = block[:, lo:lo + width]
            cols[:] = self._program.apply(cols.T, self._t, 1).T

    def apply(self, rows: np.ndarray) -> np.ndarray:
        """Return ``S(t)^k`` applied to each row of an ``(r, S)`` array of
        states in the coordinates of the basis, as rows."""
        size = self._program.basis.size
        if rows.ndim != 2 or rows.shape[1] != size:
            # The products zero-pad, so a narrower row would pass silently.
            raise ValueError(f"states of shape {rows.shape} are not rows of the push's "
                             f"{size} basis states")
        if self._power is None:
            return self._program.apply(rows, self._t, self._k)
        return _products(self._power, rows.T)[:size].T


class _Walk:
    """One run's states over a grid of ``times``, all in the coordinates of
    the subspace its initial state touches (:meth:`ProductFormula._basis`,
    found once): arrays of S amplitudes, not 2^n.

    Iterating yields ``(states, exact)`` at each time in turn: the r Trotter
    states ``S(t/k_i)^{k_i} psi_in`` of the step counts ``steps`` as an
    ``(r, S)`` array, and ``exp(-i t H) psi_in``; a time of 0 yields the
    input state exactly in both.  The Trotter states run a batch of grid
    points at a time, as many as fit one block of kernel rows
    (:func:`_kernel_rows`) and at least one; the kernel works on each row
    alone, so every state has the bits of ``dynamic_mpf.trotter_states`` at
    its time on the basis.  H, the fragments' sum, keeps that basis
    invariant; the walk builds it there (``statesim._ChebyshevBlock``) and
    streams the exact states of a window of consecutive times at a time
    (``_ChebyshevBlock.rows``), whose rows and Bessel weights hold no more
    amplitudes than the K x S of the series of the grid's largest |t|
    (``_ChebyshevBlock.window``): one window for the whole grid of the
    n=10 and 12 shootouts and the sweeps' default grids.  The constructor refuses n above ``pauli.DENSE_QUBIT_CAP`` and
    any step count :func:`_step_count` refuses before any search, and
    batches past :data:`_PASSES_MAX` or a series too long before any
    Trotter state.  A window's rows are made when iteration reaches it, so
    the first comes after the run's push (:meth:`push`) and before the
    first Trotter batch.  Each point's Trotter states and exact state are
    yielded as copies, and each batch is dropped before the next is made,
    so a caller that keeps the previous point keeps no batch.
    Its one :class:`_Program` runs every batch, and :meth:`push` hands it
    to the run's :class:`_BlockPower`.
    """

    def __init__(self, pf: ProductFormula, psi_in: np.ndarray, times: np.ndarray, steps):
        _check_qubit_cap(pf.n)
        self._steps = np.array([_step_count(k) for k in steps], dtype=int)
        psi_in = np.asarray(psi_in)
        self._times = np.asarray(times, dtype=float)
        basis = pf._basis(psi_in)
        self._program = _Program(pf, basis)
        self._points = max(1, _kernel_rows(basis.size) // max(1, self._steps.size))
        self._program.check(min(self._points, self._times.size) * self._steps.size,
                            int(self._steps.max(initial=0)))
        self._psi = psi_in[basis]
        self._exact = _ChebyshevBlock(pf.hamiltonian, basis)
        self._window = self._exact.window(np.abs(self._times).max(initial=0.0))

    def __iter__(self):
        r, size, points = self._steps.size, self._psi.size, self._points
        for start in range(0, self._times.size, self._window):
            times = self._times[start:start + self._window]
            exact = self._exact.rows(self._psi, times)
            for lo in range(0, times.size, points):
                batch = times[lo:lo + points]
                rows = self._program.apply(np.broadcast_to(self._psi, (r * batch.size, size)),
                                           (batch[:, None] / self._steps).ravel(),
                                           np.tile(self._steps, batch.size))
                for j in range(batch.size):
                    yield rows[j * r:(j + 1) * r].copy(), exact[lo + j].copy()
                # The next batch is made without this one.
                del rows
            del exact

    def push(self, t: float, k: int, pushes: int) -> _BlockPower:
        """The run's ``S(t)^k`` for ``pushes`` pushes of its r states."""
        return _BlockPower(self._program, t, k, pushes, self._steps.size)


def fragment_by_commuting_groups(op: PauliSumOp) -> list[PauliSumOp]:
    """Greedily split an operator into fragments of pairwise-commuting terms.

    Terms are scanned in normalized order and placed into the first existing
    group they commute with, so the split is deterministic.  Useful for
    building a product formula from a Hamiltonian with no hand-made
    decomposition.
    """
    groups: list[list[tuple[float, object]]] = []
    for coeff, ps in op.terms:
        for group in groups:
            if all(commutes(ps, other) for _, other in group):
                group.append((coeff, ps))
                break
        else:
            groups.append([(coeff, ps)])
    return [PauliSumOp.from_terms(op.n, g) for g in groups]


def second_order(fragments) -> ProductFormula:
    """The Strang palindrome of the given fragments: a half-time slot of
    each fragment but the last, a full-time slot of the last, then the
    half-time slots in reverse.  This is the one rule, so a fragment list
    that is itself a palindrome gets its Strang palindrome too."""
    frags = tuple(fragments)
    m = len(frags)
    if m == 0:
        raise ValueError("need at least one fragment")
    up = [(a, 0.5) for a in range(m - 1)]
    steps = tuple(up + [(m - 1, 1.0)] + up[::-1])
    return ProductFormula(fragments=frags, steps=steps, order=2)


def suzuki(base: ProductFormula, order: int) -> ProductFormula:
    """Suzuki recursion from a second-order base to order 4 or 6.

    Each level replaces S_{2k} by five copies with times
    (u, u, 1-4u, u, u) where u = 1/(4 - 4^{1/(2k+1)}); multipliers are
    computed in closed form and flattened into one recipe.
    """
    if base.order != 2:
        raise ValueError("Suzuki recursion starts from a second-order formula")
    if order not in SUZUKI_ORDERS:
        raise ValueError(f"unsupported target order {order}; choose from {SUZUKI_ORDERS}")
    steps = list(base.steps)
    for level in range(1, (order - 2) // 2 + 1):
        u = 1.0 / (4.0 - 4.0 ** (1.0 / (2 * level + 1)))
        scaled = [(idx, u * m) for idx, m in steps]
        middle = [(idx, (1.0 - 4.0 * u) * m) for idx, m in steps]
        steps = scaled + scaled + middle + scaled + scaled
    return ProductFormula(fragments=base.fragments, steps=tuple(steps), order=order)


def rho_k_state(pf: ProductFormula, psi_in: np.ndarray, t: float, k: int) -> np.ndarray:
    """Apply k repetitions of S(t/k) to the initial state."""
    k = _step_count(k)
    return pf.apply(psi_in, t / k, k)
