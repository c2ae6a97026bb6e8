"""Product-formula recipes and their repeated application to statevectors.

A recipe is an ordered list of ``(fragment index, time multiplier)`` slots;
slot ``(a, m)`` contributes the unitary ``exp(-i m t F_a)`` and slots are
applied left to right.  Multipliers for each fragment index sum to one, so a
recipe always approximates ``exp(-i t H)`` with ``H`` the fragment sum.

Every state a formula makes from a start state stays in the common invariant
blocks of the fragments that the start touches, whose sorted basis indices
(``statesim._subspace``) are the one subspace of the state path.  A run
(:class:`_Walk`) finds it once and carries its Trotter states, its exact
states and its pushes (:class:`_BlockPower`, built by tiled products,
:func:`_products`) in its coordinates.  ``ProductFormula.apply`` is the
2^n-amplitude form of the same kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .pauli import PauliSumOp, _check_qubit_cap, _partition, commutes
from .statesim import FragmentEvolver, _ChebyshevBlock, _subspace

SUZUKI_ORDERS = (4, 6)
# Amplitudes (rows x the amplitudes of the space the kernel runs on) in one
# block of kernel rows, for a Trotter batch and for a block-power build
# alike.  From the Neel state that space is its total-Z sector: 81 rows of
# 252 amplitudes at n=10 (16 grid points of five circuits), 22 of 924 at
# n=12 (four points).  Each kernel keeps phase arrays of this size, so
# a block costs peak memory as well as saving calls.
_KERNEL_AMPLITUDES = 20 * 1024
# Largest block a power is built for: a 1024-state block is 17 MB per
# matrix once padded to whole tiles (1040), and a build holds several at once.
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

    @cached_property
    def _programs(self) -> dict:
        return {}

    def _program_on(self, basis: np.ndarray) -> tuple[tuple[FragmentEvolver, float], ...]:
        """The recipe as ``(evolver, multiplier)`` slots on the states of
        ``basis``, with one evolver per distinct fragment and adjacent slots
        on equal fragments merged.  Built once per basis."""
        key = basis.tobytes()
        if key not in self._programs:
            evolvers: dict[PauliSumOp, FragmentEvolver] = {}
            program: list[tuple[FragmentEvolver, float]] = []
            for idx, mult in self.steps:
                frag = self.fragments[idx]
                if frag not in evolvers:
                    evolvers[frag] = FragmentEvolver(frag, basis)
                evolver = evolvers[frag]
                if program and program[-1][0] is evolver:
                    program[-1] = (evolver, program[-1][1] + mult)
                else:
                    program.append((evolver, mult))
            self._programs[key] = tuple(program)
        return self._programs[key]

    def apply(self, state: np.ndarray, t, k=1) -> np.ndarray:
        """Return ``S(t)^k |state>``; the input array is not modified.

        ``state`` is ``(2^n,)`` or an ``(r, 2^n)`` block of rows, and for a
        block ``t`` and ``k`` may be length-r vectors: row i gets
        ``S(t_i)^{k_i}``.  The rows run as one block, longest circuit first,
        and a row drops out once its k_i steps are done.  When the
        recipe closes on the fragment it opens with (a palindrome), the
        closing slot of one step and the opening slot of the next run as one
        slot of summed time.  The block runs on the invariant subspace the
        states touch (:meth:`_basis`), with the same bits on its indices as
        on the whole space, and zeros elsewhere.
        """
        state = np.asarray(state)
        if state.ndim not in (1, 2) or state.shape[-1] != 1 << self.n:
            raise ValueError(f"state of shape {state.shape} is not a (2^n,) vector "
                             f"or an (r, 2^n) block for n={self.n}")
        basis = self._basis(state)
        out = np.zeros(state.shape, dtype=complex)
        out[..., basis] = self._apply_on(state[..., basis], t, k, basis)
        return out

    def _apply_on(self, state: np.ndarray, t, k, basis: np.ndarray) -> np.ndarray:
        """:meth:`apply` on ``(S,)`` or ``(r, S)`` states in the coordinates
        of ``basis``, the S sorted indices of a union of common invariant
        blocks of the fragments; the result is in the same coordinates."""
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
        if rows.shape[1] != basis.size:
            raise ValueError(f"states of shape {state.shape} are not in the coordinates of "
                             f"{basis.size} basis states")
        order = np.argsort(-reps, kind="stable")
        # The gather copies, so the kernel works on these rows in place; the
        # live rows lead, and a row whose steps are done stays where it is.
        cur = rows[order].astype(complex, copy=False)
        times, reps = times[order], reps[order]
        program = self._program_on(basis)
        last = len(program) - 1
        wrap = last > 0 and program[0][0] is program[last][0]
        for step in range(reps[0]):
            live = int(np.count_nonzero(reps > step))
            for j, (evolver, mult) in enumerate(program):
                if wrap and j == 0 and step > 0:
                    continue
                if wrap and j == last:
                    mult = np.where(reps[:live] > step + 1, mult + program[0][1], mult)
                evolver._apply_in_place(cur[:live], mult * times[:live])
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
    pushes of ``count`` states each, on the states of ``basis``, the sorted
    indices of a union of common invariant blocks of the fragments
    (``ProductFormula._basis``): run either step by step through the kernel
    or through its power built on that subspace.

    The constructor decides, once and for every push, which of the two it
    is.  It builds if all the pushes through the kernel, k steps on each
    state, would cost at least as much as building the power (a kernel step
    on each basis state of the subspace, and the products of the squaring),
    and then builds it at once.  The costs count multiply-adds from the
    sizes alone (:data:`_SWEEP_COST` per amplitude a kernel pass sweeps), so
    the choice, and with it every output bit, does not depend on timing.  A
    subspace above :data:`_BUILD_MAX` states always runs through the kernel;
    a smaller one builds by the same rule at any qubit count, above
    ``pauli.DENSE_QUBIT_CAP`` too (a 2-state block at 13).  From the Neel
    state with k0=26 and five states the rule builds for 8 pushes or more at
    n=10 (the 252-state sector) and for 75 or more at n=12 (924 states).
    The power is one kernel step S(t) on the basis states of the subspace,
    in its coordinates and :func:`_kernel_rows` rows per call, then the k-th
    power by repeated squaring.
    """

    def __init__(self, pf: ProductFormula, basis: np.ndarray, t: float, k: int, pushes: int,
                 count: int):
        if not (t > 0 and pushes >= 1):
            raise ValueError(f"need t > 0 and pushes >= 1; got {t}, {pushes}")
        self._pf, self._basis, self._t, self._k = pf, basis, float(t), _step_count(k)
        # The power, padded to whole tiles; None when every push runs
        # through the kernel.
        self._power = self._build() if self._build_pays(pushes, count) else None

    def _build_pays(self, pushes: int, count: int) -> bool:
        """Whether building the power on the subspace costs no more than
        pushing ``count`` states through the kernel at every push."""
        size, k, pf = self._basis.size, self._k, self._pf
        if not 0 < size <= _BUILD_MAX:
            return False
        # Cost of one step S(t) per amplitude it sweeps, counted on the
        # program a kernel push runs.
        sweep = _SWEEP_COST * sum(ev.passes for ev, _ in pf._program_on(self._basis))
        products = k.bit_length() + k.bit_count() - 2
        build = size * size * sweep + products * size ** 3
        return pushes * k * count * size * sweep >= build

    def _build(self) -> np.ndarray:
        """``S(t)^k`` on the subspace, zero-padded to whole tiles of the
        block products (:func:`_products`): the step is allocated padded, so
        neither the squaring nor a push pads or copies it, and it is filled
        through its ``size``-square view, so the padding stays zero and no
        index here depends on it."""
        size = self._basis.size
        width = _kernel_rows(size)
        step = np.zeros((_whole(size), _whole(size)), dtype=complex)
        block = step[:size, :size]
        for lo in range(0, size, width):
            # Basis states lo, lo + 1, ... of the subspace, in its
            # coordinates; their images are those columns of S(t).
            basis_rows = np.eye(min(width, size - lo), size, lo, dtype=complex)
            block[:, lo:lo + width] = self._pf._apply_on(basis_rows, self._t, 1, self._basis).T
        power, k = None, self._k
        while True:
            if k & 1:
                power = step if power is None else _products(power, step)
            k >>= 1
            if not k:
                return power
            step = _products(step, step)

    def apply(self, rows: np.ndarray) -> np.ndarray:
        """Return ``S(t)^k`` applied to each row of an ``(r, S)`` array of
        states in the coordinates of the basis, as rows."""
        size = self._basis.size
        if rows.ndim != 2 or rows.shape[1] != size:
            # The products zero-pad, so a narrower row would pass silently.
            raise ValueError(f"states of shape {rows.shape} are not rows of the push's "
                             f"{size} basis states")
        if self._power is None:
            return self._pf._apply_on(rows, self._t, self._k, self._basis)
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
    sums the exact states from one set of its Chebyshev vectors, made for
    the grid's largest |t|.  The constructor refuses n above
    ``pauli.DENSE_QUBIT_CAP`` and any step count :func:`_step_count` refuses
    before any search, and a series too long before any Trotter state.
    :meth:`push` makes the run's :class:`_BlockPower` on the basis.
    """

    def __init__(self, pf: ProductFormula, psi_in: np.ndarray, times: np.ndarray, steps):
        _check_qubit_cap(pf.n)
        self._steps = np.array([_step_count(k) for k in steps], dtype=int)
        psi_in = np.asarray(psi_in)
        self._pf, self._times = pf, np.asarray(times, dtype=float)
        self._basis = pf._basis(psi_in)
        self._psi = psi_in[self._basis]
        self._exact = _ChebyshevBlock(pf.hamiltonian, self._basis)
        self._vectors = self._exact.vectors(self._psi, np.abs(self._times).max(initial=0.0))

    def __iter__(self):
        r, size = self._steps.size, self._basis.size
        points = max(1, _kernel_rows(size) // max(1, r))
        for lo in range(0, self._times.size, points):
            batch = self._times[lo:lo + points]
            rows = self._pf._apply_on(np.broadcast_to(self._psi, (r * batch.size, size)),
                                      (batch[:, None] / self._steps).ravel(),
                                      np.tile(self._steps, batch.size), self._basis)
            for j, t in enumerate(batch):
                yield rows[j * r:(j + 1) * r], self._exact.evolve(self._vectors, t)

    def push(self, t: float, k: int, pushes: int) -> _BlockPower:
        """The run's ``S(t)^k`` for ``pushes`` pushes of its r states."""
        return _BlockPower(self._pf, self._basis, t, k, pushes, self._steps.size)


def _palindromic(fragments: tuple[PauliSumOp, ...]) -> bool:
    m = len(fragments)
    return all(fragments[a] == fragments[m - 1 - a] for a in range(m // 2))


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
    """Symmetric (palindromic) second-order recipe from the given fragments.

    A fragment list that is already palindromic (like the Heisenberg
    F1..F5 splitting) is used verbatim, one slot per fragment.  Otherwise the
    Strang palindrome is built: half-time sweeps around a full-time middle.
    """
    frags = tuple(fragments)
    m = len(frags)
    if m == 0:
        raise ValueError("need at least one fragment")
    if _palindromic(frags):
        steps = tuple((a, 1.0) for a in range(m))
    else:
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
