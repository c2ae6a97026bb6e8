"""Rigorous error-bound machinery: nested-commutator aggregates, the
one-step/k-step product-formula bound, the multi-product bound with its
a1/a2/a3 coefficients, and Bernoulli numbers.

Every norm is the exact largest |eigenvalue| of a Hermitian or
anti-Hermitian piece inside the invariant blocks of the operators involved
(e.g. the total-Z sectors of the Heisenberg chain), read straight from their
Pauli terms (``pauli.invariant_blocks``); no 2^n x 2^n matrix is built.  Every
aggregate is a function of a product formula.  One composition pass over its
slot chains builds and norms each distinct nested commutator once: in the
formula's block form up to n = 8, and above that as Pauli sums put in block
form for the norm, up to DENSE_QUBIT_CAP (12) qubits.  One function,
``formula_conjugated_sum``, chooses that route for a whole set of aggregates;
larger systems are refused before any work.  The multi-product bound's
window aggregates (the maxima of ``||Ad_H^l(U C U^dag)||`` over
partial-product unitaries U) are certified from the same block spectra, up
to n = 8: no unitary is built or sampled.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .errors import ResourceLimitError
from .formulas import ProductFormula, _step_count
from .pauli import PauliSumOp, _check_qubit_cap, commutator_minus_i, invariant_blocks
from .static_mpf import MpfScheme

DENSE_NORM_CAP = 8
SYMBOLIC_TERM_GUARD = 10**6


# -- Bernoulli numbers -------------------------------------------------------

@lru_cache(maxsize=None)
def bernoulli(order: int) -> Fraction:
    """Exact Bernoulli number B_order (B_1 = -1/2 convention), order <= 30."""
    if order < 0 or order > 30:
        raise ValueError("supported range is 0 <= order <= 30")
    if order == 0:
        return Fraction(1)
    # sum_{j=0}^{m} C(m+1, j) B_j = 0 solved for B_m.
    total = Fraction(0)
    for j in range(order):
        total += math.comb(order + 1, j) * bernoulli(j)
    return -total / (order + 1)


# -- block form --------------------------------------------------------------

def _block_ad(a: list[np.ndarray], x: list[np.ndarray]) -> list[np.ndarray]:
    """Blockwise commutator [A, X]; A broadcasts against leading axes of X."""
    return [ag @ xg - xg @ ag for ag, xg in zip(a, x)]


def _block_is_zero(x: list[np.ndarray]) -> bool:
    return not any(g.any() for g in x)


def _block_extremes(x: list[np.ndarray], anti: bool) -> list[tuple[np.ndarray, np.ndarray]]:
    """Smallest and largest eigenvalue of every block of block-form Hermitian
    matrices (anti-Hermitian ones with ``anti``, multiplied by i first), from
    one ``eigvalsh`` per block size.  Leading axes are kept, blocks last."""
    spectra = [np.linalg.eigvalsh(1j * g if anti else g) for g in x]
    return [(v[..., 0], v[..., -1]) for v in spectra]


def _extreme_norms(extremes: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """Spectral norms from block extremes: the largest |eigenvalue| over all blocks."""
    return np.max([np.maximum(np.abs(lo), np.abs(hi)).max(axis=-1) for lo, hi in extremes],
                  axis=0)


def _block_norms(x: list[np.ndarray], anti: bool) -> np.ndarray:
    """Spectral norms of block-form Hermitian matrices (anti-Hermitian ones
    with ``anti``): the largest |eigenvalue| over all blocks."""
    return _extreme_norms(_block_extremes(x, anti))


# -- spectral norms ----------------------------------------------------------

def spectral_norm_dense(matrix: np.ndarray) -> float:
    """Largest singular value of a dense matrix."""
    return float(np.linalg.norm(matrix, 2))


def spectral_norm_symbolic(op: PauliSumOp) -> float:
    """Spectral norm of a Hermitian Pauli sum: the largest |eigenvalue| over
    its invariant blocks (n <= DENSE_QUBIT_CAP)."""
    _check_qubit_cap(op.n)
    if op.is_empty:
        return 0.0
    return float(_block_norms(invariant_blocks([op])[1][0], anti=False))


# -- composition sums over nested commutators --------------------------------

def _compositions(slots, total: int, form, ad, is_zero) -> tuple[np.ndarray, list]:
    """The distinct pieces Ad_{G_D}^{q_D}..Ad_{G_a}^{q_a}(G_{a-1}) over every
    slot chain a = 2..D of the slot operators G_1..G_D and every composition
    (q_a..q_D) of ``total``, in first-reached order, with their summed weights
    total!/(q_a!..q_D!).  Each chain is walked from G_{a-1} outward.

    A piece is keyed by its target and the operators applied to it, innermost
    first, as small integer ids, and built once as ``ad(form(G), shorter
    piece)``, where ``form`` gives a slot operator's route operand; ``is_zero``
    prunes every extension of a zero piece.  Along a chain, compositions that
    reach one piece with one budget used are merged, their weights carried as
    summed products of C(budget left, q).
    """
    ids: dict[PauliSumOp, int] = {}
    seq = [ids.setdefault(op, len(ids)) for op in slots]
    values = [form(op) for op in ids]  # a target's piece has its operator's id
    nodes: dict[tuple[int, int], int] = {}  # (shorter piece, operator) -> piece
    weights: dict[int, int] = {}
    for a in range(1, len(seq)):
        states = {(seq[a - 1], 0): 1}  # (piece, budget used) -> weight so far
        for op in seq[a:]:
            grown: dict[tuple[int, int], int] = {}
            for (cur, used), w in states.items():
                for q in range(total - used + 1):
                    if q > 0:
                        if (cur, op) not in nodes:
                            value = ad(values[op], values[cur])
                            nodes[cur, op] = len(values)
                            values.append(None if is_zero(value) else value)
                        cur = nodes[cur, op]
                        if values[cur] is None:
                            break
                    key = (cur, used + q)
                    grown[key] = grown.get(key, 0) + w * math.comb(total - used, q)
            states = grown
        for (cur, used), w in states.items():
            if used == total:
                weights[cur] = weights.get(cur, 0) + w
    return np.array(list(weights.values()), dtype=float), [values[k] for k in weights]


def _symbolic_ad(a: PauliSumOp, b: PauliSumOp) -> PauliSumOp:
    """-i[A, B], which keeps coefficients real and leaves every norm
    unchanged, refused once it outgrows the term guard."""
    out = commutator_minus_i(a, b)
    if out.num_terms > SYMBOLIC_TERM_GUARD:
        raise ResourceLimitError(
            f"symbolic nesting is capped at {SYMBOLIC_TERM_GUARD} Pauli terms "
            f"per nested commutator; got {out.num_terms}"
        )
    return out


def formula_commutator_sum(pf: ProductFormula) -> float:
    """Trotter-error commutator aggregate of a product formula: over its slot
    chains a = 2..D and the compositions q_a + .. + q_D = p of its order, the
    sum of ``p!/(q_a!..q_D!) ||Ad_{G_D}^{q_D} .. Ad_{G_a}^{q_a}(G_{a-1})||``.
    A single-slot formula gives 0."""
    return formula_conjugated_sum(pf, {(pf.order, 0)})[pf.order, 0]


def _check_time(t: float):
    """Refuse a negative time (odd powers of t would print a negative bound) or NaN and inf."""
    if not 0.0 <= t < math.inf:
        raise ValueError(f"the bound needs a finite t >= 0, got {t}")


def product_formula_error_bound(pf: ProductFormula, t: float, k: int,
                                commutator_sum: float) -> float:
    """k-step product-formula error bound ``2 a_p t^{p+1} / ((p+1)! k^p)``,
    with ``a_p`` the formula's :func:`formula_commutator_sum`."""
    k = _step_count(k)
    _check_time(t)
    p = pf.order
    return 2.0 * commutator_sum * t ** (p + 1) / (math.factorial(p + 1) * k**p)


# -- window aggregates over partial-product conjugations ---------------------

class _WindowSpace:
    """A formula's window layer in block form.

    Holds the slot operators and the Hamiltonian in the block form of their
    common invariant blocks and, once a window term needs it, the spread
    (largest minus smallest eigenvalue) of H in each block.  n above the
    dense cap is refused before any of this work.
    """

    def __init__(self, pf: ProductFormula):
        if pf.n > DENSE_NORM_CAP:
            raise ResourceLimitError(f"window aggregates capped at n={DENSE_NORM_CAP}")
        self.pf = pf
        ops = list(dict.fromkeys((*pf.slot_operators, pf.hamiltonian)))
        self.parts = dict(zip(ops, invariant_blocks(ops)[1]))

    @cached_property
    def ham_spreads(self) -> list[np.ndarray]:
        return [hi - lo for lo, hi in _block_extremes(self.parts[self.pf.hamiltonian], anti=False)]

    def sums(self, total: int, ells) -> dict[int, float]:
        """Window aggregates at depth ``total``, one per ell in ``ells``.

        Each is the weighted sum over the pieces C of an upper bound on
        ``||Ad_H^ell(U C U^dag)||`` over every partial-product unitary U.
        Every U keeps the common blocks and leaves C's spectrum unchanged, and
        in block b ``Ad_H = Ad_{H - a I}``; so ell = 0 gives the norm of C
        itself, and ell >= 1 gives ``max_b spread_b(H)^ell spread_b(C) / 2``.
        One ``eigvalsh`` per block size serves every ell.
        """
        weights, pieces = _compositions(self.pf.slot_operators, total, self.parts.__getitem__,
                                        _block_ad, _block_is_zero)
        if not weights.size:
            return dict.fromkeys(ells, 0.0)
        extremes = _block_extremes([np.stack(g) for g in zip(*pieces)], anti=total % 2 == 1)
        out = {}
        for ell in ells:
            if ell == 0:
                per_piece = _extreme_norms(extremes)
            else:
                per_piece = np.max([(s**ell * (hi - lo) / 2).max(axis=-1)
                                    for s, (lo, hi) in zip(self.ham_spreads, extremes)], axis=0)
            out[ell] = float(weights @ per_piece)
        return out


def formula_conjugated_sum(pf: ProductFormula,
                           needed: set[tuple[int, int]]) -> dict[tuple[int, int], float]:
    """Conjugation-extended commutator aggregates of a formula, one for each
    ``(depth, ell)`` pair in ``needed``.

    Each is, over the slot chains and the compositions of ``depth``, the
    weighted sum of an upper bound on the maximum of
    ``||Ad_H^ell (U C U^{-1})||`` over partial-product unitaries U, for each
    composition's nested commutator C (see ``_WindowSpace.sums``); it depends
    on neither U nor the window.  ell = 0 is the plain sum, since
    conjugation leaves a spectral norm unchanged.

    The one route decision, made once for the whole set: up to
    DENSE_NORM_CAP qubits, or when any ell >= 1, one window layer in block
    form (which refuses a larger n before any work) serves every pair, with
    one ``eigvalsh`` per depth and block size for all its ells.  Otherwise
    each depth's plain sum nests as Pauli sums, each distinct piece put in
    block form for its norm.
    """
    depths = sorted({depth for depth, _ in needed})
    if pf.n <= DENSE_NORM_CAP or any(ell for _, ell in needed):
        space = _WindowSpace(pf)
        return {(depth, ell): value for depth in depths for ell, value in
                space.sums(depth, sorted(ell for d, ell in needed if d == depth)).items()}
    # The Pauli-sum nesting does its algebra before any block work.
    _check_qubit_cap(pf.n)
    out = {}
    for depth in depths:
        weights, pieces = _compositions(pf.slot_operators, depth, lambda op: op, _symbolic_ad,
                                        lambda op: op.is_empty)
        out[depth, 0] = float(weights @ np.array([spectral_norm_symbolic(c) for c in pieces]))
    return out


# -- the multi-product error bound -------------------------------------------

def mixture_bound_refusal(scheme: MpfScheme) -> str | None:
    """Why the multi-product bound does not apply to ``scheme``, or None if
    it does: the bound needs r = p + 1 circuits whose coefficients sum to 1
    and cancel the consecutive powers p .. 2p - 1."""
    p = scheme.order
    if len(scheme.steps) != p + 1:
        return "the bound needs r = p + 1 circuits"
    sum_residual, *residuals = scheme.residuals()
    worst = max(map(abs, residuals), default=0.0)
    if abs(sum_residual) > 1e-10:
        return f"coefficients do not sum to 1 (off by {sum_residual:.3e})"
    if scheme.powers != tuple(range(p, 2 * p)) or worst > 1e-8:
        return (f"the bound requires the consecutive-power coefficient system; got powers "
                f"{scheme.powers}, residuals up to {worst:.3e}")
    return None


class MixtureBoundEvaluator:
    """Evaluates the multi-product bound for one (scheme, formula) pair.

    The window aggregates depend on neither the partial-product unitaries nor
    t, so the constructor reads every aggregate the bound needs from one
    :func:`formula_conjugated_sum` call, which refuses n above
    DENSE_NORM_CAP before any work, and forms a1, a2 and a3 once; each time
    point is then arithmetic only.  The a3 coefficient uses |B_l| so every
    term stays a nonnegative bound contribution, and the window
    aggregates are certified upper bounds (see ``_WindowSpace.sums``), so
    ``at(t)`` is an upper bound at every t >= 0.  The fixed quantities are
    attributes: ``commutator_sum``, ``a1``, ``a2``, ``a3`` and the named
    window ``aggregates``; the prefactor is ``scheme.objective``.
    """

    def __init__(self, scheme: MpfScheme, pf: ProductFormula):
        p = scheme.order
        if pf.order != p:
            raise ValueError("scheme and formula order disagree")
        if refusal := mixture_bound_refusal(scheme):
            raise ValueError(refusal)
        self.scheme = scheme
        # (commutator depth, ell) of every window aggregate the bound reads.
        window = [(p, p)] + [(2 * p - ell, ell - 1) for ell in range(1, p + 1) if bernoulli(ell)]
        values = formula_conjugated_sum(pf, {(p, 0), (2 * p, 0), *window})
        self.commutator_sum = values[p, 0]
        self.aggregates = {f"conj_comm_{2 * p}_0_at0": values[2 * p, 0],
                           **{f"conj_comm_{d}_{ell}_window": values[d, ell] for d, ell in window}}
        self.a1 = 8.0 * (self.commutator_sum / math.factorial(p + 1)) ** 2
        self.a2 = (4.0 * values[2 * p, 0] / math.factorial(2 * p)
                   + 8.0 * values[p, p] / ((2.0 * math.pi) ** p * math.factorial(p)))
        self.a3 = 4.0 * sum(abs(float(bernoulli(ell))) * values[2 * p - ell, ell - 1]
                            / (math.factorial(ell) * math.factorial(2 * p - ell))
                            for ell in range(1, p + 1) if bernoulli(ell))

    def at(self, t: float) -> float:
        """The bound ``prefactor (a1 t^(2p+2) + a2 t^(2p+1) + a3 t^(2p))`` at time t >= 0."""
        _check_time(t)
        p = self.scheme.order
        return self.scheme.objective * (
            self.a1 * t ** (2 * p + 2) + self.a2 * t ** (2 * p + 1) + self.a3 * t ** (2 * p)
        )
