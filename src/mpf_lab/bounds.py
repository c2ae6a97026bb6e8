"""Rigorous error-bound machinery: nested-commutator aggregates, the
one-step/k-step product-formula bound, the multi-product bound with its
a1/a2/a3 coefficients, Bernoulli numbers, and locality/interaction-strength
propagation through commutators and conjugations.

Every norm is the exact largest |eigenvalue| of a Hermitian or
anti-Hermitian piece inside the invariant blocks of the operators involved
(e.g. the total-Z sectors of the Heisenberg chain), read straight from their
Pauli terms (``pauli.invariant_blocks``); no 2^n x 2^n matrix is built.  Every
aggregate is a function of a product formula.  One composition pass over its
slot chains builds and norms each distinct nested commutator once: in the
formula's block form up to n = 8, and above that as Pauli sums put in block
form for the norm, up to DENSE_QUBIT_CAP (12) qubits.  The route is fixed by
n; larger systems are refused before any work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .errors import ResourceLimitError
from .formulas import ProductFormula
from .pauli import (LocalityProfile, PauliSumOp, _check_qubit_cap, commutator_minus_i,
                    invariant_blocks)
from .static_mpf import MpfScheme

DENSE_NORM_CAP = 8
SYMBOLIC_TERM_GUARD = 10**6
# Fragment-time samples: a full grid of this many points per axis whenever
# it has at most SAMPLE_GRID_CAP points.
SAMPLE_GRID_POINTS = 3
SAMPLE_GRID_CAP = 243


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


def _block_norms(x: list[np.ndarray], anti: bool) -> np.ndarray:
    """Spectral norms of block-form Hermitian matrices (anti-Hermitian ones
    with ``anti``, multiplied by i first): the largest |eigenvalue| over all
    blocks, from one ``eigvalsh`` per block size.  Leading axes are kept."""
    return np.max([np.abs(np.linalg.eigvalsh(1j * g if anti else g)).max(axis=(-2, -1))
                   for g in x], axis=0)


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


def _norm_sum(weights: np.ndarray, pieces: list[np.ndarray], depth: int) -> float:
    """Weighted norm sum of stacked pieces that are nested commutators of
    Hermitian operators at commutator depth ``depth``."""
    if not weights.size:
        return 0.0
    return float(weights @ _block_norms(pieces, anti=depth % 2 == 1))


def _formula_sum(pf: ProductFormula, total: int) -> float:
    """Composition-weighted norm sum over a formula's slot chains at depth
    ``total``: in its window layer's block form up to DENSE_NORM_CAP qubits,
    as Pauli sums put in block form one distinct piece at a time above."""
    if pf.n <= DENSE_NORM_CAP:
        return _norm_sum(*_WindowSpace(pf).pieces(total), total)
    # The Pauli-sum nesting does its algebra before any block work.
    _check_qubit_cap(pf.n)
    weights, pieces = _compositions(pf.slot_operators, total, lambda op: op, _symbolic_ad,
                                    lambda op: op.is_empty)
    return float(weights @ np.array([spectral_norm_symbolic(c) for c in pieces]))


def formula_commutator_sum(pf: ProductFormula) -> float:
    """Trotter-error commutator aggregate of a product formula: over its slot
    chains a = 2..D and the compositions q_a + .. + q_D = p of its order, the
    sum of ``p!/(q_a!..q_D!) ||Ad_{G_D}^{q_D} .. Ad_{G_a}^{q_a}(G_{a-1})||``.
    A single-slot formula gives 0."""
    return _formula_sum(pf, pf.order)


def product_formula_error_bound(pf: ProductFormula, t: float, k: int,
                                commutator_sum: float) -> float:
    """k-step product-formula error bound ``2 a_p t^{p+1} / ((p+1)! k^p)``,
    with ``a_p`` the formula's :func:`formula_commutator_sum`."""
    if k < 1:
        raise ValueError("k must be >= 1")
    p = pf.order
    return 2.0 * commutator_sum * t ** (p + 1) / (math.factorial(p + 1) * k**p)


# -- sampled maxima over partial-product conjugations ------------------------

@dataclass(frozen=True)
class FragmentTimeSampler:
    """Draws fragment-time tuples (tau_1..tau_d) in [0, t]^d.

    A SAMPLE_GRID_POINTS-point grid per axis (when its size stays within
    SAMPLE_GRID_CAP) plus ``random_draws`` uniform draws; the zero tuple and
    the full-t tuple are always included.  Maxima estimated from these
    samples are lower estimates of the true maximum and are flagged as such
    by callers.
    """

    random_draws: int = 64
    seed: int = 2024

    def samples(self, d: int, t: float) -> np.ndarray:
        if t < 0:
            raise ValueError("time window must be >= 0")
        if t == 0.0:
            return np.zeros((1, d))
        if self.random_draws < 0:
            raise ValueError("random_draws must be >= 0")
        rows = [np.zeros(d), np.full(d, t)]
        if SAMPLE_GRID_POINTS**d <= SAMPLE_GRID_CAP:
            axes = [np.linspace(0.0, t, SAMPLE_GRID_POINTS)] * d
            mesh = np.meshgrid(*axes, indexing="ij")
            rows.append(np.stack([m.ravel() for m in mesh], axis=1))
        if self.random_draws:
            rng = np.random.default_rng(self.seed)
            rows.append(rng.uniform(0.0, t, size=(self.random_draws, d)))
        return np.vstack([np.atleast_2d(r) for r in rows])


class _WindowSpace:
    """A formula's window layer in block form.

    Holds the slot operators and the Hamiltonian in the block form of their
    common invariant blocks and, built on the first sampled window, one
    eigendecomposition per distinct slot operator for the partial-product
    unitaries.  n above the dense cap is refused before any of this work.
    """

    def __init__(self, pf: ProductFormula):
        if pf.n > DENSE_NORM_CAP:
            raise ResourceLimitError(f"sampled-maximum evaluation capped at n={DENSE_NORM_CAP}")
        self.pf = pf
        ops = list(dict.fromkeys((*pf.slot_operators, pf.hamiltonian)))
        self.parts = dict(zip(ops, invariant_blocks(ops)[1]))
        self.ham = self.parts[pf.hamiltonian]

    @cached_property
    def _slot_eigs(self) -> list:
        eigs = {op: [(vals, vecs, vecs.conj().swapaxes(-1, -2))
                     for vals, vecs in map(np.linalg.eigh, self.parts[op])]
                for op in dict.fromkeys(self.pf.slot_operators)}
        return [eigs[op] for op in self.pf.slot_operators]

    def pieces(self, total: int) -> tuple[np.ndarray, list[np.ndarray]]:
        """Weights and stacked distinct pieces of the slot chains at depth ``total``."""
        weights, pieces = _compositions(self.pf.slot_operators, total, self.parts.__getitem__,
                                        _block_ad, _block_is_zero)
        return weights, [np.stack(g) for g in zip(*pieces)]

    def conjugated_ham(self, taus: np.ndarray) -> list[np.ndarray]:
        """Block form of U^dag H U for U = exp(-i tau_1 G_1) .. exp(-i tau_D G_D)."""
        out = []
        for g, ham in enumerate(self.ham):
            u = None
            for tau, eigs in zip(taus, self._slot_eigs):
                if tau != 0.0:
                    vals, vecs, vh = eigs[g]
                    factor = vecs * np.exp(-1j * tau * vals)[..., None, :]
                    u = factor @ vh if u is None else u @ factor @ vh
            out.append(ham if u is None else u.conj().swapaxes(-1, -2) @ ham @ u)
        return out

    def window_sums(self, requests: dict, rows: np.ndarray) -> dict[tuple[int, int], float]:
        """Sampled window aggregates against one shared set of unitaries.

        ``requests`` maps a commutator depth to ``(weights, pieces, ells)``
        with every ell >= 1.  For each (depth, ell) the result is the weighted
        sum over the pieces C of the sample maximum of
        ``||Ad_H^ell(U C U^dag)|| = ||Ad_{H'}^ell(C)||``, ``H' = U^dag H U``,
        over the unitaries U of the fragment-time ``rows``, one row at a time.
        """
        best = {(depth, ell): np.zeros(w.size)
                for depth, (w, _, ells) in requests.items() for ell in ells}
        for taus in rows:
            hp = self.conjugated_ham(taus)
            for depth, (w, x, ells) in requests.items():
                if not w.size:
                    continue
                for ell in range(1, max(ells) + 1):
                    x = _block_ad(hp, x)
                    if ell in ells:
                        top = best[depth, ell]
                        np.maximum(top, _block_norms(x, anti=(depth + ell) % 2 == 1), out=top)
        return {(depth, ell): float(requests[depth][0] @ top)
                for (depth, ell), top in best.items()}


def formula_conjugated_sum(pf: ProductFormula, total: int, ell: int, t: float,
                           sampler: FragmentTimeSampler | None = None) -> float:
    """Sampled, conjugation-extended commutator aggregate of a formula.

    Over the slot chains, each composition's inner nested commutator C is
    exact; the maximum of ``||Ad_H^ell (U C U^{-1})||`` over partial-product
    unitaries U with fragment times in [0, t] is the exact maximum over a
    sample, so the result is a lower estimate of the true maximum for t > 0.
    ell = 0 needs no sampling, since conjugation leaves a spectral norm
    unchanged: it is the plain sum, on either route.
    """
    if ell == 0:
        return _formula_sum(pf, total)
    space = _WindowSpace(pf)
    weights, pieces = space.pieces(total)
    rows = (sampler or FragmentTimeSampler()).samples(len(pf.slot_operators), t)
    return space.window_sums({total: (weights, pieces, [ell])}, rows)[total, ell]


# -- the multi-product error bound -------------------------------------------

@dataclass(frozen=True)
class MixtureErrorBound:
    """Evaluated multi-product error bound at one time.

    The a3 coefficient uses |B_l| so every term stays a nonnegative bound
    contribution; ``sampled`` flags that the window aggregates at t > 0 are
    sample maxima (lower estimates), not certified maxima.
    """

    order: int
    t: float
    prefactor: float
    a1: float
    a2: float
    a3: float
    value: float
    commutator_sum: float
    aggregates: dict = field(default_factory=dict)
    sampled: bool = False


class MixtureBoundEvaluator:
    """Evaluates the multi-product bound for one (scheme, formula) pair.

    The constructor builds the window layer in block form and every
    t-independent aggregate: the commutator sum and the l = 0 terms, whose
    window maximum is the plain norm.  Each time point then samples one set
    of partial-product unitaries at window t/k_min and shares it across the
    conjugated aggregates.
    """

    def __init__(self, scheme: MpfScheme, pf: ProductFormula,
                 sampler: FragmentTimeSampler | None = None):
        p = scheme.order
        if pf.order != p:
            raise ValueError("scheme and formula order disagree")
        if len(scheme.steps) != p + 1:
            raise ValueError("the bound needs r = p + 1 circuits")
        sum_residual, *residuals = scheme.residuals()
        if abs(sum_residual) > 1e-10:
            raise ValueError(f"coefficients do not sum to 1 (off by {sum_residual:.3e})")
        if scheme.powers != tuple(range(p, 2 * p)) or max(map(abs, residuals)) > 1e-8:
            raise ValueError(
                f"the bound requires the consecutive-power coefficient system; got powers "
                f"{scheme.powers}, residuals up to {max(map(abs, residuals), default=0.0):.3e}")
        self.scheme = scheme
        self.pf = pf
        self.sampler = sampler or FragmentTimeSampler()
        self.k_min = min(scheme.steps)
        self._space = _WindowSpace(pf)
        # (commutator depth, ell) of every aggregate the bound reads.
        needed = {(p, 0), (2 * p, 0), (p, p)} | {
            (2 * p - ell, ell - 1) for ell in range(1, p + 1) if bernoulli(ell) != 0}
        self._fixed: dict[tuple[int, int], float] = {}
        self._sampled: dict[int, tuple] = {}
        for depth in sorted({d for d, _ in needed}):
            weights, pieces = self._space.pieces(depth)
            ells = sorted(ell for d, ell in needed if d == depth)
            if ells[0] == 0:
                self._fixed[depth, 0] = _norm_sum(weights, pieces, depth)
            if ells[-1] > 0:
                self._sampled[depth] = (weights, pieces, [ell for ell in ells if ell > 0])
        self.commutator_sum = self._fixed[p, 0]
        self.a1 = 8.0 * (self.commutator_sum / math.factorial(p + 1)) ** 2
        # t-independent part of a2: the l=0 aggregate at a degenerate window.
        self.window_free_sum = self._fixed[2 * p, 0]

    def at(self, t: float) -> MixtureErrorBound:
        p = self.scheme.order
        tw = t / self.k_min
        rows = self.sampler.samples(len(self.pf.slot_operators), tw)
        values = {**self._fixed, **self._space.window_sums(self._sampled, rows)}
        aggregates = {f"conj_comm_{2 * p}_0_at0": self.window_free_sum}
        b_pp = values[p, p]
        aggregates[f"conj_comm_{p}_{p}_window"] = b_pp
        a2 = (
            4.0 * self.window_free_sum / math.factorial(2 * p)
            + 8.0 * b_pp / ((2.0 * math.pi) ** p * math.factorial(p))
        )
        a3 = 0.0
        for ell in range(1, p + 1):
            bl = abs(float(bernoulli(ell)))
            if bl == 0.0:
                continue
            b_val = values[2 * p - ell, ell - 1]
            aggregates[f"conj_comm_{2 * p - ell}_{ell - 1}_window"] = b_val
            a3 += bl * b_val / (math.factorial(ell) * math.factorial(2 * p - ell))
        a3 *= 4.0
        value = self.scheme.objective * (
            self.a1 * t ** (2 * p + 2) + a2 * t ** (2 * p + 1) + a3 * t ** (2 * p)
        )
        return MixtureErrorBound(
            order=p, t=t, prefactor=self.scheme.objective,
            a1=self.a1, a2=a2, a3=a3, value=value, commutator_sum=self.commutator_sum,
            aggregates=aggregates, sampled=(tw > 0.0),
        )


# -- locality / interaction-strength propagation ------------------------------

def commutator_profile(a: LocalityProfile, b: LocalityProfile) -> LocalityProfile:
    """Profile of [A, B]: k = k1 + k2 - 1, J = 2 J1 J2 (k1 + k2)."""
    return LocalityProfile(
        k=a.k + b.k - 1, strength=2.0 * a.strength * b.strength * (a.k + b.k)
    )


def conjugation_profile(profile: LocalityProfile, gamma: float, depth: int) -> LocalityProfile:
    """Profile after conjugation by a depth-``depth`` circuit whose single
    exponentials spread single-qubit operators to at most ``gamma`` qubits."""
    factor = gamma**depth
    return LocalityProfile(
        k=int(math.ceil(factor * profile.k)), strength=factor * profile.strength
    )


def adjoint_power_profile(a: LocalityProfile, b: LocalityProfile, power: int) -> LocalityProfile:
    """Profile of Ad_A^power (B), iterating the commutator rule."""
    out = b
    for _ in range(power):
        out = commutator_profile(a, out)
    return out
