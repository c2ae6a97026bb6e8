"""Rigorous error-bound machinery: nested-commutator aggregates, the
one-step/k-step product-formula bound, the multi-product bound with its
a1/a2/a3 coefficients, Bernoulli numbers, and locality/interaction-strength
propagation through commutators and conjugations.

Spectral norms of nested commutators are evaluated either on dense
materializations (n <= 8) or symbolically as Pauli sums with a
statevector-based power iteration for the norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import ResourceLimitError
from .formulas import ProductFormula
from .pauli import LocalityProfile, PauliSumOp, commutator_minus_i, pauli_action, to_dense
from .static_mpf import MpfScheme

DENSE_NORM_CAP = 8
SYMBOLIC_TERM_GUARD = 10**6
# Tighter than strictly needed for the bounds themselves so that closed-form
# commutator identities reproduce to 1e-8 absolute on O(10)-sized values.
NORM_TOL = 1e-10
NORM_MAX_ITER = 10**4


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


# -- spectral norms ----------------------------------------------------------

@lru_cache(maxsize=32)
def _start_vector(dim: int) -> np.ndarray:
    rng = np.random.default_rng(0x5EED ^ dim)
    vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    vec /= np.linalg.norm(vec)
    vec.setflags(write=False)
    return vec

def spectral_norm_dense(matrix: np.ndarray, tol: float = NORM_TOL) -> float:
    """Largest singular value via iterated squaring of A^dag A.

    Squaring the PSD Gram matrix m times (rescaling each round to stay inside
    the float range) raises eigenvalue ratios to the 2^m-th power, after which
    the PSD bracket max-diag <= lambda_max <= max-row-sum pins the top
    eigenvalue to a certified relative width of dim^(1/2^m).  The number of
    squarings is chosen from ``tol``, so the routine is deterministic and has
    no convergence-failure mode, unlike plain power iteration on these often
    highly degenerate commutator spectra.
    """
    if not np.any(matrix):
        return 0.0
    gram = matrix.conj().T @ matrix
    dim = gram.shape[0]
    scale = float(np.abs(gram).max())
    if scale == 0.0:
        return 0.0
    gram = gram / scale
    log_scale = math.log(scale)
    rounds = min(60, max(4, math.ceil(math.log2(math.log(max(dim, 3)) / tol)) - 2))
    for _ in range(rounds):
        gram = gram @ gram
        s = float(np.abs(gram).max())
        if s == 0.0:
            return 0.0
        gram /= s
        log_scale = 2.0 * log_scale + math.log(s)
    diag = np.real(np.diag(gram))
    lo = float(diag.max())
    hi = float(np.abs(gram).sum(axis=1).max())
    if lo <= 0.0:
        return 0.0
    log_top = 0.5 * (math.log(lo) + math.log(min(hi, dim * lo)))
    return math.exp(0.5 * (log_top + log_scale) / (1 << rounds))


def _apply_pauli_sum(op: PauliSumOp, vec: np.ndarray) -> np.ndarray:
    out = np.zeros_like(vec)
    idx = np.arange(vec.size)
    for coeff, ps in op.terms:
        partner, phases = pauli_action(ps, idx)
        out[partner] += coeff * phases * vec
    return out


_SYMBOLIC_DENSE_CAP = 10

def spectral_norm_symbolic(op: PauliSumOp, tol: float = NORM_TOL,
                           max_iter: int = NORM_MAX_ITER) -> float:
    """Spectral norm of a Hermitian Pauli sum.

    Up to 10 qubits the operator is materialized and handed to the certified
    dense routine; beyond that a matrix-free power iteration on A^2 runs
    against the statevector kernel, accepting a relaxed 1e-6 change criterion
    if the hard tolerance is not reached at the iteration cap.
    """
    if op.is_empty:
        return 0.0
    if op.n <= _SYMBOLIC_DENSE_CAP:
        return spectral_norm_dense(to_dense(op), tol=tol)
    dim = 1 << op.n
    v = _start_vector(dim).copy()
    lam_old = 0.0
    change = math.inf
    for _ in range(max_iter):
        w = _apply_pauli_sum(op, _apply_pauli_sum(op, v))
        lam = float(np.real(np.vdot(v, w)))
        nw = float(np.linalg.norm(w))
        if nw == 0.0:
            return 0.0
        v = w / nw
        change = abs(lam - lam_old)
        if change <= tol * max(abs(lam), 1e-30):
            return math.sqrt(max(lam, 0.0))
        lam_old = lam
    if change <= 1e-6 * max(abs(lam_old), 1e-30):
        return math.sqrt(max(lam_old, 0.0))
    raise ResourceLimitError("power iteration did not converge")


# -- composition sums over nested commutators --------------------------------

def _dense_ad(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a

def _compositions_dense(chain: list[np.ndarray], target: np.ndarray, total: int):
    """Yield ``(multinomial weight, nested commutator)`` for every composition
    (q_1..q_s) of ``total``, evaluating Ad_{A_1}^{q_1}..Ad_{A_s}^{q_s}(target)
    densely with shared prefixes (innermost adjoint applied first)."""
    s = len(chain)
    p_fact = math.factorial(total)

    def rec(pos: int, budget: int, cur: np.ndarray, denom: int):
        if pos == 0:
            out = cur
            for _ in range(budget):
                out = _dense_ad(chain[0], out)
                if not np.any(out):
                    return
            yield p_fact // (denom * math.factorial(budget)), out
            return
        acc = cur
        for q in range(budget + 1):
            if q > 0:
                acc = _dense_ad(chain[pos], acc)
                if not np.any(acc):
                    return
            yield from rec(pos - 1, budget - q, acc, denom * math.factorial(q))

    yield from rec(s - 1, total, target, 1)


def _compositions_symbolic(chain: list[PauliSumOp], target: PauliSumOp, total: int):
    """Symbolic analogue of :func:`_compositions_dense` using -i[A, .], which
    keeps coefficients real and leaves every norm unchanged."""
    s = len(chain)
    p_fact = math.factorial(total)

    def rec(pos: int, budget: int, cur: PauliSumOp, denom: int):
        if pos == 0:
            out = cur
            for _ in range(budget):
                out = commutator_minus_i(chain[0], out)
                if out.is_empty:
                    return
                if out.num_terms > SYMBOLIC_TERM_GUARD:
                    raise ResourceLimitError(
                        "symbolic nesting exceeded the term guard; "
                        "use the locality-propagation bounds instead"
                    )
            yield p_fact // (denom * math.factorial(budget)), out
            return
        acc = cur
        for q in range(budget + 1):
            if q > 0:
                acc = commutator_minus_i(chain[pos], acc)
                if acc.is_empty:
                    return
                if acc.num_terms > SYMBOLIC_TERM_GUARD:
                    raise ResourceLimitError(
                        "symbolic nesting exceeded the term guard; "
                        "use the locality-propagation bounds instead"
                    )
            yield from rec(pos - 1, budget - q, acc, denom * math.factorial(q))

    yield from rec(s - 1, total, target, 1)


def nested_commutator_sum(total: int, chain: list[PauliSumOp],
                          target: PauliSumOp, method: str = "auto") -> float:
    """Composition-weighted sum of nested-commutator norms.

    ``sum over q_1+..+q_s = total of total!/(q_1!..q_s!) *
    ||Ad_{A_1}^{q_1} .. Ad_{A_s}^{q_s}(target)||``.
    """
    if total < 0:
        raise ValueError("order must be >= 0")
    if not chain:
        raise ValueError("need at least one chain operator")
    n = target.n
    if method == "auto":
        method = "dense" if n <= DENSE_NORM_CAP else "symbolic"
    if method == "dense":
        if n > DENSE_NORM_CAP:
            raise ResourceLimitError(
                f"dense evaluation capped at n={DENSE_NORM_CAP}; "
                "use method='symbolic' or the locality-propagation bounds"
            )
        dchain = [to_dense(op) for op in chain]
        return float(sum(
            w * spectral_norm_dense(c)
            for w, c in _compositions_dense(dchain, to_dense(target), total)
        ))
    if method == "symbolic":
        return float(sum(
            w * spectral_norm_symbolic(c)
            for w, c in _compositions_symbolic(chain, target, total)
        ))
    raise ValueError(f"unknown method {method!r}")


def _slot_chains(pf: ProductFormula):
    """Yield ``(chain, target)`` pairs (G_D..G_a; G_{a-1}) for a = 2..D."""
    slots = pf.slot_operators
    d = len(slots)
    for a in range(1, d):
        yield list(slots[a:][::-1]), slots[a - 1]


def formula_commutator_sum(pf: ProductFormula, order: int | None = None,
                           method: str = "auto") -> float:
    """Trotter-error commutator aggregate of a product formula.

    Sums :func:`nested_commutator_sum` over the chains (G_D,...,G_a; G_{a-1}) built from
    the formula's slot operators.  A single-slot formula gives 0.
    """
    p = pf.order if order is None else order
    return float(sum(
        nested_commutator_sum(p, chain, tgt, method=method) for chain, tgt in _slot_chains(pf)
    ))


def product_formula_error_bound(pf: ProductFormula, t: float, k: int,
                                commutator_sum: float | None = None) -> float:
    """k-step product-formula error bound ``2 a_p t^{p+1} / ((p+1)! k^p)``."""
    if k < 1:
        raise ValueError("k must be >= 1")
    p = pf.order
    a = formula_commutator_sum(pf) if commutator_sum is None else commutator_sum
    return 2.0 * a * t ** (p + 1) / (math.factorial(p + 1) * k**p)


# -- sampled maxima over partial-product conjugations ------------------------

@dataclass(frozen=True)
class FragmentTimeSampler:
    """Draws fragment-time tuples (tau_1..tau_d) in [0, t]^d.

    The default is a 3-point grid per axis (when 3^d stays below the cap)
    plus 64 uniform draws; the zero tuple and the full-t tuple are always
    included.  Maxima estimated from these samples are lower estimates of
    the true maximum and are flagged as such by callers.
    """

    grid_per_axis: int = 3
    random_draws: int = 64
    seed: int = 2024
    grid_cap: int = 243

    def samples(self, d: int, t: float) -> np.ndarray:
        if t < 0:
            raise ValueError("time window must be >= 0")
        if t == 0.0:
            return np.zeros((1, d))
        if self.random_draws < 0:
            raise ValueError("random_draws must be >= 0")
        rows = [np.zeros(d), np.full(d, t)]
        if self.grid_per_axis >= 2 and self.grid_per_axis**d <= self.grid_cap:
            axes = [np.linspace(0.0, t, self.grid_per_axis)] * d
            mesh = np.meshgrid(*axes, indexing="ij")
            rows.append(np.stack([m.ravel() for m in mesh], axis=1))
        if self.random_draws:
            rng = np.random.default_rng(self.seed)
            rows.append(rng.uniform(0.0, t, size=(self.random_draws, d)))
        return np.vstack([np.atleast_2d(r) for r in rows])


class _SlotExponentials:
    """Cached eigendecompositions of the slot operators for building the
    partial-product unitaries of a formula."""

    def __init__(self, pf: ProductFormula):
        if pf.n > DENSE_NORM_CAP:
            raise ResourceLimitError(
                f"sampled-maximum evaluation capped at n={DENSE_NORM_CAP}"
            )
        self.dim = 1 << pf.n
        self._eigs = []
        for op in pf.slot_operators:
            dense = to_dense(op)
            vals, vecs = np.linalg.eigh(dense)
            self._eigs.append((vals, vecs, vecs.conj().T))

    def unitary(self, taus: np.ndarray) -> np.ndarray:
        """Dense exp(-i tau_D G_D) ... exp(-i tau_1 G_1)."""
        u = np.eye(self.dim, dtype=complex)
        for tau, (vals, vecs, vh) in zip(taus, self._eigs):
            if tau != 0.0:
                u = u @ (vecs * np.exp(-1j * tau * vals)) @ vh
        return u


_SAMPLE_BRACKET_WIDTH = 0.01

def _batched_norm_lower(x: np.ndarray, width: float = _SAMPLE_BRACKET_WIDTH) -> np.ndarray:
    """Certified lower bounds on the spectral norms of a stack of matrices,
    within relative ``width`` of the true values, via batched squaring."""
    dim = x.shape[-1]
    gram = x.conj().transpose(0, 2, 1) @ x
    scale = np.abs(gram).max(axis=(1, 2))
    alive = scale > 0.0
    out = np.zeros(x.shape[0])
    if not np.any(alive):
        return out
    g = gram[alive] / scale[alive, None, None]
    log_scale = np.log(scale[alive])
    rounds = max(1, math.ceil(math.log2(math.log(max(dim, 3)) / math.log1p(width))) - 2)
    for _ in range(rounds):
        g = g @ g
        s = np.abs(g).max(axis=(1, 2))
        s = np.where(s == 0.0, 1.0, s)
        g /= s[:, None, None]
        log_scale = 2.0 * log_scale + np.log(s)
    diag_max = np.einsum("jii->ji", g).real.max(axis=1)
    diag_max = np.clip(diag_max, 1e-300, None)
    out[alive] = np.exp(0.5 * (np.log(diag_max) + log_scale) / (1 << rounds))
    return out


def _sampled_max_norms(pieces: list[np.ndarray], ell: int, ham: np.ndarray,
                       unitaries: list[np.ndarray]) -> np.ndarray:
    """Per-piece maximum of ||Ad_H^ell (U C U^dag)|| over the sampled U.

    For ell = 0 conjugation leaves the spectral norm invariant, so the
    maximum is ||C|| with no sampling at all.  With a single sample the norms
    are evaluated at full tolerance.  Otherwise each sample contributes a
    certified 1%-wide lower bracket of its spectral norm, keeping the result
    a (slightly deeper) lower estimate of the sampled maximum.
    """
    stack = np.stack(pieces)
    if ell == 0:
        return np.array([spectral_norm_dense(c) for c in stack])

    def transformed(u):
        x = u @ stack @ u.conj().T
        for _ in range(ell):
            x = ham @ x - x @ ham
        return x

    if len(unitaries) == 1:
        return np.array([spectral_norm_dense(c) for c in transformed(unitaries[0])])
    best = np.zeros(stack.shape[0])
    for u in unitaries:
        np.maximum(best, _batched_norm_lower(transformed(u)), out=best)
    return best


def _window_eval(groups: list[tuple[np.ndarray, list[np.ndarray]]], ell: int,
                 ham: np.ndarray, t: float, pf: ProductFormula,
                 sampler: FragmentTimeSampler) -> list[float]:
    """Evaluate several (weights, pieces) groups against one shared U sample."""
    pieces: list[np.ndarray] = []
    for g in groups:
        pieces.extend(g[1])
    if not pieces:
        return [0.0 for _ in groups]
    if t == 0.0:
        unitaries = [np.eye(ham.shape[0], dtype=complex)]
    else:
        slots = _SlotExponentials(pf)
        unitaries = [slots.unitary(row)
                     for row in sampler.samples(len(pf.slot_operators), t)]
    best = _sampled_max_norms(pieces, ell, ham, unitaries)
    out, pos = [], 0
    for g in groups:
        cnt = len(g[1])
        out.append(float(np.dot(g[0], best[pos:pos + cnt])) if cnt else 0.0)
        pos += cnt
    return out


def _dense_pieces(chain: list[PauliSumOp], target: PauliSumOp, total: int):
    dchain = [to_dense(op) for op in chain]
    ws, cs = [], []
    for w, c in _compositions_dense(dchain, to_dense(target), total):
        ws.append(float(w))
        cs.append(c)
    return np.asarray(ws), cs


def conjugated_commutator_sum(total: int, ell: int, chain: list[PauliSumOp],
                              target: PauliSumOp, t: float, pf: ProductFormula,
                              sampler: FragmentTimeSampler | None = None) -> float:
    """Sampled, conjugation-extended commutator aggregate.

    For each composition the inner nested commutator is exact; the maximum of
    ``||Ad_H^ell (U C U^{-1})||`` over partial-product unitaries U with
    fragment times in [0, t] is approximated by a sample maximum, so the
    result is a lower estimate of the true maximum for t > 0.
    """
    if sampler is None:
        sampler = FragmentTimeSampler()
    ham = to_dense(pf.hamiltonian)
    group = _dense_pieces(chain, target, total)
    return _window_eval([group], ell, ham, t, pf, sampler)[0]


def formula_conjugated_sum(pf: ProductFormula, total: int, ell: int, t: float,
                           sampler: FragmentTimeSampler | None = None) -> float:
    """Formula-level aggregate: the conjugated sums added over the slot chains."""
    if sampler is None:
        sampler = FragmentTimeSampler()
    ham = to_dense(pf.hamiltonian)
    groups = [_dense_pieces(chain, tgt, total) for chain, tgt in _slot_chains(pf)]
    return float(sum(_window_eval(groups, ell, ham, t, pf, sampler)))


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

    Precomputes the commutator aggregate once; the sampled window terms
    depend on t/k_min and are recomputed per time point.
    """

    def __init__(self, scheme: MpfScheme, pf: ProductFormula,
                 sampler: FragmentTimeSampler | None = None):
        p = scheme.order
        if pf.order != p:
            raise ValueError("scheme and formula order disagree")
        if len(scheme.steps) != p + 1:
            raise ValueError("the bound needs r = p + 1 circuits")
        _check_extrapolation_residuals(scheme)
        self.scheme = scheme
        self.pf = pf
        self.sampler = sampler if sampler is not None else FragmentTimeSampler()
        self.k_min = min(scheme.steps)
        self.commutator_sum = formula_commutator_sum(
            pf, method="dense" if pf.n <= DENSE_NORM_CAP else "symbolic")
        self.a1 = 8.0 * (self.commutator_sum / math.factorial(p + 1)) ** 2
        # t-independent part of a2: the l=0 aggregate at a degenerate window.
        self.window_free_sum = formula_conjugated_sum(pf, 2 * p, 0, 0.0, self.sampler)

    def at(self, t: float) -> MixtureErrorBound:
        p = self.scheme.order
        tw = t / self.k_min
        aggregates = {f"conj_comm_{2 * p}_0_at0": self.window_free_sum}
        b_pp = formula_conjugated_sum(self.pf, p, p, tw, self.sampler)
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
            b_val = formula_conjugated_sum(self.pf, 2 * p - ell, ell - 1, tw, self.sampler)
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


def _check_extrapolation_residuals(scheme: MpfScheme):
    p = scheme.order
    c = np.asarray(scheme.coefficients)
    k = np.asarray(scheme.steps, dtype=float)
    if abs(c.sum() - 1.0) > 1e-10:
        raise ValueError("coefficients do not sum to 1")
    for q in range(p, 2 * p):
        res = float(np.sum(c * k**-q))
        if abs(res) > 1e-8:
            raise ValueError(
                f"extrapolation residual at power {q} is {res:.3e}; the bound "
                "requires the consecutive-power coefficient system"
            )


def mixture_error_bound(scheme: MpfScheme, pf: ProductFormula, t: float,
                        sampler: FragmentTimeSampler | None = None) -> MixtureErrorBound:
    """One-shot evaluation of the multi-product error bound at time t."""
    return MixtureBoundEvaluator(scheme, pf, sampler).at(t)


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


def propagate_profile(operation: str, profiles, *, gamma: float | None = None,
                      depth: int | None = None,
                      power: int | None = None) -> LocalityProfile:
    """Dispatch over the three propagation rules by name."""
    if operation == "commutator":
        a, b = profiles
        return commutator_profile(a, b)
    if operation == "conjugation":
        (prof,) = profiles
        if gamma is None or depth is None:
            raise ValueError("conjugation needs gamma and depth")
        return conjugation_profile(prof, gamma, depth)
    if operation == "adjoint-power":
        a, b = profiles
        if power is None:
            raise ValueError("adjoint-power needs power")
        return adjoint_power_profile(a, b, power)
    raise ValueError(f"unknown operation {operation!r}")
