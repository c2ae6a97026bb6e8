import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from mpf_lab import (
    PauliString,
    PauliSumOp,
    ProductFormula,
    formula_commutator_sum,
    formula_conjugated_sum,
    fragment_decomposition_s2,
    build_heisenberg_chain,
    product_formula_error_bound,
    mixture_trace_norm,
    rho_k_state,
    second_order,
    solve_coefficients,
    spectral_norm_dense,
    to_dense,
)
from mpf_lab import bounds
from mpf_lab.bounds import MixtureBoundEvaluator, bernoulli
from conftest import palindrome_fragments


def three_fragment_case(chain4):
    odd, fields, even = chain4.fragments
    bonds = 0.5 * odd + 0.5 * even
    f1, f2, f3, f4, _ = palindrome_fragments(4, chain4.fields)
    assert bonds == f1 + 0.5 * f3 and fields == f2 + f4
    pf = ProductFormula(fragments=(bonds, fields, bonds),
                        steps=((0, 1.0), (1, 1.0), (2, 1.0)), order=2)
    return pf, bonds, fields


def two_slot(target, a, p):
    """The two-slot formula (target, A): its one slot chain sums ||Ad_A^p(target)||."""
    return ProductFormula(fragments=(target, a), steps=((0, 1.0), (1, 1.0)), order=p)


# -- Bernoulli ---------------------------------------------------------------

def test_bernoulli_table():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(4) == Fraction(-1, 30)
    assert all(bernoulli(k) == 0 for k in (3, 5, 7, 9))


def test_bernoulli_recurrence_oracle():
    # independent check: sum_{j=0}^{m} C(m+1, j) B_j = 0
    for m in range(1, 20):
        total = sum(math.comb(m + 1, j) * bernoulli(j) for j in range(m + 1))
        assert total == 0


def test_bernoulli_range():
    with pytest.raises(ValueError):
        bernoulli(31)
    with pytest.raises(ValueError):
        bernoulli(-1)


# -- spectral norm ------------------------------------------------------------

def test_spectral_norm_matches_svd(rng):
    for dim in (4, 16, 33):
        mat = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        assert abs(spectral_norm_dense(mat) - np.linalg.norm(mat, 2)) < 1e-8 * dim
    assert spectral_norm_dense(np.zeros((5, 5))) == 0.0


def test_spectral_norm_degenerate_spectrum():
    mat = np.diag([3.0, 3.0, 3.0, -3.0])
    assert abs(spectral_norm_dense(mat) - 3.0) < 1e-9


# -- composition aggregates ----------------------------------------------------

def test_alpha_single_composition(chain4):
    _, bonds, fields = three_fragment_case(chain4)
    val = formula_commutator_sum(two_slot(fields, bonds, 1))
    da, db = to_dense(bonds), to_dense(fields)
    ref = np.linalg.norm(da @ db - db @ da, 2)
    assert abs(val - ref) < 1e-8


def test_alpha_commuting_chain_is_zero():
    z1 = PauliSumOp.from_terms(2, [(1.0, PauliString("ZI"))])
    z2 = PauliSumOp.from_terms(2, [(0.7, PauliString("IZ"))])
    for p in (1, 2, 3):
        assert formula_commutator_sum(two_slot(z2, z1, p)) == 0.0


def test_alpha2_closed_form(chain4):
    pf, bonds, fields = three_fragment_case(chain4)
    val = formula_commutator_sum(pf)
    d1, d2 = to_dense(bonds), to_dense(fields)

    def comm(a, b):
        return a @ b - b @ a

    closed = (np.linalg.norm(comm(d2, comm(d2, d1)), 2)
              + 3.0 * np.linalg.norm(comm(d1, comm(d1, d2)), 2))
    assert abs(val - closed) < 1e-8


def test_alpha_p_single_slot_zero(chain4):
    pf = ProductFormula(fragments=(chain4.fragments[2],), steps=((0, 1.0),), order=2)
    assert formula_commutator_sum(pf) == 0.0


def dense_formula_sum(pf):
    """Full-space reference for ``formula_commutator_sum``: every composition
    of every slot chain nested as dense matrices, norms from the SVD."""
    slots = [to_dense(op) for op in pf.slot_operators]
    p = pf.order
    out = 0.0
    for a in range(1, len(slots)):
        chain, target = slots[a:][::-1], slots[a - 1]
        for qs in itertools.product(range(p + 1), repeat=len(chain)):
            if sum(qs) != p:
                continue
            weight = math.factorial(p) // math.prod(math.factorial(q) for q in qs)
            c = target
            for op, q in reversed(list(zip(chain, qs))):
                for _ in range(q):
                    c = op @ c - c @ op
            out += weight * np.linalg.norm(c, 2)
    return out


def test_alpha_pauli_sum_route_matches_full_space():
    # n = 9 is the first size on the Pauli-sum route.
    n = 9
    _, fields = build_heisenberg_chain(n, 2024)
    pf = second_order(fragment_decomposition_s2(n, fields))
    ref = dense_formula_sum(pf)
    assert ref > 0
    assert abs(formula_commutator_sum(pf) - ref) <= 1e-12 * ref


def test_alpha_homogeneity(chain4):
    pf, bonds, fields = three_fragment_case(chain4)
    lam = 1.7
    scaled = ProductFormula(fragments=(lam * bonds, lam * fields, lam * bonds),
                            steps=pf.steps, order=2)
    assert abs(formula_commutator_sum(scaled) - lam**3 * formula_commutator_sum(pf)) < 1e-7 * lam**3


def test_alpha_clifford_conjugation_invariance(chain4, rng):
    """Conjugating every operand by one Clifford (qubit permutation plus a
    global Hadamard layer) leaves the aggregate unchanged."""
    pf, bonds, fields = three_fragment_case(chain4)
    perm = rng.permutation(4)
    swap = {"X": "Z", "Z": "X", "Y": "Y", "I": "I"}

    def conjugate(op):
        terms = []
        for c, ps in op:
            chars = ["I"] * op.n
            for j, ch in enumerate(ps.word):
                chars[perm[j]] = swap[ch]
            sign = (-1.0) ** ps.word.count("Y")
            terms.append((sign * c, PauliString("".join(chars))))
        return PauliSumOp.from_terms(op.n, terms)

    cb, cf = conjugate(bonds), conjugate(fields)
    conj_pf = ProductFormula(fragments=(cb, cf, cb), steps=pf.steps, order=2)
    assert abs(formula_commutator_sum(conj_pf) - formula_commutator_sum(pf)) < 1e-8 * max(1.0, formula_commutator_sum(pf))


def test_alpha_above_block_route_cap():
    big = PauliSumOp.from_terms(9, [(1.0, PauliString("XXIIIIIII"))])
    other = PauliSumOp.from_terms(9, [(1.0, PauliString("ZIIIIIIII"))])
    # ||[XX, ZI]|| = 2 ||YX||
    assert abs(formula_commutator_sum(two_slot(other, big, 1)) - 2.0) <= 1e-12


# -- window aggregates ------------------------------------------------------------

def test_beta_degenerate_window_matches_alpha(chain4):
    pf, _, _ = three_fragment_case(chain4)
    a = formula_commutator_sum(pf)
    b = formula_conjugated_sum(pf, {(2, 0)})[2, 0]
    assert abs(a - b) < 1e-10 * max(1.0, a)


def test_beta_conjugation_invariance_l0(chain4):
    """With no adjoint prefix the window maximum collapses: conjugation cannot
    change a spectral norm, so the window layer's ell = 0 term, read from the
    same eigenvalues as its ell >= 1 terms, is the plain sum bit for bit."""
    pf, _, _ = three_fragment_case(chain4)
    window = bounds._WindowSpace(pf).sums(2, [0, 1])
    assert window[0] == formula_conjugated_sum(pf, {(2, 0)})[2, 0]


# -- the mixture bound ------------------------------------------------------------

def test_mixture_bound_preconditions(chain4):
    sch1 = solve_coefficients(2, (7,))
    with pytest.raises(ValueError):
        MixtureBoundEvaluator(sch1, chain4.pf).at(1.0)
    even = solve_coefficients(2, (8, 26, 34), even_powers=True)
    with pytest.raises(ValueError, match="consecutive"):
        MixtureBoundEvaluator(even, chain4.pf).at(1.0)
    sch4 = solve_coefficients(4, (2, 9, 17, 23, 25))
    with pytest.raises(ValueError, match="order"):
        MixtureBoundEvaluator(sch4, chain4.pf).at(1.0)


def test_mixture_bound_refuses_coefficients_off_their_sum(chain4):
    # Consecutive powers, so only the 1e-10 sum tolerance can refuse it: the
    # power residuals move by at most 1e-9 / 4^2.
    base = solve_coefficients(2, (4, 13, 17))
    c = base.coefficients
    off = dataclasses.replace(base, coefficients=(c[0] + 1e-9, *c[1:]))
    assert off.powers == (2, 3)
    assert max(abs(r) for r in off.residuals()[1:]) <= 1e-8
    with pytest.raises(ValueError, match="sum to 1"):
        MixtureBoundEvaluator(off, chain4.pf)


def test_mixture_bound_prefactor_rescaling(chain4):
    base = solve_coefficients(2, (4, 13, 17))
    for lam in (2, 3, 5):
        scaled = solve_coefficients(2, tuple(lam * k for k in (4, 13, 17)))
        ratio = base.objective / scaled.objective
        assert abs(ratio - lam**4) < 1e-9 * lam**4


def test_mixture_bound_dominates_measured_error(chain4):
    sch = solve_coefficients(2, (4, 13, 17))
    evaluator = MixtureBoundEvaluator(sch, chain4.pf)
    for t in (0.25, 0.5, 1.0, 1.5, 2.0):
        bound = evaluator.at(t)
        states = [rho_k_state(chain4.pf, chain4.psi, t, k) for k in sch.steps]
        states.append(chain4.oracle.evolve(chain4.psi, t))
        err = mixture_trace_norm(states, list(sch.coefficients) + [-1.0])
        assert bound >= err
        assert evaluator.a1 > 0 and evaluator.a2 > 0 and evaluator.a3 >= 0


def test_mixture_bound_zero_time(chain4):
    sch = solve_coefficients(2, (4, 13, 17))
    bound = MixtureBoundEvaluator(sch, chain4.pf).at(0.0)
    assert bound == 0.0


def test_bounds_refuse_negative_times(chain4):
    # Both bounds carry odd powers of t, so a negative time would print a
    # negative "bound", and NaN a NaN one; each refuses them and keeps t = 0.
    sch = solve_coefficients(2, (4, 13, 17))
    evaluator = MixtureBoundEvaluator(sch, chain4.pf)
    alpha = evaluator.commutator_sum
    for t in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="the bound needs a finite t >= 0"):
            evaluator.at(t)
        with pytest.raises(ValueError, match="the bound needs a finite t >= 0"):
            product_formula_error_bound(chain4.pf, t, 4, commutator_sum=alpha)
    assert evaluator.at(0.0) == 0.0
    assert product_formula_error_bound(chain4.pf, 0.0, 4, commutator_sum=alpha) == 0.0


# -- the k-step bound ---------------------------------------------------------------

def test_kstep_bound_trivial_scalings(chain4):
    alpha = formula_commutator_sum(chain4.pf)
    assert product_formula_error_bound(chain4.pf, 0.0, 3, commutator_sum=alpha) == 0.0
    b1 = product_formula_error_bound(chain4.pf, 1.0, 4, commutator_sum=alpha)
    b2 = product_formula_error_bound(chain4.pf, 1.0, 8, commutator_sum=alpha)
    assert abs(b1 / b2 - 2.0**2) < 1e-12
    with pytest.raises(ValueError):
        product_formula_error_bound(chain4.pf, 1.0, 0, commutator_sum=alpha)


def test_kstep_bound_dominates_on_grid(chain4):
    alpha = formula_commutator_sum(chain4.pf)
    for t in (0.5, 1.0, 2.0):
        exact = chain4.oracle.evolve(chain4.psi, t)
        for k in (1, 3, 9):
            err = mixture_trace_norm(
                [rho_k_state(chain4.pf, chain4.psi, t, k), exact], [1.0, -1.0])
            assert product_formula_error_bound(chain4.pf, t, k, commutator_sum=alpha) >= err
