"""The block-diagonal bound layer: invariant blocks, the block norm, soundness
of the certified window aggregates against full-space sampled conjugations,
exact symbolic norms above the dense cap, one build and one norm per distinct
nested commutator on both routes, time points that are arithmetic only, and
the size caps checked before any work."""

import math

import numpy as np
import pytest

from mpf_lab import (
    PauliString,
    PauliSumOp,
    ProductFormula,
    build_heisenberg_chain,
    commutator_minus_i,
    formula_commutator_sum,
    formula_conjugated_sum,
    fragment_decomposition_s2,
    second_order,
    solve_coefficients,
    suzuki,
    to_dense,
)
from mpf_lab import bounds, pauli
from mpf_lab.bounds import (
    MixtureBoundEvaluator,
    _block_norms,
    spectral_norm_symbolic,
)
from mpf_lab.errors import ResourceLimitError
from mpf_lab.pauli import invariant_blocks


def chain_formula(n, seed=2024):
    _, fields = build_heisenberg_chain(n, seed)
    return second_order(fragment_decomposition_s2(n, fields))


def window_ops(pf):
    return [*pf.slot_operators, pf.hamiltonian]


def slot_chains(pf):
    """``(chain, target)`` pairs (G_D..G_a; G_{a-1}) for a = 2..D, the
    chain's outermost operator first."""
    slots = pf.slot_operators
    return [(list(slots[a:][::-1]), slots[a - 1]) for a in range(1, len(slots))]


# -- invariant blocks -----------------------------------------------------------

@pytest.mark.parametrize("n", [4, 5, 6])
def test_heisenberg_blocks_are_total_z_sectors(n):
    blocks = invariant_blocks(window_ops(chain_formula(n)))[0]
    sizes = sorted(idx.shape[1] for idx in blocks for _ in range(idx.shape[0]))
    assert sizes == sorted(math.comb(n, m) for m in range(n + 1))
    for idx in blocks:
        for members in idx:
            assert len({bin(int(i)).count("1") for i in members}) == 1
    covered = np.sort(np.concatenate([idx.ravel() for idx in blocks]))
    assert np.array_equal(covered, np.arange(1 << n))


def test_x_field_gives_one_block():
    n = 5
    pf = chain_formula(n)
    field = PauliSumOp.from_terms(n, [(0.3, PauliString("IIXII"))])
    blocks = invariant_blocks([*window_ops(pf), field])[0]
    assert len(blocks) == 1
    assert blocks[0].shape == (1, 1 << n)
    assert np.array_equal(blocks[0][0], np.arange(1 << n))


def dense_pattern_blocks(mats):
    """Reference partition from the union of dense nonzero patterns: min-label
    propagation on ``pattern | pattern.T``, grouped by size as the helper
    groups it."""
    pattern = np.zeros(mats[0].shape, dtype=bool)
    for m in mats:
        pattern |= m != 0
    rows, cols = np.nonzero(pattern | pattern.T)
    label = np.arange(pattern.shape[0])
    while True:
        low = label.copy()
        np.minimum.at(low, rows, label[cols])
        low = low[low]
        if np.array_equal(low, label):
            break
        label = low
    sizes = np.unique(label, return_counts=True)[1]
    by_size = {}
    for members in np.split(np.argsort(label, kind="stable"), np.cumsum(sizes)[:-1]):
        by_size.setdefault(members.size, []).append(members)
    return [np.array(by_size[s]) for s in sorted(by_size)]


def random_ops(rng, n, count, letters="IIZZXY"):
    ops = []
    for _ in range(count):
        words = ["".join(rng.choice(list(letters), n)) for _ in range(int(rng.integers(1, 5)))]
        ops.append(PauliSumOp.from_terms(
            n, [(float(rng.standard_normal()), PauliString(w)) for w in words]))
    return ops


def helper_cases():
    rng = np.random.default_rng(31)
    cases = [window_ops(chain_formula(n)) for n in (4, 5, 6)]
    field = PauliSumOp.from_terms(5, [(0.3, PauliString("IIXII"))])
    cases.append([*window_ops(chain_formula(5)), field])
    cases += [random_ops(rng, n, count) for n, count in ((3, 1), (4, 2), (5, 2), (6, 1))]
    cases.append([PauliSumOp.from_terms(2, [(0.5, PauliString("XX")), (0.5, PauliString("YY"))])])
    cases.append([PauliSumOp.zero(3)])
    # The Z-only group comes first; XX + YY is an exact zero on |00> and |11>,
    # whose partners lie in other blocks, so a placement that wrote zero
    # couplings would overwrite their diagonal entries.
    cases.append([PauliSumOp.from_terms(
        2, [(0.3, PauliString("IZ")), (0.5, PauliString("XX")), (0.5, PauliString("YY"))])])
    return cases


def test_invariant_blocks_reads_each_operators_couplings_once(monkeypatch):
    # The block search and the placement share one read per operator.
    ops = window_ops(chain_formula(6))
    reads = []
    couplings = pauli._couplings
    monkeypatch.setattr(pauli, "_couplings",
                        lambda op, idx: reads.append(op) or couplings(op, idx))
    invariant_blocks(ops)
    assert reads == ops


@pytest.mark.parametrize("ops", helper_cases())
def test_helper_partition_matches_dense_pattern(ops):
    blocks, parts = invariant_blocks(ops)
    dense = [to_dense(op) for op in ops]
    ref = dense_pattern_blocks(dense)
    assert len(blocks) == len(ref)
    for got, want in zip(blocks, ref):
        assert np.array_equal(got, want)
    for stacks, mat in zip(parts, dense):
        assert len(stacks) == len(blocks)
        for stack, idx in zip(stacks, blocks):
            assert np.array_equal(stack, mat[idx[:, :, None], idx[:, None, :]])


def test_random_cases_cover_y_words_and_several_blocks():
    cases = helper_cases()
    assert any(ps.y_count for ops in cases[4:8] for op in ops for _, ps in op.terms)
    assert all(sum(b.shape[0] for b in invariant_blocks(ops)[0]) > 1 for ops in cases[5:8])


def test_xx_plus_yy_keeps_00_and_11_apart():
    blocks, _ = invariant_blocks(
        [PauliSumOp.from_terms(2, [(0.5, PauliString("XX")), (0.5, PauliString("YY"))])])
    assert [b.tolist() for b in blocks] == [[[0], [3]], [[1, 2]]]


def test_block_norm_matches_svd(rng):
    def stack(shape, sign):
        a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        return a + sign * a.conj().swapaxes(-1, -2)

    for sign, anti in ((1.0, False), (-1.0, True)):
        groups = [stack(shape, sign) for shape in ((4, 3, 1, 1), (4, 2, 5, 5), (4, 1, 7, 7))]
        ref = np.max([np.linalg.norm(g, 2, axis=(-2, -1)).max(axis=-1) for g in groups],
                     axis=0)
        got = _block_norms(groups, anti=anti)
        assert got.shape == (4,)
        assert np.allclose(got, ref, rtol=1e-12, atol=0.0)


# -- soundness of the window certificate -------------------------------------------

def three_slot_formula(n, seed=2024):
    """A non-palindromic formula: odd bonds, then even bonds, then fields."""
    _, fields = build_heisenberg_chain(n, seed)
    odd, field, even, _, _ = fragment_decomposition_s2(n, fields)
    return ProductFormula(fragments=(2.0 * odd, even, 2.0 * field),
                          steps=((0, 1.0), (1, 1.0), (2, 1.0)), order=2)


def split_formula(n):
    """A non-palindromic formula whose blocks peak apart: with qubit 0 in |0>
    the slots are strong commuting pair terms on qubits 1, 2 (H's largest
    spread, zero commutators); with qubit 0 in |1> they are weak terms on
    qubits 1, 2 that do not commute."""
    rest = "I" * (n - 3)

    def frag(strong, weak):
        return PauliSumOp.from_terms(n, [
            (2.5, PauliString("I" + strong + rest)), (2.5, PauliString("Z" + strong + rest)),
            (0.5, PauliString("I" + weak)), (-0.5, PauliString("Z" + weak))])

    return ProductFormula(fragments=(frag("XX", "XI" + rest), frag("YY", "ZZ" + rest),
                                     frag("ZZ", "IX" + rest)),
                          steps=((0, 1.0), (1, 1.0), (2, 1.0)), order=2)


def partial_products(slots, taus):
    """exp(-i tau_1 G_1) .. exp(-i tau_D G_D) for each row of ``taus``, in the
    full space, each factor from ``eigh``."""
    u = np.eye(slots[0].shape[0], dtype=complex)
    for g, tau in zip(slots, taus.T):
        vals, vecs = np.linalg.eigh(g)
        u = u @ (vecs * np.exp(-1j * tau[:, None, None] * vals)) @ vecs.conj().T
    return u


def spread(m):
    vals = np.linalg.eigvalsh(m)
    return vals[-1] - vals[0]


def window_terms(pf, total, ell, taus):
    """Every composition's weight, sampled maximum of ||Ad_H^ell(U C U^dag)||
    over the partial products of ``taus``, and certificate
    ``max_b spread_b(H)^ell spread_b(C) / 2`` over the dense-pattern blocks
    of the slots and H, all in the full space."""
    slots = [to_dense(op) for op in pf.slot_operators]
    ham = to_dense(pf.hamiltonian)
    blocks = [members for idx in dense_pattern_blocks([*slots, ham]) for members in idx]
    u = partial_products(slots, taus)
    herm = 1j if total % 2 else 1.0
    dense = dict(zip(pf.slot_operators, slots))
    for chain, target in slot_chains(pf):
        for weight, c in plain_compositions([dense[a] for a in chain], dense[target], total,
                                            lambda a, x: a @ x - x @ a):
            x = u @ c @ u.conj().swapaxes(-1, -2)
            for _ in range(ell):
                x = ham @ x - x @ ham
            sampled = np.linalg.norm(x, 2, axis=(-2, -1)).max()
            cert = max(spread(ham[np.ix_(b, b)]) ** ell * spread(herm * c[np.ix_(b, b)]) / 2
                       for b in blocks)
            yield weight, sampled, cert


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("make", [chain_formula, three_slot_formula, split_formula],
                         ids=["chain", "three_slot", "split"])
def test_window_certificate_bounds_every_sampled_conjugation(make, n):
    # 300 fragment-time tuples, each in [0, w]^D for its own window w <= 5.
    pf = make(n)
    rng = np.random.default_rng(7 + n)
    taus = rng.uniform(0.0, 1.0, (300, len(pf.steps))) * rng.uniform(0.0, 5.0, (300, 1))
    for total, ell in ((2, 1), (2, 2), (3, 1)):
        terms = list(window_terms(pf, total, ell, taus))
        scale = max(cert for _, _, cert in terms)
        for _, sampled, cert in terms:
            assert sampled <= cert + 1e-12 * scale
        ref = sum(weight * cert for weight, _, cert in terms)
        got = formula_conjugated_sum(pf, {(total, ell)})[total, ell]
        assert ref > 0
        assert abs(got - ref) <= 1e-12 * ref


def even_odd_suzuki(n):
    """The chain's p=4 Suzuki formula on two fragments: the odd bonds, and
    the even bonds with the fields.  (On the five-fragment split of
    :func:`chain_formula` the n=3 evaluator alone takes about 25 s.)"""
    h_op, _ = build_heisenberg_chain(n, 2024)
    odd = [len(ps.support) == 2 and min(ps.support) % 2 == 1 for _, ps in h_op.terms]
    frags = [PauliSumOp.from_terms(n, [t for t, o in zip(h_op.terms, odd) if o == want])
             for want in (False, True)]
    return suzuki(second_order(frags), 4)


@pytest.mark.parametrize("p, n, steps", [(2, 4, (4, 13, 17)), (2, 6, (4, 13, 17)),
                                         (4, 3, (2, 4, 6, 8, 10))])
def test_evaluator_reads_each_aggregate_from_the_conjugated_sum(p, n, steps):
    # One call for the whole set gives each aggregate the bits of a call
    # for that aggregate alone.
    pf = even_odd_suzuki(n) if p == 4 else chain_formula(n)
    evaluator = MixtureBoundEvaluator(solve_coefficients(p, steps), pf)
    assert evaluator.commutator_sum == formula_conjugated_sum(pf, {(p, 0)})[p, 0]
    assert len(evaluator.aggregates) == (4 if p == 2 else 5)
    for name, value in evaluator.aggregates.items():
        depth, ell = map(int, name.split("_")[2:4])
        assert value == formula_conjugated_sum(pf, {(depth, ell)})[depth, ell]


def test_certified_window_columns_stay_within_4x_of_sampled(chain4):
    # The bound at t = 0.5 with k_min = 4: fragment times in [0, 0.125].
    scheme = solve_coefficients(2, (4, 13, 17))
    evaluator = MixtureBoundEvaluator(scheme, chain4.pf)
    taus = np.random.default_rng(11).uniform(0.0, 0.5 / 4, (300, len(chain4.pf.steps)))
    for total, ell in ((2, 1), (2, 2)):
        sampled = sum(weight * best
                      for weight, best, _ in window_terms(chain4.pf, total, ell, taus))
        certified = evaluator.aggregates[f"conj_comm_{total}_{ell}_window"]
        assert sampled <= certified <= 4.0 * sampled


# -- time points and fail-fast ----------------------------------------------------

def test_time_points_reuse_the_fixed_aggregates(chain4, monkeypatch):
    # Construction builds every aggregate from eigvalsh alone; a time point
    # is arithmetic only, so every window column is constant in t.
    calls = []
    compositions = bounds._compositions

    def counting(slots, total, form, ad, is_zero):
        calls.append(total)
        return compositions(slots, total, form, ad, is_zero)

    def forbidden(*args, **kwargs):
        raise AssertionError("an eigensolver ran where none should")

    monkeypatch.setattr(bounds, "_compositions", counting)
    monkeypatch.setattr(np.linalg, "eigh", forbidden)
    scheme = solve_coefficients(2, (4, 13, 17))
    evaluator = MixtureBoundEvaluator(scheme, chain4.pf)
    built = len(calls)
    assert {2, 3, 4} <= set(calls)
    monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
    aggregates = dict(evaluator.aggregates)
    first, second = evaluator.at(0.5), evaluator.at(1.5)
    assert len(calls) == built
    assert evaluator.aggregates == aggregates
    assert set(evaluator.aggregates) == {"conj_comm_4_0_at0", "conj_comm_3_0_window",
                                         "conj_comm_2_1_window", "conj_comm_2_2_window"}
    assert second > first > 0


def test_dense_cap_checked_before_any_work(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("commutator work started above the dense cap")

    monkeypatch.setattr(bounds, "formula_commutator_sum", forbidden)
    monkeypatch.setattr(bounds, "_compositions", forbidden)
    monkeypatch.setattr(bounds, "invariant_blocks", forbidden)
    pf = chain_formula(9)
    scheme = solve_coefficients(2, (4, 13, 17))
    with pytest.raises(ResourceLimitError, match="capped"):
        MixtureBoundEvaluator(scheme, pf)
    with pytest.raises(ResourceLimitError, match="capped"):
        formula_conjugated_sum(pf, {(2, 1)})[2, 1]


def test_symbolic_norms_exact_at_11_qubits():
    # Above the dense cap the nested commutators are Pauli sums; each norm
    # must equal the exact largest |eigenvalue| over the total-Z sectors.
    n = 11
    slots = chain_formula(n).slot_operators
    a1, a2, target = slots[4], slots[3], slots[2]
    # Slots (target, a2, a1): the chain (a1, a2; target) and the chain (a1; a2).
    pf = ProductFormula(fragments=(target, a2, a1), steps=((0, 1.0), (1, 1.0), (2, 1.0)),
                        order=2)
    pieces = [(1, (a2, a2, target)), (2, (a1, a2, target)), (1, (a1, a1, target)),
              (1, (a1, a1, a2))]
    weight = np.bitwise_count(np.arange(1 << n))
    ref = 0.0
    for w, (outer, inner, tgt) in pieces:
        dense = to_dense(commutator_minus_i(outer, commutator_minus_i(inner, tgt)))
        ref += w * max(np.abs(np.linalg.eigvalsh(dense[np.ix_(weight == m, weight == m)])).max()
                       for m in range(n + 1))
    got = formula_commutator_sum(pf)
    assert abs(got - ref) <= 1e-12 * ref


def plain_compositions(chain, target, total, ad):
    """``(multinomial weight, nested commutator)`` of every composition of
    ``total`` over the chain, innermost adjoint first, none merged or
    pruned."""
    def rec(pos, budget, cur, denom):
        if budget == 0:
            yield math.factorial(total) // denom, cur
        elif pos >= 0:
            for q in range(budget + 1):
                if q > 0:
                    cur = ad(chain[pos], cur)
                yield from rec(pos - 1, budget - q, cur, denom * math.factorial(q))

    yield from rec(len(chain) - 1, total, target, 1)


def test_symbolic_sum_norms_each_distinct_piece_once(monkeypatch):
    # The palindromic chain formula repeats nested commutators across its
    # slot chains (17 pieces, 13 distinct at n = 9); each distinct one is
    # normed once, and the sum matches the un-memoized one.
    pf = chain_formula(9)
    p = pf.order
    per_chain = [list(plain_compositions(chain, tgt, p, commutator_minus_i))
                 for chain, tgt in slot_chains(pf)]
    pieces = [c for chain in per_chain for _, c in chain if not c.is_empty]
    assert len(set(pieces)) < len(pieces)
    plain = float(sum(float(sum(w * spectral_norm_symbolic(c) for w, c in chain))
                      for chain in per_chain))
    calls = []

    def counting(op):
        calls.append(op)
        return spectral_norm_symbolic(op)

    monkeypatch.setattr(bounds, "spectral_norm_symbolic", counting)
    assert abs(formula_commutator_sum(pf) - plain) <= 1e-13 * plain
    assert len(calls) == len(set(pieces))


def plain_stacked_sum(chain, target, total):
    """Composition-weighted norm sum with every composition's piece built and
    normed on its own: the pieces of each partial budget are carried as one
    stack, so none is merged with another."""
    stacks = {0: (np.ones(1), target[None])}
    for a in reversed(chain):
        grown = {}
        for used, (w, x) in stacks.items():
            for q in range(total - used + 1):
                if q > 0:
                    x = a @ x - x @ a
                grown.setdefault(used + q, []).append((w / math.factorial(q), x))
        stacks = {used: (np.concatenate([w for w, _ in g]), np.concatenate([x for _, x in g]))
                  for used, g in grown.items()}
    w, x = stacks[total]
    anti = 1j if total % 2 else 1.0
    return math.factorial(total) * float(w @ np.abs(np.linalg.eigvalsh(anti * x)).max(axis=-1))


def test_block_sum_builds_and_norms_each_distinct_piece_once(monkeypatch):
    # Suzuki p=4 at n=4: 24 slot chains over 6 distinct slot operators.
    # Brute force: every composition as its target and the operators
    # applied to it, innermost first; a prefix is built when no shorter
    # prefix is zero, and a full piece is normed when no prefix is zero.
    pf = suzuki(chain_formula(4), 4)
    p = pf.order
    ops = list(dict.fromkeys(pf.slot_operators))
    parts = invariant_blocks(ops)[1]
    keys = set()
    for chain, tgt in slot_chains(pf):
        seq = [ops.index(a) for a in chain]
        keys.update(key for _, key in plain_compositions(seq, (ops.index(tgt),), p,
                                                         lambda a, key: key + (a,)))
    prefixes = {key[:m] for key in keys for m in range(2, p + 2)}

    def direct(key):
        x = parts[key[0]]
        for a in key[1:]:
            x = bounds._block_ad(parts[a], x)
        return x

    zero = {key for key in prefixes if bounds._block_is_zero(direct(key))}
    built = [key for key in prefixes if not any(key[:m] in zero for m in range(2, len(key)))]
    normed = [key for key in keys if not any(key[:m] in zero for m in range(2, p + 2))]
    assert len(normed) < len(built) < len(prefixes)

    ads, norms = [], []
    block_ad, block_extremes = bounds._block_ad, bounds._block_extremes

    def counting_ad(a, x):
        ads.append(1)
        return block_ad(a, x)

    def counting_norms(x, anti):
        norms.append(x[0].shape[0])
        return block_extremes(x, anti)

    monkeypatch.setattr(bounds, "_block_ad", counting_ad)
    monkeypatch.setattr(bounds, "_block_extremes", counting_norms)
    got = formula_commutator_sum(pf)
    assert len(ads) == len(built)
    assert sum(norms) == len(normed)
    dense = {op: to_dense(op) for op in ops}
    # The chain's matrices are real, which keeps the reference quick.
    assert not any(m.imag.any() for m in dense.values())
    dense = {op: m.real for op, m in dense.items()}
    ref = sum(plain_stacked_sum([dense[a] for a in chain], dense[tgt], p)
              for chain, tgt in slot_chains(pf))
    assert abs(got - ref) <= 1e-13 * ref


@pytest.mark.parametrize("n", [4, 6])
def test_plain_sums_build_no_slot_eigendecomposition(monkeypatch, n):
    def forbidden(*args, **kwargs):
        raise AssertionError("a slot eigendecomposition was built for a plain sum")

    pf = chain_formula(n)
    monkeypatch.setattr(np.linalg, "eigh", forbidden)
    assert formula_commutator_sum(pf) > 0
    assert formula_conjugated_sum(pf, {(2, 0)})[2, 0] > 0


def test_plain_conjugated_sum_on_the_pauli_sum_route():
    # ell = 0 is the plain sum, so it needs no window layer and runs at n = 9.
    pf = chain_formula(9)
    assert formula_conjugated_sum(pf, {(2, 0)})[2, 0] == formula_commutator_sum(pf)


def test_symbolic_cap_checked_before_any_work(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("symbolic work started above the qubit cap")

    monkeypatch.setattr(bounds, "commutator_minus_i", forbidden)
    monkeypatch.setattr(bounds, "invariant_blocks", forbidden)
    pf = chain_formula(13)
    with pytest.raises(ResourceLimitError, match="capped"):
        formula_commutator_sum(pf)
    with pytest.raises(ResourceLimitError, match="capped"):
        spectral_norm_symbolic(pf.hamiltonian)
