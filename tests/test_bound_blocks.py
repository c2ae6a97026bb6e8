"""The block-diagonal bound layer: invariant blocks, the block norm, agreement
of the sampled window aggregates with a full-space reference, exact symbolic
norms above the dense cap, one build and one norm per distinct nested
commutator on both routes, hoisting of the t-independent aggregates, and the
size caps checked before any work."""

import itertools
import math

import numpy as np
import pytest

from mpf_lab import (
    FragmentTimeSampler,
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
from mpf_lab import bounds
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
    return cases


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


# -- full-space reference for the sampled aggregates -------------------------------

def dense_unitary(slots, taus):
    """exp(-i tau_1 G_1) .. exp(-i tau_D G_D), each factor from eigh."""
    u = np.eye(slots[0].shape[0], dtype=complex)
    for tau, g in zip(taus, slots):
        vals, vecs = np.linalg.eigh(g)
        u = u @ (vecs * np.exp(-1j * tau * vals)) @ vecs.conj().T
    return u


def reference_sum(chains, total, ell, ham, slots, rows):
    """Sum over compositions of the weighted sample maximum of
    ||Ad_H^ell (U C U^dag)||, all in the full space, norms from the SVD."""
    out = 0.0
    unitaries = [dense_unitary(slots, taus) for taus in rows]
    for chain, target in chains:
        for qs in itertools.product(range(total + 1), repeat=len(chain)):
            if sum(qs) != total:
                continue
            weight = math.factorial(total) // math.prod(math.factorial(q) for q in qs)
            c = target
            for a, q in reversed(list(zip(chain, qs))):
                for _ in range(q):
                    c = a @ c - c @ a
            best = 0.0
            for u in unitaries:
                x = u @ c @ u.conj().T
                for _ in range(ell):
                    x = ham @ x - x @ ham
                best = max(best, np.linalg.norm(x, 2))
            out += weight * best
    return out


@pytest.mark.parametrize("ell", [1, 2])
def test_window_sums_match_full_space_reference(chain4, ell):
    pf = chain4.pf
    sampler = FragmentTimeSampler(random_draws=8, seed=5)
    t = 0.6
    slots = [to_dense(op) for op in pf.slot_operators]
    ham = to_dense(pf.hamiltonian)
    rows = sampler.samples(len(slots), t)

    chains = [(slots[a:][::-1], slots[a - 1]) for a in range(1, len(slots))]
    got = formula_conjugated_sum(pf, 2, ell, t, sampler)
    ref = reference_sum(chains, 2, ell, ham, slots, rows)
    assert ref > 0
    assert abs(got - ref) <= 1e-12 * ref


# -- hoisting and fail-fast ------------------------------------------------------

def test_time_points_reuse_the_fixed_aggregates(chain4, monkeypatch):
    calls = []
    compositions = bounds._compositions

    def counting(slots, total, form, ad, is_zero):
        calls.append(total)
        return compositions(slots, total, form, ad, is_zero)

    monkeypatch.setattr(bounds, "_compositions", counting)
    scheme = solve_coefficients(2, (4, 13, 17))
    evaluator = MixtureBoundEvaluator(scheme, chain4.pf, FragmentTimeSampler(random_draws=4))
    built = len(calls)
    assert {2, 3, 4} <= set(calls)
    first, second = evaluator.at(0.5), evaluator.at(1.5)
    assert len(calls) == built
    for name in ("conj_comm_4_0_at0", "conj_comm_3_0_window"):
        assert first.aggregates[name] == second.aggregates[name]
    name = "conj_comm_2_1_window"
    assert first.aggregates[name] != second.aggregates[name]


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
        formula_conjugated_sum(pf, 2, 1, 0.3)


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
    block_ad, block_norms = bounds._block_ad, bounds._block_norms

    def counting_ad(a, x):
        ads.append(1)
        return block_ad(a, x)

    def counting_norms(x, anti):
        norms.append(x[0].shape[0])
        return block_norms(x, anti)

    monkeypatch.setattr(bounds, "_block_ad", counting_ad)
    monkeypatch.setattr(bounds, "_block_norms", counting_norms)
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


def test_window_space_decomposes_each_distinct_slot_once(monkeypatch):
    calls = []
    eigh = np.linalg.eigh

    def counting(a):
        calls.append(a.shape)
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    for pf, distinct in ((chain_formula(4), 3), (suzuki(chain_formula(4), 4), 6)):
        calls.clear()
        space = bounds._WindowSpace(pf)
        assert calls == []
        space.conjugated_ham(np.full(pf.depth, 0.1))
        assert len(set(pf.slot_operators)) == distinct
        assert len(calls) == distinct * len(space.ham)


@pytest.mark.parametrize("n", [4, 6])
def test_plain_sums_build_no_slot_eigendecomposition(monkeypatch, n):
    def forbidden(*args, **kwargs):
        raise AssertionError("a slot eigendecomposition was built for a plain sum")

    pf = chain_formula(n)
    monkeypatch.setattr(np.linalg, "eigh", forbidden)
    assert formula_commutator_sum(pf) > 0
    assert formula_conjugated_sum(pf, 2, 0, 0.7) > 0


def test_plain_conjugated_sum_on_the_pauli_sum_route():
    # ell = 0 is the plain sum, so it needs no window layer and runs at n = 9.
    pf = chain_formula(9)
    assert formula_conjugated_sum(pf, 2, 0, 0.3) == formula_commutator_sum(pf)


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
