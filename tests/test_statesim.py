import warnings

import numpy as np
import pytest
import scipy.linalg as sla

from mpf_lab import (
    FragmentEvolver,
    PauliString,
    PauliSumOp,
    SpectralOracle,
    mixture_frobenius_sq,
    mixture_trace_norm,
    neel_state,
    rho_k_state,
    second_order,
    suzuki,
    to_dense,
)
from mpf_lab import bounds, pauli, statesim
from mpf_lab.bounds import spectral_norm_symbolic
from mpf_lab.errors import NumericalDegeneracyError, ResourceLimitError
from mpf_lab.formulas import _BlockPower, _Program, _Walk, fragment_by_commuting_groups
from mpf_lab.heisenberg import build_heisenberg_chain
from mpf_lab.pauli import commutes, invariant_blocks
from conftest import basis_state, random_state


def op(n, *terms):
    return PauliSumOp.from_terms(n, [(c, PauliString(w)) for c, w in terms])


def test_diagonal_fragment_global_phase():
    state = basis_state(3, "000")
    out = FragmentEvolver(op(3, (1.0, "ZII"))).apply(state, np.pi)
    assert np.allclose(out, np.exp(-1j * np.pi) * state)
    assert np.allclose(np.abs(out), np.abs(state))


def test_x_rotation_by_hand():
    out = FragmentEvolver(op(1, (1.0, "X"))).apply(basis_state(1, "0"), np.pi / 2)
    expected = np.array([0.0, -1j])
    assert np.allclose(out, expected, atol=1e-14)


def test_fragment_exp_matches_expm(rng):
    frag = op(4, (0.7, "XXII"), (-0.3, "IIZZ"), (0.2, "IIIZ"))
    state = random_state(4, rng)
    fast = FragmentEvolver(frag).apply(state, 0.83)
    dense = sla.expm(-1j * 0.83 * to_dense(frag)) @ state
    assert np.linalg.norm(fast - dense) < 1e-12


def test_norm_preserved(rng):
    frag = op(3, (0.4, "XXI"), (1.1, "IIZ"))
    state = random_state(3, rng)
    for t in (0.1, 1.0, 7.3):
        state = FragmentEvolver(frag).apply(state, t)
        assert abs(np.linalg.norm(state) - 1.0) < 1e-12


def random_commuting_fragment(n, rng, size=8):
    """Greedy commuting set drawn from random words and their same-``x_mask``
    variants (X and Y swapped on two sites, Z toggled off the X support), so
    several terms usually share one mask and Y words are common."""
    pool = []
    for _ in range(size):
        word = list(rng.choice(list("IXYZ"), n))
        pool.append("".join(word))
        flip = [j for j, ch in enumerate(word) if ch in "XY"]
        if len(flip) >= 2:
            variant = word.copy()
            for j in rng.choice(flip, 2, replace=False):
                variant[j] = "Y" if variant[j] == "X" else "X"
            pool.append("".join(variant))
        off = [j for j, ch in enumerate(word) if ch in "IZ"]
        if off:
            variant = word.copy()
            j = int(rng.choice(off))
            variant[j] = "Z" if variant[j] == "I" else "I"
            pool.append("".join(variant))
    kept = []
    for word in pool:
        ps = PauliString(word)
        if all(commutes(ps, other) for other in kept):
            kept.append(ps)
    return PauliSumOp.from_terms(n, [(float(rng.standard_normal()), ps) for ps in kept])


def expm_rows(frag, block, times):
    dense = to_dense(frag)
    return np.stack([sla.expm(-1j * t * dense) @ block[i] for i, t in enumerate(times)])


def random_block(n, r, rng):
    return np.stack([random_state(n, rng) for _ in range(r)])


def test_block_kernel_matches_expm_random_fragments(rng):
    shared = 0
    for trial in range(25):
        n = int(rng.integers(1, 6))
        frag = random_commuting_fragment(n, rng)
        masks = [ps.x_mask for _, ps in frag if ps.x_mask]
        shared += len(masks) != len(set(masks))
        block = random_block(n, 4, rng)
        times = rng.uniform(-2.0, 2.0, 4)
        fast = FragmentEvolver(frag).apply(block, times)
        assert fast.shape == block.shape
        assert np.abs(fast - expm_rows(frag, block, times)).max() < 1e-12
    assert shared >= 5


def test_block_kernel_grouped_fragments(rng):
    cases = [
        # XX + YY share one mask: the |00>,|11> coupling cancels
        op(3, (0.5, "XXI"), (0.5, "YYI"), (0.5, "ZZI"), (-0.3, "IIZ")),
        # unequal XX and YY weights give two coupling magnitudes on one mask
        op(3, (0.9, "XXI"), (-0.2, "YYI"), (0.3, "ZZI"), (0.4, "IIX")),
        # Y words with Z components inside the window and a non-local mask
        op(4, (0.7, "XZZX"), (0.3, "YZZY"), (-0.6, "ZIIZ"), (0.25, "IZZI")),
        # Z-only fragment
        op(4, (0.3, "ZIII"), (-1.1, "IZZI"), (0.4, "ZZZZ"), (0.2, "IIII")),
    ]
    for frag in cases:
        block = random_block(frag.n, 3, rng)
        times = np.array([0.37, -1.2, 2.9])
        fast = FragmentEvolver(frag).apply(block, times)
        assert np.abs(fast - expm_rows(frag, block, times)).max() < 1e-12


def test_block_kernel_commuting_groups_fragments(rng):
    words = ["XXII", "YYII", "ZZII", "IXYI", "IYXI", "IIZZ", "XIIY", "ZIZI", "YIYI"]
    ham = PauliSumOp.from_terms(
        4, [(float(rng.standard_normal()), PauliString(w)) for w in words])
    groups = fragment_by_commuting_groups(ham)
    assert len(groups) > 1
    block = random_block(4, 2, rng)
    for frag in groups:
        times = rng.uniform(-1.0, 1.0, 2)
        fast = FragmentEvolver(frag).apply(block, times)
        assert np.abs(fast - expm_rows(frag, block, times)).max() < 1e-12


def test_block_kernel_columns_and_vectors(chain4, rng):
    evolver = FragmentEvolver(chain4.fragments[0])
    block = random_block(4, 3, rng)
    before = block.copy()
    times = np.array([0.1, 0.7, -0.4])
    out = evolver.apply(block, times)
    assert np.array_equal(block, before)
    for i, t in enumerate(times):
        assert np.abs(out[i] - evolver.apply(block[i], t)).max() < 1e-14
    # one scalar time applies to every row
    same = evolver.apply(block, 0.7)
    assert np.abs(same[1] - out[1]).max() < 1e-14
    vec = evolver.apply(block[0], 0.1)
    assert vec.shape == (16,)


def test_block_kernel_zero_time_exact(chain4, rng):
    evolver = FragmentEvolver(chain4.fragments[2])
    state = random_state(4, rng)
    assert np.array_equal(evolver.apply(state, 0.0), state)
    block = random_block(4, 3, rng)
    assert np.array_equal(evolver.apply(block, np.zeros(3)), block)
    assert np.array_equal(evolver.apply(block, 0.0), block)


def test_fragment_evolver_rejects_wrong_dimension(rng):
    evolver = FragmentEvolver(op(2, (1.0, "XX"), (1.0, "YY")))
    with pytest.raises(ValueError, match="rows of dimension"):
        evolver.apply(random_state(3, rng), 0.3)
    with pytest.raises(ValueError, match="rows of dimension"):
        evolver.apply(random_block(3, 2, rng), 0.3)
    with pytest.raises(ValueError):
        evolver.apply(random_block(2, 2, rng), np.array([0.1, 0.2, 0.3]))
    with pytest.raises(ValueError):
        evolver.apply(random_state(2, rng), np.array([0.1, 0.2]))


def test_kernels_refuse_a_block_of_columns(chain4, rng):
    # A (2^n, r) block of columns, r != 2^n, is refused, not read as rows.
    columns = random_block(4, 3, rng).T
    with pytest.raises(ValueError, match="rows of dimension"):
        FragmentEvolver(chain4.fragments[0]).apply(columns, 0.3)
    with pytest.raises(ValueError, match="not a"):
        chain4.pf.apply(columns, 0.3)


def test_noncommuting_fragment_rejected():
    with pytest.raises(ValueError, match="commute"):
        FragmentEvolver(op(2, (1.0, "XI"), (1.0, "ZI")))


def subspace_rows(n, basis, count, rng):
    """Random rows with amplitudes on the indices ``basis`` only."""
    block = np.zeros((count, 1 << n), dtype=complex)
    block[:, basis] = (rng.standard_normal((basis.size, count)) + 1j * rng.standard_normal(
        (basis.size, count))).T
    return block


@pytest.mark.parametrize("case", ["neel_6", "neel_10", "two_sectors_6"])
def test_subspace_kernel_matches_full_kernel_bit_for_bit(case, chain6, chain10, rng):
    chain = chain10 if case == "neel_10" else chain6
    pf, n = chain.pf, chain.n
    psi = chain.psi.copy()
    if case == "two_sectors_6":
        # Add a basis state of weight two to the weight-three Neel state.
        psi[0b000011] = 1.0
    basis = pf._basis(psi)
    sizes = {"neel_6": 20, "neel_10": 252, "two_sectors_6": 20 + 15}
    assert basis.size == sizes[case] and np.all(np.diff(basis) > 0)
    outside = np.setdiff1d(np.arange(1 << n), basis)
    block = subspace_rows(n, basis, 5, rng)
    times = np.array([0.31, -1.7, 2.4, 0.0, 0.9])
    for frag in dict.fromkeys(pf.fragments):
        full = FragmentEvolver(frag).apply(block, times)
        sub = FragmentEvolver(frag, basis)
        assert sub.dim == basis.size
        assert np.array_equal(sub.apply(block[:, basis], times), full[:, basis])
        assert not full[:, outside].any()
    ks = np.array([3, 1, 7, 2, 4])
    whole = np.arange(1 << n)
    on_whole, on_basis = _Program(pf, whole), _Program(pf, basis)
    full = on_whole.apply(block, times, ks)
    assert np.array_equal(on_basis.apply(block[:, basis], times, ks), full[:, basis])
    assert np.array_equal(on_basis.apply(block[0, basis], 0.8, 5),
                          on_whole.apply(block[0], 0.8, 5)[basis])
    # The public form takes the 2^n block, runs it on the subspace and
    # scatters it back: the full-space bits there, zeros elsewhere.
    public = pf.apply(block, times, ks)
    assert np.array_equal(public, full)
    assert not public[:, outside].any()


def conserves_nothing(rng):
    """A 5-qubit second-order formula, from the commuting groups of a random
    Pauli sum, whose one invariant block is the whole space."""
    words = ["XYZIX", "ZZXYI", "IYXZZ", "XIIYZ", "YZXIX", "ZXYZI", "IIXXY", "YYZIZ",
             "XIIII", "IIIIY"]
    ham = PauliSumOp.from_terms(
        5, [(float(rng.standard_normal()), PauliString(w)) for w in words])
    return second_order(fragment_by_commuting_groups(ham))


def test_whole_space_kernel_runs_where_nothing_is_conserved(rng):
    pf = conserves_nothing(rng)
    assert [idx.shape for idx in pf._blocks] == [(1, 32)]
    psi = random_state(5, rng)
    assert np.array_equal(pf._basis(psi), np.arange(32))
    # The state's basis is the whole space: programs on either run the same bits.
    block = random_block(5, 3, rng)
    whole = _Program(pf, np.arange(32)).apply(block, 0.7, 3)
    assert np.array_equal(_Program(pf, pf._basis(psi)).apply(block, 0.7, 3), whole)
    assert np.array_equal(whole, pf.apply(block, 0.7, 3))


def touched_union(ops, states):
    """The sorted union of the blocks of ``pauli.invariant_blocks(ops)`` on
    which ``states`` (``(..., 2^n)``) has a nonzero amplitude."""
    members = [m for idx in invariant_blocks(ops)[0] for m in idx]
    return np.sort(np.concatenate([np.zeros(0, dtype=int),
                                   *(m for m in members if states[..., m].any())]))


def oracle_basis(hamiltonian, state, monkeypatch):
    """The basis a new oracle builds H on to evolve ``state``; empty when
    it builds nothing."""
    built, init = [], statesim._ChebyshevBlock.__init__
    with monkeypatch.context() as patch:
        patch.setattr(statesim._ChebyshevBlock, "__init__",
                      lambda self, h, basis: built.append(basis) or init(self, h, basis))
        SpectralOracle(hamiltonian).evolve(state, 0.5)
    assert len(built) <= 1
    return built[0] if built else np.zeros(0, dtype=int)


SUBSPACE_SIZES = {"random_4": 16, "random_6": 64, "two_sectors_4": 4 + 6,
                  "two_sectors_6": 6 + 20, "neel_6": 20, "zero_6": 0, "conserves_nothing_5": 32}


@pytest.mark.parametrize("case", list(SUBSPACE_SIZES))
def test_kernel_push_and_oracle_share_the_touched_subspace(case, chain4, chain6, rng,
                                                            monkeypatch):
    if case == "conserves_nothing_5":
        pf, n = conserves_nothing(rng), 5
    else:
        chain = chain4 if case.endswith("4") else chain6
        pf, n = chain.pf, chain.n
    rows = np.array([random_state(n, rng)])
    if case == "neel_6":
        rows = chain6.psi[None]
    elif case == "zero_6":
        rows = np.zeros((1, 1 << n), dtype=complex)
    elif case.startswith("two_sectors"):
        # Random amplitudes with one qubit up in one row, half up in the other.
        weight = np.bitwise_count(np.arange(1 << n))
        rows = np.array([np.where(weight == 1, rows[0], 0.0),
                         np.where(weight == n // 2, random_state(n, rng), 0.0)])
    psi = rows.sum(axis=0)
    ref = touched_union(list(pf.fragments), psi)
    assert ref.size == SUBSPACE_SIZES[case]
    assert np.array_equal(touched_union([pf.hamiltonian], psi), ref)
    assert np.array_equal(statesim._subspace(pf._blocks, rows), ref)
    assert np.array_equal(pf._basis(psi), ref) and np.array_equal(pf._basis(rows), ref)
    # Enough pushes that the push builds on that subspace, wherever it has states.
    push = _BlockPower(_Program(pf, pf._basis(rows)), 0.1, 2, 10**6, len(rows))
    assert np.array_equal(push._program.basis, ref) and (push._power is None) == (ref.size == 0)
    assert np.array_equal(oracle_basis(pf.hamiltonian, psi, monkeypatch), ref)


def test_subspace_above_the_qubit_cap_is_the_touched_block():
    # Blocks are sought at every qubit count: at 13 qubits a basis state's
    # subspace is its 2-state block under the XX bond, where the push builds
    # and the kernel has the whole-space bits; the oracle, the block stacks
    # and the dense matrix still refuse.
    n = 13
    pf = second_order((op(n, (0.7, "XX" + "I" * (n - 2))), op(n, (0.4, "Z" * n))))
    psi = basis_state(n, "01" * 6 + "0")
    start = int(np.flatnonzero(psi)[0])
    basis = pf._basis(psi)
    assert basis.tolist() == sorted([start, start ^ 0b11 << (n - 2)])
    push = _BlockPower(_Program(pf, basis), 0.1, 2, 10**6, 1)
    assert push._power is not None
    whole = _Program(pf, np.arange(1 << n)).apply(psi, 0.1, 2)
    kernel = pf.apply(psi, 0.1, 2)
    assert np.array_equal(kernel[basis], whole[basis])
    assert not np.delete(kernel, basis).any() and not np.delete(whole, basis).any()
    assert np.allclose(push.apply(psi[None, basis])[0], kernel[basis], rtol=0.0, atol=1e-15)
    for refused in (lambda: invariant_blocks(list(pf.fragments)),
                    lambda: SpectralOracle(pf.hamiltonian),
                    lambda: to_dense(pf.hamiltonian)):
        with pytest.raises(ResourceLimitError):
            refused()


def test_fragment_evolver_refuses_a_basis_that_is_not_invariant(chain6):
    # The ten states of the Neel sector with qubit 0 down: the hopping on
    # qubits 0 and 1 leads out of them.
    basis = chain6.pf._basis(chain6.psi)[:10]
    FragmentEvolver(chain6.fragments[0], basis)
    with pytest.raises(ValueError, match="not invariant"):
        FragmentEvolver(chain6.fragments[2], basis)


def test_oracle_identity_and_composition(chain4, rng):
    psi = random_state(4, rng)
    assert np.array_equal(chain4.oracle.evolve(psi, 0.0), psi)
    fwd = chain4.oracle.evolve(chain4.oracle.evolve(psi, 0.7), -0.7)
    assert np.linalg.norm(fwd - psi) < 1e-9
    split = chain4.oracle.evolve(chain4.oracle.evolve(psi, 0.3), 0.4)
    assert np.linalg.norm(split - chain4.oracle.evolve(psi, 0.7)) < 1e-9


def test_oracle_matches_expm(chain4):
    psi = chain4.psi
    mine = chain4.oracle.evolve(psi, 1.3)
    ref = sla.expm(-1j * 1.3 * to_dense(chain4.hamiltonian)) @ psi
    assert np.linalg.norm(mine - ref) < 1e-10


def test_oracle_dimension_checks(chain4):
    with pytest.raises(ValueError):
        chain4.oracle.evolve(np.zeros(8, dtype=complex), 0.1)
    for t in (np.nan, np.array([0.5, np.inf])):
        with pytest.raises(ValueError, match="finite"):
            chain4.oracle.evolve(chain4.psi, t)
    # About 7e6 terms on the 6-state sector: refused before any product.
    with pytest.raises(ResourceLimitError, match="Chebyshev series"):
        SpectralOracle(chain4.hamiltonian).evolve(chain4.psi, 1e6)
    big = PauliSumOp.from_terms(13, [(1.0, PauliString("Z" + "I" * 12))])
    with pytest.raises(ResourceLimitError, match="capped"):
        SpectralOracle(big)


def test_series_cap_counts_terms_times_states(chain4, monkeypatch):
    # At t = 1 the 6-state Neel sector's series keeps K = 31 terms for
    # x = 6.98: a cap between x S and K S refuses it, and K S admits it.
    oracle = SpectralOracle(chain4.hamiltonian)
    basis = statesim._subspace(oracle._groups, chain4.psi)
    block = statesim._ChebyshevBlock(chain4.hamiltonian, basis)
    x = block.half
    terms = statesim._terms(x, statesim._TAIL)
    assert x * basis.size < terms * basis.size - 1
    monkeypatch.setattr(statesim, "_SERIES_MAX", terms * basis.size - 1)
    for refused in (lambda: oracle.evolve(chain4.psi, -1.0),
                    lambda: block.rows(chain4.psi[basis], np.array([0.5, 1.0]))):
        with pytest.raises(ResourceLimitError, match=f"of {terms} terms on {basis.size} states"):
            refused()
    monkeypatch.setattr(statesim, "_SERIES_MAX", terms * basis.size)
    assert block.terms(1.0) == terms
    assert block.rows(chain4.psi[basis], np.array([0.5, 1.0])).shape == (2, basis.size)
    assert np.array_equal(oracle.evolve(chain4.psi, -1.0), chain4.oracle.evolve(chain4.psi, -1.0))


def test_oracle_takes_a_list_state(chain4):
    # As the kernel and the formulas do.
    for t in (0.7, 0.0, -1.3):
        assert np.array_equal(chain4.oracle.evolve(chain4.psi.tolist(), t),
                              chain4.oracle.evolve(chain4.psi, t))


def full_eigh_evolve(hamiltonian, psi, t):
    """Reference exact evolution: one full-space ``eigh`` of the dense matrix."""
    vals, vecs = np.linalg.eigh(to_dense(hamiltonian))
    return vecs @ (np.exp(-1j * t * vals) * (vecs.conj().T @ psi))


@pytest.mark.parametrize("n", range(4, 11))
def test_oracle_matches_full_eigh(n):
    h_op, _ = build_heisenberg_chain(n, seed=2024)
    oracle = SpectralOracle(h_op)
    rng = np.random.default_rng(n)
    # The Neel state lives in one total-Z sector; a random state touches all.
    for psi in (neel_state(n), random_state(n, rng)):
        for t in (0.7, 2.9):
            ref = full_eigh_evolve(h_op, psi, t)
            assert np.linalg.norm(oracle.evolve(psi, t) - ref) <= 1e-13


def test_oracle_with_x_field_is_one_block(rng):
    n = 6
    h_op, _ = build_heisenberg_chain(n, seed=7)
    h_op = h_op + op(n, (0.3, "IIXIII"))
    blocks, _ = invariant_blocks([h_op])
    assert [b.shape for b in blocks] == [(1, 1 << n)]
    psi = neel_state(n)
    ref = full_eigh_evolve(h_op, psi, 1.1)
    assert np.linalg.norm(SpectralOracle(h_op).evolve(psi, 1.1) - ref) <= 1e-13


def test_oracle_matches_the_neel_sector_eigh_at_n11():
    # The 462-state sector alone, diagonalized dense, against the series.
    n = 11
    h_op, _ = build_heisenberg_chain(n, seed=2024)
    psi = neel_state(n)
    blocks, (stacks,) = invariant_blocks([h_op])
    index = np.flatnonzero(psi)[0]
    ((members, block),) = [(idx[b], stack[b]) for idx, stack in zip(blocks, stacks)
                           for b in np.flatnonzero((idx == index).any(axis=1))]
    assert members.size == 462
    vals, vecs = np.linalg.eigh(block)
    times = np.array([0.05, 1.0, 4.5])
    oracle = SpectralOracle(h_op)
    for t in times:
        row = oracle.evolve(psi, t)
        ref = vecs @ (np.exp(-1j * t * vals) * (vecs.conj().T @ psi[members]))
        assert np.linalg.norm(row[members] - ref) <= 1e-13
        assert not np.delete(row, members).any()


@pytest.mark.parametrize("t", [-3.0, 40.0])
def test_oracle_negative_and_long_times_match_expm(t, rng):
    # A random state touches every sector; at t = 40 the series on their
    # union keeps hundreds of terms.
    n = 8
    h_op, _ = build_heisenberg_chain(n, seed=2024)
    psi = random_state(n, rng)
    oracle = SpectralOracle(h_op)
    ref = sla.expm(-1j * t * to_dense(h_op)) @ psi
    assert np.linalg.norm(oracle.evolve(psi, t) - ref) <= 1e-13
    if t == 40.0:
        union = statesim._ChebyshevBlock(h_op, statesim._subspace(oracle._groups, psi))
        assert statesim._terms(union.half * t, statesim._TAIL) > 300


def walk_exact(pf, psi, times):
    """The exact states of a walk over ``times`` from ``psi``, as rows in
    the coordinates of its basis, and that basis."""
    walk = _Walk(pf, psi, times, ())
    return np.array([exact for _, exact in walk]), walk._program.basis


def test_oracle_on_a_complex_block_matches_expm_in_any_batch(chain6, rng):
    # XY - YX on the first bond keeps total Z but makes the sectors complex.
    h_op = chain6.hamiltonian + op(6, (0.3, "XYIIII"), (-0.3, "YXIIII"))
    dense = to_dense(h_op)
    assert np.abs(dense.imag).max() > 0.0
    oracle = SpectralOracle(h_op)
    times = np.array([0.0, -3.0, 40.0, 0.7, 0.0])
    for psi in (chain6.psi, random_state(6, rng)):
        basis = statesim._subspace(oracle._groups, psi)
        block = statesim._ChebyshevBlock(h_op, basis)
        together = block.rows(psi[basis], times)
        for t, beside in zip(times, together):
            row = oracle.evolve(psi, t)
            assert np.linalg.norm(row - sla.expm(-1j * t * dense) @ psi) <= 1e-13
            # The bits of one time's row do not depend on the other times
            # summed beside it, nor on how many terms they keep.
            assert np.array_equal(row[basis], beside)
            assert np.array_equal(row[basis], block.rows(psi[basis], np.array([t, 40.0]))[0])


def test_oracle_builds_each_touched_block_once(chain4, rng, monkeypatch):
    init, built = statesim._ChebyshevBlock.__init__, []
    monkeypatch.setattr(statesim._ChebyshevBlock, "__init__",
                        lambda self, h, basis: built.append(basis.shape)
                        or init(self, h, basis))
    oracle = SpectralOracle(chain4.hamiltonian)
    for t in (0.3, 0.7):
        oracle.evolve(chain4.psi, t)
    # Each call builds H once, on the union of blocks it touches: the Neel
    # state touches the one 6-state sector, a random state every sector,
    # whose union has 16 states.
    assert built == [(6,)] * 2
    psi = random_state(4, rng)
    for t in (0.5, 1.1):
        oracle.evolve(psi, t)
    oracle.evolve(chain4.psi, 0.2)
    assert built == [(6,)] * 2 + [(16,)] * 2 + [(6,)]


def test_oracle_zero_time_returns_a_copy(chain4, rng):
    psi = random_state(4, rng)
    out = chain4.oracle.evolve(psi, 0.0)
    assert np.array_equal(out, psi)
    assert not np.shares_memory(out, psi)


GRID = np.array([0.0, 0.4, -1.3, 2.9, 0.0, 7.5])


def test_oracle_grid_rows_equal_the_scalar_calls(chain6, rng):
    # A walk's exact state at each time has the bits of the scalar call at
    # that time, whatever else is on its grid.
    for psi in (chain6.psi, random_state(6, rng)):
        rows, basis = walk_exact(chain6.pf, psi, GRID)
        assert rows.shape == (GRID.size, basis.size)
        for row, t in zip(rows, GRID):
            assert np.array_equal(row, chain6.oracle.evolve(psi, t)[basis])
            assert np.array_equal(row, walk_exact(chain6.pf, psi, np.array([t, 1.1]))[0][0])
    with pytest.raises(ValueError, match="one finite time"):
        chain6.oracle.evolve(chain6.psi, GRID)


def test_oracle_grid_matches_expm(chain6, rng):
    dense = to_dense(chain6.hamiltonian)
    for psi in (chain6.psi, random_state(6, rng)):
        rows, basis = walk_exact(chain6.pf, psi, GRID)
        for row, t in zip(rows, GRID):
            assert np.linalg.norm(row - (sla.expm(-1j * t * dense) @ psi)[basis]) <= 1e-12


def test_oracle_grid_zero_times_are_exact(chain6, rng):
    psi = random_state(6, rng)
    rows, basis = walk_exact(chain6.pf, psi, GRID)
    assert basis.size == 1 << 6
    for i in np.flatnonzero(GRID == 0.0):
        assert np.array_equal(rows[i], psi)
    block = statesim._ChebyshevBlock(chain6.hamiltonian, basis)
    zero = block.rows(psi, np.array([0.0, 1.0]))[0]
    assert np.array_equal(zero, psi)
    assert not np.shares_memory(zero, psi)


def test_oracle_grid_leaves_untouched_blocks_zero(chain6):
    # The Neel state lives in the 20-state sector with three qubits up: the
    # walk's states have no other coordinates, and the scalar calls leave
    # every other amplitude zero.
    rows, basis = walk_exact(chain6.pf, chain6.psi, GRID)
    assert np.array_equal(basis, np.flatnonzero(np.bitwise_count(np.arange(1 << 6)) == 3))
    outside = np.bitwise_count(np.arange(1 << 6)) != 3
    for t in GRID:
        assert not chain6.oracle.evolve(chain6.psi, t)[outside].any()
    assert np.all(np.abs(np.linalg.norm(rows, axis=1) - 1.0) < 1e-13)


def test_oracle_certificate_check_per_block(chain4, monkeypatch):
    # Each forced fault breaks one part of the certificate: the Bessel
    # normalisation, the tail bound, and (with the block's operator scaled
    # past its spectral interval) the norm of the evolved rows.
    bessel, terms = statesim._bessel, statesim._terms
    faults = [("_bessel", lambda x: bessel(x) * (1.0 + 1e-6), "Bessel normalisation"),
              ("_terms", lambda x, tail: terms(x, tail) - 3, "tail bound")]
    for name, fault, part in faults:
        oracle = SpectralOracle(chain4.hamiltonian)
        with monkeypatch.context() as patch:
            patch.setattr(statesim, name, fault)
            with pytest.raises(NumericalDegeneracyError, match=f"certificate.*{part}"):
                oracle.evolve(chain4.psi, 0.5)
        assert np.linalg.norm(oracle.evolve(chain4.psi, 0.5)) == pytest.approx(1.0, abs=1e-13)
    init = statesim._ChebyshevBlock.__init__

    def scaled(self, hamiltonian, basis):
        init(self, hamiltonian, basis)
        self._entries = 2.0 * self._entries

    monkeypatch.setattr(statesim._ChebyshevBlock, "__init__", scaled)
    with pytest.raises(NumericalDegeneracyError, match="certificate.*row's norm"):
        SpectralOracle(chain4.hamiltonian).evolve(chain4.psi, 0.5)


def test_oracle_and_symbolic_norm_build_no_full_matrix(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a full 2^n x 2^n matrix was built")

    n = 10
    h_op, _ = build_heisenberg_chain(n, seed=2024)
    psi = neel_state(n)
    weight = np.bitwise_count(np.arange(1 << n))
    dense = to_dense(h_op)
    norm_ref = max(np.abs(np.linalg.eigvalsh(dense[np.ix_(weight == m, weight == m)])).max()
                   for m in range(n + 1))
    ref = full_eigh_evolve(h_op, psi, 1.7)
    for module in (pauli, statesim, bounds):
        if hasattr(module, "to_dense"):
            monkeypatch.setattr(module, "to_dense", forbidden)
    assert np.linalg.norm(SpectralOracle(h_op).evolve(psi, 1.7) - ref) <= 1e-13
    assert abs(spectral_norm_symbolic(h_op) - norm_ref) <= 1e-12 * norm_ref


def test_fine_trotter_cross_check():
    """Independent oracle: a 4th-order formula at 1e4 steps agrees with the
    spectral decomposition to better than 1e-8 in fidelity."""
    from mpf_lab import build_heisenberg_chain, fragment_decomposition_s2, second_order

    h_op, fields = build_heisenberg_chain(2, seed=5)
    pf4 = suzuki(second_order(fragment_decomposition_s2(2, fields)), 4)
    psi = neel_state(2)
    fine = rho_k_state(pf4, psi, 1.0, 10_000)
    exact = SpectralOracle(h_op).evolve(psi, 1.0)
    assert abs(np.vdot(fine, exact)) ** 2 >= 1.0 - 1e-8


def test_trace_norm_trivial_cases(rng):
    a = random_state(3, rng)
    assert abs(mixture_trace_norm([a], [1.0]) - 1.0) < 1e-12
    o1, o2 = basis_state(2, "00"), basis_state(2, "10")
    assert abs(mixture_trace_norm([o1, o2], [1.0, -1.0]) - 2.0) < 1e-12


def test_trace_norm_against_dense(rng):
    for _ in range(10):
        states = [random_state(4, rng) for _ in range(3)]
        w = rng.standard_normal(3)
        dense = sum(wi * np.outer(s, s.conj()) for wi, s in zip(w, states))
        ref = np.abs(np.linalg.eigvalsh(dense)).sum()
        assert abs(mixture_trace_norm(states, w) - ref) < 1e-10


@pytest.mark.parametrize("distance", [2e-9, 2e-11])
def test_trace_norm_resolves_tiny_distances(rng, distance):
    # b = cos(theta) a + sin(theta) c with c supported where a vanishes: the
    # first half of b is a exactly (cos(theta) rounds to 1), so the stored
    # pair sits at trace distance 2 sin(theta) to rounding.
    half = 8
    a = np.concatenate([random_state(3, rng), np.zeros(half)])
    c = np.concatenate([np.zeros(half), random_state(3, rng)])
    theta = np.arcsin(distance / 2.0)
    b = np.cos(theta) * a + np.sin(theta) * c
    got = mixture_trace_norm([a, b], [1.0, -1.0])
    assert abs(got - distance) <= 1e-6 * distance


def test_trace_norm_input_checks(rng):
    with pytest.raises(ValueError):
        mixture_trace_norm([], [])
    with pytest.raises(ValueError):
        mixture_trace_norm([random_state(2, rng)], [1.0, 2.0])


def test_frobenius_trivial_and_dense(rng):
    m = np.eye(3)
    assert mixture_frobenius_sq(m, np.zeros(3), np.zeros(3)) == 1.0
    # coefficient on an exact copy of the reference gives zero error
    assert abs(mixture_frobenius_sq(np.ones((1, 1)), [1.0], [1.0])) < 1e-14
    for _ in range(5):
        states = [random_state(4, rng) for _ in range(3)]
        ref = random_state(4, rng)
        gram = np.array([[abs(np.vdot(a, b)) ** 2 for b in states] for a in states])
        ell = np.array([abs(np.vdot(ref, s)) ** 2 for s in states])
        c = rng.standard_normal(3)
        mix = sum(ci * np.outer(s, s.conj()) for ci, s in zip(c, states))
        dense = np.linalg.norm(np.outer(ref, ref.conj()) - mix, "fro") ** 2
        assert abs(mixture_frobenius_sq(gram, c, ell) - dense) < 1e-10


def test_frobenius_validation():
    with pytest.raises(ValueError):
        mixture_frobenius_sq(np.eye(2), [1.0], [1.0])
    skew = np.array([[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(ValueError):
        mixture_frobenius_sq(skew, [0.5, 0.5], [1.0, 1.0])


def near_symmetric_cases(rng):
    """Square matrices at and around the edges of ``np.allclose(m, m.T,
    atol=1e-10)``: within and beyond its absolute and relative tolerances,
    with NaN and +-inf entries, overflowing differences and signed zeros."""
    base = rng.standard_normal((4, 4))
    base = base + base.T
    cases = [base, np.eye(3), np.zeros((1, 1)), np.full((1, 1), np.nan)]
    for i, j in ((0, 1), (2, 3), (1, 1)):
        for x, y in ((1.0, 1.0 + 1e-11), (1.0, 1.0 + 3e-10), (1e6, 1e6 + 9.0),
                     (1e6, 1e6 + 11.0), (0.0, -0.0), (np.nan, np.nan), (np.nan, 1.0),
                     (np.inf, np.inf), (-np.inf, -np.inf), (np.inf, -np.inf),
                     (np.inf, 1e308), (1e308, np.inf), (1e308, -1e308), (5e-324, 0.0),
                     (np.inf, np.nan)):
            m = base.copy()
            m[i, j], m[j, i] = x, y
            cases.append(m)
            # The same pair beside a symmetric inf, so the entry-by-entry
            # form judges the finite ones too.
            flagged = m.copy()
            flagged[3, 3] = np.inf
            cases.append(flagged)
    return cases


def test_symmetry_check_refuses_what_allclose_refuses(rng):
    refused = 0
    for m in near_symmetric_cases(rng):
        r = m.shape[0]
        # Each decides the same, and the check warns of nothing that
        # np.allclose does not (it does of the overflow in 1e308 + 1e308).
        with warnings.catch_warnings(record=True) as theirs:
            warnings.simplefilter("always")
            expected = np.allclose(m, m.T, atol=1e-10)
        with warnings.catch_warnings(record=True) as ours:
            warnings.simplefilter("always")
            assert statesim._near_symmetric(m) is expected
        assert {str(w.message) for w in ours} <= {str(w.message) for w in theirs}
        if not expected:
            refused += 1
            with np.errstate(over="ignore"), pytest.raises(
                    ValueError, match="^Gram matrix must be symmetric$"):
                mixture_frobenius_sq(m, np.full(r, 1.0 / r), np.zeros(r))
    assert 0 < refused < len(near_symmetric_cases(rng))


def test_neel_state():
    psi = neel_state(4)
    assert abs(psi[int("1010", 2)] - 1.0) < 1e-15
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-15
