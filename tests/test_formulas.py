import numpy as np
import pytest

from mpf_lab import (
    PauliString,
    PauliSumOp,
    ProductFormula,
    rho_k_state,
    second_order,
    suzuki,
    to_dense,
)
from mpf_lab import formulas
from mpf_lab.pauli import parse_op
from conftest import ChainCase, palindrome_fragments, random_state
from test_goldens import CONSERVES_NOTHING


def dense_trace_norm_error(pf, oracle, psi, t, k=1):
    """Trace-norm gap computed densely (precise far below the Gram floor)."""
    approx = rho_k_state(pf, psi, t, k)
    exact = oracle.evolve(psi, t)
    diff = np.outer(approx, approx.conj()) - np.outer(exact, exact.conj())
    return float(np.abs(np.linalg.eigvalsh(diff)).sum())


def test_single_fragment_exact(chain4, rng):
    frag = chain4.fragments[2]
    pf = second_order([frag])
    assert pf.steps == ((0, 1.0),)
    psi = random_state(4, rng)
    import scipy.linalg as sla

    ref = sla.expm(-1j * 2.5 * to_dense(frag)) @ psi
    assert np.linalg.norm(pf.apply(psi, 2.5) - ref) < 1e-10


def test_palindromic_recipe(chain6):
    pf = chain6.pf
    assert [m for _, m in pf.steps] == [m for _, m in pf.steps][::-1]
    assert [idx for idx, _ in pf.steps] == [0, 1, 2, 1, 0]


def test_strang_symmetrization(rng):
    # The chain's Strang step has the bits of the five-slot palindrome of
    # pre-halved fragments, one unit-time slot each: on a block whose rows
    # have their own times and step counts, and in the fourth-order formula.
    times = np.array([0.7, -0.25, 0.0, 1.3, 0.05])
    reps = np.array([3, 1, 2, 5, 4])
    for n in (4, 6):
        case = ChainCase(n)
        pf = second_order(case.fragments)
        mults = [m for _, m in pf.steps]
        assert mults == [0.5, 0.5, 1.0, 0.5, 0.5]
        assert mults == mults[::-1]
        five = ProductFormula(fragments=tuple(palindrome_fragments(n, case.fields)),
                              steps=tuple((a, 1.0) for a in range(5)), order=2)
        block = np.stack([case.psi] + [random_state(n, rng) for _ in range(4)])
        for ours, theirs in ((pf, five), (suzuki(pf, 4), suzuki(five, 4))):
            assert ours.hamiltonian == theirs.hamiltonian
            assert ours.slot_operators == theirs.slot_operators
            assert np.array_equal(ours.apply(block, times, reps),
                                  theirs.apply(block, times, reps))
            assert np.array_equal(ours.apply(case.psi, 0.7, 3), theirs.apply(case.psi, 0.7, 3))


def test_multiplier_sum_validation(chain4):
    # The five-slot palindrome's unit multipliers on the three fragments
    # give the odd bonds a total of 2.
    with pytest.raises(ValueError, match="sum to 1"):
        ProductFormula(fragments=tuple(chain4.fragments), order=2,
                       steps=((0, 1.0), (1, 0.5), (2, 1.0), (1, 0.5), (0, 1.0)))


def test_second_order_empty():
    with pytest.raises(ValueError):
        second_order([])


def test_suzuki_multipliers(chain4):
    pf4 = suzuki(chain4.pf, 4)
    u = 1.0 / (4.0 - 4.0 ** (1.0 / 3.0))
    assert abs(u - 0.4144907717943757) < 1e-15
    assert len(pf4.steps) == 25
    assert [idx for idx, _ in pf4.steps] == [0, 1, 2, 1, 0] * 5
    mults = [m for _, m in pf4.steps]
    # The outer slots are half-time ones, the middle slot a full-time one.
    assert abs(mults[0] - 0.5 * u) < 1e-15
    assert abs(mults[12] - (1.0 - 4.0 * u)) < 1e-15
    sums = {}
    for idx, mlt in pf4.steps:
        sums[idx] = sums.get(idx, 0.0) + mlt
    assert all(abs(v - 1.0) < 1e-12 for v in sums.values())


def test_suzuki_validation(chain4):
    with pytest.raises(ValueError):
        suzuki(chain4.pf, 3)
    with pytest.raises(ValueError):
        suzuki(chain4.pf, 8)
    pf4 = suzuki(chain4.pf, 4)
    with pytest.raises(ValueError):
        suzuki(pf4, 6)


def test_empirical_orders(chain4):
    """Log-log slope of the one-step error is order + 1."""
    ts = np.geomspace(2e-3, 2e-2, 5)
    errs2 = [dense_trace_norm_error(chain4.pf, chain4.oracle, chain4.psi, t) for t in ts]
    slope2 = np.polyfit(np.log(ts), np.log(errs2), 1)[0]
    assert abs(slope2 - 3.0) < 0.1

    pf4 = suzuki(chain4.pf, 4)
    ts4 = np.geomspace(3e-2, 1.5e-1, 5)
    errs4 = [dense_trace_norm_error(pf4, chain4.oracle, chain4.psi, t) for t in ts4]
    slope4 = np.polyfit(np.log(ts4), np.log(errs4), 1)[0]
    assert abs(slope4 - 5.0) < 0.15


def test_order6_slope(chain4):
    pf6 = suzuki(chain4.pf, 6)
    assert len(pf6.steps) == 125
    ts = np.geomspace(0.15, 0.4, 4)
    errs = [dense_trace_norm_error(pf6, chain4.oracle, chain4.psi, t) for t in ts]
    slope = np.polyfit(np.log(ts), np.log(errs), 1)[0]
    assert abs(slope - 7.0) < 0.3


def test_step_refinement_factor(chain4):
    """Doubling k cuts the error by about 2^p at small t."""
    t = 0.2
    e1 = dense_trace_norm_error(chain4.pf, chain4.oracle, chain4.psi, t, k=2)
    e2 = dense_trace_norm_error(chain4.pf, chain4.oracle, chain4.psi, t, k=4)
    assert 3.0 < e1 / e2 < 5.2


def test_rho_k_basics(chain4):
    assert np.array_equal(rho_k_state(chain4.pf, chain4.psi, 0.0, 3), chain4.psi)
    out = rho_k_state(chain4.pf, chain4.psi, 1.0, 7)
    assert abs(np.linalg.norm(out) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        rho_k_state(chain4.pf, chain4.psi, 1.0, 0)


def test_formula_requires_fragments():
    with pytest.raises(ValueError):
        ProductFormula(fragments=(), steps=(), order=2)
    a = PauliSumOp.from_terms(1, [(1.0, PauliString("Z"))])
    b = PauliSumOp.from_terms(2, [(1.0, PauliString("ZI"))])
    with pytest.raises(ValueError):
        ProductFormula(fragments=(a, b), steps=((0, 1.0), (1, 1.0)), order=2)


def test_formula_rejects_out_of_range_fragment_index():
    a = PauliSumOp.from_terms(1, [(1.0, PauliString("Z"))])
    b = PauliSumOp.from_terms(1, [(1.0, PauliString("X"))])
    with pytest.raises(ValueError, match="fragment index"):
        ProductFormula(fragments=(a, b), steps=((0, 1.0), (1, 0.5), (-1, 0.5)), order=2)
    with pytest.raises(ValueError, match="fragment index"):
        ProductFormula(fragments=(a, b), steps=((0, 1.0), (1, 1.0), (2, 0.0)), order=2)


def test_apply_block_matches_columns(chain4, rng):
    """A block with per-row times and step counts equals the rows run one by
    one, and a slot merge across step boundaries changes nothing."""
    block = np.stack([random_state(4, rng) for _ in range(3)])
    times = np.array([0.3, -0.1, 0.05])
    reps = np.array([2, 5, 3])
    out = chain4.pf.apply(block, times, reps)
    for i in range(3):
        ref = block[i]
        for _ in range(reps[i]):
            ref = chain4.pf.apply(ref, times[i])
        assert np.abs(out[i] - ref).max() < 1e-13
    with pytest.raises(ValueError):
        chain4.pf.apply(block, times, np.array([1, 0, 2]))
    with pytest.raises(ValueError):
        chain4.pf.apply(block, np.array([0.1, 0.2]))
    # A state of the wrong size is refused; a zero state touches no block.
    with pytest.raises(ValueError, match="not a"):
        chain4.pf.apply(block[:, :8], 0.3)
    assert np.array_equal(chain4.pf.apply(np.zeros(16), 0.3, 2), np.zeros(16))


def slot_by_slot_copies(program, rows, times, reps):
    """Each row alone through ``FragmentEvolver.apply``, which copies, slot
    by slot in the order ``_Program.apply`` runs them: adjacent equal
    fragments merged and, in a palindrome, each step's closing slot merged
    with the next step's opening one."""
    slots = program.slots
    last = len(slots) - 1
    wrap = last > 0 and slots[0][0] is slots[last][0]
    out = []
    for row, t, k in zip(rows, times, reps):
        for step in range(k):
            for j, (evolver, mult) in enumerate(slots):
                if wrap and j == 0 and step > 0:
                    continue
                if wrap and j == last and step + 1 < k:
                    mult = mult + slots[0][1]
                row = evolver.apply(row, mult * t)
        out.append(row)
    return np.array(out).reshape(rows.shape)


def kernel_cases(chain10, rng):
    """(formula, rows in the coordinates of a basis, basis): the n=10 Neel
    sector under the chain and its fourth-order formula, the whole space
    of a 4-qubit operator that conserves nothing, and an empty basis."""
    basis = chain10.pf._basis(chain10.psi)
    assert basis.size == 252
    sector = np.stack([chain10.psi[basis]] * 2 + [random_state(10, rng)[basis] for _ in range(4)])
    whole = parse_op(CONSERVES_NOTHING)
    pf_whole = formulas.second_order(formulas.fragment_by_commuting_groups(whole))
    assert [idx.shape for idx in pf_whole._blocks] == [(1, 16)]
    return [(chain10.pf, sector, basis),
            (formulas.suzuki(chain10.pf, 4), sector[:3], basis),
            (pf_whole, np.stack([random_state(4, rng) for _ in range(6)]), np.arange(16)),
            (chain10.pf, np.zeros((6, 0), dtype=complex), basis[:0])]


def test_in_place_kernel_has_the_bits_of_the_copying_one(chain10, rng):
    # Per-row times (a zero and a negative one among them), and step counts
    # that make rows drop out at different steps.
    times = np.array([0.31, -0.17, 0.0, 0.045, 1.3, 0.31])
    reps = np.array([3, 7, 2, 1, 5, 7])
    for pf, rows, basis in kernel_cases(chain10, rng):
        count = rows.shape[0]
        kept = rows.copy()
        program = formulas._Program(pf, basis)
        out = program.apply(rows, times[:count], reps[:count])
        assert np.array_equal(rows, kept)
        assert np.array_equal(out, slot_by_slot_copies(program, rows, times[:count],
                                                       reps[:count]))
        # One state, and a scalar time and count.
        assert np.array_equal(program.apply(rows[0], 0.2, 3),
                              slot_by_slot_copies(program, rows[:1], [0.2], [3])[0])
        # Rows of another width are refused before the in-place kernel.
        if basis.size:
            with pytest.raises(ValueError, match="not in the coordinates of"):
                program.apply(rows[:, 1:], 0.2, 3)
        # The copying kernel leaves its input as it was.
        for evolver, _ in program.slots:
            evolver.apply(rows, times[:count])
            evolver.apply(rows[0], 0.4)
            assert np.array_equal(rows, kept)


def test_distinct_fragments_share_one_evolver(chain4):
    slots = formulas._Program(chain4.pf, np.arange(16)).slots
    assert len(slots) == 5
    assert len({id(evolver) for evolver, _ in slots}) == 3
    assert slots[0][0] is slots[-1][0]


def formula_state(pf):
    """Each attribute a formula holds, with the length of its value where
    it has one."""
    return {key: len(value) if hasattr(value, "__len__") else None
            for key, value in vars(pf).items()}


def test_a_formula_keeps_no_state_that_grows_with_use():
    # The nine total-Z sectors at n=8 each get a program of their own while
    # a call runs it; the formula keeps none of them.
    case = ChainCase(8)
    case.pf.apply(case.psi, 0.3, 2)
    before = formula_state(case.pf)
    for state in np.eye(1 << case.n):
        case.pf.apply(state, 0.3, 2)
    assert formula_state(case.pf) == before


def test_a_shootout_builds_one_evolver_per_distinct_fragment(monkeypatch):
    # The walk owns the run's one program: its batches, its push and the
    # push's build all run it, so nothing builds an evolver per call.
    from mpf_lab.experiments import resolve_config, run_scenario

    built = []
    init = formulas.FragmentEvolver.__init__
    monkeypatch.setattr(formulas.FragmentEvolver, "__init__",
                        lambda self, frag, basis=None: built.append(frag) or init(self, frag, basis))
    run_scenario("minimax-shootout", resolve_config("minimax-shootout", {"n": "8"}))
    assert len(built) == len(set(built)) == 3


def test_fragment_by_commuting_groups(chain4):
    from mpf_lab.formulas import fragment_by_commuting_groups
    from mpf_lab.pauli import commutes

    groups = fragment_by_commuting_groups(chain4.hamiltonian)
    total = groups[0]
    for g in groups[1:]:
        total = total + g
    assert (total - chain4.hamiltonian).is_empty
    for g in groups:
        terms = [ps for _, ps in g]
        assert all(commutes(a, b) for i, a in enumerate(terms) for b in terms[i + 1:])
    pf = second_order(groups)
    mults = [m for _, m in pf.steps]
    assert mults == mults[::-1]


@pytest.mark.parametrize("size", [41, 83])
def test_block_products_take_a_padded_operand_in_place(size):
    rng = np.random.default_rng(size)
    a = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
    v = rng.normal(size=(size, 5)) + 1j * rng.normal(size=(size, 5))
    whole, tile = formulas._whole(size), formulas._tile(size)
    padded = np.pad(a, ((0, whole - size), (0, whole - size)))
    assert padded.shape == (whole, whole) and whole > size
    assert np.array_equal(padded[:size, :size], a) and not padded[size:].any()
    # The tiles of a padded operand are views of it: no product copies it.
    assert np.shares_memory(formulas._tiles(padded, tile, tile), padded)
    plain = formulas._products(a, v)
    assert np.abs(plain - a @ v).max() < 1e-12
    # As the push's left operand, its squaring, and a right operand.
    out = formulas._products(padded, v)
    assert np.array_equal(out[:size], plain) and not out[size:].any()
    square = formulas._products(padded, padded)
    assert np.array_equal(square[:size, :size], formulas._products(a, a))
    row = v[None, :, 0].conj()
    assert np.array_equal(formulas._products(row, padded)[:, :size],
                          formulas._products(row, a))


def test_padding_to_whole_tiles_keeps_the_tile_edge():
    # Block products tile a padded operand and an unpadded one of the same
    # logical size alike, so their tiles meet only if padding keeps the edge.
    for size in range(1, 4097):
        assert formulas._tile(formulas._whole(size)) == formulas._tile(size)
