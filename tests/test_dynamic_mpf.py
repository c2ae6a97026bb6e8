import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from mpf_lab import dynamic_mpf, experiments, formulas, statesim
from mpf_lab import (
    FragmentEvolver,
    MinimaxRun,
    PauliString,
    PauliSumOp,
    ProductFormula,
    SpectralOracle,
    dynamic_project,
    gram_matrix,
    inject_noise,
    l_exact,
    minimax_run,
    minimax_step,
    mixture_frobenius_sq,
    rho_k_state,
    second_order,
    solve_coefficients,
    suzuki,
    tracking_error_bound,
    trotter_states,
)
from mpf_lab.dynamic_mpf import (
    MINIMAX_TOL,
    _check_noise,
    _dual_gap,
    _pinv,
    gram_from_states,
    l_from_states,
    q_from_states,
)
from mpf_lab.errors import ResourceLimitError, SolverError
from mpf_lab.formulas import _BlockPower, _Program, _Walk, fragment_by_commuting_groups
from mpf_lab.pauli import invariant_blocks
from conftest import ChainCase, random_state
from test_statesim import full_eigh_evolve

STEPS = (4, 13, 17)


def slot_by_slot(pf, psi, t, k):
    """Reference circuit: every slot of every step applied in turn to one
    state, with no block, no column ordering and no slot merge."""
    evolvers = [FragmentEvolver(f) for f in pf.fragments]
    state = psi
    for _ in range(k):
        for idx, mult in pf.steps:
            state = evolvers[idx].apply(state, mult * (t / k))
    return state


def test_batched_trotter_states_match_single_circuits(chain4):
    pf4 = suzuki(chain4.pf, 4)
    for pf, steps in ((chain4.pf, (13, 4, 17)), (chain4.pf, (5, 9, 5, 2)), (pf4, (3, 1, 4, 3))):
        for t in (0.7, 2.3):
            batched = trotter_states(pf, chain4.psi, t, steps)
            assert len(batched) == len(steps)
            for k, state in zip(steps, batched):
                ref = slot_by_slot(pf, chain4.psi, t, k)
                assert np.abs(state - rho_k_state(pf, chain4.psi, t, k)).max() < 1e-13
                assert np.abs(state - ref).max() < 1e-13
    assert trotter_states(chain4.pf, chain4.psi, 0.7, ()) == []
    with pytest.raises(ValueError):
        trotter_states(chain4.pf, chain4.psi, 0.7, (3, 0))


def test_non_finite_times_are_refused_before_the_kernel(chain4, monkeypatch):
    # Every form refuses before its first pass, with no NaN row and no warning.
    monkeypatch.setattr(FragmentEvolver, "_apply_in_place", lambda *a: pytest.fail("kernel ran"))
    pf, psi = chain4.pf, chain4.psi
    for call in (lambda: trotter_states(pf, psi, np.nan, [1, 2]),
                 lambda: rho_k_state(pf, psi, np.inf, 2),
                 lambda: gram_matrix(pf, psi, -np.inf, [1, 2]),
                 lambda: pf.apply(psi, np.nan),
                 lambda: pf.apply(np.array([psi, psi]), [0.5, np.inf], [1, 2])):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="t must be finite"):
                call()


def test_walk_rows_match_the_scalar_calls_bit_for_bit(chain4):
    # Each time's Trotter states and exact state, in the coordinates of the
    # 6-state Neel sector, have the bits of the scalar calls there.
    pf4 = suzuki(chain4.pf, 4)
    times = np.array([0.3, 2.3, 0.0, -1.1])
    basis = chain4.pf._basis(chain4.psi)
    assert basis.size == 6
    for pf, steps in ((chain4.pf, (13, 4, 17, 4)), (pf4, (3, 1, 4, 3))):
        walk = list(_Walk(pf, chain4.psi, times, steps))
        assert len(walk) == times.size
        for t, (states, exact) in zip(times, walk):
            assert states.shape == (len(steps), basis.size)
            scalar = trotter_states(pf, chain4.psi, t, steps)
            assert all(np.array_equal(a, b[basis]) for a, b in zip(states, scalar, strict=True))
            assert np.array_equal(exact, chain4.oracle.evolve(chain4.psi, t)[basis])
    empty = list(_Walk(chain4.pf, chain4.psi, times, ()))
    assert [states.shape for states, _ in empty] == [(0, basis.size)] * times.size
    with pytest.raises(TypeError):
        trotter_states(chain4.pf, chain4.psi, times, STEPS)


def test_minimax_run_finds_its_basis_once(chain6, monkeypatch):
    # One search for the subspace, on the formula's blocks; no whole-space
    # search of the Hamiltonian's blocks.
    found, basis = [], ProductFormula._basis
    monkeypatch.setattr(ProductFormula, "_basis",
                        lambda self, states: found.append(1) or basis(self, states))
    monkeypatch.setattr(SpectralOracle, "__init__", lambda *a: pytest.fail("oracle built"))
    minimax_run(chain6.pf, chain6.psi, STEPS, t0=0.5, t_final=2.5, dt=0.25,
                eps=0.01, k0=3, c0=solve_coefficients(2, STEPS).coefficients, seed=1)
    assert found == [1]


def test_run_does_one_whole_space_block_search(monkeypatch):
    # The formula searches its fragments' blocks; the oracle searches H's
    # only when its public evolve first needs them.  A new chain has no
    # blocks cached from other tests.
    searched = []
    for module in (formulas, statesim):
        partition = module._partition
        monkeypatch.setattr(module, "_partition",
                            lambda ops, *a, f=partition: searched.append(len(ops)) or f(ops, *a))
    case = ChainCase(6)
    assert searched == []
    minimax_run(case.pf, case.psi, STEPS, t0=0.5, t_final=1.0, dt=0.25,
                eps=0.01, k0=3, c0=solve_coefficients(2, STEPS).coefficients, seed=1)
    assert searched == [3]
    case.oracle.evolve(case.psi, 0.5)
    case.oracle.evolve(case.psi, 0.7)
    assert searched == [3, 1]


def test_overlong_series_is_refused_before_any_trotter_state(chain4, monkeypatch):
    # The walk makes its Chebyshev vectors for the grid's largest |t| when
    # it is made: a cap below the last time's series refuses it there.
    monkeypatch.setattr(formulas._Program, "apply", lambda *a: pytest.fail("state computed"))
    basis = chain4.pf._basis(chain4.psi)
    size = statesim._ChebyshevBlock(chain4.hamiltonian, basis).vectors(chain4.psi[basis], 2.0).size
    monkeypatch.setattr(statesim, "_SERIES_MAX", size - 1)
    with pytest.raises(ResourceLimitError, match="Chebyshev series"):
        _Walk(chain4.pf, chain4.psi, np.array([0.5, -2.0, 1.0]), STEPS)
    with pytest.raises(ResourceLimitError, match="Chebyshev series"):
        minimax_run(chain4.pf, chain4.psi, STEPS, t0=0.0, t_final=2.0, dt=0.5,
                    eps=0.01, k0=3, c0=solve_coefficients(2, STEPS).coefficients, seed=1)


def test_walk_builds_h_on_the_formula_basis_where_h_has_finer_blocks():
    # H's XX terms cancel, so H (the Z terms) keeps every basis state alone,
    # while the fragments pair them: the walk builds H on the formula's
    # larger basis, which holds a state the input does not touch.
    n = 3
    field = [(-0.7, "ZZI"), (0.45, "IIZ")]
    frags = (PauliSumOp.from_terms(n, [(0.5, PauliString("XXI")),
                                       *((c, PauliString(w)) for c, w in field)]),
             PauliSumOp.from_terms(n, [(-0.5, PauliString("XXI"))]))
    pf = second_order(frags)
    oracle = SpectralOracle(pf.hamiltonian)
    psi = random_state(n, np.random.default_rng(4))
    psi[[0b010, 0b011, 0b100, 0b101, 0b111]] = 0.0
    basis = pf._basis(psi)
    assert basis.tolist() == [0b000, 0b001, 0b110, 0b111]
    assert [b.shape for b in oracle._groups] == [(8, 1)]
    times = np.array([0.4, -1.3, 2.9])
    steps = (2, 5)
    for t, (states, exact) in zip(times, _Walk(pf, psi, times, steps)):
        assert np.linalg.norm(exact - oracle.evolve(psi, t)[basis]) <= 1e-13
        scalar = trotter_states(pf, psi, t, steps)
        assert all(np.array_equal(a, b[basis]) for a, b in zip(states, scalar, strict=True))


def test_minimax_run_does_not_depend_on_the_batch_size(chain6, monkeypatch):
    c0 = solve_coefficients(2, STEPS).coefficients

    def run(points=None):
        if points:
            # Room for `points` grid points on the 20-state Neel sector.
            monkeypatch.setattr(formulas, "_KERNEL_AMPLITUDES", points * len(STEPS) * 20)
        # Nine grid points: batches of 1, of 4 (4, 4, 1) and one of all nine,
        # and the push's build in calls of 3, 12 and all 20 basis columns.
        out = minimax_run(chain6.pf, chain6.psi, STEPS,
                          t0=0.5, t_final=2.5, dt=0.25, eps=0.01, k0=3, c0=c0, seed=1)
        return [out.c_hat, out.c_star, out.error_hat, out.error_star, out.kappa_hat,
                np.array(out.m_exact), np.array(out.l_exact)]

    default = run()
    for points in (1, 4):
        assert all(np.array_equal(a, b) for a, b in zip(run(points), default))


def test_no_batch_is_wider_than_the_amplitude_limit(chain6, chain10, monkeypatch):
    # Amplitudes of every working block the kernel gets from a Trotter batch
    # or a block-power build; a kernel push runs the r states of one point.
    # Every block runs on the Neel sector: 252 amplitudes a column at n=10,
    # 20 at n=6.
    widths = {"batch": [], "build": [], "push": []}
    within = []
    program_apply = formulas._Program.apply

    def counted_program(self, state, *a):
        # The walk's batches are the calls outside a push and a build.
        widths[within[-1] if within else "batch"].append(state.size)
        return program_apply(self, state, *a)

    def tagged(func, tag):
        def run(*a):
            within.append(tag)
            try:
                return func(*a)
            finally:
                within.pop()
        return run

    monkeypatch.setattr(formulas._Program, "apply", counted_program)
    monkeypatch.setattr(formulas._BlockPower, "apply", tagged(formulas._BlockPower.apply, "push"))
    monkeypatch.setattr(formulas._BlockPower, "_build", tagged(formulas._BlockPower._build, "build"))
    c0 = solve_coefficients(2, STEPS).coefficients
    # Eight grid points.  At n=10 the default limit holds 81 columns of 252
    # amplitudes, so all eight points of three circuits run as one batch, and
    # seven pushes there never pay for the build.  At n=6 a limit of two and
    # a half points runs two, and a limit below one point still runs one;
    # the build of the 20-state sector runs 7 and 1 basis columns per call.
    for case, sector, limit, points in ((chain10, 252, formulas._KERNEL_AMPLITUDES, 8),
                                        (chain6, 20, 5 * len(STEPS) * 20 // 2, 2),
                                        (chain6, 20, len(STEPS) * 20 // 2, 1)):
        monkeypatch.setattr(formulas, "_KERNEL_AMPLITUDES", limit)
        widths["batch"].clear(), widths["build"].clear()
        minimax_run(case.pf, case.psi, STEPS,
                    t0=0.5, t_final=1.2, dt=0.1, eps=0.01, k0=2, c0=c0, seed=1)
        one_point = len(STEPS) * sector
        assert len(widths["batch"]) == -(-8 // points)
        assert max(widths["batch"]) == points * one_point <= max(limit, one_point)
        if case is chain10:
            assert widths["build"] == []
        else:
            columns = max(1, limit // sector)
            assert sum(widths["build"]) == sector * sector
            assert max(widths["build"]) == columns * sector <= max(limit, sector)


def test_q_from_states_matches_single_push(chain4):
    t, dt, k0 = 1.1, 0.05, 7
    prev = trotter_states(chain4.pf, chain4.psi, t, STEPS)
    nxt = trotter_states(chain4.pf, chain4.psi, t + dt, STEPS)
    for pushes in (1, 100):
        push = push_on(chain4.pf, prev, dt / k0, k0, pushes)
        q = q_from_states(push, coords(push, prev), coords(push, nxt))
        assert np.abs(q - q_reference(chain4.pf, prev, nxt, dt, k0)).max() < 1e-13


def push_on(pf, states, t, k, pushes):
    """The push a run makes for ``pushes`` pushes of as many states as
    ``states`` (2^n amplitudes) holds, on the subspace they touch."""
    rows = np.array(states)
    return _BlockPower(_Program(pf, pf._basis(rows)), t, k, pushes, len(rows))


def coords(push, states):
    """``states`` (2^n amplitudes) as rows in the coordinates of ``push``."""
    return np.array(states)[:, push._program.basis]


def q_reference(pf, prev, nxt, dt, k0):
    """Propagation overlaps from slot-by-slot pushes and ``np.vdot``."""
    pushed = [slot_by_slot(pf, state, dt, k0) for state in prev]
    return np.array([[abs(np.vdot(p, psi)) ** 2 for p in pushed] for psi in nxt])


def conserves_nothing(n, rng):
    """Second-order formula from the commuting groups of a random Pauli sum
    whose invariant blocks are the whole space."""
    words = ["".join(rng.choice(list("IXYZ"), n)) for _ in range(12)]
    op = PauliSumOp.from_terms(n, [(float(rng.standard_normal()), PauliString(w)) for w in words])
    frags = fragment_by_commuting_groups(op)
    assert [b.shape for b in invariant_blocks(frags)[0]] == [(1, 1 << n)]
    return second_order(frags)


def built_states(push):
    """Number of basis states of the subspace a push holds its power on;
    zero when it runs through the kernel."""
    return 0 if push._power is None else push._program.basis.size


def crossover(pf, states, dt, k0):
    """Fewest pushes for which a push made with ``states`` as its first
    rows builds."""
    for pushes in range(1, 1000):
        push = push_on(pf, states, dt / k0, k0, pushes)
        if built_states(push):
            return pushes
    raise AssertionError("no build below 1000 pushes")


@pytest.mark.parametrize("case", ["neel_chain6", "random_state_chain4", "no_symmetry"])
def test_block_power_push_matches_slot_by_slot(case, chain4, chain6):
    rng = np.random.default_rng(7)
    if case == "neel_chain6":
        pf, psi = chain6.pf, chain6.psi
    elif case == "random_state_chain4":
        pf, psi = chain4.pf, random_state(4, rng)
    else:
        pf = conserves_nothing(5, rng)
        psi = random_state(5, rng)
    t, dt, k0 = 0.9, 0.1, 6
    prev = trotter_states(pf, psi, t, STEPS)
    nxt = trotter_states(pf, psi, t + dt, STEPS)
    ref = q_reference(pf, prev, nxt, dt, k0)
    # Enough pushes that the push builds.
    push = push_on(pf, prev, dt / k0, k0, 1000)
    for _ in range(3):
        assert np.abs(q_from_states(push, coords(push, prev), coords(push, nxt)) - ref).max() < 1e-13
    if case == "neel_chain6":
        # One total-Z sector of 20 states; no other block is built.
        assert built_states(push) == 20
    else:
        # A random state touches every block: the power is built on all.
        assert built_states(push) == 1 << pf.n


@pytest.mark.parametrize("n", range(2, 12))
def test_built_push_matches_the_kernel_on_every_neel_sector(n):
    # Sectors of 2 to 462 states.  At 126 (n=9) and 462 (n=11) the block is
    # padded to whole tiles (128, 468) and the build's last kernel call
    # takes fewer basis states than a full call.
    case = ChainCase(n)
    rows = np.array(trotter_states(case.pf, case.psi, 0.5, STEPS))
    push = push_on(case.pf, rows, 0.1 / 6, 6, 10**6)
    assert built_states(push) == math.comb(n, n // 2)
    kernel = case.pf.apply(rows, 0.1 / 6, 6)
    assert np.abs(push.apply(coords(push, rows)) - coords(push, kernel)).max() < 1e-12


def test_only_the_touched_block_of_a_size_is_built(chain5, monkeypatch):
    # At n=5 the Neel state's sector (three qubits up) has ten states, as
    # has the sector with two up: the oracle and the push each build on the
    # touched one alone.
    sector = [i for i in range(32) if i.bit_count() == 3]
    operators, built = [], []
    operator, build = statesim._ChebyshevBlock.__init__, formulas._BlockPower._build
    monkeypatch.setattr(statesim._ChebyshevBlock, "__init__",
                        lambda self, h, basis: operators.append(basis.tolist())
                        or operator(self, h, basis))
    monkeypatch.setattr(formulas._BlockPower, "_build",
                        lambda self: built.append(self._program.basis.tolist()) or build(self))
    pf, psi = chain5.pf, chain5.psi
    assert [idx.shape for idx in pf._blocks] == [(2, 1), (2, 5), (2, 10)]
    oracle = SpectralOracle(chain5.hamiltonian)
    for t in (0.4, 1.3):
        assert np.linalg.norm(oracle.evolve(psi, t) - full_eigh_evolve(
            chain5.hamiltonian, psi, t)) <= 1e-13
    # The oracle keeps nothing, so each call builds H on that sector again.
    assert operators == [sector, sector]
    t, dt, k0 = 0.9, 0.1, 6
    prev = trotter_states(pf, psi, t, STEPS)
    nxt = trotter_states(pf, psi, t + dt, STEPS)
    push = push_on(pf, prev, dt / k0, k0, 1000)
    assert built == [sector]
    ref = q_reference(pf, prev, nxt, dt, k0)
    for _ in range(2):
        assert np.abs(q_from_states(push, coords(push, prev), coords(push, nxt)) - ref).max() < 1e-13
    assert built == [sector]


def test_first_push_decides_for_every_later_push(chain6, monkeypatch):
    calls = []
    apply = FragmentEvolver._apply_in_place
    monkeypatch.setattr(FragmentEvolver, "_apply_in_place",
                        lambda self, *a: calls.append(1) or apply(self, *a))
    pf, dt, k0 = chain6.pf, 0.25, 3
    states = trotter_states(pf, chain6.psi, 0.75, STEPS)
    least = crossover(pf, states, dt, k0)
    assert 1 < least < 8
    # At the crossover a push made with these rows builds the 20-state
    # sector, and every push, even of one state, runs through it.
    push = push_on(pf, states, dt / k0, k0, least)
    prev = coords(push, states)
    assert built_states(push) == 20
    calls.clear()
    for rows in (prev, prev[:1], prev):
        push.apply(rows)
    assert calls == []
    # One push short of it nothing is ever built, even for more states.
    push = push_on(pf, states, dt / k0, k0, least - 1)
    for rows in (np.concatenate([prev, prev]), prev):
        calls.clear()
        push.apply(rows)
        assert calls and built_states(push) == 0


def test_neel_run_makes_no_whole_space_evolver(chain6, monkeypatch):
    # Every evolver of a run from the Neel state, those the push's cost
    # model counts included, works on the 20-state Neel sector.
    bases = []
    init = FragmentEvolver.__init__
    monkeypatch.setattr(FragmentEvolver, "__init__",
                        lambda self, frag, basis=None: bases.append(basis) or init(self, frag, basis))
    c0 = solve_coefficients(2, STEPS).coefficients
    minimax_run(chain6.pf, chain6.psi, STEPS,
                t0=0.5, t_final=2.5, dt=0.25, eps=0.01, k0=3, c0=c0, seed=1)
    assert bases and all(basis is not None and basis.size == 20 for basis in bases)


def minimax_push_calls(case, monkeypatch, **grid):
    """Run a tracker on ``case`` with kernel calls counted: the calls of
    each Trotter batch, of making the push and of each push, with the builds
    made in each; and the order in which they ran."""
    calls, batch_calls, made, push_calls, builds, order = [], [], [], [], [], []
    within = []
    apply, build = FragmentEvolver._apply_in_place, formulas._BlockPower._build
    program_apply, make, push = formulas._Program.apply, _Walk.push, dynamic_mpf.q_from_states

    def counting(func, into, name):
        def run(*args):
            before = len(calls), len(builds)
            within.append(name)
            try:
                out = func(*args)
            finally:
                within.pop()
            into.append((len(calls) - before[0], len(builds) - before[1]))
            order.append(name)
            return out
        return run

    batch = counting(program_apply, batch_calls, "batch")
    monkeypatch.setattr(FragmentEvolver, "_apply_in_place",
                        lambda self, *a: calls.append(1) or apply(self, *a))
    monkeypatch.setattr(formulas._BlockPower, "_build",
                        lambda self, *a: builds.append(1) or build(self, *a))
    # A kernel call outside a push and its making is one of the walk's batches.
    monkeypatch.setattr(formulas._Program, "apply",
                        lambda *a: (program_apply if within else batch)(*a))
    monkeypatch.setattr(dynamic_mpf, "q_from_states", counting(push, push_calls, "push"))
    monkeypatch.setattr(_Walk, "push", counting(make, made, "made"))
    c0 = solve_coefficients(2, STEPS).coefficients
    minimax_run(case.pf, case.psi, STEPS, eps=0.01, c0=c0, seed=1, **grid)
    assert min(calls for calls, _ in batch_calls) > 0
    assert len(calls) == sum(c for c, _ in batch_calls + made + push_calls)
    # The push is made once, after the first batch and right before the
    # first push.
    assert len(made) == 1
    at = order.index("made")
    assert order[0] == "batch" and order[at + 1] == "push" and "push" not in order[:at]
    return batch_calls, made[0], push_calls


def test_minimax_run_builds_at_the_first_push_of_a_long_grid(chain6, monkeypatch):
    # Eight pushes, at least the crossover: the push, made at the first
    # push, builds the 20-state sector, and no push calls the kernel or
    # builds.
    states = trotter_states(chain6.pf, chain6.psi, 0.5, STEPS)
    assert crossover(chain6.pf, states, 0.25, 3) <= 8
    # Two grid points per batch, so batches and pushes interleave; then the
    # default, which runs all nine points of the 6-qubit grid as one batch.
    for limit, batches in ((2 * len(STEPS) * 20, 5), (formulas._KERNEL_AMPLITUDES, 1)):
        monkeypatch.setattr(formulas, "_KERNEL_AMPLITUDES", limit)
        batch_calls, made, push_calls = minimax_push_calls(chain6, monkeypatch, t0=0.5,
                                                           t_final=2.5, dt=0.25, k0=3)
        assert len(batch_calls) == batches and len(push_calls) == 8
        assert made[0] > 0 and made[1] == 1
        assert push_calls == [(0, 0)] * 8


def test_build_rule_counts_the_amplitudes_of_the_subspace(chain10):
    # The shootout's push at n=10 (k0=26, five circuits) from the Neel
    # state: counted on the 252-state sector it builds from more pushes than
    # the 4 it took counted on 1024 amplitudes, and the 70-push shootout
    # still builds.
    states = trotter_states(chain10.pf, chain10.psi, 1.0, (8, 20, 26, 30, 34))
    assert 4 < crossover(chain10.pf, states, 0.05, 26) <= 70


def test_minimax_run_never_builds_on_a_grid_shorter_than_the_crossover(chain6, monkeypatch):
    # Two pushes, fewer than the crossover: every push runs through the
    # kernel, k0 steps of the same circuit, and nothing is built.
    states = trotter_states(chain6.pf, chain6.psi, 0.5, STEPS)
    assert crossover(chain6.pf, states, 0.25, 3) > 2
    _, made, push_calls = minimax_push_calls(chain6, monkeypatch, t0=0.5, t_final=1.0,
                                             dt=0.25, k0=3)
    assert len(push_calls) == 2 and made == (0, 0)
    assert push_calls[0][0] > 0 and push_calls == [(push_calls[0][0], 0)] * 2


def test_block_power_never_builds_above_its_size_limit(chain4, monkeypatch):
    # A random state touches all 16 states.  With the limit one below that,
    # every push runs through the kernel however many there are.
    monkeypatch.setattr(formulas, "_BUILD_MAX", 15)
    rng = np.random.default_rng(3)
    pf, psi = chain4.pf, random_state(4, rng)
    prev = trotter_states(pf, psi, 0.5, STEPS)
    nxt = trotter_states(pf, psi, 0.6, STEPS)
    ref = q_reference(pf, prev, nxt, 0.1, 4)
    push = push_on(pf, prev, 0.1 / 4, 4, 1000)
    for _ in range(20):
        assert np.abs(q_from_states(push, coords(push, prev), coords(push, nxt)) - ref).max() < 1e-13
    assert push._power is None


def test_q_from_states_above_the_qubit_cap_runs_through_the_kernel(chain4):
    # A 13-qubit formula: nothing refuses, and random states touch every
    # 2-state block, so the subspace is the whole space, above the build limit.
    n = 13
    pf = second_order((PauliSumOp.from_terms(n, [(0.7, PauliString("XX" + "I" * (n - 2)))]),
                       PauliSumOp.from_terms(n, [(0.4, PauliString("Z" * n))])))
    rng = np.random.default_rng(5)
    prev = [random_state(n, rng) for _ in range(2)]
    push = push_on(pf, prev, 0.2 / 3, 3, 1000)
    q = q_from_states(push, coords(push, prev), coords(push, prev))
    assert np.abs(q - q_reference(pf, prev, prev, 0.2, 3)).max() < 1e-13
    assert push._power is None and push._program.basis.size == 1 << n


def test_block_products_do_not_depend_on_the_blas_thread_count():
    code = ("import hashlib, numpy as np; from mpf_lab.formulas import _products; "
            "r = np.random.default_rng(1); "
            "a = r.normal(size=(150, 150)) + 1j * r.normal(size=(150, 150)); "
            "v = r.normal(size=(150, 5)) + 0j; "
            "out = _products(a, a); assert np.abs(out - a @ a).max() < 1e-12; "
            "print(hashlib.sha256(out.tobytes() + _products(a, v).tobytes()).hexdigest())")
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=str(Path(dynamic_mpf.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True)
        digests.add(done.stdout)
    assert len(digests) == 1


def run_cli(threads: str, *args: str, cwd: Path | None = None) -> str:
    """Standard output of a CLI run in a fresh interpreter under the given
    BLAS thread count."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               PYTHONPATH=str(Path(dynamic_mpf.__file__).parents[1]))
    return subprocess.run([sys.executable, "-m", "mpf_lab.cli", *args], cwd=cwd, env=env,
                          capture_output=True, text=True, check=True).stdout


def run_shootout(threads: str, *args: str, cwd: Path | None = None) -> str:
    """Standard output of the benchmark's shootout (n=10, seed 2024) in a
    fresh interpreter under the given BLAS thread count."""
    return run_cli(threads, "minimax-shootout", "--seed", "2024", *args, cwd=cwd)


def test_shootout_times_and_kappa_do_not_depend_on_the_blas_thread_count():
    # The default shootout at n=10: at n=8 even a threaded eigendecomposition
    # on the exact path moved no column, so a check there would show nothing.
    # The next test requires every column to match.
    kept = set()
    for threads in ("1", "2"):
        header, *rows = [line.split(",") for line in run_shootout(threads).splitlines()
                         if not line.startswith("#")]
        assert header[0] == "t" and header[-1] == "kappa_minimax" and len(rows) == 71
        kept.add(tuple((row[0], row[-1]) for row in rows))
    assert len(kept) == 1


def test_shootout_output_does_not_depend_on_the_blas_thread_count(tmp_path):
    # Every column of the main and the trajectory CSV: the exact states, the
    # overlaps and the block products each sum in a fixed order on one thread.
    outputs = set()
    for threads in ("1", "2"):
        (tmp_path / threads).mkdir()
        main = run_shootout(threads, "--set", "trajectory_out=traj.csv", cwd=tmp_path / threads)
        outputs.add((main, (tmp_path / threads / "traj.csv").read_text()))
    assert len(outputs) == 1


@pytest.mark.parametrize("scenario", ["trotter-sweep", "mpf-sweep"])
def test_sweep_output_does_not_depend_on_the_blas_thread_count(scenario):
    # The trace norms take a LAPACK QR of rows of the 252-state sector.
    outputs = {run_cli(threads, scenario, "--set", "n=10") for threads in ("1", "2")}
    assert len(outputs) == 1


def test_block_overlaps_match_vdot(chain4):
    states = trotter_states(chain4.pf, chain4.psi, 1.7, STEPS)
    m = gram_from_states(states)
    assert np.all(np.diag(m) == 1.0)
    assert np.array_equal(m, m.T)
    for i, a in enumerate(states):
        for j, b in enumerate(states):
            if i != j:
                assert abs(m[i, j] - abs(np.vdot(a, b)) ** 2) < 1e-14
    exact = chain4.oracle.evolve(chain4.psi, 1.7)
    ell = l_from_states(exact, states)
    assert np.abs(ell - [abs(np.vdot(exact, s)) ** 2 for s in states]).max() < 1e-14


def test_gram_trivial_properties(chain4):
    m0 = gram_matrix(chain4.pf, chain4.psi, 0.0, STEPS)
    assert np.allclose(m0, 1.0)
    m1 = gram_matrix(chain4.pf, chain4.psi, 0.9, STEPS)
    assert np.allclose(np.diag(m1), 1.0)
    assert np.allclose(m1, m1.T)
    assert m1.min() >= 0.0 and m1.max() <= 1.0 + 1e-12


def test_gram_matches_dense_traces(chain4):
    t = 0.8
    states = trotter_states(chain4.pf, chain4.psi, t, STEPS)
    dens = [np.outer(s, s.conj()) for s in states]
    ref = np.array([[np.trace(a @ b).real for b in dens] for a in dens])
    assert np.abs(gram_matrix(chain4.pf, chain4.psi, t, STEPS) - ref).max() < 1e-12


def test_q_matrix_entries(chain4):
    t, dt, k0 = 0.6, 0.1, 9
    prev = trotter_states(chain4.pf, chain4.psi, t, STEPS)
    nxt = trotter_states(chain4.pf, chain4.psi, t + dt, STEPS)
    push = push_on(chain4.pf, prev, dt / k0, k0, 1)
    q = q_from_states(push, coords(push, prev), coords(push, nxt))
    assert q.min() >= 0.0 and q.max() <= 1.0 + 1e-12
    # dense oracle
    for s, ps in enumerate(prev):
        pushed = rho_k_state(chain4.pf, ps, dt, k0)
        dp = np.outer(pushed, pushed.conj())
        for i, psn in enumerate(nxt):
            ref = np.trace(dp @ np.outer(psn, psn.conj())).real
            assert abs(q[i, s] - ref) < 1e-12


def test_q_matrix_small_dt_diagonal(chain4):
    prev = trotter_states(chain4.pf, chain4.psi, 0.5, STEPS)
    push = push_on(chain4.pf, prev, 1e-8, 1, 1)
    q = q_from_states(push, coords(push, prev),
                      coords(push, trotter_states(chain4.pf, chain4.psi, 0.5 + 1e-8, STEPS)))
    assert np.allclose(np.diag(q), 1.0, atol=1e-6)


def test_q_matrix_validation(chain4, monkeypatch):
    states = trotter_states(chain4.pf, chain4.psi, 0.5, STEPS)
    program = _Program(chain4.pf, chain4.pf._basis(chain4.psi))
    for t, k, pushes in ((0.0, 3, 1), (0.1, 0, 1), (0.1, 3, 0)):
        with pytest.raises(ValueError):
            _BlockPower(program, t, k, pushes, len(STEPS))
    # Rows of another width than the push's 6 basis states are refused by a
    # built push, whose products would zero-pad them, and by a kernel push.
    for limit in (6, 5):
        monkeypatch.setattr(formulas, "_BUILD_MAX", limit)
        push = push_on(chain4.pf, states, 0.1, 3, 10**6)
        assert built_states(push) == (6 if limit == 6 else 0)
        rows = coords(push, states)
        for bad in (rows[:, :5], np.pad(rows, ((0, 0), (0, 1))), rows[0]):
            with pytest.raises(ValueError, match="not rows"):
                q_from_states(push, bad, rows)


def test_l_exact_values(chain4):
    l0 = l_exact(chain4.pf, chain4.oracle, chain4.psi, 0.0, STEPS)
    assert np.allclose(l0, 1.0)
    l1 = l_exact(chain4.pf, chain4.oracle, chain4.psi, 0.9, STEPS)
    assert np.all((l1 >= 0.0) & (l1 <= 1.0 + 1e-12))
    states = trotter_states(chain4.pf, chain4.psi, 0.9, STEPS)
    exact = chain4.oracle.evolve(chain4.psi, 0.9)
    dex = np.outer(exact, exact.conj())
    ref = [np.trace(dex @ np.outer(s, s.conj())).real for s in states]
    assert np.abs(l1 - np.asarray(ref)).max() < 1e-12


def test_projection_trivial_cases():
    res = dynamic_project(np.array([[1.0]]), np.array([1.0]))
    assert np.allclose(res.coefficients, [1.0])
    assert abs(res.error_sq) < 1e-12
    # if the first circuit matches the reference exactly, e_1 is optimal
    m = np.array([[1.0, 0.3], [0.3, 1.0]])
    ell = np.array([1.0, 0.3])
    res = dynamic_project(m, ell)
    assert np.allclose(res.coefficients, [1.0, 0.0], atol=1e-10)
    assert abs(res.error_sq) < 1e-12


def test_projection_matches_grid_search(rng):
    # brute-force oracle on the constraint line c2 = 1 - c1
    m = np.array([[1.0, 0.62], [0.62, 1.0]])
    ell = np.array([0.81, 0.74])
    res = dynamic_project(m, ell)
    c1 = np.linspace(-5, 5, 2_000_001)
    c2 = 1.0 - c1
    vals = (m[0, 0] * c1**2 + 2 * m[0, 1] * c1 * c2 + m[1, 1] * c2**2
            - 2 * (ell[0] * c1 + ell[1] * c2))
    best = c1[np.argmin(vals)]
    assert abs(res.coefficients[0] - best) < 1e-5


def test_projection_beats_feasible_points(chain6, rng):
    sch = solve_coefficients(2, STEPS)
    for t in (0.5, 1.0, 1.5):
        m = gram_matrix(chain6.pf, chain6.psi, t, STEPS)
        ell = l_exact(chain6.pf, chain6.oracle, chain6.psi, t, STEPS)
        res = dynamic_project(m, ell)
        static_err = mixture_frobenius_sq(m, sch.coefficients, ell)
        assert res.error_sq <= static_err + 1e-12
        for _ in range(5):
            c = rng.standard_normal(3)
            c /= c.sum()
            assert res.error_sq <= mixture_frobenius_sq(m, c, ell) + 1e-12


def test_projection_singular_ridge_flag():
    res = dynamic_project(np.zeros((2, 2)), np.zeros(2))
    assert res.ridged
    assert abs(res.coefficients.sum() - 1.0) < 1e-9


def test_inject_noise_contract(rng):
    m = gram_like = np.array([[1.0, 0.9, 0.5], [0.9, 1.0, 0.8], [0.5, 0.8, 1.0]])
    q = rng.uniform(0.0, 1.0, (3, 3))
    clean = inject_noise(m, q, 0.0, 1)
    assert np.array_equal(clean.m_bar, m) and np.array_equal(clean.a_bar, q)
    noisy1 = inject_noise(m, q, 0.05, 42)
    noisy2 = inject_noise(m, q, 0.05, 42)
    assert np.array_equal(noisy1.m_bar, noisy2.m_bar)
    assert np.array_equal(noisy1.a_bar, noisy2.a_bar)
    assert not np.array_equal(noisy1.m_bar, m)
    assert np.allclose(np.diag(noisy1.m_bar), 1.0)
    assert np.allclose(noisy1.m_bar, noisy1.m_bar.T)
    assert noisy1.m_bar.min() >= 0.0 and noisy1.a_bar.min() >= 0.0
    # deviation report: within eps up to clamping slack
    assert noisy1.m_deviation <= 0.05 * 2.5
    assert noisy1.a_deviation <= 0.05 * 2.5
    # The bound assumes surrogates within eps of the data: no eps is read
    # that is negative or not finite, by the surrogate or by the step.
    for eps in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="noise magnitude must be >= 0 and finite"):
            inject_noise(m, q, eps, 0)
        with pytest.raises(ValueError, match="noise magnitude must be >= 0 and finite"):
            minimax_step(m, q, np.full(3, 1 / 3), eps)


def test_minimax_step_eps0_reduction(rng):
    m = np.abs(rng.standard_normal((4, 4)))
    m = 0.5 * (m + m.T)
    np.fill_diagonal(m, 1.0)
    a = np.abs(rng.standard_normal((4, 4)))
    c_prev = np.array([0.4, 0.3, 0.2, 0.1])
    x = minimax_step(m, a, c_prev, 0.0)
    ref = dynamic_project(m.T @ m, m.T @ (a @ c_prev)).coefficients
    assert np.abs(x - ref).max() < 1e-10


def test_minimax_step_large_eps_uniform(rng):
    m = np.abs(rng.standard_normal((5, 5)))
    np.fill_diagonal(m, 1.0)
    m = 0.5 * (m + m.T)
    a = np.abs(rng.standard_normal((5, 5)))
    x = minimax_step(m, a, np.full(5, 0.2), 1e6)
    assert np.abs(x - 0.2).max() < 1e-4


def test_minimax_step_certified_against_cvxpy(rng):
    cvxpy = pytest.importorskip("cvxpy")
    for _ in range(10):
        r = int(rng.integers(2, 6))
        m = np.abs(rng.standard_normal((r, r)))
        np.fill_diagonal(m, 1.0)
        m = 0.5 * (m + m.T)
        a = np.abs(rng.standard_normal((r, r)))
        c_prev = rng.standard_normal(r)
        c_prev /= c_prev.sum()
        eps = float(rng.choice([1e-3, 1e-2, 0.1]))
        x_mine = minimax_step(m, a, c_prev, eps)
        var = cvxpy.Variable(r)
        prob = cvxpy.Problem(
            cvxpy.Minimize(cvxpy.norm(m @ var - a @ c_prev, 2) + eps * cvxpy.norm(var, 2)),
            [cvxpy.sum(var) == 1],
        )
        prob.solve(solver=cvxpy.CLARABEL)

        def objective(z):
            return (np.linalg.norm(m @ z - a @ c_prev) + eps * np.linalg.norm(z))

        assert abs(x_mine.sum() - 1.0) < 1e-9
        assert objective(x_mine) <= objective(var.value) + 1e-8


def _regression_instances():
    """48 seeded robust-step instances: every r from 1 to 6 at eight eps from
    1e-4 to 0.3; for r >= 2 every other eps level uses a nearly singular
    unit-diagonal Gram surrogate (two almost parallel unit vectors)."""
    rng = np.random.default_rng(20241018)
    for i, eps in enumerate(np.repeat(np.geomspace(1e-4, 0.3, 8), 6)):
        r = 1 + i % 6
        if r >= 2 and (i // 6) % 2 == 1:
            vecs = rng.standard_normal((2 * r, r))
            vecs[:, -1] = vecs[:, -2] + 1e-7 * rng.standard_normal(2 * r)
            vecs /= np.linalg.norm(vecs, axis=0)
            m = vecs.T @ vecs
            assert np.linalg.cond(m) >= 1e12
        else:
            m = np.abs(rng.standard_normal((r, r)))
            m = 0.5 * (m + m.T)
            np.fill_diagonal(m, 1.0)
        a = np.abs(rng.standard_normal((r, r)))
        c_prev = rng.uniform(-1.0, 1.0, r) + 1.0 / r
        c_prev /= c_prev.sum()
        yield m, a, c_prev, float(eps)


def test_minimax_step_certified_regression_set():
    for idx, (m, a, c_prev, eps) in enumerate(_regression_instances()):
        x = minimax_step(m, a, c_prev, eps)
        b = a @ c_prev
        scale = max(1.0, float(np.linalg.norm(b)))
        gap = _dual_gap(m / scale, b / scale, eps / scale, x)
        assert gap <= MINIMAX_TOL, (idx, gap)
        assert abs(x.sum() - 1.0) <= 1e-12, (idx, x.sum())
        if c_prev.size == 1:
            assert np.array_equal(x, [1.0])


def kink_instance():
    """A robust step whose sum-one least-squares point reaches b exactly and
    is the optimum (a subgradient with |u| = 0.25 exists)."""
    m = np.eye(4)
    m[np.triu_indices(4, 1)] = (0.8598286368718316, 0.915533733759983,
                                1.3498396929440826, 0.6615167347323085,
                                0.4826491909587486, 0.17534387091744705)
    m = m + np.triu(m, 1).T
    a = np.diag([0.8947502332184366, -15.494209048417314, 1.261683291783653,
                 -2.0074156577057063])
    c_prev = np.array([0.9641491780473957, -0.06986752529332062,
                       0.6524184819891494, -0.5467001347432245])
    return m, a, c_prev, 0.11926114159808276


def test_minimax_step_zero_residual_kink_certified():
    # The residual direction is undefined at the kink, so only the kink
    # multiplier can certify it.
    m, a, c_prev, eps = kink_instance()
    b = a @ c_prev
    kink = np.linalg.solve(m, b)
    assert abs(kink.sum() - 1.0) < 1e-14
    start = time.perf_counter()
    x = minimax_step(m, a, c_prev, eps)
    assert time.perf_counter() - start < 5.0
    assert np.abs(x - kink).max() < 1e-12
    scale = max(1.0, float(np.linalg.norm(b)))
    assert _dual_gap(m / scale, b / scale, eps / scale, x) <= MINIMAX_TOL


def test_minimax_step_uncertified_raises_with_best_point(monkeypatch):
    m, a, c_prev, eps = list(_regression_instances())[3]  # r = 4
    monkeypatch.setattr(dynamic_mpf, "MINIMAX_TOL", -1.0)
    with pytest.raises(SolverError) as info:
        minimax_step(m, a, c_prev, eps)
    assert abs(info.value.best.sum() - 1.0) <= 1e-12
    assert 0.0 <= info.value.gap <= MINIMAX_TOL


def bisection_step(m_bar, a_bar, c_prev, eps):
    """The robust step by bisection in log lam to float resolution, about
    60 ridge solves a step: the reference that the secant search of
    ``minimax_step`` must match.  Kept verbatim."""
    m_bar = np.asarray(m_bar, dtype=float)
    a_bar = np.asarray(a_bar, dtype=float)
    c_prev = np.asarray(c_prev, dtype=float)
    r = c_prev.size
    _check_noise(eps)
    if m_bar.shape != (r, r) or a_bar.shape != (r, r):
        raise ValueError("shape mismatch")
    b = a_bar @ c_prev
    if eps == 0.0:
        return dynamic_project(m_bar.T @ m_bar, m_bar.T @ b).coefficients
    # The objective is positively homogeneous in (M, b, eps), so normalize to
    # unit data scale; the certified gap transfers as MINIMAX_TOL * scale.
    scale = max(1.0, float(np.linalg.norm(b)))
    m_s, b_s, e_s = m_bar / scale, b / scale, eps / scale
    d, v = np.linalg.eigh(m_s.T @ m_s)
    d = np.maximum(d, 0.0)
    p = v.T @ (m_s.T @ b_s)
    q = v.sum(axis=0)

    def ridge_point(lam: float) -> np.ndarray:
        w = 1.0 / (d + lam)
        mu = (1.0 - float(q @ (w * p))) / float(q @ (w * q))
        x = v @ (w * (p + mu * q))
        # Project the rounding off the slice (for r = 1, exactly onto [1]).
        return x + (1.0 - x.sum()) / r

    # Every ridge point has |x| >= 1/sqrt(r) and a residual no larger than the
    # uniform mixture's, so lam |x| > eps |res| at `hi`.  Below `lo` the
    # residual at a root would sit beneath its own rounding (the kink).  The
    # problem is strictly convex on the slice, so any root is the optimum;
    # halving the log-bracket to float resolution takes about 60 steps.
    hi = e_s * (math.sqrt(r) * float(np.linalg.norm(m_s.mean(axis=1) - b_s)) + e_s)
    lo = hi * np.finfo(float).eps ** 2
    for _ in range(100):
        mid = math.sqrt(lo) * math.sqrt(hi)
        if not lo < mid < hi:
            break
        x = ridge_point(mid)
        if mid * np.linalg.norm(x) < e_s * np.linalg.norm(m_s @ x - b_s):
            lo = mid
        else:
            hi = mid
    x = ridge_point(hi)
    gap = _dual_gap(m_s, b_s, e_s, x)
    if not math.isfinite(gap) or gap > MINIMAX_TOL:
        raise SolverError(
            f"robust step failed to certify gap {MINIMAX_TOL:g} at unit data scale "
            f"(achieved {gap:.3e}, data scale {scale:.3e})",
            best=x, gap=gap,
        )
    return x


def robust_objective(m, a, c_prev, eps, x):
    return float(np.linalg.norm(m @ x - a @ c_prev) + eps * np.linalg.norm(x))


def test_secant_step_matches_the_bisection(monkeypatch):
    # The 70 robust steps of the n=10, seed-2024 shootout, with the ridge
    # solves each took.
    solves, steps = [], []
    ridge, step = dynamic_mpf._ridge_point, dynamic_mpf.minimax_step
    monkeypatch.setattr(dynamic_mpf, "_ridge_point", lambda *a: solves.append(1) or ridge(*a))

    def counted(*args):
        before = len(solves)
        x = step(*args)
        steps.append((args, len(solves) - before))
        return x

    monkeypatch.setattr(dynamic_mpf, "minimax_step", counted)
    cfg = experiments.resolve_config("minimax-shootout", {"n": "10", "seed": "2024"})
    doc, _ = experiments.run_scenario("minimax-shootout", cfg)
    monkeypatch.undo()
    assert len(steps) == 70
    assert sum(count for _, count in steps) <= 15 * len(steps)
    # The robust estimate beats the best Trotter circuit from t = 2.5 on.
    columns = dict(zip(doc.header, zip(*doc.rows)))
    for t, trotter, minimax in zip(columns["t"], columns["err_best_trotter"],
                                   columns["err_minimax"]):
        assert t < 2.5 or minimax <= trotter, t
    instances = [*_regression_instances(), kink_instance(), *(args for args, _ in steps)]
    for idx, (m, a, c_prev, eps) in enumerate(instances):
        x, ref = minimax_step(m, a, c_prev, eps), bisection_step(m, a, c_prev, eps)
        best = robust_objective(m, a, c_prev, eps, ref)
        assert robust_objective(m, a, c_prev, eps, x) <= best * (1.0 + 1e-13), idx
        scale = max(1.0, float(np.linalg.norm(a @ c_prev)))
        assert _dual_gap(m / scale, a @ c_prev / scale, eps / scale, x) <= MINIMAX_TOL, idx


def test_published_seed_embedding():
    sub = solve_coefficients(2, (8, 26, 34), even_powers=True)
    seed = np.zeros(5)
    seed[[0, 2, 4]] = sub.coefficients
    expected = np.array([0.00612895, 0.0, -1.55561002, 0.0, 2.54948107])
    assert np.abs(seed - expected).max() < 5e-9


def test_minimax_run_grid_validation(chain4):
    c0 = solve_coefficients(2, STEPS).coefficients
    with pytest.raises(ValueError):
        minimax_run(chain4.pf, chain4.psi, STEPS, 1.0, 0.5, 0.1,
                    0.0, 4, c0, 0)
    with pytest.raises(ValueError):
        minimax_run(chain4.pf, chain4.psi, STEPS, 0.0, 1.0, 0.3,
                    0.0, 4, c0, 0)
    with pytest.raises(ValueError):
        minimax_run(chain4.pf, chain4.psi, STEPS, 0.0, 1.0, 0.1,
                    0.0, 4, (1.0, 1.0, 1.0), 0)
    # An interval within rounding of zero holds no grid step: refused, not
    # run as one point with no push.
    with pytest.raises(ValueError, match="dt must divide"):
        minimax_run(chain4.pf, chain4.psi, STEPS, 0.0, 1e-12, 0.1,
                    0.0, 4, c0, 0)


@pytest.mark.parametrize("arg, value", [("t0", -math.inf), ("t_final", math.inf),
                                        ("dt", math.nan), ("eps", math.nan)])
def test_minimax_run_refuses_non_finite_arguments(arg, value, chain4, monkeypatch):
    monkeypatch.setattr(ProductFormula, "apply", lambda *a: pytest.fail("state computed"))
    grid = {"t0": 0.5, "t_final": 1.0, "dt": 0.1, "eps": 0.01, arg: value}
    with pytest.raises(ValueError, match="must be finite"):
        minimax_run(chain4.pf, chain4.psi, STEPS, k0=3,
                    c0=solve_coefficients(2, STEPS).coefficients, seed=1, **grid)


def test_minimax_run_refuses_c0_of_the_wrong_length(chain4, monkeypatch):
    # One coefficient would broadcast over the three step counts (and sum to
    # 3), two would fail inside NumPy; both are refused before any state.
    monkeypatch.setattr(ProductFormula, "apply", lambda *a: pytest.fail("state computed"))
    for c0 in ([1.0], [0.5, 0.5], [[0.2, 0.3, 0.5]]):
        with pytest.raises(ValueError, match="one initial coefficient per step count"):
            minimax_run(chain4.pf, chain4.psi, STEPS, t0=0.5, t_final=1.0,
                        dt=0.1, eps=0.01, k0=3, c0=c0, seed=1)


def test_minimax_run_eps0_matches_projection_chain(chain4):
    c0 = np.asarray(solve_coefficients(2, STEPS).coefficients)
    run = minimax_run(chain4.pf, chain4.psi, STEPS,
                      t0=0.5, t_final=1.1, dt=0.1, eps=0.0, k0=5, c0=c0, seed=9)
    assert isinstance(run, MinimaxRun)
    c = c0
    for j in range(1, len(run.times)):
        mb, ab = run.m_bars[j], run.a_bars[j]
        c = dynamic_project(mb.T @ mb, mb.T @ (ab @ c)).coefficients
        assert np.abs(c - run.c_hat[j]).max() < 1e-8
    assert np.allclose(run.c_hat.sum(axis=1), 1.0, atol=1e-9)


def test_minimax_run_records_diagnostics(chain4):
    c0 = solve_coefficients(2, STEPS).coefficients
    run = minimax_run(chain4.pf, chain4.psi, STEPS,
                      t0=0.5, t_final=0.9, dt=0.1, eps=0.01, k0=5, c0=c0, seed=3)
    assert len(run.m_bars) == len(run.times) == 5
    assert run.a_bars[0] is None
    assert np.all(run.error_hat >= 0)
    assert np.all(run.kappa_hat >= 1.0 - 1e-12)
    # dynamic projection with exact data is never worse than the estimate
    assert np.all(run.error_star <= run.error_hat + 1e-12)


def test_tracking_bound_initial_step_formulas(chain4):
    c0 = np.array([0.2, 0.3, 0.5])
    mb = np.array([[1.0, 0.5, 0.2], [0.5, 1.0, 0.4], [0.2, 0.4, 1.0]])
    eps = 0.05
    out = tracking_error_bound([mb], [None], eps, c0[None, :], [np.linalg.norm(c0)],
                         [0.0], c0)
    step = out[0]
    p0 = mb.T @ mb + np.ones((3, 3)) + eps**2 * np.eye(3)
    radius0 = ((2 * eps * np.linalg.norm(c0)) ** 2
             - (1.0 + c0 @ c0) + c0 @ p0 @ c0)
    assert abs(step.radius_sq - max(radius0, 0.0)) < 1e-12
    assert abs(step.misfit_offset - (1.0 + c0 @ c0)) < 1e-14
    ref = 2.0 * math.sqrt(max(radius0, 0.0)) * np.sqrt(np.diag(np.linalg.inv(p0)))
    assert np.abs(step.component_bounds - ref).max() < 1e-9


def test_tracking_bound_dominates_tracked_error(chain4):
    from mpf_lab.bounds import MixtureBoundEvaluator

    m0 = gram_matrix(chain4.pf, chain4.psi, 0.5, STEPS)
    l0 = l_exact(chain4.pf, chain4.oracle, chain4.psi, 0.5, STEPS)
    c0 = dynamic_project(m0, l0).coefficients
    run = minimax_run(chain4.pf, chain4.psi, STEPS,
                      t0=0.5, t_final=1.0, dt=0.1, eps=0.01, k0=9, c0=c0, seed=42)
    sch = solve_coefficients(2, STEPS)
    ev = MixtureBoundEvaluator(sch, chain4.pf)
    gammas = [ev.at(float(t))
              + 2.0 * ev.commutator_sum * 0.1**3 / (math.factorial(3) * 9**2)
              for t in run.times]
    steps_out = tracking_error_bound(run.m_bars, run.a_bars, 0.01, run.c_hat,
                               np.linalg.norm(run.c_star, axis=1), gammas,
                               run.c_star[0])
    for j, st in enumerate(steps_out):
        err = np.abs(run.c_star[j] - run.c_hat[j])
        assert np.all(st.component_bounds + 1e-12 >= err)


def test_tracking_bound_length_validation():
    with pytest.raises(ValueError):
        tracking_error_bound([np.eye(2)], [], 0.0, np.ones((1, 2)), [1.0], [0.0], np.ones(2))


def _tracking_bound_from_scratch(m_bars, a_bars, eps, c_hat, c_star_norms,
                                 gamma_values, c_star0):
    """Reference: rebuild the Schur chain P_0..P_j for every horizon j, with
    weight 2 eps^2 on the middle steps and eps^2 on the last."""
    r = m_bars[0].shape[0]
    ones = np.ones(r)
    out = []
    for horizon in range(len(m_bars)):
        p_mat = m_bars[0].T @ m_bars[0] + np.outer(ones, ones) + eps * eps * np.eye(r)
        r_vec = ones + c_star0
        alpha = 1.0 + float(c_star0 @ c_star0)
        for s in range(1, horizon + 1):
            q_s = 2.0 if s < horizon else 1.0
            trans, m_s = a_bars[s], m_bars[s]
            core = _pinv(p_mat + trans.T @ trans)
            alpha = alpha + 1.0 - float(r_vec @ core @ r_vec)
            r_vec = m_s.T @ trans @ core @ r_vec + ones
            p_mat = (np.outer(ones, ones) + q_s * eps * eps * np.eye(r)
                     + m_s.T @ m_s - m_s.T @ trans @ core @ trans.T @ m_s)
        eigs = np.linalg.eigvalsh(0.5 * (p_mat + p_mat.T))
        psi = 2.0 * eps * c_star_norms[horizon]
        if horizon >= 1:
            psi += 4.0 * eps * float(c_star_norms[1:horizon].sum())
        drift = math.sqrt(r) * float(gamma_values[:horizon].sum())
        c_j = c_hat[horizon]
        radius_sq = max((drift + psi) ** 2 - alpha + float(c_j @ p_mat @ c_j), 0.0)
        comp = 2.0 * math.sqrt(radius_sq) * np.sqrt(np.clip(np.diag(_pinv(p_mat)), 0.0, None))
        out.append((radius_sq, comp, alpha, float(eigs[0])))
    return out


def test_tracking_bound_prefix_chain_matches_from_scratch(chain4):
    c0 = solve_coefficients(2, STEPS).coefficients
    run = minimax_run(chain4.pf, chain4.psi, STEPS,
                      t0=0.5, t_final=1.7, dt=0.1, eps=0.01, k0=5, c0=c0, seed=11)
    norms = np.linalg.norm(run.c_star, axis=1)
    gammas = np.linspace(1e-4, 3e-4, len(run.times))
    got = tracking_error_bound(run.m_bars, run.a_bars, 0.01, run.c_hat, norms,
                               gammas, run.c_star[0])
    ref = _tracking_bound_from_scratch(run.m_bars, run.a_bars, 0.01, run.c_hat,
                                       norms, gammas, run.c_star[0])
    assert len(got) == len(ref) == 13
    assert sum(step.radius_sq > 0.0 for step in got) >= 10
    for j, (step, (radius_sq, comp, alpha, p_min)) in enumerate(zip(got, ref)):
        assert step.index == j
        assert step.radius_sq == radius_sq
        assert np.array_equal(step.component_bounds, comp)
        assert step.misfit_offset == alpha
        assert step.p_min_eig == p_min
