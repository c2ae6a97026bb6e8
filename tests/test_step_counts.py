"""Every entry that takes a step count reads it by one rule
(``formulas._step_count``): an integer >= 1, where 4.0 reads as 4.  Each
refusal comes before any kernel or series work."""

import math

import numpy as np
import pytest

from mpf_lab import (
    gram_matrix,
    l_exact,
    minimax_run,
    product_formula_error_bound,
    rank_of_tuple,
    rho_k_state,
    solve_coefficients,
    trotter_states,
)
from mpf_lab import ResourceLimitError, formulas, statesim
from mpf_lab.formulas import _BlockPower, _Program, _Walk

STEPS = (4, 13, 17)


def run_minimax(c, steps, k0):
    return minimax_run(c.pf, c.psi, steps, t0=0.5, t_final=0.7, dt=0.1, eps=0.01, k0=k0,
                       c0=solve_coefficients(2, STEPS).coefficients, seed=1).c_hat


def push(c, k):
    """The push through the kernel (one push) and built (a million pushes)."""
    basis = c.pf._basis(c.psi)
    return [_BlockPower(_Program(c.pf, basis), 0.1, k, pushes, 1).apply(c.psi[basis][None])
            for pushes in (1, 10**6)]


# Every entry that takes a step count, as a function of the chain and one count k.
ENTRIES = {
    "trotter_states": lambda c, k: trotter_states(c.pf, c.psi, 1.0, [k, 13]),
    "gram_matrix": lambda c, k: gram_matrix(c.pf, c.psi, 1.0, [k, 13]),
    "l_exact": lambda c, k: l_exact(c.pf, c.oracle, c.psi, 1.0, [k, 13]),
    "rho_k_state": lambda c, k: rho_k_state(c.pf, c.psi, 1.0, k),
    "apply": lambda c, k: c.pf.apply(c.psi, 0.25, k),
    "_Program": lambda c, k: _Program(c.pf, c.pf._basis(c.psi)).apply(
        c.psi[c.pf._basis(c.psi)], 0.25, k),
    "_Walk": lambda c, k: list(_Walk(c.pf, c.psi, np.array([0.5, 1.0]), [k, 13])),
    "_BlockPower": push,
    "minimax_run_steps": lambda c, k: run_minimax(c, (k, 13, 17), 3),
    "minimax_run_k0": lambda c, k: run_minimax(c, STEPS, k),
    "solve_coefficients": lambda c, k: solve_coefficients(2, (k, 13, 17)),
    "rank_of_tuple": lambda c, k: rank_of_tuple([solve_coefficients(2, STEPS)], (k, 13, 17)),
    "product_formula_error_bound": lambda c, k: product_formula_error_bound(
        c.pf, 1.0, k, commutator_sum=1.0),
}


def bits(value):
    """Arrays as their dtype, shape and bytes, at any depth of nesting."""
    if isinstance(value, (list, tuple)):
        return [bits(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    return value


@pytest.mark.parametrize("entry", ENTRIES)
def test_every_entry_reads_a_step_count_by_one_rule(entry, chain4, monkeypatch):
    run = ENTRIES[entry]
    for owner, name in ((statesim.FragmentEvolver, "_apply_in_place"),
                        (statesim._ChebyshevBlock, "__init__")):
        monkeypatch.setattr(owner, name, lambda *a, name=name: pytest.fail(f"{name} ran"))
    for bad in (2.5, 0, -1, math.nan, math.inf):
        with pytest.raises(ValueError,
                           match=r"^step count k0? must be an integer >= 1$"):
            run(chain4, bad)
    monkeypatch.undo()
    assert bits(run(chain4, 4.0)) == bits(run(chain4, 4))


def test_kernel_calls_past_the_pass_cap_are_refused_before_any_step(chain4, monkeypatch):
    # Two rows of 6 states fill less than one block, so k steps make k times
    # the program's passes: a call at the cap runs, and one past it is
    # refused before any kernel step, or in a walk (two grid points in one
    # batch) before its series.
    pf, psi, times = chain4.pf, chain4.psi, np.array([0.5, 1.0])
    passes = _Program(pf, pf._basis(psi)).passes
    monkeypatch.setattr(formulas, "_PASSES_MAX", 6 * passes)
    block = np.stack([psi, psi])
    assert pf.apply(block, 0.1, [6, 4]).shape == block.shape
    assert len(list(_Walk(pf, psi, times, [6, 2]))) == 2
    for owner, name in ((statesim.FragmentEvolver, "_apply_in_place"),
                        (statesim._ChebyshevBlock, "terms")):
        monkeypatch.setattr(owner, name, lambda *a, name=name: pytest.fail(f"{name} ran"))
    for run, rows in ((lambda: pf.apply(block, 0.1, [7, 1]), 2),
                      (lambda: _Walk(pf, psi, times, [7, 1]), 4)):
        with pytest.raises(ResourceLimitError, match=(
                f"^a kernel call of 7 steps on {rows} rows makes {7 * passes} block passes, "
                f"above the cap of {6 * passes}$")):
            run()
