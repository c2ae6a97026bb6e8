from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mpf_lab import ResourceLimitError, rank_of_tuple, search_steps, solve_coefficients
from mpf_lab import static_mpf


def _solve_rational(steps, powers):
    """Gauss-Jordan elimination of the extrapolation system over the rationals."""
    r = len(steps)
    rows = [[Fraction(1)] * r] + [[Fraction(1, k ** q) for k in steps] for q in powers]
    aug = [row + [Fraction(i == 0)] for i, row in enumerate(rows)]
    for col in range(r):
        piv = next(i for i in range(col, r) if aug[i][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        aug[col] = [x / aug[col][col] for x in aug[col]]
        for i in range(r):
            if i != col and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[col])]
    return [aug[i][r] for i in range(r)]


increasing_tuples = st.sets(st.integers(1, 60), min_size=1, max_size=6).map(sorted).map(tuple)


@given(increasing_tuples, st.integers(1, 4), st.sampled_from([1, 2]))
@example((7,), 1, 2)
@example((7,), 4, 1)
@settings(max_examples=200, deadline=None)
def test_closed_form_is_the_systems_solution(steps, p, s):
    powers = tuple(range(p, p + s * (len(steps) - 1), s))
    assert static_mpf._closed_form(p, steps, s) == _solve_rational(steps, powers)
    assert solve_coefficients(p, steps, s == 2).powers == powers


@given(st.sets(st.integers(1, 40), min_size=1, max_size=12).map(sorted).map(tuple),
       st.integers(1, 4), st.sampled_from([1, 2]))
@settings(max_examples=200, deadline=None)
def test_float_keys_stay_within_their_band(steps, p, s):
    (objective,), (kappa,) = static_mpf._float_keys(p, np.array([steps], dtype=float), s)
    exact = static_mpf._closed_form(p, steps, s)
    exact_kappa = sum(map(abs, exact))
    exact_objective = sum(abs(c) / Fraction(k) ** (2 * p) for c, k in zip(exact, steps))
    band = static_mpf._BAND * (1 + float(exact_kappa))
    assert abs(Fraction(kappa) - exact_kappa) <= band * exact_kappa
    assert abs(Fraction(objective) - exact_objective) <= band * exact_objective


def test_order2_golden_triple():
    sch = solve_coefficients(2, (4, 13, 17))
    assert np.allclose(sch.coefficients, (0.0160884867, -1.7949346405, 2.7788461538),
                       atol=5e-7)
    assert sch.powers == (2, 3)
    assert abs(sch.kappa - 4.589869) < 1e-5


def test_order4_golden_quintuple():
    sch = solve_coefficients(4, (2, 9, 17, 23, 25))
    expected = (1.77273106e-08, -0.0026781249, 0.5003677143, -6.7785310376, 7.2808414305)
    for got, exp in zip(sch.coefficients, expected):
        assert abs(got - exp) <= 1e-6 * max(abs(exp), 1e-8)
    assert sch.powers == (4, 5, 6, 7)


def test_even_power_golden_triple():
    sch = solve_coefficients(2, (8, 26, 34), even_powers=True)
    assert np.allclose(sch.coefficients, (0.00612895, -1.55561002, 2.54948107), atol=5e-9)
    assert sch.powers == (2, 4)


def test_even_power_five_circuit_seed():
    sch = solve_coefficients(2, (8, 20, 26, 30, 34), even_powers=True)
    approx = (8.937e-05, -0.7303, 11.498, -27.372, 17.604)
    for got, exp in zip(sch.coefficients, approx):
        assert abs(got - exp) < 5e-4 * max(1.0, abs(exp))
    assert abs(sch.kappa - 57.2045) < 0.01
    assert sch.powers == (2, 4, 6, 8)


def test_constraint_residuals():
    for even in (False, True):
        sch = solve_coefficients(2, (4, 10, 13, 15, 17), even)
        res = sch.residuals()
        assert abs(res[0]) < 1e-10
        assert all(abs(r) < 1e-8 for r in res[1:])


@given(st.sets(st.integers(1, 30), min_size=2, max_size=5), st.integers(2, 4),
       st.sampled_from([2, 3, 5]))
@settings(max_examples=30, deadline=None)
def test_rescaling_invariance(steps_set, p, lam):
    steps = tuple(sorted(steps_set))
    base = solve_coefficients(p, steps)
    scaled = solve_coefficients(p, tuple(lam * k for k in steps))
    assert np.allclose(base.coefficients, scaled.coefficients, atol=1e-9)
    assert abs(base.objective / scaled.objective - lam ** (2 * p)) < 1e-6 * lam ** (2 * p)
    assert abs(base.kappa - scaled.kappa) < 1e-9


def test_degenerate_single_circuit():
    sch = solve_coefficients(2, (5,))
    assert sch.coefficients == (1.0,)
    assert sch.kappa == 1.0


def test_invalid_steps():
    with pytest.raises(ValueError):
        solve_coefficients(2, (4, 4, 9))
    with pytest.raises(ValueError):
        solve_coefficients(2, (9, 4, 13))
    with pytest.raises(ValueError):
        solve_coefficients(2, (0, 4))
    with pytest.raises(ValueError):
        solve_coefficients(0, (1, 2, 3))


def test_search_kmax17_top_tuple():
    ranked = search_steps(2, 17, limit=5)
    assert ranked[0].steps == (4, 13, 17)


def test_search_kmax25_flags_better_tuple():
    ranked = search_steps(2, 25, limit=10)
    assert ranked[0].steps == (6, 19, 25)
    assert rank_of_tuple(ranked, (4, 13, 17)) is None  # far outside the top 10
    ref = solve_coefficients(2, (4, 13, 17))
    assert ref.objective > ranked[0].objective


def test_search_objective_ordering_and_cap():
    ranked = search_steps(2, 12, limit=None)
    objs = [s.objective for s in ranked]
    assert objs == sorted(objs)
    capped = search_steps(2, 12, kappa_cap=4.0, limit=None)
    assert all(s.kappa <= 4.0 for s in capped)
    assert len(capped) < len(ranked)


def test_search_guards():
    with pytest.raises(ValueError):
        search_steps(2, 45)
    with pytest.raises(ValueError):
        search_steps(2, 2, r=3)
    for p, r in ((0, 2), (-2, 3)):
        with pytest.raises(ValueError, match="order p must be >= 1"):
            search_steps(p, 6, r)
    for limit in (0, -3):
        with pytest.raises(ValueError, match="limit must be >= 1"):
            search_steps(2, 6, limit=limit)


@pytest.mark.parametrize("k_max, r, kappa_cap", [(12, 3, None), (16, 4, 50.0), (20, 3, 5.0)])
def test_search_limit_keeps_the_head_of_the_full_ranking(k_max, r, kappa_cap):
    full = search_steps(2, k_max, r, kappa_cap=kappa_cap, limit=None)
    assert len(full) > 10
    for limit in (1, 10, len(full), len(full) + 3):
        assert search_steps(2, k_max, r, kappa_cap=kappa_cap, limit=limit) == full[:limit]


def test_search_r1_degenerate():
    ranked = search_steps(2, 6, r=1, limit=None)
    assert all(s.coefficients == (1.0,) and s.kappa == 1.0 for s in ranked)
    # objective sum |c|/k^4 is minimized by the largest k
    assert ranked[0].steps == (6,)


def test_search_breaks_exact_ties_by_kappa():
    # Both objectives are exactly 1/44352; the float keys differ by rounding.
    ranked = search_steps(2, 25, even_powers=True, limit=25)
    pos = rank_of_tuple(ranked, (5, 17, 25))
    assert ranked[pos + 1].steps == (5, 19, 25)
    assert ranked[pos].objective == ranked[pos + 1].objective
    assert ranked[pos].kappa < ranked[pos + 1].kappa
    for steps in ((5, 17, 25), (5, 19, 25)):
        exact = static_mpf._closed_form(2, steps, 2)
        assert sum(abs(c) / Fraction(k) ** 4 for c, k in zip(exact, steps)) == Fraction(1, 44352)


# The last case's float keys overflow (40^200) for the larger steps and its
# objectives underflow to 0.0, so kappa and then the tuple decide.
@pytest.mark.parametrize("p, k_max, r, even_powers, kappa_cap",
                         [(2, 14, 3, False, None), (2, 14, 3, True, None),
                          (2, 14, 3, False, 6.0), (200, 40, 2, False, None)])
def test_search_is_the_exact_sort_of_every_tuple(p, k_max, r, even_powers, kappa_cap):
    schemes = [solve_coefficients(p, t, even_powers)
               for t in combinations(range(1, k_max + 1), r)]
    expected = sorted((s for s in schemes if kappa_cap is None or s.kappa <= kappa_cap),
                      key=lambda s: (s.objective, s.kappa, s.steps))
    for limit in (None, 7):
        assert search_steps(p, k_max, r, even_powers=even_powers, kappa_cap=kappa_cap,
                            limit=limit) == expected[:limit]


def test_search_refuses_too_many_tuples_before_ranking(monkeypatch):
    monkeypatch.setattr(static_mpf, "_float_keys", lambda *a: pytest.fail("tuple ranked"))
    monkeypatch.setattr(static_mpf, "combinations", lambda *a: pytest.fail("tuple formed"))
    with pytest.raises(ResourceLimitError, match="capped at 20000000 tuples"):
        search_steps(2, 40, 20)


def test_search_refuses_tuples_too_ill_conditioned_to_rank():
    # 37 of 40 steps: every kappa is near 1e16, so float keys cannot separate them.
    with pytest.raises(ResourceLimitError, match="float keys cannot rank"):
        search_steps(2, 40, 37, limit=25)
