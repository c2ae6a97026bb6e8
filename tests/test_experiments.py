import numpy as np
import pytest
from conftest import fit_scaling

from mpf_lab import bounds, experiments
from mpf_lab.experiments import (
    CsvDoc,
    SCHEMA_LINE,
    parse_config_text,
    resolve_config,
    run_scenario,
    time_grid,
)
from mpf_lab.statesim import mixture_trace_norm, neel_state
from mpf_lab.static_mpf import solve_coefficients


def test_parse_config_text():
    text = "# comment\nn = 6\n\nsteps = 4,13,17\nt_scale= log\n"
    kv = parse_config_text(text)
    assert kv == {"n": "6", "steps": "4,13,17", "t_scale": "log"}
    with pytest.raises(ValueError):
        parse_config_text("this is not a pair\n")


def test_resolve_config_layers():
    cfg = resolve_config("mpf-sweep", {"n": "4", "p": "4"}, {"n": "6"})
    assert cfg["n"] == 6 and cfg["p"] == 4
    assert cfg["steps"] == (4, 13, 17)
    with pytest.raises(ValueError):
        resolve_config("mpf-sweep", {"bogus": "1"})
    with pytest.raises(ValueError):
        resolve_config("no-such-scenario")


def test_coercions():
    cfg = resolve_config("mpf-sweep", {"even_powers": "true", "steps": "2;9;17"})
    assert cfg["even_powers"] is True
    assert cfg["steps"] == (2, 9, 17)
    with pytest.raises(ValueError):
        resolve_config("mpf-sweep", {"even_powers": "maybe"})


@pytest.mark.parametrize("scenario", list(experiments.SCENARIOS))
def test_every_default_resolves_back_to_itself(scenario):
    # A string value is read by the type of the key's default; the default
    # as --help and the CSV header write it reads back unchanged.
    for key, opt in experiments.SCENARIOS[scenario].items():
        value = resolve_config(scenario, {key: experiments._show(opt.default)})[key]
        assert value == opt.default and type(value) is type(opt.default), key


def test_time_grid():
    lin = time_grid({"t_start": 0.0, "t_stop": 2.0, "t_count": 5, "t_scale": "linear"})
    assert np.allclose(lin, [0.0, 0.5, 1.0, 1.5, 2.0])
    log = time_grid({"t_start": 0.1, "t_stop": 10.0, "t_count": 3, "t_scale": "log"})
    assert np.allclose(log, [0.1, 1.0, 10.0])
    with pytest.raises(ValueError):
        time_grid({"t_start": 0.0, "t_stop": 1.0, "t_count": 3, "t_scale": "log"})
    with pytest.raises(ValueError):
        time_grid({"t_start": 0.0, "t_stop": 1.0, "t_count": 0, "t_scale": "linear"})
    with pytest.raises(ValueError, match="t_stop must be >= 0"):
        time_grid({"t_start": 0.5, "t_stop": -0.5, "t_count": 3, "t_scale": "linear"})
    with pytest.raises(ValueError, match="log grids need t_stop > 0"):
        time_grid({"t_start": 0.5, "t_stop": 0.0, "t_count": 3, "t_scale": "log"})


def test_csv_doc_format():
    doc = CsvDoc(["a = 1"], ["x", "y"], [[1, 0.5], [2, None]])
    text = doc.text()
    lines = text.splitlines()
    assert lines[0] == SCHEMA_LINE
    assert lines[1] == "# a = 1"
    assert lines[2] == "x,y"
    assert lines[3] == "1,5.000000000000e-01"
    assert lines[4] == "2,nan"
    assert text.endswith("\n")


def test_solve_coeffs_scenario():
    cfg = resolve_config("solve-coeffs", {"p": "2", "steps": "4,13,17"})
    doc, traj = run_scenario("solve-coeffs", cfg)
    assert traj is None
    row = doc.rows[0]
    assert row[0] == 2
    assert row[1] == "4;13;17"
    coeffs = [float(tok) for tok in row[2].split(";")]
    assert abs(coeffs[2] - 2.778846153846) < 1e-9


def test_tuple_search_scenario_reference_flagging():
    cfg = resolve_config("tuple-search",
                         {"k_max": "25", "limit": "3", "reference": "4,13,17"})
    doc, _ = run_scenario("tuple-search", cfg)
    joined = "\n".join(doc.comments)
    assert "best_tuple = 6,19,25" in joined
    assert "reference_rank = unranked" in joined
    assert "reference_objective_ratio" in joined
    assert len(doc.rows) == 3


def test_mpf_sweep_rows_and_zero_time(chain4):
    cfg = resolve_config("mpf-sweep", {
        "n": "4", "t_start": "0.0", "t_stop": "1.0", "t_count": "3",
        "bounds": "off",
    })
    doc, _ = run_scenario("mpf-sweep", cfg)
    assert doc.header[0] == "t"
    first = doc.rows[0]
    assert first[0] == 0.0
    # At t = 0 every circuit and the exact evolution give the Neel state
    # itself, so the Trotter error is exactly 0 and the mixture's error is
    # that of its coefficients' rounding, computed like every other row.
    scheme = solve_coefficients(cfg["p"], cfg["steps"])
    copies = [neel_state(4)] * (len(scheme.steps) + 1)
    assert first[1] == 0.0
    assert first[2] == mixture_trace_norm(copies, [*scheme.coefficients, -1.0])
    assert first[3] == 0.0 and first[5] == 0.0
    # bound columns present but disabled
    assert first[4] is None
    # The Trotter sweep's t = 0 rows, one per step count, are exact zeros.
    cfg = resolve_config("trotter-sweep", {
        "n": "4", "t_start": "0.0", "t_stop": "1.0", "t_count": "3",
    })
    doc, _ = run_scenario("trotter-sweep", cfg)
    zero = [row for row in doc.rows if row[0] == 0.0]
    assert [row[1] for row in zero] == list(cfg["k_list"])
    assert all(row[2:] == [0.0, 0.0, 0.0] for row in zero)


def test_mpf_sweep_bound_columns_dominate(chain4):
    cfg = resolve_config("mpf-sweep", {
        "n": "4", "t_start": "0.5", "t_stop": "1.0", "t_count": "2",
        "bounds": "on",
    })
    doc, _ = run_scenario("mpf-sweep", cfg)
    for row in doc.rows:
        t, trotter_err, mpf_err, trotter_bound, mpf_bound, _ = row
        assert trotter_bound >= trotter_err
        assert mpf_bound >= mpf_err


@pytest.mark.parametrize("scenario, overrides, message", [
    ("mpf-sweep", {"n": "11", "bounds": "bogus"}, "bounds must be"),
    ("mpf-sweep", {"n": "11", "bounds": "on", "even_powers": "true"}, "consecutive-power"),
    ("trotter-sweep", {"n": "11", "k_list": "4,0"}, "k_list"),
    ("mpf-sweep", {"n": "6", "p": "4", "bounds": "on"}, r"r = p \+ 1"),
    ("tuple-search", {"k_max": "40", "r": "4", "reference": "13,4,17,20"},
     "strictly increasing"),
    ("bound-eval", {"n": "8", "t_count": "0"}, "t_count must be >= 1"),
])
def test_sweep_config_checked_before_any_work(monkeypatch, scenario, overrides, message):
    def forbidden(*args, **kwargs):
        raise AssertionError("scenario work started before the config was checked")

    for name in ("_Walk", "formula_commutator_sum", "search_steps",
                 "MixtureBoundEvaluator"):
        monkeypatch.setattr(experiments, name, forbidden)
    cfg = resolve_config(scenario, overrides)
    with pytest.raises(ValueError, match=message):
        run_scenario(scenario, cfg)


@pytest.mark.parametrize("overrides", [{"even_powers": "true"}, {"steps": "4,13,17,20"}])
def test_mpf_sweep_auto_leaves_an_inadmissible_bound_empty(overrides):
    cfg = resolve_config("mpf-sweep", {"n": "4", "t_count": "2", **overrides})
    doc, _ = run_scenario("mpf-sweep", cfg)
    assert all(row[4] is None for row in doc.rows)
    assert doc.text().splitlines()[-1].split(",")[4] == "nan"


def test_bounded_mpf_sweep_builds_one_window_space(monkeypatch):
    # trotter_bound reads the evaluator's plain sum, so one block form and
    # one depth-p pass serve both bound columns.
    built = []

    class CountingSpace(bounds._WindowSpace):
        def __init__(self, pf):
            built.append(pf)
            super().__init__(pf)

    monkeypatch.setattr(bounds, "_WindowSpace", CountingSpace)
    doc, _ = run_scenario("mpf-sweep", resolve_config("mpf-sweep", {"n": "4", "bounds": "on"}))
    assert len(built) == 1
    assert all(row[4] is not None for row in doc.rows)


def test_trotter_sweep_shape():
    cfg = resolve_config("trotter-sweep", {
        "n": "4", "k_list": "1,2", "t_start": "0.5", "t_stop": "1.0", "t_count": "2",
    })
    doc, _ = run_scenario("trotter-sweep", cfg)
    assert len(doc.rows) == 4
    for row in doc.rows:
        assert row[3] >= row[2]  # bound dominates the measured error


def test_bound_eval_scenario():
    cfg = resolve_config("bound-eval", {
        "n": "4", "t_start": "0.5", "t_stop": "1.0", "t_count": "2",
    })
    doc, _ = run_scenario("bound-eval", cfg)
    assert doc.header[:7] == ["t", "formula_commutator_sum", "a1", "a2", "a3", "prefactor", "bound"]
    assert any(name.startswith("conj_comm_") for name in doc.header[7:])
    assert len(doc.rows) == 2
    assert doc.rows[1][6] > doc.rows[0][6]  # bound grows with t


def test_minimax_shootout_small(chain4):
    cfg = resolve_config("minimax-shootout", {
        "n": "4", "steps": "4,10,13,15,17", "t0": "0.5", "t_final": "0.7",
        "dt": "0.1", "k0": "13",
    })
    doc, traj = run_scenario("minimax-shootout", cfg)
    assert traj is None
    assert doc.header == ["t", "err_static_wc", "err_best_trotter",
                          "err_dynamic_exact", "err_minimax", "kappa_minimax"]
    assert len(doc.rows) == 3
    eps0 = resolve_config("minimax-shootout", {
        "n": "4", "steps": "4,10,13,15,17", "t0": "0.5", "t_final": "0.7",
        "dt": "0.1", "k0": "13", "eps": "0.0",
    })
    doc0, _ = run_scenario("minimax-shootout", eps0)
    assert len(doc0.rows) == 3


def test_shootout_validation():
    bad = resolve_config("minimax-shootout", {"steps": "4,10,13,15,17",
                                              "static_subset": "0,9"})
    with pytest.raises(ValueError):
        run_scenario("minimax-shootout", bad)


def test_fit_scaling_exact_recovery(rng):
    ns = np.array([4, 6, 8, 10, 4, 6, 8, 10], dtype=float)
    ts = np.array([1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0])
    vals = 0.37 * ns**2.0 * ts**5.5
    fit = fit_scaling(vals, n=ns, t=ts)
    assert abs(fit.prefactor - 0.37) < 1e-10
    assert abs(fit.exponents["n"] - 2.0) < 1e-10
    assert abs(fit.exponents["t"] - 5.5) < 1e-10
    assert fit.max_log10_residual < 1e-12
    pred = fit.predict(n=ns, t=ts)
    assert np.allclose(pred, vals)


def test_fit_scaling_degenerate():
    with pytest.raises(ValueError, match="degenerate"):
        fit_scaling([1.0, 2.0], n=[3.0, 3.0])
    with pytest.raises(ValueError):
        fit_scaling([1.0, -2.0], n=[3.0, 4.0])
    with pytest.raises(ValueError):
        fit_scaling([1.0, 2.0])


def test_trotter_fit_shape_recovery(chain6, chain10):
    """The 0.6 n t^3 / k^2 step-error law is recovered within a factor of 2
    when the constant is refit with the shape held fixed."""
    from conftest import ChainCase
    from mpf_lab import mixture_trace_norm, rho_k_state

    cases = [chain6, ChainCase(8), chain10]
    vals, axes = [], {"n": [], "t": [], "k": []}
    for case in cases:
        for t in (1.0, 1.5, 2.25):
            exact = case.oracle.evolve(case.psi, t)
            for k in (10, 16, 26):
                err = mixture_trace_norm(
                    [rho_k_state(case.pf, case.psi, t, k), exact], [1.0, -1.0])
                if 1e-3 < err < 0.3:
                    vals.append(err)
                    axes["n"].append(case.n)
                    axes["t"].append(t)
                    axes["k"].append(k)
    constants = [v * k**2 / (n * t**3)
                 for v, n, t, k in zip(vals, axes["n"], axes["t"], axes["k"])]
    refit = float(np.median(constants))
    assert 0.5 * 0.6 <= refit <= 2.0 * 0.6
    free = fit_scaling(np.asarray(vals), **{k: np.asarray(v, float) for k, v in axes.items()})
    assert abs(free.exponents["k"] + 2.0) < 0.3
