import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import pytest

from mpf_lab import bounds, cli, dynamic_mpf, experiments, formulas, static_mpf, statesim
from mpf_lab.cli import main
from mpf_lab.experiments import SCENARIOS


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_coeffs_stdout(capsys):
    code, out, err = run_cli(["solve-coeffs", "--set", "steps=4,13,17"], capsys)
    assert code == 0
    assert out.startswith("# mpf-lab schema v1")
    assert "2.778846153846e+00" in out


def test_unknown_key_is_config_error(capsys):
    code, _, err = run_cli(["solve-coeffs", "--set", "nope=1"], capsys)
    assert code == 2
    assert "unknown config key" in err


@pytest.mark.parametrize("scenario", ["tuple-search", "solve-coeffs"])
def test_seed_is_not_a_key_of_unseeded_scenarios(scenario, capsys):
    for args in (["--seed", "3"], ["--set", "seed=3"]):
        code, _, err = run_cli([scenario, *args], capsys)
        assert code == 2
        assert "unknown config key 'seed'" in err


@pytest.mark.parametrize("scenario", list(SCENARIOS))
def test_scenario_help_lists_each_key_with_default_and_help(scenario, capsys):
    with pytest.raises(SystemExit) as exc:
        main([scenario, "--help"])
    assert exc.value.code == 0
    lines = capsys.readouterr().out.splitlines()
    for key, opt in SCENARIOS[scenario].items():
        default = (",".join(map(str, opt.default)) if isinstance(opt.default, tuple)
                   else str(opt.default))
        line = next(line for line in lines if line.startswith(f"  {key} = "))
        assert line.split(None, 2)[2].startswith(default)
        assert line.endswith(opt.help)


def test_scenario_help_examples(capsys):
    with pytest.raises(SystemExit):
        main(["mpf-sweep", "--help"])
    assert re.search(r"^  bounds = auto +bound columns: on, off, or auto \(n <= 4\)$",
                     capsys.readouterr().out, re.M)
    with pytest.raises(SystemExit):
        main(["tuple-search", "--help"])
    assert re.search(r"^  r = 0 +tuple length; 0 means p \+ 1$", capsys.readouterr().out, re.M)


def test_bad_value_is_config_error(capsys):
    code, _, err = run_cli(["mpf-sweep", "--set", "t_scale=banana",
                            "--set", "n=4", "--set", "bounds=off"], capsys)
    assert code == 2


@pytest.mark.parametrize("override, message", [("r=-1", "r must be >= 0"),
                                               ("limit=0", "limit must be >= 1"),
                                               ("limit=-3", "limit must be >= 1"),
                                               ("kappa_cap=-2", "kappa_cap must be >= 0")])
def test_tuple_search_refuses_out_of_range_values_before_the_search(override, message,
                                                                     capsys, monkeypatch):
    monkeypatch.setattr(experiments, "search_steps", lambda *a, **k: pytest.fail("search ran"))
    code, out, err = run_cli(["tuple-search", "--set", override], capsys)
    assert code == 2
    assert message in err
    assert out == ""


@pytest.mark.parametrize("overrides", [("p=0", "r=2"), ("p=-2", "r=3")])
def test_tuple_search_refuses_an_order_below_one_before_any_tuple(overrides, capsys,
                                                                  monkeypatch):
    monkeypatch.setattr(static_mpf, "_float_keys", lambda *a: pytest.fail("tuple ranked"))
    code, out, err = run_cli(["tuple-search", *(x for o in overrides for x in ("--set", o))],
                             capsys)
    assert code == 2
    assert err == "error: order p must be >= 1\n"
    assert out == ""


def test_tuple_search_refuses_too_many_tuples_before_any_tuple(capsys, monkeypatch):
    # C(40, 20) = 1.38e11 tuples.
    monkeypatch.setattr(static_mpf, "_float_keys", lambda *a: pytest.fail("tuple ranked"))
    code, out, err = run_cli(["tuple-search", "--set", "k_max=40", "--set", "r=20"], capsys)
    assert code == 3
    assert err == ("resource limit: tuple search capped at 20000000 tuples, "
                   "k_max=40 with r=20 gives 137846528820\n")
    assert out == ""


def test_tuple_search_keeps_its_zero_sentinels(capsys):
    # r = 0 means p + 1 and kappa_cap = 0 means no cap, as by default.
    code, out, _ = run_cli(["tuple-search", "--set", "r=0", "--set", "kappa_cap=0",
                            "--set", "limit=1"], capsys)
    assert code == 0
    assert out == run_cli(["tuple-search", "--set", "limit=1"], capsys)[1]


def test_malformed_override(capsys):
    code, _, err = run_cli(["solve-coeffs", "--set", "oops"], capsys)
    assert code == 2


def test_threads_flag_is_refused(capsys):
    # Sweeps run serially; an old --threads argument fails loudly.
    with pytest.raises(SystemExit) as exc:
        main(["mpf-sweep", "--threads", "2"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


def test_resource_cap_exit_code(capsys):
    # the mixture bound caps dense evaluation at 8 qubits
    code, _, err = run_cli(["bound-eval", "--set", "n=9", "--set", "t_count=1"], capsys)
    assert code == 3
    assert "resource" in err.lower() or "capped" in err.lower()


@pytest.mark.parametrize("n", [9, 12])
def test_mixture_bound_cap_refused_before_the_sweep(n, capsys, monkeypatch):
    # The evaluator is built right after the formula, and its window layer
    # refuses n > 8 before any bound or state work.
    monkeypatch.setattr(experiments, "_Walk", lambda *a: pytest.fail("walk built"))
    for name in ("_compositions", "invariant_blocks", "formula_commutator_sum"):
        monkeypatch.setattr(bounds, name, lambda *a, name=name: pytest.fail(f"{name} ran"))
    code, out, err = run_cli(["mpf-sweep", "--set", f"n={n}", "--set", "bounds=on",
                              "--set", "t_count=1"], capsys)
    assert code == 3
    assert err == "resource limit: window aggregates capped at n=8\n"
    assert out == ""


@pytest.mark.parametrize("args, message", [
    (["trotter-sweep", "--set", "k_list=1", "--set", "t_start=-1", "--set", "t_stop=1",
      "--set", "t_count=3"], "t_start must be >= 0"),
    (["mpf-sweep", "--set", "bounds=on", "--set", "t_start=-3", "--set", "t_stop=-0.5"],
     "t_start must be >= 0"),
    (["bound-eval", "--set", "t_count=2", "--set", "t_start=-1", "--set", "t_stop=1"],
     "t_start must be >= 0"),
    (["trotter-sweep", "--set", "t_scale=log", "--set", "t_stop=-1"], "t_stop must be >= 0"),
    (["trotter-sweep", "--set", "t_scale=log", "--set", "t_stop=0"],
     "log grids need t_stop > 0"),
])
def test_grid_times_refused_before_any_formula_is_built(args, message, capsys, monkeypatch):
    monkeypatch.setattr(experiments, "_build_formula", lambda *a: pytest.fail("formula built"))
    code, out, err = run_cli([*args, "--set", "n=4"], capsys)
    assert code == 2
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert out == ""


@pytest.mark.parametrize("args, message", [
    (["trotter-sweep", "--set", "k_list="], "k_list must hold at least one step count"),
    (["minimax-shootout", "--set", "static_subset="],
     "static_subset must hold at least one index"),
])
def test_empty_tuple_refused_before_any_formula_is_built(args, message, capsys, monkeypatch):
    # An empty k_list would print a header and no rows after the commutator
    # sum; an empty static subset would fail later on a key it does not name.
    monkeypatch.setattr(experiments, "_build_formula", lambda *a: pytest.fail("formula built"))
    code, out, err = run_cli([*args, "--set", "n=4"], capsys)
    assert code == 2
    assert err == f"error: {message}\n"
    assert out == ""


@pytest.mark.parametrize("scenario", ["trotter-sweep", "bound-eval"])
def test_overflow_exits_as_a_numerical_failure(scenario, capsys):
    # t^(p+1) at t = 1e300 overflows a float: exit 4 with one line, no traceback.
    code, out, err = run_cli([scenario, "--set", "n=4", "--set", "t_start=1e300",
                              "--set", "t_stop=1e300", "--set", "t_count=1"], capsys)
    assert code == 4
    assert err.startswith("numerical failure: OverflowError") and err.count("\n") == 1
    assert out == ""


@pytest.mark.parametrize("scenario", ["trotter-sweep", "mpf-sweep"])
def test_overflowing_grid_time_is_refused_before_any_state(scenario, capsys, monkeypatch):
    # Only the last grid time overflows; its bound and fit columns are
    # evaluated first, so no Trotter state and no exact state is computed:
    # the walk's kernel batches and Chebyshev vectors are never made.
    calls = []
    batch, vectors = formulas.ProductFormula._apply_on, statesim._ChebyshevBlock.vectors
    monkeypatch.setattr(formulas.ProductFormula, "_apply_on",
                        lambda *a: calls.append("batch") or batch(*a))
    monkeypatch.setattr(statesim._ChebyshevBlock, "vectors",
                        lambda *a: calls.append("exact") or vectors(*a))
    code, out, err = run_cli([scenario, "--set", "n=4", "--set", "t_start=1",
                              "--set", "t_stop=1e300", "--set", "t_count=3"], capsys)
    assert code == 4
    assert err.startswith("numerical failure: OverflowError") and err.count("\n") == 1
    assert out == ""
    assert calls == []
    # A valid run goes through both wrapped functions, so an empty record
    # above means that the check came first.
    code, _, _ = run_cli([scenario, "--set", "n=4", "--set", "t_count=2"], capsys)
    assert code == 0
    assert {"batch", "exact"} <= set(calls)


@pytest.mark.parametrize("args, made", [
    (["trotter-sweep", "--set", "n=4"], {"batch", "apply"}),
    (["minimax-shootout", "--set", "n=4", "--set", "t_final=2", "--set", "dt=0.25"],
     {"batch", "apply", "step"}),
])
def test_overlong_series_is_refused_before_any_state(args, made, capsys, monkeypatch):
    # The n=4 Neel sector has 6 states, and a series of K terms holds 6 K
    # amplitudes: 228 at t = 1.5 and 264 at t = 2.  A cap of 250 refuses
    # only the grid's last times; each batch holds one grid point.
    calls = []
    batch, step = formulas.ProductFormula._apply_on, dynamic_mpf.minimax_step
    apply = statesim.FragmentEvolver._apply_in_place
    monkeypatch.setattr(formulas.ProductFormula, "_apply_on",
                        lambda *a: calls.append("batch") or batch(*a))
    monkeypatch.setattr(dynamic_mpf, "minimax_step", lambda *a: calls.append("step") or step(*a))
    monkeypatch.setattr(statesim.FragmentEvolver, "_apply_in_place",
                        lambda *a: calls.append("apply") or apply(*a))
    monkeypatch.setattr(formulas, "_KERNEL_AMPLITUDES", 1)
    with monkeypatch.context() as capped:
        capped.setattr(statesim, "_SERIES_MAX", 250)
        code, out, err = run_cli(args, capsys)
    assert code == 3
    assert err.startswith("resource limit: a Chebyshev series of ") and err.count("\n") == 1
    assert out == ""
    assert calls == []
    # A valid run goes through every wrapped function it uses, so an empty
    # record above means that the check came first.
    code, _, _ = run_cli(args, capsys)
    assert code == 0
    assert made <= set(calls)


def test_mpf_sweep_checks_the_grid_before_the_window_cap(capsys, monkeypatch):
    # n=9 is above the window cap, but the negative time is a config error.
    monkeypatch.setattr(experiments, "_build_formula", lambda *a: pytest.fail("formula built"))
    code, out, err = run_cli(["mpf-sweep", "--set", "n=9", "--set", "bounds=on",
                              "--set", "t_start=-1"], capsys)
    assert code == 2
    assert err == "error: t_start must be >= 0, got -1.0\n"
    assert out == ""


def test_shootout_builds_the_push_on_a_padded_sector(capsys):
    # At n=9 the 126-state Neel sector is padded to 128 for the block
    # products, and the push is built on it.
    code, out, err = run_cli(["minimax-shootout", "--set", "n=9", "--set", "dt=0.25"], capsys)
    assert code == 0
    assert err == ""
    assert out.startswith("# mpf-lab schema v1")


@pytest.mark.parametrize("message, shown", [
    ("Unable to allocate 74.5 GiB for an array with shape (10000000000,) and data type float64",
     "Unable to allocate 74.5 GiB"),
    ("", "out of memory"),
])
def test_memory_error_is_a_resource_limit(message, shown, capsys, monkeypatch):
    # A grid too large to allocate exits 3 with one line, not a traceback;
    # the run is replaced, so the test allocates nothing.
    def refused(*a):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "run_scenario", refused)
    code, out, err = run_cli(["trotter-sweep", "--set", "t_count=10000000000"], capsys)
    assert code == 3
    assert err.startswith(f"resource limit: {shown}") and err.count("\n") == 1
    assert out == ""


@pytest.mark.parametrize("args, points", [
    (["trotter-sweep", "--set", f"t_count={dynamic_mpf.GRID_POINT_CAP + 1}"],
     dynamic_mpf.GRID_POINT_CAP + 1),
    (["minimax-shootout", "--set", "n=4", "--set", "t0=0", "--set", "dt=1e-9"], 4_500_000_001),
])
def test_time_grid_cap_refused_before_the_grid_is_made(args, points, capsys):
    # Both grids are refused by the point cap, not by the allocator, with
    # less memory traced over the whole run than the grid would take.
    tracemalloc.start()
    try:
        code, out, err = run_cli(args, capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert err == (f"resource limit: a time grid of {points} points exceeds the cap of "
                   f"{dynamic_mpf.GRID_POINT_CAP} points\n")
    assert out == ""
    assert peak < 8 * points


def test_shootout_does_not_import_numpy_ma(tmp_path: Path):
    # A plain np.unique imports numpy.ma, once per process.
    script = ("import sys\nfrom mpf_lab import cli\n"
              "code = cli.main(['minimax-shootout', '--set', 'n=6', '--set', 'dt=0.25',"
              " '--out', 'out.csv'])\n"
              "print(code, 'numpy.ma' in sys.modules)\n")
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, capture_output=True,
                            env=dict(os.environ, PYTHONPATH=str(src)), text=True, check=True)
    assert result.stdout == "0 False\n"


def test_exact_evolution_cap_exit_code(capsys):
    code, _, err = run_cli(["trotter-sweep", "--set", "n=13", "--set", "t_count=1"], capsys)
    assert code == 3
    assert "capped" in err


@pytest.mark.parametrize("override, message", [
    pytest.param("k0=0", "step count k0 must be an integer >= 1", id="k0=0-k0 must be >= 1"),
    ("eps=-1", "noise magnitude must be >= 0")])
def test_shootout_refuses_k0_and_eps_before_any_evolution(override, message, capsys,
                                                           monkeypatch):
    calls = []
    batch, operator = formulas.ProductFormula._apply_on, statesim._ChebyshevBlock.__init__
    monkeypatch.setattr(formulas.ProductFormula, "_apply_on",
                        lambda *a: calls.append("batch") or batch(*a))
    monkeypatch.setattr(statesim._ChebyshevBlock, "__init__",
                        lambda *a: calls.append("operator") or operator(*a))
    code, _, err = run_cli(["minimax-shootout", "--set", override], capsys)
    assert code == 2
    assert message in err
    assert calls == []
    # A valid run goes through both wrapped functions, so an empty record
    # above means that the checks came first.
    code, _, _ = run_cli(["minimax-shootout", "--set", "n=4", "--set", "t_final=1.2"], capsys)
    assert code == 0
    assert {"batch", "operator"} <= set(calls)


@pytest.mark.parametrize("args, code, message", [
    (["--set", "n=13"], 3,
     "resource limit: exact operator work is capped at n=12 qubits; got n=13\n"),
    (["--set", "n=6", "--set", "dt=0.25", "--set", "steps=0,20,26,30,34",
      "--set", "static_subset=1,2,4"], 2, "error: step count k must be an integer >= 1\n"),
], ids=["qubit_cap", "zero_step_count"])
def test_shootout_refuses_the_qubit_cap_and_step_counts_before_any_search(
        args, code, message, capsys, monkeypatch):
    # The walk checks both first: no block search, no H on a subspace, no
    # Chebyshev vector, no kernel batch and no warning.
    calls = []
    hooks = [(formulas, "_partition"), (statesim._ChebyshevBlock, "__init__"),
             (statesim._ChebyshevBlock, "vectors"), (formulas.ProductFormula, "_apply_on")]
    for owner, name in hooks:
        monkeypatch.setattr(owner, name, lambda *a, name=name, f=getattr(owner, name):
                            calls.append(name) or f(*a))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = run_cli(["minimax-shootout", *args], capsys)
    assert result == (code, "", message)
    assert calls == [] and caught == []
    # A valid run goes through every wrapped function, so an empty record
    # above means that the checks came first.
    assert run_cli(["minimax-shootout", "--set", "n=4", "--set", "t_final=1.2"], capsys)[0] == 0
    assert set(calls) == {name for _, name in hooks}


@pytest.mark.parametrize("args, key", [
    (["minimax-shootout", "--set", "t_final=inf"], "t_final"),
    (["trotter-sweep", "--set", "t_stop=nan", "--set", "t_count=2"], "t_stop"),
    (["minimax-shootout", "--set", "eps=nan"], "eps"),
    (["minimax-shootout", "--set", "dt=nan"], "dt"),
    (["mpf-sweep", "--set", "t_start=inf"], "t_start"),
])
def test_non_finite_config_value_refused_before_the_run(args, key, capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_scenario", lambda *a: pytest.fail("scenario ran"))
    code, out, err = run_cli(args, capsys)
    assert code == 2
    assert err.startswith(f"error: config key '{key}' must be finite")
    assert out == ""


@pytest.mark.parametrize("args", [
    ["solve-coeffs", "--out", "/nonexistent/dir/x.csv"],
    ["minimax-shootout", "--set", "trajectory_out=/nonexistent/t.csv"],
])
def test_unwritable_output_refused_before_the_run(args, capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_scenario", lambda *a: pytest.fail("scenario ran"))
    code, out, err = run_cli(args, capsys)
    assert code == 2
    assert err.startswith("error:") and "/nonexistent/" in err
    assert out == ""


def test_trajectory_to_the_main_output_refused_before_the_run(tmp_path: Path, capsys,
                                                             monkeypatch):
    monkeypatch.setattr(cli, "run_scenario", lambda *a: pytest.fail("scenario ran"))
    monkeypatch.chdir(tmp_path)
    for out, traj in (("x.csv", "x.csv"), ("x.csv", str(tmp_path / "x.csv")),
                      (str(tmp_path / "x.csv"), "./sub/../x.csv")):
        code, stdout, err = run_cli(["minimax-shootout", "--out", out,
                                     "--set", f"trajectory_out={traj}"], capsys)
        assert code == 2
        assert err.startswith("error: --out and trajectory_out name the same file")
        assert stdout == "" and not (tmp_path / "x.csv").exists()


def test_output_check_leaves_files_as_they_were(tmp_path: Path, capsys, monkeypatch):
    kept, fresh = tmp_path / "kept.csv", tmp_path / "fresh.csv"
    kept.write_text("old\n")
    calls = []

    def failing_run(*args):
        calls.append(args)
        raise ValueError("the run failed")

    monkeypatch.setattr(cli, "run_scenario", failing_run)
    for path in (kept, fresh):
        code, _, err = run_cli(["solve-coeffs", "--out", str(path)], capsys)
        assert code == 2 and "the run failed" in err
    assert len(calls) == 2
    assert kept.read_text() == "old\n" and not fresh.exists()


def test_missing_config_file(capsys):
    code, _, err = run_cli(["solve-coeffs", "--config", "/nonexistent/x.cfg"], capsys)
    assert code == 2


def test_config_file_and_out(tmp_path: Path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# demo\np = 2\nsteps = 8,26,34\neven_powers = true\n")
    out = tmp_path / "result.csv"
    code, _, _ = run_cli(["solve-coeffs", "--config", str(cfg), "--out", str(out)], capsys)
    assert code == 0
    text = out.read_text()
    assert "# even_powers = True" in text
    assert "6.128947305418e-03" in text


def test_seed_flag_overrides(tmp_path: Path, capsys):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    base = ["mpf-sweep", "--set", "n=4", "--set", "t_count=2", "--set", "bounds=off"]
    assert main(base + ["--seed", "1", "--out", str(out1)]) == 0
    assert main(base + ["--seed", "2", "--out", str(out2)]) == 0
    capsys.readouterr()
    t1, t2 = out1.read_text(), out2.read_text()
    assert "# seed = 1" in t1 and "# seed = 2" in t2
    assert t1 != t2


def test_trajectory_output(tmp_path: Path, capsys):
    traj = tmp_path / "traj.csv"
    code, out, _ = run_cli([
        "minimax-shootout", "--set", "n=4", "--set", "steps=4,10,13,15,17",
        "--set", "t0=0.5", "--set", "t_final=0.6", "--set", "dt=0.1",
        "--set", "k0=13", "--set", f"trajectory_out={traj}",
    ], capsys)
    assert code == 0
    text = traj.read_text()
    header = text.splitlines()[len(text.splitlines()) - 3]
    assert header == ",".join(["t", "c_1", "c_2", "c_3", "c_4", "c_5",
                               "frobenius_error_exactdata", "frobenius_error_estimate",
                               "l1_condition", "objective"])
    assert "nan" not in text.splitlines()[-1]


def test_byte_identical_reruns(tmp_path: Path, capsys):
    """Identical config and seed produce byte-identical CSV files."""
    args = ["minimax-shootout", "--set", "n=4", "--set", "steps=4,10,13,15,17",
            "--set", "t0=0.5", "--set", "t_final=0.8", "--set", "dt=0.1",
            "--set", "k0=13", "--seed", "77"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_custom_hamiltonian_file(tmp_path: Path, capsys):
    ham = tmp_path / "custom.txt"
    ham.write_text("# XX chain piece\n1.0 XXI\n1.0 IXX\n0.5 ZII\n")
    code, out, _ = run_cli([
        "trotter-sweep", "--set", "n=3", "--set", f"hamiltonian={ham}",
        "--set", "k_list=1,2", "--set", "t_count=2", "--set", "t_stop=1.0",
    ], capsys)
    assert code == 0
    rows = [ln for ln in out.splitlines() if ln and not ln.startswith("#")]
    assert len(rows) == 5  # header + 4 rows
    code2, _, err = run_cli([
        "trotter-sweep", "--set", "n=4", "--set", f"hamiltonian={ham}",
    ], capsys)
    assert code2 == 2
