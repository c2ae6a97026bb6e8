"""Experiment harness: scenario configuration and seeded runs emitting CSV.

Every scenario resolves a flat key=value configuration (defaults, then config
file, then command-line overrides), runs deterministically for a fixed
(config, seed) pair, and emits one CSV document whose header comments record
the schema version and the fully resolved configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import dynamic_mpf as dmp
from .bounds import (MixtureBoundEvaluator, formula_commutator_sum, mixture_bound_refusal,
                     product_formula_error_bound)
from .formulas import _step_count, _Walk, fragment_by_commuting_groups, second_order, suzuki
from .heisenberg import build_heisenberg_chain, fragment_decomposition_s2
from .pauli import parse_op
from .statesim import mixture_frobenius_sq, mixture_trace_norm, neel_state
from .static_mpf import rank_of_tuple, search_steps, solve_coefficients

SCHEMA_LINE = "# mpf-lab schema v1"


# -- configuration ------------------------------------------------------------

@dataclass(frozen=True)
class Option:
    default: object    # its type is the key's type; a tuple holds integers
    help: str = ""


_GRID = {
    "t_start": Option(0.5, "first grid time"),
    "t_stop": Option(3.0, "last grid time"),
    "t_count": Option(6, "number of grid times"),
    "t_scale": Option("linear", "linear or log spacing"),
}

SCENARIOS: dict[str, dict[str, Option]] = {
    "trotter-sweep": {
        "n": Option(6), "seed": Option(2024), "p": Option(2),
        "k_list": Option((1, 2, 4, 8, 16), "step counts to sweep"),
        "hamiltonian": Option("", "text file with a custom operator"),
        **_GRID,
    },
    "mpf-sweep": {
        "n": Option(6), "seed": Option(2024), "p": Option(2),
        "steps": Option((4, 13, 17), "step tuple"),
        "even_powers": Option(False, "even-only cancellation powers"),
        "bounds": Option("auto", "bound columns: on, off, or auto (n <= 4)"),
        "hamiltonian": Option("", "text file with a custom operator"),
        **_GRID,
    },
    "tuple-search": {
        "p": Option(2),
        "k_max": Option(25, "largest admissible step count"),
        "r": Option(0, "tuple length; 0 means p + 1"),
        "even_powers": Option(False),
        "kappa_cap": Option(0.0, "drop tuples above this 1-norm; 0 disables"),
        "limit": Option(25, "ranked tuples to emit"),
        "reference": Option((), "tuple to locate in the ranking"),
    },
    "bound-eval": {
        "n": Option(4), "seed": Option(2024), "p": Option(2),
        "steps": Option((4, 13, 17)),
        "sampler_seed": Option(2024, "no effect"),
        **_GRID,
    },
    "minimax-shootout": {
        "n": Option(10), "seed": Option(2024),
        "steps": Option((8, 20, 26, 30, 34)),
        "static_subset": Option((0, 2, 4), "indices of the static comparator"),
        "t0": Option(1.0), "t_final": Option(4.5),
        "dt": Option(0.05), "eps": Option(0.01),
        "k0": Option(26, "steps used to push the mixture forward by dt"),
        "even_powers": Option(True, "power convention for the static seed"),
        "trajectory_out": Option("", "optional second CSV with the full trajectory"),
    },
    "solve-coeffs": {
        "p": Option(2),
        "steps": Option((4, 13, 17)),
        "even_powers": Option(False),
    },
}


def parse_config_text(text: str) -> dict[str, str]:
    """Parse the flat ``key = value`` format; '#' starts a comment line."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


def _coerce(default, raw: str):
    """Read a string value as the type of the key's default."""
    if isinstance(default, bool):
        low = raw.strip().lower()
        if low in ("true", "1", "yes", "on"):
            return True
        if low in ("false", "0", "no", "off"):
            return False
        raise ValueError(f"not a boolean: {raw!r}")
    if isinstance(default, tuple):
        return tuple(int(tok) for tok in raw.replace(";", ",").split(",") if tok.strip())
    return type(default)(raw)


def resolve_config(scenario: str, *sources: dict[str, str]) -> dict:
    """Layer defaults and string-valued sources into a typed config dict;
    a float value must be finite."""
    if scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}")
    schema = SCENARIOS[scenario]
    cfg = {key: opt.default for key, opt in schema.items()}
    for src in sources:
        for key, raw in src.items():
            if key not in schema:
                raise ValueError(f"unknown config key {key!r} for scenario {scenario}")
            value = _coerce(schema[key].default, raw) if isinstance(raw, str) else raw
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"config key {key!r} must be finite, got {raw!r}")
            cfg[key] = value
    return cfg


def time_grid(cfg: dict) -> np.ndarray:
    """A sweep's times: every bound grows as a power of t, so each is >= 0."""
    count = cfg["t_count"]
    if count < 1:
        raise ValueError("t_count must be >= 1")
    dmp._check_grid(count)
    for key in ("t_start", "t_stop"):
        if cfg[key] < 0:
            raise ValueError(f"{key} must be >= 0, got {cfg[key]}")
    if cfg["t_scale"] == "linear":
        return np.linspace(cfg["t_start"], cfg["t_stop"], count)
    if cfg["t_scale"] == "log":
        for key in ("t_start", "t_stop"):
            if cfg[key] == 0:
                raise ValueError(f"log grids need {key} > 0")
        return np.geomspace(cfg["t_start"], cfg["t_stop"], count)
    raise ValueError(f"unknown t_scale {cfg['t_scale']!r}")


# -- CSV document --------------------------------------------------------------

@dataclass
class CsvDoc:
    comments: list[str]
    header: list[str]
    rows: list[list]

    def text(self) -> str:
        lines = [SCHEMA_LINE]
        lines.extend(f"# {c}" for c in self.comments)
        lines.append(",".join(self.header))
        for row in self.rows:
            lines.append(",".join(_fmt(v) for v in row))
        return "\n".join(lines) + "\n"


def _fmt(value) -> str:
    if value is None:
        return "nan"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".12e")
    return str(value)


def _show(value) -> str:
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


def _config_comments(scenario: str, cfg: dict) -> list[str]:
    return [f"scenario = {scenario}", *(f"{key} = {_show(cfg[key])}" for key in sorted(cfg))]


def config_help(scenario: str) -> str:
    """One line per config key of a scenario: its default and its help."""
    schema = SCENARIOS[scenario]
    settings = {key: f"{key} = {_show(opt.default)}" for key, opt in schema.items()}
    width = max(map(len, settings.values()))
    lines = ["config keys, with defaults (set with --set KEY=VALUE or a --config file):"]
    lines += [f"  {settings[key]:<{width}}  {opt.help}".rstrip() for key, opt in schema.items()]
    return "\n".join(lines)


# -- scenarios --------------------------------------------------------------------

def _build_formula(n: int, seed: int, p: int, hamiltonian_path: str = ""):
    if p not in (2, 4):
        raise ValueError("supported formula orders are 2 and 4")
    if hamiltonian_path:
        op = parse_op(Path(hamiltonian_path).read_text())
        if op.n != n:
            raise ValueError(
                f"custom operator acts on {op.n} qubits but the config says n={n}"
            )
        frags = fragment_by_commuting_groups(op)
    else:
        _, fields = build_heisenberg_chain(n, seed)
        frags = fragment_decomposition_s2(n, fields)
    pf = second_order(frags)
    return suzuki(pf, 4) if p == 4 else pf


def _trotter_fit(p: int, n: int, t: float, k: int) -> float:
    if p == 2:
        return 0.6 * n * t**3 / k**2
    return 0.04 * n * t**5 / k**4


def _mpf_fit(p: int, n: int, t: float, objective: float) -> float:
    if p == 2:
        return 0.06 * n * n * t**6 * objective
    return 0.00014 * n * n * t**10 * objective


def _run_trotter_sweep(cfg: dict) -> CsvDoc:
    if not cfg["k_list"]:
        raise ValueError("k_list must hold at least one step count")
    for k in cfg["k_list"]:
        _step_count(k, "in k_list")
    grid = time_grid(cfg)
    pf = _build_formula(cfg["n"], cfg["seed"], cfg["p"], cfg["hamiltonian"])
    commutator_sum = formula_commutator_sum(pf)
    # Every time's bound and fit first: a time that overflows is refused
    # before the walk makes any state.
    tails = [[[product_formula_error_bound(pf, t, k, commutator_sum=commutator_sum),
               _trotter_fit(cfg["p"], cfg["n"], t, k)] for k in cfg["k_list"]]
             for t in map(float, grid)]
    walk = _Walk(pf, neel_state(pf.n), grid, cfg["k_list"])
    rows = [[t, k, mixture_trace_norm([state, exact], [1.0, -1.0]), *tail]
            for t, (states, exact), columns in zip(map(float, grid), walk, tails)
            for k, state, tail in zip(cfg["k_list"], states, columns)]
    header = ["t", "k", "trotter_error", "trotter_bound", "fit_value"]
    return CsvDoc(_config_comments("trotter-sweep", cfg), header, rows)


def _run_mpf_sweep(cfg: dict) -> CsvDoc:
    mode = cfg["bounds"]
    if mode not in ("on", "off", "auto"):
        raise ValueError("bounds must be on, off, or auto")
    grid = time_grid(cfg)
    scheme = solve_coefficients(cfg["p"], cfg["steps"], cfg["even_powers"])
    refusal = mixture_bound_refusal(scheme)
    if mode == "on" and refusal:
        raise ValueError(refusal)
    with_bound = refusal is None and (mode == "on" or mode == "auto" and cfg["n"] <= 4)
    pf = _build_formula(cfg["n"], cfg["seed"], cfg["p"], cfg["hamiltonian"])
    evaluator = MixtureBoundEvaluator(scheme, pf) if with_bound else None
    commutator_sum = evaluator.commutator_sum if with_bound else formula_commutator_sum(pf)
    k_best = max(scheme.steps)
    # As in the Trotter sweep, every time's columns come before any state.
    tails = [[product_formula_error_bound(pf, t, k_best, commutator_sum=commutator_sum),
              evaluator.at(t) if with_bound else None,
              _mpf_fit(cfg["p"], cfg["n"], t, scheme.objective)] for t in map(float, grid)]
    walk = _Walk(pf, neel_state(pf.n), grid, scheme.steps)
    weights = [*scheme.coefficients, -1.0]
    rows = [[t, mixture_trace_norm([states[-1], exact], [1.0, -1.0]),
             mixture_trace_norm([*states, exact], weights), *tail]
            for t, (states, exact), tail in zip(map(float, grid), walk, tails)]
    header = ["t", "trotter_error_best_k", "mpf_error", "trotter_bound", "mpf_bound", "fit_value"]
    return CsvDoc(_config_comments("mpf-sweep", cfg), header, rows)


_SCHEME_HEADER = ["p", "steps", "coefficients", "kappa", "objective", "condition"]


def _scheme_row(sch) -> list:
    return [sch.order, ";".join(map(str, sch.steps)),
            ";".join(format(c, ".12e") for c in sch.coefficients),
            sch.kappa, sch.objective, sch.system_condition]


def _run_solve_coeffs(cfg: dict) -> CsvDoc:
    sch = solve_coefficients(cfg["p"], cfg["steps"], cfg["even_powers"])
    return CsvDoc(_config_comments("solve-coeffs", cfg), _SCHEME_HEADER, [_scheme_row(sch)])


def _run_tuple_search(cfg: dict) -> CsvDoc:
    for key, least in (("r", 0), ("kappa_cap", 0), ("limit", 1)):
        if cfg[key] < least:
            raise ValueError(f"{key} must be >= {least}, got {cfg[key]}")
    r = cfg["r"] or cfg["p"] + 1
    cap = cfg["kappa_cap"] or None
    ref = (solve_coefficients(cfg["p"], cfg["reference"], cfg["even_powers"])
           if cfg["reference"] else None)
    ranked = search_steps(cfg["p"], cfg["k_max"], r, even_powers=cfg["even_powers"],
                          kappa_cap=cap, limit=cfg["limit"])
    comments = _config_comments("tuple-search", cfg)
    if ref is not None:
        pos = rank_of_tuple(ranked, cfg["reference"])
        comments.append(f"reference_rank = {'unranked' if pos is None else pos}")
        comments.append(f"best_tuple = {','.join(map(str, ranked[0].steps))}")
        comments.append(
            f"reference_objective_ratio = {format(ref.objective / ranked[0].objective, '.6e')}"
        )
    rows = [[i, *_scheme_row(sch)] for i, sch in enumerate(ranked)]
    return CsvDoc(comments, ["rank", *_SCHEME_HEADER], rows)


def _run_bound_eval(cfg: dict) -> CsvDoc:
    grid = time_grid(cfg)
    scheme = solve_coefficients(cfg["p"], cfg["steps"])
    evaluator = MixtureBoundEvaluator(scheme, _build_formula(cfg["n"], cfg["seed"], cfg["p"]))
    aggregate_names = sorted(evaluator.aggregates)
    header = ["t", "formula_commutator_sum", "a1", "a2", "a3", "prefactor", "bound", *aggregate_names]
    fixed = [evaluator.commutator_sum, evaluator.a1, evaluator.a2, evaluator.a3, scheme.objective]
    windows = [evaluator.aggregates[name] for name in aggregate_names]
    rows = [[t, *fixed, evaluator.at(t), *windows] for t in map(float, grid)]
    return CsvDoc(_config_comments("bound-eval", cfg), header, rows)


def _run_minimax_shootout(cfg: dict) -> tuple[CsvDoc, CsvDoc | None]:
    steps = cfg["steps"]
    if any(b <= a for a, b in zip(steps, steps[1:])):
        raise ValueError("steps must be strictly increasing")
    subset = cfg["static_subset"]
    if not subset:
        raise ValueError("static_subset must hold at least one index")
    if any(i < 0 or i >= len(steps) for i in subset):
        raise ValueError("static_subset indexes outside the step tuple")
    if any(b <= a for a, b in zip(subset, subset[1:])):
        raise ValueError("static_subset must be strictly increasing")
    pf = _build_formula(cfg["n"], cfg["seed"], 2)
    psi = neel_state(cfg["n"])
    sub_scheme = solve_coefficients(2, tuple(steps[i] for i in subset), cfg["even_powers"])
    ids = list(subset)
    c0 = np.zeros(len(steps))
    c0[ids] = sub_scheme.coefficients
    run = dmp.minimax_run(pf, psi, steps, t0=cfg["t0"], t_final=cfg["t_final"],
                          dt=cfg["dt"], eps=cfg["eps"], k0=cfg["k0"], c0=c0,
                          seed=cfg["seed"])
    c_sub = np.asarray(sub_scheme.coefficients)
    rows = []
    for j, t in enumerate(run.times):
        m_x, l_x = run.m_exact[j], run.l_exact[j]
        static_err = math.sqrt(max(
            mixture_frobenius_sq(m_x[np.ix_(ids, ids)], c_sub, l_x[ids]), 0.0))
        trotter_err = math.sqrt(max(2.0 - 2.0 * l_x[-1], 0.0))
        rows.append([float(t), static_err, trotter_err,
                     float(run.error_star[j]), float(run.error_hat[j]),
                     float(run.kappa_hat[j])])
    doc = CsvDoc(
        _config_comments("minimax-shootout", cfg),
        ["t", "err_static_wc", "err_best_trotter", "err_dynamic_exact",
         "err_minimax", "kappa_minimax"],
        rows,
    )
    traj = _trajectory_doc(cfg, run) if cfg["trajectory_out"] else None
    return doc, traj


def _trajectory_doc(cfg: dict, run: dmp.MinimaxRun) -> CsvDoc:
    r = run.c_hat.shape[1]
    header = (["t"] + [f"c_{i + 1}" for i in range(r)]
              + ["frobenius_error_exactdata", "frobenius_error_estimate",
                 "l1_condition", "objective"])
    rows = []
    for j, t in enumerate(run.times):
        est = None if j == 0 else math.sqrt(max(mixture_frobenius_sq(
            run.m_bars[j], run.c_hat[j], run.a_bars[j] @ run.c_hat[j - 1]), 0.0))
        rows.append([float(t), *[float(v) for v in run.c_hat[j]],
                     float(run.error_hat[j]), est, float(run.kappa_hat[j]),
                     float(run.objective[j])])
    return CsvDoc(_config_comments("minimax-shootout", cfg), header, rows)


def run_scenario(scenario: str, cfg: dict):
    """Run one scenario; returns (CsvDoc, optional trajectory CsvDoc)."""
    if scenario == "minimax-shootout":
        return _run_minimax_shootout(cfg)
    runners = {"trotter-sweep": _run_trotter_sweep, "mpf-sweep": _run_mpf_sweep,
               "solve-coeffs": _run_solve_coeffs, "tuple-search": _run_tuple_search,
               "bound-eval": _run_bound_eval}
    if scenario not in runners:
        raise ValueError(f"unknown scenario {scenario!r}")
    return runners[scenario](cfg), None
