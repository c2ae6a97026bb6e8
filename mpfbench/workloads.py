"""Benchmark workloads: the CLI arguments each one runs and the checks its
output must pass.

Every workload is one ``mpf-lab`` scenario at a fixed configuration, and
the benchmark seed becomes its CLI seed.  The checks use only the CSV text
and the package's public API, and they run outside the timed region.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

SCHEMA_LINE = "# mpf-lab schema v1"

EPS = 2.0**-52  # double-precision machine epsilon



@dataclass
class CsvDoc:
    """A parsed scenario CSV: resolved-config comments, header, float rows."""

    config: dict[str, str]
    header: list[str]
    rows: list[list[float]]

    def column(self, name: str) -> list[float]:
        pos = self.header.index(name)
        return [row[pos] for row in self.rows]


def parse_csv(text: str) -> CsvDoc:
    """Parse a scenario CSV; raises ValueError when it is malformed."""
    lines = text.splitlines()
    if not lines or lines[0] != SCHEMA_LINE:
        raise ValueError("missing schema line")
    config: dict[str, str] = {}
    pos = 1
    while pos < len(lines) and lines[pos].startswith("#"):
        key, sep, value = lines[pos][1:].partition("=")
        if sep:
            config[key.strip()] = value.strip()
        pos += 1
    if pos == len(lines):
        raise ValueError("missing header line")
    header = lines[pos].split(",")
    rows = []
    for lineno, line in enumerate(lines[pos + 1:], start=pos + 2):
        cells = line.split(",")
        if len(cells) != len(header):
            raise ValueError(f"line {lineno}: {len(cells)} cells, header has {len(header)}")
        rows.append([float(c) for c in cells])
    if not rows:
        raise ValueError("no data rows")
    return CsvDoc(config, header, rows)


def _finite(doc: CsvDoc, skip: tuple[str, ...] = ()) -> list[str]:
    out = []
    for name in doc.header:
        if name in skip:
            continue
        bad = [v for v in doc.column(name) if not math.isfinite(v)]
        if bad:
            out.append(f"{len(bad)} non-finite values in {name}")
    return out


def _rounding_floor_sq(n: int, kappa: float) -> float:
    """Rounding bound on a squared Frobenius error ``1 + c'Mc - 2L'c``.

    M and L hold squared overlaps of 2^n-amplitude states, each off by at
    most about 2^n * eps (the standard inner-product error bound), and the
    sum weighs them by coefficients of 1-norm kappa.
    """
    return 2.0 * (1 << n) * EPS * (1.0 + kappa) ** 2


def _chain(params: dict[str, str]):
    """The run's second-order formula, exact-evolution oracle and Neel state."""
    from mpf_lab import (SpectralOracle, build_heisenberg_chain, fragment_decomposition_s2,
                         neel_state, second_order)

    n = int(params["n"])
    _, fields = build_heisenberg_chain(n, int(params["seed"]))
    pf = second_order(fragment_decomposition_s2(n, fields))
    return pf, SpectralOracle(pf.hamiltonian), neel_state(n)


def _projection_kappas(params: dict[str, str], times: list[float]) -> list[float]:
    """Coefficient 1-norms of the exact projection at the given times."""
    from mpf_lab import dynamic_project, gram_matrix, l_exact

    steps = [int(k) for k in params["steps"].split(",")]
    pf, oracle, psi = _chain(params)
    return [float(sum(abs(c) for c in dynamic_project(
                gram_matrix(pf, psi, t, steps), l_exact(pf, oracle, psi, t, steps)).coefficients))
            for t in times]


def _check_tracking(doc: CsvDoc, params: dict[str, str]) -> list[str]:
    """Checks of any minimax-shootout run."""
    failures = _finite(doc)
    n = int(params["n"])
    t0, t_final, dt = (float(params[k]) for k in ("t0", "t_final", "dt"))
    t = doc.column("t")
    expected_rows = round((t_final - t0) / dt) + 1
    if len(t) != expected_rows:
        failures.append(f"{len(t)} rows, expected {expected_rows}")
    if abs(t[0] - t0) > 1e-9 or abs(t[-1] - t_final) > 1e-9:
        failures.append(f"time axis runs {t[0]}..{t[-1]}, expected {t0}..{t_final}")
    # The exact projection is optimal over all sum-one coefficient vectors,
    # and the static, best-Trotter and minimax mixtures are all sum-one.  The
    # comparison allows the rounding floor of both errors: first with the
    # minimax coefficients' 1-norm, then, for rows that still exceed it, with
    # the projection's own 1-norm, which nearly collinear circuit states can
    # drive to 1e3 and more.
    rivals = [min(row) for row in zip(doc.column("err_static_wc"), doc.column("err_best_trotter"),
                                      doc.column("err_minimax"))]
    dyn, kappa = doc.column("err_dynamic_exact"), doc.column("kappa_minimax")
    over = [j for j in range(len(dyn))
            if dyn[j] ** 2 > rivals[j] ** 2 + _rounding_floor_sq(n, max(kappa[j], 1.0))]
    if over:
        kappa_star = _projection_kappas(params, [t0 + dt * j for j in over])
        for j, ks in zip(over, kappa_star):
            if dyn[j] ** 2 > rivals[j] ** 2 + _rounding_floor_sq(n, max(kappa[j], ks)):
                failures.append(f"row {j}: err_dynamic_exact {dyn[j]:.6e} exceeds "
                                f"min(static, trotter, minimax) {rivals[j]:.6e}")
    return failures


def _check_shootout(doc: CsvDoc, params: dict[str, str]) -> list[str]:
    """Tracking checks plus acceptance criterion 10: the run reaches
    t_final = 4.5 (a tracking check), minimax beats best-Trotter by t = 2.5,
    and the final coefficient 1-norm is at most 10."""
    failures = _check_tracking(doc, params)
    t = doc.column("t")
    crossed = [ti for ti, mm, bt in zip(t, doc.column("err_minimax"),
                                       doc.column("err_best_trotter")) if mm < bt]
    if not crossed or crossed[0] > 2.5:
        first = crossed[0] if crossed else "never"
        failures.append(f"minimax first beats best-Trotter at t={first}, not by t <= 2.5")
    kappa = doc.column("kappa_minimax")[-1]
    if not kappa <= 10.0:
        failures.append(f"final coefficient 1-norm {kappa:.3f} > 10")
    return failures


def _check_bounds(doc: CsvDoc, params: dict[str, str]) -> list[str]:
    from mpf_lab import mixture_trace_norm, solve_coefficients, trotter_states

    failures = _finite(doc)
    if len(doc.rows) != int(params["t_count"]):
        failures.append(f"{len(doc.rows)} rows, expected {params['t_count']}")
    for name in ("a1", "a2", "a3"):
        if any(v < 0 for v in doc.column(name)):
            failures.append(f"negative {name}")
    pf, oracle, psi = _chain(params)
    scheme = solve_coefficients(2, tuple(int(k) for k in params["steps"].split(",")))
    weights = list(scheme.coefficients) + [-1.0]
    for t, bound in zip(doc.column("t"), doc.column("bound")):
        states = trotter_states(pf, psi, t, scheme.steps) + [oracle.evolve(psi, t)]
        err = mixture_trace_norm(states, weights)
        if not bound >= err:
            failures.append(f"t={t}: bound {bound:.6e} below the mixture error {err:.6e}")
    return failures


@dataclass(frozen=True)
class Workload:
    """One CLI scenario at a fixed config.

    ``params`` are passed as ``--set KEY=VALUE`` and must appear verbatim in
    the CSV's resolved-config header; ``tiny`` replaces some of them for the
    self-test.
    """

    name: str
    scenario: str
    params: dict[str, str]
    tiny: dict[str, str]
    check_fn: Callable[[CsvDoc, dict[str, str]], list[str]]
    seeded: Callable[[int], dict[str, str]]

    def resolved(self, seed: int, tiny: bool = False) -> dict[str, str]:
        """The ``--set`` overrides of one run, seed-dependent ones included."""
        return {**self.params, **(self.tiny if tiny else {}), **self.seeded(seed)}

    def cli_args(self, seed: int, tiny: bool = False) -> list[str]:
        args = [self.scenario]
        for key, value in self.resolved(seed, tiny).items():
            args += ["--set", f"{key}={value}"]
        return args

    def check(self, text: str, params: dict[str, str]) -> list[str]:
        """Failure messages for one run's CSV text; empty when it passes."""
        try:
            doc = parse_csv(text)
        except ValueError as exc:
            return [f"malformed CSV: {exc}"]
        failures = [f"config {key} = {doc.config.get(key)!r}, expected {value!r}"
                    for key, value in params.items() if doc.config.get(key) != value]
        try:
            return failures + self.check_fn(doc, params)
        # RuntimeError covers the package's solver, degeneracy and size errors.
        except (KeyError, ValueError, IndexError, RuntimeError) as exc:
            return failures + [f"check could not run: {exc!r}"]


def _cli_seed(seed: int) -> dict[str, str]:
    return {"seed": str(seed)}


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="shootout",
        scenario="minimax-shootout",
        params={"n": "10", "steps": "8,20,26,30,34", "k0": "26",
                "t0": "1.0", "t_final": "4.5", "dt": "0.05"},
        tiny={"n": "6", "dt": "0.25"},
        check_fn=_check_shootout,
        seeded=_cli_seed,
    ),
    Workload(
        name="bounds",
        scenario="bound-eval",
        params={"n": "6", "t_count": "2", "steps": "4,13,17"},
        tiny={"n": "3"},
        check_fn=_check_bounds,
        seeded=lambda seed: {"seed": str(seed), "sampler_seed": str(seed)},
    ),
)}
