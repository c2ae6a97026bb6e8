"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the suite uses only the library's public API plus the CLI entry point.
"""

import math

import numpy as np

from mpf_lab import (
    formula_commutator_sum,
    dynamic_project,
    gram_matrix,
    l_exact,
    product_formula_error_bound,
    minimax_run,
    mixture_frobenius_sq,
    mixture_trace_norm,
    rho_k_state,
    solve_coefficients,
    tracking_error_bound,
    to_dense,
    trotter_states,
)
from mpf_lab.bounds import MixtureBoundEvaluator
from mpf_lab.cli import main
from mpf_lab.dynamic_mpf import ProductFormula  # noqa: F401  (re-export sanity)
from conftest import palindrome_fragments, random_state


def report(index: int, name: str, checks: list[tuple[str, bool]]):
    ok = all(flag for _, flag in checks)
    print(f"\nACCEPTANCE {index:02d} [{name}]: {'PASS' if ok else 'FAIL'}")
    for desc, flag in checks:
        if not flag:
            print(f"    failed: {desc}")
    assert ok, f"criterion {index} failed: " + "; ".join(d for d, f in checks if not f)


def test_criterion_01_coefficient_goldens():
    checks = []
    sch = solve_coefficients(2, (4, 13, 17))
    printed = (0.0160884, -1.7949346, 2.7788461)
    for got, exp in zip(sch.coefficients, printed):
        checks.append((f"p=2 coefficient {exp}", abs(got - exp) < 5e-7))
    sch4 = solve_coefficients(4, (2, 9, 17, 23, 25))
    printed4 = (1.77273114e-08, -0.002678125, 0.500367716, -6.77853105, 7.28084144)
    for got, exp in zip(sch4.coefficients, printed4):
        checks.append((f"p=4 coefficient {exp}",
                       abs(got - exp) <= 5e-7 * max(abs(exp), 1e-8)))
    five = solve_coefficients(2, (8, 20, 26, 30, 34), even_powers=True)
    checks.append(("r=5 kappa within 1% of 57",
                   abs(five.kappa - 57.0) <= 0.01 * 57.0))
    seed3 = solve_coefficients(2, (8, 26, 34), even_powers=True)
    printed_seed = (0.00612895, -1.55561002, 2.54948107)
    for got, exp in zip(seed3.coefficients, printed_seed):
        checks.append((f"seed coefficient {exp}", abs(got - exp) < 5e-9))
    report(1, "coefficient goldens", checks)


def test_criterion_02_rescaling_invariance():
    checks = []
    for p, base in ((2, (4, 13, 17)), (4, (2, 9, 17, 23, 25))):
        ref = solve_coefficients(p, base)
        for lam in (2, 3, 5):
            scaled = solve_coefficients(p, tuple(lam * k for k in base))
            drift = max(abs(a - b) for a, b in zip(ref.coefficients, scaled.coefficients))
            checks.append((f"p={p} lam={lam} coefficients unchanged", drift <= 1e-9))
            ratio = ref.objective / scaled.objective
            checks.append((f"p={p} lam={lam} prefactor / lam^(2p)",
                           abs(ratio - lam ** (2 * p)) <= 1e-9 * lam ** (2 * p)))
    report(2, "rescaling invariance", checks)


def test_criterion_03_alpha2_closed_form(chain4):
    odd, fields, even = chain4.fragments
    bonds = 0.5 * odd + 0.5 * even
    f1, f2, f3, f4, _ = palindrome_fragments(4, chain4.fields)
    assert bonds == f1 + 0.5 * f3 and fields == f2 + f4
    pf3 = ProductFormula(fragments=(bonds, fields, bonds),
                         steps=((0, 1.0), (1, 1.0), (2, 1.0)), order=2)
    general = formula_commutator_sum(pf3)
    d1, d2 = to_dense(bonds), to_dense(fields)

    def comm(a, b):
        return a @ b - b @ a

    closed = (np.linalg.norm(comm(d2, comm(d2, d1)), 2)
              + 3.0 * np.linalg.norm(comm(d1, comm(d1, d2)), 2))
    report(3, "alpha2 closed form", [
        (f"general {general:.10f} vs closed {closed:.10f}", abs(general - closed) <= 1e-8),
    ])


def test_criterion_04_kstep_bound_soundness(chain6):
    alpha = formula_commutator_sum(chain6.pf)
    checks = []
    worst = math.inf
    for t in np.arange(0.25, 2.001, 0.25):
        exact = chain6.oracle.evolve(chain6.psi, t)
        for k in range(1, 21):
            err = mixture_trace_norm(
                [rho_k_state(chain6.pf, chain6.psi, t, k), exact], [1.0, -1.0])
            bound = product_formula_error_bound(chain6.pf, t, k, commutator_sum=alpha)
            worst = min(worst, bound - err)
            if bound < err:
                checks.append((f"t={t} k={k}: bound {bound:.3e} < error {err:.3e}", False))
    checks.append((f"bound dominates on the full grid (min slack {worst:.3e})", worst >= 0))
    report(4, "k-step bound soundness", checks)


def _mpf_errors(case, steps, coeffs, ts):
    errs = []
    for t in ts:
        states = trotter_states(case.pf, case.psi, t, steps)
        states.append(case.oracle.evolve(case.psi, t))
        errs.append(mixture_trace_norm(states, list(coeffs) + [-1.0]))
    return np.asarray(errs)


def _window_slope(ts, errs, lo=3e-5, hi=5e-2):
    mask = (errs > lo) & (errs < hi)
    if mask.sum() < 4:
        return math.nan, int(mask.sum())
    slope = np.polyfit(np.log(ts[mask]), np.log(errs[mask]), 1)[0]
    return float(slope), int(mask.sum())


def test_criterion_05_order_scaling(chain6, chain10):
    lam = 4
    sch = solve_coefficients(2, tuple(lam * k for k in (4, 13, 17)))
    ts = np.geomspace(1.5, 5.0, 9)
    checks = []
    for case in (chain6, chain10):
        errs = _mpf_errors(case, sch.steps, sch.coefficients, ts)
        slope, npts = _window_slope(ts, errs)
        checks.append((f"n={case.n} mixture slope {slope:.2f} in 6 +- 0.3 ({npts} pts)",
                       abs(slope - 6.0) <= 0.3))
        tb = np.geomspace(0.02, 0.12, 6)
        base = np.array([
            mixture_trace_norm([rho_k_state(case.pf, case.psi, t, 1),
                                case.oracle.evolve(case.psi, t)], [1.0, -1.0])
            for t in tb
        ])
        bslope = np.polyfit(np.log(tb), np.log(base), 1)[0]
        checks.append((f"n={case.n} base-formula slope {bslope:.2f} in 3 +- 0.2",
                       abs(bslope - 3.0) <= 0.2))
    report(5, "order scaling", checks)


def test_criterion_06_fit_constant_ballpark(chain6, chain10):
    from conftest import ChainCase, fit_scaling

    lam = 4
    sch = solve_coefficients(2, tuple(lam * k for k in (4, 13, 17)))
    ts = np.geomspace(1.5, 5.0, 9)
    cases = {6: chain6, 8: ChainCase(8), 10: chain10}
    checks = []
    a1_values, ns = [], []
    for n, case in cases.items():
        errs = _mpf_errors(case, sch.steps, sch.coefficients, ts)
        mask = (errs > 3e-5) & (errs < 5e-2)
        a1 = float(np.median(errs[mask] / (ts[mask] ** 6 * sch.objective)))
        a1_values.append(a1)
        ns.append(float(n))
        ratio = a1 / (0.06 * n * n)
        checks.append((f"n={n}: refit a1 {a1:.2f} vs 0.06 n^2 (ratio {ratio:.2f})",
                       1.0 / 3.0 <= ratio <= 3.0))
    fit = fit_scaling(np.asarray(a1_values), n=np.asarray(ns))
    checks.append((f"fitted exponent {fit.exponents['n']:.2f} is quadratic-ish",
                   1.0 <= fit.exponents["n"] <= 3.0))
    report(6, "fit-constant ballpark", checks)


def test_criterion_07_low_rank_oracle_equivalence():
    rng = np.random.default_rng(7)
    worst_tn, worst_fr = 0.0, 0.0
    for _ in range(50):
        n = int(rng.integers(2, 6))
        r = int(rng.integers(2, 5))
        states = [random_state(n, rng) for _ in range(r)]
        w = rng.standard_normal(r)
        dense = sum(wi * np.outer(s, s.conj()) for wi, s in zip(w, states))
        ref_tn = float(np.abs(np.linalg.eigvalsh(dense)).sum())
        worst_tn = max(worst_tn, abs(mixture_trace_norm(states, w) - ref_tn))
        target = random_state(n, rng)
        gram = np.array([[abs(np.vdot(a, b)) ** 2 for b in states] for a in states])
        ell = np.array([abs(np.vdot(target, s)) ** 2 for s in states])
        c = rng.standard_normal(r)
        mix = sum(ci * np.outer(s, s.conj()) for ci, s in zip(c, states))
        ref_fr = float(np.linalg.norm(np.outer(target, target.conj()) - mix, "fro") ** 2)
        worst_fr = max(worst_fr, abs(mixture_frobenius_sq(gram, c, ell) - ref_fr))
    report(7, "low-rank oracle equivalence", [
        (f"trace-norm worst deviation {worst_tn:.2e}", worst_tn <= 1e-10),
        (f"frobenius worst deviation {worst_fr:.2e}", worst_fr <= 1e-10),
    ])


def test_criterion_08_projection_optimality(chain6):
    sch = solve_coefficients(2, (4, 13, 17))
    checks = []
    for t in np.arange(0.25, 2.001, 0.25):
        m = gram_matrix(chain6.pf, chain6.psi, t, sch.steps)
        ell = l_exact(chain6.pf, chain6.oracle, chain6.psi, t, sch.steps)
        dyn = dynamic_project(m, ell).error_sq
        static = mixture_frobenius_sq(m, sch.coefficients, ell)
        best_single = min(2.0 - 2.0 * li for li in ell)
        checks.append((f"t={t}: dynamic {dyn:.3e} <= static {static:.3e}",
                       dyn <= static + 1e-12))
        checks.append((f"t={t}: static {static:.3e} <= best circuit {best_single:.3e}",
                       static <= best_single + 1e-12))
    report(8, "projection optimality", checks)


def test_criterion_09_minimax_reduction(chain4):
    steps = (4, 13, 17)
    c0 = np.asarray(solve_coefficients(2, steps).coefficients)
    run = minimax_run(chain4.pf, chain4.psi, steps,
                      t0=0.5, t_final=1.5, dt=0.1, eps=0.0, k0=9, c0=c0, seed=11)
    c = c0
    worst = 0.0
    for j in range(1, len(run.times)):
        mb, ab = run.m_bars[j], run.a_bars[j]
        c = dynamic_project(mb.T @ mb, mb.T @ (ab @ c)).coefficients
        worst = max(worst, float(np.abs(c - run.c_hat[j]).max()))
    report(9, "noise-free reduction to the projection chain", [
        (f"worst per-step deviation {worst:.2e}", worst <= 1e-8),
    ])


def test_criterion_10_shootout_replication(tmp_path):
    out = tmp_path / "shootout.csv"
    code = main(["minimax-shootout", "--seed", "2024", "--out", str(out)])
    assert code == 0
    rows = [line.split(",") for line in out.read_text().splitlines()
            if line and not line.startswith("#") and not line.startswith("t,")]
    data = np.array([[float(v) for v in row] for row in rows])
    t, static_wc, best_trotter, dyn_exact, minimax, kappa = data.T
    crossed = t[(minimax < best_trotter)]
    checks = [
        ("run reaches t = 4.5", abs(t[-1] - 4.5) < 1e-9),
        (f"minimax beats best-Trotter by t <= 2.5 (first at t={crossed[0] if crossed.size else 'never'})",
         crossed.size > 0 and crossed[0] <= 2.5),
        (f"final coefficient 1-norm {kappa[-1]:.2f} <= 10", kappa[-1] <= 10.0),
    ]
    report(10, "minimax shootout replication", checks)


def test_criterion_11_tracking_bound_soundness(chain4):
    steps = (4, 13, 17)
    dt, k0, eps = 0.1, 9, 0.01
    m0 = gram_matrix(chain4.pf, chain4.psi, 0.5, steps)
    l0 = l_exact(chain4.pf, chain4.oracle, chain4.psi, 0.5, steps)
    c0 = dynamic_project(m0, l0).coefficients
    run = minimax_run(chain4.pf, chain4.psi, steps,
                      t0=0.5, t_final=1.5, dt=dt, eps=eps, k0=k0, c0=c0, seed=42)
    sch = solve_coefficients(2, steps)
    evaluator = MixtureBoundEvaluator(sch, chain4.pf)
    drift_term = 2.0 * evaluator.commutator_sum * dt**3 / (math.factorial(3) * k0**2)
    gammas = [evaluator.at(float(t)) + drift_term for t in run.times]
    bounds = tracking_error_bound(run.m_bars, run.a_bars, eps, run.c_hat,
                            np.linalg.norm(run.c_star, axis=1), gammas, run.c_star[0])
    checks = []
    for j, st in enumerate(bounds):
        err = np.abs(run.c_star[j] - run.c_hat[j])
        slack = float((st.component_bounds - err).min())
        if not np.all(st.component_bounds + 1e-12 >= err):
            checks.append((f"step {j}: bound violated (slack {slack:.3e})", False))
    checks.append(("per-component bound dominates at every step", not checks))
    report(11, "worst-case tracking bound soundness", checks)


def test_criterion_12_determinism(tmp_path):
    pairs = []
    for tag, args in {
        "shootout": ["minimax-shootout", "--set", "n=4",
                     "--set", "steps=4,10,13,15,17", "--set", "t0=0.5",
                     "--set", "t_final=0.8", "--set", "dt=0.1", "--set", "k0=13",
                     "--seed", "31"],
        "sweep": ["mpf-sweep", "--set", "n=4", "--set", "t_count=3",
                  "--set", "bounds=on", "--seed", "31"],
    }.items():
        a, b = tmp_path / f"{tag}_a.csv", tmp_path / f"{tag}_b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        pairs.append((tag, a.read_bytes() == b.read_bytes()))
    report(12, "byte-identical reruns", [
        (f"{tag} reruns identical", same) for tag, same in pairs
    ])
