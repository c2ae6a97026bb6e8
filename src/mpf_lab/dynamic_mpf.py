"""Time-dependent mixture coefficients: exact Frobenius projection, the
noisy-overlap surrogate model, the robust (minimax) coefficient tracker, and
its worst-case error recursion.

All overlap data lives in r x r matrices of squared statevector overlaps;
nothing here touches 2^n x 2^n density matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalDegeneracyError, ResourceLimitError, SolverError
from .formulas import ProductFormula, _BlockPower, _step_count, _Walk
from .statesim import SpectralOracle, _frobenius_distance, mixture_frobenius_sq

RIDGE = 1e-12
PINV_RTOL = 1e-12
MINIMAX_TOL = 1e-9
# Most points a time grid may hold, checked before the grid is made: 1,400
# times the paper's 71-point shootout grid.  Per point the n=10 shootout
# costs about 3.6 ms and 2 KB of peak RSS: with t_final=100 (9,901 points,
# fresh CLI runs, two BLAS threads) it took 33-38 s at 61 MB, against 41 MB
# for the 71 points.  Its exact states never hold more than the K x S
# amplitudes of the grid's series (``statesim._SERIES_MAX``).
GRID_POINT_CAP = 100_000


def _check_grid(count: int):
    if count > GRID_POINT_CAP:
        raise ResourceLimitError(
            f"a time grid of {count} points exceeds the cap of {GRID_POINT_CAP} points")


# -- overlap data ------------------------------------------------------------

def trotter_states(pf: ProductFormula, psi_in: np.ndarray, t: float, steps):
    """The states S(t/k_i)^{k_i} |psi_in> for each step count, of 2^n
    amplitudes, run as one block (``ProductFormula.apply``).  A run takes
    the same states, bit for bit, in its subspace's coordinates from
    ``formulas._Walk``."""
    ks = np.array([_step_count(k) for k in steps], dtype=int)
    psi_in = np.asarray(psi_in)
    return list(pf.apply(np.broadcast_to(psi_in, (ks.size, psi_in.size)), float(t) / ks, ks))


def _overlaps_sq(bra, ket) -> np.ndarray:
    """``|<bra_i|ket_j>|^2`` for every pair, each sum in one fixed order by
    ``np.einsum`` (no BLAS, so the bits do not depend on the BLAS thread
    count); each side is a list of states or an ``(r, dim)`` array of rows."""
    return np.abs(np.einsum("ij,kj->ik", np.conj(bra), np.asarray(ket))) ** 2


def gram_from_states(states: list[np.ndarray]) -> np.ndarray:
    if len(states) == 0:
        return np.empty((0, 0))
    upper = np.triu(_overlaps_sq(states, states), 1)
    m = upper + upper.T
    np.fill_diagonal(m, 1.0)
    return m


def gram_matrix(pf: ProductFormula, psi_in: np.ndarray, t: float, steps) -> np.ndarray:
    """Squared-overlap Gram matrix of the circuit family at time t."""
    return gram_from_states(trotter_states(pf, psi_in, t, steps))


def q_from_states(push: _BlockPower, states_prev, states_next) -> np.ndarray:
    """Propagation overlaps ``Q[i, s] = |<psi_i(t+dt)| S(dt/k0)^k0 |psi_s(t)>|^2``
    between the next states and the previous ones pushed forward by
    ``push``, the run's ``S(dt/k0)^k0`` (``formulas._BlockPower``), all
    previous states as one block.  Both sides are ``(r, S)`` rows in the
    coordinates of the push's subspace.

    The push is made with the run's number of pushes and decides then, for
    the whole run, whether every push runs through the kernel, k0 steps on
    each state, or through ``S(dt/k0)^k0`` built on its subspace
    (``_BlockPower`` states the rule and its thresholds).  The choice
    follows from the sizes and the number of pushes alone, so the output
    bits do not depend on timing or on the BLAS thread count.
    """
    return _overlaps_sq(states_next, push.apply(np.asarray(states_prev)))


def l_exact(pf: ProductFormula, oracle: SpectralOracle, psi_in: np.ndarray,
            t: float, steps) -> np.ndarray:
    """Overlaps of the exact state with each circuit state at time t."""
    states = trotter_states(pf, psi_in, t, steps)
    return l_from_states(oracle.evolve(psi_in, t), states)


def l_from_states(exact_state: np.ndarray, states: list[np.ndarray]) -> np.ndarray:
    return _overlaps_sq(states, [exact_state])[:, 0]


# -- exact Frobenius projection ----------------------------------------------

@dataclass(frozen=True)
class ProjectionResult:
    coefficients: np.ndarray
    error_sq: float
    error: float
    ridged: bool


def dynamic_project(m: np.ndarray, ell: np.ndarray) -> ProjectionResult:
    """Minimize ``c^T M c - 2 L^T c`` subject to ``sum c = 1``.

    Solves the bordered stationarity system directly; a singular system falls
    back to a ridge-regularized solve and is flagged.
    """
    m = np.asarray(m, dtype=float)
    ell = np.asarray(ell, dtype=float)
    r = ell.size
    if m.shape != (r, r):
        raise ValueError("shape mismatch")
    m = 0.5 * (m + m.T)
    eigs = np.linalg.eigvalsh(m)
    if eigs[0] < -1e-10 * max(1.0, eigs[-1]):
        raise NumericalDegeneracyError(f"Gram matrix eigenvalue {eigs[0]:.3e} < 0")
    kkt = np.zeros((r + 1, r + 1))
    kkt[:r, :r] = 2.0 * m
    kkt[:r, r] = 1.0
    kkt[r, :r] = 1.0
    rhs = np.concatenate([2.0 * ell, [1.0]])
    ridged = False
    try:
        sol = np.linalg.solve(kkt, rhs)
        bad = not np.all(np.isfinite(sol)) or (
            np.linalg.norm(kkt @ sol - rhs) > 1e-6 * max(1.0, np.linalg.norm(rhs))
        )
    except np.linalg.LinAlgError:
        bad = True
    if bad:
        kkt[:r, :r] = 2.0 * (m + RIDGE * np.eye(r))
        sol = np.linalg.solve(kkt, rhs)
        ridged = True
    c = sol[:r]
    return ProjectionResult(coefficients=c, error_sq=mixture_frobenius_sq(m, c, ell),
                            error=_frobenius_distance(m, c, ell), ridged=ridged)


# -- noisy surrogates ----------------------------------------------------------

def _check_noise(eps: float):
    """Refuse a negative or non-finite eps: surrogates must lie within eps of exact data."""
    if not 0.0 <= eps < math.inf:
        raise ValueError(f"noise magnitude must be >= 0 and finite; got {eps}")


@dataclass(frozen=True)
class NoisyOverlaps:
    m_bar: np.ndarray
    a_bar: np.ndarray
    m_deviation: float
    a_deviation: float


def inject_noise(m: np.ndarray, q: np.ndarray, eps: float, seed) -> NoisyOverlaps:
    """Gaussian surrogate data: perturbations rescaled to spectral norm <= eps,
    entries clamped nonnegative, the Gram surrogate re-symmetrized with unit
    diagonal.  Clamping can push the final deviation slightly above eps, so
    the realized spectral deviations are reported.
    """
    _check_noise(eps)
    m = np.asarray(m, dtype=float)
    q = np.asarray(q, dtype=float)
    if eps == 0.0:
        return NoisyOverlaps(m.copy(), q.copy(), 0.0, 0.0)
    rng = np.random.default_rng(seed)

    def draw(shape):
        e = rng.standard_normal(shape)
        norm = np.linalg.norm(e, 2)
        if norm > eps:
            e *= eps / norm
        return e

    m_bar = np.clip(m + draw(m.shape), 0.0, None)
    m_bar = 0.5 * (m_bar + m_bar.T)
    np.fill_diagonal(m_bar, 1.0)
    a_bar = np.clip(q + draw(q.shape), 0.0, None)
    return NoisyOverlaps(
        m_bar=m_bar,
        a_bar=a_bar,
        m_deviation=float(np.linalg.norm(m_bar - m, 2)),
        a_deviation=float(np.linalg.norm(a_bar - q, 2)),
    )


# -- robust coefficient step ---------------------------------------------------

def _ray_dual(a: np.ndarray, b: np.ndarray, eps: float, u: np.ndarray) -> float:
    """Best value of the Fenchel dual ``max -u.b + nu  s.t.  A^T u + v = nu 1,
    |u| <= 1, |v| <= eps`` over the ray ``theta u`` with ``|theta u| <= 1``.

    For each theta the best offset nu solves a 1-D quadratic, and theta
    itself has a closed-form optimum.
    """
    r = a.shape[1]
    w = a.T @ u
    m1 = float(w.mean())
    d2 = float(np.sum((w - m1) ** 2))
    a0 = m1 - float(u @ b)

    def dual_at(theta: float) -> float:
        room = eps * eps - theta * theta * d2
        if room < 0:
            return -math.inf
        return theta * a0 + math.sqrt(room / r)

    un = float(np.linalg.norm(u))
    cap = 1.0 / un if un > 0.0 else 1.0
    if d2 > 0.0:
        cap = min(cap, eps / math.sqrt(d2))
    cands = [0.0, cap]
    if d2 > 0.0 and a0 > 0.0:
        theta_star = a0 * eps * math.sqrt(r) / math.sqrt(d2 * (d2 + a0 * a0 * r))
        cands.append(min(theta_star, cap))
    return max(dual_at(th) for th in cands)


def _dual_gap(a: np.ndarray, b: np.ndarray, eps: float, x: np.ndarray) -> float:
    """Certified objective gap at x from a dual feasible point.

    The first dual point lies on the residual direction ``res/|res|``.  If
    it misses :data:`MINIMAX_TOL` (as at an optimum on the kink ``A x = b``,
    where that direction is undefined), the kink multiplier is tried too:
    the minimal-norm u with ``A^T u = nu 1 - eps x/|x|`` for some nu.
    """
    res = a @ x - b
    rn = float(np.linalg.norm(res))
    xn = float(np.linalg.norm(x))
    primal = rn + eps * xn
    gap = primal - _ray_dual(a, b, eps, res / rn if rn > 0 else np.zeros_like(res))
    if gap > MINIMAX_TOL:
        # Removing the mean of both sides eliminates nu.
        lhs = a.T - a.T.mean(axis=0)
        rhs = -eps * (x - x.mean()) / xn
        u = np.linalg.lstsq(lhs, rhs, rcond=None)[0]
        gap = min(gap, primal - _ray_dual(a, b, eps, u))
    return gap


def _ridge_point(d: np.ndarray, v: np.ndarray, p: np.ndarray, q: np.ndarray,
                 lam: float) -> np.ndarray:
    """The ridge point ``x(lam) = (M^T M + lam I)^-1 (M^T b + mu 1)`` on the
    slice ``sum x = 1``, from the eigenpairs ``d``, ``v`` of ``M^T M``, with
    ``p = v^T M^T b`` and ``q = v^T 1``: one O(r^2) solve."""
    w = 1.0 / (d + lam)
    mu = (1.0 - float(q @ (w * p))) / float(q @ (w * q))
    x = v @ (w * (p + mu * q))
    # Project the rounding off the slice (for r = 1, exactly onto [1]).
    return x + (1.0 - x.sum()) / x.size


def _scaling(g_new: float, g_old: float) -> float:
    """Anderson and Bjorck's factor for the g kept at one end of a regula
    falsi bracket when the other end moves from ``g_old`` to ``g_new`` on
    the same side of the root: ``1 - g_new / g_old``, or 1/2 where that is
    not positive."""
    factor = 1.0 - g_new / g_old
    return factor if factor > 0.0 else 0.5


def _secant_root(balance, lo: float, hi: float) -> np.ndarray:
    """The ridge point at the root of g in ``s = log lam`` on the bracket
    [lo, hi], where ``balance(lam)`` gives the point at lam and its g,
    negative below the root.  It is the point at ``hi`` when g is not
    positive there (or lo is 0), and the one at ``lo`` when g >= 0 there
    too (the kink).

    g is close to s plus a constant towards both ends of the bracket, so
    regula falsi in s needs few solves.  When the same end moves twice
    running, the other end's g is scaled down (Anderson and Bjorck; by half
    where their factor is not positive, as in the Illinois rule) so that it
    moves too.  The search stops at an exact root, when no point lies
    strictly inside the bracket, or after 100 steps, and returns the point
    at its upper end."""
    x, g_hi = balance(hi)
    if not (lo > 0.0 and g_hi > 0.0):
        return x
    x_lo, g_lo = balance(lo)
    if g_lo >= 0.0:
        return x_lo
    s_lo, s_hi, moved = math.log(lo), math.log(hi), 0
    for _ in range(100):
        # g_lo < 0 < g_hi, so the secant point lies in [s_lo, s_hi].
        s = s_hi - g_hi * (s_hi - s_lo) / (g_hi - g_lo)
        if not s_lo < s < s_hi:
            s = 0.5 * (s_lo + s_hi)
            if not s_lo < s < s_hi:
                break
        x_s, g = balance(math.exp(s))
        if g < 0.0:
            if moved < 0:
                g_hi *= _scaling(g, g_lo)
            s_lo, g_lo, moved = s, g, -1
        else:
            if moved > 0:
                g_lo *= _scaling(g, g_hi)
            s_hi, g_hi, x, moved = s, g, x_s, 1
            if g == 0.0:
                break
    return x


def minimax_step(m_bar: np.ndarray, a_bar: np.ndarray, c_prev: np.ndarray,
                 eps: float) -> np.ndarray:
    """One robust tracking step: minimize ``|M x - A c_prev| + eps |x|`` over
    the simplex-sum slice ``sum x = 1``.

    For eps = 0 this is the sum-constrained least-squares solution.  For
    eps > 0 the optimum lies on the ridge path
    ``x(lam) = (M^T M + lam I)^-1 (M^T b + mu 1)``, mu fixed by the sum, at the
    lam solving ``lam |x(lam)| = eps |M x(lam) - b|``.  One ``eigh`` of
    ``M^T M`` makes each x(lam) O(r^2) (:func:`_ridge_point`), and lam is the
    root of ``g(s) = log(lam |x|) - log(eps |M x - b|)`` in ``s = log lam``,
    found by a safeguarded secant on a bracket that it narrows to float
    resolution (:func:`_secant_root`): about 13 solves a step on the
    shootout, where a bisection takes about 60.  A dual feasible
    point certifies the objective gap, also at an optimum on the kink
    ``M x = b``; failure to certify :data:`MINIMAX_TOL` raises
    :class:`SolverError` carrying the best point.
    """
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

    def balance(lam: float) -> tuple[np.ndarray, float]:
        """x(lam) and g at s = log lam: negative below the root, >= 0 from
        it on (+inf on the kink, where the residual is 0)."""
        x = _ridge_point(d, v, p, q, lam)
        res = e_s * float(np.linalg.norm(m_s @ x - b_s))
        if not res > 0.0:
            return x, math.inf
        return x, math.log(lam * float(np.linalg.norm(x))) - math.log(res)

    # Every ridge point has |x| >= 1/sqrt(r) and a residual no larger than the
    # uniform mixture's, so g >= 0 at `hi`.  Below `lo` the residual at a root
    # would sit beneath its own rounding, so g >= 0 at `lo` is the kink and
    # its answer.  The problem is strictly convex on the slice, so any root
    # is the optimum.
    hi = e_s * (math.sqrt(r) * float(np.linalg.norm(m_s.mean(axis=1) - b_s)) + e_s)
    x = _secant_root(balance, hi * np.finfo(float).eps ** 2, hi)
    gap = _dual_gap(m_s, b_s, e_s, x)
    if not math.isfinite(gap) or gap > MINIMAX_TOL:
        raise SolverError(
            f"robust step failed to certify gap {MINIMAX_TOL:g} at unit data scale "
            f"(achieved {gap:.3e}, data scale {scale:.3e})",
            best=x, gap=gap,
        )
    return x


# -- full tracking run ---------------------------------------------------------

@dataclass
class MinimaxRun:
    """Trajectory record of a robust tracking run.

    Per grid point: coefficient estimate, Frobenius error against exact
    overlap data, the exact projection coefficients and error (diagnostics),
    coefficient 1-norms, solver objective values, and the surrogate matrices
    needed by the worst-case error recursion.
    """

    times: np.ndarray
    c_hat: np.ndarray
    c_star: np.ndarray
    error_hat: np.ndarray
    error_star: np.ndarray
    kappa_hat: np.ndarray
    objective: np.ndarray
    m_bars: list = field(default_factory=list)
    a_bars: list = field(default_factory=list)
    m_exact: list = field(default_factory=list)
    l_exact: list = field(default_factory=list)


def minimax_run(pf: ProductFormula, psi_in: np.ndarray, steps, t0: float, t_final: float,
                dt: float, eps: float, k0: int, c0, seed: int) -> MinimaxRun:
    """Track robust mixture coefficients on the uniform grid t_0 + j dt.

    The run's states come from one walk (``formulas._Walk``) in the
    coordinates of the invariant subspace that ``psi_in`` touches: the r
    circuit states of a few grid points at a time as one Trotter batch, and
    the exact states from the Chebyshev series of H, the fragments' sum,
    built there by the walk, whose cap the walk checks for the grid's
    largest |t| when it is made; the series is streamed over windows of the
    grid, the first after the push and before the first Trotter state.
    From the second point on,
    the propagation overlaps push the previous states forward by
    ``S(dt/k0)^k0`` (:func:`q_from_states`), one push per grid step.  The
    walk makes the push once, from the number of grid steps, before its
    first Trotter batch, and the push decides there whether every push runs
    through the kernel or through the power it builds on the subspace
    (``formulas._BlockPower`` gives the thresholds), so a build holds no
    Trotter state and a build that fails fails before any.  Surrogate
    data are generated per step from the exact overlaps with seeded,
    spectral-norm-bounded Gaussian noise; the estimate is advanced by
    :func:`minimax_step`.  Exact-data projections are recorded alongside for
    diagnostics.  Every argument, with the qubit cap and the step counts
    that the walk checks first, is checked before any state is computed or
    any block operator built.
    """
    if not all(map(math.isfinite, (t0, t_final, dt, eps))):
        raise ValueError(f"t0, t_final, dt and eps must be finite; got {t0}, {t_final}, "
                         f"{dt}, {eps}")
    if not t0 < t_final:
        raise ValueError("need t0 < t_final")
    if dt <= 0:
        raise ValueError("dt must be > 0")
    k0 = _step_count(k0, "k0")
    _check_noise(eps)
    n_steps = round((t_final - t0) / dt)
    if n_steps < 1 or abs(n_steps * dt - (t_final - t0)) > 1e-9 * max(1.0, abs(t_final)):
        raise ValueError("dt must divide t_final - t0 within rounding")
    _check_grid(n_steps + 1)
    c0 = np.asarray(c0, dtype=float)
    if c0.shape != (len(steps),):
        raise ValueError(f"need one initial coefficient per step count ({len(steps)}), "
                         f"got shape {c0.shape}")
    if abs(c0.sum() - 1.0) > 1e-9:
        raise ValueError("initial coefficients must sum to 1")
    times = t0 + dt * np.arange(n_steps + 1)
    r = len(steps)
    c_hat = np.empty((n_steps + 1, r))
    c_star = np.empty((n_steps + 1, r))
    err_hat = np.empty(n_steps + 1)
    err_star = np.empty(n_steps + 1)
    objective = np.zeros(n_steps + 1)
    run = MinimaxRun(
        times=times, c_hat=c_hat, c_star=c_star, error_hat=err_hat,
        error_star=err_star, kappa_hat=np.empty(n_steps + 1),
        objective=objective,
    )

    states = None
    walk = _Walk(pf, psi_in, times, steps)
    push = walk.push(dt / k0, k0, n_steps)
    for j, (states_next, exact) in enumerate(walk):
        m_now = gram_from_states(states_next)
        q_now = np.zeros((r, r)) if j == 0 else q_from_states(push, states, states_next)
        noisy = inject_noise(m_now, q_now, eps, np.random.SeedSequence(seed, spawn_key=(j,)))
        run.m_bars.append(noisy.m_bar)
        if j == 0:
            run.a_bars.append(None)
            c_hat[0] = c0
        else:
            run.a_bars.append(noisy.a_bar)
            c_hat[j] = minimax_step(noisy.m_bar, noisy.a_bar, c_hat[j - 1], eps)
            objective[j] = float(
                np.linalg.norm(noisy.m_bar @ c_hat[j] - noisy.a_bar @ c_hat[j - 1])
                + eps * np.linalg.norm(c_hat[j])
            )
        ell = l_from_states(exact, states_next)
        run.m_exact.append(m_now)
        run.l_exact.append(ell)
        proj = dynamic_project(m_now, ell)
        c_star[j] = proj.coefficients
        err_star[j] = proj.error
        err_hat[j] = _frobenius_distance(m_now, c_hat[j], ell)
        states = states_next
    run.kappa_hat[:] = np.abs(c_hat).sum(axis=1)
    return run


# -- worst-case error recursion -------------------------------------------------

def _pinv(mat: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(0.5 * (mat + mat.T))
    cutoff = PINV_RTOL * max(abs(vals[0]), abs(vals[-1]), 1e-300)
    inv = np.where(np.abs(vals) > cutoff, 1.0 / np.where(vals == 0, 1.0, vals), 0.0)
    return (vecs * inv) @ vecs.T


@dataclass(frozen=True)
class TrackingBoundStep:
    """Worst-case coefficient-error data for one horizon step."""

    index: int
    radius_sq: float
    component_bounds: np.ndarray
    misfit_offset: float
    p_min_eig: float


def tracking_error_bound(m_bars: list, a_bars: list, eps: float,
                         c_hat: np.ndarray, c_star_norms, gamma_values,
                         c_star0) -> list[TrackingBoundStep]:
    """Per-step worst-case bounds on the tracked-coefficient error.

    Horizon j ends the Schur-complement chain P_0..P_j, whose middle steps
    carry noise weight 2 eps^2 and whose last step carries eps^2.  One prefix
    chain of weight-2 steps is carried forward, and each horizon finishes it
    with a single weight-1 step that shares the prefix step's kernel and
    products.  The transition matrix pairing step s-1 to s appears both
    inside the inverted block and in the sandwich, so all three recursions
    share one (P + T^T T)^+ kernel.

    ``c_star_norms`` are the 2-norms of the exact projection coefficients
    (desk runs compute them from exact data; deployments pass a ceiling);
    ``gamma_values[s]`` is the one-step drift budget at grid time s.
    """
    n_pts = len(m_bars)
    if len(a_bars) != n_pts or c_hat.shape[0] != n_pts:
        raise ValueError("sequence lengths disagree")
    r = m_bars[0].shape[0]
    ones = np.ones(r)
    c_star_norms = np.asarray(c_star_norms, dtype=float)
    gamma_values = np.asarray(gamma_values, dtype=float)
    c_star0 = np.asarray(c_star0, dtype=float)
    out: list[TrackingBoundStep] = []
    sqrt_r = math.sqrt(r)
    p_mat = m_bars[0].T @ m_bars[0] + np.outer(ones, ones) + eps * eps * np.eye(r)
    p_prefix = p_mat
    r_vec = ones + c_star0
    alpha = 1.0 + float(c_star0 @ c_star0)
    for horizon in range(n_pts):
        if horizon >= 1:
            trans = a_bars[horizon]
            m_s = m_bars[horizon]
            core = _pinv(p_prefix + trans.T @ trans)
            alpha = alpha + 1.0 - float(r_vec @ core @ r_vec)
            r_vec = m_s.T @ trans @ core @ r_vec + ones
            gram = m_s.T @ m_s
            sandwich = m_s.T @ trans @ core @ trans.T @ m_s
            p_mat, p_prefix = (
                np.outer(ones, ones) + q_s * eps * eps * np.eye(r) + gram - sandwich
                for q_s in (1.0, 2.0)
            )
        eigs = np.linalg.eigvalsh(0.5 * (p_mat + p_mat.T))
        if eigs[0] < -1e-10 * max(1.0, eigs[-1]):
            raise NumericalDegeneracyError(
                f"bound recursion lost positive definiteness at step {horizon}"
            )
        psi = 2.0 * eps * c_star_norms[horizon]
        if horizon >= 1:
            psi += 4.0 * eps * float(c_star_norms[1:horizon].sum())
        drift = sqrt_r * float(gamma_values[:horizon].sum())
        c_j = c_hat[horizon]
        radius_sq = (drift + psi) ** 2 - alpha + float(c_j @ p_mat @ c_j)
        radius_sq = max(radius_sq, 0.0)
        p_plus = _pinv(p_mat)
        comp = 2.0 * math.sqrt(radius_sq) * np.sqrt(np.clip(np.diag(p_plus), 0.0, None))
        out.append(TrackingBoundStep(
            index=horizon, radius_sq=radius_sq, component_bounds=comp,
            misfit_offset=alpha, p_min_eig=float(eigs[0]),
        ))
    return out
