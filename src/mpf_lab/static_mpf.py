"""Static multi-product coefficients from the extrapolation linear system,
plus exhaustive time-step tuple search.

The system is solved in exact rational arithmetic (the matrix entries are
1/k^q with integer k), which sidesteps the notorious ill-conditioning of the
float Vandermonde solve; the float condition number is still reported for
diagnostics.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

import numpy as np

from .formulas import _step_count

SEARCH_KMAX_CAP = 40


@dataclass(frozen=True)
class MpfScheme:
    """A time-step tuple with its extrapolation coefficients.

    ``kappa`` is the 1-norm of the coefficients (the sampling-noise
    amplification factor); ``objective`` is ``sum |c_i| / k_i^{2p}``, the
    tuple-quality factor from the error bound.
    """

    order: int
    steps: tuple[int, ...]
    coefficients: tuple[float, ...]
    powers: tuple[int, ...]
    kappa: float
    objective: float
    system_condition: float

    def residuals(self) -> list[float]:
        """Constraint residuals: [sum c - 1] + [sum c/k^q for each power]."""
        c = np.asarray(self.coefficients)
        k = np.asarray(self.steps, dtype=float)
        out = [float(c.sum() - 1.0)]
        out.extend(float(np.sum(c * k**-q)) for q in self.powers)
        return out


def _solve_rational(steps: Sequence[int], powers: Sequence[int]) -> list[Fraction]:
    r = len(steps)
    rows: list[list[Fraction]] = [[Fraction(1)] * r]
    rhs = [Fraction(1)] + [Fraction(0)] * len(powers)
    for q in powers:
        rows.append([Fraction(1, k ** q) for k in steps])
    aug = [row + [rhs[i]] for i, row in enumerate(rows)]
    for col in range(r):
        piv = next((i for i in range(col, r) if aug[i][col] != 0), None)
        if piv is None:
            raise ValueError("singular extrapolation system")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = aug[col][col]
        aug[col] = [x / inv for x in aug[col]]
        for i in range(r):
            if i != col and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[col])]
    return [aug[i][r] for i in range(r)]


def extrapolation_powers(p: int, r: int, even_powers: bool) -> tuple[int, ...]:
    """The r-1 cancellation powers: p, p+1, ... or p, p+2, ... when the base
    formula is time-symmetric and only even error orders survive."""
    step = 2 if even_powers else 1
    return tuple(p + step * i for i in range(r - 1))


def solve_coefficients(p: int, steps: Sequence[int],
                       even_powers: bool = False) -> MpfScheme:
    """Solve for the mixture coefficients of the given time-step tuple.

    ``even_powers=False`` imposes the consecutive powers q = p..p+r-2;
    ``even_powers=True`` imposes q = p, p+2, ..., matching symmetric base
    formulas whose odd-order error terms vanish identically.
    """
    if p < 1:
        raise ValueError("order p must be >= 1")
    steps = tuple(map(_step_count, steps))
    if not steps:
        raise ValueError("need at least one step count")
    if any(b <= a for a, b in zip(steps, steps[1:])):
        raise ValueError("steps must be strictly increasing")
    powers = extrapolation_powers(p, len(steps), even_powers)
    exact = _solve_rational(steps, powers)
    coeffs = tuple(float(c) for c in exact)
    kappa = float(sum(abs(c) for c in exact))
    objective = float(sum(abs(c) / k ** (2 * p) for c, k in zip(exact, steps)))
    karr = np.asarray(steps, dtype=float)
    system = np.vstack([np.ones(len(steps))] + [karr**-q for q in powers])
    return MpfScheme(
        order=p,
        steps=steps,
        coefficients=coeffs,
        powers=powers,
        kappa=kappa,
        objective=objective,
        system_condition=float(np.linalg.cond(system)),
    )


def _solve_float(steps: np.ndarray, powers: Sequence[int]) -> np.ndarray:
    rows = [np.ones(steps.size)] + [steps**-q for q in powers]
    rhs = np.zeros(len(powers) + 1)
    rhs[0] = 1.0
    return np.linalg.solve(np.vstack(rows), rhs)


def search_steps(p: int, k_max: int, r: int | None = None, *,
                 even_powers: bool = False, kappa_cap: float | None = None,
                 limit: int | None = 100) -> list[MpfScheme]:
    """Enumerate strictly increasing r-tuples in [1, k_max] and rank them by
    the objective ``sum |c_i| / k_i^{2p}`` (ties: smaller kappa, then
    lexicographic tuple).

    Ranking uses a float solve; the returned schemes are re-solved exactly.
    ``kappa_cap`` drops tuples whose coefficient 1-norm ``kappa = sum |c_i|``
    exceeds it.
    Only the best ``limit`` are kept while ranking (all for None).
    """
    if p < 1:
        raise ValueError("order p must be >= 1")
    if r is None:
        r = p + 1
    if r < 1:
        raise ValueError("tuple length must be >= 1")
    if k_max > SEARCH_KMAX_CAP:
        raise ValueError(f"exhaustive search capped at k_max={SEARCH_KMAX_CAP}")
    if k_max < r:
        raise ValueError("k_max too small for the tuple length")
    powers = extrapolation_powers(p, r, even_powers)

    def candidates():
        for tup in combinations(range(1, k_max + 1), r):
            karr = np.asarray(tup, dtype=float)
            try:
                c = _solve_float(karr, powers)
            except np.linalg.LinAlgError:
                continue
            kappa = float(np.abs(c).sum())
            if kappa_cap is None or kappa <= kappa_cap:
                yield float(np.sum(np.abs(c) * karr ** (-2.0 * p))), kappa, tup

    ranked = sorted(candidates()) if limit is None else heapq.nsmallest(limit, candidates())
    return [solve_coefficients(p, tup, even_powers) for _, _, tup in ranked]


def rank_of_tuple(schemes: list[MpfScheme], steps: Sequence[int]) -> int | None:
    """Position of a tuple in a ranked scheme list, or None if absent."""
    target = tuple(map(_step_count, steps))
    for i, sch in enumerate(schemes):
        if sch.steps == target:
            return i
    return None
