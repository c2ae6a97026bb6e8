"""Static multi-product coefficients in closed form, and exhaustive tuple search.

The coefficients solve ``sum c_i = 1`` and ``sum c_i / k_i^q = 0`` for q = p,
p + s, ..., p + s(r - 2) (s = 1: consecutive powers, s = 2: even ones), a
Vandermonde system in ``k_i^-s`` for ``c_i / k_i^p``. Its one solution is
``c_i = w_i / sum_j w_j``, ``w_i = k_i^(p + s(r-2)) / prod_{l != i} (k_l^s - k_i^s)``
(even powers: Low, Kliuchnikov and Wiebe, arXiv:1907.11679), evaluated in
rationals. The float system's condition number is a diagnostic of the tuple.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, islice
from typing import Sequence

import numpy as np

from .errors import ResourceLimitError
from .formulas import _step_count

SEARCH_KMAX_CAP = 40
# Keying takes 0.5 us a tuple at r = 5 and 4 us at r = 34 (one BLAS thread);
# the largest searches under this cap took 15-38 s (k_max, r = 40, 7; 27, 12;
# 36, 29 with even powers), so a capped search ranks in about a minute.
SEARCH_TUPLE_CAP = 20_000_000
# Tuples keyed at once (about 1 MB at r = 5, whatever the count); also the most
# tuples past the limit-th that a search solves exactly (4-5 ms each at r = 30).
_CHUNK = 4096
# Relative rounding of the float keys per unit of 1 + kappa: each w_i takes r roundings
# (a power, r - 1 divisions by exact integer gaps), the positive sums |w| and |w| k^-2p
# r + 2 more, the signed sum r - 1 on terms up to kappa |sum w|: (3r + 2) u (1 + kappa),
# u = 2^-53, under 1.4e-14 (1 + kappa) at r <= 40. Measured: under 6 u (1 + kappa).
_BAND = 1e-13


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


def _closed_form(p: int, steps: tuple[int, ...], s: int) -> list[Fraction]:
    """The coefficients of a strictly increasing tuple, in rationals."""
    w = [Fraction(k) ** (p + s * (len(steps) - 2)) / math.prod(j**s - k**s for j in steps if j != k)
         for k in steps]
    total = sum(w)
    return [x / total for x in w]


def solve_coefficients(p: int, steps: Sequence[int],
                       even_powers: bool = False) -> MpfScheme:
    """The exact mixture coefficients of a time-step tuple. ``even_powers``
    cancels q = p, p+2, ... only, for symmetric base formulas (odd orders vanish)."""
    if p < 1:
        raise ValueError("order p must be >= 1")
    steps = tuple(map(_step_count, steps))
    if not steps:
        raise ValueError("need at least one step count")
    if any(b <= a for a, b in zip(steps, steps[1:])):
        raise ValueError("steps must be strictly increasing")
    s, r = 2 if even_powers else 1, len(steps)
    powers = tuple(range(p, p + s * (r - 1), s))
    exact = _closed_form(p, steps, s)
    system = np.vstack([np.ones(r)] + [np.asarray(steps, dtype=float) ** -q for q in powers])
    return MpfScheme(order=p, steps=steps, coefficients=tuple(map(float, exact)), powers=powers,
                     kappa=float(sum(map(abs, exact))),
                     objective=float(sum(abs(c) / k ** (2 * p) for c, k in zip(exact, steps))),
                     system_condition=float(np.linalg.cond(system)))


def _float_keys(p: int, tuples: np.ndarray, s: int) -> tuple[np.ndarray, np.ndarray]:
    """Float objective and kappa of each row of ``tuples``; NaN where a power overflows."""
    r = tuples.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        w = tuples ** (p + s * (r - 2))
        powers = tuples**s
        for j in range(r):
            gaps = powers[:, j:j + 1] - powers
            gaps[:, j] = 1.0
            w /= gaps
        total = np.abs(w.sum(axis=1))
        return (np.abs(w) * tuples ** (-2.0 * p)).sum(axis=1) / total, np.abs(w).sum(axis=1) / total


def search_steps(p: int, k_max: int, r: int | None = None, *,
                 even_powers: bool = False, kappa_cap: float | None = None,
                 limit: int | None = 100) -> list[MpfScheme]:
    """Enumerate strictly increasing r-tuples in [1, k_max] and rank them by
    the objective ``sum |c_i| / k_i^{2p}`` (ties: smaller kappa, then
    lexicographic tuple), keeping the best ``limit`` (all for None).
    ``kappa_cap`` drops tuples whose ``kappa = sum |c_i|`` exceeds it.

    Each tuple is keyed by the closed form in floats, trusted to a relative
    ``_BAND * (1 + kappa)``. The tuples whose keys lie within that band of the
    ``limit``-th objective and of ``kappa_cap`` are solved exactly and ordered
    by their exact ``(objective, kappa, steps)``, so ties fall as stated. Over
    ``SEARCH_TUPLE_CAP`` tuples raise ``ResourceLimitError`` before any is formed.
    """
    if p < 1:
        raise ValueError("order p must be >= 1")
    r = p + 1 if r is None else r
    if r < 1:
        raise ValueError("tuple length must be >= 1")
    if k_max > SEARCH_KMAX_CAP:
        raise ValueError(f"exhaustive search capped at k_max={SEARCH_KMAX_CAP}")
    if k_max < r:
        raise ValueError("k_max too small for the tuple length")
    if limit is not None and limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    count = math.comb(k_max, r)
    if count > SEARCH_TUPLE_CAP:
        raise ResourceLimitError(f"tuple search capped at {SEARCH_TUPLE_CAP} tuples, "
                                 f"k_max={k_max} with r={r} gives {count}")
    s = 2 if even_powers else 1
    cap = math.inf if kappa_cap is None else kappa_cap
    need = count if limit is None else limit
    tuples = combinations(range(1, k_max + 1), r)
    kept = np.empty((0, r + 2))  # float objective and kappa, then the tuple
    for _ in range(0, count, _CHUNK):
        chunk = np.fromiter(chain.from_iterable(islice(tuples, _CHUNK)), float).reshape(-1, r)
        kept = np.concatenate([kept, np.column_stack([*_float_keys(p, chunk, s), chunk])])
        slack = 1 + _BAND * (1 + kept[:, 1])
        upper = np.sort((kept[:, 0] * slack)[kept[:, 1] * slack <= cap])
        threshold = upper[need - 1] if upper.size >= need else math.inf
        # A NaN key bounds nothing, so its tuple stays.
        kept = kept[~((kept[:, 0] > threshold * slack) | (kept[:, 1] > cap * slack))]
        if len(kept) > need + _CHUNK:
            raise ResourceLimitError(f"float keys cannot rank {len(kept)} tuples near the best {need}")
    schemes = (solve_coefficients(p, tuple(map(int, row[2:])), even_powers) for row in kept)
    return sorted((sch for sch in schemes if sch.kappa <= cap),
                  key=lambda sch: (sch.objective, sch.kappa, sch.steps))[:limit]


def rank_of_tuple(schemes: list[MpfScheme], steps: Sequence[int]) -> int | None:
    """Position of a tuple in a ranked scheme list, or None if absent."""
    target = tuple(map(_step_count, steps))
    for i, sch in enumerate(schemes):
        if sch.steps == target:
            return i
    return None
