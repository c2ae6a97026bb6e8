"""Traced CLI run: wraps the public functions of each ``mpf_lab`` module,
records one span per call, then runs the CLI unchanged.

Usage: ``python tracer.py SPANS.json <mpf-lab CLI arguments...>``

Spans (name, parent span, start, end, raised) stay in memory and are written
to SPANS.json when the CLI returns; the process exits with the CLI's code.
Nothing under ``src/`` is modified: each wrapper replaces the name wherever
callers look it up, on its class or in every ``mpf_lab`` module that
imported it.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# Wrapped functions per layer; a layer is one module of the package.
LAYERS: dict[str, tuple[str, ...]] = {
    "pauli": ("to_dense", "commutator_minus_i"),
    "heisenberg": ("build_heisenberg_chain",),
    "statesim": ("FragmentEvolver.apply", "SpectralOracle.__init__",
                 "SpectralOracle.evolve", "mixture_trace_norm"),
    "formulas": ("ProductFormula.apply", "rho_k_state"),
    "static_mpf": ("solve_coefficients",),
    "bounds": ("formula_commutator_sum", "spectral_norm_dense", "spectral_norm_symbolic",
               "MixtureBoundEvaluator.__init__", "MixtureBoundEvaluator.at",
               "formula_conjugated_sum", "product_formula_error_bound"),
    "dynamic_mpf": ("trotter_states", "q_from_states", "gram_from_states", "l_from_states",
                    "inject_noise", "minimax_step", "dynamic_project"),
    "experiments": ("run_scenario",),
}

# Functions that can raise a solver, degeneracy or convergence error.
FAILABLE = frozenset({
    "statesim.SpectralOracle.__init__", "statesim.mixture_trace_norm",
    "bounds.spectral_norm_symbolic", "dynamic_mpf.minimax_step",
    "dynamic_mpf.dynamic_project",
})

# The per-call figures the roadmap names: fragment kernel, Trotter batch and k0
# push, Gram overlaps, robust step, one spectral norm, one window aggregate,
# and the exact-evolution eigh.
PER_CALL = frozenset({
    "statesim.FragmentEvolver.apply", "formulas.ProductFormula.apply",
    "dynamic_mpf.trotter_states", "dynamic_mpf.q_from_states",
    "dynamic_mpf.gram_from_states", "dynamic_mpf.minimax_step",
    "bounds.spectral_norm_dense", "bounds.spectral_norm_symbolic",
    "bounds.formula_conjugated_sum", "statesim.SpectralOracle.__init__",
})


def span_names() -> list[str]:
    return [f"{module}.{qualname}" for module, names in LAYERS.items() for qualname in names]


class Tracer:
    """Span store plus the wrappers that fill it."""

    def __init__(self):
        self.names = span_names()
        self.name_ids: list[int] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.raised: list[bool] = []
        self._stack: list[int] = []

    def _wrap(self, name_id: int, fn):
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        raised, stack, clock = self.raised, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(name_ids)
            name_ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            raised.append(False)
            stack.append(sid)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised[sid] = True
                raise
            finally:
                ends[sid] = clock()
                stack.pop()

        return wrapper

    def install(self) -> None:
        package = [mod for name, mod in sys.modules.items()
                   if name == "mpf_lab" or name.startswith("mpf_lab.")]
        for name_id, full in enumerate(self.names):
            module, _, qualname = full.partition(".")
            mod = importlib.import_module(f"mpf_lab.{module}")
            owner_name, _, attr = qualname.rpartition(".")
            if owner_name:
                owner = getattr(mod, owner_name)
                setattr(owner, attr, self._wrap(name_id, owner.__dict__[attr]))
                continue
            original = getattr(mod, attr)
            wrapper = self._wrap(name_id, original)
            for other in package:
                for key, value in list(vars(other).items()):
                    if value is original:
                        setattr(other, key, wrapper)

    def dump(self, path: str, exit_code: int) -> None:
        spans = list(zip(self.name_ids, self.parents, self.starts, self.ends, self.raised))
        with open(path, "w") as fh:
            json.dump({"exit_code": exit_code, "names": self.names, "spans": spans}, fh)


def main(argv: list[str]) -> int:
    spans_path, cli_argv = argv[0], argv[1:]
    import mpf_lab  # noqa: F401  (loads every module before patching)
    from mpf_lab import cli

    tracer = Tracer()
    tracer.install()
    code = cli.main(cli_argv)
    tracer.dump(spans_path, code)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
