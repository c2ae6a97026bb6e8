"""Command-line entry point.

Subcommands map one-to-one onto the experiment scenarios; every run prints a
CSV document (or writes it with --out) whose header comments contain the
schema version and the fully resolved configuration, so outputs are
self-describing and reproducible from their own header.

Exit codes: 0 success, 2 invalid configuration or unwritable output path,
3 resource cap exceeded or memory refused, 4 solver or numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import NumericalDegeneracyError, ResourceLimitError, SolverError
from .experiments import (SCENARIOS, config_help, parse_config_text, resolve_config,
                          run_scenario)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RESOURCE = 3
EXIT_SOLVER = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mpf-lab",
        description="product-formula and multi-product-formula experiments",
    )
    sub = parser.add_subparsers(dest="scenario", required=True)
    for name in SCENARIOS:
        p = sub.add_parser(name, help=f"run the {name} scenario", epilog=config_help(name),
                           formatter_class=argparse.RawDescriptionHelpFormatter)
        p.add_argument("--config", type=Path, default=None,
                       help="flat key=value config file")
        p.add_argument("--seed", type=int, default=None,
                       help="master RNG seed (the seed config key)")
        p.add_argument("--out", type=str, default="-",
                       help="output CSV path ('-' for stdout)")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE",
                       help="override a config key (keys listed below)")
    return parser


def _collect_overrides(pairs: list[str]) -> dict[str, str]:
    out: dict[str, str] = {}
    for item in pairs:
        if "=" not in item:
            raise ValueError(f"override must look like KEY=VALUE, got {item!r}")
        key, _, value = item.partition("=")
        out[key.strip()] = value.strip()
    return out


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        sources = []
        if args.config is not None:
            sources.append(parse_config_text(args.config.read_text()))
        sources.append(_collect_overrides(args.overrides))
        if args.seed is not None:
            sources.append({"seed": str(args.seed)})
        cfg = resolve_config(args.scenario, *sources)
        paths = list(filter(None, ["" if args.out == "-" else args.out,
                                   cfg.get("trajectory_out", "")]))
        if len(paths) == 2 and Path(paths[0]).resolve() == Path(paths[1]).resolve():
            raise ValueError(f"--out and trajectory_out name the same file: {paths[1]}")
        for path in paths:
            # Refuse an unwritable output before the run; leave the files as they were.
            existed = Path(path).exists()
            Path(path).open("a").close()
            if not existed:
                Path(path).unlink()
        doc, trajectory = run_scenario(args.scenario, cfg)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ResourceLimitError, MemoryError) as exc:
        print(f"resource limit: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_RESOURCE
    except (SolverError, NumericalDegeneracyError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except ArithmeticError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    if args.out == "-":
        sys.stdout.write(doc.text())
    else:
        Path(args.out).write_text(doc.text())
    if trajectory is not None:
        Path(cfg["trajectory_out"]).write_text(trajectory.text())
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
