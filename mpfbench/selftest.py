"""Self-test of the benchmark at tiny configs.

Usage (from the repository root):

    python3 mpfbench/selftest.py [--scale tiny|full] [--workloads shootout,bounds]

For each workload it runs ``run.py`` once untraced and twice traced, and
checks that:

* the result line has exactly the keys correct, attempted, failed and
  metrics, with every run passing its output checks;
* the untraced result carries every end-to-end metric BENCHMARK.json names,
  and the traced one every per-layer metric, each with its unit;
* the two traced runs made exactly the same number of calls to every
  wrapped function;
* the workload's checker rejects corrupted copies of the run's CSV.

It also checks that ``run.py`` fails, printing no result, in a directory
that holds only BENCHMARK.json and the benchmark's own files.  Exits 0 when
every check passes.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS, Workload

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = ROOT / ".bench_work"
SEED = 11

# Per workload: a column and a value that must make every row fail.
CORRUPTIONS = {
    "shootout": ("err_dynamic_exact", 10.0),
    "bounds": ("bound", -1.0),
}


def bench(args: list[str], cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "mpfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"run.py exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_result(result: dict, declared: list[dict]) -> list[str]:
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not result.get("correct") or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        problems.append(f"runs failed: {result.get('failed')} of {result.get('attempted')}")
    metrics = result.get("metrics", {})
    for entry in declared:
        got = metrics.get(entry["name"])
        if got is None:
            problems.append(f"missing metric {entry['name']}")
        elif got.get("unit") != entry["unit"] or not isinstance(got.get("value"), (int, float)):
            problems.append(f"metric {entry['name']} is {got}, declared unit {entry['unit']}")
    extra = set(metrics) - {entry["name"] for entry in declared}
    if extra:
        problems.append(f"undeclared metrics {sorted(extra)}")
    return problems


def corrupted_copies(text: str, column: str, value: float) -> dict[str, str]:
    lines = text.splitlines()
    header_at = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    pos = lines[header_at].split(",").index(column)

    def with_cell(row: str, cell: str) -> str:
        cells = row.split(",")
        cells[pos] = cell
        return ",".join(cells)

    head, rows = lines[:header_at + 1], lines[header_at + 1:]
    return {
        "nan cell": "\n".join(head + rows[:-1] + [with_cell(rows[-1], "nan")]) + "\n",
        f"{column} set to {value}":
            "\n".join(head + [with_cell(r, repr(value)) for r in rows]) + "\n",
        "last row dropped": "\n".join(lines[:-1]) + "\n",
        "schema line dropped": "\n".join(lines[1:]) + "\n",
    }


def test_workload(workload: Workload, scale: str, declared: dict) -> list[str]:
    common = ["--workload", workload.name, "--seed", str(SEED), "--seconds", "1",
              "--scale", scale]
    problems = check_result(result_of(bench(common + ["--trace", "0"])), declared["end_to_end"])
    counts = []
    for _ in range(2):
        traced = result_of(bench(common + ["--trace", "1"]))
        problems += check_result(traced, declared["per_layer"])
        counts.append({k: v["value"] for k, v in traced["metrics"].items() if k.endswith(".calls")})
    if counts[0] != counts[1]:
        diff = {k: (v, counts[1].get(k)) for k, v in counts[0].items() if v != counts[1].get(k)}
        problems.append(f"call counts differ between traced runs: {diff}")
    if not any(counts[0].values()):
        problems.append("the traced run recorded no calls")

    out = sorted((WORK / f"{workload.name}-{scale}-seed{SEED}-trace0").glob("*-out.csv"))[0]
    params = workload.resolved(SEED, tiny=(scale == "tiny"))
    text = out.read_text()
    if workload.check(text, params):
        problems.append(f"checker rejects the untouched CSV: {workload.check(text, params)}")
    for label, bad in corrupted_copies(text, *CORRUPTIONS[workload.name]).items():
        if not workload.check(bad, params):
            problems.append(f"checker accepts a corrupted CSV ({label})")
    return problems


def test_bare_directory() -> list[str]:
    """run.py must fail without a result where only the benchmark exists."""
    bare = WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(["--workload", "shootout", "--seed", "1", "--seconds", "1", "--trace", "0"],
                 cwd=bare)
    shutil.rmtree(bare)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    parser = argparse.ArgumentParser(description="benchmark self-test")
    parser.add_argument("--scale", choices=("tiny", "full"), default="tiny")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = test_bare_directory()
    for name in args.workloads.split(","):
        problems = test_workload(WORKLOADS[name], args.scale, declared)
        print(f"{name}: {'ok' if not problems else 'FAILED'}")
        failures += [f"{name}: {p}" for p in problems]
    for failure in failures:
        print(f"  {failure}")
    print("self-test " + ("passed" if not failures else f"failed ({len(failures)} problems)"))
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
