"""mpf-lab benchmark: closed-loop CLI runs with end-to-end cost metrics, or one
traced run with per-layer timings.

Usage (from the repository root):

    python3 mpfbench/run.py --workload shootout --seed 2024 --seconds 30 --trace 0

One client runs one ``python -m mpf_lab.cli`` child at a time and starts
the next run only after the previous one has exited, until ``--seconds`` of
runs have been measured (at least one run).  Every run's CSV is checked
after the child exits.  With ``--trace 0`` the result carries wall_s,
cpu_s, peak_rss_mb and setup_s; with ``--trace 1`` it carries the per-layer
metrics of one traced run, and the traced run's overhead over an untraced
run of the same config.  The last line of standard output is the result
object; a fuller record goes to ``.bench_work/`` in the repository root.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from tracer import FAILABLE, PER_CALL, span_names
from workloads import WORKLOADS, Workload, parse_csv

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE_DIR = BENCH_DIR / "reference"
REFERENCE_SEED = 2024

# The fresh interpreters that measure setup_s, per benchmark run; half run
# before the CLI runs and half after, so that one slow spell of the machine
# does not set the median.
SETUP_REPEATS = 8
# Every child is killed past this point so the benchmark ends within 180 s.
RUN_BUDGET_S = 170.0
# OpenBLAS, OpenMP and MKL thread count given to every child: at most the
# usable cores and at most the 2 the workloads were sized on.
BLAS_THREAD_CAP = 2

SETUP_PROBE = (
    "import sys\n"
    "from mpf_lab.experiments import resolve_config\n"
    "resolve_config(sys.argv[1], dict(a.split('=', 1) for a in sys.argv[2:]))\n"
)


@dataclass
class Sample:
    """One finished child process."""

    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env(threads: int) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONSTARTUP", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env


def run_child(cmd: list[str], env: dict[str, str], deadline: float,
              stderr_path: Path) -> Sample:
    """Run one child to completion and read its resource use with wait4.

    The child is killed at ``deadline`` (a perf_counter value); a killed
    child reports a negative exit code.
    """
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
    # os.kill, not proc.kill: Popen.kill polls first, which would reap the
    # child before wait4 can read its rusage.
    timer = threading.Timer(max(deadline - start, 0.0), os.kill, (proc.pid, signal.SIGKILL))
    timer.start()
    try:
        # Wait without reaping, so the timer can never signal a reused pid.
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        wall = time.perf_counter() - start
    except BaseException:
        os.kill(proc.pid, signal.SIGKILL)
        os.wait4(proc.pid, 0)
        raise
    finally:
        timer.cancel()
        timer.join()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                  proc.returncode)


def quartiles(values: list[float]) -> dict[str, float]:
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def environment(threads: int, seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": nproc(),
        "blas_threads": threads,
        "seed": seed,
    }


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def reference_deviation(workload: Workload, seed: int, scale: str, text: str) -> dict | None:
    """Largest absolute and relative cell change against the committed
    reference CSV; information only, since some planned changes alter
    output on purpose."""
    path = REFERENCE_DIR / f"{workload.name}.csv"
    if seed != REFERENCE_SEED or scale != "full" or not path.is_file():
        return None
    ref_text = path.read_text()
    try:
        ref, cur = parse_csv(ref_text), parse_csv(text)
    except ValueError as exc:
        return {"error": str(exc)}
    if ref.header != cur.header or len(ref.rows) != len(cur.rows):
        return {"error": "header or row count differs"}
    max_abs = max_rel = 0.0
    for a, b in zip(ref.rows, cur.rows):
        for x, y in zip(a, b):
            if x == y or (math.isnan(x) and math.isnan(y)):
                continue
            diff = abs(x - y) if not (math.isnan(x) or math.isnan(y)) else math.inf
            max_abs = max(max_abs, diff)
            max_rel = max(max_rel, diff / max(abs(x), 1e-300))
    return {"max_abs": max_abs, "max_rel": max_rel, "identical": text == ref_text}


def layer_metrics(names: list[str], spans: list[list]) -> dict[str, dict]:
    """Per-function calls, busy, self and failure figures from the spans.

    busy_s counts a call only when no caller of the same name encloses it;
    self_s is a span's duration minus the spans directly under it.
    """
    calls = [0] * len(names)
    busy = [0.0] * len(names)
    self_s = [0.0] * len(names)
    failed = [0] * len(names)
    child_total = [0.0] * len(spans)
    for nid, parent, start, end, raised in spans:
        if parent >= 0:
            child_total[parent] += end - start
    for sid, (nid, parent, start, end, raised) in enumerate(spans):
        dur = end - start
        calls[nid] += 1
        self_s[nid] += dur - child_total[sid]
        failed[nid] += bool(raised)
        while parent >= 0 and spans[parent][0] != nid:
            parent = spans[parent][1]
        if parent < 0:
            busy[nid] += dur
    out = {}
    for nid, name in enumerate(names):
        out[f"{name}.calls"] = {"value": calls[nid], "unit": "count"}
        out[f"{name}.busy_s"] = {"value": busy[nid], "unit": "s"}
        out[f"{name}.self_s"] = {"value": self_s[nid], "unit": "s"}
        if name in FAILABLE:
            out[f"{name}.failed"] = {"value": failed[nid], "unit": "count"}
        if name in PER_CALL:
            per_call = busy[nid] / calls[nid] * 1e6 if calls[nid] else 0.0
            out[f"{name}.us_per_call"] = {"value": per_call, "unit": "us"}
    return out


class Bench:
    """One benchmark invocation: its workload, seed, children and findings."""

    def __init__(self, workload: Workload, seed: int, scale: str, trace: int):
        self.workload = workload
        self.seed = seed
        self.scale = scale
        self.threads = min(nproc(), BLAS_THREAD_CAP)
        self.env = child_env(self.threads)
        self.params = workload.resolved(seed, tiny=(scale == "tiny"))
        self.cli_args = workload.cli_args(seed, tiny=(scale == "tiny"))
        self.deadline = time.perf_counter() + RUN_BUDGET_S
        self.work = WORK / f"{workload.name}-{scale}-seed{seed}-trace{trace}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.failures: list[str] = []
        self.failed_runs: set[int] = set()
        self.deviations: list[dict | None] = []
        self.stats: dict = {}
        self.attempted = 0
        self.count = 0

    def _path(self, stem: str) -> Path:
        self.count += 1
        return self.work / f"{self.count:03d}-{stem}"

    def setup_time(self, repeats: int) -> list[float]:
        cmd = [sys.executable, "-c", SETUP_PROBE, self.workload.scenario,
               *(f"{k}={v}" for k, v in self.params.items())]
        times = []
        for _ in range(repeats):
            sample = run_child(cmd, self.env, self.deadline, self._path("setup.err"))
            if sample.exit_code != 0:
                raise RuntimeError(f"setup probe exited with {sample.exit_code}")
            times.append(sample.wall_s)
        return times

    def cli_run(self, traced: bool) -> tuple[Sample, Path | None]:
        """One checked CLI run; a failed run is recorded in self.failures."""
        out = self._path("out.csv")
        spans = out.with_name(out.stem + ".spans.json")
        prefix = ([sys.executable, str(BENCH_DIR / "tracer.py"), str(spans)] if traced
                  else [sys.executable, "-m", "mpf_lab.cli"])
        cmd = prefix + self.cli_args + ["--out", str(out)]
        self.attempted += 1
        sample = run_child(cmd, self.env, self.deadline, out.with_suffix(".err"))
        problems = ([f"exit code {sample.exit_code}"] if sample.exit_code != 0
                    else self.workload.check(out.read_text(), self.params))
        if problems:
            self.failed_runs.add(self.attempted)
            self.failures += [f"run {self.attempted}: {p}" for p in problems]
            return sample, None
        self.deviations.append(
            reference_deviation(self.workload, self.seed, self.scale, out.read_text()))
        return sample, spans if traced else None

    def measure(self, seconds: float) -> dict[str, dict]:
        setup = self.setup_time(SETUP_REPEATS // 2)
        samples: list[Sample] = []
        spent = 0.0
        # Start another run only when it can finish before the deadline.
        while not samples or (spent < seconds and time.perf_counter()
                              + 1.5 * max(s.wall_s for s in samples) < self.deadline):
            sample, _ = self.cli_run(traced=False)
            samples.append(sample)
            spent += sample.wall_s
        setup += self.setup_time(SETUP_REPEATS - SETUP_REPEATS // 2)
        self.stats = {
            "setup_s": quartiles(setup),
            "wall_s": quartiles([s.wall_s for s in samples]),
            "cpu_s": quartiles([s.cpu_s for s in samples]),
            "peak_rss_mb": quartiles([s.peak_rss_mb for s in samples]),
        }
        units = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
        return {name: {"value": self.stats[name]["median"], "unit": unit}
                for name, unit in units.items()}

    def trace(self) -> dict[str, dict]:
        plain, _ = self.cli_run(traced=False)
        traced, spans_path = self.cli_run(traced=True)
        spans = json.loads(spans_path.read_text())["spans"] if spans_path else []
        metrics = layer_metrics(span_names(), spans)
        metrics["trace.wall_s"] = {"value": traced.wall_s, "unit": "s"}
        metrics["trace.overhead_s"] = {"value": traced.wall_s - plain.wall_s, "unit": "s"}
        metrics["trace.spans"] = {"value": len(spans), "unit": "count"}
        self.stats = {"untraced_wall_s": plain.wall_s, "traced_wall_s": traced.wall_s}
        return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny runs the self-test configs")
    args = parser.parse_args(argv)

    if not (SRC / "mpf_lab" / "cli.py").is_file():
        print(f"error: no mpf_lab sources under {SRC}", file=sys.stderr)
        return 2

    bench = Bench(WORKLOADS[args.workload], args.seed, args.scale, args.trace)
    # The checks import numpy here; give this process the children's BLAS
    # thread count too.
    os.environ.update({k: bench.env[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                 "MKL_NUM_THREADS")})
    sys.path.insert(0, str(SRC))
    metrics = bench.trace() if args.trace else bench.measure(args.seconds)
    failed = len(bench.failed_runs)
    if args.trace:
        metrics["fail_ratio"] = {"value": failed / bench.attempted, "unit": "ratio"}

    record = {
        "workload": bench.workload.name,
        "scale": args.scale,
        "trace": args.trace,
        "cli_args": bench.cli_args,
        "environment": environment(bench.threads, args.seed),
        "attempted": bench.attempted,
        "failed": failed,
        "fail_ratio": failed / bench.attempted,
        "failures": bench.failures,
        "stats": bench.stats,
        "reference_deviation": bench.deviations,
        "metrics": metrics,
    }
    (bench.work / "record.json").write_text(json.dumps(record, indent=1))
    print(f"workload {bench.workload.name} ({args.scale}), seed {args.seed}: "
          f"{bench.attempted} run(s), fail_ratio {failed}/{bench.attempted}")
    print("environment: " + json.dumps(record["environment"]))
    for name, stat in bench.stats.items():
        print(f"{name}: {json.dumps(stat)}")
    for failure in bench.failures:
        print(f"FAILED {failure}")
    if any(d is not None for d in bench.deviations):
        print("reference deviation: " + json.dumps(bench.deviations))
    print(json.dumps({"correct": failed == 0, "attempted": bench.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
