"""The benchmark's files of record: one ``BENCH_<workload>.json`` at the repo
root per workload of ``BENCHMARK.json``, each the last line of a
``mpfbench/run.py`` run, with the end-to-end metrics the benchmark declares."""

import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_bench_record_holds_a_passing_run_of_the_declared_metrics(workload):
    record = json.loads((ROOT / f"BENCH_{workload}.json").read_text())
    assert isinstance(record, dict)
    assert record["correct"] is True
    assert record["failed"] == 0
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert set(record["metrics"]) == set(declared)
    for name, unit in declared.items():
        metric = record["metrics"][name]
        assert metric["unit"] == unit, name
        value = metric["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value) and value > 0, name
