"""Two short sets of runs of the same code agree within the declared bounds.

For each workload in BENCHMARK.json, each set runs the same three seeds with
--seconds 16 (seven fresh interpreters per run: fewer let one slow
interpreter move a median); for every end-to-end metric the two medians may
differ by at most the metric's bound, in either direction.  Takes about two
minutes per workload.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
SEEDS = (1, 2, 3)


def _run_set(workload: str) -> dict:
    values: dict[str, list] = {}
    for seed in SEEDS:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", str(seed), "--seconds", "16", "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    return {name: statistics.median(v) for name, v in values.items()}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_two_sets_agree_within_bounds(workload):
    first, second = _run_set(workload), _run_set(workload)
    assert set(first) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        name = metric["name"]
        change = abs(second[name] - first[name]) / first[name]
        assert change <= metric["bound"], (name, first[name], second[name])
