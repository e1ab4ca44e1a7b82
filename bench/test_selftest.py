"""Fast self-test of the benchmark, at a tiny size (d=3 in place of d=16).

Checks that every metric BENCHMARK.json names is emitted with its unit,
that every job passes its output check, and that the per-pass counts
and ratios of a traced run repeat exactly on other inputs and with more
passes.  It asserts counts only, never wall time.

Run:  python3 -m pytest -q bench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def run(workload: str, trace: int, seed: int = 1, seconds: float = 0, bench: Path = BENCH):
    return subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace), "--tiny"],
        capture_output=True,
        text=True,
        timeout=300,
    )


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"], proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result


def units(metrics) -> dict:
    return {m["name"]: m["unit"] for m in metrics}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_metrics_emitted_and_counts_repeat(workload):
    untraced = result_of(run(workload, trace=0))
    first = result_of(run(workload, trace=1, seed=1))
    second = result_of(run(workload, trace=1, seed=2, seconds=1))

    emitted = {name: m["unit"] for name, m in untraced["metrics"].items()}
    assert emitted == units(SPEC["end_to_end"])
    for traced in (first, second):
        emitted = {name: m["unit"] for name, m in traced["metrics"].items()}
        assert emitted == units(SPEC["per_layer"])

    counts = [name for name, unit in units(SPEC["per_layer"]).items() if unit in ("count", "ratio")]
    for name in (
        "threshold.find_threshold.evaluations",
        "states.load_state.calls",
        "criteria.build_correlation_matrix.P.calls",
    ):
        assert name in counts
    for name in counts:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_fails_without_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run("paper-d3", trace=0, bench=tmp_path / "bench")
    assert proc.returncode != 0
    assert "{" not in proc.stdout
