#!/usr/bin/env python3
"""Benchmark of the mumbounds pipeline.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see workloads.py and bench/README.md) with one caller
in a closed loop: the next job starts when the previous one has ended.
Whole passes over the workload's job list repeat until ``--seconds``
have gone by; every job's output is checked.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  With ``--trace 0`` the metrics are the end-to-end
ones; with ``--trace 1`` the run is split into an untraced and a traced
half and the metrics are the per-layer ones from the traced half.
``--workload all`` runs every workload in turn, each in its own process.
``--tiny`` runs the d=16 workloads at d=3 with one set-up repeat, for
the self-test.  The benchmark uses the mumbounds sources of the checkout
it sits in (``src/``) and writes only under ``bench/out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOADS = ("paper-d3", "scan-d16", "threshold-file-d16", "cli-mixed")
FILE_D = 16
TINY_FILE_D = 3
SETUP_REPEATS = 7
P90_MIN_JOBS = 100
CHILD_TIMEOUT_S = 120


def load_program() -> None:
    """Put the checkout's sources first on the path, or exit with an error."""
    init = SRC / "mumbounds" / "__init__.py"
    if not init.is_file():
        sys.exit(f"bench: no mumbounds sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import mumbounds

    if Path(mumbounds.__file__).resolve() != init.resolve():
        sys.exit(f"bench: imported mumbounds from {mumbounds.__file__}, not {SRC}")


def fresh_interpreter_s(code: str, repeats: int) -> float:
    """Median wall time of a fresh interpreter running ``code``.

    One untimed warm-up run comes first, so that byte-code compilation
    of the sources is not counted.
    """
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    times = []
    for index in range(repeats + 1):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", code], env=env, check=True, timeout=CHILD_TIMEOUT_S
        )
        if index:
            times.append(time.perf_counter() - start)
    return statistics.median(times)


class Tally:
    """Pass and job times, attempts and failures of one run."""

    def __init__(self) -> None:
        self.pass_s: list[float] = []
        self.job_s: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []

    def run_for(self, jobs, seconds: float) -> int:
        """Run whole passes until ``seconds`` have gone by (at least one)."""
        start = time.perf_counter()
        passes = 0
        while passes == 0 or time.perf_counter() - start < seconds:
            outputs = []
            pass_start = time.perf_counter()
            for job in jobs:
                job_start = time.perf_counter()
                try:
                    output, error = job.run(), None
                except Exception as exc:  # a failed job is counted, the run goes on
                    traceback.print_exc()
                    output, error = None, f"raised {type(exc).__name__}: {exc}"
                self.job_s.append(time.perf_counter() - job_start)
                outputs.append((job, output, error))
            self.pass_s.append(time.perf_counter() - pass_start)
            passes += 1
            for job, output, error in outputs:
                self.attempted += 1
                error = error or job.check(output)
                if error:
                    self.failures.append(f"{job.label}: {error}")
        return passes


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def blas_info() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"name": blas.get("name"), "version": blas.get("version"), "threads": None}
    with open("/proc/self/maps") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                info["threads"] = getter()
                return info
    return info


def cpu_info() -> dict:
    info: dict = {"nproc": len(os.sched_getaffinity(0)), "model": platform.processor()}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["model"] = line.split(":", 1)[1].strip()
                    break
        caches = {}
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level} {kind}"] = (index / "size").read_text().strip()
        info["caches"] = caches
    except OSError:
        pass
    return info


def environment() -> dict:
    import numpy as np

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "cpu": cpu_info(),
        "note": "every working set fits in L3; bytes are computed, not measured bandwidth",
    }


def peak_rss_mb(in_children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if in_children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def run_workload(args) -> dict:
    import tracing
    import workloads

    file_d = TINY_FILE_D if args.tiny else FILE_D
    repeats = 1 if args.tiny else SETUP_REPEATS
    run_cli = workloads.in_process_cli if args.trace else workloads.subprocess_cli
    OUT.mkdir(exist_ok=True)
    tally = Tally()
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"{args.workload}-") as tmp:
        workload = workloads.BUILDERS[args.workload](Path(tmp), args.seed, file_d, run_cli)
        if not args.trace:
            tally.run_for(workload.jobs, args.seconds)
            metrics = {
                "pass_s": (statistics.median(tally.pass_s), "s"),
                "job_s.p50": (statistics.median(tally.job_s), "s"),
                "peak_rss_mb": (peak_rss_mb(workload.in_children), "MB"),
            }
            setup = (
                "import mumbounds.cli\n"
                "from mumbounds.mums import standard_family\n"
                f"standard_family({workload.setup_d}, {workload.setup_t!r})\n"
            )
            metrics["setup_s"] = (fresh_interpreter_s(setup, repeats), "s")
        else:
            untraced = tally.run_for(workload.jobs, args.seconds / 2)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = tally.run_for(workload.jobs, args.seconds / 2)
            finally:
                tracer.uninstall()
            tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
            untraced_s = statistics.median(tally.pass_s[:untraced])
            traced_s = statistics.median(tally.pass_s[untraced:])
            print(f"untraced pass_s = {untraced_s!r} s ({untraced} passes)")
            print(f"traced pass_s = {traced_s!r} s ({traced} passes)")
            metrics = tracer.layer_metrics(traced)
            metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
            start_s = fresh_interpreter_s("import mumbounds.cli", repeats)
            metrics["cli.process_start_ms"] = (start_s * 1e3, "ms")

    print(f"passes = {len(tally.pass_s)}, jobs = {len(tally.job_s)}")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name} = {value!r} {unit}")
    print(f"fail_ratio = {len(tally.failures)}/{tally.attempted}")
    if not args.trace and len(tally.job_s) >= P90_MIN_JOBS:
        p90 = statistics.quantiles(tally.job_s, n=10)[-1]
        print(f"job_s.p90 = {p90!r} s (of {len(tally.job_s)} jobs)")
    for failure in tally.failures:
        print(f"check failed: {failure}")
    print(f"checks: {tally.attempted - len(tally.failures)} of {tally.attempted} jobs passed")
    return {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def run_all(args) -> dict:
    """Run every workload in its own process and merge the results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        print(f"== {name}", flush=True)
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.exit(f"bench: workload {name} exited with code {proc.returncode}")
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}/{metric}"] = value
    return merged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="d=3 in place of d=16 (self-test)")
    args = parser.parse_args(argv)

    load_program()
    print(f"workload = {args.workload}, seed = {args.seed}, seconds = {args.seconds}, "
          f"trace = {args.trace}")
    if args.workload == "all":
        result = run_all(args)
    else:
        print("env " + json.dumps(environment()))
        result = run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
