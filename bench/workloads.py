"""The benchmark's workloads: their inputs, their jobs and the output checks.

Every workload drives mumbounds only through the public functions of
its modules, or through the ``mumbounds`` CLI.  Library calls go through
module attributes (``cli.run_sweep``, not a local alias) so that a traced
run sees them.  A job is one user request; its check returns an error
message, or None when the output is right.  Inputs are generated from
the seed into the run's temporary directory.
"""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from mumbounds import basis, cli, criteria, linalg, mums, states

# Horodecki detection thresholds q* at t = 0.01 from the paper (README table)
REFERENCE_Q = {0.2: 0.994054, 0.4: 0.99461, 0.6: 0.99626, 0.8: 0.998123, 0.9: 0.999067}
REFERENCE_Q_TOL = 5e-3
PAPER_T = 0.01
CLOSED_FORM_TOL = 1e-8
CLI_TIMEOUT_S = 60


@dataclass(frozen=True)
class Job:
    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


@dataclass(frozen=True)
class Workload:
    jobs: list[Job]
    setup_d: int          # set-up builds standard_family(setup_d, setup_t)
    setup_t: float
    in_children: bool     # jobs run as child processes


def admissible_interval(d: int) -> mums.TInterval:
    return mums.t_interval(mums.build_f_blocks(basis.standard_basis(d)), d)


def fixed_t(d: int) -> float:
    """The admissible t used at dimension d: 0.9 of the upper end."""
    return 0.9 * admissible_interval(d).upper


def tiles_t_sweep(steps: int) -> cli.SweepSpec:
    """The paper's tiles bound-vs-t sweep over 0.9 of the d=3 interval."""
    rng = admissible_interval(3)
    return cli.SweepSpec(
        variable="t",
        start=0.9 * rng.lower,
        stop=0.9 * rng.upper,
        steps=steps,
        state_family="tiles",
        fixed={"p": 0.99},
    )


def write_pure_state(d: int, seed: int, path: Path) -> linalg.SchmidtData:
    """Save a seeded dense random pure state; return its Schmidt form."""
    psi = states.random_pure(d, d, seed)
    states.save_state(np.outer(psi, psi.conj()), path)
    return linalg.schmidt_decompose(psi, d, d)


def check_threshold(result, tol: float, reference: float | None = None) -> str | None:
    if not result.found:
        return "no threshold found"
    lo, hi = result.bracket
    if hi - lo > tol:
        return f"bracket width {hi - lo:.3e} exceeds tol {tol:g}"
    if not result.margins[0] <= 0.0 < result.margins[1]:
        return f"bracket margins {result.margins} do not straddle zero"
    if reference is not None and abs(result.threshold - reference) > REFERENCE_Q_TOL:
        return f"threshold {result.threshold:.6f} is not within {REFERENCE_Q_TOL} of {reference}"
    return None


def same_as_first(label: str) -> Callable[[str], str | None]:
    """Check that a CSV is byte-identical to the first one of the run."""
    seen: list[str] = []

    def check(csv: str) -> str | None:
        if not seen:
            seen.append(csv)
        return None if csv == seen[0] else f"{label} CSV bytes differ from the first pass"

    return check


def paper_d3(tmp: Path, seed: int, d: int, run_cli) -> Workload:
    jobs = []
    for upsilon, q_ref in REFERENCE_Q.items():
        query = cli.ThresholdQuery(
            state_family="horodecki",
            t=PAPER_T,
            search_variable="q",
            tolerance=1e-7,
            fixed={"upsilon": upsilon},
        )
        jobs.append(
            Job(
                f"threshold upsilon={upsilon}",
                lambda query=query: cli.run_threshold(query)[0],
                lambda result, q_ref=q_ref, tol=query.tolerance: check_threshold(result, tol, q_ref),
            )
        )
    sweeps = {
        "tiles bound-vs-t": tiles_t_sweep(81),
        "horodecki bound-vs-upsilon": cli.SweepSpec(
            variable="upsilon",
            start=0.0,
            stop=1.0,
            steps=101,
            state_family="horodecki",
            fixed={"q": 0.995, "t": 0.08},
        ),
    }
    for label, spec in sweeps.items():
        jobs.append(
            Job(label, lambda spec=spec: cli.render_csv(cli.run_sweep(spec)), same_as_first(label))
        )
    return Workload(jobs, setup_d=3, setup_t=PAPER_T, in_children=False)


def scan(tmp: Path, seed: int, d: int, run_cli) -> Workload:
    path = tmp / f"pure-d{d}.json"
    schmidt = write_pure_state(d, seed, path)
    rng = admissible_interval(d)
    # 21 points over 0.9 of the interval; none of them is t = 0
    spec = cli.SweepSpec(
        variable="t",
        start=0.9 * rng.lower,
        stop=0.9 * rng.upper,
        steps=21,
        state_family="file",
        file=str(path),
    )

    def check(rows) -> str | None:
        if len(rows) != spec.steps:
            return f"{len(rows)} rows, expected {spec.steps}"
        for row in rows:
            expected = criteria.pure_trace_norm_closed_form(schmidt, d, row["kappa"])
            if abs(row["traceNormP"] - expected) > CLOSED_FORM_TOL:
                return (
                    f"t={row['var']:.6g}: traceNormP {row['traceNormP']!r} differs from "
                    f"the closed form {expected!r}"
                )
        return None

    job = Job(f"t-sweep d={d}", lambda: cli.run_sweep(spec), check)
    return Workload([job], setup_d=d, setup_t=0.9 * rng.upper, in_children=False)


def threshold_file(tmp: Path, seed: int, d: int, run_cli) -> Workload:
    path = tmp / f"pure-d{d}.json"
    schmidt = write_pure_state(d, seed, path)
    t = fixed_t(d)
    query = cli.ThresholdQuery(
        state_family="file", t=t, search_variable="p", tolerance=1e-6, file=str(path)
    )

    def check(outcome) -> str | None:
        result, fam = outcome
        margin_at_one = criteria.pure_trace_norm_closed_form(schmidt, d, fam.kappa) - 1.0 - fam.kappa
        if margin_at_one <= 0.0:
            return f"closed-form margin at p=1 is {margin_at_one:.3e}, not positive"
        return check_threshold(result, query.tolerance)

    job = Job(f"p-threshold d={d}", lambda: cli.run_threshold(query), check)
    return Workload([job], setup_d=d, setup_t=t, in_children=False)


def key_values(stdout: str) -> dict[str, str]:
    return dict(line.split("=", 1) for line in stdout.splitlines() if "=" in line)


def expect_lines(*expected: str) -> Callable[[str], str | None]:
    """Check that each expected line appears in the output."""

    def check(stdout: str) -> str | None:
        lines = stdout.splitlines()
        missing = [line for line in expected if line not in lines]
        return f"missing output lines {missing}" if missing else None

    return check


def subprocess_cli(argv: list[str]) -> tuple[int, str]:
    """Run one CLI call in a fresh interpreter on the checkout's sources."""
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-m", "mumbounds.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=CLI_TIMEOUT_S,
    )
    return proc.returncode, proc.stdout + proc.stderr


def in_process_cli(argv: list[str]) -> tuple[int, str]:
    """Run one CLI call through mumbounds.cli.main in this process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = cli.main(argv)
    return code, out.getvalue()


def cli_mixed(tmp: Path, seed: int, d: int, run_cli) -> Workload:
    state_file = tmp / f"random-d{d}.json"
    csv_file = tmp / "tiles_vs_t.csv"
    t = fixed_t(d)
    sweep = tiles_t_sweep(81)

    # oracles, computed in-process before any job runs
    rho = states.random_density(d * d, seed=seed)
    oracle_file = tmp / "oracle-state.json"
    states.save_state(rho, oracle_file)
    oracle_state = oracle_file.read_bytes()
    oracle_report = criteria.concurrence_lower_bound(rho, mums.standard_family(d, t))
    oracle_csv = cli.render_csv(cli.run_sweep(sweep))

    def check_state_file(stdout) -> str | None:
        if state_file.read_bytes() != oracle_state:
            return "written state file differs from save_state(random_density(...))"
        return None

    def check_bound(stdout) -> str | None:
        trace_norm = float(key_values(stdout).get("traceNormP", "nan"))
        if not abs(trace_norm - oracle_report.trace_norm_p) <= 1e-9 * oracle_report.trace_norm_p:
            return f"traceNormP {trace_norm!r} differs from {oracle_report.trace_norm_p!r}"
        return None

    def check_threshold_lines(stdout) -> str | None:
        values = key_values(stdout)
        q = float(values.get("threshold", "nan"))
        if not abs(q - REFERENCE_Q[0.2]) <= REFERENCE_Q_TOL:
            return f"threshold {q!r} is not within {REFERENCE_Q_TOL} of {REFERENCE_Q[0.2]}"
        width = float(values.get("bracket_upper", "nan")) - float(values.get("bracket_lower", "nan"))
        if not width <= 1e-6 + 1e-11:  # printed to 12 significant digits
            return f"bracket width {width:.3e} exceeds tol 1e-6"
        return None

    def check_csv(stdout) -> str | None:
        return None if csv_file.read_text() == oracle_csv else "sweep CSV differs from run_sweep"

    calls = [
        (
            ["gen-state", "--state", "random", "--d", str(d), "--seed", str(seed), "--out", str(state_file)],
            [expect_lines(f"wrote {state_file}"), check_state_file],
        ),
        (
            ["verify-state", "--file", str(state_file)],
            [expect_lines("status=valid", f"dim={d * d}")],
        ),
        (
            ["bound", "--state", "file", "--file", str(state_file), "--t", repr(t)],
            [expect_lines("state=file", f"d={d}", f"verdict={oracle_report.verdict}"), check_bound],
        ),
        (
            ["verify", "--d", str(d), "--t", repr(t)],
            [expect_lines(f"d={d}", "status=pass")],
        ),
        (
            ["threshold", "--state", "horodecki", "--upsilon", "0.2", "--t", repr(PAPER_T)],
            [expect_lines("criterion=separability", "search_variable=q"), check_threshold_lines],
        ),
        (
            [
                "sweep", "--state", "tiles", "--var", "t",
                "--start", repr(sweep.start), "--stop", repr(sweep.stop),
                "--steps", str(sweep.steps), "--p", "0.99", "--out", str(csv_file),
            ],
            [expect_lines(f"wrote {sweep.steps} rows to {csv_file}"), check_csv],
        ),
    ]

    def checker(checks):
        def check(outcome) -> str | None:
            code, stdout = outcome
            if code != 0:
                return f"exit code {code}: {stdout.strip()[-300:]}"
            for one in checks:
                error = one(stdout)
                if error:
                    return error
            return None

        return check

    jobs = [
        Job(argv[0], lambda argv=argv: run_cli(argv), checker(checks))
        for argv, checks in calls
    ]
    return Workload(jobs, setup_d=d, setup_t=t, in_children=run_cli is subprocess_cli)


BUILDERS = {
    "paper-d3": paper_d3,
    "scan-d16": scan,
    "threshold-file-d16": threshold_file,
    "cli-mixed": cli_mixed,
}
