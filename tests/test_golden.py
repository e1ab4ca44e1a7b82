"""Byte-for-byte output of the scripts and the CLI against recorded text.

Each case's expected text is one file in ``tests/data/golden/``: the
command, its exit code, its stdout and stderr, and every file it writes,
with the temporary directory written as ``<tmp>``.  A failing case shows
a readable diff.  The CLI corpus runs in-process through ``cli.main``,
in order in one directory, so later calls read the states that
``gen-state`` wrote; the two scripts run as subprocesses.  A ``bound
--out`` report is recorded as its parsed JSON object with sorted keys,
so only its values count, not their order.

After a deliberate output change, re-record with

    PYTHONPATH=src python tests/test_golden.py

and review the diff of ``tests/data/golden/``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mumbounds.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "data" / "golden"

_BAD_STATE = '{"dim": 2, "re": [[0.9, 0.2], [0.0, 0.3]], "im": [[0, 0], [0, 0]]}\n'

# (name, argv, files the call writes); "{tmp}" is the working directory
CLI_CORPUS = [
    ("gen_random", "gen-state --state random --d 3 --seed 7 --out {tmp}/rand.json",
     ["rand.json"]),
    ("gen_tiles", "gen-state --state tiles --p 0.9 --out {tmp}/tiles.json", ["tiles.json"]),
    ("gen_horodecki", "gen-state --state horodecki --upsilon 0.3 --q 0.99 --out {tmp}/h.json",
     ["h.json"]),
    ("gen_max_entangled", "gen-state --state max-entangled --d 2 --out {tmp}/me.json",
     ["me.json"]),
    ("gen_missing_d", "gen-state --state random --out {tmp}/x.json", []),
    ("gen_random_given_p", "gen-state --state random --d 3 --p 0.5 --out {tmp}/x.json", []),
    ("gen_random_d1", "gen-state --state random --d 1 --out {tmp}/x.json", []),
    ("gen_tiles_given_d", "gen-state --state tiles --p 0.9 --d 5 --out {tmp}/x.json", []),
    ("gen_max_entangled_given_seed",
     "gen-state --state max-entangled --d 2 --seed 3 --out {tmp}/x.json", []),
    ("verify_state_ok", "verify-state --file {tmp}/rand.json", []),
    ("verify_state_bad", "verify-state --file {tmp}/bad.json", []),
    ("verify_state_missing", "verify-state --file {tmp}/nope.json", []),
    ("bound_tiles", "bound --state tiles --p 0.99 --t 0.05", []),
    ("bound_horodecki_literal_out",
     "bound --state horodecki --upsilon 0.2 --q 0.999 --t 0.01 --variant literal "
     "--out {tmp}/report.json", ["report.json"]),
    ("bound_tol_zero", "bound --state tiles --p 0.9 --t 0.05 --tol 0", []),
    ("bound_inadmissible_t", "bound --state tiles --p 1 --t 0.2", []),
    ("bound_file", "bound --state file --file {tmp}/rand.json --p 0.5 --t -0.03", []),
    ("bound_max_entangled_file", "bound --state file --file {tmp}/me.json --t 0.3", []),
    ("bound_missing_upsilon", "bound --state horodecki --t 0.01", []),
    ("bound_negative_tol", "bound --state tiles --p 0 --t 0.05 --tol=-1", []),
    ("sweep_t", "sweep --state tiles --p 0.99 --var t --start -0.09 --stop 0.1 --steps 21 "
     "--out {tmp}/t.csv", ["t.csv"]),
    ("sweep_upsilon", "sweep --state horodecki --q 0.995 --t 0.08 --var upsilon --start 0 "
     "--stop 1 --steps 11 --out {tmp}/u.csv", ["u.csv"]),
    ("sweep_p", "sweep --state tiles --var p --start 0.8 --stop 1 --steps 11 --t 0.05 "
     "--out {tmp}/p.csv", ["p.csv"]),
    ("sweep_p_file", "sweep --state file --file {tmp}/h.json --var p --start 0 --stop 1 "
     "--steps 6 --t 0.02 --out {tmp}/q.csv", ["q.csv"]),
    ("sweep_bad_grid", "sweep --state tiles --p 1 --var t --start -0.2 --stop 0.1 --steps 5 "
     "--out {tmp}/bad.csv", []),
    ("sweep_given_swept_var", "sweep --state tiles --var p --p 0.5 --start 0.8 --stop 1 "
     "--steps 3 --t 0.05 --out {tmp}/given.csv", []),
    ("threshold_tiles", "threshold --state tiles --t 0.05", []),
    ("threshold_horodecki", "threshold --state horodecki --upsilon 0.2 --t 0.01 --tol 1e-7",
     []),
    ("threshold_file", "threshold --state file --file {tmp}/rand.json --t 0.05",
     []),
    ("threshold_t_zero", "threshold --state tiles --t 0", []),
    ("threshold_given_searched_var", "threshold --state tiles --p 0.5 --t 0.05", []),
    ("verify_d3", "verify --d 3 --t 0.05", []),
    ("verify_d3_t_zero", "verify --d 3 --t 0", []),
    ("verify_d5", "verify --d 5 --t -0.02", []),
    ("verify_inadmissible", "verify --d 3 --t 0.2", []),
    ("kappa_d3", "kappa --d 3 --t 0.05", []),
    ("kappa_outside", "kappa --d 4 --t 0.5", []),
    ("t_range_d3", "t-range --d 3", []),
    ("t_range_d7", "t-range --d 7", []),
    ("unknown_command", "frobnicate", []),
]
SCRIPT_CASES = [
    "figure_data_stdout",
    "figure_data_tiles_bound_vs_t",
    "figure_data_horodecki_bound_vs_upsilon",
    "reproduce_thresholds_stdout",
]


def _file_text(path: Path) -> str:
    text = path.read_text()
    if path.name == "report.json":
        return json.dumps(json.loads(text), indent=1, sort_keys=True) + "\n"
    return text


def _section(title: str, text: str) -> str:
    return f"--- {title}\n{text}" + ("" if text.endswith("\n") or not text else "\n")


def run_cli_corpus(tmp: Path) -> dict[str, str]:
    """Run the CLI corpus in ``tmp``; the recorded text of each case by name."""
    (tmp / "bad.json").write_text(_BAD_STATE)
    texts = {}
    for name, command, written in CLI_CORPUS:
        argv = command.format(tmp=tmp).split()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        parts = [
            f"$ mumbounds {command.format(tmp='<tmp>')}\n",
            f"exit={code}\n",
            _section("stdout", out.getvalue()),
            _section("stderr", err.getvalue()),
            *(_section(f"<tmp>/{f}", _file_text(tmp / f)) for f in written),
        ]
        texts[f"cli_{name}"] = "".join(parts).replace(str(tmp), "<tmp>")
    return texts


def run_scripts(tmp: Path) -> dict[str, str]:
    """Run both scripts; their stdout and CSVs by name."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}

    def script(name: str, *args: str) -> str:
        done = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / name), *args],
            capture_output=True, text=True, env=env, cwd=tmp, check=True,
        )
        return done.stdout.replace(str(tmp), "<tmp>")

    out = tmp / "figures"
    texts = {"figure_data_stdout": script("figure_data.py", str(out))}
    for csv in ("tiles_bound_vs_t.csv", "horodecki_bound_vs_upsilon.csv"):
        texts[f"figure_data_{csv.removesuffix('.csv')}"] = (out / csv).read_text()
    texts["reproduce_thresholds_stdout"] = script("reproduce_thresholds.py")
    return texts


@pytest.fixture(scope="module")
def cli_texts(tmp_path_factory):
    return run_cli_corpus(tmp_path_factory.mktemp("cli"))


@pytest.fixture(scope="module")
def script_texts(tmp_path_factory):
    return run_scripts(tmp_path_factory.mktemp("scripts"))


def _expected(name: str) -> str:
    return (GOLDEN / f"{name}.txt").read_text()


@pytest.mark.parametrize("name", [name for name, _, _ in CLI_CORPUS])
def test_cli(name, cli_texts):
    assert cli_texts[f"cli_{name}"] == _expected(f"cli_{name}")


@pytest.mark.parametrize("name", SCRIPT_CASES)
def test_scripts(name, script_texts):
    assert script_texts[name] == _expected(name)


def test_every_golden_file_is_a_case():
    names = {f"cli_{name}" for name, _, _ in CLI_CORPUS} | set(SCRIPT_CASES)
    assert {path.stem for path in GOLDEN.glob("*.txt")} == names


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as cli_dir, tempfile.TemporaryDirectory() as script_dir:
        texts = {**run_cli_corpus(Path(cli_dir)), **run_scripts(Path(script_dir))}
    for old in GOLDEN.glob("*.txt"):
        old.unlink()
    for name, text in texts.items():
        (GOLDEN / f"{name}.txt").write_text(text)
    print(f"recorded {len(texts)} cases in {GOLDEN}")
