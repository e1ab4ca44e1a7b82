"""The console checks of CI, run on this checkout's sources.

Each command of the "Console script" step of ``.github/workflows/tier1.yml``
runs here in order, in one temporary directory, as a fresh interpreter on
``python -m mumbounds.cli``, with the step's checks: every command exits 0
but the two that must exit 1, and two outputs hold a given line.  The
workflow itself keeps one call of the installed ``mumbounds`` entry
point, which these tests cannot reach.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# (arguments, exit code, a line the output must hold), in the step's order:
# the file path at d = 16, the unchecked Gell-Mann basis at d = 32, whose
# family `verify` holds to its defining relations, the one admissibility
# rule, and the exit codes of an inadmissible t and of a --file that a
# built-in state does not take
CONSOLE_STEP = [
    ("verify --d 3 --t 0.05", 0, None),
    ("t-range --d 32", 0, None),
    ("verify --d 32 --t 0.001", 0, "status=pass"),
    ("kappa --d 32 --t 0.001", 0, "t_admissible=yes"),
    ("verify --d 3 --t 0", 1, None),
    ("bound --state tiles --file missing.json --t 0.05", 1, None),
    ("bound --state tiles --t 0.05", 0, None),
    ("gen-state --state random --d 16 --seed 1 --out s16.json", 0, None),
    ("verify-state --file s16.json", 0, None),
    ("bound --state file --file s16.json --t 0.004", 0, None),
    ("threshold --state file --file s16.json --t 0.004", 0, None),
]


def test_the_console_step_of_ci(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    for args, code, line in CONSOLE_STEP:
        proc = subprocess.run(
            [sys.executable, "-m", "mumbounds.cli", *args.split()],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == code, (args, proc.stderr)
        assert line is None or line in proc.stdout.splitlines(), (args, proc.stdout)
