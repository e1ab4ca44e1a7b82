"""The engine's threshold contract and the scripts built on the engine."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mumbounds.criteria import build_correlation_matrix
from mumbounds.states import mix_with_white_noise, random_density

ROOT = Path(__file__).resolve().parents[1]
TABLE_THRESHOLDS = {0.2: 0.994054, 0.4: 0.99461, 0.6: 0.99626, 0.8: 0.998123, 0.9: 0.999067}


def _margin(rho, fam, w):
    mixed = mix_with_white_noise(rho, w)
    return build_correlation_matrix(mixed, fam).trace_norm - 1.0 - fam.kappa


def test_margin_at_zero_weight_is_one_over_d_minus_kappa(family, t_range_of):
    # at w = 0 every state is I/d^2, whose probability matrix is the rank-one
    # all-1/d^2 matrix with trace norm 1 + 1/d
    for d in range(2, 9):
        rng = t_range_of(d)
        for t in (0.5 * rng.lower, 0.5 * rng.upper):
            fam = family(d, t)
            rho = random_density(d * d, seed=d)
            margin = _margin(rho, fam, 0.0)
            assert margin == pytest.approx(1.0 / d - fam.kappa, abs=1e-12)
            assert margin < 0.0


def test_margin_is_midpoint_convex_in_weight(family, t_range_of):
    d = 4
    fam = family(d, 0.9 * t_range_of(d).upper)
    rho = random_density(d * d, seed=11)
    m = np.array([_margin(rho, fam, w) for w in np.linspace(0.0, 1.0, 21)])
    assert np.all(m[1:-1] <= 0.5 * (m[:-2] + m[2:]) + 1e-12)


def _python(*args):
    """Run a fresh interpreter on this checkout's sources."""
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        timeout=300,
    )


def test_reproduce_thresholds_script():
    proc = _python(str(ROOT / "scripts" / "reproduce_thresholds.py"))
    assert proc.returncode == 0, proc.stderr
    computed = {}
    for line in proc.stdout.splitlines():
        fields = line.split()
        if len(fields) == 3 and fields[0].replace(".", "", 1).isdigit():
            computed[float(fields[0])] = float(fields[1])
    assert computed.keys() == TABLE_THRESHOLDS.keys()
    for upsilon, expected in TABLE_THRESHOLDS.items():
        assert computed[upsilon] == pytest.approx(expected, abs=5e-3)


def test_figure_data_script(tmp_path):
    proc = _python(str(ROOT / "scripts" / "figure_data.py"), str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    for name, rows in (("tiles_bound_vs_t.csv", 81), ("horodecki_bound_vs_upsilon.csv", 101)):
        lines = (tmp_path / name).read_text().splitlines()
        assert lines[0].startswith("var,traceNormP,")
        assert len(lines) == rows + 1


def test_engine_does_not_import_cli():
    code = "import sys, mumbounds.engine; print('mumbounds.cli' in sys.modules)"
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
