"""The engine's threshold contract and the scripts built on the engine."""

import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from mumbounds import criteria, engine, mums, states
from mumbounds.criteria import build_correlation_matrix
from mumbounds.engine import SweepSpec, ThresholdQuery, UsageError, run_sweep, run_threshold
from mumbounds.linalg import trace_norm
from mumbounds.states import mix_with_white_noise, random_density, random_pure, save_state
from mumbounds.threshold import find_threshold

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


@pytest.mark.parametrize("d", [2, 3, 5, 8])
def test_affine_margin_matches_mixed_state_definition(d, family, t_range_of, tmp_path):
    # the probability matrix of w*rho + (1-w)*I/d^2 is w*C + (1-w)*J/d^2
    t = 0.9 * t_range_of(d).upper
    fam = family(d, t)
    psi = random_pure(d, d, seed=d)
    rho = np.outer(psi, psi.conj())
    corr = build_correlation_matrix(rho, fam).matrix
    for w in np.linspace(0.0, 1.0, 11):
        affine = trace_norm(w * corr + (1.0 - w) / (d * d)) - 1.0 - fam.kappa
        assert affine == pytest.approx(_margin(rho, fam, w), abs=1e-12)

    path = tmp_path / "pure.json"
    save_state(rho, path)
    result, _ = run_threshold(
        ThresholdQuery(state_family="file", t=t, search_variable="p", file=str(path))
    )
    assert result.found and result.evaluations == 4
    for w, margin in zip(result.bracket, result.margins):
        assert margin == pytest.approx(_margin(rho, fam, w), abs=1e-12)


def _plain_halving(margin, tol):
    """Reference search: halve [0, 1] down to width tol."""
    a, b = 0.0, 1.0
    while b - a > tol:
        mid = 0.5 * (a + b)
        if margin(mid) > 0.0:
            b = mid
        else:
            a = mid
    return 0.5 * (a + b)


def _threshold_queries(tmp_path, t_range_of):
    for d in range(2, 9):
        rng = t_range_of(d)
        t = 0.5 * rng.lower if d % 2 else 0.9 * rng.upper
        psi = random_pure(d, d, seed=30 + d)
        for kind, rho in (
            ("mixed", random_density(d * d, seed=20 + d)),
            ("pure", np.outer(psi, psi.conj())),
        ):
            path = tmp_path / f"{kind}-{d}.json"
            save_state(rho, path)
            yield ThresholdQuery(state_family="file", t=t, search_variable="p", file=str(path))
    yield ThresholdQuery(state_family="tiles", t=0.01, search_variable="p")
    for upsilon in TABLE_THRESHOLDS:
        yield ThresholdQuery(
            state_family="horodecki", t=0.01, search_variable="q",
            tolerance=1e-7, fixed={"upsilon": upsilon},
        )


def test_threshold_search_matches_plain_halving(monkeypatch, tmp_path, t_range_of):
    margins = []

    def recording(margin, *args, **kwargs):
        margins.append(margin)
        return find_threshold(margin, *args, **kwargs)

    monkeypatch.setattr(engine, "find_threshold", recording)
    found = 0
    for query in _threshold_queries(tmp_path, t_range_of):
        result, _ = run_threshold(query)
        margin = margins.pop()
        assert result.evaluations <= 15
        if not result.found:
            continue
        found += 1
        a, b = result.bracket
        assert b - a <= query.tolerance
        assert result.margins[0] <= 0.0 < result.margins[1]
        assert abs(result.threshold - _plain_halving(margin, query.tolerance)) <= query.tolerance
    assert found >= 10


def test_weight_one_reuses_the_contracted_trace_norm(monkeypatch, tmp_path):
    path = _state_file(tmp_path)
    svds = []

    def counted(m):
        svds.append(m.shape)
        return trace_norm(m)

    monkeypatch.setattr(engine, "trace_norm", counted)
    result, _ = run_threshold(
        ThresholdQuery(state_family="file", t=0.1, search_variable="p", file=path)
    )
    assert result.found
    assert len(svds) == result.evaluations - 1


def test_sweep_rejects_non_finite_ends():
    for start, stop in ((0.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0), (0.0, math.nan)):
        spec = SweepSpec("p", start, stop, 3, "tiles", fixed={"t": 0.01})
        with pytest.raises(UsageError, match="finite"):
            run_sweep(spec)


class _Counts:
    """Counts calls of module attributes, and density eigen-checks of one size.

    An eigen-check of a stack of states counts once, like one of a single state.
    """

    def __init__(self, monkeypatch, dim):
        self.calls = Counter()
        self.monkeypatch = monkeypatch
        for module, name in (
            (engine, "load_state"),
            (states, "validate_density"),
            (criteria, "_check_density"),
            (engine, "build_correlation_matrix"),
            (mums, "build_f_blocks"),
            (mums, "t_interval"),
        ):
            self._count(module, name, lambda *args, name=name: name)
        self._count(criteria, "_correlation", lambda *args: f"contract.{args[3]}")
        self._count(
            np.linalg,
            "eigvalsh",
            lambda a, *args: "density_eigvalsh" if np.shape(a)[-2:] == (dim, dim) else None,
        )

    def _count(self, module, name, key):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            label = key(*args)
            if label is not None:
                self.calls[label] += 1
            return original(*args, **kwargs)

        self.monkeypatch.setattr(module, name, counted)


def _state_file(tmp_path, d=3):
    path = tmp_path / "state.json"
    save_state(random_density(d * d, seed=3), path)
    return str(path)


def test_threshold_query_touches_its_state_once(monkeypatch, tmp_path):
    path = _state_file(tmp_path)
    counts = _Counts(monkeypatch, 9)
    result, _ = run_threshold(
        ThresholdQuery(state_family="file", t=0.1, search_variable="p", file=path)
    )
    assert result.found and result.evaluations == 6
    # one load and its file check, one family, one check at the correlation
    # front door, one probability contraction; every evaluation reuses it
    assert counts.calls == {
        "load_state": 1,
        "validate_density": 1,
        "build_f_blocks": 1,
        "t_interval": 1,
        "_check_density": 1,
        "density_eigvalsh": 2,
        "build_correlation_matrix": 1,
        "contract.P": 1,
    }


def test_sweeps_load_and_validate_their_state_once(monkeypatch, tmp_path):
    path = _state_file(tmp_path)
    counts = _Counts(monkeypatch, 9)
    # blocks and t-interval once per grid; at d = 3 the whole grid is one
    # chunk: one density check, one block and one probability contraction,
    # and a stack of mixed states is checked and contracted once
    expected = {
        "load_state": 1,
        "validate_density": 1,
        "build_f_blocks": 1,
        "t_interval": 1,
        "_check_density": 1,
        "density_eigvalsh": 2,
        "contract.F": 1,
        "contract.P": 1,
    }
    for steps in (2, 5, 81):
        for spec in (
            SweepSpec("t", 0.01, 0.1, steps, "file", file=path),
            SweepSpec("p", 0.0, 1.0, steps, "file", fixed={"t": 0.1}, file=path),
        ):
            counts.calls.clear()
            run_sweep(spec)
            assert counts.calls == expected, spec


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
