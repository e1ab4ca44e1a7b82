"""The engine's threshold contract and the scripts built on the engine."""

import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from mumbounds import cli, criteria, engine, mums, states
from mumbounds.criteria import build_correlation_matrix, white_noise_margin
from mumbounds.engine import SweepSpec, ThresholdQuery, UsageError, run_sweep, run_threshold
from mumbounds.states import (
    max_entangled,
    mix_with_white_noise,
    random_density,
    random_pure,
    save_state,
)
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
    # the frame of w*rho + (1-w)*I/d^2 is w times that of rho
    t = 0.9 * t_range_of(d).upper
    fam = family(d, t)
    psi = random_pure(d, d, seed=d)
    rho = np.outer(psi, psi.conj())
    margin = white_noise_margin(rho, fam.d, fam.t)
    for w in np.linspace(0.0, 1.0, 11):
        assert margin(w) == pytest.approx(_margin(rho, fam, w), abs=1e-12)

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


def test_each_threshold_evaluation_is_one_svd(monkeypatch, tmp_path):
    path = _state_file(tmp_path)
    svds = []
    original = np.linalg.svd

    def counted(m, *args, **kwargs):
        svds.append(m.shape)
        return original(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    result, _ = run_threshold(
        ThresholdQuery(state_family="file", t=0.1, search_variable="p", file=path)
    )
    assert result.found
    # the 9 x 9 matrix M of each weight but w = 0, whose margin is
    # closed-form, and no other
    assert svds == [(9, 9)] * (result.evaluations - 1)


@pytest.mark.parametrize("d", range(2, 9))
def test_margin_at_zero_weight_is_the_closed_form(d, t_range_of):
    # at w = 0, M is c0 on its corner and zero elsewhere: the SVD path
    # gives -kappa_gap(d, t) bit for bit, and the closed form is that double
    interval = t_range_of(d)
    for t in (interval.lower, interval.upper, 0.5 * interval.lower, 0.5 * interval.upper,
              1e-3 * interval.upper):
        fam = mums.standard_family(d, t)
        for rank in (1, 2, 3):
            rho = random_density(d * d, rank=rank, seed=10 * d + rank)
            m = criteria._frame_matrices(d, criteria._frames(rho, d), t)
            by_svd = float(criteria._margins(d, 0.0 * m, mums.kappa_gap(d, t))[0])
            closed = white_noise_margin(rho, fam.d, fam.t)(0.0)
            assert type(closed) is float
            assert closed == by_svd == -mums.kappa_gap(d, t)


def test_sweep_rejects_non_finite_ends():
    for start, stop in ((0.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0), (0.0, math.nan)):
        spec = SweepSpec("p", start, stop, 3, "tiles", fixed={"t": 0.01})
        with pytest.raises(UsageError, match="finite"):
            run_sweep(spec)


def test_specs_reject_a_value_for_their_own_variable():
    with pytest.raises(UsageError, match="--upsilon is the swept variable"):
        SweepSpec("upsilon", 0.0, 1.0, 3, "horodecki", fixed={"upsilon": 0.2, "t": 0.01}).validate()
    with pytest.raises(UsageError, match="--p is the searched variable"):
        ThresholdQuery("file", 0.05, "p", fixed={"p": 0.5}, file="unread.json").validate()


class _Counts:
    """Counts calls of module attributes, and density factorisations of one size.

    ``validate_density`` counts every call of the validator: the file
    check inside ``load_state``, or the one inside ``states.checked_density``,
    which ``state_check`` counts when ``engine.make_state`` calls it on a
    built state and ``front_door`` when the criteria do.
    ``density_cholesky`` counts positivity certificates and
    ``density_eigvalsh`` eigen-checks; one of a stack of states counts
    once, like one of a single state.
    """

    def __init__(self, monkeypatch, dim):
        self.calls = Counter()
        self.monkeypatch = monkeypatch
        for module, name, label in (
            (engine, "load_state", "load_state"),
            (states, "validate_density", "validate_density"),
            (engine, "checked_density", "state_check"),
            (criteria, "checked_density", "front_door"),
            (criteria, "build_correlation_matrix", "build_correlation_matrix"),
            (criteria, "_contract", "contract"),
            (mums, "build_f_blocks", "build_f_blocks"),
            (mums, "t_interval", "t_interval"),
        ):
            self._count(module, name, lambda *args, label=label: label)
        for name in ("cholesky", "eigvalsh"):
            self._count(
                np.linalg,
                name,
                lambda a, *args, label=f"density_{name}": (
                    label if np.shape(a)[-2:] == (dim, dim) else None
                ),
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
    # one load and its file check, the only one; one family (blocks and
    # interval built on this first query at d = 3) and one contraction of
    # the frame; every evaluation reuses it, and the probability
    # correlation matrix is never formed.  A valid state is certified by
    # Cholesky and never reaches eigvalsh.
    assert counts.calls == {
        "load_state": 1,
        "validate_density": 1,
        "build_f_blocks": 1,
        "t_interval": 1,
        "density_cholesky": 1,
        "contract": 1,
    }


def test_built_states_are_checked_once_per_query(monkeypatch, tmp_path):
    # a tiles or Horodecki state is checked once, as make_state builds it,
    # and a file state once, as load_state reads it; the criteria never
    # check a query's state again
    path = _state_file(tmp_path)
    mums.standard_t_range(3)  # the d = 3 family memo, so that no query counts its build
    counts = _Counts(monkeypatch, 9)
    for argv, check in (
        (["bound", "--state", "tiles", "--p", "0.9", "--t", "0.05"], "state_check"),
        (["bound", "--state", "horodecki", "--upsilon", "0.3", "--t", "0.05"], "state_check"),
        (["bound", "--state", "file", "--file", path, "--t", "0.05"], "validate_density"),
        (["threshold", "--state", "tiles", "--t", "0.05"], "state_check"),
        (["threshold", "--state", "horodecki", "--upsilon", "0.3", "--t", "0.05"], "state_check"),
        (["threshold", "--state", "file", "--file", path, "--t", "0.05"], "validate_density"),
    ):
        counts.calls.clear()
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0, argv
        loaded = {"load_state": 1} if check == "validate_density" else {}
        assert counts.calls == {
            **loaded, "validate_density": 1, check: 1, "density_cholesky": 1, "contract": 1
        }, argv


def test_sweeps_load_and_validate_their_state_once(monkeypatch, tmp_path):
    path = _state_file(tmp_path)
    counts = _Counts(monkeypatch, 9)
    # at d = 3 the whole grid is one chunk: one density check, at the load,
    # and one contraction; valid states are certified by Cholesky alone
    expected = {
        "load_state": 1,
        "validate_density": 1,
        "density_cholesky": 1,
        "contract": 1,
    }
    # blocks and t-interval on the first sweep only: later ones reuse the memo
    first = {"build_f_blocks": 1, "t_interval": 1}
    for steps in (2, 5, 81):
        for spec in (
            SweepSpec("t", 0.01, 0.1, steps, "file", file=path),
            SweepSpec("p", 0.0, 1.0, steps, "file", fixed={"t": 0.1}, file=path),
        ):
            counts.calls.clear()
            run_sweep(spec)
            assert counts.calls == {**expected, **first}, spec
            first = {}


@pytest.mark.parametrize("points_per_chunk", [None, 10])
def test_sweeps_contract_each_chunk_once(monkeypatch, points_per_chunk, tmp_path):
    # one chunk holds a whole d = 3 grid; 10 points a chunk gives 11 and 9 chunks
    path = _state_file(tmp_path)
    if points_per_chunk is not None:
        monkeypatch.setattr(criteria, "_CHUNK_BYTES", points_per_chunk * criteria._point_bytes(3))
    step = criteria.chunk_points(3)
    calls = Counter()

    def count(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(engine, "horodecki_state")
    count(engine, "load_state")
    # every density check: in load_state, or in checked_density for make_state or the criteria
    count(states, "validate_density")
    count(criteria, "_contract")
    count(criteria, "_margins")
    count(criteria, "build_correlation_matrix")
    count(mums, "_admitted")
    getter = mums.MumFamily.effects.fget

    def effects(fam):
        calls["MumFamily.effects"] += 1
        return getter(fam)

    monkeypatch.setattr(mums.MumFamily, "effects", property(effects))
    mixed = []
    for module in list(sys.modules.values()):
        if module.__name__.startswith("mumbounds") and hasattr(module, "mix_with_white_noise"):
            mix = module.mix_with_white_noise

            def recorded(rho, weight, mix=mix, module=module):
                mixed.append(module.__name__)
                return mix(rho, weight)

            monkeypatch.setattr(module, "mix_with_white_noise", recorded)

    # the upsilon sweep: one build, one density check, one contraction and
    # one evaluation per chunk at its one checked t; no effect is ever formed
    run_sweep(SweepSpec("upsilon", 0.0, 1.0, 101, "horodecki", fixed={"q": 0.995, "t": 0.08}))
    chunks = math.ceil(101 / step)
    assert calls == {"horodecki_state": chunks, "_admitted": 1, "validate_density": chunks,
                     "_contract": chunks, "_margins": chunks}
    # the t-sweep: its grid checked as one array, one contraction of its one
    # state, and one evaluation per chunk of t
    calls.clear()
    rng = mums.standard_t_range(3)
    run_sweep(SweepSpec("t", 0.9 * rng.lower, 0.9 * rng.upper, 81, "tiles", fixed={"p": 0.99}))
    assert calls == {"_admitted": 1, "validate_density": 1, "_contract": 1,
                     "_margins": math.ceil(81 / step)}
    # the p and q sweeps: one state at weight 1, one load of a file, one
    # density check and one contraction, whatever the chunk size; the
    # weights scale the frame, one evaluation per chunk of weights
    for spec, built in (
        (SweepSpec("p", 0.0, 1.0, 101, "file", fixed={"t": 0.05}, file=path),
         {"load_state": 1}),
        (SweepSpec("q", 0.0, 1.0, 101, "horodecki", fixed={"upsilon": 0.4, "t": 0.05}),
         {"horodecki_state": 1}),
    ):
        calls.clear()
        run_sweep(spec)
        assert calls == {**built, "_admitted": 1, "validate_density": 1, "_contract": 1,
                         "_margins": math.ceil(101 / step)}, spec
    # nor does a bound or a threshold search: no query forms a white-noise
    # mixture, and only gen-state, which writes one, mixes
    for argv in (
        ["bound", "--state", "tiles", "--p", "0.9", "--t", "0.05"],
        ["bound", "--state", "horodecki", "--upsilon", "0.3", "--q", "0.99", "--t", "0.05"],
        ["bound", "--state", "file", "--file", path, "--p", "0.5", "--t", "0.05"],
        ["threshold", "--state", "tiles", "--t", "0.05"],
        ["threshold", "--state", "file", "--file", path, "--t", "0.05"],
    ):
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0, argv
    assert mixed == []
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["gen-state", "--state", "tiles", "--p", "0.9", "--out", str(tmp_path / "g.json")])
    assert mixed == ["mumbounds.cli"]


def test_a_pure_sweep_takes_no_frame(monkeypatch, tmp_path):
    # a pure state is evaluated by closed forms in its Schmidt coefficients:
    # a 21-point d = 16 sweep of one forms no frame and takes no SVD of M,
    # where a dense 256 x 256 frame takes one point a chunk
    d = 16
    path = tmp_path / "pure-16.json"
    psi = random_pure(d, d, seed=3)
    save_state(np.outer(psi, psi.conj()), path)
    calls = Counter()
    for name in ("_margins", "_contract"):
        original = getattr(criteria, name)
        monkeypatch.setattr(
            criteria, name, lambda *args, name=name, original=original: calls.update([name])
            or original(*args)
        )
    rng = mums.standard_t_range(d)
    for spec in (
        SweepSpec("t", 0.9 * rng.lower, 0.9 * rng.upper, 21, "file", file=str(path)),
        SweepSpec("p", 0.0, 1.0, 21, "file", fixed={"t": 0.5 * rng.upper}, file=str(path)),
    ):
        assert len(run_sweep(spec)) == 21
        assert calls == {}, spec
    assert criteria.chunk_points(d) == 1


def test_an_invalid_file_state_is_decided_by_eigvalsh(monkeypatch, tmp_path):
    # a failed certificate falls back to one eigen-check, which names the
    # eigenvalue; the query stops at the file check
    path = tmp_path / "negative.json"
    rho = np.diag([1.0 + 1e-6, -1e-6, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    path.write_text(json.dumps({"dim": 9, "re": rho.tolist(), "im": np.zeros((9, 9)).tolist()}))
    query = ThresholdQuery(state_family="file", t=0.1, search_variable="p", file=str(path))
    counts = _Counts(monkeypatch, 9)
    with pytest.raises(states.StateFileError, match="negative eigenvalue -1.000e-06"):
        run_threshold(query)
    assert counts.calls == {
        "load_state": 1,
        "validate_density": 1,
        "density_cholesky": 1,
        "density_eigvalsh": 1,
    }


def test_family_memo_builds_once_per_dimension(monkeypatch, tmp_path):
    counts = _Counts(monkeypatch, 9)
    queries = [
        ThresholdQuery(state_family="tiles", t=0.01, search_variable="p"),
        ThresholdQuery(state_family="tiles", t=0.05, search_variable="p"),
        ThresholdQuery(state_family="file", t=0.1, search_variable="p", file=_state_file(tmp_path)),
    ]
    builds = []
    for query in queries:
        counts.calls.clear()
        run_threshold(query)
        builds.append((counts.calls["build_f_blocks"], counts.calls["t_interval"]))
    # the first query at d = 3 builds the blocks and interval, the rest reuse them
    assert builds == [(1, 1), (0, 0), (0, 0)]
    blocks, rng = mums._standard_blocks(3)
    assert not blocks.flags.writeable
    with pytest.raises(dataclasses.FrozenInstanceError):
        rng.upper = 1.0
    fams = [engine.family_for(3, t) for t in (0.01, 0.05)]
    assert all(fam.f_blocks is blocks for fam in fams)
    assert mums.standard_t_range(3) is rng
    # another dimension is one more build, and d = 3 stays cached
    engine.family_for(4, 0.01)
    engine.family_for(3, 0.01)
    assert (counts.calls["build_f_blocks"], counts.calls["t_interval"]) == (1, 1)


def test_family_memo_is_bounded(monkeypatch):
    counts = _Counts(monkeypatch, 9)
    for d in (2, 3, 4, 5, 6, 2):
        mums.standard_t_range(d)
    # d = 2 was evicted by the four dimensions that followed it
    assert counts.calls["build_f_blocks"] == 6
    assert mums._standard_blocks.cache_info().currsize == 4


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


@pytest.mark.parametrize("d", range(2, 9))
def test_isotropic_states_are_detected_exactly_above_one_over_d_plus_one(d, tmp_path, t_range_of):
    # w*|Phi><Phi| + (1 - w)*I/d^2 is entangled exactly for w > 1/(d+1), and
    # the criterion detects every one of them, at either sign of t.  The
    # search may land on the edge itself, where the margin's rounding (of
    # order 1e-15) decides its sign, so the bracket may miss it by 1e-12.
    psi = max_entangled(d)
    path = tmp_path / "max-entangled.json"
    save_state(np.outer(psi, psi.conj()), path)
    edge = 1.0 / (d + 1)
    rng = t_range_of(d)
    for t in (0.5 * rng.lower, 0.9 * rng.upper):
        result, _ = run_threshold(
            ThresholdQuery("file", t, "p", tolerance=1e-9, file=str(path))
        )
        lo, hi = result.bracket
        assert result.found and hi - lo <= 1e-9, (t, result)
        assert lo - 1e-12 <= edge <= hi + 1e-12, (t, result)
    # a p-sweep flips its verdict at the first grid point above the edge; the
    # grid steps by 1/97, so no point lies within 1e-6 of it
    grid = np.linspace(0.0, 1.0, 98)
    assert np.abs(grid - edge).min() > 1e-6
    spec = SweepSpec("p", 0.0, 1.0, 98, "file", fixed={"t": 0.9 * rng.upper}, file=str(path))
    verdicts = [row["verdict"] for row in run_sweep(spec)]
    assert verdicts == ["entangled" if p > edge else "undetected" for p in grid]


def test_cli_imports_only_numpy_beyond_the_standard_library():
    # what `import mumbounds.cli` adds to a fresh interpreter, beyond the
    # modules that its start-up had already loaded; and neither orjson, which
    # the first `load_state` imports, nor the test extras mpmath, hypothesis
    # and scipy are loaded at all, so that every CLI start skips them
    code = (
        "import sys; before = set(sys.modules); import mumbounds.cli; "
        "added = {name.split('.')[0] for name in set(sys.modules) - before}; "
        "print(' '.join(sorted(added - set(sys.stdlib_module_names)))); "
        "print(sorted({'orjson', 'mpmath', 'hypothesis', 'scipy'} & set(sys.modules)))"
    )
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr
    added, extras = proc.stdout.splitlines()
    assert added.split() == ["mumbounds", "numpy"]
    assert extras == "[]"


def test_load_state_imports_orjson(tmp_path):
    # the parser is imported by the first load, not by `import mumbounds.cli`
    path = tmp_path / "state.json"
    save_state(random_density(4, seed=1), path)
    code = (
        "import sys; from mumbounds.states import load_state; "
        "print('orjson' in sys.modules); "
        f"load_state({str(path)!r}); print('orjson' in sys.modules)"
    )
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True"]


def test_engine_does_not_import_cli():
    code = "import sys, mumbounds.engine; print('mumbounds.cli' in sys.modules)"
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
