"""Batched sweeps against one plain evaluation per grid point.

The reference below builds every family with ``build_mums`` and every
state on its own at weight 1, and evaluates each point with
``bound_columns`` on a one-state stack at its white-noise weight.  It
checks both trace norms of each point, to 1e-12 relative plus 1e-15,
against ``build_correlation_matrix`` and one unstacked contraction of
the blocks, applied to the mixture that ``mix_with_white_noise`` forms.
Every report field and every CSV byte of a batch must equal those of the
points on their own, not merely be close.
"""

import contextlib
import io
import json
import math

import numpy as np
import pytest

from mumbounds import criteria, engine
from mumbounds.basis import standard_basis
from mumbounds.cli import main
from mumbounds.config import TOL
from mumbounds.criteria import (
    BoundReport,
    bound_columns,
    build_correlation_matrix,
    concurrence_lower_bound,
)
from mumbounds.engine import SweepSpec, UsageError, make_state, render_csv, run_sweep
from mumbounds.mums import build_mums, kappa_gap, kappa_of_t, standard_family, standard_grid
from mumbounds.states import (
    horodecki_state,
    mix_with_white_noise,
    random_density,
    random_pure,
    save_state,
    tiles_state,
)


def _reference_report(rho, fam, w=1.0):
    """The report of one state at weight w on its own, its trace norms
    checked against the plain definition of the mixture."""
    columns = bound_columns(rho[None], fam.t, weights=w)
    report = BoundReport(fam.d, *(column[0] for column in columns.values()))
    mixed = mix_with_white_noise(rho, w)
    norm_p = build_correlation_matrix(mixed, fam).trace_norm
    assert abs(report.trace_norm_p - norm_p) <= 1e-12 * norm_p + 1e-15
    realigned = criteria._realigned(mixed, fam.d)
    blocks = fam.f_blocks.reshape(-1, fam.d * fam.d)
    plain = criteria._contract(realigned, blocks, blocks)
    norm_f = np.linalg.svd(plain, compute_uv=False).sum()
    assert abs(report.trace_norm_f - norm_f) <= 1e-12 * norm_f + 1e-15
    return report


def _reference_points(spec):
    """(state at weight 1, family, white-noise weight) per grid point, built
    one at a time."""
    grid = np.linspace(spec.start, spec.stop, spec.steps)
    points = []
    for value in grid.tolist():
        params = dict(spec.fixed)
        if spec.variable != "t":
            params[spec.variable] = value
        rho, w = make_state(spec.state_family, spec.file, params)
        basis = standard_basis(math.isqrt(rho.shape[0]))
        points.append((rho, build_mums(basis, value if spec.variable == "t" else spec.fixed["t"]), w))
    return grid, points


def _reference_rows(spec):
    grid, points = _reference_points(spec)
    rows = []
    for value, (rho, fam, w) in zip(grid, points):
        report = _reference_report(rho, fam, w)
        rows.append(
            {
                "var": float(value),
                "traceNormP": report.trace_norm_p,
                "traceNormF": report.trace_norm_f,
                "kappa": report.kappa,
                "threshold": report.separability_threshold,
                "bound_literal": report.bound_literal,
                "bound_derived": report.bound_derived,
                "verdict": report.verdict,
            }
        )
    return rows


def _assert_sweep_matches(spec):
    rows, expected = run_sweep(spec), _reference_rows(spec)
    assert [{key: row[key] for key in reference} for row, reference in zip(rows, expected)] == expected
    assert render_csv(rows) == render_csv(expected)


def _reports(d, columns):
    """The BoundReports of columns keyed as ``BoundReport.as_dict``."""
    return [BoundReport(d, *fields) for fields in zip(*columns.values())]


def _tiles_grid(t_range_of, steps=81):
    rng = t_range_of(3)
    return np.linspace(0.9 * rng.lower, 0.9 * rng.upper, steps)


def test_tiles_t_grid(t_range_of):
    grid = _tiles_grid(t_range_of)
    rho = tiles_state()
    basis = standard_basis(3)
    batched = _reports(3, bound_columns(rho[None], standard_grid(3, grid), weights=0.99))
    assert batched == [_reference_report(rho, build_mums(basis, float(t)), 0.99) for t in grid]
    _assert_sweep_matches(
        SweepSpec("t", grid[0], grid[-1], 81, "tiles", fixed={"p": 0.99})
    )


def test_horodecki_upsilon_grid():
    grid = np.linspace(0.0, 1.0, 101)
    fam = build_mums(standard_basis(3), 0.08)
    batched = _reports(3, bound_columns(horodecki_state(grid), fam.t, weights=0.995))
    assert batched == [_reference_report(horodecki_state(float(v)), fam, 0.995) for v in grid]
    _assert_sweep_matches(
        SweepSpec("upsilon", 0.0, 1.0, 101, "horodecki", fixed={"q": 0.995, "t": 0.08})
    )


@pytest.mark.parametrize("d", range(2, 9))
def test_file_sweeps(d, tmp_path, t_range_of):
    path = tmp_path / f"state-{d}.json"
    save_state(random_density(d * d, seed=40 + d), path)
    rng = t_range_of(d)
    _assert_sweep_matches(
        SweepSpec("t", 0.9 * rng.lower, 0.9 * rng.upper, 12, "file", file=str(path))
    )
    _assert_sweep_matches(
        SweepSpec("p", 0.0, 1.0, 13, "file", fixed={"t": 0.5 * rng.upper}, file=str(path))
    )


def test_d16_t_sweep(tmp_path, t_range_of):
    d = 16
    psi = random_pure(d, d, seed=7)
    path = tmp_path / "pure-16.json"
    save_state(np.outer(psi, psi.conj()), path)
    rng = t_range_of(d)
    _assert_sweep_matches(
        SweepSpec("t", 0.9 * rng.lower, 0.9 * rng.upper, 4, "file", file=str(path))
    )


@pytest.mark.parametrize("points_per_chunk", [1, 2, 3])
def test_chunk_boundaries(monkeypatch, points_per_chunk, t_range_of):
    # 7 points split into chunks of 1, 2 and 3, with a short last chunk
    monkeypatch.setattr(criteria, "_CHUNK_BYTES", points_per_chunk * criteria._point_bytes(3))
    contractions = []
    original = criteria._contract

    def counted(realigned, rows_a, rows_b):
        contractions.append(math.prod(realigned.shape[:-2]))  # states contracted
        return original(realigned, rows_a, rows_b)

    monkeypatch.setattr(criteria, "_contract", counted)
    chunks = math.ceil(7 / points_per_chunk)

    grid = _tiles_grid(t_range_of, 7)
    rho = tiles_state()
    basis = standard_basis(3)
    expected = [_reference_report(rho, build_mums(basis, float(t)), 0.99) for t in grid]
    contractions.clear()
    assert _reports(3, bound_columns(rho[None], standard_grid(3, grid), weights=0.99)) == expected
    # the frame of a one-state stack does not depend on t: one contraction
    assert contractions == [1]

    # nor on the white-noise weight, which scales it
    weights = np.linspace(0.0, 1.0, 7)
    expected = [_reports(3, bound_columns(rho[None], 0.08, weights=[w]))[0] for w in weights]
    contractions.clear()
    assert _reports(3, bound_columns(rho[None], 0.08, weights=weights)) == expected
    assert contractions == [1]

    fam = build_mums(basis, 0.08)
    upsilons = np.linspace(0.0, 1.0, 7)
    expected = [_reference_report(horodecki_state(float(v)), fam, 0.995) for v in upsilons]
    contractions.clear()
    stack = horodecki_state(upsilons)
    assert _reports(3, bound_columns(stack, fam.t, weights=0.995)) == expected
    # one contraction per chunk of a longer stack, of its mixed states: the
    # pure upsilon = 0 state takes the closed forms, and a chunk that holds
    # only it takes no frame
    assert len(contractions) == chunks - (points_per_chunk == 1) and sum(contractions) == 6

    _assert_sweep_matches(SweepSpec("t", grid[0], grid[-1], 7, "tiles", fixed={"p": 0.99}))
    _assert_sweep_matches(SweepSpec("q", 0.0, 1.0, 7, "horodecki", fixed={"upsilon": 0.4, "t": 0.08}))
    _assert_sweep_matches(
        SweepSpec("upsilon", 0.0, 1.0, 7, "horodecki", fixed={"q": 0.995, "t": 0.08})
    )


def test_invalid_state_in_a_stack_is_reported(family, monkeypatch):
    # an upsilon sweep checks each stack as it builds it
    fam = family(3, 0.05)
    good = np.eye(9, dtype=complex) / 9.0
    bad = good.copy()
    bad[0, 0], bad[1, 1] = -1.0 / 9.0, 3.0 / 9.0  # unit trace, one negative eigenvalue
    spec = SweepSpec("upsilon", 0.0, 1.0, 3, "horodecki", fixed={"t": fam.t})
    for state, match in ((np.eye(9) / 4.0, "trace"), (bad, "negative eigenvalue")):
        monkeypatch.setattr(engine, "horodecki_state",
                            lambda upsilon, state=state: np.stack([good, state, good]))
        with pytest.raises(ValueError, match=match):
            run_sweep(spec)
    message = r"a state stack must be \(k, d\^2, d\^2\) with d >= 2, got "
    for stack, shape in ((np.eye(8)[None] / 8.0, r"\(1, 8, 8\)"), (good, r"\(9, 9\)")):
        with pytest.raises(ValueError, match=message + shape):
            bound_columns(stack, fam.t)


def test_single_state_entry_points_reject_a_stack(family):
    # white noise twice: summing the singular values of both states would
    # exceed 1 + kappa and call it entangled
    fam = family(3, 0.05)
    stack = np.stack([np.eye(9, dtype=complex) / 9.0] * 2)
    for call in (
        lambda: build_correlation_matrix(stack, fam),
        lambda: concurrence_lower_bound(stack, fam),
    ):
        with pytest.raises(ValueError, match=r"state must be 9x9, got \(2, 9, 9\)"):
            call()
    assert concurrence_lower_bound(stack[0], fam).verdict == "undetected"
    # the column evaluator takes a stack, one point per state
    assert bound_columns(stack, [fam.t])["verdict"] == ["undetected"] * 2


def test_one_point_one_double(tmp_path):
    # every row of the figure's upsilon sweep is, double for double, the
    # one-point evaluation at its weight and the `bound` command's report;
    # so is the pure upsilon = 0 row at weight 1 and t < 0, where the stack
    # once took the dense frame and `bound` the closed forms
    out = tmp_path / "report.json"
    for spec, q in (
        (SweepSpec("upsilon", 0.0, 1.0, 101, "horodecki", fixed={"q": 0.995, "t": 0.08}), 0.995),
        (SweepSpec("upsilon", 0.0, 1.0, 11, "horodecki", fixed={"t": -0.05}), None),
    ):
        t = spec.fixed["t"]
        fam = standard_family(3, t)
        weight = [] if q is None else ["--q", repr(q)]
        for row in run_sweep(spec):
            point = bound_columns(horodecki_state(row["var"])[None], fam.t, weights=q or 1.0)
            assert {key: row[key] for key in point} == {
                key: column[0] for key, column in point.items()
            }, row["var"]
            argv = ["bound", "--state", "horodecki", "--upsilon", repr(row["var"]), *weight,
                    "--t", repr(t), "--out", str(out)]
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 0
            report = json.loads(out.read_text())
            assert {key: row[key] for key in row if key != "var"} == {
                key: report[key] for key in row if key != "var"
            }, row["var"]


def _scalar_fields(row, rho, fam, w):
    """The bound columns of one sweep row by the scalar formulas, from its
    d and t and the excess of its state at weight w on its own."""
    d, t = row["d"], row["t"]
    excess = criteria.white_noise_margin(rho, fam.d, fam.t)(w)
    kappa = kappa_of_t(d, t)
    scale = d * kappa_gap(d, t)  # kappa d - 1
    return {
        "kappa": kappa,
        "threshold": 1.0 + kappa,
        "bound_literal": max(0.0, math.sqrt(2.0 * (d - 1.0) / (d * scale)) * excess),
        "bound_derived": max(0.0, math.sqrt(2.0 * (d - 1.0) / d) * excess / scale),
        "schmidt_number_lb": max(1.0, 1.0 + (d - 1.0) * excess / scale),
        "verdict": "entangled" if excess > TOL.verdict * scale else "undetected",
    }


def _separable_file(tmp_path):
    path = tmp_path / "product.json"
    save_state(np.kron(random_density(3, seed=1), random_density(3, seed=2)), path)
    return str(path)


def _pure_file(tmp_path):
    path = tmp_path / "pure.json"
    psi = random_pure(3, 3, seed=5)
    save_state(np.outer(psi, psi.conj()), path)
    return str(path)


@pytest.mark.parametrize(
    "make_spec, detected",
    [
        (lambda tmp, rng: SweepSpec("t", 0.9 * rng.lower, 0.9 * rng.upper, 81, "tiles",
                                    fixed={"p": 0.99}), 81),
        (lambda tmp, rng: SweepSpec("t", 0.9 * rng.lower, 0.9 * rng.upper, 81, "tiles",
                                    fixed={"p": 0.8}), 0),
        (lambda tmp, rng: SweepSpec("upsilon", 0.0, 1.0, 101, "horodecki",
                                    fixed={"q": 0.995, "t": 0.08}), 33),
        (lambda tmp, rng: SweepSpec("q", 0.99, 1.0, 41, "horodecki",
                                    fixed={"upsilon": 0.2, "t": 0.01}), 24),
        (lambda tmp, rng: SweepSpec("t", 0.9 * rng.lower, 0.9 * rng.upper, 41, "file",
                                    file=_separable_file(tmp)), 0),
        (lambda tmp, rng: SweepSpec("p", 0.0, 1.0, 41, "file", fixed={"t": rng.upper},
                                    file=_separable_file(tmp)), 0),
        # a pure state's closed forms: the threshold search's margin is the
        # sweep's excess, bit for bit
        (lambda tmp, rng: SweepSpec("t", 0.9 * rng.lower, 0.9 * rng.upper, 40, "file",
                                    file=_pure_file(tmp)), 40),
        (lambda tmp, rng: SweepSpec("p", 0.0, 1.0, 101, "file", fixed={"t": 0.5 * rng.upper},
                                    file=_pure_file(tmp)), 68),
    ],
    ids=["tiles", "tiles-undetected", "horodecki", "horodecki-q", "separable-t", "separable-p",
         "pure-t", "pure-p"],
)
def test_columns_equal_the_scalar_formulas(make_spec, detected, tmp_path, t_range_of):
    spec = make_spec(tmp_path, t_range_of(3))
    rows = run_sweep(spec)
    for row, (rho, fam, w) in zip(rows, _reference_points(spec)[1], strict=True):
        expected = _scalar_fields(row, rho, fam, w)
        assert {key: row[key] for key in expected} == expected, row
        # a negative margin clamps both bounds to +0.0, which prints as 0
        for key in ("bound_literal", "bound_derived"):
            assert math.copysign(1.0, row[key]) == 1.0
    assert sum(row["verdict"] == "entangled" for row in rows) == detected
    assert ",-0," not in render_csv(rows)


def _first_inadmissible(grid):
    """The error of the first grid point that build_mums rejects."""
    basis = standard_basis(3)
    for t in grid:
        try:
            build_mums(basis, float(t))
        except ValueError as exc:
            return f"sweep grid point is inadmissible: {exc}"
    raise AssertionError("every grid point is admissible")


@pytest.mark.parametrize(
    "start, stop, steps",
    [(-0.1, 0.1, 5), (0.05, 0.3, 6), (-0.3, 0.1, 9)],
    ids=["zero-in-the-middle", "beyond-upper", "below-lower"],
)
def test_inadmissible_t_in_a_grid(start, stop, steps):
    spec = SweepSpec("t", start, stop, steps, "tiles", fixed={"p": 0.99})
    with pytest.raises(UsageError) as info:
        run_sweep(spec)
    assert str(info.value) == _first_inadmissible(np.linspace(start, stop, steps))
    assert "inadmissible" in str(info.value)
