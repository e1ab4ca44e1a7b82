"""Batched sweeps against one plain evaluation per grid point.

The reference below builds every family with ``build_mums`` and every
state as the sweep engine does, and evaluates each point on its own with
``concurrence_lower_bound``, whose trace norms it also checks against
``build_correlation_matrix`` and one unstacked contraction of the
blocks.  Every report field and every CSV byte must be equal, not merely
close.
"""

import math

import numpy as np
import pytest

from mumbounds import criteria
from mumbounds.basis import standard_basis
from mumbounds.criteria import (
    build_correlation_matrix,
    concurrence_lower_bound,
    concurrence_lower_bounds,
    concurrence_lower_bounds_of_states,
    separability_test,
)
from mumbounds.engine import SweepSpec, UsageError, make_state, render_csv, run_sweep
from mumbounds.mums import build_mums, standard_family
from mumbounds.states import (
    horodecki_noisy,
    mix_with_white_noise,
    random_density,
    random_pure,
    save_state,
    tiles_noisy,
)


def _reference_report(rho, fam):
    report = concurrence_lower_bound(rho, fam)
    assert report.trace_norm_p == build_correlation_matrix(rho, fam).trace_norm
    realigned = criteria._realigned(np.asarray(rho, dtype=complex), fam.d)
    blocks = fam.block_stack()
    assert report.trace_norm_f == criteria._correlation(realigned, blocks, blocks)[1].sum()
    return report


def _label(ops):
    """"P" for a stack of effects (unit trace), "F" for one of blocks (traceless)."""
    return "P" if abs(np.trace(ops.reshape(-1, *ops.shape[-2:])[0]) - 1.0) < 1e-9 else "F"


def _reference_points(spec):
    """(state, family) per grid point, built one at a time."""
    grid = np.linspace(spec.start, spec.stop, spec.steps)
    fixed = dict(spec.fixed)
    if spec.variable == "t":
        rho = make_state(spec.state_family, spec.file, fixed)
        basis = standard_basis(math.isqrt(rho.shape[0]))
        return grid, [(rho, build_mums(basis, float(t))) for t in grid]
    if spec.variable == "upsilon":
        states = [make_state(spec.state_family, spec.file, {**fixed, "upsilon": float(v)}) for v in grid]
    else:
        probe = make_state(spec.state_family, spec.file, {**fixed, spec.variable: 1.0})
        states = [mix_with_white_noise(probe, float(v)) for v in grid]
    fam = build_mums(standard_basis(math.isqrt(states[0].shape[0])), fixed["t"])
    return grid, [(rho, fam) for rho in states]


def _reference_csv(spec):
    grid, points = _reference_points(spec)
    rows = []
    for value, (rho, fam) in zip(grid, points):
        report = _reference_report(rho, fam)
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
    return render_csv(rows)


def _assert_sweep_matches(spec):
    assert render_csv(run_sweep(spec)) == _reference_csv(spec)


def _tiles_grid(t_range_of, steps=81):
    rng = t_range_of(3)
    return np.linspace(0.9 * rng.lower, 0.9 * rng.upper, steps)


def test_tiles_t_grid(t_range_of):
    grid = _tiles_grid(t_range_of)
    rho = tiles_noisy(0.99)
    basis = standard_basis(3)
    batched = concurrence_lower_bounds(rho, [standard_family(3, t) for t in grid])
    assert batched == [_reference_report(rho, build_mums(basis, float(t))) for t in grid]
    _assert_sweep_matches(
        SweepSpec("t", grid[0], grid[-1], 81, "tiles", fixed={"p": 0.99})
    )


def test_horodecki_upsilon_grid():
    grid = np.linspace(0.0, 1.0, 101)
    fam = build_mums(standard_basis(3), 0.08)
    states = [horodecki_noisy(float(v), 0.995) for v in grid]
    batched = concurrence_lower_bounds_of_states(np.stack(states), fam)
    assert batched == [_reference_report(rho, fam) for rho in states]
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
    original = criteria._correlation

    def counted(realigned, ops_a, ops_b):
        contractions.append(_label(ops_a))
        return original(realigned, ops_a, ops_b)

    monkeypatch.setattr(criteria, "_correlation", counted)
    chunks = math.ceil(7 / points_per_chunk)

    grid = _tiles_grid(t_range_of, 7)
    rho = tiles_noisy(0.99)
    basis = standard_basis(3)
    expected = [_reference_report(rho, build_mums(basis, float(t))) for t in grid]
    contractions.clear()
    assert concurrence_lower_bounds(rho, [standard_family(3, t) for t in grid]) == expected
    assert contractions.count("P") == chunks and contractions.count("F") == 1

    fam = build_mums(basis, 0.08)
    states = [horodecki_noisy(float(v), 0.995) for v in np.linspace(0.0, 1.0, 7)]
    expected = [_reference_report(state, fam) for state in states]
    contractions.clear()
    assert concurrence_lower_bounds_of_states(np.stack(states), fam) == expected
    assert contractions.count("P") == chunks and contractions.count("F") == chunks

    # a generator is consumed one chunk at a time
    yielded = []

    def generated():
        for state in states:
            yielded.append(len(contractions))
            yield state

    contractions.clear()
    assert concurrence_lower_bounds_of_states(generated(), fam) == expected
    assert yielded == [2 * (i // points_per_chunk) for i in range(7)]

    _assert_sweep_matches(SweepSpec("t", grid[0], grid[-1], 7, "tiles", fixed={"p": 0.99}))
    _assert_sweep_matches(SweepSpec("q", 0.0, 1.0, 7, "horodecki", fixed={"upsilon": 0.4, "t": 0.08}))


def test_invalid_state_in_a_stack_is_reported(family):
    fam = family(3, 0.05)
    good = np.eye(9, dtype=complex) / 9.0
    bad = good.copy()
    bad[0, 0], bad[1, 1] = -1.0 / 9.0, 3.0 / 9.0  # unit trace, one negative eigenvalue
    for state, match in ((np.eye(9) / 4.0, "trace"), (bad, "negative eigenvalue")):
        with pytest.raises(ValueError, match=match):
            concurrence_lower_bounds_of_states(np.stack([good, state, good]), fam)
    with pytest.raises(ValueError, match="9x9"):
        concurrence_lower_bounds_of_states([good, np.eye(4) / 4.0], fam)
    with pytest.raises(ValueError, match="9x9"):
        concurrence_lower_bounds_of_states([np.stack([good, good])], fam)
    assert concurrence_lower_bounds_of_states([], fam) == []


def test_single_state_entry_points_reject_a_stack(family):
    # white noise twice: summing the singular values of both states would
    # exceed 1 + kappa and call it entangled
    fam = family(3, 0.05)
    stack = np.stack([np.eye(9, dtype=complex) / 9.0] * 2)
    for call in (
        lambda: build_correlation_matrix(stack, fam),
        lambda: separability_test(stack, fam),
        lambda: concurrence_lower_bound(stack, fam),
        lambda: concurrence_lower_bounds(stack, [fam]),
        lambda: concurrence_lower_bounds(list(stack), [fam]),
    ):
        with pytest.raises(ValueError, match=r"state must be 9x9, got \(2, 9, 9\)"):
            call()
    assert separability_test(stack[0], fam) == "undetected"


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
    [(-0.05, 0.1, 7), (0.05, 0.3, 6), (-0.3, 0.1, 9)],
    ids=["zero-in-the-middle", "beyond-upper", "below-lower"],
)
def test_inadmissible_t_in_a_grid(start, stop, steps):
    spec = SweepSpec("t", start, stop, steps, "tiles", fixed={"p": 0.99})
    with pytest.raises(UsageError) as info:
        run_sweep(spec)
    assert str(info.value) == _first_inadmissible(np.linspace(start, stop, steps))
    assert "inadmissible" in str(info.value)
