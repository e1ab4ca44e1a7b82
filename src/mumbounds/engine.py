"""Sweeps and threshold searches over the built-in state families.

A sweep evaluates the concurrence bounds on a one-dimensional grid and
renders them as CSV; a threshold query locates the white-noise weight at
which the separability criterion starts detecting.  Invalid requests
raise ``UsageError``.

Each query touches its state once.  Correlation matrices are one GEMM
contraction A @ R @ B^T of the realigned state R with the family's
operator stacks (see ``mumbounds.criteria``).  A sweep is one batched
call.  The Gell-Mann blocks and t-interval of a dimension are built on
its first query and memoised (``mums.standard_family``), so the families
of a t-sweep share one block array; a t-sweep validates and
realigns the state once, contracts the t-independent block matrix once,
and the probability matrices of its points in stacked chunks
(``concurrence_lower_bounds``).  A p, q or upsilon sweep builds its
per-point states one by one, as each chunk of them is evaluated at one
family (``concurrence_lower_bounds_of_states``).
A threshold query builds the state at weight 1, contracts its
probability matrix C once, and evaluates every other weight of the
search as one SVD of w*C + (1 - w)*J/d^2, the exact matrix of the
mixture with white noise, since every effect has unit trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .criteria import (
    build_correlation_matrix,
    concurrence_lower_bounds,
    concurrence_lower_bounds_of_states,
)
from .linalg import trace_norm
from .mums import MumFamily, standard_family
from .states import horodecki_noisy, load_state, mix_with_white_noise, tiles_noisy
from .threshold import ThresholdResult, find_threshold

CSV_HEADER = "var,traceNormP,traceNormF,kappa,threshold,bound_literal,bound_derived,verdict"
# Most grid points a sweep takes; a larger count is rejected before the
# grid is allocated.  At this size a d = 3 sweep takes about 4 s and
# 130 MB of rows on a 2-vCPU box, and the rows grow linearly with it.
MAX_SWEEP_STEPS = 100_000

# the state parameters each family takes; giving any other one is a UsageError
_STATE_PARAMS = {
    "tiles": ("p",),
    "horodecki": ("q", "upsilon"),
    "file": ("p", "q"),
}
_SWEEP_VARS = {family: ("t", *params) for family, params in _STATE_PARAMS.items()}
# the white-noise weights of each family; at weight 0 every state is I/d^2
_SEARCH_VARS = {
    family: tuple(name for name in params if name != "upsilon")
    for family, params in _STATE_PARAMS.items()
}


class UsageError(Exception):
    pass


def format_value(x) -> str:
    """A float to 12 significant digits, anything else by ``str``: CSV and CLI output."""
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def infer_d(dim: int) -> int:
    """The subsystem dimension d of a dim x dim state on C^d x C^d."""
    d = math.isqrt(dim)
    if d * d != dim or d < 2:
        raise UsageError(
            f"state dimension {dim} is not d*d for a bipartite d x d system"
        )
    return d


def family_for(d: int, t: float) -> MumFamily:
    """The Gell-Mann family at (d, t); an inadmissible t is a UsageError."""
    try:
        return standard_family(d, t)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def check_params(family: str, params: dict, takes: tuple[str, ...]) -> None:
    """Raise UsageError naming each of p, q and upsilon that ``params``
    gives (not None) but that is not in ``takes``, the family's parameters."""
    ignored = [k for k in ("p", "q", "upsilon") if params.get(k) is not None and k not in takes]
    if ignored:
        raise UsageError(f"the {family} family does not take --{', --'.join(ignored)}")


def make_state(family: str, file: str | None, params: dict) -> np.ndarray:
    """Build a state of a family from the p, q and upsilon in ``params``.

    A parameter that is given (not None) but that the family does not
    take is a UsageError, as is an unknown family.
    """
    if family not in _STATE_PARAMS:
        raise UsageError(f"unknown state family {family!r}")
    check_params(family, params, _STATE_PARAMS[family])
    p, q, upsilon = params.get("p"), params.get("q"), params.get("upsilon")
    if family == "tiles":
        return tiles_noisy(1.0 if p is None else p)
    if family == "horodecki":
        if upsilon is None:
            raise UsageError("--upsilon is required for the horodecki family")
        return horodecki_noisy(upsilon, 1.0 if q is None else q)
    if family == "file":
        if file is None:
            raise UsageError("--file is required when --state file is selected")
        rho = load_state(file)
        if p is not None and q is not None:
            raise UsageError("give at most one of --p/--q as the mixing weight")
        weight = p if p is not None else q
        if weight is not None:
            rho = mix_with_white_noise(rho, weight)
        return rho


@dataclass(frozen=True)
class SweepSpec:
    """One-dimensional parameter sweep over a state family."""

    variable: str                   # t | p | q | upsilon
    start: float
    stop: float
    steps: int
    state_family: str               # tiles | horodecki | file
    fixed: dict = field(default_factory=dict)
    file: str | None = None

    def validate(self) -> None:
        if self.state_family not in _SWEEP_VARS:
            raise UsageError(f"unknown state family {self.state_family!r}")
        if self.variable not in _SWEEP_VARS[self.state_family]:
            raise UsageError(
                f"variable {self.variable!r} is not sweepable for the "
                f"{self.state_family} family (allowed: "
                f"{', '.join(_SWEEP_VARS[self.state_family])})"
            )
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise UsageError("sweep start and stop must be finite")
        if not self.start < self.stop:
            raise UsageError("sweep requires start < stop")
        if self.steps < 2:
            raise UsageError("sweep requires at least 2 steps")
        if self.steps > MAX_SWEEP_STEPS:
            raise UsageError(f"sweep allows at most {MAX_SWEEP_STEPS} steps, got {self.steps}")
        if self.fixed.get(self.variable) is not None:
            raise UsageError(f"--{self.variable} is the swept variable and cannot be given")
        if self.variable != "t" and self.fixed.get("t") is None:
            raise UsageError("--t is required when sweeping a mixing parameter")


@dataclass(frozen=True)
class ThresholdQuery:
    """Search query for the detection boundary of a white-noise weight."""

    state_family: str
    t: float
    search_variable: str            # p | q, a white-noise weight of the family
    tolerance: float = 1e-6
    fixed: dict = field(default_factory=dict)
    file: str | None = None

    def validate(self) -> None:
        if not (math.isfinite(self.tolerance) and self.tolerance > 0.0):
            raise UsageError("threshold tolerance must be finite and positive")
        if self.state_family not in _SEARCH_VARS:
            raise UsageError(f"unknown state family {self.state_family!r}")
        if self.search_variable not in _SEARCH_VARS[self.state_family]:
            raise UsageError(
                f"search variable {self.search_variable!r} is not a white-noise "
                f"weight of the {self.state_family} family (allowed: "
                f"{', '.join(_SEARCH_VARS[self.state_family])})"
            )
        if self.fixed.get(self.search_variable) is not None:
            raise UsageError(
                f"--{self.search_variable} is the searched variable and cannot be given"
            )


def run_sweep(spec: SweepSpec) -> list[dict]:
    """Evaluate the sweep grid, ascending: per point, var and ``BoundReport.as_dict()``."""
    spec.validate()
    grid = np.linspace(spec.start, spec.stop, spec.steps)
    fixed = dict(spec.fixed)

    def state_at(params: dict) -> np.ndarray:
        return make_state(spec.state_family, spec.file, params)

    if spec.variable == "t":
        rho = state_at(fixed)
        d = infer_d(rho.shape[0])
        try:
            fams = [standard_family(d, t) for t in grid]
        except ValueError as exc:
            raise UsageError(f"sweep grid point is inadmissible: {exc}") from exc
        reports = concurrence_lower_bounds(rho, fams)
    else:
        if spec.variable == "upsilon":
            probe = state_at({**fixed, "upsilon": float(grid[0])})

            def state(v: float) -> np.ndarray:
                return state_at({**fixed, "upsilon": v})
        else:
            # a white-noise weight: every point mixes the state at weight 1
            probe = state_at({**fixed, spec.variable: 1.0})

            def state(v: float) -> np.ndarray:
                return mix_with_white_noise(probe, v)

        fam = family_for(infer_d(probe.shape[0]), fixed["t"])
        states = (state(float(v)) for v in grid)  # built as each chunk is evaluated
        reports = concurrence_lower_bounds_of_states(states, fam)

    return [{"var": float(value), **report.as_dict()} for value, report in zip(grid, reports)]


def render_csv(rows: list[dict]) -> str:
    lines = [CSV_HEADER]
    for row in rows:
        lines.append(",".join(format_value(row[key]) for key in CSV_HEADER.split(",")))
    return "\n".join(lines) + "\n"


def run_threshold(query: ThresholdQuery) -> tuple[ThresholdResult, MumFamily]:
    """Locate the detection boundary; returns (result, family).

    The margin is the trace norm of the probability correlation matrix
    minus 1 + kappa.  It is convex in the white-noise weight w and equals
    1/d - kappa < 0 at w = 0, so it crosses zero at most once on [0, 1].
    The state at weight w has the probability matrix w*C + (1 - w)*J/d^2,
    where C is the matrix at weight 1, so C is built once per query and
    its trace norm, already computed with it, is the margin at w = 1.
    """
    query.validate()
    if query.t == 0.0:
        raise UsageError("t must be admissible and nonzero")
    rho = make_state(
        query.state_family, query.file, {**query.fixed, query.search_variable: 1.0}
    )
    fam = family_for(infer_d(rho.shape[0]), query.t)
    corr = build_correlation_matrix(rho, fam)
    dim = rho.shape[0]
    threshold = 1.0 + fam.kappa

    def margin(w: float) -> float:
        if w == 1.0:
            return corr.trace_norm - threshold
        return trace_norm(w * corr.matrix + (1.0 - w) / dim) - threshold

    return find_threshold(margin, tol=query.tolerance), fam
