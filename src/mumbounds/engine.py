"""Sweeps and threshold searches over the built-in state families.

A sweep evaluates the concurrence bounds on a one-dimensional grid and
renders them as CSV; a threshold query locates the white-noise weight at
which the separability criterion starts detecting.  Invalid requests
raise ``UsageError``.

Each query makes its state once, at weight 1, and checks it once
(``make_state``); a white-noise weight is a coordinate of the
evaluation, which scales the frame, so no query forms a mixed state.
One rule of ``mumbounds.criteria`` evaluates every point, so a point
gives the same double in ``bound``, a sweep or a threshold search, and
no path forms the probability correlation matrix: a mixed state goes
through its frame, which depends only on d, and a pure state, alone or
in a stack, through closed forms in its Schmidt coefficients.  A t of
0, where kappa = 1/d at every d, is rejected before the state is built
or loaded (``check_nonzero_t``); at the state's d, a t or a grid of t
is checked by the rule of ``mums.standard_grid`` (``checked_t``), and
only a threshold query, whose result carries kappa, builds a family.

Every sweep and ``bound`` go through one column evaluator,
``criteria.bound_columns``, a chunk of points per SVD: a t-sweep or a
sweep of the family's one weight (``weight_name``) frames its one state
once, passing its grid as the t values or the weights.  An upsilon sweep
builds and checks one stack of Horodecki states per chunk, so its
memory stays bounded.  A threshold query frames the state once, and
each weight of the search is one SVD, or a closed form for a pure state
(``criteria.white_noise_margin``).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .criteria import bound_columns, chunk_points, white_noise_margin
from .mums import MumFamily, standard_family, standard_grid
from .states import check_weight, horodecki_state, load_state, tiles_state, validate_density
from .threshold import ThresholdResult, find_threshold

CSV_HEADER = "var,traceNormP,traceNormF,kappa,threshold,bound_literal,bound_derived,verdict"
# Most grid points a sweep takes; a larger count is rejected before the
# grid is allocated.  At this size a d = 3 sweep takes about 2.5 s and
# 140 MB of rows and columns on a 2-vCPU box, and both grow linearly with it.
MAX_SWEEP_STEPS = 100_000

# the state parameters each family takes, its one white-noise weight first;
# giving any other one is a UsageError
_STATE_PARAMS = {
    "tiles": ("p",),
    "horodecki": ("q", "upsilon"),
    "file": ("p",),
}
_SWEEP_VARS = {family: ("t", *params) for family, params in _STATE_PARAMS.items()}


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


def checked_t(d: int, t, context: str = ""):
    """t, a float or a grid of t, as a float array once admissible at d
    (``mums.standard_grid``); an inadmissible t is a UsageError, its text
    ``context`` followed by the rule's."""
    try:
        return standard_grid(d, t)
    except ValueError as exc:
        raise UsageError(context + str(exc)) from exc


def family_for(d: int, t: float) -> MumFamily:
    """The Gell-Mann family at (d, t); an inadmissible t is a UsageError."""
    return standard_family(d, checked_t(d, t))


def check_nonzero_t(t: float) -> None:
    """A UsageError for t = 0 before any state is built or loaded: kappa =
    1/d there at every d, so the rule at the smallest d gives the error
    that ``checked_t`` gives at the state's d."""
    if t == 0.0:
        checked_t(2, t)


# every value a family may take, in the order a UsageError names them
_FAMILY_PARAMS = ("p", "q", "upsilon", "d", "seed", "file")


def check_params(family: str, params: dict, takes: tuple[str, ...]) -> None:
    """Raise UsageError naming each of p, q, upsilon, d, seed and file that
    ``params`` gives (not None) but that is not in ``takes``, the
    family's parameters."""
    ignored = [k for k in _FAMILY_PARAMS if params.get(k) is not None and k not in takes]
    if ignored:
        raise UsageError(f"the {family} family does not take --{', --'.join(ignored)}")


def weight_name(family: str) -> str:
    """The one white-noise weight of a state family: p for tiles and file,
    q for horodecki; an unknown family is a UsageError.  At weight 0 every
    state is I/d^2."""
    if family not in _STATE_PARAMS:
        raise UsageError(f"unknown state family {family!r}")
    return _STATE_PARAMS[family][0]


def make_state(family: str, file: str | None, params: dict) -> tuple[np.ndarray, float]:
    """A state of a family at weight 1, from the upsilon in ``params``,
    and its white-noise weight: the family's weight in ``params``
    (``weight_name``), or 1 when it is not given.

    A parameter that is given (not None) but that the family does not
    take is a UsageError, ``file`` included, as is an unknown family; the
    weight must lie in [0, 1] (``states.check_weight``).  An array of
    upsilon values gives the stack of their states (``horodecki_state``).
    The state is never mixed: the weight scales its frame
    (``criteria.bound_columns``).  It is the query's one density check:
    ``load_state`` checks a file, and a built state or stack is checked
    here; a failure raises ValueError.
    """
    name = weight_name(family)
    # not in _STATE_PARAMS, from which the sweepable variables come, file is added here
    takes = (*_STATE_PARAMS[family], "file") if family == "file" else _STATE_PARAMS[family]
    check_params(family, {**params, "file": file}, takes)
    if family == "tiles":
        rho = tiles_state()
    elif family == "horodecki":
        if params.get("upsilon") is None:
            raise UsageError("--upsilon is required for the horodecki family")
        rho = horodecki_state(params["upsilon"])
    else:
        if file is None:
            raise UsageError("--file is required when --state file is selected")
        rho = load_state(file)
    if family != "file":
        problems = validate_density(rho)
        if problems:
            raise ValueError("state is not a density matrix: " + "; ".join(problems))
    weight = 1.0 if params.get(name) is None else params[name]
    check_weight(weight)
    return rho, weight


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
        if self.variable != "t":
            if self.fixed.get("t") is None:
                raise UsageError("--t is required when sweeping a mixing parameter")
            check_nonzero_t(self.fixed["t"])


@dataclass(frozen=True)
class ThresholdQuery:
    """Search query for the detection boundary of a white-noise weight."""

    state_family: str
    t: float
    search_variable: str            # the family's white-noise weight (weight_name)
    tolerance: float = 1e-6
    fixed: dict = field(default_factory=dict)
    file: str | None = None

    def validate(self) -> None:
        if not (math.isfinite(self.tolerance) and self.tolerance > 0.0):
            raise UsageError("threshold tolerance must be finite and positive")
        check_nonzero_t(self.t)
        name = weight_name(self.state_family)
        if self.search_variable != name:
            raise UsageError(
                f"search variable {self.search_variable!r} is not a white-noise "
                f"weight of the {self.state_family} family (allowed: {name})"
            )
        if self.fixed.get(self.search_variable) is not None:
            raise UsageError(
                f"--{self.search_variable} is the searched variable and cannot be given"
            )


def run_sweep(spec: SweepSpec) -> list[dict]:
    """Evaluate the sweep grid, ascending: per point, var, d and the other
    ``BoundReport.as_dict()`` fields.

    The grid is evaluated as columns (``bound_columns``), and the rows
    are built from them.
    """
    spec.validate()
    grid = np.linspace(spec.start, spec.stop, spec.steps)
    fixed = dict(spec.fixed)
    if spec.variable == "upsilon":
        # only the Horodecki family, on C^3 x C^3, takes upsilon: one stack
        # per chunk, made as it is evaluated; the first gives d, then t is checked
        step = chunk_points(3)
        columns = {}
        for start in range(0, len(grid), step):
            params = {**fixed, "upsilon": grid[start : start + step]}
            stack, q = make_state(spec.state_family, spec.file, params)
            if start == 0:
                d = infer_d(stack.shape[-1])
                t = checked_t(d, fixed["t"])
            for key, column in bound_columns(stack, t, weights=q).items():
                columns.setdefault(key, []).extend(column)
    else:
        # one state: the grid is either its t values, checked as one
        # array, or its white-noise weights, which scale its frame
        rho, w = make_state(spec.state_family, spec.file, fixed)
        d = infer_d(rho.shape[0])
        if spec.variable == "t":
            ts = checked_t(d, grid, "sweep grid point is inadmissible: ")
        else:
            ts, w = checked_t(d, fixed["t"]), grid
        columns = bound_columns(rho[None], ts, weights=w)

    names = ("var", "d", *columns)
    return [dict(zip(names, row)) for row in zip(grid.tolist(), [d] * len(grid), *columns.values())]


# the numbers of a row and then its verdict: "%.12g" formats a float
# exactly as format_value does
_CSV_KEYS = CSV_HEADER.split(",")
_CSV_ROW = ",".join(["%.12g"] * (len(_CSV_KEYS) - 1) + ["%s"])
_CSV_FIELDS = operator.itemgetter(*_CSV_KEYS)


def render_csv(rows: list[dict]) -> str:
    """The rows of ``run_sweep`` as CSV: the header, then one line per row."""
    return "\n".join([CSV_HEADER, *[_CSV_ROW % _CSV_FIELDS(row) for row in rows]]) + "\n"


def run_threshold(query: ThresholdQuery) -> tuple[ThresholdResult, MumFamily]:
    """Locate the detection boundary; returns (result, family).

    The margin is the excess of the probability correlation trace norm
    over 1 + kappa.  It is convex in the white-noise weight w and equals
    1/d - kappa < 0 at w = 0, so it crosses zero at most once on [0, 1].
    The state at weight 1 is framed once per query, and each evaluation
    is one SVD, or a closed form for a pure state
    (``criteria.white_noise_margin``).
    """
    query.validate()
    rho, _ = make_state(query.state_family, query.file, query.fixed)
    fam = family_for(infer_d(rho.shape[0]), query.t)
    return find_threshold(white_noise_margin(rho, fam), tol=query.tolerance), fam
