"""Command-line front end.

Subcommands: verify, kappa, t-range, bound, sweep, threshold, gen-state,
verify-state.  Exit codes: 0 success (including an undetected verdict
from a valid run), 1 usage error, 2 numerical failure or invalid data.
Sweeps and threshold searches run in ``mumbounds.engine``; this module
parses arguments and prints results.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from pathlib import Path

import numpy as np

from .config import TOL
from .criteria import bound_columns
from .engine import (
    SweepSpec,
    ThresholdQuery,
    UsageError,
    check_nonzero_t,
    check_params,
    checked_t,
    family_for,
    format_value,
    infer_d,
    make_state,
    render_csv,
    run_sweep,
    run_threshold,
    weight_name,
)
from .mums import (
    InadmissibleTError,
    kappa_of_t,
    optimal_kappa,
    standard_grid,
    standard_t_range,
    verify_mum_relations,
)
from .states import (
    StateFileError, load_state, max_entangled, mix_with_white_noise, random_density, save_state,
)


# A negative float token such as -1e-3, -.5 or -inf.
_NEGATIVE_FLOAT = re.compile(
    r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$|^-(inf(inity)?|nan)$", re.IGNORECASE
)


# the BoundReport.as_dict() keys that `bound` prints, in order
_BOUND_KEYS = (
    "d", "t", "kappa", "threshold", "traceNormP", "traceNormF",
    "bound_literal", "bound_derived", "bound", "schmidt_number_lb", "verdict",
)


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads a token that starts with "-" as an option unless its
        # private _negative_number_matcher (r"^-\d+$|^-\d*\.\d+$" in CPython
        # 3.10 to 3.13) matches it, so -1e-3 and -inf read as missing values.
        # This relies on argparse internals, checked on CPython 3.10 to 3.13;
        # TestNegativeFloatValues in tests/test_cli.py, which CI also runs on
        # 3.14, fails if another argparse ignores the attribute.
        self._negative_number_matcher = _NEGATIVE_FLOAT

    def error(self, message):  # route argparse failures to exit code 1
        raise UsageError(message)


def _finite(text: str) -> float:
    """Argument type of every parameter value: a finite float."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def cmd_verify(args) -> int:
    fam = family_for(args.d, args.t)
    report = verify_mum_relations(fam)
    print(f"d={fam.d}")
    print(f"t={format_value(fam.t)}")
    print(f"kappa={format_value(fam.kappa)}")
    print(f"trace_one_dev={report.trace_one:.3e}")
    print(f"cross_basis_dev={report.cross_basis:.3e}")
    print(f"within_basis_dev={report.within_basis:.3e}")
    print(f"completeness_dev={report.completeness:.3e}")
    print(f"two_design_residual={report.two_design_residual:.3e}")
    print(f"status={'pass' if report.passed else 'fail'}")
    return 0 if report.passed else 2


def cmd_kappa(args) -> int:
    try:  # the admissibility rule of every family build
        standard_grid(args.d, args.t)
        admissible = True
    except InadmissibleTError:
        admissible = False
    rng = standard_t_range(args.d)
    print(f"d={args.d}")
    print(f"t={format_value(args.t)}")
    print(f"kappa={format_value(kappa_of_t(args.d, args.t))}")
    print(f"kappa_optimal={format_value(optimal_kappa(args.d))}")
    print(f"t_admissible={'yes' if admissible else 'no'}")
    print(f"t_interval=[{format_value(rng.lower)}, {format_value(rng.upper)}]")
    return 0


def cmd_t_range(args) -> int:
    rng = standard_t_range(args.d)
    print(f"d={args.d}")
    print(f"t_lower={format_value(rng.lower)}")
    print(f"t_upper={format_value(rng.upper)}")
    print(f"kappa_at_lower={format_value(kappa_of_t(args.d, rng.lower))}")
    print(f"kappa_at_upper={format_value(kappa_of_t(args.d, rng.upper))}")
    return 0


def cmd_bound(args) -> int:
    check_nonzero_t(args.t)
    rho, w = make_state(args.state, args.file, vars(args))
    d = infer_d(rho.shape[0])
    columns = bound_columns(rho[None], checked_t(d, args.t), args.tol, weights=w)
    fields = {"d": d, **{key: column[0] for key, column in columns.items()}}
    print(f"state={args.state}")
    for name, value in (("p", args.p), ("q", args.q), ("upsilon", args.upsilon)):
        if value is not None:
            print(f"{name}={format_value(value)}")
    # the headline bound is the chosen variant's coefficient
    fields.update(bound=fields[f"bound_{args.variant}"], variant=args.variant)
    for key in _BOUND_KEYS:
        print(f"{key}={format_value(fields[key])}")
    if args.out:
        Path(args.out).write_text(json.dumps(fields, indent=1) + "\n")
    return 0


def cmd_sweep(args) -> int:
    fixed = {
        key: value
        for key, value in (("t", args.t), ("p", args.p), ("q", args.q), ("upsilon", args.upsilon))
        if value is not None
    }
    spec = SweepSpec(
        variable=args.var,
        start=args.start,
        stop=args.stop,
        steps=args.steps,
        state_family=args.state,
        fixed=fixed,
        file=args.file,
    )
    rows = run_sweep(spec)
    Path(args.out).write_text(render_csv(rows))
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def cmd_threshold(args) -> int:
    search = weight_name(args.state)
    fixed = {
        key: value
        for key, value in (("p", args.p), ("q", args.q), ("upsilon", args.upsilon))
        if value is not None
    }
    query = ThresholdQuery(
        state_family=args.state,
        t=args.t,
        search_variable=search,
        tolerance=args.tol,
        fixed=fixed,
        file=args.file,
    )
    result, fam = run_threshold(query)
    print("criterion=separability")
    print(f"search_variable={search}")
    print(f"kappa={format_value(fam.kappa)}")
    if not result.found:
        print("undetected on [0, 1]")
        print(f"evaluations={result.evaluations}")
        return 0
    lo, hi = result.bracket
    mlo, mhi = result.margins
    print(f"threshold={format_value(result.threshold)}")
    print(f"bracket_lower={format_value(lo)}")
    print(f"margin_at_lower={mlo:.6e}")
    print(f"bracket_upper={format_value(hi)}")
    print(f"margin_at_upper={mhi:.6e}")
    print(f"evaluations={result.evaluations}")
    return 0


def cmd_gen_state(args) -> int:
    if args.state in ("tiles", "horodecki"):
        rho = mix_with_white_noise(*make_state(args.state, None, vars(args)))
    else:  # max-entangled or random: a dimension and no parameter
        check_params(args.state, vars(args), ("d", "seed") if args.state == "random" else ("d",))
        if args.d is None:
            raise UsageError(f"--d is required for the {args.state} family")
        if args.d < 2:
            raise ValueError("dimension must be at least 2")
        if args.state == "random":
            rho = random_density(args.d * args.d, seed=0 if args.seed is None else args.seed)
        else:
            psi = max_entangled(args.d)
            rho = np.outer(psi, psi.conj())
    save_state(rho, args.out)
    print(f"wrote {args.out}")
    return 0


def cmd_verify_state(args) -> int:
    try:
        rho = load_state(args.file)
    except StateFileError as exc:
        print(f"file={args.file}")
        print(f"violation: {exc}")
        print("status=invalid")
        return 2
    print(f"file={args.file}")
    print(f"dim={rho.shape[0]}")
    for name in ("hermitian", "unit trace", "positive semidefinite"):
        print(f"invariant {name}: ok")
    print("status=valid")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(
        prog="mumbounds",
        description=(
            "Build mutually unbiased measurement families and evaluate "
            "trace-norm entanglement criteria on bipartite states."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_state_flags(p, families=("tiles", "horodecki", "file")):
        p.add_argument("--state", choices=families, required=True)
        p.add_argument("--file", help="density-matrix file for --state file")
        p.add_argument("--p", type=_finite, help="white-noise mixing weight (tiles, file)")
        p.add_argument("--q", type=_finite, help="white-noise mixing weight (horodecki)")
        p.add_argument("--upsilon", type=_finite, help="Horodecki state parameter")

    p = sub.add_parser("verify", help="check the MUM defining relations at (d, t)")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--t", type=_finite, required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("kappa", help="sharpness parameter at (d, t)")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--t", type=_finite, required=True)
    p.set_defaults(func=cmd_kappa)

    p = sub.add_parser("t-range", help="admissible t interval for dimension d")
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(func=cmd_t_range)

    p = sub.add_parser("bound", help="concurrence bounds and verdict for one state")
    add_state_flags(p)
    p.add_argument("--t", type=_finite, required=True)
    p.add_argument("--variant", choices=("literal", "derived"), default="derived")
    p.add_argument("--tol", type=float, default=TOL.verdict)
    p.add_argument("--out", help="optional JSON report path")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("sweep", help="sweep one parameter and write CSV")
    add_state_flags(p)
    p.add_argument("--var", choices=("t", "p", "q", "upsilon"), required=True)
    p.add_argument("--start", type=_finite, required=True)
    p.add_argument("--stop", type=_finite, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--t", type=_finite, help="fixed t when sweeping a mixing parameter")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("threshold", help="locate the detection boundary in p or q")
    add_state_flags(p)
    p.add_argument("--t", type=_finite, required=True)
    p.add_argument("--tol", type=float, default=1e-6)
    p.set_defaults(func=cmd_threshold)

    p = sub.add_parser("gen-state", help="write a built-in state to a file")
    p.add_argument(
        "--state",
        choices=("tiles", "horodecki", "max-entangled", "random"),
        required=True,
    )
    p.add_argument("--p", type=_finite)
    p.add_argument("--q", type=_finite)
    p.add_argument("--upsilon", type=_finite)
    p.add_argument("--d", type=int, help="subsystem dimension for max-entangled/random")
    p.add_argument("--seed", type=int, help="seed for random (default 0)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_state)

    p = sub.add_parser("verify-state", help="validate a density-matrix file")
    p.add_argument("--file", required=True)
    p.set_defaults(func=cmd_verify_state)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except StateFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except np.linalg.LinAlgError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
