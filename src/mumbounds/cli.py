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

from .basis import standard_basis
from .config import TOL
from .criteria import concurrence_lower_bound
from .engine import (
    SweepSpec,
    ThresholdQuery,
    UsageError,
    _family_for,
    _fmt,
    _infer_d,
    _make_state,
    render_csv,
    run_sweep,
    run_threshold,
)
from .mums import (
    InadmissibleTError,
    build_f_blocks,
    build_mums,
    kappa_of_t,
    optimal_kappa,
    t_interval,
    two_design_residual,
    verify_mum_relations,
)
from .states import StateFileError, load_state, max_entangled, random_density, save_state


# A negative float token such as -1e-3, -.5 or -inf.
_NEGATIVE_FLOAT = re.compile(
    r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$|^-(inf(inity)?|nan)$", re.IGNORECASE
)


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads a token that starts with "-" as an option unless its
        # private _negative_number_matcher (r"^-\d+$|^-\d*\.\d+$" in CPython
        # 3.11) matches it, so -1e-3 and -inf read as missing values.  This
        # relies on argparse internals, checked on CPython 3.11 only;
        # TestNegativeFloatValues in tests/test_cli.py fails if another
        # argparse ignores the attribute.
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
    try:
        fam = build_mums(standard_basis(args.d), args.t)
    except InadmissibleTError as exc:
        rng = exc.t_range
        if args.t != 0.0 and rng.contains(args.t):
            raise  # a nonzero t below float resolution, where kappa = 1/d
        print(
            f"t = {_fmt(args.t)} is not admissible; the valid interval is "
            f"[{rng.lower:.6f}, {rng.upper:.6f}] with t nonzero",
            file=sys.stderr,
        )
        return 1
    report = verify_mum_relations(fam)
    residual = two_design_residual(fam)
    print(f"d={fam.d}")
    print(f"t={_fmt(fam.t)}")
    print(f"kappa={_fmt(fam.kappa)}")
    print(f"trace_one_dev={report.trace_one:.3e}")
    print(f"cross_basis_dev={report.cross_basis:.3e}")
    print(f"within_basis_dev={report.within_basis:.3e}")
    print(f"completeness_dev={report.completeness:.3e}")
    print(f"two_design_residual={residual:.3e}")
    ok = report.passed and residual < TOL.mum_relations
    print(f"status={'pass' if ok else 'fail'}")
    return 0 if ok else 2


def cmd_kappa(args) -> int:
    rng = t_interval(build_f_blocks(standard_basis(args.d)), args.d)
    print(f"d={args.d}")
    print(f"t={_fmt(args.t)}")
    print(f"kappa={_fmt(kappa_of_t(args.d, args.t))}")
    print(f"kappa_optimal={_fmt(optimal_kappa(args.d))}")
    admissible = args.t != 0.0 and rng.contains(args.t)
    print(f"t_admissible={'yes' if admissible else 'no'}")
    print(f"t_interval=[{_fmt(rng.lower)}, {_fmt(rng.upper)}]")
    return 0


def cmd_t_range(args) -> int:
    rng = t_interval(build_f_blocks(standard_basis(args.d)), args.d)
    print(f"d={args.d}")
    print(f"t_lower={_fmt(rng.lower)}")
    print(f"t_upper={_fmt(rng.upper)}")
    print(f"kappa_at_lower={_fmt(kappa_of_t(args.d, rng.lower))}")
    print(f"kappa_at_upper={_fmt(kappa_of_t(args.d, rng.upper))}")
    return 0


def cmd_bound(args) -> int:
    rho = _make_state(args.state, args.file, vars(args))
    d = _infer_d(rho.shape[0])
    fam = _family_for(d, args.t)
    report = concurrence_lower_bound(rho, fam, variant=args.variant, tol=args.tol)
    print(f"state={args.state}")
    for name, value in (("p", args.p), ("q", args.q), ("upsilon", args.upsilon)):
        if value is not None:
            print(f"{name}={_fmt(value)}")
    print(f"d={report.d}")
    print(f"t={_fmt(report.t)}")
    print(f"kappa={_fmt(report.kappa)}")
    print(f"threshold={_fmt(report.separability_threshold)}")
    print(f"traceNormP={_fmt(report.trace_norm_p)}")
    print(f"traceNormF={_fmt(report.trace_norm_f)}")
    print(f"bound_literal={_fmt(report.bound_literal)}")
    print(f"bound_derived={_fmt(report.bound_derived)}")
    print(f"bound={_fmt(report.bound)}")
    print(f"schmidt_number_lb={_fmt(report.schmidt_number_lb)}")
    print(f"verdict={report.verdict}")
    if args.out:
        Path(args.out).write_text(json.dumps(report.as_dict(), indent=1) + "\n")
    return 0


def cmd_sweep(args) -> int:
    fixed = {
        key: value
        for key, value in (("t", args.t), ("p", args.p), ("q", args.q), ("upsilon", args.upsilon))
        if value is not None and key != args.var
    }
    spec = SweepSpec(
        variable=args.var,
        start=args.start,
        stop=args.stop,
        steps=args.steps,
        state_family=args.state,
        fixed=fixed,
        variant=args.variant,
        file=args.file,
    )
    rows = run_sweep(spec)
    Path(args.out).write_text(render_csv(rows))
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def cmd_threshold(args) -> int:
    search = args.search_var or ("q" if args.state == "horodecki" else "p")
    fixed = {
        key: value
        for key, value in (("p", args.p), ("q", args.q), ("upsilon", args.upsilon))
        if value is not None and key != search
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
    print(f"kappa={_fmt(fam.kappa)}")
    if not result.found:
        print("undetected on [0, 1]")
        print(f"evaluations={result.evaluations}")
        return 0
    lo, hi = result.bracket
    mlo, mhi = result.margins
    print(f"threshold={_fmt(result.threshold)}")
    print(f"bracket_lower={_fmt(lo)}")
    print(f"margin_at_lower={mlo:.6e}")
    print(f"bracket_upper={_fmt(hi)}")
    print(f"margin_at_upper={mhi:.6e}")
    print(f"evaluations={result.evaluations}")
    return 0


def cmd_gen_state(args) -> int:
    if args.state in ("tiles", "horodecki"):
        rho = _make_state(args.state, None, vars(args))
    elif args.state == "max-entangled":
        if args.d is None:
            raise UsageError("--d is required for the max-entangled family")
        psi = max_entangled(args.d)
        rho = np.outer(psi, psi.conj())
    elif args.state == "random":
        if args.d is None:
            raise UsageError("--d is required for the random family")
        rho = random_density(args.d * args.d, seed=args.seed)
    else:
        raise UsageError(f"unknown state family {args.state!r}")
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
        p.add_argument("--p", type=_finite, help="white-noise mixing weight (tiles)")
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
    p.add_argument("--variant", choices=("literal", "derived"), default="derived")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("threshold", help="locate the detection boundary in p or q")
    add_state_flags(p)
    p.add_argument("--t", type=_finite, required=True)
    p.add_argument("--search-var", choices=("p", "q"), dest="search_var")
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
    p.add_argument("--seed", type=int, default=0)
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
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
