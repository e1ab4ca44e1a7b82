"""Acceptance suite.

Each test evaluates one criterion at its stated tolerance and prints one
PASS/FAIL line; run with `pytest tests/test_acceptance.py -v -s` to see
the lines as they complete.
"""

import time

import numpy as np
import pytest

from mumbounds.basis import standard_basis
from mumbounds.engine import SweepSpec, ThresholdQuery, render_csv, run_sweep, run_threshold
from mumbounds.criteria import (
    build_correlation_matrix,
    concurrence_lower_bound,
    pure_concurrence,
    pure_trace_norm_closed_form,
)
from mumbounds.linalg import schmidt_decompose
from mumbounds.mums import (
    build_f_blocks,
    t_interval,
    two_design_residual,
    verify_mum_relations,
)
from mumbounds.states import horodecki_state, max_entangled, random_pure

TABLE_THRESHOLDS = {
    0.2: 0.994054,
    0.4: 0.99461,
    0.6: 0.99626,
    0.8: 0.998123,
    0.9: 0.999067,
}


def _report(name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, f"{name}: {detail}"


def _t_grid(interval):
    # five admissible values including both endpoints
    return [
        interval.lower,
        0.5 * interval.lower,
        0.35 * interval.upper,
        0.7 * interval.upper,
        interval.upper,
    ]


def test_criterion_1_mum_relations(family, t_range_of):
    start = time.perf_counter()
    worst_relation = 0.0
    worst_completeness = 0.0
    for d in (2, 3, 4, 5):
        for t in _t_grid(t_range_of(d)):
            report = verify_mum_relations(family(d, t))
            worst_relation = max(
                worst_relation,
                report.trace_one,
                report.cross_basis,
                report.within_basis,
            )
            worst_completeness = max(worst_completeness, report.completeness)
    elapsed = time.perf_counter() - start
    ok = worst_relation < 1e-9 and worst_completeness < 1e-10 and elapsed < 5.0
    _report(
        "criterion 1: MUM defining relations on the (d, t) grid",
        ok,
        f"max relation dev {worst_relation:.2e}, max completeness dev "
        f"{worst_completeness:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_two_design_identity(family, t_range_of):
    start = time.perf_counter()
    worst = 0.0
    for d in (2, 3, 4, 5):
        for t in _t_grid(t_range_of(d)):
            worst = max(worst, two_design_residual(family(d, t)))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and elapsed < 5.0
    _report(
        "criterion 2: 2-design identity of the measurement operators",
        ok,
        f"max residual {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_3_t_interval_reproduction():
    start = time.perf_counter()
    interval = t_interval(build_f_blocks(standard_basis(3)), 3)
    dev_lower = abs(interval.lower - (-0.10939))
    dev_upper = abs(interval.upper - 0.122008)
    elapsed = time.perf_counter() - start
    ok = dev_lower < 2e-3 and dev_upper < 2e-3 and elapsed < 1.0
    _report(
        "criterion 3: reference t interval for d=3",
        ok,
        f"computed [{interval.lower:.6f}, {interval.upper:.6f}] with the "
        f"lexicographic Gell-Mann partition, devs {dev_lower:.1e}/{dev_upper:.1e}, "
        f"{elapsed:.2f}s",
    )


def test_criterion_4_closed_form_oracle(family, t_range_of):
    start = time.perf_counter()
    worst = 0.0
    states_per_d = 3334  # 10002 states overall, each checked at 3 t values
    for d in (2, 3, 4):
        rng = t_range_of(d)
        fams = [
            family(d, t)
            for t in (0.6 * rng.lower, 0.4 * rng.upper, 0.95 * rng.upper)
        ]
        for seed in range(states_per_d):
            psi = random_pure(d, d, seed=seed)
            rho = np.outer(psi, psi.conj())
            schmidt = schmidt_decompose(psi, d, d)
            for fam in fams:
                expect = pure_trace_norm_closed_form(schmidt, d, fam.kappa)
                got = build_correlation_matrix(rho, fam).trace_norm
                worst = max(worst, abs(got - expect))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-8 and elapsed < 60.0
    _report(
        "criterion 4: closed-form trace-norm oracle on 10^4 pure states",
        ok,
        f"max |trace norm - closed form| {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_5_tightness_on_max_entangled(family, t_range_of):
    worst_derived = 0.0
    worst_literal = 0.0
    for d in (2, 3, 4):
        psi = max_entangled(d)
        rho = np.outer(psi, psi.conj())
        exact = np.sqrt(2.0 * (d - 1) / d)
        assert pure_concurrence(psi, d, d) == pytest.approx(exact, abs=1e-12)
        for t in _t_grid(t_range_of(d)):
            fam = family(d, t)
            report = concurrence_lower_bound(rho, fam)
            worst_derived = max(worst_derived, abs(report.bound_derived - exact))
            expect_literal = report.bound_derived * np.sqrt(fam.kappa * d - 1.0)
            worst_literal = max(worst_literal, abs(report.bound_literal - expect_literal))
    ok = worst_derived < 1e-8 and worst_literal < 1e-10
    _report(
        "criterion 5: tightness on maximally entangled states",
        ok,
        f"derived dev {worst_derived:.2e}, variant relation dev {worst_literal:.2e}",
    )


def test_criterion_6_soundness_on_random_pure_states(family, t_range_of):
    start = time.perf_counter()
    worst = -np.inf
    for seed in range(10000):
        d = (2, 3, 4)[seed % 3]
        fam = family(d, 0.6 * t_range_of(d).upper)
        psi = random_pure(d, d, seed=seed)
        report = concurrence_lower_bound(np.outer(psi, psi.conj()), fam)
        worst = max(worst, report.bound_derived - pure_concurrence(psi, d, d))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8
    _report(
        "criterion 6: bound never exceeds the concurrence on 10^4 pure states",
        ok,
        f"max (bound - concurrence) {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_7_reference_thresholds(family):
    start = time.perf_counter()
    fam = family(3, 0.01)
    computed = {}
    for upsilon in TABLE_THRESHOLDS:
        result, _ = run_threshold(
            ThresholdQuery(
                state_family="horodecki",
                t=0.01,
                search_variable="q",
                tolerance=1e-6,
                fixed={"upsilon": upsilon},
            )
        )
        assert result.found, f"no detection boundary found for upsilon={upsilon}"
        computed[upsilon] = result.threshold
    elapsed = time.perf_counter() - start

    worst = max(
        abs(computed[u] - expected) for u, expected in TABLE_THRESHOLDS.items()
    )
    ordered = [computed[u] for u in sorted(computed)]
    monotone = all(a < b for a, b in zip(ordered, ordered[1:]))
    approaches_one = ordered[-1] > 0.999
    detected_at_pure = all(
        build_correlation_matrix(horodecki_state(u), fam).trace_norm
        > 1.0 + fam.kappa
        for u in TABLE_THRESHOLDS
    )
    ok = (
        worst < 5e-3
        and monotone
        and approaches_one
        and detected_at_pure
        and elapsed < 120.0
    )
    detail = ", ".join(f"{u}->{computed[u]:.6f}" for u in sorted(computed))
    _report(
        "criterion 7: reference detection thresholds at t=0.01",
        ok,
        f"{detail}; max dev {worst:.1e}, monotone={monotone}, {elapsed:.1f}s",
    )


def test_criterion_8_product_states_stay_undetected(family):
    fam = family(3, 0.01)
    threshold = 1.0 + fam.kappa
    worst = -np.inf
    verdicts_ok = True
    for seed in range(1000):
        a = random_pure(3, 1, seed=2 * seed)
        b = random_pure(3, 1, seed=2 * seed + 1)
        psi = np.kron(a, b)
        report = concurrence_lower_bound(np.outer(psi, psi.conj()), fam)
        worst = max(worst, report.trace_norm_p - threshold)
        verdicts_ok = verdicts_ok and report.verdict == "undetected"
    ok = worst <= 1e-8 and verdicts_ok
    _report(
        "criterion 8: 10^3 product states stay below the separability threshold",
        ok,
        f"max excess {worst:.2e}",
    )


def test_criterion_9_figure_data_sweeps(t_range_of, tmp_path):
    rng = t_range_of(3)
    specs = [
        SweepSpec(
            variable="t",
            start=0.9 * rng.lower,
            stop=0.9 * rng.upper,
            steps=41,
            state_family="tiles",
            fixed={"p": 0.99},
        ),
        SweepSpec(
            variable="upsilon",
            start=0.0,
            stop=1.0,
            steps=41,
            state_family="horodecki",
            fixed={"q": 0.995, "t": 0.08},
        ),
    ]
    ok = True
    details = []
    for spec in specs:
        rows = run_sweep(spec)
        values = [row["var"] for row in rows]
        numeric = np.array(
            [
                [
                    row["traceNormP"],
                    row["traceNormF"],
                    row["kappa"],
                    row["threshold"],
                    row["bound_literal"],
                    row["bound_derived"],
                ]
                for row in rows
            ]
        )
        sane = (
            len(rows) == 41
            and np.all(np.isfinite(numeric))
            and np.all(numeric[:, 4:] >= 0.0)
            and all(a < b for a, b in zip(values, values[1:]))
            and all(row["verdict"] in ("entangled", "undetected") for row in rows)
        )
        path = tmp_path / f"{spec.state_family}_{spec.variable}.csv"
        path.write_text(render_csv(rows))
        sane = sane and path.read_text().count("\n") == 42
        ok = ok and sane
        detected = sum(row["verdict"] == "entangled" for row in rows)
        details.append(f"{spec.state_family}/{spec.variable}: {detected}/41 detected")
    _report("criterion 9: figure-data sweeps emit sane CSV", ok, "; ".join(details))
