"""Acceptance suite.

Each test evaluates one criterion at its stated tolerance and prints one
PASS/FAIL line; run with `pytest tests/test_acceptance.py -v -s` to see
the lines as they complete.
"""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mumbounds.basis import standard_basis
from mumbounds.config import TOL
from mumbounds.engine import SweepSpec, ThresholdQuery, render_csv, run_sweep, run_threshold
from mumbounds.criteria import (
    bound_columns,
    build_correlation_matrix,
    concurrence_lower_bound,
    pure_concurrence,
    pure_trace_norm_closed_form,
    white_noise_margin,
)
from mumbounds.linalg import partial_trace, schmidt_decompose
from mumbounds.mums import (
    build_f_blocks,
    kappa_gap,
    standard_family,
    swap_operator,
    t_interval,
    two_design_residual,
    verify_mum_relations,
)
from mumbounds.states import horodecki_state, max_entangled, random_pure
from mumbounds.threshold import find_threshold

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


def _isotropic(d, fidelity):
    """F |Phi><Phi| + (1 - F)(I - |Phi><Phi|)/(d^2 - 1)."""
    phi = max_entangled(d)
    proj = np.outer(phi, phi.conj())
    return fidelity * proj + (1.0 - fidelity) / (d * d - 1) * (np.eye(d * d) - proj)


def test_criterion_10_pure_threshold_oracle(t_range_of):
    # the excess of w psi psi^dagger + (1 - w) I/d^2 is affine in w and
    # vanishes at w* = (d - 1)/(d - 1 + 2d sum_{j<k} s_j s_k) at every t;
    # for the maximally entangled state w* = 1/(d + 1), the separability
    # threshold of the isotropic states (Horodecki and Horodecki, PRA 59,
    # 4206, 1999).  s is taken from the spectrum of rho_A.  A chord step
    # lands on w* itself, where the rounding of the margin (about 1e-16)
    # decides its sign, so the bracket may miss w* by a few doubles.
    worst = miss = 0.0
    missed = []
    for d in range(2, 9):
        rng = t_range_of(d)
        psis = [max_entangled(d), *(random_pure(d, d, seed=60 * d + k) for k in range(3))]
        for k, psi in enumerate(psis):
            rho = np.outer(psi, psi.conj())
            s = np.sqrt(np.clip(np.linalg.eigvalsh(partial_trace(rho, d, d)), 0.0, None))
            cross = 0.5 * (s.sum() ** 2 - (s * s).sum())
            w_star = 1.0 / (d + 1) if k == 0 else (d - 1) / (d - 1 + 2 * d * cross)
            for t in (rng.lower, rng.upper, 1e-3 * rng.upper):
                result = find_threshold(white_noise_margin(rho, standard_family(d, t)), tol=1e-9)
                lo, hi = result.bracket
                worst = max(worst, hi - lo)
                miss = max(miss, lo - w_star, w_star - hi)
                if not (result.found and hi - lo <= 1e-9 and lo - 1e-14 <= w_star <= hi + 1e-14):
                    missed.append((d, k, t, w_star, result.bracket))
    _report(
        "criterion 10: pure-state thresholds bracket w* = (d-1)/(d-1+2d sum s_j s_k)",
        not missed,
        f"widest bracket {worst:.1e}, largest miss {miss:.1e}, missed {missed}",
    )


def test_criterion_11_isotropic_schmidt_number(t_range_of):
    # rho_F has Schmidt number greater than k exactly when F > k/d (Terhal
    # and Horodecki, PRA 61, 040301(R), 2000), and schmidt_number_lb is
    # max(1, dF) on it at every t; as |Phi><Phi| at the weight w that gives
    # fidelity F, 1 + (d - 1)(w(d + 1) - 1)/d = dF exactly
    worst = 0.0
    cases = 0
    for d in range(2, 9):
        rng = t_range_of(d)
        ks = np.arange(1, d + 1) / d
        fidelities = [*(ks - 1e-3), *(ks[:-1] + 1e-3), 1.0]
        phi = max_entangled(d)
        for t in (rng.lower, rng.upper, 1e-3 * rng.upper):
            fam = standard_family(d, t)
            weights = (np.array(fidelities) - 1.0 / d**2) / (1.0 - 1.0 / d**2)
            pure = bound_columns(np.outer(phi, phi.conj())[None], t, weights=weights)
            for fidelity, from_weight in zip(fidelities, pure["schmidt_number_lb"]):
                expected = max(1.0, d * fidelity)
                mixed = concurrence_lower_bound(_isotropic(d, fidelity), fam).schmidt_number_lb
                for got in (mixed, from_weight):
                    worst = max(worst, abs(got - expected) / expected)
                cases += 1
    _report(
        "criterion 11: isotropic Schmidt-number bound equals max(1, dF)",
        worst <= 1e-13,
        f"{cases} cases, max relative error {worst:.1e}",
    )


def _werner(d, alpha):
    """(I - alpha S)/(d^2 - d alpha), S the swap, a state for alpha in [-1, 1]."""
    return (np.eye(d * d) - alpha * swap_operator(d)) / (d * d - d * alpha)


def _werner_misses(d, alpha, ts):
    """The fields of the Werner state's reports at ts that miss their closed
    forms by more than 1e-12 relative plus 1e-15, and the largest deviation
    (relative above 1, absolute below).  C_P = (J - alpha G)/(d^2 - d alpha)
    for the effects' Gram matrix G, so with r = |alpha|(d+1)/(d-alpha) - 1,
    ||C_P||_tr = (d+1)/d + |alpha|(kappa d - 1)(d+1)/(d(d - alpha)) and the
    excess is (kappa d - 1) r/d at every t: the verdict is "entangled"
    exactly when r/d > tol."""
    ts = np.asarray(ts, dtype=float)
    r = abs(alpha) * (d + 1) / (d - alpha) - 1.0
    scale = d * kappa_gap(d, ts)  # kappa d - 1
    columns = bound_columns(_werner(d, alpha)[None], ts)
    expected = {
        "traceNormP": (d + 1) / d + abs(alpha) * scale * (d + 1) / (d * (d - alpha)),
        "bound_derived": math.sqrt(2 * (d - 1) / d) / d * max(0.0, r),
        "schmidt_number_lb": max(1.0, 1.0 + (d - 1) * r / d),
    }
    misses, worst = [], 0.0
    for name, value in expected.items():
        value = np.broadcast_to(value, ts.shape)
        dev = np.abs(np.asarray(columns[name]) - value)
        worst = max(worst, float(np.max(dev / np.maximum(np.abs(value), 1.0))))
        if np.any(dev > 1e-12 * np.abs(value) + 1e-15):
            misses.append((d, alpha, name))
    verdict = "entangled" if r / d > TOL.verdict else "undetected"  # r = 0 at d/(d + 2)
    if columns["verdict"] != [verdict] * len(ts):
        misses.append((d, alpha, "verdict"))
    return misses, worst


def test_criterion_12_werner_closed_form(t_range_of):
    # rho_alpha is entangled exactly when alpha > 1/d (Werner, PRA 40, 4277,
    # 1989), and the criterion detects it exactly when alpha > d/(d + 2), at
    # every t: at alpha = d/(d + 2), r = 0 and the verdict is "undetected".
    # One d = 32 state (1.5 s) takes the dense frame at the largest d.
    missed, worst = [], 0.0
    for d in (*range(2, 17), 32):
        rng = t_range_of(d)
        ts = (rng.lower, rng.upper, 1e-3 * rng.upper)
        edge = d / (d + 2)
        alphas = (-1.0, -0.3, 0.5 / d, 1.0 / d, 0.9 * edge, edge, edge + 0.01, 1.0)
        for alpha in alphas if d <= 16 else (edge + 0.01,):
            misses, dev = _werner_misses(d, alpha, ts)
            missed += misses
            worst = max(worst, dev)
    _report(
        "criterion 12: Werner reports equal their closed forms at d = 2..16 and 32",
        not missed,
        f"largest deviation {worst:.1e}, missed {missed}",
    )


@given(d=st.integers(2, 16), alpha=st.floats(-1.0, 1.0))
@settings(max_examples=20, deadline=None)
def test_werner_closed_form_at_a_drawn_alpha(t_range_of, d, alpha):
    rng = t_range_of(d)
    misses, _ = _werner_misses(d, alpha, (rng.lower, rng.upper, 1e-3 * rng.upper))
    assert not misses
