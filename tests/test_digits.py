"""Every golden sweep row and bound against a 40-digit evaluation.

The reference takes the float64 block expectations of the plain
definition, alpha_r = Tr(rho_A F_r), beta_c = Tr(rho_B F_c) and
Phi_rc = Tr(rho F_r x F_c), and evaluates the criterion from them in
mpmath at 40 digits:

    C_P = J/d^2 + (t/d)(alpha 1^T + 1 beta^T) + t^2 Phi,
    kappa = 1/d + K t^2,  K = (1 + sqrt(d))^2 (d - 1),
    excess = ||C_P||_tr - 1 - kappa,

and each report field by its formula, where rho is the white-noise
mixture that each point evaluates by scaling the frame.  The unrounded
doubles that ``run_sweep`` and the ``bound`` command's evaluation
(``bound_columns``) return must satisfy
|x - ref| <= 5e-12 |ref| + 1e-15 for traceNormP, traceNormF,
bound_literal, bound_derived and schmidt_number_lb.  The cases are the
sweeps of both scripts and of the golden CLI corpus
(``tests/test_golden.py``), its ``bound`` calls that succeed, and two
pure states, which the criteria evaluate in their Schmidt basis: the
corpus's maximally entangled file and a seeded random state at d = 4.
"""

from __future__ import annotations

import contextlib
import functools
import io

import mpmath
import numpy as np
import pytest

from mumbounds.cli import main
from mumbounds.criteria import bound_columns, concurrence_lower_bound
from mumbounds.engine import SweepSpec, make_state, run_sweep
from mumbounds.mums import standard_family, standard_t_range
from mumbounds.states import mix_with_white_noise, random_pure, save_state

REL, ABS = 5e-12, 1e-15
FIELDS = ("traceNormP", "traceNormF", "bound_literal", "bound_derived", "schmidt_number_lb")


@functools.lru_cache(maxsize=None)
def _trace_norm_40(entries: bytes, n: int):
    """The trace norm at 40 digits of the float64 (n, n) matrix with these
    bytes; a t-sweep's rows share one Phi."""
    matrix = np.frombuffer(entries).reshape(n, n)
    with mpmath.mp.workdps(40):
        return mpmath.mp.fsum(mpmath.mp.svd_r(mpmath.mp.matrix(matrix.tolist()), compute_uv=False))


def reference(rho: np.ndarray, blocks: np.ndarray, t: float) -> dict[str, object]:
    """The report fields of one state at the family (t, blocks), at 40 digits."""
    mp = mpmath.mp
    d = blocks.shape[-1]
    ops = blocks.reshape(-1, d, d)
    r4 = rho.reshape(d, d, d, d)
    phi = np.einsum("ikjl,rji,clk->rc", r4, ops, ops, optimize=True).real
    alpha = np.einsum("rij,ji->r", ops, np.einsum("ikjk->ij", r4)).real
    beta = np.einsum("rij,ji->r", ops, np.einsum("kikj->ij", r4)).real
    with mp.workdps(40):
        n, t = len(ops), mp.mpf(t)
        corr = mp.matrix(n, n)
        for r in range(n):
            for c in range(n):
                corr[r, c] = (
                    mp.mpf(1) / d**2
                    + t / d * (mp.mpf(alpha[r]) + mp.mpf(beta[c]))
                    + t * t * mp.mpf(phi[r, c])
                )
        norm_p = mp.fsum(mp.svd_r(corr, compute_uv=False))
        norm_f = _trace_norm_40(np.ascontiguousarray(phi).tobytes(), n)
        gap = t * t * (1 + mp.sqrt(d)) ** 2 * (d - 1)  # kappa - 1/d
        excess = norm_p - 1 - (mp.mpf(1) / d + gap)
        scale = d * gap  # kappa d - 1
        positive = max(excess, mp.mpf(0))
        return {
            "traceNormP": norm_p,
            "traceNormF": norm_f,
            "bound_literal": mp.sqrt(2 * (d - 1) / (d * scale)) * positive,
            "bound_derived": mp.sqrt(mp.mpf(2 * (d - 1)) / d) * positive / scale,
            "schmidt_number_lb": max(mp.mpf(1), 1 + (d - 1) * excess / scale),
        }


def misses(fields: dict, rho: np.ndarray, t: float) -> list[str]:
    """The fields that miss the reference, each with its value and error."""
    d = fields["d"]
    ref = reference(rho, standard_family(d, t).f_blocks, t)
    out = []
    for name in FIELDS:
        x, exact = fields[name], ref[name]
        error = abs(mpmath.mpf(x) - exact)
        if error > REL * abs(exact) + ABS:
            out.append(f"t={t!r} {name}={x!r} ref={mpmath.nstr(exact, 17)} err={float(error):.2e}")
    return out


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """The state files that the golden CLI corpus writes with gen-state."""
    tmp = tmp_path_factory.mktemp("digits")
    for argv in (
        f"gen-state --state random --d 3 --seed 7 --out {tmp}/rand.json",
        f"gen-state --state horodecki --upsilon 0.3 --q 0.99 --out {tmp}/h.json",
        f"gen-state --state max-entangled --d 2 --out {tmp}/me.json",
    ):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv.split()) == 0
    # a pure state, which the criteria evaluate in its Schmidt basis
    psi = random_pure(4, 4, seed=11)
    save_state(np.outer(psi, psi.conj()), tmp / "pure4.json")
    return tmp


def _script_specs() -> dict[str, SweepSpec]:
    rng = standard_t_range(3)
    return {
        "tiles_bound_vs_t": SweepSpec("t", 0.9 * rng.lower, 0.9 * rng.upper, 81, "tiles",
                                      fixed={"p": 0.99}),
        "horodecki_bound_vs_upsilon": SweepSpec("upsilon", 0.0, 1.0, 101, "horodecki",
                                                fixed={"q": 0.995, "t": 0.08}),
    }


def _cli_specs(files) -> dict[str, SweepSpec]:
    return {
        "sweep_t": SweepSpec("t", -0.09, 0.1, 21, "tiles", fixed={"p": 0.99}),
        "sweep_upsilon": SweepSpec("upsilon", 0.0, 1.0, 11, "horodecki",
                                   fixed={"q": 0.995, "t": 0.08}),
        "sweep_p": SweepSpec("p", 0.8, 1.0, 11, "tiles", fixed={"t": 0.05}),
        "sweep_p_file": SweepSpec("p", 0.0, 1.0, 6, "file", fixed={"t": 0.02},
                                  file=str(files / "h.json")),
    }


SWEEPS = ["tiles_bound_vs_t", "horodecki_bound_vs_upsilon",
          "sweep_t", "sweep_upsilon", "sweep_p", "sweep_p_file"]


def _point_state(spec: SweepSpec, value: float) -> np.ndarray:
    """The mixed state of one sweep point, built on its own."""
    params = dict(spec.fixed)
    if spec.variable != "t":
        params[spec.variable] = value
    return mix_with_white_noise(*make_state(spec.state_family, spec.file, params))


@pytest.mark.parametrize("name", SWEEPS)
def test_sweep_rows_carry_exact_digits(name, files):
    spec = {**_script_specs(), **_cli_specs(files)}[name]
    failed = []
    for row in run_sweep(spec):
        point = _point_state(spec, row["var"])
        failed += [f"var={row['var']!r} {miss}" for miss in misses(row, point, row["t"])]
    assert not failed, "\n".join(failed)


# the golden `bound` calls that succeed, and two pure states: (state family,
# file, parameters, t)
BOUNDS = {
    "bound_tiles": ("tiles", None, {"p": 0.99}, 0.05),
    "bound_horodecki_literal_out": ("horodecki", None, {"upsilon": 0.2, "q": 0.999}, 0.01),
    "bound_tol_zero": ("tiles", None, {"p": 0.9}, 0.05),
    "bound_file": ("file", "rand.json", {"p": 0.5}, -0.03),
    # the golden call's t = 0.3 lies outside the d = 2 interval and exits 1;
    # its pure file is held here at an admissible t
    "bound_max_entangled_file": ("file", "me.json", {}, 0.2),
    "bound_pure_d4": ("file", "pure4.json", {"p": 0.9}, 0.99 * -0.05719308196045955),
}


@pytest.mark.parametrize("name", BOUNDS)
def test_bounds_carry_exact_digits(name, files):
    family, file, params, t = BOUNDS[name]
    rho, w = make_state(family, file and str(files / file), params)
    d = int(round(np.sqrt(rho.shape[0])))
    columns = bound_columns(rho[None], t, weights=w)
    fields = {"d": d, **{key: column[0] for key, column in columns.items()}}
    failed = misses(fields, mix_with_white_noise(rho, w), t)
    assert not failed, "\n".join(failed)


def isotropic(d: int, fidelity: float) -> np.ndarray:
    """F |Phi+><Phi+| + (1 - F)/(d^2 - 1) (I - |Phi+><Phi+|)."""
    psi = np.eye(d).reshape(d * d) / np.sqrt(d)
    proj = np.outer(psi, psi)
    return fidelity * proj + (1.0 - fidelity) / (d * d - 1) * (np.eye(d * d) - proj)


@pytest.mark.parametrize("d", range(2, 9))
def test_isotropic_bound_equals_its_concurrence(d):
    # C(rho_F) = sqrt(2d/(d - 1)) (F - 1/d) for F >= 1/d (Rungta and Caves,
    # PRA 67, 012307, 2003), and bound_derived attains it at every t
    rng = standard_t_range(d)
    ts = (0.9 * rng.lower, 1e-3 * rng.lower, 1e-5 * rng.upper, 1e-3 * rng.upper,
          0.5 * rng.upper, rng.upper)
    for fidelity in 1.0 / d + (1.0 - 1.0 / d) * np.array([1e-3, 0.1, 0.5, 0.9, 1.0]):
        exact = np.sqrt(2.0 * d / (d - 1.0)) * (fidelity - 1.0 / d)
        for t in ts:
            report = concurrence_lower_bound(isotropic(d, fidelity), standard_family(d, t))
            assert abs(report.bound_derived - exact) <= 1e-12 * exact, (fidelity, t, report)
