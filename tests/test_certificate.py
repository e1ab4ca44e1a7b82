"""An independent certificate of both trace norms from the correlation tensor.

T_mu,nu = Tr(rho G_mu x G_nu), with G_0 = I/sqrt(d) and G_1.. the
Gell-Mann matrices, so that Tr(G_mu G_nu) = delta_mu,nu.  The effects of
a complete MUM family are a tight frame: sum_r |P_r><P_r| is d + 1 on
I/sqrt(d) and b^2 = (kappa d - 1)/(d - 1) on traceless operators.  The
building blocks are one with constant d (1 + sqrt(d))^2 on traceless
operators.  With S = diag(sqrt(d + 1), b, ..., b) and T' the traceless
block of T,

    traceNormP = ||S T S||_tr    and    traceNormF = d (1 + sqrt(d))^2 ||T'||_tr.

The other report fields follow from T through the scalar

    m_x = ||D_x T D_x||_tr - x^2/d - (d - 1)/d,
    x^2 = (d^2 - 1)/(kappa d - 1),   D_x = diag(x, 1, ..., 1),

which is traceNormP - (1 + kappa) divided by b^2: bound_derived =
sqrt(2/(d(d - 1))) max(0, m_x), bound_literal = bound_derived
sqrt(kappa d - 1), schmidt_number_lb = max(1, 1 + m_x), and the verdict
is "entangled" exactly when b^2 m_x, the excess, exceeds the verdict
tolerance times kappa d - 1, that is, when m_x exceeds it times d - 1.  These
agree with the report to 1e-12 (1 + |m_x|) absolute; the largest
difference measured at d = 2..8 and 16 is 2.5e-13, on the Schmidt bound
at d = 16, where m_x is about 10.

The right-hand sides use neither the family nor the contraction of
``mumbounds.criteria``, only kappa: partner families that are permuted
or unitarily rotated must give the same report at equal kappa.  The
criteria read a family only through d and t, so a partner's report is
the standard family's bit for bit, and its traceNormP is also held
against ``build_correlation_matrix`` of every pair of the two families.

C_P has rank d^2, and its nonzero singular values are those of the
d^2 x d^2 matrix M that the criteria factor: to 1e-12 of ||C_P||, the
largest singular value, C_P has exactly d singular values below that
and the others equal those of M.

A report depends on a state only up to local unitaries U x V, which act
on M by orthogonal maps that fix vec(I); the criteria evaluate a pure
state in its Schmidt basis on that premise, and it is held here on the
dense frame of mixed states.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mumbounds import criteria
from mumbounds.basis import gellmann_generators, partition_basis
from mumbounds.config import TOL
from mumbounds.criteria import (
    bound_columns,
    build_correlation_matrix,
    concurrence_lower_bound,
    pure_trace_norm_closed_form,
)
from mumbounds.linalg import schmidt_decompose
from mumbounds.mums import build_f_blocks, build_mums, standard_grid, t_interval
from mumbounds.states import random_density, random_pure

REL_TOL = 1e-12


def correlation_tensor(rho: np.ndarray, d: int) -> np.ndarray:
    """T_mu,nu = Tr(rho (G_mu x G_nu)) by the index contraction of the definition."""
    g = np.stack([np.eye(d, dtype=complex) / np.sqrt(d), *gellmann_generators(d)])
    t = np.einsum("ikjl,mji,nlk->mn", rho.reshape(d, d, d, d), g, g, optimize=True)
    assert np.abs(t.imag).max() < 1e-12
    return t.real


def _trace_norm(m: np.ndarray) -> float:
    return float(np.linalg.svd(m, compute_uv=False).sum())


def certified_norms(rho: np.ndarray, d: int, kappa: float) -> tuple[float, float]:
    """(traceNormP, traceNormF) from T and kappa alone."""
    t = correlation_tensor(rho, d)
    s = np.full(d * d, np.sqrt((kappa * d - 1.0) / (d - 1.0)))
    s[0] = np.sqrt(d + 1.0)
    norm_p = _trace_norm(s[:, None] * t * s[None, :])
    return norm_p, d * (1.0 + np.sqrt(d)) ** 2 * _trace_norm(t[1:, 1:])


def certified_margin(rho: np.ndarray, d: int, kappa: float) -> float:
    """m_x = ||D_x T D_x||_tr - x^2/d - (d - 1)/d from T and kappa alone.

    The corner of A = D_x T D_x is x^2/d for a unit-trace state, and x^2
    grows like 1/(kappa d - 1), so sigma_1 - x^2/d is taken without
    cancellation, as (||A||_F^2 - (x^2/d)^2 - sum_{i>=2} sigma_i^2) /
    (sigma_1 + x^2/d) with the first difference summed off the corner.
    """
    x2 = (d * d - 1.0) / (kappa * d - 1.0)
    dx = np.ones(d * d)
    dx[0] = np.sqrt(x2)
    scaled = dx[:, None] * correlation_tensor(rho, d) * dx[None, :]
    scaled[0, 0] = 0.0
    off_corner = float((scaled * scaled).sum())
    scaled[0, 0] = corner = x2 / d
    sigma = np.linalg.svd(scaled, compute_uv=False)
    top = (off_corner - float(sigma[1:] @ sigma[1:])) / (sigma[0] + corner)
    return top + float(sigma[1:].sum()) - (d - 1.0) / d


def _assert_certified(rho, fam):
    report = concurrence_lower_bound(rho, fam)
    d, kappa = fam.d, fam.kappa
    norm_p, norm_f = certified_norms(rho, d, kappa)
    assert abs(report.trace_norm_p - norm_p) <= REL_TOL * norm_p
    assert abs(report.trace_norm_f - norm_f) <= REL_TOL * norm_f

    m_x = certified_margin(rho, d, kappa)
    derived = np.sqrt(2.0 / (d * (d - 1.0))) * max(0.0, m_x)
    tol = REL_TOL * (1.0 + abs(m_x))
    assert abs(report.bound_derived - derived) <= tol
    assert abs(report.bound_literal - derived * np.sqrt(kappa * d - 1.0)) <= tol
    assert abs(report.schmidt_number_lb - max(1.0, 1.0 + m_x)) <= tol
    excess = (kappa * d - 1.0) / (d - 1.0) * m_x
    assert report.verdict == (
        "entangled" if excess > TOL.verdict * (kappa * d - 1.0) else "undetected"
    )


def _random_unitary(d: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _partner_bases(d: int):
    """The Gell-Mann generators permuted, and rotated by a random unitary."""
    gens = gellmann_generators(d)
    order = np.random.default_rng(d).permutation(len(gens))
    u = _random_unitary(d, seed=100 + d)
    return {
        "permuted": partition_basis([gens[k] for k in order], d),
        "rotated": partition_basis([u @ g @ u.conj().T for g in gens], d),
    }


def _states(d: int):
    psi = random_pure(d, d, seed=60 + d)
    return {"pure": np.outer(psi, psi.conj()), "mixed": random_density(d * d, seed=70 + d)}


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7, 8, 16])
def test_trace_norms_equal_the_correlation_tensor_forms(d, family, t_range_of):
    rng = t_range_of(d)
    for rho in _states(d).values():
        for t in (0.5 * rng.lower, 0.9 * rng.upper):
            _assert_certified(rho, family(d, t))


def test_verdict_cutoff_scales_with_kappa(family, t_range_of):
    # the isotropic state just above F = 1/d, at a small t: its excess, about
    # 3e-13, lies below the tolerance but above it times kappa d - 1, so the
    # report and its positive bound say "entangled"
    d, fidelity = 3, (1.0 + 1e-6) / 3.0
    psi = np.eye(d).reshape(d * d) / np.sqrt(d)
    proj = np.outer(psi, psi)
    rho = fidelity * proj + (1.0 - fidelity) / (d * d - 1) * (np.eye(d * d) - proj)
    fam = family(d, 1e-3 * t_range_of(d).upper)
    excess = (fam.kappa * d - 1.0) / (d - 1.0) * certified_margin(rho, d, fam.kappa)
    assert TOL.verdict * (fam.kappa * d - 1.0) < excess < TOL.verdict
    report = concurrence_lower_bound(rho, fam)
    assert report.verdict == "entangled"
    assert report.bound_derived == pytest.approx(5.77e-7, rel=1e-3)
    _assert_certified(rho, fam)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7, 8, 16])
def test_partner_families_at_equal_kappa(d, family, t_range_of):
    for kind, basis in _partner_bases(d).items():
        t = 0.5 * min(t_range_of(d).upper, t_interval(build_f_blocks(basis), d).upper)
        fam, partner = family(d, t), build_mums(basis, t)
        assert partner.kappa == fam.kappa, kind
        for rho in _states(d).values():
            report = concurrence_lower_bound(rho, partner).as_dict()
            assert report == concurrence_lower_bound(rho, fam).as_dict(), kind
            _assert_certified(rho, partner)
            for fam_a, fam_b in ((fam, partner), (partner, fam), (partner, partner)):
                plain = build_correlation_matrix(rho, fam_a, fam_b).trace_norm
                assert abs(report["traceNormP"] - plain) <= REL_TOL * plain, kind


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_frame_has_the_nonzero_spectrum_of_the_correlation_matrix(d, family, t_range_of):
    rng = t_range_of(d)
    for rank in (1, 2, 3):
        rho = random_density(d * d, rank=rank, seed=10 * d + rank)
        for t in (rng.lower, 1e-3 * rng.lower, 1e-3 * rng.upper, rng.upper):
            plain = build_correlation_matrix(rho, family(d, t)).singular_values
            tol = 1e-12 * plain[0]
            assert (plain < tol).sum() == d, (rank, t)
            m = criteria._frame_matrices(d, criteria._frames(rho, d), t)
            m[0, 0] = (d + 1.0) / d
            sigma = np.linalg.svd(m, compute_uv=False)
            assert np.abs(plain[: d * d] - sigma).max() <= tol, (rank, t)


@given(seed=st.integers(0, 2**32 - 1), frac=st.floats(0.05, 1.0), rank=st.integers(1, 9))
@settings(max_examples=25, deadline=None)
def test_random_states_at_d3(seed, frac, rank, family, t_range_of):
    rho = random_density(9, rank=rank, seed=seed)
    _assert_certified(rho, family(3, frac * t_range_of(3).upper))


@given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 5), rank=st.integers(2, 3),
       w=st.floats(0.5, 1.0))
@settings(max_examples=25, deadline=None)
def test_mixed_reports_are_invariant_under_local_unitaries(seed, d, rank, w, t_range_of):
    # the premise of the Schmidt-basis evaluation of a pure state, that a
    # report depends on a state only up to local unitaries U x V, held on
    # the dense frame of mixed states, which does not use it
    rho = random_density(d * d, rank=rank, seed=seed)
    u = np.kron(_random_unitary(d, seed), _random_unitary(d, seed + 1))
    rng = t_range_of(d)
    ts = standard_grid(d, [rng.lower, rng.upper, 0.3 * rng.lower, 0.5 * rng.upper,
                           1e-7 * rng.upper])
    before = bound_columns(rho[None], ts, weights=w)
    after = bound_columns((u @ rho @ u.conj().T)[None], ts, weights=w)
    assert after["verdict"] == before["verdict"]
    for name in ("traceNormP", "traceNormF", "bound_literal", "bound_derived",
                 "schmidt_number_lb"):
        x, y = np.array(after[name]), np.array(before[name])
        assert (np.abs(x - y) <= REL_TOL * np.abs(y) + 1e-15).all(), (name, x, y)


def test_pure_state_at_d32(family, t_range_of):
    """One d = 32 case: the pure-state closed form of traceNormP."""
    d = 32
    psi = random_pure(d, d, seed=32)
    fam = family(d, 0.5 * t_range_of(d).upper)
    report = concurrence_lower_bound(np.outer(psi, psi.conj()), fam)
    expected = pure_trace_norm_closed_form(schmidt_decompose(psi, d, d), d, fam.kappa)
    assert abs(report.trace_norm_p - expected) <= REL_TOL * expected
