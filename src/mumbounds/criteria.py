"""Correlation matrices of paired measurement families and the
entanglement criteria built on their trace norms.

Two conventions are exposed for the d(d+1) x d(d+1) correlation matrix
of a bipartite state: "P" collects the outcome probabilities
Tr(rho (P x P)) of the POVM effects, "F" the expectations
Tr(rho (F x F)) of the raw building blocks.  The probability convention
is the one whose trace norm obeys the separability threshold 1 + kappa
and the pure-state closed form, so every bound and verdict here is
computed from it; the block convention is kept as a diagnostic.

Every matrix is one contraction A @ R @ B^T: A and B are the operator
stacks of the two families reshaped to (d(d+1), d^2), and R is the
validated state realigned to d^2 x d^2,
``rho.reshape(d, d, d, d).transpose(2, 0, 3, 1).reshape(d*d, d*d)``,
so that entry (r, c) is Tr(rho (X_r x Y_c)).  A state is validated and
realigned once however many matrices are contracted from it.

Sweeps are evaluated in stacks: ``concurrence_lower_bounds`` takes one
state at many families, ``concurrence_lower_bounds_of_states`` many
states at one family.  Each chunk of grid points is one density check,
one broadcast matmul contraction, one imaginary-part check and one
batched SVD, and gives the same doubles as one point at a time.  Every
other entry point takes exactly one state.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .config import TOL
from .linalg import SchmidtData, partial_trace
from .mums import MumFamily


# Largest working set of one stacked evaluation: a 101-point sweep at
# d = 3 is one chunk, while at d = 16 a chunk holds one point.
_CHUNK_BYTES = 2 << 20


def _point_bytes(d: int) -> int:
    """Bytes one grid point adds to a stacked evaluation: its realigned
    state, its operator stack, the half product and the complex and real
    correlation matrices."""
    n, dim = d * (d + 1), d * d
    return 16 * (dim * dim + 2 * n * dim + n * n) + 8 * n * n


def _check_density(states: np.ndarray, dim: int) -> None:
    """Front-door check of a stack (k, dim, dim) of states.

    Reports the first state that is not Hermitian or not of unit trace,
    and otherwise the first with a negative eigenvalue.
    """
    tol = TOL.correlation_input
    herms = np.abs(states - states.conj().transpose(0, 2, 1)).max(axis=(1, 2)).tolist()
    traces = np.trace(states, axis1=1, axis2=2).tolist()
    for herm, tr in zip(herms, traces):
        if herm > tol:
            raise ValueError(f"state is not Hermitian (max deviation {herm:.3e})")
        if abs(tr - 1.0) > tol:
            raise ValueError(f"state trace {tr!r} is not 1")
    for min_eig in np.linalg.eigvalsh(states).min(axis=1).tolist():
        if min_eig < -tol:
            raise ValueError(f"state has negative eigenvalue {min_eig:.3e}")


def _check_pair(fam_a: MumFamily, fam_b: MumFamily) -> None:
    if fam_a.d != fam_b.d:
        raise ValueError(f"family dimensions differ: {fam_a.d} vs {fam_b.d}")
    if abs(fam_a.kappa - fam_b.kappa) > TOL.kappa_match:
        raise ValueError(
            f"families must share kappa: {fam_a.kappa!r} vs {fam_b.kappa!r}"
        )


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"verdict tolerance {tol!r} must be finite and non-negative")


def _check_options(variant: str, tol: float) -> None:
    if variant not in ("literal", "derived"):
        raise ValueError("variant must be 'literal' or 'derived'")
    _check_tol(tol)


def _as_state(rho: np.ndarray, dim: int) -> np.ndarray:
    """One state as a complex (dim, dim) array; any other shape is rejected."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (dim, dim):
        raise ValueError(f"state must be {dim}x{dim}, got {rho.shape}")
    return rho


def _realigned_stack(states: np.ndarray, d: int) -> np.ndarray:
    """Validate a stack (k, d^2, d^2) of states and realign each one."""
    _check_density(states, d * d)
    realigned = states.reshape(-1, d, d, d, d).transpose(0, 3, 1, 4, 2)
    return realigned.reshape(states.shape)


def _realigned(rho: np.ndarray, d: int) -> np.ndarray:
    """Validate one d^2 x d^2 state and realign it."""
    return _realigned_stack(_as_state(rho, d * d)[None], d)[0]


@dataclass(frozen=True)
class CorrelationMatrix:
    """Real correlation matrix of a state under two measurement families.

    Row r = measurement-major index of the first family, column c of the
    second; ``trace_norm`` equals the sum of ``singular_values``.
    """

    d: int
    convention: str
    matrix: np.ndarray
    singular_values: np.ndarray
    trace_norm: float


def _correlation(
    realigned: np.ndarray, ops_a: np.ndarray, ops_b: np.ndarray, convention: str
) -> tuple[np.ndarray, np.ndarray]:
    """Contract realigned states with operator stacks; (matrices, singular values).

    ``realigned`` is (d^2, d^2) or a stack (k, d^2, d^2); ``ops_a`` and
    ``ops_b`` are (d(d+1), d, d) or stacks (k, d(d+1), d, d).  Leading
    axes broadcast as in ``np.matmul``, and each point's matrix and
    singular values are the same doubles as its own unstacked call.
    """
    d = ops_a.shape[-1]
    a = ops_a.reshape(*ops_a.shape[:-2], d * d)
    b = ops_b.reshape(*ops_b.shape[:-2], d * d)
    entries = np.matmul(np.matmul(a, realigned), b.swapaxes(-1, -2))
    n = entries.shape[-1]
    for imag in np.abs(entries.imag).reshape(-1, n * n).max(axis=1).tolist():
        if imag > TOL.correlation_imaginary:
            raise ValueError(f"correlation entries acquired imaginary part {imag:.3e}")
    matrices = np.ascontiguousarray(entries.real)
    return matrices, np.linalg.svd(matrices, compute_uv=False)


def build_correlation_matrix(
    rho: np.ndarray,
    fam_a: MumFamily,
    fam_b: MumFamily | None = None,
    convention: str = "P",
) -> CorrelationMatrix:
    """Correlation matrix with entries Tr(rho (X_r x X_c)).

    X runs over the effects (convention "P") or the building blocks
    (convention "F") of the two families, which must share the dimension
    and the sharpness parameter kappa.  Entry (r, c) pairs operator r of
    ``fam_a`` on the first factor with operator c of ``fam_b`` on the
    second, both flattened measurement-major.
    """
    if fam_b is None:
        fam_b = fam_a
    _check_pair(fam_a, fam_b)
    if convention not in ("P", "F"):
        raise ValueError("convention must be 'P' or 'F'")
    if convention == "P":
        ops_a, ops_b = fam_a.effect_stack(), fam_b.effect_stack()
    else:
        ops_a, ops_b = fam_a.block_stack(), fam_b.block_stack()
    matrix, singular_values = _correlation(
        _realigned(rho, fam_a.d), ops_a, ops_b, convention
    )
    return CorrelationMatrix(
        d=fam_a.d,
        convention=convention,
        matrix=matrix,
        singular_values=singular_values,
        trace_norm=float(singular_values.sum()),
    )


def pure_trace_norm_closed_form(schmidt: SchmidtData, d: int, kappa: float) -> float:
    """Trace norm of the probability correlation matrix of a pure state.

    Expressed through the Schmidt coefficients:
    2(kappa*d - 1)/(d - 1) * sum_{i<j} c_i c_j + 1 + kappa.
    """
    c = schmidt.coefficients
    cross = 0.5 * (float(c.sum()) ** 2 - float((c * c).sum()))
    return 2.0 * (kappa * d - 1.0) / (d - 1.0) * cross + 1.0 + kappa


def pure_concurrence(psi: np.ndarray, dim_a: int, dim_b: int) -> float:
    """Concurrence sqrt(2 (1 - Tr(rho_A^2))) of a normalized pure state."""
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    if psi.size != dim_a * dim_b:
        raise ValueError(
            f"amplitude vector of length {psi.size} does not match {dim_a}x{dim_b}"
        )
    norm = float(np.linalg.norm(psi))
    if abs(norm - 1.0) > TOL.state_normalization:
        raise ValueError(f"state norm {norm!r} deviates from 1 beyond tolerance")
    rho_a = partial_trace(np.outer(psi, psi.conj()), dim_a, dim_b, keep="A")
    purity = float((np.abs(rho_a) ** 2).sum())
    return float(np.sqrt(max(0.0, 2.0 * (1.0 - purity))))


def schmidt_number_lower_bound(trace_norm: float, d: int, kappa: float) -> float:
    """Lower bound on the Schmidt number implied by a trace norm value.

    Inverts the pure-state closed form against 2 sum_{i<j} c_i c_j <= r - 1,
    giving r >= 1 + (d-1)(trace_norm - 1 - kappa)/(kappa*d - 1); values
    below 1 clamp to 1.  Equality holds for uniform Schmidt coefficients,
    so the bound returns d for a maximally entangled state.
    """
    if kappa * d <= 1.0:
        raise ValueError(f"kappa = {kappa!r} must exceed 1/d")
    bound = 1.0 + (d - 1.0) * (trace_norm - 1.0 - kappa) / (kappa * d - 1.0)
    return max(1.0, bound)


@dataclass(frozen=True)
class BoundReport:
    """Evaluated criteria for one state and one measurement family pair.

    ``bound_derived`` carries the proof-consistent coefficient
    sqrt(2(d-1)/d)/(kappa*d - 1), ``bound_literal`` the variant with
    sqrt(2(d-1)/(d(kappa*d - 1))); both clamp at zero.  The verdict
    compares the probability-convention trace norm against
    1 + kappa plus the verdict tolerance.
    """

    d: int
    t: float
    kappa: float
    trace_norm_p: float
    trace_norm_f: float
    separability_threshold: float
    bound_literal: float
    bound_derived: float
    schmidt_number_lb: float
    verdict: str
    variant: str = "derived"

    @property
    def bound(self) -> float:
        return self.bound_literal if self.variant == "literal" else self.bound_derived

    def as_dict(self) -> dict:
        return {
            "d": self.d,
            "t": self.t,
            "kappa": self.kappa,
            "traceNormP": self.trace_norm_p,
            "traceNormF": self.trace_norm_f,
            "threshold": self.separability_threshold,
            "bound_literal": self.bound_literal,
            "bound_derived": self.bound_derived,
            "bound": self.bound,
            "schmidt_number_lb": self.schmidt_number_lb,
            "verdict": self.verdict,
            "variant": self.variant,
        }


def _verdict(excess: float, tol: float) -> str:
    return "entangled" if excess > tol else "undetected"


def _report(
    fam: MumFamily, trace_norm_p: float, trace_norm_f: float, variant: str, tol: float
) -> BoundReport:
    """Both bound variants, the Schmidt bound and the verdict from two trace norms."""
    d = fam.d
    kappa = fam.kappa
    threshold = 1.0 + kappa
    excess = trace_norm_p - threshold
    derived = max(0.0, np.sqrt(2.0 * (d - 1.0) / d) * excess / (kappa * d - 1.0))
    literal = max(0.0, np.sqrt(2.0 * (d - 1.0) / (d * (kappa * d - 1.0))) * excess)
    return BoundReport(
        d=d,
        t=fam.t,
        kappa=kappa,
        trace_norm_p=trace_norm_p,
        trace_norm_f=trace_norm_f,
        separability_threshold=threshold,
        bound_literal=float(literal),
        bound_derived=float(derived),
        schmidt_number_lb=schmidt_number_lower_bound(trace_norm_p, d, kappa),
        verdict=_verdict(excess, tol),
        variant=variant,
    )


def _chunk_points(d: int) -> int:
    return max(1, _CHUNK_BYTES // _point_bytes(d))


def concurrence_lower_bounds(
    rho: np.ndarray,
    families: Sequence[MumFamily | tuple[MumFamily, MumFamily]],
    variant: str = "derived",
    tol: float = TOL.verdict,
) -> list[BoundReport]:
    """Evaluate ``concurrence_lower_bound`` for one state at many families.

    Each entry of ``families`` is a family, paired with itself, or a
    (fam_a, fam_b) pair.  The reports equal one ``concurrence_lower_bound``
    call per entry, in order.  The state is validated and realigned once;
    its block-convention trace norm, which does not depend on t, is
    contracted again only when the building blocks change; the entries
    are evaluated in chunks of bounded memory, each one probability
    contraction and one batched SVD.
    """
    _check_options(variant, tol)
    pairs = [fam if isinstance(fam, tuple) else (fam, fam) for fam in families]
    if not pairs:
        raise ValueError("at least one family is required")
    d = pairs[0][0].d
    for fam_a, fam_b in pairs:
        _check_pair(fam_a, fam_b)
        if fam_a.d != d:
            raise ValueError(f"family dimensions differ: {fam_a.d} vs {d}")
    realigned = _realigned(rho, d)
    norms_f = []
    blocks = None
    for fam_a, fam_b in pairs:
        if blocks is None or not (
            _same_array(fam_a.f_blocks, blocks[0]) and _same_array(fam_b.f_blocks, blocks[1])
        ):
            blocks = (fam_a.f_blocks, fam_b.f_blocks)
            sv_f = _correlation(realigned, fam_a.block_stack(), fam_b.block_stack(), "F")[1]
            norm_f = float(sv_f.sum())
        norms_f.append(norm_f)
    step = _chunk_points(d)
    reports = []
    for start in range(0, len(pairs), step):
        chunk = pairs[start : start + step]
        ops_a = _stacked([fam_a.effect_stack() for fam_a, _ in chunk])
        if all(fam_a is fam_b for fam_a, fam_b in chunk):
            ops_b = ops_a
        else:
            ops_b = _stacked([fam_b.effect_stack() for _, fam_b in chunk])
        sv_p = _correlation(realigned, ops_a, ops_b, "P")[1]
        reports += [
            _report(fam_a, float(p.sum()), norm_f, variant, tol)
            for (fam_a, _), p, norm_f in zip(chunk, sv_p, norms_f[start : start + step])
        ]
    return reports


def _same_array(x: np.ndarray, y: np.ndarray) -> bool:
    return x is y or np.array_equal(x, y)


def _stacked(ops: list[np.ndarray]) -> np.ndarray:
    """One (k, n, d, d) array of k operator stacks; a single one is not copied."""
    return ops[0][None] if len(ops) == 1 else np.stack(ops)


def concurrence_lower_bounds_of_states(
    states: Iterable[np.ndarray],
    fam_a: MumFamily,
    fam_b: MumFamily | None = None,
    variant: str = "derived",
    tol: float = TOL.verdict,
) -> list[BoundReport]:
    """Evaluate ``concurrence_lower_bound`` for many states at one family pair.

    ``states`` is any iterable of d^2 x d^2 states, such as a list, an
    (n, d^2, d^2) array or a generator.  The reports equal one
    ``concurrence_lower_bound`` call per state, in order.  The states are
    taken a chunk of bounded memory at a time, so a generator never has
    more than one chunk built; each chunk is one density check, one block
    and one probability contraction and two batched SVDs.
    """
    fam_b = fam_a if fam_b is None else fam_b
    _check_options(variant, tol)
    _check_pair(fam_a, fam_b)
    d, dim = fam_a.d, fam_a.d * fam_a.d
    step = _chunk_points(d)
    states = iter(states)
    reports = []
    while chunk := [_as_state(rho, dim) for rho in itertools.islice(states, step)]:
        realigned = _realigned_stack(np.stack(chunk), d)
        sv_f = _correlation(realigned, fam_a.block_stack(), fam_b.block_stack(), "F")[1]
        sv_p = _correlation(realigned, fam_a.effect_stack(), fam_b.effect_stack(), "P")[1]
        reports += [
            _report(fam_a, float(p.sum()), float(f.sum()), variant, tol)
            for p, f in zip(sv_p, sv_f)
        ]
    return reports


def concurrence_lower_bound(
    rho: np.ndarray,
    fam_a: MumFamily,
    fam_b: MumFamily | None = None,
    variant: str = "derived",
    tol: float = TOL.verdict,
) -> BoundReport:
    """Evaluate both concurrence bound variants and the separability verdict.

    ``variant`` only selects which number the report headlines; both are
    always computed.  ``tol`` must be finite and non-negative.
    """
    pair = (fam_a, fam_a if fam_b is None else fam_b)
    return concurrence_lower_bounds(rho, [pair], variant=variant, tol=tol)[0]


def separability_test(
    rho: np.ndarray,
    fam_a: MumFamily,
    fam_b: MumFamily | None = None,
    tol: float = TOL.verdict,
) -> str:
    """Verdict "entangled" or "undetected" from the trace-norm criterion.

    Every separable state stays below 1 + kappa, so "entangled" is
    conclusive while "undetected" is not.  ``tol`` must be finite and
    non-negative.
    """
    _check_tol(tol)
    corr = build_correlation_matrix(rho, fam_a, fam_b, convention="P")
    return _verdict(corr.trace_norm - (1.0 + fam_a.kappa), tol)
