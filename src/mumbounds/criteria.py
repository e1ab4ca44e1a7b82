"""Correlation matrices of paired measurement families and the
entanglement criteria built on their trace norms.

The correlation matrix of a bipartite state is the d(d+1) x d(d+1)
matrix of outcome probabilities Tr(rho (P x P)) of the POVM effects.
Its trace norm obeys the separability threshold 1 + kappa and the
pure-state closed form, so every bound and verdict here is computed
from it.  Each report also carries, as a diagnostic, the trace norm of
the matrix of block expectations Tr(rho (F x F)) of the raw building
blocks (``BoundReport.trace_norm_f``).

Every matrix is one contraction A @ R @ B^T: A and B are the operator
stacks of the two families reshaped to (d(d+1), d^2), and R is the
validated state realigned to d^2 x d^2,
``rho.reshape(d, d, d, d).transpose(2, 0, 3, 1).reshape(d*d, d*d)``,
so that entry (r, c) is Tr(rho (X_r x Y_c)).  Every state passes one
front door, ``states.validate_density`` with the ``density_*``
tolerances, and a failure raises ValueError.  A state is validated and
realigned once however many matrices are contracted from it.

Sweeps are evaluated as columns: ``bound_columns`` takes one state at
the t grid of one block array (``mums.standard_grid``), so the block
matrix is contracted once; ``bound_columns_of_states`` takes stacks of
states at one family pair.  Each chunk of points is one broadcast of its effects or one stack of
states, one contraction, one imaginary-part check and one batched SVD
per operator stack; the report fields of the grid are then computed as
arrays, with the same doubles as one point at a time.  The report
functions build their ``BoundReport`` objects from those columns:
``concurrence_lower_bounds`` and ``concurrence_lower_bounds_of_states``,
whose one-state case is ``concurrence_lower_bound``.
``build_correlation_matrix`` and ``separability_test`` take exactly one
state; the verdict of ``separability_test`` is that of
``concurrence_lower_bound``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .config import TOL
from .linalg import SchmidtData, partial_trace, pure_amplitudes
from .mums import MumFamily, family_effects, kappa_of_t
from .states import validate_density


# Largest working set of one stacked evaluation: a 101-point sweep at
# d = 3 is one chunk, while at d = 16 a chunk holds one point.
_CHUNK_BYTES = 2 << 20


def _point_bytes(d: int) -> int:
    """Bytes one grid point adds to a stacked evaluation: its realigned
    state, its operator stack, the half product and the complex and real
    correlation matrices."""
    n, dim = d * (d + 1), d * d
    return 16 * (dim * dim + 2 * n * dim + n * n) + 8 * n * n


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


def _as_state(rho: np.ndarray, dim: int) -> np.ndarray:
    """One state as a complex (dim, dim) array; any other shape is rejected."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (dim, dim):
        raise ValueError(f"state must be {dim}x{dim}, got {rho.shape}")
    return rho


def _stacks(fam_a: MumFamily, fam_b: MumFamily, stack) -> tuple[np.ndarray, ...]:
    """Operator stacks of a family pair: ``MumFamily.effect_stack`` or ``.block_stack``."""
    ops_a = stack(fam_a)
    return ops_a, ops_a if fam_b is fam_a else stack(fam_b)


def _realigned(states: np.ndarray, d: int) -> np.ndarray:
    """Validate one d^2 x d^2 state, or a stack (k, d^2, d^2), and realign each."""
    problems = validate_density(states)
    if problems:
        raise ValueError("state is not a density matrix: " + "; ".join(problems))
    realigned = states.reshape(-1, d, d, d, d).transpose(0, 3, 1, 4, 2)
    return realigned.reshape(states.shape)


@dataclass(frozen=True)
class CorrelationMatrix:
    """Real probability correlation matrix of a state under two families.

    Row r = measurement-major index of the first family, column c of the
    second; ``trace_norm`` equals the sum of ``singular_values``.
    """

    matrix: np.ndarray
    singular_values: np.ndarray
    trace_norm: float


def _correlation(
    realigned: np.ndarray, ops_a: np.ndarray, ops_b: np.ndarray
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
    imag = float(np.abs(entries.imag).max())
    if imag > TOL.correlation_imaginary:
        raise ValueError(f"correlation entries acquired imaginary part {imag:.3e}")
    matrices = np.ascontiguousarray(entries.real)
    return matrices, np.linalg.svd(matrices, compute_uv=False)


def build_correlation_matrix(
    rho: np.ndarray,
    fam_a: MumFamily,
    fam_b: MumFamily | None = None,
) -> CorrelationMatrix:
    """Probability correlation matrix with entries Tr(rho (P_r x P_c)).

    P runs over the effects of the two families, which must share the
    dimension and the sharpness parameter kappa.  Entry (r, c) pairs
    effect r of ``fam_a`` on the first factor with effect c of ``fam_b``
    on the second, both flattened measurement-major.
    """
    if fam_b is None:
        fam_b = fam_a
    _check_pair(fam_a, fam_b)
    d = fam_a.d
    matrix, singular_values = _correlation(
        _realigned(_as_state(rho, d * d), d), *_stacks(fam_a, fam_b, MumFamily.effect_stack)
    )
    return CorrelationMatrix(
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
    psi = pure_amplitudes(psi, dim_a, dim_b)
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
    sqrt(2(d-1)/(d(kappa*d - 1))); both clamp at zero, and both are
    always computed.  The verdict compares the probability correlation
    trace norm against 1 + kappa plus the verdict tolerance.
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
            "schmidt_number_lb": self.schmidt_number_lb,
            "verdict": self.verdict,
        }


# BoundReport fields after d, keyed as BoundReport.as_dict: the columns of a grid
_COLUMNS = (
    "t", "kappa", "traceNormP", "traceNormF", "threshold",
    "bound_literal", "bound_derived", "schmidt_number_lb", "verdict",
)


def _columns(
    d: int, ts: np.ndarray, norm_p: np.ndarray, norm_f: np.ndarray, tol: float
) -> dict[str, list]:
    """The report fields of a grid of points from their t and two trace norms.

    One list per field, keyed as ``BoundReport.as_dict``.  Each value is
    the double of the scalar formula at its point: the same IEEE
    operations in the same order, with max(c, x) taken as x if x > c
    else c, so that a clamped bound is +0.0 and never -0.0.
    """
    kappa = kappa_of_t(d, ts)
    threshold = 1.0 + kappa
    excess = norm_p - threshold
    scale = kappa * d - 1.0
    derived = np.sqrt(2.0 * (d - 1.0) / d) * excess / scale
    literal = np.sqrt(2.0 * (d - 1.0) / (d * scale)) * excess
    # the formula of schmidt_number_lower_bound
    schmidt = 1.0 + (d - 1.0) * (norm_p - 1.0 - kappa) / scale
    columns = (
        ts, kappa, norm_p, norm_f, threshold,
        np.where(literal > 0.0, literal, 0.0),
        np.where(derived > 0.0, derived, 0.0),
        np.where(schmidt > 1.0, schmidt, 1.0),
        np.where(excess > tol, "entangled", "undetected"),
    )
    return {name: column.tolist() for name, column in zip(_COLUMNS, columns)}


def _reports(d: int, columns: dict[str, list]) -> list[BoundReport]:
    return [BoundReport(d, *fields) for fields in zip(*columns.values())]


def chunk_points(d: int) -> int:
    """Grid points in one stacked evaluation at d, so that a chunk's working
    set stays within ``_CHUNK_BYTES``; at least one."""
    return max(1, _CHUNK_BYTES // _point_bytes(d))


def bound_columns(
    rho: np.ndarray,
    blocks: np.ndarray,
    ts,
    tol: float = TOL.verdict,
) -> dict[str, list]:
    """The reports of one state at the family (t, ``blocks``) of each t of
    ``ts``, as columns.

    One list per ``BoundReport`` field after d, keyed as
    ``BoundReport.as_dict``, with one entry per t in order.  Each t must
    be admissible for the blocks, as ``mums.standard_grid`` checks.  The
    state is validated and realigned once and its block matrix, which
    does not depend on t, is contracted once.  Each chunk of bounded
    memory is one broadcast of its effects (``family_effects``), one
    contraction and one batched SVD; the report fields of the whole grid
    are then computed as arrays.
    """
    _check_tol(tol)
    ts = np.asarray(ts, dtype=float)
    d = blocks.shape[-1]
    realigned = _realigned(_as_state(rho, d * d), d)
    ops_f = blocks.reshape(-1, d, d)
    norm_f = _correlation(realigned, ops_f, ops_f)[1].sum()
    step = chunk_points(d)
    norms_p = []
    for start in range(0, len(ts), step):
        chunk = ts[start : start + step]
        ops_p = family_effects(blocks, chunk).reshape(len(chunk), -1, d, d)
        norms_p.append(_correlation(realigned, ops_p, ops_p)[1].sum(axis=-1))
    norm_p = np.concatenate([np.empty(0), *norms_p])
    return _columns(d, ts, norm_p, np.full(len(ts), norm_f), tol)


def concurrence_lower_bounds(
    rho: np.ndarray,
    families: Sequence[MumFamily],
    tol: float = TOL.verdict,
) -> list[BoundReport]:
    """Evaluate ``concurrence_lower_bound`` for one state at a grid of families.

    The families must share one block array, as ``standard_family``
    calls of one d do; any other input raises ValueError.  The reports
    equal one ``concurrence_lower_bound`` call per family, in order, and
    are built from ``bound_columns``.
    """
    _check_tol(tol)
    families = list(families)
    if not families:
        raise ValueError("at least one family is required")
    blocks = getattr(families[0], "f_blocks", None)
    if not all(isinstance(fam, MumFamily) and fam.f_blocks is blocks for fam in families):
        raise ValueError("families must share one block array; build them with standard_family")
    columns = bound_columns(rho, blocks, [fam.t for fam in families], tol)
    return _reports(families[0].d, columns)


def bound_columns_of_states(
    stacks: Iterable[np.ndarray],
    fam_a: MumFamily,
    fam_b: MumFamily | None = None,
    tol: float = TOL.verdict,
) -> dict[str, list]:
    """The reports of ``concurrence_lower_bounds_of_states`` as columns.

    ``stacks`` is an iterable of state stacks (k, d^2, d^2), taken one at
    a time, so a generator never has more than one stack built; a stack
    of more than ``chunk_points(d)`` states is split into chunks.  Each
    chunk is one density check, one block and one probability
    contraction and two batched SVDs.  The columns are keyed as
    ``BoundReport.as_dict``, one entry per state in order.
    """
    fam_b = fam_a if fam_b is None else fam_b
    _check_tol(tol)
    _check_pair(fam_a, fam_b)
    d = fam_a.d
    ops_f = _stacks(fam_a, fam_b, MumFamily.block_stack)
    ops_p = _stacks(fam_a, fam_b, MumFamily.effect_stack)
    step = chunk_points(d)
    norms_p, norms_f = [], []
    for stack in stacks:
        stack = np.asarray(stack, dtype=complex)
        if stack.ndim != 3 or stack.shape[1:] != (d * d, d * d):
            raise ValueError(f"a state stack must be (k, {d * d}, {d * d}), got {stack.shape}")
        for start in range(0, len(stack), step):
            realigned = _realigned(stack[start : start + step], d)
            norms_f.append(_correlation(realigned, *ops_f)[1].sum(axis=-1))
            norms_p.append(_correlation(realigned, *ops_p)[1].sum(axis=-1))
    norm_p = np.concatenate([np.empty(0), *norms_p])
    norm_f = np.concatenate([np.empty(0), *norms_f])
    return _columns(d, np.full(len(norm_p), fam_a.t), norm_p, norm_f, tol)


def concurrence_lower_bounds_of_states(
    states: Iterable[np.ndarray],
    fam_a: MumFamily,
    fam_b: MumFamily | None = None,
    tol: float = TOL.verdict,
) -> list[BoundReport]:
    """Evaluate ``concurrence_lower_bound`` for many states at one family pair.

    ``states`` is any iterable of d^2 x d^2 states, such as a list, an
    (n, d^2, d^2) array or a generator.  The reports equal one
    ``concurrence_lower_bound`` call per state, in order.  The states are
    taken a chunk of bounded memory at a time, so a generator never has
    more than one chunk built, and evaluated by ``bound_columns_of_states``.
    """
    dim = fam_a.d * fam_a.d
    step = chunk_points(fam_a.d)
    states = iter(states)

    def stacks():
        while chunk := [_as_state(rho, dim) for rho in itertools.islice(states, step)]:
            yield np.stack(chunk)

    return _reports(fam_a.d, bound_columns_of_states(stacks(), fam_a, fam_b, tol))


def concurrence_lower_bound(
    rho: np.ndarray,
    fam_a: MumFamily,
    fam_b: MumFamily | None = None,
    tol: float = TOL.verdict,
) -> BoundReport:
    """Evaluate both concurrence bound variants and the separability verdict.

    ``tol`` must be finite and non-negative.  The one-state case of
    ``concurrence_lower_bounds_of_states``.
    """
    return concurrence_lower_bounds_of_states([rho], fam_a, fam_b, tol=tol)[0]


def separability_test(
    rho: np.ndarray,
    fam_a: MumFamily,
    fam_b: MumFamily | None = None,
    tol: float = TOL.verdict,
) -> str:
    """Verdict "entangled" or "undetected" from the trace-norm criterion.

    Every separable state stays below 1 + kappa, so "entangled" is
    conclusive while "undetected" is not.  The verdict of
    ``concurrence_lower_bound``.
    """
    return concurrence_lower_bound(rho, fam_a, fam_b, tol=tol).verdict
