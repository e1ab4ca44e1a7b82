"""Entanglement criteria from the correlations of paired measurement
families.

The probability correlation matrix C_P of a bipartite state holds the
outcome probabilities Tr(rho (P_r x P_c)) of the effects P = I/d + t*F,
and the criterion compares its trace norm with 1 + kappa.  With
n = d(d+1), c0 = (d+1)/d, alpha_r = Tr(rho_A F_r), beta_c = Tr(rho_B F_c)
and Phi_rc = Tr(rho (F_r x F_c)),

    C_P = J/d^2 + (t/d)(alpha 1^T + 1 beta^T) + t^2 Phi.

Forming C_P and subtracting 1 + kappa cancels as t -> 0, so no bound,
sweep or threshold forms it.  The blocks of a complete family are a
tight frame, summing to zero over each measurement, with
sum_r |F_r><F_r| = gamma (I - |I><I|/d), gamma = d (1 + sqrt(d))^2
(Kalev and Gour, NJP 16, 053038, 2014).  So, up to isometries that keep
its singular values, C_P is the d^2 x d^2 matrix

    M = [[c0, (t sqrt(n)/d) beta'^T], [(t sqrt(n)/d) alpha', t^2 Phi']],

where alpha', beta' and Phi' are the expectations of sqrt(gamma) G in
rho_A and rho_B and of gamma G x G in rho, G over the d^2 - 1 Gell-Mann
generators (``basis.gellmann_generators``).  One contraction of the
realigned state with the rows [vec(I); sqrt(gamma) G] (``_frame_rows``,
one per d) gives the frame [[Tr rho, beta'^T], [alpha', Phi']]
(``_frames``); ``_frame_matrices`` scales it to M, and ``_margins``
takes one SVD of M, with singular values sigma:

    sigma_1 - c0 = (||M||_F^2 - c0^2 - sum_{i>=2} sigma_i^2) / (sigma_1 + c0),
    excess = ||C_P||_tr - 1 - kappa = (sigma_1 - c0) + sum_{i>=2} sigma_i - K t^2,

with ||M||_F^2 - c0^2 summed off the corner and K t^2 = kappa - 1/d
(``mums.kappa_gap``), so that kappa d - 1 = d K t^2.  The bounds, the
Schmidt bound and the verdict come from the excess; the verdict is
"entangled" when the excess exceeds tol * (kappa d - 1), so that it
agrees with a positive bound at every t.  traceNormP is
c0 + (sigma_1 - c0) + sum_{i>=2} sigma_i and traceNormF is ||Phi'||_tr.
A validated state has unit trace, so the corner of M is c0.

Every generator is traceless, so the frame of w*rho + (1 - w)*I/d^2 is w
times the frame of rho, apart from the corner Tr rho = 1; so are its
matrix M off the corner and ||Phi'||_tr.  A white-noise weight is a
coordinate of the evaluation, applied this way alone: no mixed state is
formed, and weight 1 multiplies by 1.0, which is exact.

The state is realigned as
``rho.reshape(d, d, d, d).transpose(2, 0, 3, 1).reshape(d*d, d*d)``, so
that entry (r, c) of A @ R @ B^T is Tr(rho (X_r x Y_c)) for operator rows
X of A and Y of B.  Every state passes one front door,
``states.validate_density`` with the ``density_*`` tolerances, and a
failure raises ValueError.

``bound_columns`` is the one column evaluator: it takes a stack of
states, broadcast against a grid of (t, w) to one axis of points, and
computes the report fields as arrays through ``_columns``, a chunk of
bounded memory at a time.  A one-state stack is validated and contracted
once, at weight 1, since its frame depends on neither t nor w.
``concurrence_lower_bound`` is the one report of one state at a family
pair, and ``white_noise_margin`` the margin of one state as a function
of w, for the threshold search.  ``build_correlation_matrix`` forms C_P
by the plain definition, as the reference the tests hold the frame
against.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from typing import Callable, Iterable

import numpy as np

from .basis import gellmann_generators
from .config import TOL
from .linalg import SchmidtData, partial_trace, pure_amplitudes
from .mums import MumFamily, kappa_gap
from .states import check_weight, validate_density


# Largest working set of one stacked evaluation: a 101-point sweep at
# d = 3 is one chunk, while at d = 16 a chunk holds one point.
_CHUNK_BYTES = 2 << 20


def _point_bytes(d: int) -> int:
    """Bytes one grid point adds to a stacked evaluation: its realigned
    state, the half product and its frame, complex, and its real M."""
    return 56 * d**4


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


def _realigned(states: np.ndarray, d: int) -> np.ndarray:
    """Validate one d^2 x d^2 state, or a stack (k, d^2, d^2), and realign each."""
    problems = validate_density(states)
    if problems:
        raise ValueError("state is not a density matrix: " + "; ".join(problems))
    realigned = states.reshape(-1, d, d, d, d).transpose(0, 3, 1, 4, 2)
    return realigned.reshape(states.shape)


def _contract(realigned: np.ndarray, rows_a: np.ndarray, rows_b: np.ndarray) -> np.ndarray:
    """The real entries Tr(rho (X_r x Y_c)) of operator rows (m, d^2).

    ``realigned`` is one (d^2, d^2) state or a stack (k, d^2, d^2), and
    each state's entries are the doubles of its own call.  An imaginary
    part beyond ``TOL.correlation_imaginary`` raises ValueError.
    """
    entries = np.matmul(np.matmul(rows_a, realigned), rows_b.T)
    imag = float(np.abs(entries.imag).max())
    if imag > TOL.correlation_imaginary:
        raise ValueError(f"correlation entries acquired imaginary part {imag:.3e}")
    return entries.real


@functools.lru_cache(maxsize=4)
def _frame_rows(d: int) -> np.ndarray:
    """The operator rows of the frame at d, read-only and built once per d:
    vec(I), then sqrt(gamma) times each Gell-Mann generator, gamma =
    d (1 + sqrt(d))^2, shape (d^2, d^2).  Four dimensions are kept (a
    d = 32 entry is 16 MB)."""
    gens = np.stack(gellmann_generators(d)).reshape(-1, d * d)
    rows = np.concatenate([np.eye(d).reshape(1, d * d), math.sqrt(d) * (1.0 + math.sqrt(d)) * gens])
    rows.setflags(write=False)
    return rows


def _frames(states: np.ndarray, d: int) -> np.ndarray:
    """The frames of one d^2 x d^2 state, or of a stack (k, d^2, d^2):
    validated, realigned and contracted once."""
    rows = _frame_rows(d)
    return _contract(_realigned(states, d), rows, rows)


def _scales(t, d: int) -> np.ndarray:
    """The factors (sqrt(n)/d, t, ..., t) that take a frame's rows or columns to M."""
    t = np.asarray(t, dtype=float)
    scales = np.empty((*t.shape, d * d))
    scales[..., 0] = math.sqrt(d * (d + 1)) / d
    scales[..., 1:] = t[..., None]
    return scales


def _frame_matrices(d: int, frames: np.ndarray, ta, tb) -> np.ndarray:
    """The matrices M of frames at sharpness ``ta`` of the first family
    and ``tb`` of the second, with their corner left at zero.

    ``frames`` (..., d^2, d^2) broadcasts against ``ta`` and ``tb`` (...),
    so one frame may meet a grid of t, or a stack of frames one t.
    """
    m = frames * _scales(ta, d)[..., :, None] * _scales(tb, d)[..., None, :]
    m[..., 0, 0] = 0.0
    return m


def _margins(d: int, m: np.ndarray, gap) -> tuple[np.ndarray, np.ndarray]:
    """(excess, traceNormP) of matrices M from ``_frame_matrices`` at
    ``gap`` = kappa - 1/d (``mums.kappa_gap``): one batched SVD.

    The corner of ``m`` must be zero; it is set to c0 in place.
    """
    c0 = (d + 1.0) / d
    off_corner = np.einsum("...ij,...ij->...", m, m)  # ||M||_F^2 - c0^2
    m[..., 0, 0] = c0
    sigma = np.linalg.svd(m, compute_uv=False)
    tail = sigma[..., 1:]
    top = (off_corner - np.einsum("...i,...i->...", tail, tail)) / (sigma[..., 0] + c0)
    rest = tail.sum(axis=-1)  # top is sigma_1 - c0
    return top + rest - gap, c0 + top + rest


def white_noise_margin(rho: np.ndarray, fam: MumFamily) -> Callable[[float], float]:
    """The margin of w*rho + (1 - w)*I/d^2 as a function of the weight w:
    the excess of its probability correlation trace norm over 1 + kappa.

    The state is validated and contracted once, and each call scales M
    off the corner by w, as ``bound_columns`` does: one SVD, and none at
    w = 0, where M is c0 on its corner alone and the margin is -gap.
    """
    d = fam.d
    m = _frame_matrices(d, _frames(_as_state(rho, d * d), d), fam.t, fam.t)
    gap = kappa_gap(d, fam.t)
    return lambda w: float(-gap if w == 0.0 else _margins(d, w * m, gap)[0])


def _norm_f(frames: np.ndarray) -> np.ndarray:
    """||Phi'||_tr = ||Phi||_tr of each frame."""
    return np.linalg.svd(frames[..., 1:, 1:], compute_uv=False).sum(axis=-1)


@dataclass(frozen=True)
class CorrelationMatrix:
    """Real probability correlation matrix of a state under two families.

    Row r = measurement-major index of the first family, column c of the
    second; ``trace_norm`` equals the sum of ``singular_values``.
    """

    matrix: np.ndarray
    singular_values: np.ndarray
    trace_norm: float


def build_correlation_matrix(
    rho: np.ndarray,
    fam_a: MumFamily,
    fam_b: MumFamily | None = None,
) -> CorrelationMatrix:
    """Probability correlation matrix with entries Tr(rho (P_r x P_c)).

    The plain definition, kept as the reference for the frame that
    every report is computed from.  P runs over the effects of the two
    families, which must share the dimension and the sharpness
    parameter kappa.  Entry (r, c) pairs effect r of ``fam_a`` on the
    first factor with effect c of ``fam_b`` on the second, both
    flattened measurement-major.
    """
    if fam_b is None:
        fam_b = fam_a
    _check_pair(fam_a, fam_b)
    d = fam_a.d
    rows_a, rows_b = (fam.effect_stack().reshape(-1, d * d) for fam in (fam_a, fam_b))
    matrix = np.ascontiguousarray(_contract(_realigned(_as_state(rho, d * d), d), rows_a, rows_b))
    singular_values = np.linalg.svd(matrix, compute_uv=False)
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


@dataclass(frozen=True)
class BoundReport:
    """Evaluated criteria for one state and one measurement family pair.

    ``bound_derived`` carries the proof-consistent coefficient
    sqrt(2(d-1)/d)/(kappa*d - 1), ``bound_literal`` the variant with
    sqrt(2(d-1)/(d(kappa*d - 1))); both clamp at zero, and both are
    always computed.  bound_literal = bound_derived * sqrt(kappa*d - 1)
    and kappa*d - 1 <= 2/d <= 1, so the literal variant is never the
    larger.  ``schmidt_number_lb`` inverts the pure-state closed form
    against 2 sum_{i<j} c_i c_j <= r - 1: 1 + (d-1) excess/(kappa*d - 1),
    clamped at 1, which is d for a maximally entangled state.  The
    verdict is "entangled" when the excess of the probability
    correlation trace norm over 1 + kappa exceeds tol * (kappa*d - 1),
    that is, when bound_derived exceeds sqrt(2(d-1)/d) * tol.
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
        """The fields in order, keyed d and then as ``_COLUMNS``."""
        return {key: getattr(self, f.name) for key, f in zip(("d", *_COLUMNS), fields(self))}


# BoundReport fields after d, in order, keyed as BoundReport.as_dict: the
# columns of a grid
_COLUMNS = (
    "t", "kappa", "traceNormP", "traceNormF", "threshold",
    "bound_literal", "bound_derived", "schmidt_number_lb", "verdict",
)


def _columns(d: int, chunks: Iterable[tuple], tol: float) -> dict[str, list]:
    """The report fields of chunks of points, in order, as columns.

    Each chunk is (frames, norm_f, ta, tb, w), broadcast against one
    another as in ``_frame_matrices``; w holds the white-noise weights of
    the points, which scale M off the corner and norm_f.  One list per
    field, keyed as ``BoundReport.as_dict``; a clamped bound is +0.0,
    never -0.0.
    """
    parts: list[list[np.ndarray]] = [[], [], [], [], []]
    for frames, norm_f, ta, tb, w in chunks:
        gap = kappa_gap(d, np.asarray(ta, dtype=float))
        m = _frame_matrices(d, frames, ta, tb)
        m *= w[..., None, None]
        excess, norm_p = _margins(d, m, gap)
        for part, column in zip(parts, np.broadcast_arrays(ta, gap, excess, norm_p, w * norm_f)):
            part.append(column)
    ts, gap, excess, norm_p, norm_f = (np.concatenate([np.empty(0), *part]) for part in parts)
    kappa = 1.0 / d + gap  # kappa_of_t
    scale = d * gap  # kappa d - 1
    derived = np.sqrt(2.0 * (d - 1.0) / d) * excess / scale
    literal = np.sqrt(2.0 * (d - 1.0) / (d * scale)) * excess
    schmidt = 1.0 + (d - 1.0) * excess / scale
    columns = (
        ts, kappa, norm_p, norm_f, 1.0 + kappa,
        np.where(literal > 0.0, literal, 0.0),
        np.where(derived > 0.0, derived, 0.0),
        np.where(schmidt > 1.0, schmidt, 1.0),
        np.where(excess > tol * scale, "entangled", "undetected"),
    )
    return {name: column.tolist() for name, column in zip(_COLUMNS, columns)}


def chunk_points(d: int) -> int:
    """Grid points in one stacked evaluation at d, so that a chunk's working
    set stays within ``_CHUNK_BYTES``; at least one."""
    return max(1, _CHUNK_BYTES // _point_bytes(d))


def bound_columns(
    states: np.ndarray,
    ts,
    tol: float = TOL.verdict,
    weights=1.0,
) -> dict[str, list]:
    """The reports of w*rho + (1 - w)*I/d^2 at a family of sharpness t
    for each point (rho, t, w) of ``states``, ``ts`` and ``weights``, as
    columns.

    ``states`` is a stack (k, d^2, d^2), which fixes d; its axis
    broadcasts with ``ts`` and ``weights`` to one axis of points.  Each
    weight must lie in [0, 1] (``states.check_weight``), and each t must
    be admissible at d, as ``mums.standard_grid`` checks.  One list per
    ``BoundReport`` field after d, keyed as ``BoundReport.as_dict``, with
    one entry per point in order.  A one-state stack is validated and
    contracted once, and its ||Phi'||_tr taken once, since its frame
    depends on neither t nor w; a longer stack is validated and
    contracted one chunk at a time.  Each chunk of points is one batched
    SVD.
    """
    _check_tol(tol)
    check_weight(weights)
    states = np.asarray(states, dtype=complex)
    d = math.isqrt(states.shape[-1]) if states.ndim == 3 else 0
    if d < 2 or states.shape[1:] != (d * d, d * d):
        raise ValueError(f"a state stack must be (k, d^2, d^2) with d >= 2, got {states.shape}")
    points = np.broadcast_shapes(states.shape[:1], np.shape(ts), np.shape(weights))
    ts = np.broadcast_to(np.asarray(ts, dtype=float), points)
    weights = np.broadcast_to(np.asarray(weights, dtype=float), points)

    def frames_of(stack):
        frames = _frames(stack, d)
        return frames, _norm_f(frames)

    one = frames_of(states) if len(states) == 1 else None
    step = chunk_points(d)

    def chunks():
        for start in range(0, len(ts), step):
            part = slice(start, start + step)
            frames, norm_f = one or frames_of(states[part])
            yield frames, norm_f, ts[part], ts[part], weights[part]

    return _columns(d, chunks(), tol)


def concurrence_lower_bound(
    rho: np.ndarray,
    fam_a: MumFamily,
    fam_b: MumFamily | None = None,
    tol: float = TOL.verdict,
) -> BoundReport:
    """Evaluate both concurrence bound variants and the separability verdict.

    Every separable state stays below 1 + kappa, so "entangled" is
    conclusive while "undetected" is not.  ``tol`` must be finite and
    non-negative.  The two families may differ, but must share d and
    kappa, and their frames are the one frame of d; the state is one
    stack of one state, contracted once and evaluated as
    ``bound_columns`` evaluates a point at weight 1.
    """
    fam_b = fam_a if fam_b is None else fam_b
    _check_tol(tol)
    _check_pair(fam_a, fam_b)
    d = fam_a.d
    frames = _frames(_as_state(rho, d * d)[None], d)
    columns = _columns(d, [(frames, _norm_f(frames), fam_a.t, fam_b.t, np.ones(1))], tol)
    return BoundReport(d, *(column[0] for column in columns.values()))
