"""Entanglement criteria from the correlations of one measurement family
on both factors.

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

A pure state is evaluated in its Schmidt basis (``_one_frame``).  Local
unitaries U x V act on M and Phi' by orthogonal maps that fix vec(I),
so a report depends on the Schmidt coefficients s alone, and for
sum_i s_i |ii> the frame is block-diagonal: a d x d core B^T diag(s^2) B
over [I; sqrt(gamma) D_l], D_l the d - 1 diagonal generators, and two
1 x 1 blocks +-gamma s_j s_k for each pair j < k.  The core is scaled
and decomposed as M is, and the pairs add w t^2 pairs to ||M||_tr and
w pairs to ||Phi'||_tr, pairs = 2 gamma sum_{j<k} s_j s_k.  At w = 1 the
core adds exactly 1 + kappa.  Only one state is probed, by
|1 - Tr rho^2| <= ``TOL.purity``; a stack always takes the dense frame.

``bound_columns`` is the one evaluator of a report: it takes a stack of
states, broadcast against a grid of (t, w) to one axis of points, and
computes the report fields as arrays, a chunk of bounded memory at a
time.  A one-state stack is validated and framed once, at weight 1,
since its frame depends on neither t nor w.  ``concurrence_lower_bound``
is its one point at a family, and ``white_noise_margin`` the margin of
one state as a function of w, for the threshold search.  The frame reads
a family only through d and t, so every evaluator takes one family.
``build_correlation_matrix`` forms C_P of two families that share kappa
by the plain definition, as the reference the tests hold the frame
against.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from .basis import gellmann_generators
from .config import TOL
from .linalg import SchmidtData, partial_trace, pure_amplitudes, schmidt_decompose
from .mums import MumFamily, kappa_gap
from .states import check_weight, validate_density


# Largest working set of one stacked evaluation: a 101-point sweep at
# d = 3 is one chunk, while at d = 16 a chunk holds one point.
_CHUNK_BYTES = 2 << 20


def _point_bytes(d: int) -> int:
    """Bytes one grid point adds to a stacked evaluation: its realigned
    state, the half product and its frame, complex, and its real M."""
    return 56 * d**4


def _as_state(rho: np.ndarray, dim: int) -> np.ndarray:
    """One state as a complex (dim, dim) array; any other shape is rejected."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (dim, dim):
        raise ValueError(f"state must be {dim}x{dim}, got {rho.shape}")
    return rho


def _checked(states: np.ndarray) -> np.ndarray:
    """One state or a stack, once ``states.validate_density`` passes it;
    a failure raises ValueError."""
    problems = validate_density(states)
    if problems:
        raise ValueError("state is not a density matrix: " + "; ".join(problems))
    return states


def _realigned(states: np.ndarray, d: int) -> np.ndarray:
    """Realign one d^2 x d^2 state, or each of a stack (k, d^2, d^2)."""
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
    """The frames of one d^2 x d^2 state, or of a stack (k, d^2, d^2),
    which the caller has validated: realigned and contracted once."""
    rows = _frame_rows(d)
    return _contract(_realigned(states, d), rows, rows)


@functools.lru_cache(maxsize=4)
def _diagonal_rows(d: int) -> np.ndarray:
    """The rows of the Schmidt core at d, read-only and built once per d:
    the diagonal of I, then sqrt(gamma) times that of each of the d - 1
    diagonal Gell-Mann generators, which ``gellmann_generators`` lists
    last; shape (d, d)."""
    diagonals = [g.diagonal().real for g in gellmann_generators(d)[d * (d - 1):]]
    rows = np.stack([np.ones(d), *(math.sqrt(d) * (1.0 + math.sqrt(d)) * x for x in diagonals)])
    rows.setflags(write=False)
    return rows


def _pure_vector(rho: np.ndarray) -> np.ndarray | None:
    """psi with rho = psi psi^dagger, up to a phase, when the validated
    state ``rho`` has |1 - Tr rho^2| <= ``TOL.purity``, else None: the
    column of the largest diagonal entry over that entry's square root."""
    if abs(1.0 - np.vdot(rho, rho).real) > TOL.purity:
        return None
    j = int(np.argmax(rho.diagonal().real))
    return rho[:, j] / math.sqrt(rho[j, j].real)


def _one_frame(states: np.ndarray, d: int) -> tuple[np.ndarray, float | None]:
    """The frame of one state, (d^2, d^2) or a one-state stack, validated
    once, and the sum of its 1x1 pair blocks.

    A pure state (``_pure_vector``) gives its Schmidt core, of the same
    leading shape with d x d in place of d^2 x d^2, and 2 gamma
    sum_{j<k} s_j s_k over its Schmidt coefficients s; a coefficient at
    or below d eps s_1, numpy's ``matrix_rank`` cutoff, is rounding of
    zero.  Any other state gives its dense frame (``_frames``) and None.
    """
    psi = _pure_vector(_checked(states).reshape(d * d, d * d))
    if psi is None:
        return _frames(states, d), None
    s = schmidt_decompose(psi, d, d).coefficients
    s = np.where(s > d * np.finfo(float).eps * s[0], s, 0.0)
    rows = _diagonal_rows(d)
    core = (rows * (s * s)) @ rows.T
    after = np.cumsum(s[::-1])[::-1]  # sum_{k >= j} s_k, a sum of non-negative terms
    pairs = 2.0 * d * (1.0 + math.sqrt(d)) ** 2 * float(s[:-1] @ after[1:])
    return core.reshape(*states.shape[:-2], d, d), pairs


def _frame_matrices(d: int, frames: np.ndarray, t) -> np.ndarray:
    """The matrices M of frames at sharpness ``t``, with their corner left
    at zero: rows and columns scaled by (sqrt(n)/d, t, ..., t).

    ``frames`` (..., k, k), dense (k = d^2) or Schmidt cores (k = d),
    broadcasts against ``t`` (...), so one frame may meet a grid of t,
    or a stack of frames one t.
    """
    t = np.asarray(t, dtype=float)
    scales = np.empty((*t.shape, frames.shape[-1]))
    scales[..., 0] = math.sqrt(d * (d + 1)) / d
    scales[..., 1:] = t[..., None]
    m = frames * scales[..., :, None] * scales[..., None, :]
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

    The state is validated and framed once (``_one_frame``), and each call
    scales M off the corner by w, as ``bound_columns`` does: one SVD, and
    none at w = 0, where M is c0 on its corner alone and the margin is
    -gap.  A pure state's pair blocks add w t^2 times their sum, and at
    w = 1 its core adds exactly 1 + kappa, so its margin there is that
    term alone.
    """
    d = fam.d
    frame, pairs = _one_frame(_as_state(rho, d * d), d)
    m = _frame_matrices(d, frame, fam.t)
    gap = kappa_gap(d, fam.t)
    if pairs is None:
        return lambda w: float(-gap if w == 0.0 else _margins(d, w * m, gap)[0])
    lift = fam.t * fam.t * pairs
    return lambda w: float(
        -gap if w == 0.0 else lift if w == 1.0 else _margins(d, w * m, gap)[0] + w * lift
    )


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
    fam_b = fam_a if fam_b is None else fam_b
    d = fam_a.d
    if fam_b.d != d:
        raise ValueError(f"family dimensions differ: {d} vs {fam_b.d}")
    if abs(fam_a.kappa - fam_b.kappa) > TOL.kappa_match:
        raise ValueError(f"families must share kappa: {fam_a.kappa!r} vs {fam_b.kappa!r}")
    rows_a, rows_b = (fam.effect_stack().reshape(-1, d * d) for fam in (fam_a, fam_b))
    realigned = _realigned(_checked(_as_state(rho, d * d)), d)
    matrix = np.ascontiguousarray(_contract(realigned, rows_a, rows_b))
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
    """Evaluated criteria for one state and one measurement family.

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
    one entry per point in order; a clamped bound is +0.0, never -0.0.
    A one-state stack is validated and framed once (``_one_frame``), and
    its ||Phi'||_tr taken once, since its frame depends on neither t nor
    w; a pure one is framed in its Schmidt basis.  A longer stack is
    validated and contracted one chunk at a time and never probed for
    purity.  Each chunk of points is one batched SVD.
    """
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"verdict tolerance {tol!r} must be finite and non-negative")
    check_weight(weights)
    states = np.asarray(states, dtype=complex)
    d = math.isqrt(states.shape[-1]) if states.ndim == 3 else 0
    if d < 2 or states.shape[1:] != (d * d, d * d):
        raise ValueError(f"a state stack must be (k, d^2, d^2) with d >= 2, got {states.shape}")
    points = np.broadcast_shapes(states.shape[:1], np.shape(ts), np.shape(weights))
    ts = np.broadcast_to(np.asarray(ts, dtype=float), points)
    weights = np.broadcast_to(np.asarray(weights, dtype=float), points)

    def frames_of(stack):
        frames = _frames(_checked(stack), d)
        return frames, _norm_f(frames)

    one, pairs = None, None
    if len(states) == 1:
        frame, pairs = _one_frame(states, d)
        one = frame, _norm_f(frame)
    step = chunk_points(d)
    gap = kappa_gap(d, ts)
    excess, norm_p, norm_f = (np.empty(points) for _ in range(3))
    for start in range(0, len(ts), step):
        part = slice(start, start + step)
        frames, frame_norm_f = one or frames_of(states[part])
        m = _frame_matrices(d, frames, ts[part])
        m *= weights[part, None, None]
        excess[part], norm_p[part] = _margins(d, m, gap[part])
        norm_f[part] = weights[part] * frame_norm_f
    kappa = 1.0 / d + gap  # kappa_of_t
    if pairs is not None:
        # a Schmidt core: its pair blocks add w pairs to ||Phi'||_tr and
        # w t^2 pairs to the excess and ||M||_tr, and at w = 1 the core adds
        # exactly 1 + kappa, which its SVD gives only to rounding
        norm_f += weights * pairs
        lift = weights * ts * ts * pairs
        whole = weights == 1.0
        excess = np.where(whole, 0.0, excess) + lift
        norm_p = np.where(whole, 1.0 + kappa, norm_p) + lift
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


def concurrence_lower_bound(
    rho: np.ndarray,
    fam: MumFamily,
    tol: float = TOL.verdict,
) -> BoundReport:
    """Evaluate both concurrence bound variants and the separability verdict.

    Every separable state stays below 1 + kappa, so "entangled" is
    conclusive while "undetected" is not.  ``tol`` must be finite and
    non-negative.  The report is the one point of ``bound_columns`` for
    the one-state stack of ``rho`` at the family's t and weight 1; the
    family is read only through d and t.
    """
    columns = bound_columns(_as_state(rho, fam.d**2)[None], fam.t, tol)
    return BoundReport(fam.d, *(column[0] for column in columns.values()))
