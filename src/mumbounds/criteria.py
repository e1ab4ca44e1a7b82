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
formed, and weight 1 multiplies by 1.0, which is exact.  Every state is
checked once, by ``states``: a query's state as ``engine.make_state``
makes it, and a state given to the exported ``concurrence_lower_bound``
or ``build_correlation_matrix`` by ``states.checked_density``;
``bound_columns`` and ``white_noise_margin`` take a checked state.  For
Hermitian rows Re Tr(rho (X x Y)) is the entry of rho's Hermitian part,
so the real frame is its frame.

A pure state takes closed forms and no frame.  Local unitaries U x V
act on M and Phi' by orthogonal maps that fix vec(I), so its report
depends on its Schmidt coefficients s alone (Chen, Albeverio and Fei,
PRL 95, 040504, 2005).  For sum_i s_i |ii> the frame is block-diagonal:
a Gram matrix over I and the d - 1 diagonal generators, and two 1 x 1
blocks +-gamma s_j s_k for each pair j < k, which sum to pairs =
2 gamma sum_{j<k} s_j s_k (``_pair_sum``).  At every w in [0, 1] the
Gram part of M and of Phi' is positive semidefinite, so its trace norm
is its trace, c0 + w gap and w K with K = (1 + sqrt(d))^2 (d - 1):

    excess = w t^2 pairs - (1 - w) gap,
    traceNormP = 1 + (1/d + w gap) + w t^2 pairs,
    traceNormF = w K + w pairs            (``_pure_columns``).

A state is pure when |1 - Tr rho^2| <= ``TOL.purity``, by one formula
alone or in a stack (``_pure``).

One rule per state evaluates each point (t, w), so a point gives the
same double whichever query reaches it: the closed forms of a pure
state, or ``_margins`` of a mixed state's M scaled by w
(``_weighted_margins``) and w ||Phi'||_tr.  ``bound_columns``, the one
evaluator of a report, applies it to each chunk of ``chunk_points(d)``
points, and ``white_noise_margin(rho, d, t)`` to each weight of a
threshold search.  ``concurrence_lower_bound`` is one point of
``bound_columns``; it reads its family only through d and t.
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
from .linalg import SchmidtData, schmidt_decompose
from .mums import MumFamily, kappa_gap
from .states import check_weight, checked_density


# Largest working set of one stacked evaluation: a chunk holds 462 points
# at d = 3 and one at d = 16
_CHUNK_BYTES = 2 << 20


def _point_bytes(d: int) -> int:
    """Bytes one grid point adds to a stacked evaluation at d: its realigned
    state, the half product and its frame, complex, and its real M."""
    return 56 * d**4


def _as_state(rho: np.ndarray, dim: int) -> np.ndarray:
    """One state as a complex (dim, dim) array; any other shape is rejected."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (dim, dim):
        raise ValueError(f"state must be {dim}x{dim}, got {rho.shape}")
    return rho


def _realigned(states: np.ndarray, d: int) -> np.ndarray:
    """Realign one d^2 x d^2 state, or each of a stack (k, d^2, d^2), so
    that entry (r, c) of A @ R @ B^T is Tr(rho (X_r x Y_c)) for operator
    rows X of A and Y of B."""
    realigned = states.reshape(-1, d, d, d, d).transpose(0, 3, 1, 4, 2)
    return realigned.reshape(states.shape)


def _contract(realigned: np.ndarray, rows_a: np.ndarray, rows_b: np.ndarray) -> np.ndarray:
    """The entries Re Tr(rho (X_r x Y_c)) of Hermitian operator rows
    (m, d^2), those of rho's Hermitian part.  ``realigned`` is one
    (d^2, d^2) state or a stack (k, d^2, d^2), and each state's entries
    are the doubles of its own call."""
    return np.matmul(np.matmul(rows_a, realigned), rows_b.T).real


@functools.lru_cache(maxsize=4)
def _frame_rows(d: int) -> np.ndarray:
    """The operator rows of the frame at d, read-only and built once per d:
    vec(I), then sqrt(gamma) times each Gell-Mann generator, gamma =
    d (1 + sqrt(d))^2, shape (d^2, d^2).  Four dimensions are kept (a
    d = 32 entry is 16 MB)."""
    gens = gellmann_generators(d).reshape(-1, d * d)
    rows = np.concatenate([np.eye(d).reshape(1, d * d), math.sqrt(d) * (1.0 + math.sqrt(d)) * gens])
    rows.setflags(write=False)
    return rows


def _frames(states: np.ndarray, d: int) -> np.ndarray:
    """The frames of one d^2 x d^2 state, or of a stack (k, d^2, d^2),
    which the caller has validated: realigned and contracted once."""
    rows = _frame_rows(d)
    return _contract(_realigned(states, d), rows, rows)


def _pure(states: np.ndarray) -> np.ndarray:
    """|1 - Tr rho^2| <= ``TOL.purity`` for each validated state of a stack
    (k, n, n): one batched product of the real views, whatever k is."""
    parts = np.ascontiguousarray(states).reshape(len(states), 1, -1).view(float)  # re, im
    purity = np.matmul(parts, parts.transpose(0, 2, 1))[:, 0, 0]  # Tr rho^2 of each
    return np.abs(1.0 - purity) <= TOL.purity


def _pair_sum(rho: np.ndarray, d: int) -> float:
    """pairs = 2 gamma sum_{j<k} s_j s_k of a validated pure state rho =
    psi psi^dagger, with psi the column of its largest diagonal entry over
    that entry's square root.  A Schmidt coefficient at or below d eps s_1,
    numpy's ``matrix_rank`` cutoff, is rounding of zero."""
    j = int(np.argmax(rho.diagonal().real))
    s = schmidt_decompose(rho[:, j] / math.sqrt(rho[j, j].real), d, d).coefficients
    s = np.where(s > d * np.finfo(float).eps * s[0], s, 0.0)
    after = np.cumsum(s[::-1])[::-1]  # sum_{k >= j} s_k, a sum of non-negative terms
    return 2.0 * d * (1.0 + math.sqrt(d)) ** 2 * float(s[:-1] @ after[1:])


def _pure_columns(d: int, pairs, t, w, gap) -> tuple:
    """(excess, traceNormP, traceNormF) of w*rho + (1 - w)*I/d^2 for a pure
    rho with pair sum ``pairs``, at t, w and ``gap`` = kappa - 1/d, which
    broadcast; K = kappa_gap(d, 1)."""
    lift = w * t * t * pairs
    return (
        lift - (1.0 - w) * gap,
        1.0 + (1.0 / d + w * gap) + lift,
        w * kappa_gap(d, 1.0) + w * pairs,
    )


def _frame_matrices(d: int, frames: np.ndarray, t) -> np.ndarray:
    """The matrices M of frames (..., k, k) at sharpness ``t`` (...), their
    rows and columns scaled by (sqrt(n)/d, t, ..., t) and their corner left
    at zero; one frame may meet a grid of t, or a stack of frames one t."""
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


def _trace_norm_f(frames: np.ndarray) -> np.ndarray:
    """||Phi'||_tr of each frame: one batched SVD."""
    return np.linalg.svd(frames[..., 1:, 1:], compute_uv=False).sum(axis=-1)


def _weighted_margins(d: int, frames: np.ndarray, t, w, gap) -> tuple:
    """(excess, traceNormP) of w*rho + (1 - w)*I/d^2 from the frames of
    rho, at arrays t, w and ``gap`` = kappa - 1/d: one frame at every
    point, or one frame a point; M is scaled by w for one ``_margins``."""
    return _margins(d, _frame_matrices(d, frames, t) * w[..., None, None], gap)


def white_noise_margin(rho: np.ndarray, d: int, t: float) -> Callable[[float], float]:
    """The margin of w*rho + (1 - w)*I/d^2 as a function of the weight w:
    the excess of its probability correlation trace norm over 1 + kappa,
    for the family of sharpness t at d; t must be admissible at d, as
    ``mums.standard_grid`` checks.

    The state, which the caller has validated, is probed and framed once,
    and each weight gives the double of its ``bound_columns`` point: the
    closed form of a pure state (``_pure_columns``), else one ``_margins``
    of its matrix M, none at w = 0, where the margin is -gap.
    """
    rho = _as_state(rho, d * d)
    gap = kappa_gap(d, t)
    if _pure(rho[None])[0]:
        pairs = _pair_sum(rho, d)
        return lambda w: float(_pure_columns(d, pairs, t, w, gap)[0])
    m = _frame_matrices(d, _frames(rho, d), t)
    return lambda w: float(-gap if w == 0.0 else _margins(d, m * w, gap)[0])


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
    realigned = _realigned(checked_density(_as_state(rho, d * d)), d)
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


# the columns of a grid: BoundReport fields after d, keyed as in as_dict
_COLUMNS = (
    "t", "kappa", "traceNormP", "traceNormF", "threshold",
    "bound_literal", "bound_derived", "schmidt_number_lb", "verdict",
)


def chunk_points(d: int) -> int:
    """Grid points in one stacked evaluation at d, so that a chunk's
    working set stays within ``_CHUNK_BYTES``; at least one."""
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
    The caller has validated the states.  A one-state stack is probed
    once; if mixed, it is framed once, its ||Phi'||_tr taken once, and its
    points evaluated a chunk at a time.  A longer stack is probed and
    framed a chunk at a time, its pure states apart.  Each chunk of mixed
    points is one batched SVD of at most ``chunk_points(d)`` matrices M.
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

    gap = kappa_gap(d, ts)
    columns = np.empty((3, len(ts)))  # excess, traceNormP, traceNormF
    step = chunk_points(d)
    if len(states) == 1:
        if _pure(states)[0]:
            columns[:] = _pure_columns(d, _pair_sum(states[0], d), ts, weights, gap)
        else:
            frame = _frames(states[0], d)
            for start in range(0, len(ts), step):
                part = slice(start, start + step)
                columns[:2, part] = _weighted_margins(d, frame, ts[part], weights[part], gap[part])
            columns[2] = weights * _trace_norm_f(frame)
    else:
        for start in range(0, len(ts), step):
            part = slice(start, start + step)
            chunk = states[part]
            pure = _pure(chunk)
            if pure.any():
                for i in start + np.flatnonzero(pure):
                    columns[:, i] = _pure_columns(d, _pair_sum(states[i], d), ts[i], weights[i], gap[i])
                part, chunk = start + np.flatnonzero(~pure), chunk[~pure]
            if len(chunk):
                frames = _frames(chunk, d)
                w = weights[part]
                columns[:2, part] = _weighted_margins(d, frames, ts[part], w, gap[part])
                columns[2, part] = w * _trace_norm_f(frames)
    excess, norm_p, norm_f = columns
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


def concurrence_lower_bound(
    rho: np.ndarray,
    fam: MumFamily,
    tol: float = TOL.verdict,
) -> BoundReport:
    """Evaluate both concurrence bound variants and the separability verdict.

    Every separable state stays below 1 + kappa, so "entangled" is
    conclusive while "undetected" is not.  ``tol`` must be finite and
    non-negative, and ``rho`` must pass ``states.checked_density``.  The
    report is the one point of ``bound_columns`` for ``rho`` at the
    family's t and weight 1.  The family is read only through d and t; it
    stays the argument because the benchmark (``bench/workloads.py``)
    passes one.
    """
    columns = bound_columns(checked_density(_as_state(rho, fam.d**2))[None], fam.t, tol)
    return BoundReport(fam.d, *(column[0] for column in columns.values()))
