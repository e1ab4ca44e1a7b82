"""Dense complex linear algebra primitives.

Partial traces and transposes, trace norms, and Schmidt decomposition
of bipartite pure states.  All functions are pure and operate on plain
numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import TOL


def partial_trace(m: np.ndarray, dim_a: int, dim_b: int, keep: str = "A") -> np.ndarray:
    """Reduce a (dim_a*dim_b)-dimensional operator to one factor.

    ``keep`` selects the surviving subsystem, "A" or "B"; the trace of
    the result equals the trace of the input.
    """
    m = np.asarray(m)
    n = dim_a * dim_b
    if m.shape != (n, n):
        raise ValueError(
            f"matrix shape {m.shape} does not match a {dim_a}x{dim_b} bipartition"
        )
    m4 = m.reshape(dim_a, dim_b, dim_a, dim_b)
    if keep == "A":
        return np.einsum("ikjk->ij", m4)
    if keep == "B":
        return np.einsum("kikj->ij", m4)
    raise ValueError("keep must be 'A' or 'B'")


def partial_transpose(m: np.ndarray, dim_a: int, dim_b: int, sub: str = "B") -> np.ndarray:
    """Transpose one tensor factor of a bipartite operator."""
    m = np.asarray(m)
    n = dim_a * dim_b
    if m.shape != (n, n):
        raise ValueError(
            f"matrix shape {m.shape} does not match a {dim_a}x{dim_b} bipartition"
        )
    m4 = m.reshape(dim_a, dim_b, dim_a, dim_b)
    if sub == "B":
        return m4.transpose(0, 3, 2, 1).reshape(n, n)
    if sub == "A":
        return m4.transpose(2, 1, 0, 3).reshape(n, n)
    raise ValueError("sub must be 'A' or 'B'")


def trace_norm(m: np.ndarray) -> float:
    """Sum of singular values; accepts rectangular input."""
    m = np.asarray(m)
    try:
        s = np.linalg.svd(m, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"SVD did not converge for a {m.shape[0]}x{m.shape[1]} matrix: {exc}"
        ) from exc
    return float(np.sum(s))


@dataclass(frozen=True)
class SchmidtData:
    """Schmidt form of a bipartite pure state.

    ``coefficients`` are non-negative and non-increasing with unit sum
    of squares; ``left``/``right`` hold the matching orthonormal factor
    vectors as columns; ``rank`` counts coefficients above the rank
    tolerance.
    """

    coefficients: np.ndarray
    left: np.ndarray
    right: np.ndarray
    rank: int

    def reconstruct(self) -> np.ndarray:
        """Rebuild the amplitude vector sum_m c_m (left_m x right_m)."""
        amp = np.einsum("m,im,jm->ij", self.coefficients, self.left, self.right)
        return amp.reshape(-1)


def schmidt_decompose(psi: np.ndarray, dim_a: int, dim_b: int) -> SchmidtData:
    """Schmidt decomposition of a normalized bipartite amplitude vector."""
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    if psi.size != dim_a * dim_b:
        raise ValueError(
            f"amplitude vector of length {psi.size} does not match {dim_a}x{dim_b}"
        )
    norm = float(np.linalg.norm(psi))
    if abs(norm - 1.0) > TOL.state_normalization:
        raise ValueError(f"state norm {norm!r} deviates from 1 beyond tolerance")
    u, s, vh = np.linalg.svd(psi.reshape(dim_a, dim_b), full_matrices=False)
    rank = int(np.count_nonzero(s > TOL.schmidt_rank))
    return SchmidtData(coefficients=s, left=u, right=vh.T, rank=rank)
