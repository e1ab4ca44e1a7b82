"""Dense complex linear algebra primitives.

Partial traces and transposes, and the Schmidt coefficients of
bipartite pure states.  All functions are pure and operate on plain
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


@dataclass(frozen=True)
class SchmidtData:
    """Schmidt form of a bipartite pure state: ``coefficients`` are
    non-negative and non-increasing with unit sum of squares."""

    coefficients: np.ndarray


def pure_amplitudes(psi: np.ndarray, dim_a: int, dim_b: int) -> np.ndarray:
    """A flat amplitude vector of dim_a*dim_b entries and unit norm, else ValueError."""
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    if psi.size != dim_a * dim_b:
        raise ValueError(
            f"amplitude vector of length {psi.size} does not match {dim_a}x{dim_b}"
        )
    norm = float(np.linalg.norm(psi))
    if abs(norm - 1.0) > TOL.state_normalization:
        raise ValueError(f"state norm {norm!r} deviates from 1 beyond tolerance")
    return psi


def schmidt_decompose(psi: np.ndarray, dim_a: int, dim_b: int) -> SchmidtData:
    """Schmidt coefficients of a normalized bipartite amplitude vector."""
    psi = pure_amplitudes(psi, dim_a, dim_b)
    return SchmidtData(coefficients=np.linalg.svd(psi.reshape(dim_a, dim_b), compute_uv=False))
