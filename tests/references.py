"""Plain-definition references that only the tests use.

Partial traces and transposes of bipartite operators, and the
concurrence of a pure state from its reduced state.  The package never
forms them: a report reads a state through its frame or its Schmidt
coefficients (``mumbounds.criteria``).
"""

from __future__ import annotations

import numpy as np

from mumbounds.linalg import pure_amplitudes


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


def pure_concurrence(psi: np.ndarray, dim_a: int, dim_b: int) -> float:
    """Concurrence sqrt(2 (1 - Tr(rho_A^2))) of a normalized pure state."""
    psi = pure_amplitudes(psi, dim_a, dim_b)
    rho_a = partial_trace(np.outer(psi, psi.conj()), dim_a, dim_b, keep="A")
    purity = float((np.abs(rho_a) ** 2).sum())
    return float(np.sqrt(max(0.0, 2.0 * (1.0 - purity))))
