"""The Schmidt coefficients of bipartite pure states.

A pure state's report depends on its Schmidt coefficients alone
(``criteria``), and this module gives them from a flat amplitude
vector.  All functions are pure and operate on plain numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import TOL


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
