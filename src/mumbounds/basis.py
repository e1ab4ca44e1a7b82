"""Orthonormal traceless Hermitian operator sets.

Generalized Gell-Mann matrices, normalized so Tr(G^2) = 1, and their
deterministic grouping into d+1 groups of d-1 operators, the shape the
measurement construction consumes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import TOL


def gellmann_generators(d: int) -> list[np.ndarray]:
    """The d^2 - 1 generalized Gell-Mann matrices with Tr(G^2) = 1.

    Fixed order: symmetric pair matrices for (i, j), i < j, in
    lexicographic order; then the antisymmetric pairs in the same order;
    then the d - 1 diagonal matrices.
    """
    if d < 2:
        raise ValueError("dimension must be at least 2")
    gens: list[np.ndarray] = []
    for i in range(d):
        for j in range(i + 1, d):
            g = np.zeros((d, d), dtype=complex)
            g[i, j] = g[j, i] = 1.0 / np.sqrt(2.0)
            gens.append(g)
    for i in range(d):
        for j in range(i + 1, d):
            g = np.zeros((d, d), dtype=complex)
            g[i, j] = -1j / np.sqrt(2.0)
            g[j, i] = 1j / np.sqrt(2.0)
            gens.append(g)
    for level in range(1, d):
        diag = np.zeros(d, dtype=complex)
        diag[:level] = 1.0
        diag[level] = -level
        gens.append(np.diag(diag) / np.sqrt(level * (level + 1)))
    return gens


@dataclass(frozen=True)
class OperatorBasis:
    """d^2 - 1 orthonormal traceless Hermitian operators in d+1 groups of d-1.

    ``groups`` has shape (d+1, d-1, d, d); the array is read-only.
    """

    d: int
    groups: np.ndarray


def partition_basis(generators: list[np.ndarray], d: int) -> OperatorBasis:
    """Fill d+1 groups with d-1 consecutive generators each.

    The generators must be an orthonormal set of d^2 - 1 traceless
    Hermitian matrices; any ordering is accepted, but the grouping (and
    hence the admissible sharpness interval downstream) depends on it.
    """
    if len(generators) != d * d - 1:
        raise ValueError(
            f"expected {d * d - 1} generators for dimension {d}, got {len(generators)}"
        )
    arr = np.stack([np.asarray(g, dtype=complex) for g in generators])
    if arr.shape[1:] != (d, d):
        raise ValueError(f"generators must be {d}x{d} matrices")
    if not np.all(np.isfinite(arr)):
        raise ValueError("generators contain non-finite entries")

    herm_dev = float(np.abs(arr - arr.conj().transpose(0, 2, 1)).max())
    trace_dev = float(np.abs(np.einsum("kii->k", arr)).max())
    flat = arr.reshape(d * d - 1, d * d)
    gram = flat @ flat.conj().T
    gram_dev = float(np.abs(gram - np.eye(d * d - 1)).max())
    worst = max(herm_dev, trace_dev, gram_dev)
    if worst > TOL.basis_orthonormality:
        raise ValueError(
            "generators are not an orthonormal traceless Hermitian set "
            f"(max deviation {worst:.3e})"
        )

    groups = arr.reshape(d + 1, d - 1, d, d)
    groups.setflags(write=False)
    return OperatorBasis(d=d, groups=groups)


def standard_basis(d: int) -> OperatorBasis:
    """Gell-Mann generators in their fixed order, partitioned."""
    return partition_basis(gellmann_generators(d), d)
