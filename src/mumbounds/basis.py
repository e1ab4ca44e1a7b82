"""Orthonormal traceless Hermitian operator sets.

Generalized Gell-Mann matrices, normalized so Tr(G^2) = 1, and their
deterministic grouping into d+1 groups of d-1 operators: a basis is one
read-only (d+1, d-1, d, d) complex array, the shape the measurement
construction consumes.  Only generators that a caller supplies are
checked: the Gell-Mann set is orthonormal by construction.
"""

from __future__ import annotations

import numpy as np

from .config import TOL


def gellmann_generators(d: int) -> np.ndarray:
    """The d^2 - 1 generalized Gell-Mann matrices with Tr(G^2) = 1, a new
    (d^2 - 1, d, d) complex array.

    Fixed order: symmetric pair matrices for (i, j), i < j, in
    lexicographic order; then the antisymmetric pairs in the same order;
    then the d - 1 diagonal matrices.
    """
    if d < 2:
        raise ValueError("dimension must be at least 2")
    i, j = np.triu_indices(d, 1)
    sym, anti = np.split(np.arange(2 * len(i)), 2)
    gens = np.zeros((d * d - 1, d, d), dtype=complex)
    gens[sym, i, j] = gens[sym, j, i] = 1.0 / np.sqrt(2.0)
    gens[anti, i, j], gens[anti, j, i] = -1j / np.sqrt(2.0), 1j / np.sqrt(2.0)
    levels, k = np.arange(1, d), np.arange(d)
    diag = np.tri(d - 1, d, dtype=complex) - levels[:, None] * np.eye(d - 1, d, 1)  # level l: l ones, -l
    gens[2 * len(i) :, k, k] = diag / np.sqrt(levels * (levels + 1))[:, None]
    return gens


def _grouped(generators: np.ndarray, d: int) -> np.ndarray:
    """The (d^2 - 1, d, d) generators as d+1 consecutive groups of d-1, read-only."""
    groups = generators.reshape(d + 1, d - 1, d, d)
    groups.setflags(write=False)
    return groups


def partition_basis(generators: np.ndarray | list[np.ndarray], d: int) -> np.ndarray:
    """Fill d+1 groups with d-1 consecutive generators each, once checked:
    the read-only (d+1, d-1, d, d) basis array.

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

    return _grouped(arr, d)


def standard_basis(d: int) -> np.ndarray:
    """Gell-Mann generators in their fixed order, partitioned unchecked: the
    read-only (d+1, d-1, d, d) basis array."""
    return _grouped(gellmann_generators(d), d)
