"""Benchmark density matrices and a plain-text file format for them.

Provides the tiles bound entangled state (built from an unextendible
product basis), the Horodecki 3x3 bound entangled family, white-noise
mixtures, maximally entangled states, and seeded random states.  The
criteria take a white-noise weight as a coordinate of the evaluation
(``criteria.bound_columns``), so the package mixes only a state that it
writes to a file (``mix_with_white_noise``).
"""

from __future__ import annotations

import functools
from pathlib import Path

import numpy as np

from .config import TOL


class StateFileError(ValueError):
    """A density-matrix file exists but fails validation."""


def _ket(d: int, index: int) -> np.ndarray:
    v = np.zeros(d, dtype=complex)
    v[index] = 1.0
    return v


def validate_density(rho: np.ndarray) -> list[str]:
    """Return the violated density-matrix invariants (empty if valid).

    ``rho`` is one square matrix or a stack (k, n, n), checked in one
    vectorised pass with the ``density_*`` tolerances of ``TOL``:
    finiteness before any arithmetic, then Hermiticity and unit trace,
    then positivity.  A stack reports the problems of its first state
    that fails the earliest of these stages.

    Positivity is certified by one batched Cholesky factorisation of
    rho + (density_psd/2)*I: when it succeeds, the smallest eigenvalue
    is at least -density_psd/2 up to rounding of order n*eps, well
    inside the tolerance.  Only when it fails does one batched
    ``eigvalsh`` decide and name the eigenvalue, so every verdict and
    message is that of ``eigvalsh``.
    """
    rho = np.asarray(rho)
    if rho.ndim not in (2, 3) or rho.shape[-1] != rho.shape[-2]:
        return [f"matrix is not square (shape {rho.shape})"]
    stack = rho.reshape(-1, *rho.shape[-2:])
    finite = np.isfinite(stack)
    if not finite.all():
        entries = np.argwhere(~finite[np.argmin(finite.all(axis=(1, 2)))]).tolist()
        named = ", ".join(f"({i}, {j})" for i, j in entries[:4])
        more = f" and {len(entries) - 4} more" if len(entries) > 4 else ""
        return [f"matrix contains non-finite entries at {named}{more}"]
    herms = np.abs(stack - stack.conj().transpose(0, 2, 1)).max(axis=(1, 2))
    for herm, tr in zip(herms.tolist(), np.trace(stack, axis1=1, axis2=2).tolist()):
        problems = []
        if herm > TOL.density_hermiticity:
            problems.append(f"not Hermitian (max deviation {herm:.3e})")
        if abs(tr - 1.0) > TOL.density_trace:
            problems.append(f"trace is {tr if tr.imag else tr.real:.15g}, not 1")
        if problems:
            return problems
    n = stack.shape[-1]
    shifted = stack.copy()
    shifted.reshape(-1, n * n)[:, :: n + 1] += 0.5 * TOL.density_psd  # the diagonals
    try:
        np.linalg.cholesky(shifted)
        return []
    except np.linalg.LinAlgError:
        pass
    min_eigs = np.linalg.eigvalsh(stack).min(axis=1)
    negative = min_eigs[min_eigs < -TOL.density_psd]
    return [f"negative eigenvalue {negative[0]:.3e}"] if negative.size else []


def checked_density(rho: np.ndarray) -> np.ndarray:
    """``rho``, once ``validate_density`` passes it; a failure raises
    ValueError naming each problem."""
    problems = validate_density(rho)
    if problems:
        raise ValueError("state is not a density matrix: " + "; ".join(problems))
    return rho


def tiles_state() -> np.ndarray:
    """The 3x3 bound entangled state (I - sum of the five tile projectors)/4.

    The five tile vectors form an unextendible product basis, so the
    state is entangled yet has positive partial transpose.  It is built
    once, and each call returns a new copy.
    """
    return _tiles().copy()


@functools.lru_cache(maxsize=1)
def _tiles() -> np.ndarray:
    s2 = np.sqrt(2.0)
    e0, e1, e2 = (_ket(3, i) for i in range(3))
    plus = (e0 + e1 + e2) / np.sqrt(3.0)
    tiles = [
        np.kron(e0, (e0 - e1) / s2),
        np.kron((e0 - e1) / s2, e2),
        np.kron(e2, (e1 - e2) / s2),
        np.kron((e1 - e2) / s2, e0),
        np.kron(plus, plus),
    ]
    proj = sum(np.outer(v, v.conj()) for v in tiles)
    return (np.eye(9, dtype=complex) - proj) / 4.0


def _outside_unit_interval(values) -> float | None:
    """The first of ``values``, a number or an array, outside [0, 1] (NaN
    included), or None."""
    for value in np.asarray(values, dtype=float).reshape(-1).tolist():
        if not 0.0 <= value <= 1.0:
            return value
    return None


def check_weight(weight) -> None:
    """Raise ValueError naming the first of ``weight``, a number or an
    array of white-noise mixing weights, outside [0, 1]."""
    bad = _outside_unit_interval(weight)
    if bad is not None:
        raise ValueError(f"mixing weight {bad!r} must lie in [0, 1]")


def mix_with_white_noise(rho: np.ndarray, weight: float) -> np.ndarray:
    """Convex mixture weight*rho + (1-weight)*I/dim.

    ``rho`` is one state or a stack (k, dim, dim), each mixed at the one
    weight, and each the doubles of its own call.
    """
    check_weight(weight)
    rho = np.asarray(rho, dtype=complex)
    n = rho.shape[-1]
    w = float(weight)
    return w * rho + (1.0 - w) * np.eye(n, dtype=complex) / n


# flat indices into the 9 x 9 Horodecki matrix of its entries equal to
# upsilon, to (1 + upsilon)/2 and to sqrt(1 - upsilon^2)/2; the rest are 0
_HORODECKI_U = np.ravel_multi_index(
    ((0, 1, 2, 3, 4, 5, 7, 0, 4, 0, 8, 4, 8), (0, 1, 2, 3, 4, 5, 7, 4, 0, 8, 0, 8, 4)), (9, 9)
)
_HORODECKI_CORNER = np.ravel_multi_index(((6, 8), (6, 8)), (9, 9))
_HORODECKI_ROOT = np.ravel_multi_index(((6, 8), (8, 6)), (9, 9))


def horodecki_state(upsilon) -> np.ndarray:
    """The Horodecki 3x3 bound entangled state at parameter upsilon in [0, 1].

    An array of k values gives the stack (k, 9, 9) of their states in one
    broadcast, each the doubles of its own call.
    """
    bad = _outside_unit_interval(upsilon)
    if bad is not None:
        raise ValueError(f"upsilon = {bad!r} must lie in [0, 1]")
    u = np.asarray(upsilon, dtype=float)[..., None]
    m = np.zeros((*u.shape[:-1], 81), dtype=complex)
    m[..., _HORODECKI_U] = u
    m[..., _HORODECKI_CORNER] = (1.0 + u) / 2.0
    m[..., _HORODECKI_ROOT] = np.sqrt(1.0 - u * u) / 2.0
    return (m / (1.0 + 8.0 * u)).reshape(*u.shape[:-1], 9, 9)


def max_entangled(d: int) -> np.ndarray:
    """Amplitudes of sum_i |ii> / sqrt(d) on C^d x C^d."""
    if d < 2:
        raise ValueError("dimension must be at least 2")
    psi = np.zeros(d * d, dtype=complex)
    psi[:: d + 1] = 1.0 / np.sqrt(d)
    return psi


def random_pure(dim_a: int, dim_b: int, seed: int) -> np.ndarray:
    """Seeded random pure state with complex standard-normal amplitudes."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(dim_a * dim_b) + 1j * rng.standard_normal(dim_a * dim_b)
    return z / np.linalg.norm(z)


def random_density(dim: int, rank: int | None = None, seed: int = 0) -> np.ndarray:
    """Seeded random density matrix G G^dag / Tr with G of shape dim x rank."""
    if rank is None:
        rank = dim
    if not 1 <= rank <= dim:
        raise ValueError(f"rank {rank!r} must lie in [1, {dim}]")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def save_state(rho: np.ndarray, path: str | Path) -> None:
    """Write a density matrix as JSON with dim, re and im fields.

    Entries are emitted with 17 significant digits, enough to round-trip
    IEEE doubles exactly.  Anything but one valid square matrix is a
    StateFileError, raised before the file is opened.
    """
    rho = np.asarray(rho, dtype=complex)
    problems = [f"not one matrix (shape {rho.shape})"] if rho.ndim == 3 else validate_density(rho)
    if problems:
        raise StateFileError(
            "refusing to save an invalid density matrix: " + "; ".join(problems)
        )
    n = rho.shape[0]

    # "%.17g" formats a float exactly as f"{x:.17g}", -0.0 and subnormals included
    row_format = "    [" + ", ".join(["%.17g"] * n) + "]"
    # written a row at a time, so no string of the whole file is held
    with Path(path).open("w") as out:
        out.write(f'{{\n  "dim": {n},\n')
        for name, part, close in (("re", rho.real, "  ],\n"), ("im", rho.imag, "  ]\n}\n")):
            out.write(f'  "{name}": [\n')
            for i, row in enumerate(part):
                out.write(row_format % tuple(row.tolist()) + (",\n" if i < n - 1 else "\n"))
            out.write(close)


def load_state(path: str | Path) -> np.ndarray:
    """Read a density matrix written by save_state, as strict JSON (``NaN`` and
    ``Infinity`` literals are invalid), validating all invariants."""
    # imported here, since it loads datetime, zoneinfo, uuid and sysconfig
    # (about 8 ms), which every CLI start would pay at module level
    import orjson

    raw = Path(path).read_bytes()
    # numpy casts a true or false among numbers to a number; either holds a
    # t or an f, which no number or field name does, so others skip that check
    literals = b"t" in raw or b"f" in raw
    try:
        payload = orjson.loads(raw)
    except orjson.JSONDecodeError as exc:
        raise StateFileError(f"{path}: not valid JSON ({exc})") from exc
    del raw
    if not isinstance(payload, dict):
        raise StateFileError(f"{path}: the top level must be an object")
    for key in ("dim", "re", "im"):
        if key not in payload:
            raise StateFileError(f"{path}: missing field {key!r}")
    n = payload["dim"]
    if type(n) is not int:  # a bool is an int to isinstance
        raise StateFileError(f"{path}: dim must be an integer, got {n!r}")
    try:
        if literals and any(type(x) is bool for key in ("re", "im")
                            for x in np.asarray(payload[key], dtype=object).flat):
            raise ValueError
        # popped, so that each parsed list is released as soon as it is an array
        re, im = (np.asarray(payload.pop(key)) for key in ("re", "im"))
        if re.dtype.kind not in "iuf" or im.dtype.kind not in "iuf":
            raise ValueError
    except ValueError:  # a ragged nesting, or an entry that is not a number
        raise StateFileError(f"{path}: re and im must be rectangular arrays of numbers") from None
    if re.shape != (n, n) or im.shape != (n, n):
        raise StateFileError(
            f"{path}: re/im shapes {re.shape}/{im.shape} do not match dim {n}"
        )
    rho = np.empty((n, n), dtype=complex)
    rho.real, rho.imag = re, im
    problems = validate_density(rho)
    if problems:
        raise StateFileError(f"{path}: invalid density matrix: " + "; ".join(problems))
    return rho
