"""Complete families of mutually unbiased measurements (MUMs).

From a partitioned operator basis, build the d(d+1) traceless building
blocks, the admissible sharpness interval for the parameter t, and the
d+1 POVMs with effects I/d + t*F.  A family is the pair (t, blocks),
with t checked against the blocks' interval when it is built: d,
kappa(t) and the effects are derived from it, never stored.  The
Gell-Mann blocks and interval are built once per dimension and
memoised, so the families of a grid of t values share one block array
and one interval, and a grid of t is checked as one array
(``standard_grid``).  The criteria need only d and t
(``mumbounds.criteria``); the effects are formed for the defining trace
relations and the 2-design property, which are verifiable numerically.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .basis import OperatorBasis, standard_basis
from .config import TOL


def kappa_gap(d: int, t: float) -> float:
    """kappa - 1/d = (1 + sqrt(d))^2 (d - 1) t^2, computed without
    subtracting 1/d from kappa; an array of t gives an array."""
    return t * t * (1.0 + np.sqrt(d)) ** 2 * (d - 1)


def kappa_of_t(d: int, t: float) -> float:
    """Sharpness parameter of the constructed family at a given t.

    Equals 1/d at t = 0, where the effects degenerate to I/d and the
    family is no longer a MUM.  An array of t gives the array of kappa,
    each the double that its t alone gives.
    """
    return 1.0 / d + kappa_gap(d, t)


def optimal_kappa(d: int) -> float:
    """Largest sharpness reachable from the Gell-Mann operator basis."""
    return 1.0 / d + 2.0 / d**2


def build_f_blocks(basis: OperatorBasis) -> np.ndarray:
    """Traceless Hermitian building blocks, shape (d+1, d, d, d).

    In each group the first d-1 blocks are the group sum minus
    (d + sqrt(d)) times one member, and the last block is (1 + sqrt(d))
    times the group sum; the d blocks of a group sum to zero.
    """
    d = basis.d
    group_sum = basis.groups.sum(axis=1)
    blocks = np.empty((d + 1, d, d, d), dtype=complex)
    blocks[:, : d - 1] = group_sum[:, None, :, :] - (d + np.sqrt(d)) * basis.groups
    blocks[:, d - 1] = (1.0 + np.sqrt(d)) * group_sum
    blocks.setflags(write=False)
    return blocks


@dataclass(frozen=True)
class TInterval:
    """Closed interval of t values keeping all effects positive."""

    lower: float
    upper: float

    def contains(self, t: float) -> bool:
        """Whether t lies in the interval; an array of t gives an array."""
        slack = TOL.t_endpoint_slack  # relative, so the exact endpoints are admissible
        lo = self.lower - slack * abs(self.lower)
        hi = self.upper + slack * abs(self.upper)
        return (lo <= t) & (t <= hi)


def t_interval(blocks: np.ndarray, d: int) -> TInterval:
    """Admissible t range from the extremal eigenvalues of all blocks."""
    eigs = np.linalg.eigvalsh(blocks.reshape(-1, d, d))
    lam_max = float(eigs.max())
    lam_min = float(eigs.min())
    if lam_max <= 0.0 or lam_min >= 0.0:
        raise ValueError(
            "building blocks must have both positive and negative eigenvalues "
            f"(got extremes {lam_min:.3e}, {lam_max:.3e})"
        )
    return TInterval(lower=-1.0 / (d * lam_max), upper=1.0 / (d * abs(lam_min)))


@dataclass(frozen=True, eq=False)
class MumFamily:
    """d+1 MUMs on C^d at sharpness t, fixed by t and the building blocks.

    ``f_blocks`` has shape (d+1, d, d, d), indexed by (measurement,
    outcome), and t lies in their admissible interval (``t_interval``);
    ``d``, ``kappa`` and the effects I/d + t*F follow from them and are
    read-only properties.  Instances are immutable, safe to share across
    threads, and compare and hash by identity.
    """

    t: float
    f_blocks: np.ndarray

    @property
    def d(self) -> int:
        return self.f_blocks.shape[-1]

    @property
    def kappa(self) -> float:
        return float(kappa_of_t(self.d, self.t))

    @property
    def effects(self) -> np.ndarray:
        """The effects I/d + t*F, shape (d+1, d, d, d), a new read-only array."""
        effects = self.t * self.f_blocks
        effects += np.eye(self.d, dtype=complex) / self.d
        effects.setflags(write=False)
        return effects

    def effect_stack(self) -> np.ndarray:
        """Effects flattened to (d*(d+1), d, d), measurement-major."""
        return self.effects.reshape(-1, self.d, self.d)


class InadmissibleTError(ValueError):
    """A t value outside the admissible interval of its blocks, or degenerate."""


# Smallest kappa d - 1 = d kappa_gap, which scales the excess: its rounding,
# eps times it, stays a normal double (|t| > 1.5e-147 at d = 3)
_GAP_FLOOR = np.finfo(float).tiny / np.finfo(float).eps


def _family(t: float, blocks: np.ndarray, rng: TInterval) -> MumFamily:
    """The family of blocks at t; InadmissibleTError unless t is in rng and
    kappa d - 1 exceeds ``_GAP_FLOOR``."""
    d = blocks.shape[-1]
    if d * kappa_gap(d, t) <= _GAP_FLOOR:  # t = 0 or below the floor
        raise InadmissibleTError(
            f"t = {t} gives kappa = 1/d, which is not a mutually unbiased measurement"
        )
    if not rng.contains(t):
        raise InadmissibleTError(
            f"t = {t} is outside the admissible interval "
            f"[{rng.lower:.6f}, {rng.upper:.6f}] for this basis"
        )
    return MumFamily(t=t, f_blocks=blocks)


def build_mums(basis: OperatorBasis, t: float) -> MumFamily:
    """Construct the d+1 MUMs of a basis at sharpness parameter t.

    Builds the blocks and their admissible interval.  Raises
    InadmissibleTError, a ValueError, when t is zero (kappa would equal
    1/d) or outside the interval.
    """
    blocks = build_f_blocks(basis)
    return _family(float(t), blocks, t_interval(blocks, basis.d))


@functools.lru_cache(maxsize=4)
def _standard_blocks(d: int) -> tuple[np.ndarray, TInterval]:
    """Blocks and interval of the Gell-Mann basis at d, built once per d.

    The blocks are read-only and the interval is frozen, so every caller
    may share them.  Four dimensions are kept (a d = 16 entry is 1.1 MB).
    """
    blocks = build_f_blocks(standard_basis(d))
    return blocks, t_interval(blocks, d)


def standard_t_range(d: int) -> TInterval:
    """Admissible t interval of the Gell-Mann basis at d (memoised per d)."""
    return _standard_blocks(d)[1]


def standard_family(d: int, t: float) -> MumFamily:
    """MUMs from the Gell-Mann basis in its fixed partition.

    Every family of one d shares the memoised block array and interval,
    so ``[standard_family(d, t) for t in ts]`` is a grid of families.
    Raises InadmissibleTError like ``build_mums``.
    """
    return _family(float(t), *_standard_blocks(d))


def standard_grid(d: int, ts) -> np.ndarray:
    """``ts`` as a float array, checked as one array without a family per
    t: the first t that fails raises the InadmissibleTError that
    ``standard_family(d, t)`` gives for it."""
    blocks, rng = _standard_blocks(d)
    ts = np.asarray(ts, dtype=float)
    admissible = (d * kappa_gap(d, ts) > _GAP_FLOOR) & rng.contains(ts)
    if not admissible.all():
        _family(float(ts[np.argmin(admissible)]), blocks, rng)  # raises for that t
    return ts


@dataclass(frozen=True)
class MumRelationReport:
    """Maximum absolute deviations from the MUM defining relations.

    ``passed`` tests the trace and Gram relations against
    ``TOL.mum_relations``: those force each measurement to sum to I, so
    ``completeness`` is a diagnostic.
    """

    trace_one: float
    cross_basis: float
    within_basis: float
    completeness: float
    min_effect_eigenvalue: float

    @property
    def passed(self) -> bool:
        return max(self.trace_one, self.cross_basis, self.within_basis) < TOL.mum_relations


def verify_mum_relations(fam: MumFamily) -> MumRelationReport:
    """Check unit traces, 1/d cross overlaps and the kappa overlap pattern.

    Diagnostic only: always returns a report, never raises.
    """
    d = fam.d
    stack = fam.effect_stack()
    traces = np.einsum("rii->r", stack).real
    trace_one = float(np.abs(traces - 1.0).max())

    flat = stack.reshape(len(stack), d * d)
    gram = (flat @ stack.transpose(0, 2, 1).reshape(len(stack), d * d).T).real  # Tr(P_r P_c)
    same = np.kron(np.eye(d + 1, dtype=bool), np.ones((d, d), dtype=bool))
    diag = np.eye(d * (d + 1), dtype=bool)
    expected = np.where(
        diag, fam.kappa, np.where(same, (1.0 - fam.kappa) / (d - 1), 1.0 / d)
    )
    dev = np.abs(gram - expected)
    cross_basis = float(dev[~same].max())
    within_basis = float(dev[same].max())

    completeness = float(np.abs(stack.reshape(d + 1, d, d, d).sum(axis=1) - np.eye(d)).max())
    min_eig = float(np.linalg.eigvalsh(stack).min())
    return MumRelationReport(
        trace_one=trace_one,
        cross_basis=cross_basis,
        within_basis=within_basis,
        completeness=completeness,
        min_effect_eigenvalue=min_eig,
    )


def swap_operator(d: int) -> np.ndarray:
    """The d^2 x d^2 operator exchanging the two tensor factors."""
    return np.eye(d * d).reshape(d, d, d, d).transpose(0, 1, 3, 2).reshape(d * d, d * d)


def two_design_residual(fam: MumFamily) -> float:
    """Elementwise residual of the effect 2-design identity.

    The sum of P x P over all effects equals
    (1 + (1-kappa)/(d-1)) * I + ((kappa*d - 1)/(d-1)) * SWAP.
    """
    d = fam.d
    flat = fam.effect_stack().reshape(-1, d * d)
    total = (flat.T @ flat).reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)
    expected = (1.0 + (1.0 - fam.kappa) / (d - 1)) * np.eye(d * d) + (
        (fam.kappa * d - 1.0) / (d - 1)
    ) * swap_operator(d)
    return float(np.abs(total - expected).max())
