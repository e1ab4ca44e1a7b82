"""Complete families of mutually unbiased measurements (MUMs).

From a partitioned operator basis, build the d(d+1) traceless building
blocks, the admissible sharpness interval for the parameter t, and the
d+1 POVMs with effects I/d + t*F.  A grid of t values shares one block
array and one interval, built once per basis.  The defining trace
relations and the 2-design property of the effects are verifiable
numerically.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .basis import OperatorBasis, standard_basis
from .config import TOL


def kappa_of_t(d: int, t: float) -> float:
    """Sharpness parameter of the constructed family at a given t.

    Equals 1/d at t = 0, where the effects degenerate to I/d and the
    family is no longer a MUM.
    """
    return 1.0 / d + t * t * (1.0 + np.sqrt(d)) ** 2 * (d - 1)


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

    def contains(self, t: float, slack: float = TOL.t_endpoint_slack) -> bool:
        # relative slack so the exact endpoints are admissible
        lo = self.lower - slack * abs(self.lower)
        hi = self.upper + slack * abs(self.upper)
        return lo <= t <= hi


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


@dataclass(frozen=True)
class MumFamily:
    """d+1 MUMs on C^d built from one operator basis at sharpness t.

    ``f_blocks`` and ``effects`` have shape (d+1, d, d, d), indexed by
    (measurement, outcome); ``kappa`` is stored at construction and
    reused verbatim downstream.  Instances are immutable and safe to
    share across threads.
    """

    d: int
    t: float
    kappa: float
    f_blocks: np.ndarray
    effects: np.ndarray
    t_range: TInterval

    def block_stack(self) -> np.ndarray:
        """Blocks flattened to (d*(d+1), d, d), measurement-major."""
        return self.f_blocks.reshape(-1, self.d, self.d)

    def effect_stack(self) -> np.ndarray:
        """Effects flattened to (d*(d+1), d, d), measurement-major."""
        return self.effects.reshape(-1, self.d, self.d)


class InadmissibleTError(ValueError):
    """A t value outside the admissible interval ``t_range``, or degenerate."""

    def __init__(self, message: str, t_range: TInterval):
        super().__init__(message)
        self.t_range = t_range


def build_mums_grid(basis: OperatorBasis, ts: Sequence[float]) -> list[MumFamily]:
    """Construct the d+1 MUMs of a basis at every t of a grid, in order.

    The blocks and the admissible interval are built once; every family
    shares that one read-only block array and that one interval, and its
    effects are a read-only view of one array for the whole grid.
    Raises InadmissibleTError, a ValueError, for the first t that is
    zero (kappa would equal 1/d) or outside the interval.
    """
    d = basis.d
    blocks = build_f_blocks(basis)
    rng = t_interval(blocks, d)
    ts = [float(t) for t in ts]
    kappas = []
    for t in ts:
        kappa = float(kappa_of_t(d, t))
        if kappa * d <= 1.0:  # t = 0 or below float resolution
            raise InadmissibleTError(
                f"t = {t} gives kappa = 1/d, which is not a mutually unbiased measurement",
                rng,
            )
        if not rng.contains(t):
            raise InadmissibleTError(
                f"t = {t} is outside the admissible interval "
                f"[{rng.lower:.6f}, {rng.upper:.6f}] for this basis",
                rng,
            )
        kappas.append(kappa)
    # elementwise t*F + I/d, the same doubles as one family at a time
    effects = np.array(ts).reshape(-1, 1, 1, 1, 1) * blocks
    effects += np.eye(d, dtype=complex) / d
    effects.setflags(write=False)
    return [
        MumFamily(d=d, t=t, kappa=kappa, f_blocks=blocks, effects=fx, t_range=rng)
        for t, kappa, fx in zip(ts, kappas, effects)
    ]


def build_mums(basis: OperatorBasis, t: float) -> MumFamily:
    """Construct the d+1 MUMs of a basis at sharpness parameter t.

    The one-point grid of ``build_mums_grid``; raises its
    InadmissibleTError when t is zero or outside the interval.
    """
    return build_mums_grid(basis, [t])[0]


def standard_family(d: int, t: float) -> MumFamily:
    """MUMs from the Gell-Mann basis in its fixed partition."""
    return build_mums(standard_basis(d), t)


@dataclass(frozen=True)
class MumRelationReport:
    """Maximum absolute deviations from the MUM defining relations."""

    trace_one: float
    cross_basis: float
    within_basis: float
    completeness: float
    min_effect_eigenvalue: float
    tolerance: float = TOL.mum_relations

    @property
    def passed(self) -> bool:
        return max(self.trace_one, self.cross_basis, self.within_basis) < self.tolerance


def verify_mum_relations(fam: MumFamily) -> MumRelationReport:
    """Check unit traces, 1/d cross overlaps and the kappa overlap pattern.

    Diagnostic only: always returns a report, never raises.
    """
    d = fam.d
    stack = fam.effect_stack()
    traces = np.einsum("rii->r", stack).real
    trace_one = float(np.abs(traces - 1.0).max())

    gram = np.einsum("rij,cji->rc", stack, stack).real
    same = np.kron(np.eye(d + 1, dtype=bool), np.ones((d, d), dtype=bool))
    diag = np.eye(d * (d + 1), dtype=bool)
    expected = np.where(
        diag, fam.kappa, np.where(same, (1.0 - fam.kappa) / (d - 1), 1.0 / d)
    )
    dev = np.abs(gram - expected)
    cross_basis = float(dev[~same].max())
    within_basis = float(dev[same].max())

    completeness = float(
        np.abs(fam.effects.sum(axis=1) - np.eye(d)).max()
    )
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
    f = np.zeros((d * d, d * d))
    for i in range(d):
        for j in range(d):
            f[i * d + j, j * d + i] = 1.0
    return f


def two_design_residual(fam: MumFamily) -> float:
    """Elementwise residual of the effect 2-design identity.

    The sum of P x P over all effects equals
    (1 + (1-kappa)/(d-1)) * I + ((kappa*d - 1)/(d-1)) * SWAP.
    """
    d = fam.d
    stack = fam.effect_stack()
    total = np.einsum("rij,rkl->ikjl", stack, stack).reshape(d * d, d * d)
    expected = (1.0 + (1.0 - fam.kappa) / (d - 1)) * np.eye(d * d) + (
        (fam.kappa * d - 1.0) / (d - 1)
    ) * swap_operator(d)
    return float(np.abs(total - expected).max())


def _complex_to_parts(arr: np.ndarray) -> dict:
    return {"re": arr.real.tolist(), "im": arr.imag.tolist()}


def _parts_to_complex(parts: dict) -> np.ndarray:
    return np.asarray(parts["re"], dtype=float) + 1j * np.asarray(parts["im"], dtype=float)


def save_family(fam: MumFamily, path: str | Path) -> None:
    """Write a family to a JSON file for inspection or reuse.

    Layout: d, t, kappa, t_range, and f_blocks/effects as nested
    [measurement][outcome] real/imag arrays.
    """
    payload = {
        "format": "mum-family",
        "version": 1,
        "d": fam.d,
        "t": fam.t,
        "kappa": fam.kappa,
        "t_range": {"lower": fam.t_range.lower, "upper": fam.t_range.upper},
        "f_blocks": _complex_to_parts(fam.f_blocks),
        "effects": _complex_to_parts(fam.effects),
    }
    Path(path).write_text(json.dumps(payload, indent=1) + "\n")


def load_family(path: str | Path) -> MumFamily:
    """Read a family back from the JSON layout written by save_family."""
    payload = json.loads(Path(path).read_text())
    if payload.get("format") != "mum-family":
        raise ValueError(f"{path}: not a mum-family file")
    d = int(payload["d"])
    blocks = _parts_to_complex(payload["f_blocks"])
    effects = _parts_to_complex(payload["effects"])
    if blocks.shape != (d + 1, d, d, d) or effects.shape != (d + 1, d, d, d):
        raise ValueError(f"{path}: array shapes do not match d = {d}")
    blocks.setflags(write=False)
    effects.setflags(write=False)
    return MumFamily(
        d=d,
        t=float(payload["t"]),
        kappa=float(payload["kappa"]),
        f_blocks=blocks,
        effects=effects,
        t_range=TInterval(**payload["t_range"]),
    )
