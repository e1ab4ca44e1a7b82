"""Central numerical tolerance policy.

Every cutoff the package compares against lives in one frozen record so
that criterion verdicts, which are tolerance-sensitive, are reportable
and reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    basis_orthonormality: float = 1e-12
    state_normalization: float = 1e-8   # pure-state inputs rejected beyond this
    density_hermiticity: float = 1e-12
    density_trace: float = 1e-12
    density_psd: float = 1e-10          # min eigenvalue >= -density_psd
    correlation_input: float = 1e-9     # density checks at the correlation front door
    correlation_imaginary: float = 1e-10  # largest imaginary part of a correlation entry
    schmidt_rank: float = 1e-9          # singular values above this count toward rank
    mum_relations: float = 1e-9
    completeness: float = 1e-10
    kappa_match: float = 1e-12
    verdict: float = 1e-9               # margin on trace norm vs 1 + kappa
    t_endpoint_slack: float = 1e-12     # relative slack admitting interval endpoints


TOL = Tolerances()
