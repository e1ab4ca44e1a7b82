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
    density_hermiticity: float = 1e-12  # the one density check of every state
    density_trace: float = 1e-12
    density_psd: float = 1e-10          # min eigenvalue >= -density_psd
    purity: float = 1e-14               # |1 - Tr rho^2| <= purity: the pure closed forms
    mum_relations: float = 1e-9
    kappa_match: float = 1e-12          # kappa of the two families of a correlation matrix
    verdict: float = 1e-9               # entangled: excess over 1 + kappa > verdict*(kappa d - 1)
    t_endpoint_slack: float = 1e-12     # relative slack admitting interval endpoints


TOL = Tolerances()
