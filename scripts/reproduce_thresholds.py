"""Detection thresholds of the noisy Horodecki family at t = 0.01.

For each state parameter upsilon, locate the white-noise weight q at
which the trace-norm criterion starts flagging entanglement, and print
the resulting table together with the criterion margin at q = 1.

Run:  python scripts/reproduce_thresholds.py
"""

import numpy as np

from mumbounds.engine import ThresholdQuery, run_threshold
from mumbounds.criteria import build_correlation_matrix
from mumbounds.states import horodecki_state

UPSILON_GRID = (0.2, 0.4, 0.6, 0.8, 0.9)
T = 0.01


def main() -> None:
    print(f"noisy Horodecki family, t = {T}, separability criterion")
    print(f"{'upsilon':>8}  {'threshold q*':>14}  {'margin at q=1':>14}")
    fam = None
    for upsilon in UPSILON_GRID:
        result, fam = run_threshold(
            ThresholdQuery(
                state_family="horodecki",
                t=T,
                search_variable="q",
                tolerance=1e-7,
                fixed={"upsilon": upsilon},
            )
        )
        margin = (
            build_correlation_matrix(horodecki_state(upsilon), fam).trace_norm
            - 1.0
            - fam.kappa
        )
        q_star = result.threshold if result.found else np.nan
        print(f"{upsilon:>8.1f}  {q_star:>14.6f}  {margin:>14.3e}")
    if fam is not None:
        print(f"\nkappa = {fam.kappa:.12g}, separability threshold = {1 + fam.kappa:.12g}")


if __name__ == "__main__":
    main()
