"""Detection thresholds of the noisy Horodecki family at t = 0.01.

For each state parameter upsilon, locate the white-noise weight q at
which the trace-norm criterion starts flagging entanglement, and print
the resulting table together with the criterion margin at q = 1, the
excess of the trace norm over 1 + kappa.

Run:  python scripts/reproduce_thresholds.py
"""

import numpy as np

from mumbounds.criteria import white_noise_margin
from mumbounds.engine import ThresholdQuery, make_state, run_threshold

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
        # make_state checks the state, which white_noise_margin takes as checked
        rho, _ = make_state("horodecki", None, {"upsilon": upsilon})
        margin = white_noise_margin(rho, fam.d, fam.t)(1.0)
        q_star = result.threshold if result.found else np.nan
        print(f"{upsilon:>8.1f}  {q_star:>14.6f}  {margin:>14.3e}")
    if fam is not None:
        print(f"\nkappa = {fam.kappa:.12g}, separability threshold = {1 + fam.kappa:.12g}")


if __name__ == "__main__":
    main()
