"""Detection-threshold location by bracketed bisection."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class ThresholdResult:
    """Outcome of a threshold search over a mixing parameter.

    ``found`` is False when the margin is not positive at the upper end,
    i.e. nothing on the interval is detected.  When found, ``bracket``
    holds the final interval of width <= tol around the sign change and
    ``margins`` the criterion margins at its two ends.
    """

    found: bool
    threshold: float | None = None
    bracket: tuple[float, float] | None = None
    margins: tuple[float, float] | None = None
    evaluations: int = 0


def find_threshold(
    margin: Callable[[float], float],
    lo: float = 0.0,
    hi: float = 1.0,
    tol: float = 1e-6,
) -> ThresholdResult:
    """Locate where ``margin`` crosses zero on [lo, hi].

    The margin must be non-positive at ``lo``.  If it is positive at
    ``hi``, the bracket is halved, keeping a non-positive margin at its
    lower end and a positive one at its upper end, until its width is at
    most ``tol``; that takes 2 + ceil(log2((hi - lo) / tol)) evaluations.
    For a margin that crosses zero at most once, such as a convex one,
    the bracket encloses that crossing.  ``tol`` must be finite and
    positive.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tolerance must be positive and finite, got {tol!r}")
    a, b = lo, hi
    fa, fb = float(margin(a)), float(margin(b))
    evaluations = 2
    if fa > 0.0:
        raise ValueError(f"margin at lo = {lo!r} is positive ({fa:.3e}); no crossing to bracket")
    if fb <= 0.0:
        return ThresholdResult(found=False, evaluations=evaluations)
    while b - a > tol:
        mid = 0.5 * (a + b)
        fm = float(margin(mid))
        evaluations += 1
        if fm > 0.0:
            b, fb = mid, fm
        else:
            a, fa = mid, fm
    return ThresholdResult(
        found=True,
        threshold=0.5 * (a + b),
        bracket=(a, b),
        margins=(fa, fb),
        evaluations=evaluations,
    )
