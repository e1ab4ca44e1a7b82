"""Detection-threshold location by convexity-safe chord/secant bracketing."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class ThresholdResult:
    """Outcome of a threshold search over a mixing parameter.

    ``found`` is False when the margin is not positive at the upper end,
    i.e. nothing on the interval is detected.  When found, ``bracket``
    holds the final interval around the sign change, of width <= tol or
    with no double strictly inside, and ``margins`` the criterion
    margins at its two ends.
    """

    found: bool
    threshold: float | None = None
    bracket: tuple[float, float] | None = None
    margins: tuple[float, float] | None = None
    evaluations: int = 0


def _line_zero(x0: float, f0: float, x1: float, f1: float) -> float:
    """Zero of the line through (x0, f0) and (x1, f1), for f0 != f1."""
    return x1 - f1 * (x1 - x0) / (f1 - f0)


def find_threshold(margin: Callable[[float], float], tol: float = 1e-6) -> ThresholdResult:
    """Locate where ``margin`` crosses zero on [0, 1], the white-noise weights.

    The margin must be non-positive at 0.  If it is positive at 1, the
    bracket [a, b] shrinks, keeping a non-positive margin at a and a
    positive one at b, until its width is at most ``tol`` or no double
    lies strictly inside it, so the final width is at most max(tol, the
    double spacing at the crossing).  ``tol`` must be
    finite and positive, and a NaN margin raises ValueError naming its w.

    The steps rely on a convex margin, such as the trace-norm margin of
    a white-noise mixture, but every point is assigned to an end by the
    sign of its margin, so the bracket is valid for any margin:

    - chord step: the zero of the line through a and b lies at or left
      of the crossing, so it moves a up;
    - secant step: the zero of the rising line through the two most
      recent points on one side of the crossing lies at or right of it,
      so it moves b down;
    - each round takes two steps, each time the one that moves its end
      farther; every step lies inside the bracket, at least tol/4 from
      either end, so a step next to an end within tol/4 of the crossing
      lands across it and closes the bracket;
    - a round that does not halve the bracket is followed by a halving;
    - a step whose margin has the wrong sign, more than tol from the end
      it keeps, is checked by the point tol/2 beyond it: if that margin
      has the expected sign, the two points are the final bracket;
      otherwise the margin is not convex on the bracket, both points
      are dropped and the search finishes by plain halving.

    The white-noise margins of the built-in families and of random
    states take 4 to 7 evaluations at tol 1e-6 or 1e-7.  Any margin
    takes at most 3 + 3 * ceil(log2(1 / tol)): every round costs at most
    three evaluations and halves the bracket, and the one round that
    finds the margin not convex costs four.  For a margin that
    crosses zero at most once, the bracket encloses that crossing.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tolerance must be positive and finite, got {tol!r}")
    evaluations = 0

    def evaluate(w: float) -> float:
        nonlocal evaluations
        evaluations += 1
        value = float(margin(w))
        if math.isnan(value):
            raise ValueError(f"margin at w = {w!r} is NaN")
        return value

    a, b = 0.0, 1.0
    fa, fb = evaluate(a), evaluate(b)
    if fa > 0.0:
        raise ValueError(f"margin at w = 0.0 is positive ({fa:.3e}); no crossing to bracket")
    if fb <= 0.0:
        return ThresholdResult(found=False, evaluations=evaluations)

    prev_a = prev_b = None  # the points a and b last replaced, as (x, margin)
    interpolate = True

    def is_open() -> bool:
        return b - a > tol and math.nextafter(a, b) < b

    def inside(x: float) -> float:
        if not math.isfinite(x):
            x = 0.5 * (a + b)
        x = min(max(x, a + 0.25 * tol), b - 0.25 * tol)
        return min(max(x, math.nextafter(a, b)), math.nextafter(b, a))

    def assign(x: float, fx: float) -> None:
        nonlocal a, fa, b, fb, prev_a, prev_b
        if fx > 0.0:
            prev_b, b, fb = (b, fb), x, fx
        else:
            prev_a, a, fa = (a, fa), x, fx

    def secant_zero() -> float:
        zeros = [math.inf]
        if prev_b is not None and prev_b[1] > fb:
            zeros.append(_line_zero(*prev_b, b, fb))
        if prev_a is not None and prev_a[1] < fa:
            zeros.append(_line_zero(*prev_a, a, fa))
        return min(zeros)

    while is_open():
        width = b - a
        for _ in range(2 if interpolate else 0):
            if not is_open():
                break
            x, detected = inside(_line_zero(a, fa, b, fb)), False
            s = secant_zero()
            if s < b and b - inside(s) > x - a:
                x, detected = inside(s), True
            fx = evaluate(x)
            # on the wrong side, x replaces the other end and ``kept`` stays
            kept = b if detected else a
            y = x + 0.5 * tol if detected else x - 0.5 * tol
            checkable = abs(x - kept) > tol and min(x, kept) < y < max(x, kept)
            if (fx > 0.0) == detected or not checkable:
                assign(x, fx)
                continue
            fy = evaluate(y)
            if (fy > 0.0) == detected:
                assign(x, fx)
                assign(y, fy)
            else:
                interpolate = False
            break
        if is_open() and (not interpolate or b - a > 0.5 * width):
            mid = inside(0.5 * (a + b))
            assign(mid, evaluate(mid))

    return ThresholdResult(
        found=True,
        threshold=0.5 * (a + b),
        bracket=(a, b),
        margins=(fa, fb),
        evaluations=evaluations,
    )
