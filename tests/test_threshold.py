import math

import numpy as np
import pytest

from mumbounds.threshold import find_threshold


def _worst_case(lo, hi, tol):
    """The documented bound on the evaluations of any margin."""
    return 3 + 3 * math.ceil(math.log2((hi - lo) / tol))


def _assert_valid_bracket(result, margin, tol):
    assert result.found
    a, b = result.bracket
    assert 0.0 <= b - a <= tol
    assert result.margins == (margin(a), margin(b))
    assert result.margins[0] <= 0.0 < result.margins[1]


def test_simple_root():
    result = find_threshold(lambda w: w - 0.3, tol=1e-8)
    assert result.found
    assert result.threshold == pytest.approx(0.3, abs=1e-7)
    lo, hi = result.bracket
    assert hi - lo <= 1e-8
    mlo, mhi = result.margins
    assert mlo <= 0.0 < mhi


def test_picks_last_crossing_of_non_monotone_margin():
    # sign pattern -, +, -, + over [0, 1]; the detected side is [w*, 1]
    def margin(w):
        return np.sin(2.5 * np.pi * w - 0.2)

    result = find_threshold(margin, tol=1e-9)
    assert result.found
    assert margin(result.threshold + 1e-6) > 0.0
    assert margin(1.0) > 0.0
    # everything between threshold and 1 stays detected
    assert all(margin(w) > 0 for w in np.linspace(result.threshold + 1e-6, 1.0, 50))


def test_all_negative_reports_not_found():
    # a margin of exactly zero at hi is not a detection either
    for margin in (lambda w: -1.0, lambda w: w - 1.0):
        result = find_threshold(margin, tol=1e-6)
        assert not result.found
        assert result.bracket is None
        assert result.evaluations == 2


def test_positive_margin_at_lo_rejected():
    with pytest.raises(ValueError, match="positive"):
        find_threshold(lambda w: 1.0, tol=1e-6)
    with pytest.raises(ValueError, match="positive"):
        find_threshold(lambda w: w - 0.3, lo=0.5, hi=1.0)


def test_evaluation_count_is_bounded():
    # on a linear margin the chord lands on the crossing up to rounding,
    # here just right of it, and the check point tol/2 to its left closes
    # the bracket: both ends plus two points
    brackets = ((0.0, 1.0, 1e-6), (0.0, 1.0, 1e-7), (0.0, 1.0, 2.0**-10), (-1.0, 3.0, 1e-3))
    for lo, hi, tol in brackets:
        root = lo + 0.3 * (hi - lo)
        result = find_threshold(lambda w, root=root: w - root, lo, hi, tol)
        assert result.found
        assert result.evaluations == 4
        assert result.evaluations <= _worst_case(lo, hi, tol)
        a, b = result.bracket
        assert b - a <= tol
        assert a <= root <= b


def test_steep_convex_margins_are_bracketed():
    # s (w^p - c^p) rises from 0; s (|w - m|^p - |c - m|^p) first falls to m < c
    rng = np.random.default_rng(20)
    counts = []
    for _ in range(300):
        scale = 10.0 ** rng.uniform(-3, 3)
        power = rng.uniform(1.0, 6.0)
        root = rng.uniform(0.001, 0.999)
        tol = 10.0 ** rng.uniform(-10, -2)
        low = rng.uniform(0.0, 0.5) * root
        for bottom in (0.0, low):

            def margin(w, bottom=bottom):
                return scale * (abs(w - bottom) ** power - (root - bottom) ** power)

            result = find_threshold(margin, tol=tol)
            _assert_valid_bracket(result, margin, tol)
            a, b = result.bracket
            # a point within rounding of the crossing may read a zero margin
            assert a - 1e-12 <= root <= b
            assert result.evaluations <= _worst_case(0.0, 1.0, tol)
            counts.append(result.evaluations)
    # plain halving averages about 22 on these tolerances
    assert np.mean(counts) <= 15


def test_non_convex_margins_get_a_valid_bracket():
    rng = np.random.default_rng(21)
    checked = 0
    while checked < 300:
        coefficients = np.poly(rng.uniform(0.0, 1.0, rng.integers(2, 8)))
        coefficients *= rng.choice([-1.0, 1.0])
        tol = 10.0 ** rng.uniform(-10, -2)

        def margin(w):
            return float(np.polyval(coefficients, w))

        if margin(0.0) > 0.0 or margin(1.0) <= 0.0:
            continue
        checked += 1
        result = find_threshold(margin, tol=tol)
        _assert_valid_bracket(result, margin, tol)
        assert result.evaluations <= _worst_case(0.0, 1.0, tol)


def test_tolerance_below_float_resolution_stops_at_adjacent_doubles():
    def margin(w):
        return w - 0.3

    result = find_threshold(margin, tol=1e-300)
    assert result.found
    a, b = result.bracket
    assert b == np.nextafter(a, np.inf)
    assert result.margins == (margin(a), margin(b))
    assert result.margins[0] <= 0.0 < result.margins[1]


def test_parameter_validation():
    for tol in (0.0, -1e-3, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="tolerance must be positive"):
            find_threshold(lambda w: w, tol=tol)


@pytest.mark.parametrize(
    "margin, w",
    [
        (lambda w: math.nan if 0.0 < w < 1.0 else w - 0.5, "0.5"),  # inside the bracket
        (lambda w: math.nan if w == 0.0 else w - 0.5, "0.0"),       # at lo
        (lambda w: math.nan if w == 1.0 else w - 0.5, "1.0"),       # at hi
    ],
    ids=["inside", "lo", "hi"],
)
def test_nan_margin_raises_naming_w(margin, w):
    with pytest.raises(ValueError, match=rf"margin at w = {w} is NaN"):
        find_threshold(margin)
