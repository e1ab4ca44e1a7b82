import math

import numpy as np
import pytest

from mumbounds.threshold import find_threshold


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
    brackets = ((0.0, 1.0, 1e-6), (0.0, 1.0, 1e-7), (0.0, 1.0, 2.0**-10), (-1.0, 3.0, 1e-3))
    for lo, hi, tol in brackets:
        root = lo + 0.3 * (hi - lo)
        result = find_threshold(lambda w, root=root: w - root, lo, hi, tol)
        assert result.found
        assert result.evaluations == 2 + math.ceil(math.log2((hi - lo) / tol))
        a, b = result.bracket
        assert b - a <= tol
        assert a <= root <= b


def test_parameter_validation():
    for tol in (0.0, -1e-3, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="tolerance must be positive"):
            find_threshold(lambda w: w, tol=tol)
