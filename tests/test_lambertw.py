import math
import sys

import numpy as np
import pytest

from slotpricing import lambert_w0, lambert_w0_derivative

from oracles import lambert_bisect


def test_exact_anchor_points():
    assert lambert_w0(0.0) == 0.0
    assert abs(lambert_w0(math.e) - 1.0) <= 1e-14
    assert lambert_w0(1.0) == pytest.approx(lambert_bisect(1.0), abs=1e-14)
    assert lambert_w0(1.0) == pytest.approx(0.5671432904097838, abs=1e-13)


def test_defining_identity_residual():
    for y in np.logspace(-12, 6, 10_000):
        w = lambert_w0(float(y))
        assert abs(w * math.exp(w) - y) <= 1e-12 * max(1.0, y)


def test_monotone_in_argument():
    rng = np.random.default_rng(2024)
    ys = 10.0 ** rng.uniform(-12, 6, (10_000, 2))
    for y1, y2 in ys:
        lo, hi = sorted((float(y1), float(y2)))
        assert lambert_w0(lo) <= lambert_w0(hi)


def test_midpoint_concavity():
    rng = np.random.default_rng(55)
    for _ in range(2_000):
        a, b = 10.0 ** rng.uniform(-8, 4, 2)
        mid = lambert_w0(0.5 * (a + b))
        assert mid >= 0.5 * (lambert_w0(a) + lambert_w0(b)) - 1e-12


def test_top_of_float_range():
    # w * exp(w) overflows here, so check the log form w + log(w) = log(y)
    for y in (2.7e307, 1e308, sys.float_info.max):
        w = lambert_w0(y)
        assert abs(w + math.log(w) - math.log(y)) <= 2e-15 * math.log(y)
    assert lambert_w0(sys.float_info.max) == pytest.approx(703.2270331047702, rel=1e-15)


def test_argument_types():
    for bad in (True, False, "1.0", None, 1j):
        with pytest.raises(ValueError):
            lambert_w0(bad)
    assert lambert_w0(3) == lambert_w0(3.0)
    assert lambert_w0(np.float64(2.0)) == lambert_w0(2.0)
    assert lambert_w0(0) == 0.0


def test_domain_errors():
    for bad in (-1.0, -1e-300, math.inf, math.nan):
        with pytest.raises(ValueError):
            lambert_w0(bad)
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            lambert_w0_derivative(bad)
    with pytest.raises(ValueError):
        lambert_w0("1.0")


def test_derivative_anchor_values():
    assert lambert_w0_derivative(math.e) == pytest.approx(1.0 / (2.0 * math.e), abs=1e-14)
    w1 = lambert_w0(1.0)
    assert lambert_w0_derivative(1.0) == pytest.approx(w1 / (1.0 + w1), abs=1e-14)
    # slope tends to 1 at the origin
    assert lambert_w0_derivative(1e-8) == pytest.approx(1.0, abs=1e-6)


def test_derivative_at_top_of_float_range():
    # y * (1 + w) overflows here. Since w / y = exp(-w), W'(y) = exp(-w - log1p(w)).
    for y in (1e306, 1e307, sys.float_info.max):
        w = lambert_w0(y)
        assert lambert_w0_derivative(y) == pytest.approx(math.exp(-w - math.log1p(w)), rel=1e-12)


def test_derivative_matches_finite_differences():
    for y in np.logspace(-4, 4, 25):
        y = float(y)
        h = 1e-6 * y
        fd = (lambert_w0(y + h) - lambert_w0(y - h)) / (2.0 * h)
        assert lambert_w0_derivative(y) == pytest.approx(fd, rel=1e-6)
