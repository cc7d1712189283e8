import math
import sys

import numpy as np
import pytest

from slotpricing import lambert_w0

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
    with pytest.raises(ValueError):
        lambert_w0("1.0")

