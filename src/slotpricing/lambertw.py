"""Principal-branch Lambert W on the non-negative reals.

This is the numeric kernel behind the closed-form price formulas: the value
``w = lambert_w0(y)`` satisfies ``w * exp(w) == y`` to within
``1e-12 * max(1, y)``. It works in log space, on the Wright omega form
``w + log(w) = log(y)`` (Corless and Jeffrey, "The Wright omega function",
2002), so no intermediate overflows anywhere up to ``sys.float_info.max``.
"""

from __future__ import annotations

import math
from math import log, log1p


def lambert_w0(y: float) -> float:
    """The unique w >= 0 with ``w * exp(w) = y``, for finite y >= 0.

    Halley's iteration on ``f(w) = w + log(w) - log(y)``, started at
    ``log1p(y)`` when ``log(y) <= 1`` and at ``x - log(x)`` with
    ``x = log(y)`` above. Three steps bring every start to within 1e-14
    relative of the root, so they are written out with no stopping test.
    The step ``f * w / ((1 + w) + f / (2 * (1 + w)))`` has no ``exp``.
    """
    if type(y) is not float:
        if isinstance(y, bool) or not isinstance(y, (int, float)):
            raise ValueError("lambert_w0 expects a real number")
        y = float(y)
    if not 0.0 < y < math.inf:
        if y == 0.0:
            return 0.0
        raise ValueError(f"lambert_w0 requires a finite argument >= 0, got {y}")
    x = log(y)
    w = log1p(y) if x <= 1.0 else x - log(x)
    f = w + log(w) - x
    w -= f * w / (1.0 + w + f / (2.0 + 2.0 * w))
    f = w + log(w) - x
    w -= f * w / (1.0 + w + f / (2.0 + 2.0 * w))
    f = w + log(w) - x
    w -= f * w / (1.0 + w + f / (2.0 + 2.0 * w))
    return w

