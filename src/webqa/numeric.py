"""Float sums that give the same bits on every supported Python version.

From Python 3.12 the built-in ``sum()`` compensates rounding when it adds
floats, so its result can differ in the last bits from 3.10 and 3.11.  The
pipeline's artifacts are compared byte for byte, so every float sum that
reaches them goes through :func:`left_sum` instead.
"""
from __future__ import annotations

import operator
from collections.abc import Iterable
from functools import reduce


def left_sum(values: Iterable[float]) -> float:
    """0.0 plus each value in turn, rounded after every addition (``sum()`` before 3.12)."""
    return reduce(operator.add, values, 0.0)
