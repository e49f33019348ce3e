"""Exact integer arithmetic helpers.

Everything here is float-free: ceiling-of-square-root is the classic
off-by-one trap when done through ``math.sqrt``, so callers go through
these helpers instead. The O(1) evaluators in ``tables`` and ``formulas``
are the exception: on arguments they have already validated they call
``math.isqrt`` once themselves, which is what ``ceil_sqrt`` would do
without its checks and its extra call.
"""

import math


def ceil_sqrt(n: int) -> int:
    """Smallest integer s with s*s >= n (n must be nonnegative)."""
    if n < 0:
        raise ValueError(f"ceil_sqrt of negative number: {n}")
    if n == 0:
        return 0
    return math.isqrt(n - 1) + 1


def ceil_div(a: int, b: int) -> int:
    """Ceiling of a/b for positive b."""
    return -(-a // b)


def counting_lower(n: int, t: int) -> int:
    """Least integer k with k*k + t*(k-1) >= n, for n >= 1 and t >= 0.

    k*k + t*(k-1) >= n is (2k + t)^2 >= 4n + t^2 + 4t, so k is
    ceil((ceil_sqrt(4n + t^2 + 4t) - t) / 2).
    """
    return ceil_div(ceil_sqrt(4 * n + t * t + 4 * t) - t, 2)
