"""Constant-time burning-number formulas and generic bounds.

Paths and cycles burn in ceil(sqrt(n)) rounds. Linear forests with two or
three components burn in t = ceil(sqrt(total)) rounds except on finitely
described exception families, where one extra round is needed. Everything
is integer arithmetic: the exception test computes the deficit t*t - total
once and compares it with the level of the two smaller parts in one small
literal table, ``SLACK``, plus a sporadic catalog.

Both formulas read t with one ``isqrt(total - 1)``. ``b_two_paths`` tests
its one exception, deficit 0 with a part of order 2, directly. No
exception has a deficit above ``MAX_DEFICIT`` = 3, the largest ``SLACK``
level. ``b_three_paths`` compares the deficit with that bound inline, so
a query further below the next square answers ceil(sqrt(total)) without
building or sorting a parts tuple; only the others reach the exact test,
``deficit_exceptional``.
"""

from __future__ import annotations

from math import isqrt
from typing import Optional

from .graphs import Graph
from .intmath import ceil_sqrt, counting_lower

# The paper's nested pair sets D1, D1|D2, D1|D2|D3 and D1|D2|D3|D4 make a
# three-path forest (a1, a2, a3) exceptional at deficits 3, 2, 1 and 0.
# Each tail pair (a2, a3) is listed once, with the largest deficit it allows.
SLACK = {
    (2, 2): 3,  # D1
    (3, 2): 2,  # D2
    (1, 1): 1, (3, 3): 1, (4, 2): 1, (5, 5): 1,  # D3
    (2, 1): 0, (4, 1): 0, (4, 3): 0, (4, 4): 0, (6, 1): 0, (6, 4): 0,  # D4
    (6, 5): 0, (6, 6): 0, (7, 7): 0, (8, 4): 0, (8, 6): 0, (10, 4): 0,
}

# Sporadic three-component exceptions with no parametric description.
J5 = frozenset(
    {
        (13, 11, 1),
        (11, 11, 3),
        (22, 13, 1),
        (19, 13, 4),
        (17, 13, 6),
        (15, 13, 8),
        (13, 13, 10),
        (17, 15, 4),
        (15, 15, 6),
        (30, 15, 4),
        (28, 15, 6),
        (26, 15, 8),
        (19, 15, 15),
        (28, 17, 4),
        (26, 17, 6),
        (17, 17, 15),
        (26, 19, 4),
        (43, 17, 4),
        (41, 17, 6),
        (30, 17, 17),
        (41, 19, 4),
        (30, 30, 4),
        (58, 19, 4),
    }
)

# The three-path exceptions that no deficit level gives: J5 and (11, 11, 2).
SPORADIC = J5 | {(11, 11, 2)}

# The bound of the pre-test, derived from the catalogs: no exception has a
# larger deficit, whether it comes from the (t*t - 2, 2) family (deficit 0),
# a SLACK level or a sporadic triple.
MAX_DEFICIT = max(
    0, *SLACK.values(), *(ceil_sqrt(sum(parts)) ** 2 - sum(parts) for parts in SPORADIC)
)


def b_path(n: int) -> int:
    """Burning number of the n-vertex path: ceil(sqrt(n))."""
    if n < 1:
        raise ValueError(f"path order must be >= 1, got {n}")
    return ceil_sqrt(n)


def b_cycle(n: int) -> int:
    """Burning number of the n-vertex cycle: ceil(sqrt(n))."""
    if n < 3:
        raise ValueError(f"cycle order must be >= 3, got {n}")
    return ceil_sqrt(n)


def forest_exceptional(parts: tuple[int, ...]) -> bool:
    """True iff the linear forest with descending positive ``parts`` (two or
    three of them) needs ceil(sqrt(total)) + 1 rounds.

    With t = ceil(sqrt(total)) and deficit t*t - total, the forest is
    exceptional when the deficit is 0 and the smallest part is 2 (for two
    parts, exactly the pairs (t*t - 2, 2)), or, with three parts, when the
    deficit is at most ``SLACK`` of (a2, a3) or the triple is in ``J5`` or
    is (11, 11, 2).
    """
    return deficit_exceptional(parts, ceil_sqrt(sum(parts)))


def deficit_exceptional(parts: tuple[int, ...], t: int) -> bool:
    """:func:`forest_exceptional` given t = ceil(sqrt(sum(parts)))."""
    deficit = t * t - sum(parts)
    if deficit == 0 and parts[-1] == 2:
        return True
    if len(parts) == 2:
        return False
    return deficit <= SLACK.get(parts[1:], -1) or parts in SPORADIC


def b_two_paths(a1: int, a2: int) -> int:
    """Burning number of the union of two paths.

    t = ceil(sqrt(a1 + a2)), plus one extra round exactly on the pairs
    (t*t - 2, 2): the total is t*t and the smaller path has order 2.
    """
    if a1 < 1 or a2 < 1:
        raise ValueError(f"path orders must be >= 1, got ({a1}, {a2})")
    total = a1 + a2
    t = isqrt(total - 1) + 1
    # at total t*t >= 4 a part of order 2 leaves the other at least 2
    return t + 1 if (a1 == 2 or a2 == 2) and total == t * t else t


def b_three_paths(a1: int, a2: int, a3: int) -> int:
    """Burning number of the union of three paths.

    t = ceil(sqrt(a1 + a2 + a3)), plus one extra round when the forest is
    exceptional; a total more than ``MAX_DEFICIT`` below t*t never is.
    """
    if a1 < 1 or a2 < 1 or a3 < 1:
        raise ValueError(f"path orders must be >= 1, got ({a1}, {a2}, {a3})")
    total = a1 + a2 + a3
    t = isqrt(total - 1) + 1
    if t * t - total <= MAX_DEFICIT and deficit_exceptional(
        tuple(sorted((a1, a2, a3), reverse=True)), t
    ):
        return t + 1
    return t


def b2_by_degree(g: Graph) -> Optional[int]:
    """Degree criterion: b = 2 iff n >= 2 and max degree >= n - 2.

    Returns 2 when the criterion holds, 1 for the single-vertex graph,
    and None when the burning number is not determined by degrees.
    """
    n = g.vertex_count
    if n == 1:
        return 1
    if n >= 2 and n - 2 <= g.max_degree() <= n - 1:
        return 2
    return None


def t_unicyclic_bounds(n: int, t: int) -> tuple[int, int]:
    """Bound sandwich for a unicyclic graph with t arms at one vertex.

    lower = ceil(sqrt(n + (t^2+4t)/4) - t/2), evaluated exactly as the
    least integer m with m^2 + t(m-1) >= n (the counting bound the exact
    solver uses for one branch vertex); upper = ceil(sqrt(n)).
    """
    if t < 0 or n < 3 + t:
        raise ValueError(f"need t >= 0 and n >= 3 + t, got (n={n}, t={t})")
    return counting_lower(n, t), ceil_sqrt(n)

