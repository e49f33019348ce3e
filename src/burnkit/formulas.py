"""Constant-time burning-number formulas and generic bounds.

Paths and cycles burn in ceil(sqrt(n)) rounds. Linear forests with two or
three components burn in ceil(sqrt(total)) rounds except on finitely
described exception families, where one extra round is needed; those
families are cataloged below. Everything is integer arithmetic: exception
membership reduces to perfect-square tests on the total order plus lookups
in small literal sets.
"""

from __future__ import annotations

from typing import Optional

from .graphs import Graph
from .intmath import ceil_sqrt, counting_lower, is_square

# Pair sets used by the two- and three-component exception families.
D1 = frozenset({(2, 2)})
D2 = frozenset({(3, 2)})
D3 = frozenset({(1, 1), (3, 3), (4, 2), (5, 5)})
D4 = frozenset(
    {
        (2, 1),
        (4, 1),
        (4, 3),
        (4, 4),
        (6, 1),
        (6, 4),
        (6, 5),
        (6, 6),
        (7, 7),
        (8, 4),
        (8, 6),
        (10, 4),
    }
)

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


def two_paths_exceptional(a1: int, a2: int) -> bool:
    """True iff (a1, a2), descending, is (t*t - 2, 2) for an integer t >= 2."""
    return a2 == 2 and a1 + 2 >= 4 and is_square(a1 + 2)


def b_two_paths(a1: int, a2: int) -> int:
    """Burning number of the union of two paths.

    ceil(sqrt(a1 + a2)), plus one extra round exactly on the pairs
    (t*t - 2, 2).
    """
    if a1 < 1 or a2 < 1:
        raise ValueError(f"path orders must be >= 1, got ({a1}, {a2})")
    a1, a2 = max(a1, a2), min(a1, a2)
    total = a1 + a2
    return ceil_sqrt(total) + (1 if two_paths_exceptional(a1, a2) else 0)


def three_paths_exceptional(a1: int, a2: int, a3: int) -> bool:
    """Exception test for three path components (inputs descending).

    The parametric families key on how far the total falls below a perfect
    square t*t (by 3, 2, 1, or 0) combined with membership of the two
    smaller parts in the D-sets; two sporadic catalogs fill in the rest.
    """
    total = a1 + a2 + a3
    pair = (a2, a3)
    if is_square(total + 3) and pair in D1:
        return True
    if is_square(total + 2) and pair in D1 | D2:
        return True
    if is_square(total + 1) and (pair in D1 | D2 | D3 or (a1, a2, a3) == (11, 11, 2)):
        return True
    if is_square(total) and (a3 == 2 or pair in D1 | D2 | D3 | D4):
        return True
    return (a1, a2, a3) in J5


def b_three_paths(a1: int, a2: int, a3: int) -> int:
    """Burning number of the union of three paths."""
    if min(a1, a2, a3) < 1:
        raise ValueError(f"path orders must be >= 1, got ({a1}, {a2}, {a3})")
    a1, a2, a3 = sorted((a1, a2, a3), reverse=True)
    total = a1 + a2 + a3
    return ceil_sqrt(total) + (1 if three_paths_exceptional(a1, a2, a3) else 0)


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

