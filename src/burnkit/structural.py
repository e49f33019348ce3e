"""Burning paths and spiders by the one-hub residual-forest rule.

A spider is a hub with paths (legs) attached; with at most two legs it is
a path. By the rooted-tree-partition theorem (Bonato, Janssen, Roshanbin
2016), b(G) <= k iff V(G) is covered by balls of radii k-1, ..., 0, each
radius used at most once. Exactly one of those balls, of radius r and
center x, is charged with the hub, and it meets every leg in a prefix:

  * x = h cuts r vertices from every leg;
  * x on leg j at depth 1 <= d <= r cuts d+r from leg j and r-d from every
    other leg.

The other balls only matter inside one leg's remainder, where each is an
interval of at most 2s+1 vertices. So b(G) <= k iff some (r, x) leaves a
residual linear forest that intervals of sizes {2s+1 : s < k, s != r},
each used at most once, can cover (``intervals_cover``). Burning linear
forests is NP-complete (Bessy et al. 2017); the interval step is a
memoised search with a sum cut, fast at the orders the sweeps reach.
"""

from __future__ import annotations

from itertools import accumulate

from .intmath import ceil_sqrt, counting_lower


def intervals_cover(parts: tuple[int, ...], sizes: tuple[int, ...]) -> bool:
    """True iff paths of orders ``parts`` are covered by intervals of ``sizes``.

    ``sizes`` must be descending; each size is used at most once, on one
    path. Sizes are assigned largest first to the demands still open, and
    a state (index, sorted demands) fails at once when the sizes left sum
    to less than the demand.
    """
    memo: dict[tuple[int, tuple[int, ...]], bool] = {}
    # left[i]: total of sizes[i:]
    left = list(accumulate(reversed(sizes), initial=0))[::-1]

    def rec(i: int, demands: tuple[int, ...]) -> bool:
        if not demands:
            return True
        if left[i] < sum(demands):
            return False
        key = (i, demands)
        if key not in memo:
            size = sizes[i]
            # using a size never hurts, so skipping it is never needed;
            # equal demands are interchangeable, so each value is tried once
            memo[key] = any(
                rec(i + 1, _assign(demands, j, size))
                for j, d in enumerate(demands)
                if j == 0 or d != demands[j - 1]
            )
        return memo[key]

    return rec(0, tuple(sorted((p for p in parts if p > 0), reverse=True)))


def _assign(demands: tuple[int, ...], j: int, size: int) -> tuple[int, ...]:
    """``demands`` with demand j reduced by ``size``, still sorted descending."""
    rest = demands[:j] + demands[j + 1:]
    remainder = demands[j] - size
    if remainder <= 0:
        return rest
    return tuple(sorted((*rest, remainder), reverse=True))


def lower_bound(legs: tuple[int, ...]) -> int:
    """A lower bound on b of the spider with positive ``legs``; exact for a path.

    The branch-vertex counting bound counting_lower(n, legs - 2), and the
    path through the two longest legs, a geodesic of L1 + L2 + 1 vertices.
    """
    n = 1 + sum(legs)
    if len(legs) <= 2:
        return ceil_sqrt(n)
    longest = sorted(legs, reverse=True)
    return max(counting_lower(n, len(legs) - 2), ceil_sqrt(longest[0] + longest[1] + 1))


def burns(legs: tuple[int, ...], k: int) -> bool:
    """True iff the spider with positive ``legs`` burns in at most k rounds.

    With at most two legs the spider is a path of n vertices, which burns
    in ceil(sqrt(n)) rounds.
    """
    if len(legs) <= 2:
        return ceil_sqrt(1 + sum(legs)) <= k
    distinct = sorted(set(legs), reverse=True)
    for r in range(k - 1, -1, -1):
        sizes = tuple(2 * s + 1 for s in range(k - 1, -1, -1) if s != r)
        if intervals_cover(tuple(a - r for a in legs), sizes):
            return True
        for d in range(1, r + 1):
            for a in distinct:
                if a < d:
                    break
                residual = [b - (r - d) for b in legs]
                residual[legs.index(a)] = a - d - r
                if intervals_cover(tuple(residual), sizes):
                    return True
    return False
