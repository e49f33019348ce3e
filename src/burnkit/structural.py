"""Burning paths and spiders by the one-hub residual-forest rule.

A spider is a hub with paths (legs) attached; with at most two legs it is
a path. By the rooted-tree-partition theorem (Bonato, Janssen, Roshanbin
2016), b(G) <= k iff V(G) is covered by balls of radii k-1, ..., 0, each
radius used at most once. Exactly one of those balls, of radius r and
center x, is charged with the hub, and it meets every leg in a prefix:

  * x = h (depth 0) cuts r vertices from every leg;
  * x on leg j at depth 1 <= d <= r cuts d+r from leg j and r-d from every
    other leg.

The other balls only matter inside one leg's remainder, where each is an
interval of at most 2s+1 vertices. So b(G) <= k iff some (r, x) leaves a
residual linear forest that intervals of sizes {2s+1 : s < k, s != r},
each used at most once, can cover. Burning linear forests is NP-complete
(Bessy et al. 2017); ``burns`` builds one ``intervals_cover`` test per r,
which keeps only failed states (a success ends the call) and recurses one
frame per size, so ``burns`` takes at most ``MAX_ROUNDS`` rounds.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Callable, Iterable

from .intmath import ceil_sqrt, counting_lower

MAX_ROUNDS = 500  # each cover search recurses once per round; the default frame limit is 1000


def intervals_cover(sizes: tuple[int, ...]) -> Callable[[Iterable[int]], bool]:
    """A test of whether intervals of ``sizes`` cover paths of given orders.

    ``sizes`` must be descending; each size is used at most once, on one
    path. Sizes are assigned largest first to the demands still open, and
    a state (index, sorted demands) fails at once when the sizes left sum
    to less than the demand or when it failed in an earlier call.
    """
    # left[i]: total of sizes[i:]
    left = list(accumulate(reversed(sizes), initial=0))[::-1]
    failed: set[tuple[int, tuple[int, ...]]] = set()

    def rec(i: int, demands: tuple[int, ...]) -> bool:
        if not demands:
            return True
        if left[i] < sum(demands) or (i, demands) in failed:
            return False
        # using a size never hurts, so skipping it is never needed;
        # equal demands are interchangeable, so each value is tried once
        for j, d in enumerate(demands):
            if (j == 0 or d != demands[j - 1]) and rec(i + 1, _assign(demands, j, sizes[i])):
                return True
        failed.add((i, demands))
        return False

    return lambda parts: rec(0, tuple(sorted((p for p in parts if p > 0), reverse=True)))


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

    A spider with at most two legs is a path, which burns in ceil(sqrt(n))
    rounds; any other raises ValueError for k above ``MAX_ROUNDS``.
    """
    if len(legs) <= 2:
        return ceil_sqrt(1 + sum(legs)) <= k
    if k > MAX_ROUNDS:
        raise ValueError(f"spider decision supports at most {MAX_ROUNDS} rounds, got {k}")
    distinct = sorted(set(legs), reverse=True)
    for r in range(k - 1, -1, -1):
        covers = intervals_cover(tuple(2 * s + 1 for s in range(k - 1, -1, -1) if s != r))
        for d in range(r + 1):
            for a in distinct if d else distinct[:1]:
                if a < d:
                    break
                residual = [b - (r - d) for b in legs]
                residual[legs.index(a)] = a - d - r
                if covers(residual):
                    return True
    return False
