"""Burning one-hub graphs by the residual-forest rule.

A one-hub graph is a hub h with paths (legs) attached and, for ``cycle``
g > 0, a cycle of g vertices through h: paths, spiders, cycles and
t-unicyclic graphs. By the rooted-tree-partition theorem (Bonato, Janssen,
Roshanbin 2016), b(G) <= k iff V(G) is covered by balls of radii k-1, ...,
0, each radius used at most once. Exactly one of those balls, of radius r
and center x, is charged with the hub, and it meets every leg in a prefix:

  * x = h (depth 0) cuts r vertices from every leg;
  * x on leg j at depth 1 <= d <= r cuts d+r from leg j and r-d from every
    other leg; either way x reaches c = r-d past h around the cycle, which
    leaves one cycle path of g-2c-1 vertices;
  * x on the cycle at distance d covers as many (2r+1) cycle vertices as
    the hub but only r-d of each leg, so the hub dominates it.

The other balls only matter inside one leg remainder or the cycle path,
where each is an interval of at most 2s+1 vertices. So b(G) <= k iff some
(r, x) leaves a residual linear forest that intervals of sizes
{2s+1 : s < k, s != r}, each used at most once, can cover. This is also
the minimum of b(T) over the spanning trees T of G (same theorem), the
spiders G less one cycle edge. Each edge-deleted spider's hub part leaves
two cycle suffixes, at least g-2c-1 vertices in all, that the deleted edge
joins in G, and intervals covering the suffixes also cover the joined
path; cutting the cycle path at an interval boundary gives an edge-deleted
spider. Burning linear forests is NP-complete (Bessy et al. 2017);
``burns`` builds one ``intervals_cover`` test per r, which keeps only
failed states (a success ends the call) and recurses one frame per size,
so ``burns`` takes at most ``MAX_ROUNDS`` rounds.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Callable, Iterable, Optional

from .intmath import ceil_sqrt, counting_lower

MAX_ROUNDS = 500  # each cover search recurses once per round; the default frame limit is 1000


def intervals_cover(
    sizes: tuple[int, ...], tick: Optional[Callable[[], None]] = None
) -> Callable[[Iterable[int]], bool]:
    """A test of whether intervals of ``sizes`` cover paths of given orders.

    ``sizes`` must be descending; each size is used at most once, on one
    path. Sizes are assigned largest first to the demands still open, and
    a state (index, sorted demands) fails at once when the sizes left sum
    to less than the demand or when it failed in an earlier call.
    ``tick``, when given, is called once per state visited; whatever it
    raises abandons the test, so a caller bounds the time and the memory
    of the failed states by raising after a number of calls.
    """
    # left[i]: total of sizes[i:]
    left = list(accumulate(reversed(sizes), initial=0))[::-1]
    failed: set[tuple[int, tuple[int, ...]]] = set()

    def rec(i: int, demands: tuple[int, ...]) -> bool:
        if tick is not None:
            tick()
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


def lower_bound(legs: tuple[int, ...], cycle: int = 0) -> int:
    """A lower bound on b of the one-hub graph; exact for a path or a cycle.

    The counting bound counting_lower(n, degree - 2) for the hub's degree,
    len(legs) plus 2 on a cycle, and ``_path_lower``.
    """
    n = max(cycle, 1) + sum(legs)
    extra = max(len(legs) + (2 if cycle else 0) - 2, 0)
    return max(counting_lower(n, extra), _path_lower(legs, cycle))


def _path_lower(legs: tuple[int, ...], cycle: int) -> int:
    """ceil(sqrt) of the isometric path through the two longest of (legs..., g // 2)."""
    a1, a2 = sorted((*legs, cycle // 2, 0), reverse=True)[:2]
    return ceil_sqrt(a1 + a2 + 1)


def burns(
    legs: tuple[int, ...],
    k: int,
    cycle: int = 0,
    tick: Optional[Callable[[], None]] = None,
) -> bool:
    """True iff the one-hub graph with positive ``legs`` burns in at most k rounds.

    ``cycle`` is the length g of the cycle through the hub, 0 for none. A
    graph with a spanning path (a path, or a cycle with at most one leg)
    burns in ceil(sqrt(n)) rounds, and a path or a bare cycle in no fewer,
    so neither needs a search; any other search raises ValueError for k
    above ``MAX_ROUNDS``. ``tick`` goes to every ``intervals_cover`` test.
    """
    n = max(cycle, 1) + sum(legs)
    if len(legs) <= (1 if cycle else 2) and ceil_sqrt(n) <= k:
        return True
    if len(legs) + (2 if cycle else 0) <= 2:
        return False
    if k > MAX_ROUNDS:
        raise ValueError(f"one-hub decision supports at most {MAX_ROUNDS} rounds, got {k}")
    distinct = sorted(set(legs), reverse=True)
    for r in range(k - 1, -1, -1):
        covers = intervals_cover(tuple(2 * s + 1 for s in range(k - 1, -1, -1) if s != r), tick)
        for d in range(r + 1):
            for a in distinct if d else distinct[:1]:
                if a < d:
                    break
                residual = [b - (r - d) for b in legs]
                residual[legs.index(a)] = a - d - r
                # the cycle path; without a cycle it is negative and ignored
                residual.append(cycle - 2 * (r - d) - 1)
                if covers(residual):
                    return True
    return False
