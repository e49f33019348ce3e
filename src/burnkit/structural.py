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
spider.

Burning linear forests is NP-complete (Bessy et al. 2017), so the deciders
count before they search. The other intervals hold k^2 - (2r+1) vertices
(their room), and a ball of radius r holds the hub and at most r vertices
along each of the t legs and each way round the cycle. ``hub_cover``
skips a radius r when n - 1 - (t + 2[g > 0])r exceeds the room, and a
placement (r, x) when its positive residual parts sum to more than the
room, before any residual is built: it reads that sum off the legs,
sorted once per call, in O(log t). It builds the ``assign_intervals``
test of a radius once a placement passes, and tries it on every placement
that passes. That test cuts its states by count, sum and fast success,
and its root state by a subset-sum waste bound (all listed in its
docstring), and keeps only failed states (a success ends the call). It
keeps its open states on an explicit stack, one entry per size, not in
Python frames, so the deciders take any number of rounds. The test holds
its state in the slots of one object, not in a closure that refers to
itself, so it forms no reference cycle and is freed by reference counting
when the decider returns. Every cut drops only what holds no cover, and
fast success takes the branch the search takes first, so each decider
finds the cover a search without the cuts finds first. A ``tick`` given
to a decider is called once per interval-cover state and once per radius
or placement the arithmetic rejects; whatever it raises abandons the
decision, so a caller bounds the time and the memory of every decision by
raising after a number of calls.

Each decider returns the cover behind a yes, not just the yes:
``assign_intervals`` the sizes it laid on each path, and ``hub_cover``
and ``forest_cover`` the centers of the balls as positions along the
graph's walks (``Cover``), which the solver turns into a certificate.

``levels`` is the one entry on a shape: given the integers alone (arm
lengths and a cycle length, or path orders), it returns the level to
deepen from and the decider of each level, ``lower_bound`` and
``hub_cover`` on a one-hub graph, the counting start and ``forest_cover``
on a linear forest. It decides nothing itself, so a caller deepens one
level at a time and may weigh each level's ticks; no graph is needed.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import reduce
from heapq import heappop, heappush
from itertools import accumulate
from typing import Callable, Optional, Sequence

from .intmath import ceil_sqrt, counting_lower


def assign_intervals(
    sizes: tuple[int, ...], tick: Optional[Callable[[], None]] = None
) -> Callable[[Sequence[int]], Optional[list[list[int]]]]:
    """A cover of paths of given orders by intervals of ``sizes``, or None.

    ``sizes`` must be descending; each size is used at most once, on one
    path. The returned function maps the path orders to the sizes placed
    on each path, in the order given (none on a path of order 0 or less),
    or to None when no cover exists. Sizes are assigned largest first to
    the demands still open. A state (index i, sorted demands) is cut
    before it branches:

      * count: each open demand needs a size of its own, so it fails when
        more demands are open than sizes are left;
      * sum: it fails when the sizes left sum to less than the demands;
      * fast success: when each of the next m sizes is at least the
        largest of the m open demands, giving them out in order closes
        every demand, and that is the branch the search takes first;
      * memo: it fails when it failed in an earlier call of the function;
      * waste, at the root state only: the sizes a demand d gets sum to
        at least d plus its least overhang, the lowest set bit of
        reach >> d, where reach has bit s set iff some subset of sizes
        sums to s. Overhangs and unused sizes make up the slack (sizes
        minus the demands), so the state fails when the least overhangs
        sum to more than the slack. The test runs only while the slack is
        below the number of open demands; reach is built on its first run
        and kept.

    The other cuts drop only states without a cover, and fast success
    takes the branch the search takes first, so the cover found is the one
    a search without the cuts finds first. ``tick``, when given, is called
    once per state visited; whatever it raises abandons the test, so a
    caller bounds the time and the memory of the failed states by raising
    after a number of calls.
    """
    return _Intervals(sizes, tick).assign


class _Intervals:
    """The state of one ``assign_intervals`` test: its sizes and tick, the
    subset sums once built, and the failed states kept across calls. Nothing
    it holds refers back to it or to its bound methods, so it is freed by
    reference counting when its caller drops it."""

    __slots__ = ("sizes", "tick", "left", "failed", "reach")

    def __init__(self, sizes: tuple[int, ...], tick: Optional[Callable[[], None]]):
        self.sizes = sizes
        self.tick = tick
        # left[i]: total of sizes[i:]
        self.left = list(accumulate(reversed(sizes), initial=0))[::-1]
        self.failed: set[tuple[int, tuple[int, ...]]] = set()
        self.reach = 0  # the subset sums of sizes as a bitset, built on first use

    def covers(self, demands: tuple[int, ...]) -> Optional[list[int]]:
        """The open demand each size took, in size order, when the sizes
        cover ``demands`` (sorted descending), else None. Depth first:
        ``stack[i]`` holds the open state at size index i and the index of
        the demand its size went to; the state visited is at len(stack)."""
        sizes, left, failed, tick = self.sizes, self.left, self.failed, self.tick
        stack: list[tuple[tuple[int, ...], int]] = []
        while True:
            i = len(stack)
            if tick is not None:
                tick()
            m = len(demands)
            slack = left[i] - sum(demands) if i + m <= len(sizes) else -1
            if not demands or slack >= 0 and sizes[i + m - 1] >= demands[0]:
                # size i + j closes demand j; the search would take it first
                return [state[j] for state, j in stack] + list(demands)
            if (
                slack >= 0
                and (i, demands) not in failed
                and (i or slack >= m or not self.wasted(demands, slack))
            ):
                # using a size never hurts, so skipping it is never needed
                stack.append((demands, 0))
                demands = _assign(demands, 0, sizes[i])
                continue
            # the state fails: the latest open state with a branch left takes it
            while stack:
                demands, j = stack.pop()
                i = len(stack)
                j += 1
                # equal demands are interchangeable, so each value is tried once
                while j < len(demands) and demands[j] == demands[j - 1]:
                    j += 1
                if j < len(demands):
                    stack.append((demands, j))
                    demands = _assign(demands, j, sizes[i])
                    break
                failed.add((i, demands))
            else:
                return None

    def wasted(self, demands: tuple[int, ...], slack: int) -> bool:
        """The root state's waste cut: whether the least overhangs exceed ``slack``."""
        if not self.reach:
            self.reach = reduce(lambda sums, s: sums | sums << s, self.sizes, 1)
        beyond = [self.reach >> d for d in demands]
        return sum((b & -b).bit_length() - 1 for b in beyond) > slack

    def assign(self, parts: Sequence[int]) -> Optional[list[list[int]]]:
        taken = self.covers(tuple(sorted([p for p in parts if p > 0], reverse=True)))
        if taken is None:
            return None
        # equal open demands are interchangeable, so the first path with
        # the taken open demand takes the size
        paths: dict[int, list[int]] = {}  # each open demand's paths, as a heap
        for j, p in enumerate(parts):
            paths.setdefault(p, []).append(j)
        placed: list[list[int]] = [[] for _ in parts]
        for size, d in zip(self.sizes, taken):
            j = heappop(paths[d])
            placed[j].append(size)
            if d > size:
                heappush(paths.setdefault(d - size, []), j)
        return placed


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


# Entry i of a cover is the center of its ball of radius k-1-i, as (walk,
# position), or None when that radius is not needed. Entry (w, p) is index p
# of walk w, as graphs.family_walks lays the walks out. On a one-hub graph
# walk j < len(legs) is leg j and walk len(legs) the cycle, each starting at
# the hub, so position 0 is the hub and p the p-th vertex out of it (round
# the cycle from one end of its walk). On a linear forest walk j is path j
# from one end.
Cover = list[Optional[tuple[int, int]]]


def _place(centers: Cover, sizes: list[int], walk: int, first: int, last: int) -> None:
    """Centers of intervals of ``sizes`` laid back to back along ``walk``
    from position ``first``, none centered past ``last``."""
    k = len(centers)
    for size in sizes:
        radius = size // 2
        centers[k - 1 - radius] = (walk, min(first + radius, last))
        first += size


def _sizes(k: int) -> tuple[int, ...]:
    """Interval sizes 2s+1 for s = k-1, ..., 0."""
    return tuple(range(2 * k - 1, 0, -2))


def forest_cover(
    parts: tuple[int, ...], k: int, tick: Optional[Callable[[], None]] = None
) -> Optional[Cover]:
    """A cover of the linear forest with path orders ``parts`` by balls of
    radii k-1, ..., 0, or None if there is none.

    A ball meets a path in an interval, so b <= k iff intervals of sizes
    2k-1, ..., 1 cover the paths; ``tick`` goes to that test.
    """
    placed = assign_intervals(_sizes(k), tick)(parts)
    if placed is None:
        return None
    centers: Cover = [None] * k
    for j, sizes in enumerate(placed):
        _place(centers, sizes, j, 0, parts[j] - 1)
    return centers


def hub_cover(
    legs: tuple[int, ...],
    k: int,
    cycle: int = 0,
    tick: Optional[Callable[[], None]] = None,
) -> Optional[Cover]:
    """A cover of the one-hub graph with positive ``legs`` by balls of radii
    k-1, ..., 0, or None if there is none.

    ``cycle`` is the length g of the cycle through the hub, 0 for none. A
    graph with a spanning path (a path, or a cycle with at most one leg)
    burns in ceil(sqrt(n)) rounds, and a path or a bare cycle in no fewer,
    so neither needs a search: the cover lays intervals along the path
    from the end of leg 0 through the hub. Any other cover is the hub's ball
    (r, x) and the intervals that ``assign_intervals`` lays on the
    residual forest. Radii go from k-1 down and placements from the hub
    out; the radius and placement pre-tests (module docstring) skip only
    those without a cover, so the first cover found is the one a search
    without them finds. ``tick`` goes to every ``assign_intervals`` test
    and is called once more per radius or placement a pre-test skips.
    """
    n = max(cycle, 1) + sum(legs)
    centers: Cover = [None] * k
    if len(legs) <= (1 if cycle else 2) and ceil_sqrt(n) <= k:
        end = legs[0] if legs else 0
        beyond = len(legs) if cycle else 1  # the walk past the hub
        first = 0
        for size in _sizes(k):
            if first >= n:
                break
            p = min(first + size // 2, n - 1)
            centers[k - 1 - size // 2] = (0, end - p) if p <= end else (beyond, p - end)
            first += size
        return centers
    spokes = len(legs) + (2 if cycle else 0)
    if spokes <= 2:
        return None
    distinct = sorted(set(legs), reverse=True)
    ascending = sorted(legs)
    below = list(accumulate(ascending, initial=0))  # below[i]: the i shortest legs' total
    every = _sizes(k)
    for r in range(k - 1, -1, -1):
        # the other intervals hold k^2 - (2r+1) vertices, and a ball of
        # radius r holds the hub and at most r vertices along each spoke
        room = k * k - 2 * r - 1
        if n - 1 - spokes * r > room:
            if tick is not None:
                tick()
            continue
        assign = None
        for d in range(min(r, distinct[0]) + 1):
            c = r - d  # how far the ball reaches along the other walks
            # the positive residual parts, before leg a is singled out: each
            # leg longer than c loses c vertices
            short = bisect_right(ascending, c)
            uncut = below[-1] - below[short] - c * (len(legs) - short)
            if cycle > 2 * c:
                uncut += cycle - 2 * c - 1
            for a in distinct if d else distinct[:1]:
                if a < d:
                    break
                rest = uncut
                if a > c:  # leg a loses d + r vertices, not c
                    rest -= a - c
                    if a > d + r:
                        rest += a - d - r
                if rest > room:
                    if tick is not None:
                        tick()
                    continue
                if assign is None:
                    assign = assign_intervals(every[: k - 1 - r] + every[k - r :], tick)
                j = legs.index(a)
                residual = [b - c for b in legs]
                residual[j] = a - d - r
                # the cycle path; without a cycle it is negative and ignored
                residual.append(cycle - 2 * c - 1)
                placed = assign(residual)
                if placed is not None:
                    centers[k - 1 - r] = (j, d)
                    # each remainder starts past the hub's ball: a leg's at
                    # its cut, the cycle path at c
                    for walk, sizes in enumerate(placed):
                        cut = legs[walk] - residual[walk] if walk < len(legs) else c
                        _place(centers, sizes, walk, cut + 1, cut + residual[walk])
                    return centers
    return None


def levels(
    legs: tuple[int, ...], cycle: Optional[int] = 0, tick: Optional[Callable[[], None]] = None
) -> tuple[int, Callable[[int], Optional[Cover]]]:
    """The level to deepen from and the decider of every level, for a shape
    given by integers alone: the one entry on a shape.

    For a one-hub graph with arm lengths ``legs`` and ``cycle`` cycle
    vertices through the hub (0 for none) they are ``lower_bound`` and
    ``hub_cover``. With ``cycle`` None, for the linear forest whose paths
    have orders ``legs``, they are the larger of its number of paths and
    ceil(sqrt(n)), and ``forest_cover``. The start is a lower bound and
    covers are monotone in k, so the first k from the start whose decider
    returns a cover, not None, is b(G). Nothing is decided here: the caller
    deepens. ``tick`` goes to every decision.
    """
    if cycle is None:
        return max(len(legs), ceil_sqrt(sum(legs))), lambda k: forest_cover(legs, k, tick)
    return lower_bound(legs, cycle), lambda k: hub_cover(legs, k, cycle, tick)
