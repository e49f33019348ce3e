"""Exact burning-number computation with verifiable certificates.

A burning sequence (x1,...,xk) is valid iff d(xi,xj) >= j-i for every pair
i < j and the dilated closed neighborhoods N_{k-1}[x1] u ... u N_0[xk]
cover every vertex. The solver runs iterative deepening on k from a
rigorous lower bound. Each level is decided by a search for the covering
half alone: b(G) <= k iff V(G) is covered by closed balls of radii
k-1, ..., 0 whose centers are free (no distance condition, repeats
allowed). The first level with a cover is therefore b(G), and the
exhausted levels below it are the optimality proof. One loop (``_deepen``)
deepens every such decision: the structural route's, the ball search's, the
unicyclic oracle's and the geodesic-forest term of ``_bounds``, the one
list of the lower bound's terms. ``_known`` gives what is known before the
search: the route's answer, or that bound and the greedy sequence. When
they meet, the sequence is the certificate and no level is searched;
``find_sequence`` calls ``_known`` only when its budget runs out.

Before any ball is grown, the structural route (``_route``) takes the
graphs that ``structural`` decides exactly: connected graphs with at most
one vertex of degree 3 or more and at most n edges (paths, cycles,
spiders, t-unicyclic graphs), and linear forests. One walk out of the hub,
or along each path (``graphs.family_walks``), both recognizes these graphs
and gives the vertex ids, so no components pass is run for them; the
other graphs get one components pass (``graphs.component_sweeps``), which
the bounds read and the search's preparation hands on to
``graphs.eccentricities``. k deepens with the one-hub rule
or the interval cover, and the cover at the first accepted k, on walk
coordinates, becomes the certificate. A routed result has lower bound,
value and upper bound equal and spends no search nodes. The covers are
NP-complete to decide, so the route gives up after ``HUB_RULE_STATES``
ticks (interval-cover states, and radii or placements of the hub's ball
that an arithmetic pre-test rejects); the levels it refuted by then are a
floor for the ball search. The route takes any order and any number of
rounds; only the ball search has limits on both.

Cover search (``_cover``); its state is the uncovered-vertex mask and the
unused-radii mask, and every cut keeps it complete:
  * cover budget: the unused radii cannot cover more vertices than the
    sum of the largest balls at those radii, so a center whose ball is
    too small for the rest to finish is never listed (one bisection over
    the layer's ball sizes);
  * branching: some ball must cover the uncovered vertex with the fewest
    centers at the largest unused radius, so only the centers of that
    vertex's balls are tried, radii from largest to smallest;
  * dominance: at one radius, a candidate whose share of the uncovered
    vertices is a subset of an already-tried candidate's share is
    skipped, since swapping in the larger center keeps every completion
    valid;
  * packing: with R the largest unused radius, uncovered vertices
    pairwise more than 2R apart need a ball each, since by the triangle
    inequality a ball of radius at most R holds no two vertices more than
    2R apart (nor two in different components). Starting from the branch
    vertex, the lowest-id uncovered vertex outside the radius-2R balls of
    all those taken so far is taken, and the node fails once more are
    taken than radii are unused (Meir and Moon's packing bound). The cut
    only drops subtrees that hold no cover, so the first cover found and
    its centers are the same as without it.
Its recursion drops its reference to itself when the search ends, as the
strict search's does, and the interval cover holds no closure at all, so
nothing on the solve path forms a reference cycle: a search frees its
balls when it returns, and leaves the cyclic garbage collector nothing.

One staggered fire (``_burn``) both checks sequences and makes
certificates: round r spreads the fire one step and lights x_r. To check
a sequence, x_r must not be alight yet, which decides both conditions in
O(n + m); distance rows are computed only to name the first failing pair
of a rejected sequence. To turn a cover (centers by descending radius,
on vertex ids from the search or on walk coordinates from the route)
into a certificate, a center already alight when its round comes is
swapped for the first unlit vertex in a fixed order; its ball lies inside
the ball of the source that lit it, so the cover stays a cover, and no
distance is computed. At the first feasible level no round runs out of
unlit vertices, so the certificate has length exactly k. Above b(G) a
cover may convert to a shorter sequence; there ``find_sequence`` falls
back to a depth-first search over source sequences (``_search``) to keep
the strict definition, under which some longer lengths admit no sequence
at all (K4 burns in 2 rounds, never in 3).

Branch vertices, candidate centers and swaps are chosen by fixed rules
(set sizes, ties by vertex id), which makes certificates deterministic:
the first cover found under those rules, not the globally lexicographic
minimum among all optima.

The unicyclic oracle (``unicyclic_spanning_upper``) takes only cycles and
t-unicyclic graphs and deepens ``structural``'s one-hub rule with the
cycle length, so it builds no tree and shares only the loop with the
ball-cover search. It shares the rule with the structural route, so the
tests check the rule against the search through the unbudgeted
``find_sequence``, which never runs the route.
"""

from __future__ import annotations

import itertools
import math
import operator
from bisect import bisect_left
from dataclasses import FrozenInstanceError, dataclass, field, fields
from functools import cached_property
from typing import Callable, Iterable, Optional, Sequence

from . import structural
from .graphs import (
    Cycle,
    Graph,
    TUnicyclic,
    component_sweeps,
    distance_rows,
    eccentricities,
    family_walks,
    recognize_family,
)
from .intmath import ceil_sqrt, counting_lower

EXACT = "exact"

MAX_ROUNDS = 500  # the ball searches recurse once per radius; the frame limit is 1000

# The search's preparation holds an n-bit ball per vertex and radius, up to
# twice the level searched, and on a graph with a cycle grows every ball to
# its eccentricity. On grids, which reach the search, preparing it (balls,
# bounds, and the layers of the level the search starts at) took 3.3 MB and
# 0.04 s at n = 1,000 (25 x 40), 13.6 MB and 0.12 s at 2,000 (40 x 50), and
# 64 MB and 0.5 s at 4,000 (50 x 80) (tracemalloc peak, time untraced;
# 2-core x86-64, CPython 3.11). Memory grows with n^2 times the level, so a
# larger graph is refused before any ball is grown or any eccentricity found.
MAX_EXACT_VERTICES = 2_000

# The structural route, on one-hub graphs and on linear forests, gives up
# after this many ticks of its deciders, counted over all its levels: one per
# interval-cover state, which may stay in the cover's failed set, and one per
# radius or placement of the hub's ball that an arithmetic pre-test rejects;
# at a level k above MAX_ROUNDS a tick counts k / MAX_ROUNDS, as an open cover
# state there holds up to k demands (on 20,000 disjoint edges the route gives
# up in 0.2 s and 74 MB; at one per tick 8,000 took 245 MB, and memory grows
# as the square of the edges). On 300 random spiders and t-unicyclic graphs of
# order up to 2,000 with 3 to 600 legs it gave up on 38 and took at most
# 0.04 s and a 0.5 MB tracemalloc peak; on star:1,2,...,500 (125,251 vertices)
# it gives up in 0.03 s, and on random spiders of about 10^6 vertices with
# 10^4 to 10^5 legs it answers or gives up in at most 0.7 s (2-core x86-64,
# CPython 3.11). It decides uni:594;480,424,270,158,43 (43) in 280 ticks,
# though its level k = 42 filled a 512 MB address space in 39 s under a sum
# test alone, and uni:3;20000,20000,20000 (245) in 18,026. Deciding every
# level up to the value, the route needs at most 59 ticks on all spiders and
# t-unicyclic graphs to order 20, the uni1 and uni2 sweeps to orders 60 and
# 46, the forest3 sweep to order 40 and all linear forests to order 18, at
# most 115 on spiders with three to six legs to order 40, and at most 35 on
# the benchmark's one-hub graphs and forests.
HUB_RULE_STATES = 20_000


def _refuse_set(self: object, name: str, value: object) -> None:
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _refuse_delete(self: object, name: str) -> None:
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def _frozen(cls: type) -> type:
    """``cls`` as a frozen, slotted dataclass whose instances refuse every
    attribute set or delete with ``FrozenInstanceError``.

    The generated methods raise it for a field, but for any other name
    they call ``super()`` on the class that ``slots=True`` replaced, which
    raises ``TypeError`` instead (a CPython dataclasses issue, seen on
    3.11).
    """
    cls = dataclass(frozen=True, slots=True)(cls)
    cls.__setattr__ = _refuse_set
    cls.__delattr__ = _refuse_delete
    return cls


@_frozen
class BurnResult:
    """A burning-number value plus how it was obtained.

    Invariant: lower_bound <= value <= upper_bound, and the certificate,
    when present, is a valid burning sequence of length exactly ``value``.
    From the exact solver, ``upper_bound`` is the length of the greedy
    sequence, except on a graph the structural route answers, where both
    bounds are the value and the certificate is the route's.
    """

    value: int
    method: str
    lower_bound: int
    upper_bound: int
    certificate: Optional[tuple[int, ...]] = None

    def __init__(
        self,
        value: int,
        method: str,
        lower_bound: int,
        upper_bound: int,
        certificate: Optional[tuple[int, ...]] = None,
    ) -> None:
        # The generated __init__ of a frozen class stores each field through
        # object.__setattr__, which looks the name up on the type each time;
        # the slot descriptors' own setters store the same values directly
        # (0.57 against 0.90 us per construction, CPython 3.11, 2-core
        # x86-64). Fields, defaults, repr, equality, hashing and pickling
        # stay the dataclass's, as generated.
        _set_value(self, value)
        _set_method(self, method)
        _set_lower_bound(self, lower_bound)
        _set_upper_bound(self, upper_bound)
        _set_certificate(self, certificate)


_set_value, _set_method, _set_lower_bound, _set_upper_bound, _set_certificate = (
    getattr(BurnResult, f.name).__set__ for f in fields(BurnResult)
)


class Inconclusive(Exception):
    """Search budget exhausted; carries the best rigorous bounds found."""

    def __init__(self, lower_bound: int, upper_bound: int):
        self.lower_bound = lower_bound
        self.upper_bound = upper_bound
        super().__init__(
            f"search budget exhausted; burning number in [{lower_bound}, {upper_bound}]"
        )


@_frozen
class SequenceCheck:
    """Outcome of checking the two burning-sequence conditions.

    ``distance`` is d(x_i, x_j) for the failed pair, read off the row that
    found it. It is fixed by the graph and the pair, so equality ignores it.
    """

    ok: bool
    failed_pair: Optional[tuple[int, int]] = None  # 1-based positions i < j
    uncovered: frozenset[int] = frozenset()
    distance: Optional[int] = field(default=None, compare=False)


_VALID = SequenceCheck(ok=True)  # frozen, so every valid sequence shares it


def _validated(g: Graph, sources: tuple[int, ...]) -> tuple[int, ...]:
    """``sources`` as a tuple; ValueError if empty, repeated or out of range."""
    seq = tuple(sources)
    if not seq:
        raise ValueError("burning sequence must contain at least one source")
    for v in seq:
        if not 0 <= v < g.vertex_count:
            raise ValueError(f"invalid vertex id {v}")
    if len(set(seq)) != len(seq):
        raise ValueError(f"duplicate sources in sequence {seq}")
    return seq


def _burn(
    g: Graph, centers: Sequence[Optional[int]], order: Iterable[int] = ()
) -> tuple[tuple[int, ...], list[int]]:
    """Burn ``g`` from ``centers`` in turn: the sources lit, and the round in
    which each vertex caught fire (0 if never).

    Round r takes center r, unless it is None or already alight; then it
    takes the next unlit vertex of ``order``, read lazily from any
    iterable, and the pass stops when there is none. The round spreads
    the fire one step and lights its source. Vertex v catches fire in
    round min_m (m + d(x_m, v)), so x_r is alight before round r exactly
    when d(x_m, x_r) < r - m for some m < r: with the empty ``order``
    fewer sources are lit than given exactly when the distance condition
    fails. A center alight before its round lies
    within radius r - 1 - m of some source x_m, so its ball lies inside
    x_m's and a swap keeps a cover a cover. Burned vertices stay burned,
    so ``order`` is read once, front to back; the pass is one multi-source
    breadth-first search, O(n + m + len(order)), O(n) memory.
    """
    adjacency = g.adjacency
    burn = [0] * len(adjacency)
    lit: list[int] = []
    frontier: list[int] = []
    spare = iter(order)
    for r, x in enumerate(centers, start=1):
        if x is None or burn[x]:
            for x in spare:
                if not burn[x]:
                    break
            else:
                break
        reached = []
        for u in frontier:
            for v in adjacency[u]:
                if not burn[v]:
                    burn[v] = r
                    reached.append(v)
        if not burn[x]:
            burn[x] = r
            reached.append(x)
        lit.append(x)
        frontier = reached
    return tuple(lit), burn


def _first_pair(g: Graph, seq: tuple[int, ...]) -> tuple[int, int, int]:
    """The lexicographically first pair i < j (1-based) with
    d(x_i, x_j) < j - i, and that distance, from one source's distance row
    at a time."""
    for i, x in enumerate(seq):
        (row,) = distance_rows(g, (x,))
        for j in range(i + 1, len(seq)):
            if row[seq[j]] < j - i:
                return i + 1, j + 1, row[seq[j]]
    raise AssertionError(f"no pair of {seq} fails the distance condition")


def check_sequence(g: Graph, sources: tuple[int, ...]) -> SequenceCheck:
    """Check both burning-sequence conditions, reporting what failed.

    Malformed input (empty sequence, duplicate or out-of-range ids) raises
    ValueError before the graph is searched; that is distinct from a
    well-formed but invalid sequence. One pass burns the graph
    (``_burn`` with no order to swap from): it stops at the first source
    already alight, so fewer sources lit than given means the distance
    condition failed, and otherwise the vertices never reached are
    ``uncovered``. A valid sequence therefore costs O(n + m) and no
    distance row, and every valid sequence gets the one shared, frozen
    ``SequenceCheck(ok=True)``. Only when a source was alight early are distance rows
    computed, one source at a time in order, until the first failing pair
    (the lexicographically first) is found; its distance comes with it.
    Across components no fire spreads, so the pairwise condition holds
    vacuously there.
    """
    seq = _validated(g, sources)
    lit, burn = _burn(g, seq)
    if len(lit) < len(seq):
        i, j, d = _first_pair(g, seq)
        return SequenceCheck(ok=False, failed_pair=(i, j), distance=d)
    if 0 in burn:
        uncovered = frozenset(v for v, r in enumerate(burn) if not r)
        return SequenceCheck(ok=False, uncovered=uncovered)
    return _VALID


def verify_sequence(g: Graph, sources: tuple[int, ...]) -> bool:
    """True iff ``sources`` is a valid burning sequence for ``g``."""
    return check_sequence(g, sources).ok


# --------------------------------------------------------------------------
# Search machinery
# --------------------------------------------------------------------------

class _BudgetExhausted(Exception):
    pass


def _check_rounds(k: int, reason: str = "this graph needs at least") -> None:
    if k > MAX_ROUNDS:
        raise ValueError(f"exact search supports at most {MAX_ROUNDS} rounds; {reason} {k}")


def _check_vertices(n: int) -> None:
    if n > MAX_EXACT_VERTICES:
        raise ValueError(
            f"exact search supports at most {MAX_EXACT_VERTICES} vertices; "
            f"this graph has {n}"
        )


class _Budget:
    __slots__ = ("remaining", "weight")

    def __init__(self, limit: Optional[int]):
        self.remaining = limit
        self.weight = 1  # what one tick costs

    def tick(self) -> None:
        if self.remaining is not None:
            self.remaining -= self.weight
            if self.remaining < 0:
                raise _BudgetExhausted


def _deepen(k: int, level: Callable[[int], Optional[list]]) -> tuple[int, Optional[list]]:
    """The first level from ``k`` up at which ``level`` finds a cover, and that
    cover; or, when ``level`` raises ``_BudgetExhausted``, the level it was
    deciding and None. Either way every level below the one returned is refuted."""
    try:
        while (cover := level(k)) is None:
            k += 1
    except _BudgetExhausted:
        return k, None
    return k, cover


def _certificate(g: Graph, centers: list[Optional[int]], order: Iterable[int]) -> tuple[int, ...]:
    """The sequence ``_burn`` makes of a cover at the first feasible level
    k = len(centers), swapping in unlit vertices from ``order``."""
    seq, _ = _burn(g, centers, order)
    if len(seq) != len(centers):
        # every level below k is refuted, so g cannot burn sooner
        raise AssertionError(f"cover at the first feasible level {len(centers)} gave {seq}")
    return seq


class _Prepared:
    """Bitmask balls by radius, the tables built from them, eccentricities
    and the diameter, and a frozen candidate order.

    No distance matrix is built: the search, the geodesic lower bounds and
    the greedy upper bound read only the balls, ``ecc`` and ``diameter``.
    The eccentricities come from ``graphs.eccentricities`` on ``sweeps``,
    kept for ``_known``, and made here for a graph with fewer than n edges
    when not given; every ball layer above radius 0 comes from ``extend``.
    The tables (``sizes``, ``suffix``, ``maxball``, ``capacity``) cover
    radii 0..``max_radius`` and the ball layers radii
    0..2 * ``max_radius``, which the search's packing cut reads at twice
    the largest unused radius. ``extend`` grows both when a level needs
    more.
    """

    def __init__(self, g: Graph, max_radius: int, sweeps: Optional[list[list[int]]] = None):
        n = g.vertex_count
        _check_vertices(n)
        self.n = n
        self.full = (1 << n) - 1
        self.adjacency = g.adjacency
        self.sweeps = sweeps or (component_sweeps(g) if g.edge_count < n else None)
        self.ecc = eccentricities(g, self.sweeps)
        self.diameter = max(self.ecc, default=0)
        # balls[r][v]: vertices within distance r of v, as a bitmask
        self.balls = [[1 << v for v in range(n)]]
        self.maxball: list[int] = []
        # per radius: the ball sizes, ascending, and suffix[i], the vertices
        # whose ball has sizes[i] or more vertices, with a final 0
        self.sizes: list[list[int]] = []
        self.suffix: list[list[int]] = []
        self.extend(max(max_radius, 2))

    @cached_property
    def order(self) -> list[int]:
        """Frozen candidate order: densest two-hop neighborhood first, ties
        by id. Branch vertices come early, which finds sequences far faster
        than eccentricity ordering."""
        two_hop = self.balls[2]
        return sorted(range(self.n), key=lambda v: (-two_hop[v].bit_count(), v))

    def extend(self, max_radius: int) -> None:
        """Grow the balls to radius 2 * ``max_radius`` and the tables built
        from them to ``max_radius``."""
        n, adjacency, ecc, balls = self.n, self.adjacency, self.ecc, self.balls
        for r in range(len(balls), 2 * max_radius + 1):
            prev = balls[-1]
            layer = []
            for v in range(n):
                mask = prev[v]
                if r <= ecc[v]:  # otherwise saturated: whole component
                    for u in adjacency[v]:
                        mask |= prev[u]
                layer.append(mask)
            balls.append(layer)
        for layer in balls[len(self.maxball) : max_radius + 1]:
            by_size: dict[int, int] = {}
            for v, mask in enumerate(layer):
                s = mask.bit_count()
                by_size[s] = by_size.get(s, 0) | (1 << v)
            sizes = sorted(by_size)
            self.maxball.append(sizes[-1])
            self.sizes.append(sizes)
            descending = (by_size[s] for s in reversed(sizes))
            unions = itertools.accumulate(descending, operator.or_, initial=0)
            self.suffix.append(list(unions)[::-1])
        # capacity[r] = most vertices coverable by positions with radii r..0
        self.capacity = list(itertools.accumulate(self.maxball))


def _cover(prep: _Prepared, k: int, budget: _Budget) -> Optional[list[Optional[int]]]:
    """Centers of balls of radii k-1..0 covering V(G), or None if none exist.

    Entry i of the result is the center of radius k-1-i, or None when that
    radius was not needed. The search is complete, so None is a proof.
    ``prep`` must hold the tables up to radius k-1 and the ball layers up
    to 2(k-1), as ``extend(k - 1)`` leaves them. Nodes are counted in a
    local and written back to ``budget`` on every exit, where the
    recursion also drops its reference to itself: the search then holds no
    reference cycle, so the ball layers and tables it closed over are
    freed when the solve drops ``prep``, not at a later garbage collection.
    """
    balls, maxball, sizes, suffix = prep.balls, prep.maxball, prep.sizes, prep.suffix
    centers: list[Optional[int]] = [None] * k
    remaining = math.inf if budget.remaining is None else budget.remaining

    def rec(uncovered: int, radii: int, capacity: int) -> bool:
        nonlocal remaining
        remaining -= 1
        if remaining < 0:
            raise _BudgetExhausted
        if not uncovered:
            return True
        count = uncovered.bit_count()
        if count > capacity:
            return False
        # branch on the uncovered vertex with the fewest centers at the
        # largest unused radius, ties by lowest id: the lowest one outside
        # suffix[top][i + 1], for the first i that leaves one
        top = radii.bit_length() - 1
        larger = suffix[top]
        i = 1
        while not (pending := uncovered & ~larger[i]):
            i += 1
        u = (pending & -pending).bit_length() - 1
        # packing: vertices pairwise more than 2 * top apart need a ball
        # each; u takes one, and the other radii must do for the rest
        wide = balls[2 * top]
        far = uncovered & ~wide[u]
        spare = radii.bit_count() - 1
        while far:
            if not spare:
                return False
            spare -= 1
            far &= ~wide[(far & -far).bit_length() - 1]
        rest = radii
        while rest:
            r = rest.bit_length() - 1
            rest ^= 1 << r
            ball_r = balls[r]
            # a center whose share stays the same at the next smaller unused
            # radius is tried there instead, keeping radius r for later
            ball_next = balls[rest.bit_length() - 1] if rest else None
            # the radii after r cover at most `left` vertices, so a share
            # needs `need` of them; centers with smaller balls are not listed
            left = capacity - maxball[r]
            need = count - left
            options = []
            cand = ball_r[u] & suffix[r][bisect_left(sizes[r], need)]
            while cand:
                low = cand & -cand
                c = low.bit_length() - 1
                share = ball_r[c] & uncovered
                if ball_next is None or ball_next[c] & uncovered != share:
                    options.append((-share.bit_count(), c, share))
                cand ^= low
            # largest share first, ties by id
            options.sort()
            tried: list[int] = []
            for size, c, share in options:
                if count + size > left:
                    break  # this and every later share leave too much uncovered
                for t in tried:
                    if not share & ~t:
                        break  # dominated by an already-tried center
                else:
                    tried.append(share)
                    if rec(uncovered & ~share, radii ^ (1 << r), left):
                        centers[k - 1 - r] = c
                        return True
        return False

    try:
        found = rec(prep.full, (1 << k) - 1, prep.capacity[k - 1])
    finally:
        if budget.remaining is not None:
            budget.remaining = remaining
        del rec  # rec's closure holds rec; without it the search is freed on return
    return centers if found else None


def _search(prep: _Prepared, k: int, budget: _Budget) -> Optional[tuple[int, ...]]:
    """Find a length-k burning sequence, or prove none exists (None).

    Like ``_cover``, the recursion drops its reference to itself on every
    exit, so the balls it closed over are freed by reference counting."""
    full, balls = prep.full, prep.balls
    capacity, order = prep.capacity, prep.order
    if k > prep.n:
        return None  # sources must be distinct vertices
    seq: list[int] = []
    used = 0

    def rec(i: int, covered: int) -> bool:
        nonlocal used
        budget.tick()
        if i == k:
            return covered == full
        radius = k - 1 - i
        needed = full & ~covered
        if needed.bit_count() > capacity[radius]:
            return False
        forbid = used
        for m, x in enumerate(seq):
            gap = i - m - 1
            if gap >= 0:
                forbid |= balls[gap][x]
        cand_mask = full & ~forbid
        if cand_mask.bit_count() < k - i:
            return False
        cand = [v for v in order if (cand_mask >> v) & 1]
        ball_r = balls[radius]
        if needed:
            reach = 0
            for v in cand:
                reach |= ball_r[v]
            if needed & ~reach:
                return False
            # vertices no candidate can reach at the next, smaller radius
            # must all be covered right now, which pins the choice down
            if radius > 0:
                ball_next = balls[radius - 1]
                reach_next = 0
                for v in cand:
                    reach_next |= ball_next[v]
                urgent = needed & ~reach_next
            else:
                urgent = needed
            if urgent:
                cand = [v for v in cand if not urgent & ~ball_r[v]]
                if not cand:
                    return False
        for v in cand:
            seq.append(v)
            used |= 1 << v
            if rec(i + 1, covered | ball_r[v]):
                return True
            seq.pop()
            used &= ~(1 << v)
        return False

    try:
        found = rec(0, 0)
    finally:
        del rec  # as in _cover
    return tuple(seq) if found else None


def find_sequence(
    g: Graph, k: int, budget: Optional[int] = None
) -> Optional[tuple[int, ...]]:
    """Length-k burning sequence of ``g``, or None if none exists.

    The search is complete, so a None return is a proof that ``g`` admits
    no length-k burning sequence. A cover found at level k becomes a
    sequence by ``_burn`` with the candidate order; when it comes out
    shorter, g burns in fewer rounds and ``_search`` looks for a strict
    length-k sequence. When the node budget runs out first, ``_known``
    gives what ``burning_number_exact`` knows before its search: a lower
    bound and the route's certificate or the greedy sequence. That sequence
    is returned when its length is k; below the lower bound None is still a
    proof, and otherwise Inconclusive carries both bounds.
    """
    if g.vertex_count < 1:
        raise ValueError("graph must have at least one vertex")
    if k < 1:
        raise ValueError("sequence length must be >= 1")
    _check_rounds(k, "the requested length is")
    prep = _Prepared(g, max_radius=k - 1)
    state = _Budget(budget)
    try:
        centers = _cover(prep, k, state)
        if centers is None:
            return None  # every burning sequence is a cover
        seq, _ = _burn(g, centers, prep.order)
        if len(seq) == k:
            return seq
        # g burns in fewer than k rounds, and a strict length-k sequence
        # may not exist at all
        return _search(prep, k, state)
    except _BudgetExhausted:
        lower, known, _ = _known(g, prep)
    if len(known) == k:
        return known
    if k < lower:
        return None  # a length-k sequence would give b(G) <= k
    raise Inconclusive(lower, len(known))


def _greedy_upper(prep: _Prepared) -> tuple[int, ...]:
    """A valid burning sequence found greedily; its length is an upper bound.

    Round t picks the still-unburned vertex that catches fire last (first
    round: a center; ties by lowest id). A chosen vertex is always unburned,
    so the pairwise distance condition holds by construction and the process
    terminates in at most n rounds.
    """
    n, adjacency = prep.n, prep.adjacency
    # burn[v]: round in which v catches fire, 2n while v's component has
    # no source; after t rounds the burned vertices are those with burn <= t
    burn = [2 * n] * n
    seq: list[int] = []
    pick = min(range(n), key=prep.ecc.__getitem__)
    while True:
        seq.append(pick)
        t = len(seq)
        burn[pick] = t
        # pick's fire only spreads through vertices it reaches strictly
        # sooner than the fire already burning
        frontier = [pick]
        while frontier:
            t += 1
            reached = []
            for v in frontier:
                for u in adjacency[v]:
                    if t < burn[u]:
                        burn[u] = t
                        reached.append(u)
            frontier = reached
        pick = max(range(n), key=burn.__getitem__)
        if burn[pick] <= len(seq):
            return tuple(seq)


def _holds(layers: Iterable[list[int]], subset: int, size: int) -> bool:
    """Whether the best ball of each layer, counted on ``subset``, holds
    ``size`` vertices of it between them; stops once they do."""
    held = 0
    for layer in layers:
        held += max(map(int.bit_count, map(subset.__and__, layer)))
        if held >= size:
            return True
    return False


def _rim_skipped(maxball: Sequence[int], k: int, n: int, h: int) -> bool:
    """Whether the rim, the n - h vertices below the maximum degree, cannot
    refute level k: a ball of radius rho holds at least maxball[rho] - h
    rim vertices, and those floors over radii k-1..0 reach n - h."""
    return sum(max(s - h, 0) for s in maxball[:k]) >= n - h


def _bounds(
    prep: _Prepared, components: list[list[int]], floor: int
) -> tuple[int, tuple[int, ...]]:
    """A rigorous lower bound on b(G), and the greedy sequence, whose length
    is the upper bound. ``components`` holds a vertex list per component,
    in id order of its least vertex; only their number and each one's
    largest eccentricity are read. The lower bound is the largest of these
    terms:

      * route floor: ``floor``, the first level the structural route
        (``_route``) did not refute before it gave up, 1 for a graph it
        does not take;
      * components: every component needs a source of its own;
      * geodesic: a longest geodesic is an isometric path of diameter + 1
        vertices, and a path of m vertices burns in ceil(sqrt(m)) rounds;
      * one-hub counting, when at most one vertex has degree s >= 3: in a
        rooted tree partition every part is a path (|T| <= 2h+1) except
        possibly the one holding that vertex (|T| <= 2h+1+(s-2)h), so
        summing over heights k-1..0 gives n <= k^2 + (s-2)(k-1), with
        s = 2 when no vertex has degree 3 or more;
      * geodesic forest, on two or three components: one longest geodesic
        per component is an isometric linear forest, and a ball of radius s
        meets a geodesic in at most 2s+1 consecutive vertices, so intervals
        of sizes {2s+1 : s < k}, each used once, cover those paths. That is
        the cover ``structural.forest_cover`` decides exactly; burning
        linear forests is NP-complete, so more parts are not tried;
      * capacity, on a vertex subset P: balls of radii k-1..0 hold at most
        the sum over rho < k of max_c |B_rho(c) & P| vertices of P, so k is
        refuted when that sum is below |P|. P = V reads its shares off
        ``maxball``. P = the rim, the vertices below the maximum degree
        (where balls get clipped, as on a grid's boundary), reads them off
        the ball layers from rho = k-1 down until they reach |P|
        (``_holds``), unless ``_rim_skipped`` shows that they must: with h
        vertices of maximum degree, a ball holds at least its size minus h
        rim vertices. k climbs while either subset refutes it, but not past
        the greedy length.

    Layers are grown up to the bound, at most to the greedy length minus 1.
    """
    n, adjacency = prep.n, prep.adjacency
    lower = max(floor, len(components), ceil_sqrt(prep.diameter + 1))
    degrees = list(map(len, adjacency))
    hubs = [d for d in degrees if d >= 3]
    if len(hubs) <= 1:
        lower = max(lower, counting_lower(n, max(hubs, default=2) - 2))
    if 2 <= len(components) <= 3:
        parts = tuple(1 + max(prep.ecc[v] for v in comp) for comp in components)
        lower, _ = _deepen(lower, lambda k: structural.forest_cover(parts, k))
    greedy = _greedy_upper(prep)
    top = max(degrees)
    h = degrees.count(top)  # every other vertex is on the rim
    rim = None
    while lower < len(greedy):
        prep.extend(lower - 1)
        if prep.capacity[lower - 1] >= n:
            if _rim_skipped(prep.maxball, lower, n, h):
                break
            if rim is None:
                rim = sum(1 << v for v, d in enumerate(degrees) if d < top)
            if _holds(prep.balls[lower - 1 :: -1], rim, n - h):
                break
        lower += 1
    if lower > len(greedy):
        raise AssertionError(f"lower bound {lower} above the greedy witness's {len(greedy)}")
    return lower, greedy


# --------------------------------------------------------------------------
# Structural route
# --------------------------------------------------------------------------

def _route(g: Graph) -> tuple[int, Optional[tuple[int, ...]]]:
    """b(G) and a certificate for a one-hub graph or a linear forest, read
    off its walks; otherwise a floor on b(G) and None.

    ``graphs.family_walks`` takes a connected graph with at most one vertex
    of degree 3 or more and at most n edges (a path, a cycle, a spider or a
    t-unicyclic graph), walked once out of that vertex (a path out of an
    end, a cycle out of vertex 0), and a linear forest, walked once along
    each path; no components pass is run. On a one-hub graph k deepens
    from ``structural.lower_bound`` with ``structural.hub_cover``, on a
    linear forest from the larger of its number of parts and ceil(sqrt(n))
    with ``structural.forest_cover``; both decide b(G) <= k exactly and
    return the cover behind a yes, whose centers, (walk, position), map to
    vertex ids straight off the walks. ``_burn`` turns them into the
    certificate, swapping in unlit vertices in walk order, read lazily:
    the hub, then each leg, then the cycle, or each path in turn. No
    distance is computed. Deciding those covers is NP-complete, so the
    route gives up after ``HUB_RULE_STATES`` ticks of the deciders
    (``structural`` docstring; above ``MAX_ROUNDS`` a tick counts more),
    and returns the first level it did not refute. Other graphs get 1.
    The walks are usually those ``recognize_family`` made of the same
    graph just before (``compute``, the CLI), which ``family_walks``
    keeps, so the route walks nothing again; they are tuples, shared with
    every other caller, and are only read here.
    """
    walked = family_walks(g)
    if walked is None:
        return 1, None
    hub, legs, ring = walked
    budget = _Budget(HUB_RULE_STATES * MAX_ROUNDS)
    if hub is not None:
        # the cycle's walk, possibly empty, is last; each walk leaves the
        # hub, which is position 0 on every walk
        walks = (*legs, ring)
        spot = lambda walk, p: walks[walk][p - 1] if p else hub
        order = itertools.chain((hub,), *walks)
        lengths = tuple(map(len, legs))
        cycle = len(ring) + 1 if ring else 0
        k = structural.lower_bound(lengths, cycle)
        decide = lambda k: structural.hub_cover(lengths, k, cycle, budget.tick)
    else:
        walks = legs  # each path from an end
        spot = lambda walk, p: walks[walk][p]
        order = itertools.chain(*walks)
        parts = tuple(map(len, walks))
        k = max(len(parts), ceil_sqrt(g.vertex_count))
        decide = lambda k: structural.forest_cover(parts, k, budget.tick)

    def level(k: int) -> Optional[list[Optional[int]]]:
        budget.weight = max(k, MAX_ROUNDS)  # an open state here holds up to k demands
        centers = decide(k)
        if centers is None:
            return None
        return [None if c is None else spot(*c) for c in centers]

    k, spots = _deepen(k, level)
    return k, None if spots is None else _certificate(g, spots, order)


def _known(
    g: Graph, prep: Optional[_Prepared] = None
) -> tuple[int, tuple[int, ...], Optional[_Prepared]]:
    """A lower bound on b(G), a burning sequence, whose length is an upper
    bound, and the search's preparation, before any level is searched: the
    route's value and certificate when it answers, else the bounds of
    ``_bounds`` from the route's floor and one components pass, on ``prep``
    (whose pass is reused when it has one) or on a new preparation that
    reuses that pass (on a routed graph ``prep`` comes back as given)."""
    floor, routed = _route(g)
    if routed is not None:
        return floor, routed, prep
    if prep is None:
        sweeps = component_sweeps(g)
        _check_rounds(len(sweeps))  # before anything is prepared
        prep = _Prepared(g, max_radius=0, sweeps=sweeps)
    lower, greedy = _bounds(prep, prep.sweeps or component_sweeps(g), floor)
    return lower, greedy, prep


def burning_number_exact(g: Graph, budget: Optional[int] = None) -> BurnResult:
    """Minimum k admitting a valid burning sequence, with certificate.

    ``_known`` gives a lower bound and a known sequence: the structural
    route's value and certificate on one-hub graphs and linear forests, or
    the bound of ``_bounds``, which lists its terms, and the greedy
    sequence. When they meet, the sequence is the certificate. Otherwise
    the ball search deepens from the bound; every level below the returned
    value is exhausted, which is the optimality proof. A node budget that
    runs out at the greedy length leaves the greedy sequence as the answer
    (every level below is refuted), and one that runs out below raises
    Inconclusive, whose bounds are correct regardless.
    """
    if g.vertex_count < 1:
        raise ValueError("graph must have at least one vertex")

    lower, known, prep = _known(g)
    value, certificate = len(known), known
    if lower < value:
        state = _Budget(budget)

        def level(k: int) -> Optional[list[Optional[int]]]:
            _check_rounds(k)
            prep.extend(k - 1)
            centers = _cover(prep, k, state)
            if centers is None and k >= len(known):
                raise AssertionError("complete search missed the greedy witness")
            return centers

        k, centers = _deepen(lower, level)
        if centers is not None:
            value, certificate = k, _certificate(g, centers, prep.order)
        elif k < value:
            raise Inconclusive(k, value)
    return BurnResult(value, EXACT, lower, len(known), certificate)


# --------------------------------------------------------------------------
# Rooted tree partitions
# --------------------------------------------------------------------------

@_frozen
class TreePart:
    """One rooted tree of a partition: root, vertex set, parent edges."""

    root: int
    vertices: frozenset[int]
    edges: tuple[tuple[int, int], ...]  # (parent, child)
    height: int


def extract_partition(g: Graph, sources: tuple[int, ...]) -> list[TreePart]:
    """Rooted tree partition equivalent to burning ``g`` via ``sources``.

    Each vertex joins the part of the neighbor its fire came from (the
    earliest burning round; ties broken by lowest part index, then lowest
    vertex id), which carves one BFS tree per source. Part i then has
    height at most k-i, and the roots inherit the sequence's pairwise
    distance gaps. The burn rounds come from the pass that checks the
    sequence (``_burn``); the vertices are grouped by round, and then by
    part, in one pass each.
    """
    seq = _validated(g, sources)
    lit, burn = _burn(g, seq)
    if len(lit) < len(seq) or 0 in burn:
        raise ValueError(f"not a valid burning sequence: {seq}")
    adjacency = g.adjacency
    k = len(seq)
    rounds: list[list[int]] = [[] for _ in range(k + 1)]
    for v, r in enumerate(burn):
        rounds[r].append(v)
    part = [-1] * len(burn)
    parent: dict[int, int] = {}
    for m, x in enumerate(seq):
        part[x] = m
    # a vertex's feeders all burn a round earlier, so rounds go in order
    for r in range(2, k + 1):
        for v in rounds[r]:
            if part[v] < 0:
                feeders = [u for u in adjacency[v] if burn[u] == r - 1]
                u = min(feeders, key=lambda u: (part[u], u))
                part[v] = part[u]
                parent[v] = u
    members: list[list[int]] = [[] for _ in seq]
    for v, m in enumerate(part):
        members[m].append(v)

    parts = []
    for m, x in enumerate(seq):
        vertices = members[m]
        edges = tuple(sorted((parent[v], v) for v in vertices if v in parent))
        height = max(burn[v] for v in vertices) - (m + 1)
        parts.append(TreePart(root=x, vertices=frozenset(vertices), edges=edges, height=height))
    return parts


# --------------------------------------------------------------------------
# Independent oracle and bound for unicyclic graphs
# --------------------------------------------------------------------------

def unicyclic_spanning_upper(g: Graph) -> int:
    """b(G) of a cycle or a t-unicyclic graph by the structural route's
    rule on its spanning spiders.

    ``_deepen`` climbs from ``structural.lower_bound(arms, g)`` to the first
    k at which ``structural.hub_cover(arms, k, g)`` finds a cover. That is the
    minimum of b(T) over G's spanning trees T, its g edge-deleted spiders
    (proof in the ``structural`` docstring), which is b(G). It is the rule
    the route of ``burning_number_exact`` runs, so it cannot check the
    route: the independent lower side is the ball search, where
    ``find_sequence(g, b(G) - 1)`` returns None. Raises ValueError for a
    graph that is neither a cycle nor t-unicyclic. It has no budget and no
    round limit.
    """
    desc = recognize_family(g)
    if not isinstance(desc, (Cycle, TUnicyclic)):
        raise ValueError(
            f"spanning-tree oracle needs a cycle or a t-unicyclic graph, got {desc}"
        )
    arms = getattr(desc, "arms", ())
    start = structural.lower_bound(arms, desc.g)
    return _deepen(start, lambda k: structural.hub_cover(arms, k, desc.g))[0]
