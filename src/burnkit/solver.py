"""Exact burning-number computation with verifiable certificates.

A burning sequence (x1,...,xk) is valid iff d(xi,xj) >= j-i for every pair
i < j and the dilated closed neighborhoods N_{k-1}[x1] u ... u N_0[xk]
cover every vertex. The solver runs iterative deepening on k from a
rigorous lower bound. Each level is decided by a search for the covering
half alone: b(G) <= k iff V(G) is covered by closed balls of radii
k-1, ..., 0 whose centers are free (no distance condition, repeats
allowed). The first level with a cover is therefore b(G), and the
exhausted levels below it are the optimality proof.

Cover search (``_cover``); its state is the uncovered-vertex mask and the
unused-radii mask, and every cut keeps it complete:
  * cover budget: the unused radii cannot cover more vertices than the
    sum of the largest balls at those radii;
  * branching: some ball must cover the uncovered vertex with the fewest
    centers at the largest unused radius, so only the centers of that
    vertex's balls are tried, radii from largest to smallest;
  * dominance: at one radius, a candidate whose share of the uncovered
    vertices is a subset of an already-tried candidate's share is
    skipped, since swapping in the larger center keeps every completion
    valid.

A cover becomes a certificate round by round (``_to_sequence``): a center
that is already burned when its round comes is swapped for an unburned
vertex, whose ball is then redundant because the burned center's ball lies
inside the ball of the source that burned it. At the first feasible level
no round runs out of unburned vertices, so the certificate has length
exactly k. Above b(G) a cover may convert to a shorter sequence; there
``find_sequence`` falls back to a depth-first search over source sequences
(``_search``) to keep the strict definition, under which some longer
lengths admit no sequence at all (K4 burns in 2 rounds, never in 3).

Branch vertices, candidate centers and swaps are chosen by fixed rules
(set sizes, ties by vertex id), which makes certificates deterministic:
the first cover found under those rules, not the globally lexicographic
minimum among all optima.

The unicyclic oracle (``unicyclic_spanning_upper``) takes only cycles and
t-unicyclic graphs. It is the minimum over their spanning trees, which are
paths and spiders, decided by ``structural``'s one-hub rule without
building a tree, so the oracle shares no code with the search above.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

from . import structural
from .graphs import (
    Cycle,
    Graph,
    TUnicyclic,
    connected_components,
    distance_matrix,
    distance_rows,
    recognize_family,
)
from .intmath import ceil_sqrt, counting_lower

EXACT = "exact"

# _cover and _search recurse once per round, so a deeper search would run
# into the interpreter's recursion limit (1000 frames by default)
MAX_ROUNDS = 500


@dataclass(frozen=True)
class BurnResult:
    """A burning-number value plus how it was obtained.

    Invariant: lower_bound <= value <= upper_bound, and the certificate,
    when present, is a valid burning sequence of length exactly ``value``.
    """

    value: int
    method: str
    lower_bound: int
    upper_bound: int
    certificate: Optional[tuple[int, ...]] = None


class Inconclusive(Exception):
    """Search budget exhausted; carries the best rigorous bounds found."""

    def __init__(self, lower_bound: int, upper_bound: int):
        self.lower_bound = lower_bound
        self.upper_bound = upper_bound
        super().__init__(
            f"search budget exhausted; burning number in [{lower_bound}, {upper_bound}]"
        )


@dataclass(frozen=True)
class SequenceCheck:
    """Outcome of checking the two burning-sequence conditions."""

    ok: bool
    failed_pair: Optional[tuple[int, int]] = None  # 1-based positions i < j
    uncovered: frozenset[int] = frozenset()


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


def _check_rows(seq: tuple[int, ...], rows: list[list[int]]) -> SequenceCheck:
    """Both conditions for ``seq``, given its sources' distance rows."""
    k = len(seq)
    for i, j in itertools.combinations(range(k), 2):
        if rows[i][seq[j]] < j - i:
            return SequenceCheck(ok=False, failed_pair=(i + 1, j + 1))
    covered = set()
    for i, row in enumerate(rows):
        radius = k - 1 - i
        covered.update(v for v, d in enumerate(row) if d <= radius)
    uncovered = frozenset(range(len(rows[0]))) - covered
    if uncovered:
        return SequenceCheck(ok=False, uncovered=uncovered)
    return SequenceCheck(ok=True)


def check_sequence(g: Graph, sources: tuple[int, ...]) -> SequenceCheck:
    """Check both burning-sequence conditions, reporting what failed.

    Malformed input (empty sequence, duplicate or out-of-range ids) raises
    ValueError before any distance is computed; that is distinct from a
    well-formed but invalid sequence. Only the k sources' distance rows
    are computed. Distances across components are 2n, more than any gap,
    so the pairwise condition holds vacuously there.
    """
    seq = _validated(g, sources)
    return _check_rows(seq, distance_rows(g, seq))


def verify_sequence(g: Graph, sources: tuple[int, ...]) -> bool:
    """True iff ``sources`` is a valid burning sequence for ``g``."""
    return check_sequence(g, sources).ok


# --------------------------------------------------------------------------
# Search machinery
# --------------------------------------------------------------------------

class _BudgetExhausted(Exception):
    pass


def _check_rounds(k: int) -> None:
    if k > MAX_ROUNDS:
        raise ValueError(
            f"exact search supports at most {MAX_ROUNDS} rounds; "
            f"this graph needs at least {k}"
        )


class _Budget:
    __slots__ = ("remaining",)

    def __init__(self, limit: Optional[int]):
        self.remaining = limit

    def tick(self) -> None:
        if self.remaining is not None:
            self.remaining -= 1
            if self.remaining < 0:
                raise _BudgetExhausted


class _Prepared:
    """Distance matrix, bitmask balls by radius, and frozen search orders."""

    def __init__(self, g: Graph, max_radius: int):
        n = g.vertex_count
        self.n = n
        self.full = (1 << n) - 1
        self.adjacency = g.adjacency
        self.dist = distance_matrix(g)
        inf = 2 * n
        self.ecc = [max(row) for row in self.dist]
        for v, e in enumerate(self.ecc):
            if e >= inf:  # disconnected: farthest vertex in v's component
                self.ecc[v] = max(d for d in self.dist[v] if d < inf)
        self.diameter = max(self.ecc, default=0)
        # balls[r][v]: vertices within distance r of v, as a bitmask
        self.balls: list[list[int]] = [[1 << v for v in range(n)]]
        self.maxball: list[int] = []
        self.tiers: list[list[tuple[int, int]]] = []
        self.extend(max(max_radius, 2))
        # frozen candidate order: densest two-hop neighborhood first, ties by
        # id. Branch vertices come early, which finds sequences far faster
        # than eccentricity ordering.
        two_hop = self.balls[2]
        self.order = sorted(range(n), key=lambda v: (-two_hop[v].bit_count(), v))

    def extend(self, max_radius: int) -> None:
        """Grow the balls to ``max_radius`` and the tables built from them."""
        n, adjacency, ecc, balls = self.n, self.adjacency, self.ecc, self.balls
        for r in range(len(balls), max_radius + 1):
            prev = balls[-1]
            layer = []
            for v in range(n):
                mask = prev[v]
                if r <= ecc[v]:  # otherwise saturated: whole component
                    for u in adjacency[v]:
                        mask |= prev[u]
                layer.append(mask)
            balls.append(layer)
        for layer in balls[len(self.maxball):]:
            sizes = [m.bit_count() for m in layer]
            self.maxball.append(max(sizes))
            # tiers: vertices grouped by ball size, smallest balls first
            by_size: dict[int, int] = {}
            for v, s in enumerate(sizes):
                by_size[s] = by_size.get(s, 0) | (1 << v)
            self.tiers.append([(s, by_size[s]) for s in sorted(by_size)])
        # capacity[r] = most vertices coverable by positions with radii r..0
        self.capacity = list(itertools.accumulate(self.maxball))


def _cover(prep: _Prepared, k: int, budget: _Budget) -> Optional[list[Optional[int]]]:
    """Centers of balls of radii k-1..0 covering V(G), or None if none exist.

    Entry i of the result is the center of radius k-1-i, or None when that
    radius was not needed. The search is complete, so None is a proof.
    """
    balls, maxball, tiers = prep.balls, prep.maxball, prep.tiers
    centers: list[Optional[int]] = [None] * k

    def rec(uncovered: int, radii: int, capacity: int) -> bool:
        budget.tick()
        if not uncovered:
            return True
        count = uncovered.bit_count()
        if count > capacity:
            return False
        # branch on the uncovered vertex with the fewest centers at the
        # largest unused radius, ties by lowest id
        for _, tier in tiers[radii.bit_length() - 1]:
            pending = tier & uncovered
            if pending:
                u = (pending & -pending).bit_length() - 1
                break
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
            big = 0
            for size, tier in reversed(tiers[r]):
                if size < need:
                    break
                big |= tier
            options = []
            cand = ball_r[u] & big
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
                if any(not share & ~t for t in tried):
                    continue  # dominated by an already-tried center
                tried.append(share)
                if rec(uncovered & ~share, radii ^ (1 << r), left):
                    centers[k - 1 - r] = c
                    return True
        return False

    if rec(prep.full, (1 << k) - 1, prep.capacity[k - 1]):
        return centers
    return None


def _search(prep: _Prepared, k: int, budget: _Budget) -> Optional[tuple[int, ...]]:
    """Find a length-k burning sequence, or prove none exists (None)."""
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

    if rec(0, 0):
        return tuple(seq)
    return None


def _to_sequence(
    prep: _Prepared, centers: Sequence[Optional[int]]
) -> tuple[int, ...]:
    """Burning sequence from a cover, centers listed by descending radius.

    Round i keeps its center unless the center is already burned (or the
    cover left it None); then it takes the first unburned vertex in
    ``prep.order``. A burned center's ball lies inside the ball of the
    source that burned it, so the swap keeps the cover. The result is
    shorter than the cover when some round finds every vertex burned.
    """
    balls, full = prep.balls, prep.full
    seq: list[int] = []
    for i, c in enumerate(centers):
        burned = 0
        for m, x in enumerate(seq):
            burned |= balls[i - 1 - m][x]
        if burned == full:
            break
        if c is None or (burned >> c) & 1:
            c = next(v for v in prep.order if not (burned >> v) & 1)
        seq.append(c)
    return tuple(seq)


def find_sequence(
    g: Graph, k: int, budget: Optional[int] = None
) -> Optional[tuple[int, ...]]:
    """Length-k burning sequence of ``g``, or None if none exists.

    The search is complete, so a None return is a proof that ``g`` admits
    no length-k burning sequence. Raises Inconclusive when the node budget
    runs out first; it carries the geodesic lower bound and the greedy
    upper bound on the burning number.
    """
    if g.vertex_count < 1:
        raise ValueError("graph must have at least one vertex")
    if k < 1:
        raise ValueError("sequence length must be >= 1")
    _check_rounds(k)
    prep = _Prepared(g, max_radius=k - 1)
    state = _Budget(budget)
    try:
        centers = _cover(prep, k, state)
        if centers is None:
            return None  # every burning sequence is a cover
        seq = _to_sequence(prep, centers)
        if len(seq) == k:
            return seq
        # g burns in fewer than k rounds, and a strict length-k sequence
        # may not exist at all
        return _search(prep, k, state)
    except _BudgetExhausted:
        raise Inconclusive(ceil_sqrt(prep.diameter + 1), len(_greedy_upper(prep))) from None


def _greedy_upper(prep: _Prepared) -> tuple[int, ...]:
    """A valid burning sequence found greedily; its length is an upper bound.

    Round t picks the still-unburned vertex farthest from the burning
    front (first round: a center). A chosen vertex is always unburned, so
    the pairwise distance condition holds by construction and the process
    terminates in at most n rounds.
    """
    n, dist = prep.n, prep.dist
    inf = 2 * n
    seq = [min(range(n), key=lambda v: (prep.ecc[v], v))]
    # gap[v]: hops from v to the burned set, inf while v's component has
    # no fire; the burned vertices are exactly those with gap 0
    gap = list(dist[seq[0]])
    while any(gap):
        pick = max((v for v in range(n) if gap[v]), key=lambda v: (gap[v], -v))
        seq.append(pick)
        # fire spreads one hop from everything burning, then pick ignites
        row = dist[pick]
        gap = [min(d - 1 if 0 < d < inf else d, e) for d, e in zip(gap, row)]
    return tuple(seq)


def _structural_lower(g: Graph) -> int:
    """Counting lower bound for graphs with at most one branch vertex.

    In any rooted tree partition all parts are paths (|T| <= 2h+1) except
    possibly the one holding the unique vertex of degree s >= 3, which has
    |T| <= 2h+1+(s-2)h. Summing over heights k-1..0 gives
    n <= k^2 + (s-2)(k-1).
    """
    hubs = [v for v in range(g.vertex_count) if g.degree(v) >= 3]
    if len(hubs) > 1:
        return 1
    extra = 0 if not hubs else g.degree(hubs[0]) - 2
    return counting_lower(g.vertex_count, extra)


def burning_number_exact(g: Graph, budget: Optional[int] = None) -> BurnResult:
    """Minimum k admitting a valid burning sequence, with certificate.

    Iterative deepening from a rigorous lower bound (component count,
    longest geodesic, cover-capacity counting, branch-vertex counting);
    every level below the returned value exhausted, which is the
    optimality proof. Raises Inconclusive when the node budget runs out
    before the value is pinned down; the exception carries bounds that
    are correct regardless.
    """
    n = g.vertex_count
    if n < 1:
        raise ValueError("graph must have at least one vertex")

    components = len(connected_components(g))
    _check_rounds(components)  # before the O(n^2) preparation
    prep = _Prepared(g, max_radius=0)
    lower = max(
        1,
        components,
        ceil_sqrt(prep.diameter + 1),
        _structural_lower(g),
    )
    upper_seq = _greedy_upper(prep)
    upper = len(upper_seq)

    prep.extend(upper - 1)
    while lower < upper and prep.capacity[lower - 1] < n:
        lower += 1

    budget_state = _Budget(budget)
    k = lower
    try:
        while True:
            _check_rounds(k)
            centers = _cover(prep, k, budget_state)
            if centers is None:
                if k >= upper:
                    raise AssertionError("complete search missed the greedy witness")
                k += 1
                continue
            seq = _to_sequence(prep, centers)
            if len(seq) != k:
                # every level below k is refuted, so g cannot burn sooner
                raise AssertionError(f"cover at the first feasible level {k} gave {seq}")
            return BurnResult(
                value=k,
                method=EXACT,
                lower_bound=lower,
                upper_bound=upper,
                certificate=seq,
            )
    except _BudgetExhausted:
        raise Inconclusive(max(lower, k), upper) from None


# --------------------------------------------------------------------------
# Rooted tree partitions
# --------------------------------------------------------------------------

@dataclass(frozen=True)
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
    distance gaps.
    """
    seq = _validated(g, sources)
    rows = distance_rows(g, seq)
    if not _check_rows(seq, rows).ok:
        raise ValueError(f"not a valid burning sequence: {seq}")
    n = g.vertex_count
    # round at which each vertex burns; source m burns exactly at round m+1
    burn = [min(m + 1 + row[v] for m, row in enumerate(rows)) for v in range(n)]
    part = [-1] * n
    parent: dict[int, int] = {}
    for m, x in enumerate(seq):
        part[x] = m
    for v in sorted(range(n), key=lambda v: (burn[v], v)):
        if part[v] >= 0:
            continue
        feeders = [u for u in g.adjacency[v] if burn[u] == burn[v] - 1]
        u = min(feeders, key=lambda u: (part[u], u))
        part[v] = part[u]
        parent[v] = u

    parts = []
    for m, x in enumerate(seq):
        vertices = frozenset(v for v in range(n) if part[v] == m)
        edges = tuple(sorted((parent[v], v) for v in vertices if v in parent))
        height = max(burn[v] for v in vertices) - (m + 1)
        parts.append(TreePart(root=x, vertices=vertices, edges=edges, height=height))
    return parts


# --------------------------------------------------------------------------
# Independent oracle and bound for unicyclic graphs
# --------------------------------------------------------------------------

def _spanning_shapes(desc) -> set[tuple[int, ...]]:
    """Legs of the trees a Cycle or TUnicyclic leaves without a cycle edge.

    Legs are sorted descending without zeros; a path of n vertices is the
    one leg (n-1,).
    """
    arms = getattr(desc, "arms", ())
    n = desc.g + sum(arms)
    shapes = set()
    for j in range((desc.g + 1) // 2):
        legs = tuple(sorted((a for a in (*arms, j, desc.g - 1 - j) if a), reverse=True))
        shapes.add(legs if len(legs) >= 3 else (n - 1,))
    return shapes


def unicyclic_spanning_upper(g: Graph) -> int:
    """b(G) of a cycle or a t-unicyclic graph via its spanning trees.

    Deleting one cycle edge leaves a spanning tree, and the burning number
    of a graph is the minimum over its spanning trees; a unicyclic graph
    has exactly its g edge-deleted trees as spanning trees, so the minimum
    over them equals b(G) — an independent second oracle, not merely an
    upper bound. Deleting the edge j steps from the hub leaves the spider
    (a star with paths as legs) with legs (a_1, ..., a_t, j, g-1-j), a path
    when fewer than three legs are nonempty; the edges j and g-1-j leave
    the same spider. No tree is built: k deepens from the least lower
    bound of the ceil(g/2) shapes, and the first k at which
    ``structural.burns`` accepts some shape is the minimum. Raises
    ValueError for a graph that is neither a cycle nor t-unicyclic.
    """
    desc = recognize_family(g)
    if not isinstance(desc, (Cycle, TUnicyclic)):
        raise ValueError(
            f"spanning-tree oracle needs a cycle or a t-unicyclic graph, got {desc}"
        )
    bounds = {legs: structural.lower_bound(legs) for legs in _spanning_shapes(desc)}
    k = min(bounds.values())
    while not any(structural.burns(legs, k)
                  for legs, lower in bounds.items() if lower <= k):
        k += 1
    return k


def isometric_path_lower(desc: TUnicyclic) -> int:
    """Lower bound from the longest isometric paths of a t-unicyclic graph.

    The path through the longest arm and halfway around the cycle has
    a1 + floor(g/2) + 1 vertices; with a second arm there is also the path
    through both arms with a1 + a2 + 1 vertices. Both are isometric
    subtrees, and an isometric subtree never burns slower than its host.
    """
    if not isinstance(desc, TUnicyclic) or desc.t < 1:
        raise ValueError("isometric path bound needs a t-unicyclic graph, t >= 1")
    a1 = desc.arms[0]
    longest = a1 + desc.g // 2 + 1
    if desc.t >= 2:
        longest = max(longest, a1 + desc.arms[1] + 1)
    return ceil_sqrt(longest)
