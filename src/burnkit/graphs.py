"""Undirected simple graphs: representation, distances, family recognition.

Graphs are immutable after construction (adjacency stored as tuples), so
every operation in this module is pure and safe to share across threads.
Vertex ids are exactly 0..n-1.

``Graph(n, edges)``, :func:`parse_graph` and :func:`read_graph` take input
from outside the program, so they check every edge and sort every
neighbour list. The private ``Graph._from_adjacency`` takes sorted,
symmetric, loop-free neighbour tuples as given; it is for a builder that
makes a canonical simple graph by construction
(:func:`burnkit.families.build`), whose tests compare it with the checked
construction.

One breadth-first kernel serves distances, components and a forest's
eccentricities. It writes hop distances into a list its caller owns, in
which 2n marks every vertex not yet reached; 2n exceeds every finite
distance, so callers of :func:`distance_rows` and :func:`distance_matrix`
compare against it as infinity, and it is the only unreachable marker. A
caller that reads only some sources' rows asks :func:`distance_rows` for
just those. :func:`component_sweeps` runs the kernel over one shared list
and keeps the vertices of each component in the order it reached them;
:func:`connected_components` sorts them. :func:`eccentricities` reuses
those sweeps: on a forest it runs the kernel over two more shared lists
(the double sweep), and on any other graph it grows bitmask balls until
none grows.

Recognition runs no components pass. After one scan of the degrees,
:func:`family_walks` walks once out of the one branch vertex (the hub), or
along each path from its end (:func:`hub_walks`); the walks cover all n
vertices exactly when the graph is a connected one-hub graph or a linear
forest, and every other graph is ``Other``. The cycle of a unicyclic graph
is the walk that comes back to the hub, not searched for separately.
Every walk out of the hub starts at the hub, so position p on a walk is
its index p, which the solver's structural route reads its vertex ids
off, and a leg's arm length is its length less one.

:func:`family_walks` remembers the last graph it walked, so recognition,
the solver's route and the spanning-tree oracle walk a graph once between
them. The one entry pairs the graph's adjacency tuple with its walks, or
None for a graph that is not walkable, and a call on the same adjacency
object (``is``, not ``==``) returns them. Holding the tuple keeps its id
from being reused. The entry is replaced by a single assignment, so a race
between threads costs a second walk, never a wrong answer. The walks are
shared by every caller and are tuples throughout. The entry keeps one
adjacency and its walks alive until another graph is walked.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence, TextIO, Union

from .intmath import ceil_sqrt


class GraphFormatError(ValueError):
    """Raised when a graph text file cannot be parsed."""


class Graph:
    """Immutable undirected simple graph on vertices 0..vertex_count-1.

    The constructor validates its edges (in range, no self-loop, no
    duplicate) and sorts each neighbour list. ``_from_adjacency`` skips
    both, for canonical adjacency built inside the package only.
    """

    __slots__ = ("vertex_count", "adjacency")

    def __init__(self, vertex_count: int, edges: Iterable[tuple[int, int]] = ()):
        if vertex_count < 0:
            raise ValueError("vertex_count must be nonnegative")
        adj: list[list[int]] = [[] for _ in range(vertex_count)]
        seen: set[tuple[int, int]] = set()
        for u, v in edges:
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise ValueError(f"edge ({u},{v}) out of range for n={vertex_count}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise ValueError(f"duplicate edge ({u},{v})")
            seen.add(key)
            adj[u].append(v)
            adj[v].append(u)
        self.vertex_count = vertex_count
        self.adjacency: tuple[tuple[int, ...], ...] = tuple(
            tuple(sorted(nbrs)) for nbrs in adj
        )

    @classmethod
    def _from_adjacency(cls, adjacency: tuple[tuple[int, ...], ...]) -> Graph:
        """The graph whose neighbour tuples are ``adjacency``, unchecked.

        Each tuple must be sorted ascending, and the tuples symmetric and
        free of loops and repeats: what the constructor would make of the
        same edges.
        """
        g = cls.__new__(cls)
        g.vertex_count = len(adjacency)
        g.adjacency = adjacency
        return g

    @property
    def edge_count(self) -> int:
        return sum(map(len, self.adjacency)) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each edge once as (u, v) with u < v, in sorted order."""
        for u, nbrs in enumerate(self.adjacency):
            for v in nbrs:
                if u < v:
                    yield (u, v)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def max_degree(self) -> int:
        return max((len(nbrs) for nbrs in self.adjacency), default=0)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.vertex_count == other.vertex_count
            and self.adjacency == other.adjacency
        )

    def __hash__(self) -> int:
        return hash((self.vertex_count, self.adjacency))

    def __repr__(self) -> str:
        return f"Graph(n={self.vertex_count}, m={self.edge_count})"


def _bfs(g: Graph, source: int, dist: list[int]) -> list[int]:
    """Write hop distances from ``source`` into ``dist``; return the reached vertices.

    The vertices come in BFS order, ``source`` first. An entry of ``dist``
    equal to 2n is unvisited; any other value blocks the search, so the
    distances of an earlier search keep the next one out of its component.
    """
    adjacency = g.adjacency
    unvisited = 2 * len(adjacency)
    dist[source] = 0
    # the loop reads the list as it grows, so the list is the FIFO queue
    frontier = [source]
    for u in frontier:
        du = dist[u] + 1
        for v in adjacency[u]:
            if dist[v] == unvisited:
                dist[v] = du
                frontier.append(v)
    return frontier


def distance_matrix(g: Graph) -> list[list[int]]:
    """All-pairs hop distances with unreachable pairs set to 2*n.

    2*n exceeds every finite distance and every position gap a burning
    sequence can demand.
    """
    return distance_rows(g, range(g.vertex_count))


def distance_rows(g: Graph, sources: Iterable[int]) -> list[list[int]]:
    """The rows of :func:`distance_matrix` for ``sources``, in their order.

    Costs one breadth-first search per source instead of one per vertex.
    Raises ValueError on a source that is not a vertex.
    """
    n = g.vertex_count
    rows = []
    for s in sources:
        if not 0 <= s < n:
            raise ValueError(f"invalid source vertex {s}")
        row = [2 * n] * n
        _bfs(g, s, row)
        rows.append(row)
    return rows


def component_sweeps(g: Graph) -> list[list[int]]:
    """The vertices of each connected component in breadth-first order from
    its least vertex, components in id order of that vertex.

    One list serves every search, so a component costs only its own
    vertices and edges, however many components there are. The last vertex
    of each list is one farthest from its first.
    """
    unvisited = 2 * g.vertex_count
    dist = [unvisited] * g.vertex_count
    return [_bfs(g, s, dist) for s in range(g.vertex_count) if dist[s] == unvisited]


def connected_components(g: Graph) -> list[list[int]]:
    """Vertex lists of the connected components, each sorted, in id order."""
    return [sorted(sweep) for sweep in component_sweeps(g)]


def eccentricities(g: Graph, sweeps: list[list[int]]) -> list[int]:
    """Every vertex's eccentricity within its component.

    ``sweeps`` are :func:`component_sweeps` of ``g``. ``g`` is a forest
    exactly when it has n - c edges, c the number of sweeps. In a tree the
    last vertex a of a sweep and the last vertex b of a search from a are
    the ends of a longest path, so ecc(v) = max(d(a, v), d(b, v)) (the
    double sweep): two more searches per component over shared lists,
    O(n). Any other graph takes :func:`_ball_eccentricities`.
    """
    n = g.vertex_count
    if g.edge_count == n - len(sweeps):
        from_a = [2 * n] * n
        from_b = [2 * n] * n
        for sweep in sweeps:
            _bfs(g, _bfs(g, sweep[-1], from_a)[-1], from_b)
        return list(map(max, from_a, from_b))
    return _ball_eccentricities(g.adjacency)


def _ball_eccentricities(adjacency: Sequence[Sequence[int]]) -> list[int]:
    """Every vertex's eccentricity within its component, by ball growth.

    A bitmask ball that does not grow from radius r-1 to r already holds
    v's whole component, so ecc(v) = r-1 and v's ball never changes again.
    One rolling layer grows, over only the vertices whose balls still grow,
    until none does.
    """
    n = len(adjacency)
    layer = [1 << v for v in range(n)]
    ecc = [0] * n
    growing = range(n)
    r = 0
    while growing:
        grown: list[int] = []
        masks: list[int] = []
        for v in growing:
            old = mask = layer[v]
            for u in adjacency[v]:
                mask |= layer[u]
            if mask != old:
                grown.append(v)
                masks.append(mask)
            else:
                ecc[v] = r
        for v, mask in zip(grown, masks):
            layer[v] = mask
        growing = grown
        r += 1
    return ecc


# --------------------------------------------------------------------------
# Family recognition
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Path:
    """The path of ``n`` vertices: a connected graph whose every vertex has
    degree at most 2 and which has an end (``Path(1)`` is a lone vertex)."""

    n: int


@dataclass(frozen=True)
class Cycle:
    """The cycle of ``g`` vertices (g >= 3): a connected graph whose every
    vertex has degree 2. It is never reported as a unicyclic graph with
    no arms."""

    g: int


@dataclass(frozen=True)
class LinearForest:
    """A disconnected graph whose every component is a path; ``parts``
    are the components' orders, descending (a lone vertex is a part of
    order 1). One path is a ``Path``."""

    parts: tuple[int, ...]


@dataclass(frozen=True)
class GeneralizedStar:
    """A spider: a tree with exactly one vertex of degree 3 or more, the
    hub. ``arms`` are the lengths in edges of the paths out of it,
    descending; there are at least 3."""

    arms: tuple[int, ...]


@dataclass(frozen=True)
class TUnicyclic:
    """A connected graph of n vertices and n edges whose one vertex of
    degree 3 or more, the hub, lies on its cycle of ``g`` vertices.
    ``arms`` are the lengths in edges of the paths out of the hub off the
    cycle, descending; there are ``t`` >= 1 of them."""

    g: int
    arms: tuple[int, ...]

    @property
    def t(self) -> int:
        return len(self.arms)


@dataclass(frozen=True)
class Other:
    """Every other graph: one with two or more vertices of degree 3 or
    more, or with more edges than vertices, a disconnected graph with a
    component that is not a path, and the graph with no vertex. It has no
    fields."""


FamilyDescriptor = Union[Path, Cycle, LinearForest, GeneralizedStar, TUnicyclic, Other]


def recognize_family(g: Graph) -> FamilyDescriptor:
    """Most specific structural family of ``g``, with canonical parameters.

    Arms and forest parts come out sorted descending. A plain cycle is
    reported as Cycle, never as a unicyclic graph with no arms. Among
    disconnected graphs only linear forests are recognized; everything
    else falls through to Other. The family is read off
    :func:`family_walks`: the paths of a linear forest, or the walks out
    of the hub, which are the arms of a generalized star or of a
    t-unicyclic graph and, if one comes back to the hub, its cycle.
    """
    walked = family_walks(g)
    if walked is None:
        return Other()
    hub, legs, cycle = walked
    if hub is None:
        return LinearForest(tuple(sorted(map(len, legs), reverse=True)))
    if len(g.adjacency[hub]) < 3:  # a path walked from an end, or a cycle
        return Cycle(g.vertex_count) if cycle else Path(g.vertex_count)
    arms = tuple(sorted((len(leg) - 1 for leg in legs), reverse=True))
    return TUnicyclic(len(cycle), arms) if cycle else GeneralizedStar(arms)


class Walks(NamedTuple):
    """The walks of a connected one-hub graph or of a linear forest.

    A walk is a tuple of vertex ids, and position p on it is its index p.
    For a connected graph ``hub`` is its vertex of degree 3 or more, else
    the lower-id end of a path or vertex 0 of a cycle, and ``legs`` and
    ``cycle`` are :func:`hub_walks` out of it: each starts at the hub, so
    position 0 is the hub on every one, and a lone path is its one leg (a
    lone vertex v the leg ``(v,)``). A leg of j + 1 vertices is an arm of
    length j, and the cycle's walk has g vertices, () for none. For a
    linear forest of two or more paths ``hub`` is None, ``cycle`` is empty
    and ``legs`` holds every path from its lower-id end, in the order of
    their least vertex. ``legs`` is a tuple: :func:`family_walks` hands
    the same walks to every caller of the graph.
    """

    hub: Optional[int]
    legs: tuple[tuple[int, ...], ...]
    cycle: tuple[int, ...]


# (adjacency, walks) of the graph family_walks walked last; the adjacency
# is held, so its id cannot be reused while the entry stands
_last_walked: tuple[Optional[tuple[tuple[int, ...], ...]], Optional[Walks]] = (None, None)


def family_walks(g: Graph) -> Optional[Walks]:
    """The walks of ``g`` if it is a connected graph with at most one vertex
    of degree 3 or more and at most n edges (a path, a cycle, a spider or a
    t-unicyclic graph) or a linear forest; None for every other graph.

    One scan of the degrees rejects two branch vertices or more than n
    edges. Then one walk goes out of the hub (:func:`hub_walks`), or, with
    no branch vertex, one from each path's lower-id end, or round the cycle
    through vertex 0 when no vertex is an end. The walks meet only at the
    hub, so they cover all n vertices exactly when ``g`` is one of those
    graphs: a second component is never walked. No components pass is
    run; O(n) in all. Each walk is passed on as :func:`hub_walks` made it
    (:class:`Walks`).

    The answer for the last graph walked, None included, is kept: a call
    on the same ``g.adjacency`` object returns it after one identity
    check, so the walks are immutable and shared. The entry holds that
    adjacency and its walks until another graph is walked (module
    docstring).
    """
    global _last_walked
    adjacency = g.adjacency
    last = _last_walked
    if last[0] is adjacency:
        return last[1]
    walked = _walk(adjacency)
    _last_walked = (adjacency, walked)
    return walked


def _walk(adjacency: tuple[tuple[int, ...], ...]) -> Optional[Walks]:
    """:func:`family_walks` without the memo."""
    n = len(adjacency)
    degrees = list(map(len, adjacency))
    if n == 0 or sum(degrees) > 2 * n:
        return None
    hubs = [v for v, d in enumerate(degrees) if d > 2]
    if len(hubs) > 1:
        return None
    if hubs:
        hub = hubs[0]
    else:
        paths: list[tuple[int, ...]] = []
        far_ends = set()
        for end in (v for v, d in enumerate(degrees) if d < 2):
            if end not in far_ends:
                legs = hub_walks(adjacency, end)[0]
                path = legs[0] if legs else (end,)
                far_ends.add(path[-1])
                paths.append(path)
        if paths:
            if sum(map(len, paths)) != n:
                return None  # some component is a cycle
            if len(paths) == 1:  # a path: its walk is the one leg at its end
                return Walks(paths[0][0], tuple(paths), ())
            paths.sort(key=min)
            return Walks(None, tuple(paths), ())
        hub = 0  # no end: cycles only, walked round through vertex 0
    legs, cycle = hub_walks(adjacency, hub)
    # each walk holds the hub, which the graph holds once
    walks = (*legs, cycle) if cycle else legs
    if sum(map(len, walks)) - len(walks) + 1 != n:
        return None
    return Walks(hub, legs, cycle)


def hub_walks(
    adjacency: Sequence[Sequence[int]], hub: int
) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """The walk along each leg at ``hub``, and the walk round the cycle
    through it (() for none), each a tuple that starts at the hub: index p
    is the p-th vertex out of the hub, the cycle's from one neighbour of
    the hub round to the other.

    Every vertex but ``hub`` must have degree at most 2, and at most one
    cycle may pass through ``hub``. With two, one cycle can be walked
    twice and the other missed: for triangles 0-1-3 and 0-2-4 the result
    is ``((), (0, 4, 2))``. A connected graph with at most n edges has at
    most one; :func:`family_walks` may hand over such a hub only in a graph
    with another component, whose walks then miss vertices and are
    rejected. Then the walk from each neighbour of the hub through
    degree-2 vertices ends at a leaf, after a leg's vertices, or back at
    the hub, after the cycle's other vertices, and the cycle's far end,
    the neighbour it came back from, is not walked again. Legs come in the
    hub's neighbour order. When the graph is connected and has at most as
    many edges as vertices (a one-hub graph, or a path or a cycle with any
    vertex as the hub), the walks hold every vertex. O(n) in all.
    """
    legs: list[tuple[int, ...]] = []
    cycle: tuple[int, ...] = ()
    for first in adjacency[hub]:
        if cycle and first == cycle[-1]:
            continue
        prev, v, walk = hub, first, [hub, first]
        while v != hub and len(adjacency[v]) == 2:
            a, b = adjacency[v]
            prev, v = v, (b if a == prev else a)
            walk.append(v)
        if v == hub:
            walk.pop()
            cycle = tuple(walk)
        else:
            legs.append(tuple(walk))
    return tuple(legs), cycle


# --------------------------------------------------------------------------
# Order decomposition n = q^2 + r
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class QRDecomposition:
    """n = q*q + r with 1 <= r <= 2q+1, i.e. q = ceil(sqrt(n)) - 1."""

    n: int
    q: int
    r: int


def qr_decompose(n: int) -> QRDecomposition:
    """Decompose n >= 2 as q^2 + r with 1 <= r <= 2q+1.

    The decomposition is unique once we fix q = ceil(sqrt(n)) - 1; perfect
    squares m^2 take q = m-1 and r = 2q+1.
    """
    if n < 2:
        raise ValueError(f"qr_decompose requires n >= 2, got {n}")
    q = ceil_sqrt(n) - 1
    return QRDecomposition(n=n, q=q, r=n - q * q)


# --------------------------------------------------------------------------
# Graph text format
# --------------------------------------------------------------------------

# Largest order a graph file may declare. The header is checked before
# anything is allocated, so a file cannot ask for more memory than about
# 100 bytes per vertex of this limit.
MAX_VERTICES = 1_000_000


def _data_lines(text: str) -> Iterator[str]:
    for line in text.splitlines():
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            yield stripped


def parse_graph(text: str) -> Graph:
    """Parse the edge-list format: "n m" header, then m lines "u v".

    Blank lines and lines starting with '#' are ignored anywhere. A header
    declaring more than ``MAX_VERTICES`` vertices is rejected.
    """
    lines = _data_lines(text)
    try:
        header = next(lines)
    except StopIteration:
        raise GraphFormatError("empty graph file") from None
    fields = header.split()
    if len(fields) != 2:
        raise GraphFormatError(f"expected header 'n m', got {header!r}")
    try:
        n, m = int(fields[0]), int(fields[1])
    except ValueError:
        raise GraphFormatError(f"non-integer header {header!r}") from None
    if n > MAX_VERTICES:
        raise GraphFormatError(f"header declares {n} vertices, more than {MAX_VERTICES}")
    edges = []
    for line in lines:
        fields = line.split()
        if len(fields) != 2:
            raise GraphFormatError(f"expected edge 'u v', got {line!r}")
        try:
            edges.append((int(fields[0]), int(fields[1])))
        except ValueError:
            raise GraphFormatError(f"non-integer edge {line!r}") from None
    if len(edges) != m:
        raise GraphFormatError(f"header declares {m} edges, found {len(edges)}")
    try:
        return Graph(n, edges)
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from None


def read_graph(source: Union[str, TextIO]) -> Graph:
    """Read a graph from a file path or an open text file."""
    if isinstance(source, str):
        with open(source, encoding="utf-8") as fh:
            return parse_graph(fh.read())
    return parse_graph(source.read())


def write_graph(g: Graph, target: Union[str, TextIO]) -> None:
    """Write a graph in the edge-list text format."""
    lines = [f"{g.vertex_count} {g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    payload = "\n".join(lines) + "\n"
    if isinstance(target, str):
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        target.write(payload)
