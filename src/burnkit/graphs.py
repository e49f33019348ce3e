"""Undirected simple graphs: representation, distances, family recognition.

Graphs are immutable after construction (adjacency stored as tuples), so
every operation in this module is pure and safe to share across threads.
Vertex ids are exactly 0..n-1.

Every distance comes from one breadth-first kernel that writes a given
fill value for unreachable vertices in the same pass. :func:`bfs_distances`
fills with the ``UNREACHABLE`` sentinel (-1). :func:`distance_rows` and
:func:`distance_matrix` fill with 2n, which exceeds every finite distance,
so callers can compare against it as infinity; a caller that reads only
some sources' rows asks :func:`distance_rows` for just those.

Recognition finds the components once and, for a graph with one branch
vertex, those of the graph minus that vertex once; the cycle of a
unicyclic graph is read off the latter, not searched for separately.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, TextIO, Union

from .intmath import ceil_sqrt

UNREACHABLE = -1


class GraphFormatError(ValueError):
    """Raised when a graph text file cannot be parsed."""


class Graph:
    """Immutable undirected simple graph on vertices 0..vertex_count-1."""

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

    @property
    def edge_count(self) -> int:
        return sum(len(nbrs) for nbrs in self.adjacency) // 2

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


@dataclass(frozen=True)
class DistanceTable:
    """Hop distances from one source; UNREACHABLE marks other components."""

    source: int
    dist: tuple[int, ...]


def _bfs(g: Graph, source: int, fill: int) -> list[int]:
    """Hop distances from ``source``, ``fill`` for other components.

    ``fill`` marks unvisited vertices during the search, so it must not be
    a distance, i.e. not in 0..n-1.
    """
    adjacency = g.adjacency
    if not 0 <= source < len(adjacency):
        raise ValueError(f"invalid source vertex {source}")
    dist = [fill] * len(adjacency)
    dist[source] = 0
    # the loop reads the list as it grows, so the list is the FIFO queue
    frontier = [source]
    for u in frontier:
        du = dist[u] + 1
        for v in adjacency[u]:
            if dist[v] == fill:
                dist[v] = du
                frontier.append(v)
    return dist


def bfs_distances(g: Graph, source: int) -> DistanceTable:
    """Exact hop distances from ``source`` to every vertex."""
    return DistanceTable(source=source, dist=tuple(_bfs(g, source, UNREACHABLE)))


def closed_ball(g: Graph, center: int, radius: int) -> frozenset[int]:
    """All vertices within ``radius`` hops of ``center`` (center included)."""
    if not 0 <= center < g.vertex_count:
        raise ValueError(f"invalid center vertex {center}")
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    table = bfs_distances(g, center)
    return frozenset(
        v for v, d in enumerate(table.dist) if d != UNREACHABLE and d <= radius
    )


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
    inf = 2 * g.vertex_count
    return [_bfs(g, s, inf) for s in sources]


def connected_components(g: Graph, excluded: Iterable[int] = ()) -> list[list[int]]:
    """Vertex lists of the connected components, each sorted, in id order.

    Vertices in ``excluded`` are removed from the graph first.
    """
    seen = [False] * g.vertex_count
    for v in excluded:
        seen[v] = True
    comps = []
    for s in range(g.vertex_count):
        if seen[s]:
            continue
        comp = [s]
        seen[s] = True
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for v in g.adjacency[u]:
                if not seen[v]:
                    seen[v] = True
                    comp.append(v)
                    queue.append(v)
        comps.append(sorted(comp))
    return comps


# --------------------------------------------------------------------------
# Family recognition
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Path:
    n: int


@dataclass(frozen=True)
class Cycle:
    g: int


@dataclass(frozen=True)
class LinearForest:
    parts: tuple[int, ...]  # path orders, descending


@dataclass(frozen=True)
class GeneralizedStar:
    arms: tuple[int, ...]  # arm lengths, descending; at least 3 arms


@dataclass(frozen=True)
class TUnicyclic:
    g: int
    arms: tuple[int, ...]  # arm lengths, descending; at least 1 arm

    @property
    def t(self) -> int:
        return len(self.arms)


@dataclass(frozen=True)
class Other:
    pass


FamilyDescriptor = Union[Path, Cycle, LinearForest, GeneralizedStar, TUnicyclic, Other]


def recognize_family(g: Graph) -> FamilyDescriptor:
    """Most specific structural family of ``g``, with canonical parameters.

    Arms and forest parts come out sorted descending. A plain cycle is
    reported as Cycle, never as a unicyclic graph with no arms. Among
    disconnected graphs only linear forests are recognized; everything
    else falls through to Other. A connected graph with one branch vertex
    (the hub) and at most n edges is decided by one components pass over
    g - hub: a generalized star, or a t-unicyclic graph whose cycle is
    the component that meets the hub twice.
    """
    n = g.vertex_count
    if n == 0:
        return Other()
    comps = connected_components(g)
    m = g.edge_count
    hubs = [v for v in range(n) if g.degree(v) >= 3]

    if len(comps) > 1:
        # degrees at most 2 and no cycle: every component is a path
        if hubs or m != n - len(comps):
            return Other()
        return LinearForest(tuple(sorted((len(c) for c in comps), reverse=True)))

    if not hubs:  # connected with degrees at most 2
        return Path(n) if m == n - 1 else Cycle(n)

    if len(hubs) > 1 or m > n:
        return Other()

    # With one hub every component of g - hub is a path that meets the hub
    # only at its ends. A component meeting it at both ends closes the
    # cycle (m == n allows one); every other component is an arm.
    hub = hubs[0]
    neighbours = set(g.adjacency[hub])
    cycle, arms = 0, []
    for comp in connected_components(g, (hub,)):
        if len(neighbours.intersection(comp)) == 2:
            cycle = len(comp) + 1
        else:
            arms.append(len(comp))
    arms.sort(reverse=True)
    return TUnicyclic(cycle, tuple(arms)) if cycle else GeneralizedStar(tuple(arms))


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
