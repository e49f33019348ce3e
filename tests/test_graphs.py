import io
import itertools
import pathlib
import random
import sys
import threading
from collections import deque

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from burnkit import graphs as graphs_module
from burnkit.graphs import (
    MAX_VERTICES,
    Cycle,
    GeneralizedStar,
    Graph,
    GraphFormatError,
    LinearForest,
    Other,
    Path,
    TUnicyclic,
    Walks,
    _bfs,
    _walk,
    component_sweeps,
    connected_components,
    distance_matrix,
    distance_rows,
    eccentricities,
    family_walks,
    hub_walks,
    parse_graph,
    qr_decompose,
    read_graph,
    recognize_family,
    write_graph,
)
from burnkit.families import SWEEP_CLASSES, build, enumerate_sweep
from burnkit.intmath import ceil_div, ceil_sqrt, counting_lower


@st.composite
def graphs(draw, max_n=10):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    return Graph(n, edges)


def reference_bfs(g, source):
    """Distances from ``source`` by the deque BFS the kernel replaced.

    Unreachable vertices read -1, a marker these tests keep for themselves.
    """
    if not 0 <= source < g.vertex_count:
        raise ValueError(f"invalid source vertex {source}")
    dist = [-1] * g.vertex_count
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in g.adjacency[u]:
            if dist[v] == -1:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def reference_matrix(g):
    """The all-pairs matrix built in two passes: -1, then 2*n."""
    inf = 2 * g.vertex_count
    return [
        [inf if d == -1 else d for d in reference_bfs(g, s)]
        for s in range(g.vertex_count)
    ]


def reference_components(g, excluded=()):
    """connected_components by the deque BFS it ran before the shared kernel,
    with the vertices of ``excluded`` removed first (the reference
    recognizers below remove the hub or the cycle)."""
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


@st.composite
def sparse_graphs(draw, max_n=14):
    """A random tree plus up to two extra edges, under random vertex ids."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    perm = draw(st.permutations(range(n)))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    if n >= 2:
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=2)))
    return Graph(n, [(perm[u], perm[v]) for u, v in edges])


def relabelled(g, perm):
    """``g`` with vertex v renamed perm[v]."""
    return Graph(g.vertex_count, [(perm[u], perm[v]) for u, v in g.edges()])


def reference_cycle_vertices(g):
    """Vertices on cycles (the 2-core), found by stripping leaves repeatedly."""
    degree = [len(nbrs) for nbrs in g.adjacency]
    queue = deque(v for v in range(g.vertex_count) if degree[v] == 1)
    removed = [False] * g.vertex_count
    while queue:
        u = queue.popleft()
        removed[u] = True
        for v in g.adjacency[u]:
            if not removed[v]:
                degree[v] -= 1
                if degree[v] == 1:
                    queue.append(v)
    return [v for v in range(g.vertex_count) if not removed[v] and degree[v] >= 2]


def reference_recognize(g):
    """recognize_family as it was before the one-pass hub decomposition."""

    def component_is_path(comp):
        if len(comp) == 1:
            return g.degree(comp[0]) == 0
        degs = [g.degree(v) for v in comp]
        return degs.count(1) == 2 and all(d <= 2 for d in degs)

    n = g.vertex_count
    if n == 0:
        return Other()
    comps = connected_components(g)
    if len(comps) > 1:
        if all(component_is_path(c) for c in comps):
            return LinearForest(tuple(sorted((len(c) for c in comps), reverse=True)))
        return Other()
    m = g.edge_count
    hubs = [v for v in range(n) if g.degree(v) >= 3]
    if not hubs:
        if m == n - 1:
            return Path(n)
        if m == n and n >= 3:
            return Cycle(n)
        return Other()
    if len(hubs) > 1:
        return Other()
    hub = hubs[0]
    if m == n - 1:
        arms = tuple(sorted((len(c) for c in reference_components(g, (hub,))), reverse=True))
        if len(arms) >= 3 and sum(arms) + 1 == n:
            return GeneralizedStar(arms)
        return Other()
    if m == n:
        core = reference_cycle_vertices(g)
        if hub not in core:
            return Other()
        arms = tuple(sorted((len(c) for c in reference_components(g, core)), reverse=True))
        if arms and sum(arms) + len(core) == n:
            return TUnicyclic(g=len(core), arms=arms)
        return Other()
    return Other()


def components_recognize(g):
    """recognize_family as it was before the walk out of the hub: one
    components pass over g - hub, the cycle being the component that meets
    the hub twice."""
    n = g.vertex_count
    if n == 0:
        return Other()
    comps = connected_components(g)
    m = g.edge_count
    hubs = [v for v in range(n) if g.degree(v) >= 3]
    if len(comps) > 1:
        if hubs or m != n - len(comps):
            return Other()
        return LinearForest(tuple(sorted((len(c) for c in comps), reverse=True)))
    if not hubs:
        return Path(n) if m == n - 1 else Cycle(n)
    if len(hubs) > 1 or m > n:
        return Other()
    hub = hubs[0]
    neighbours = set(g.adjacency[hub])
    cycle, arms = 0, []
    for comp in reference_components(g, (hub,)):
        if len(neighbours.intersection(comp)) == 2:
            cycle = len(comp) + 1
        else:
            arms.append(len(comp))
    arms.sort(reverse=True)
    return TUnicyclic(cycle, tuple(arms)) if cycle else GeneralizedStar(tuple(arms))


def descending_tuples(max_sum, min_count):
    """Every descending tuple of at least ``min_count`` positive parts that
    sum to at most ``max_sum``."""

    def rec(prefix, left, largest):
        if len(prefix) >= min_count:
            yield prefix
        for part in range(min(largest, left), 0, -1):
            yield from rec(prefix + (part,), left - part, part)

    return rec((), max_sum, max_sum)


def one_hub_shapes(max_order):
    """Every generalized star and t-unicyclic graph (t >= 1) of order at
    most ``max_order``."""
    for legs in descending_tuples(max_order - 1, 3):
        yield GeneralizedStar(legs)
    for cycle in range(3, max_order):
        for arms in descending_tuples(max_order - cycle, 1):
            yield TUnicyclic(g=cycle, arms=arms)


def grid(rows, cols):
    edges = [(i * cols + j, i * cols + j + 1) for i in range(rows) for j in range(cols - 1)]
    edges += [(i * cols + j, (i + 1) * cols + j) for i in range(rows - 1) for j in range(cols)]
    return Graph(rows * cols, edges)


DISTANCE_CASES = [
    build("path:1"),
    build("path:12"),
    build("cycle:3"),
    build("cycle:11"),
    build("uni:7;4"),
    build("uni:9;10,2"),
    build("star:4,3,2"),
    grid(4, 5),
    grid(1, 6),
    build("forest:5,3,1"),
    build("forest:2,2,1,1"),
    Graph(5),
    Graph(7, [(0, 1), (1, 2), (2, 0), (4, 5)]),
]


class TestGraph:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(2, [(0, 0)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(ValueError, match="duplicate"):
            Graph(3, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph(2, [(0, 2)])

    def test_adjacency_sorted_and_symmetric(self):
        g = Graph(4, [(2, 0), (0, 1), (3, 0)])
        assert g.adjacency[0] == (1, 2, 3)
        for u, v in g.edges():
            assert u in g.adjacency[v] and v in g.adjacency[u]


# edges input from outside must never reach the unchecked constructor,
# with the message each one is refused with
BAD_EDGES = [
    (3, [(0, 1), (1, 3)], "edge (1,3) out of range for n=3"),
    (3, [(-1, 2)], "edge (-1,2) out of range for n=3"),
    (3, [(0, 1), (2, 2)], "self-loop at vertex 2"),
    (3, [(0, 1), (1, 2), (1, 0)], "duplicate edge (1,0)"),
    (3, [(2, 1), (2, 1)], "duplicate edge (2,1)"),
]


class TestOutsideInputChecked:
    """``Graph(n, edges)``, ``parse_graph`` and ``read_graph`` check every
    edge; only ``families.build`` uses the unchecked ``_from_adjacency``."""

    @pytest.mark.parametrize("n,edges,message", BAD_EDGES)
    def test_constructor_rejects(self, n, edges, message):
        with pytest.raises(ValueError) as info:
            Graph(n, edges)
        assert str(info.value) == message

    @pytest.mark.parametrize("n,edges,message", BAD_EDGES)
    def test_parse_graph_rejects(self, n, edges, message, tmp_path):
        text = f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)
        with pytest.raises(GraphFormatError) as info:
            parse_graph(text)
        assert str(info.value) == message
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(GraphFormatError) as info:
            read_graph(str(path))
        assert str(info.value) == message

    def test_only_build_skips_the_checks(self, monkeypatch, tmp_path):
        unchecked = Graph._from_adjacency.__func__
        callers = []

        def spy(cls, adjacency):
            caller = sys._getframe(1)
            callers.append((caller.f_globals["__name__"], caller.f_code.co_name))
            return unchecked(cls, adjacency)

        monkeypatch.setattr(Graph, "_from_adjacency", classmethod(spy))
        specs = ["path:7", "cycle:5", "forest:4,2", "star:3,2,1", "uni:5;3,1"]
        built = [build(spec) for spec in specs]
        assert callers == [("burnkit.families", "build")] * len(specs)
        del callers[:]
        for g in built:
            buf = io.StringIO()
            write_graph(g, buf)
            path = tmp_path / "g.txt"
            path.write_text(buf.getvalue())
            assert parse_graph(buf.getvalue()) == g
            assert read_graph(str(path)) == g
            assert read_graph(io.StringIO(buf.getvalue())) == g
        assert callers == []

    def test_no_other_module_names_it(self):
        import burnkit

        package = pathlib.Path(burnkit.__file__).parent
        users = sorted(f.name for f in package.glob("*.py") if "_from_adjacency(" in f.read_text())
        assert users == ["families.py", "graphs.py"]

    def test_private_constructor_not_exported(self):
        import burnkit

        assert "_from_adjacency" not in burnkit.__all__
        assert not any(name.startswith("_") for name in burnkit.__all__)


class TestBfs:
    """The kernel's distances as ``distance_rows`` returns them: 2n if unreachable."""

    def test_cycle4(self):
        assert distance_rows(build("cycle:4"), [0]) == [[0, 1, 2, 1]]

    def test_single_vertex(self):
        assert distance_rows(build("path:1"), [0]) == [[0]]

    def test_disconnected_marks_unreachable(self):
        (row,) = distance_rows(build("forest:2,2"), [0])
        assert row == [0, 1, 8, 8]

    def test_invalid_source(self):
        with pytest.raises(ValueError, match="invalid source vertex 3"):
            distance_rows(build("path:3"), [3])

    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_symmetry_and_triangle(self, g):
        n = g.vertex_count
        d = distance_matrix(g)
        for u in range(n):
            for v in range(n):
                assert d[u][v] == d[v][u]
        # 2n exceeds any sum of two finite distances, so it caps the sum as infinity
        inf = 2 * n
        for u in range(n):
            for v in range(n):
                for w in range(n):
                    assert d[u][v] <= min(d[u][w] + d[w][v], inf)

    @given(graphs())
    @settings(max_examples=40, deadline=None)
    def test_edge_distance_gap(self, g):
        inf = 2 * g.vertex_count
        for dist in distance_matrix(g):
            for u, v in g.edges():
                assert (dist[u] == inf) == (dist[v] == inf)
                if dist[u] != inf:
                    assert abs(dist[u] - dist[v]) <= 1

    @pytest.mark.parametrize("g", DISTANCE_CASES, ids=repr)
    def test_kernel_returns_reached_vertices_in_bfs_order(self, g):
        n = g.vertex_count
        for s in range(n):
            dist = [2 * n] * n
            reached = _bfs(g, s, dist)
            assert reached[0] == s
            assert sorted(reached) == [v for v in range(n) if dist[v] < 2 * n]
            assert [dist[v] for v in reached] == sorted(dist[v] for v in reached)


class TestDistanceRows:
    @pytest.mark.parametrize("g", DISTANCE_CASES, ids=repr)
    def test_matrix_matches_reference(self, g):
        assert distance_matrix(g) == reference_matrix(g)

    @pytest.mark.parametrize("g", DISTANCE_CASES, ids=repr)
    def test_rows_are_matrix_rows(self, g):
        ref = reference_matrix(g)
        n = g.vertex_count
        rng = random.Random(n)
        for _ in range(5):
            sources = [rng.randrange(n) for _ in range(rng.randint(1, n + 2))]
            assert distance_rows(g, sources) == [ref[s] for s in sources]
        assert distance_rows(g, range(n)) == ref
        assert distance_rows(g, ()) == []

    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_random_graphs_match_reference(self, g):
        assert distance_rows(g, range(g.vertex_count)) == reference_matrix(g)

    @pytest.mark.parametrize("source", [-1, 5, 6])
    def test_invalid_source(self, source):
        with pytest.raises(ValueError):
            distance_rows(build("path:5"), [0, source])


class TestComponents:
    @given(graphs(max_n=12), st.integers(min_value=0, max_value=4))
    @settings(max_examples=80, deadline=None)
    def test_matches_reference(self, g, isolated):
        g = Graph(g.vertex_count + isolated, g.edges())
        assert connected_components(g) == reference_components(g)

    def test_isolated_vertices(self):
        assert connected_components(Graph(4)) == [[0], [1], [2], [3]]


def reference_eccentricities(g):
    """Each vertex's largest finite distance, one search per vertex."""
    return [max(reference_bfs(g, v)) for v in range(g.vertex_count)]


def forests_and_mixes():
    """Forests, graphs with a cycle and disconnected mixes of both, with
    isolated vertices, under random vertex ids."""
    rng = random.Random(34)
    blocks = [Graph(1), build("path:6"), build("star:3,2,2"), build("cycle:5"), build("uni:4;3,1"), grid(3, 4)]
    for _ in range(150):
        parts = [rng.choice(blocks) for _ in range(rng.randint(1, 4))]
        edges, start = [], 0
        for part in parts:
            edges += [(start + u, start + v) for u, v in part.edges()]
            start += part.vertex_count
        perm = list(range(start))
        rng.shuffle(perm)
        yield Graph(start, [(perm[u], perm[v]) for u, v in edges])
    for _ in range(50):
        n = rng.randint(2, 40)
        tree = [(rng.randrange(v), v) for v in range(1, n)]
        yield Graph(n, tree[rng.randint(0, 3):])


class TestSweeps:
    @given(graphs(max_n=12), st.integers(min_value=0, max_value=4))
    @settings(max_examples=80, deadline=None)
    def test_sweep_contract(self, g, isolated):
        # one list per component in id order of its least vertex, starting
        # there and ending at a vertex farthest from it
        g = Graph(g.vertex_count + isolated, g.edges())
        sweeps = component_sweeps(g)
        assert [sweep[0] for sweep in sweeps] == [min(sweep) for sweep in sweeps]
        assert [sweep[0] for sweep in sweeps] == sorted(sweep[0] for sweep in sweeps)
        for sweep in sweeps:
            dist = reference_bfs(g, sweep[0])
            assert dist[sweep[-1]] == max(dist)
            assert [dist[v] for v in sweep] == sorted(dist[v] for v in sweep)
        assert connected_components(g) == [sorted(sweep) for sweep in sweeps]

    @given(graphs(max_n=12), st.integers(min_value=0, max_value=3))
    @settings(max_examples=120, deadline=None)
    def test_eccentricities_match_reference(self, g, isolated):
        g = Graph(g.vertex_count + isolated, g.edges())
        assert eccentricities(g, component_sweeps(g)) == reference_eccentricities(g)

    @given(sparse_graphs(max_n=20))
    @settings(max_examples=120, deadline=None)
    def test_sparse_graphs(self, g):
        assert eccentricities(g, component_sweeps(g)) == reference_eccentricities(g)

    def test_forests_cycles_and_mixes(self):
        shapes = [Graph(1), Graph(5), *DISTANCE_CASES, *forests_and_mixes()]
        kinds = set()
        for g in shapes:
            components = len(connected_components(g))
            kinds.add((g.edge_count == g.vertex_count - components, components > 1))
            assert eccentricities(g, component_sweeps(g)) == reference_eccentricities(g), g
        # forests and graphs with a cycle, connected and not
        assert kinds == {(True, True), (True, False), (False, True), (False, False)}


class TestRecognize:
    def test_unicyclic_two_arms(self):
        assert recognize_family(build("uni:4;4,4")) == TUnicyclic(g=4, arms=(4, 4))

    def test_linear_forest(self):
        assert recognize_family(build("forest:3,2,1")) == LinearForest((3, 2, 1))

    def test_claw_is_star(self):
        assert recognize_family(build("star:1,1,1")) == GeneralizedStar((1, 1, 1))

    def test_path_and_cycle(self):
        assert recognize_family(build("path:6")) == Path(6)
        assert recognize_family(build("path:1")) == Path(1)
        assert recognize_family(build("cycle:3")) == Cycle(3)

    def test_cycle_not_reported_as_unicyclic(self):
        assert recognize_family(build("cycle:7")) == Cycle(7)

    def test_other_cases(self):
        # two branch vertices
        g = Graph(6, [(0, 1), (0, 2), (0, 3), (3, 4), (3, 5), (1, 2)])
        assert recognize_family(g) == Other()
        # disconnected with a cycle component
        h = Graph(5, [(0, 1), (1, 2), (2, 0)])
        assert recognize_family(h) == Other()
        assert recognize_family(Graph(0)) == Other()

    @given(graphs())
    @settings(max_examples=100, deadline=None)
    def test_random_graphs_match_reference(self, g):
        assert recognize_family(g) == reference_recognize(g)

    @given(sparse_graphs())
    @settings(max_examples=300, deadline=None)
    def test_sparse_graphs_match_reference(self, g):
        assert recognize_family(g) == reference_recognize(g)

    @given(
        st.sampled_from([None, 3, 4, 5, 9]),
        st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=5),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_relabelled_one_hub_graphs_match_reference(self, cycle, arms, rng):
        assume(cycle is not None or len(arms) >= 3)
        arms = tuple(sorted(arms, reverse=True))
        desc = GeneralizedStar(arms) if cycle is None else TUnicyclic(cycle, arms)
        perm = list(range(sum(arms) + (cycle or 1)))
        rng.shuffle(perm)
        g = relabelled(build(desc), perm)
        assert recognize_family(g) == reference_recognize(g) == desc
        assert components_recognize(g) == desc

    def test_hub_walks_are_the_legs_and_the_cycle(self):
        rng = random.Random(21)
        cases = [(Path(9), (8,), 0), (Cycle(9), (), 9)]
        cases += [(desc, desc.arms, getattr(desc, "g", 0)) for desc in one_hub_shapes(13)]
        for desc, arms, cycle_length in cases:
            g = build(desc)
            perm = list(range(g.vertex_count))
            rng.shuffle(perm)
            g = relabelled(g, perm)
            # a path is walked from an end, a cycle from any vertex
            pick = min if isinstance(desc, Path) else max
            hub = pick(range(g.vertex_count), key=g.degree)
            legs, cycle = hub_walks(g.adjacency, hub)
            walks = (*legs, cycle) if cycle else legs
            # every walk is a tuple that starts at the hub
            assert all(type(walk) is tuple and walk[0] == hub for walk in walks), desc
            assert tuple(sorted((len(leg) - 1 for leg in legs), reverse=True)) == arms, desc
            assert len(cycle) == cycle_length, desc
            walked = [v for walk in walks for v in walk[1:]]
            assert sorted([hub, *walked]) == list(range(g.vertex_count)), desc
            for walk in legs:
                assert g.degree(walk[-1]) == 1, desc
            closed = [(*cycle, hub)] if cycle else []
            for walk in [*legs, *closed]:
                assert all(v in g.adjacency[u] for u, v in zip(walk, walk[1:])), desc

    def test_unions_of_walkable_components_match_reference(self):
        # paths, cycles, spiders and t-unicyclic graphs side by side: only
        # a union of paths is recognized, and family_walks walks exactly
        # the recognized graphs, each vertex once
        rng = random.Random(23)
        shapes = [Path(1), Path(2), Path(5), Cycle(3), Cycle(6)]
        shapes += [GeneralizedStar((2, 1, 1)), TUnicyclic(4, (2,)), TUnicyclic(3, (1, 1))]
        kinds = set()
        for _ in range(600):
            blocks = [build(rng.choice(shapes)) for _ in range(rng.randint(1, 3))]
            edges, start = [], 0
            for block in blocks:
                edges += [(start + u, start + v) for u, v in block.edges()]
                start += block.vertex_count
            perm = list(range(start))
            rng.shuffle(perm)
            g = Graph(start, [(perm[u], perm[v]) for u, v in edges])
            family = recognize_family(g)
            assert family == reference_recognize(g)
            kinds.add(type(family).__name__)
            walked = family_walks(g)
            assert (walked is None) == (family == Other())
            if walked is not None:
                hub, legs, cycle = walked
                if hub is None:
                    vertices = [v for walk in legs for v in walk]
                else:
                    # each walk out of the hub starts there
                    walks = (*legs, cycle) if cycle else legs
                    assert all(walk[0] == hub for walk in walks)
                    vertices = [hub, *(v for walk in walks for v in walk[1:])]
                assert sorted(vertices) == list(range(start))
                if hub is None:
                    # each path from its lower-id end, paths by least vertex
                    assert all(path[0] < path[-1] or len(path) == 1 for path in legs)
                    assert list(legs) == sorted(legs, key=min)
        assert kinds == {"Path", "Cycle", "LinearForest", "GeneralizedStar", "TUnicyclic", "Other"}

    def test_one_hub_walk_matches_components(self):
        rng = random.Random(20)
        count = 0
        for desc in one_hub_shapes(20):
            g = build(desc)
            perm = list(range(g.vertex_count))
            rng.shuffle(perm)
            for h in (g, relabelled(g, perm)):
                assert recognize_family(h) == components_recognize(h) == desc
            count += 1
        assert count == 6541

    @pytest.mark.parametrize(
        "g",
        [
            # two cycles through one hub: m > n
            Graph(5, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)]),
            Graph(8, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0), (0, 5), (5, 6), (2, 7)]),
            Graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)]),
            # a second branch vertex off the cycle
            Graph(7, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (3, 5), (3, 6)]),
        ],
        ids=repr,
    )
    def test_other_one_hub_cases_match_reference(self, g):
        assert recognize_family(g) == reference_recognize(g) == Other()

    @pytest.mark.parametrize("family_class", SWEEP_CLASSES)
    def test_sweep_classes_match_reference(self, family_class):
        for desc in enumerate_sweep(family_class, 16):
            g = build(desc)
            assert recognize_family(g) == reference_recognize(g), desc

    def test_stars_match_reference(self):
        for t in range(3, 6):
            for arms in itertools.combinations_with_replacement(range(5, 0, -1), t):
                g = build(GeneralizedStar(arms))
                assert recognize_family(g) == reference_recognize(g) == GeneralizedStar(arms)

    def test_components(self):
        comps = connected_components(build("forest:3,1"))
        assert comps == [[0, 1, 2], [3]]


def fresh_walks(g):
    """``family_walks(g)`` walked by this file's own code, with no memo:
    a components pass, then hub_walks out of the hub (or a path's lower-id
    end, or vertex 0 of a cycle), or one walk along each path."""
    n = g.vertex_count
    if n == 0 or g.edge_count > n:
        return None
    hubs = [v for v in range(n) if g.degree(v) > 2]
    comps = connected_components(g)
    if len(hubs) > 1 or (hubs and len(comps) > 1):
        return None
    if len(comps) == 1:
        ends = [v for v in range(n) if g.degree(v) < 2]
        hub = hubs[0] if hubs else min(ends, default=0)
        if n == 1:
            return (hub, ((hub,),), ())  # a lone vertex is its own walk
        legs, cycle = hub_walks(g.adjacency, hub)
        walks = (*legs, cycle) if cycle else legs
        if 1 + sum(len(walk) - 1 for walk in walks) != n:
            return None
        return (hub, legs, cycle)
    paths = []
    for comp in comps:
        ends = [v for v in comp if g.degree(v) < 2]
        if not ends:
            return None  # a cycle
        legs, _ = hub_walks(g.adjacency, ends[0])
        paths.append(legs[0] if legs else (ends[0],))
    return (None, tuple(paths), ())


def walk_shapes():
    """Graphs of order 10 of every kind family_walks tells apart: a path, a
    cycle, one-hub graphs, linear forests, and Others with two branch
    vertices, two cycles or a cycle beside a path.

    CPython builds a tuple from a generator in a block of 10 slots that it
    takes from the tuples freed last, so one adjacency tuple of order 10
    gets the id of another freed just before.
    """
    shapes = [build(spec) for spec in ("path:10", "cycle:10", "forest:4,3,3", "forest:5,2,1,1,1")]
    shapes += [g for g in map(build, one_hub_shapes(10)) if g.vertex_count == 10]
    shapes.append(Graph(10))
    shapes.append(Graph(10, [(v, v + 1) for v in range(7)] + [(1, 8), (3, 9)]))
    shapes.append(Graph(10, [(v, (v + 1) % 5) for v in range(5)] + [(5 + v, 5 + (v + 1) % 5) for v in range(5)]))
    shapes.append(Graph(10, [(0, 1), (1, 2), (2, 0)] + [(v, v + 1) for v in range(3, 9)]))
    return shapes


def assert_fresh(walked, g):
    assert walked == fresh_walks(g), g
    if walked is not None:
        hub, legs, cycle = walked
        assert type(legs) is tuple and type(cycle) is tuple
        assert all(type(leg) is tuple for leg in legs)


def reference_walk(adjacency):
    """``_walk`` as it was when it walked a lone path a second time, out of
    its lower-id end, after finding it."""
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
        paths = []
        far_ends = set()
        for end in (v for v, d in enumerate(degrees) if d < 2):
            if end not in far_ends:
                legs = hub_walks(adjacency, end)[0]
                path = legs[0] if legs else (end,)
                far_ends.add(path[-1])
                paths.append(path)
        if len(paths) > 1:
            if sum(map(len, paths)) != n:
                return None
            paths.sort(key=min)
            return Walks(None, tuple(paths), ())
        hub = paths[0][0] if paths else 0
    legs, cycle = hub_walks(adjacency, hub)
    walks = (*legs, cycle) if cycle else legs
    if 1 + sum(len(walk) - 1 for walk in walks) != n:
        return None
    return Walks(hub, legs if walks else ((hub,),), cycle)  # a lone vertex is its own walk


class TestOneWalkPerPath:
    def test_path_walked_once(self, monkeypatch):
        calls = []
        walk = graphs_module.hub_walks

        def counting(adjacency, hub):
            calls.append(hub)
            return walk(adjacency, hub)

        monkeypatch.setattr(graphs_module, "hub_walks", counting)
        rng = random.Random(34)
        for n in range(1, 61):
            g = build(Path(n))
            perm = list(range(n))
            rng.shuffle(perm)
            for h in (g, relabelled(g, perm)):
                walked = _walk(h.adjacency)
                assert len(calls) == 1, n
                assert walked.hub == calls.pop() == min(v for v in range(n) if h.degree(v) < 2)
                assert walked == reference_walk(h.adjacency)

    def test_same_walks_as_before(self):
        # every path, cycle, linear forest, spider and t-unicyclic graph to
        # order 20, and the Others of walk_shapes, as built and relabelled
        rng = random.Random(35)
        shapes = [Path(n) for n in range(1, 21)] + [Cycle(n) for n in range(3, 21)]
        shapes += [LinearForest(parts) for parts in descending_tuples(20, 2)]
        shapes += list(one_hub_shapes(20))
        graphs_ = [build(desc) for desc in shapes] + walk_shapes()
        for g in graphs_:
            perm = list(range(g.vertex_count))
            rng.shuffle(perm)
            for h in (g, relabelled(g, perm)):
                assert _walk(h.adjacency) == reference_walk(h.adjacency), h
        assert len(shapes) == 9272


class TestWalkMemo:
    def test_graphs_built_and_dropped_in_turn(self):
        # each graph is dropped before the next is built, so later graphs
        # get the ids of earlier adjacency tuples (walk_shapes)
        rng = random.Random(30)
        shapes = walk_shapes()
        ids = set()
        for _ in range(2000):
            shape = rng.choice(shapes)
            perm = list(range(shape.vertex_count))
            rng.shuffle(perm)
            g = relabelled(shape, perm)
            ids.add(id(g.adjacency))
            assert_fresh(family_walks(g), g)
            del g
        assert len(ids) < 1000  # ids were reused

    def test_equal_adjacency_distinct_objects(self):
        for spec in ("uni:5;4,3", "forest:4,3,1", "cycle:8"):
            g, h = build(spec), build(spec)
            assert g.adjacency == h.adjacency and g.adjacency is not h.adjacency
            for graph in (g, h, g, h):
                assert_fresh(family_walks(graph), graph)

    def test_alternating_graphs_of_one_order(self):
        # nine vertices each: one key per order would serve stale walks
        graphs = [build(spec) for spec in ("uni:5;4", "forest:5,4", "path:9", "star:4,2,2")]
        graphs.append(Graph(9, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (3, 5), (6, 7)]))
        for _ in range(3):
            for g in graphs:
                assert_fresh(family_walks(g), g)
                assert_fresh(family_walks(g), g)

    def test_threads_alternating_two_graphs(self):
        graphs = [build("uni:5;4,3"), build("forest:6,5,1")]
        expected = [fresh_walks(g) for g in graphs]
        wrong = []

        def walk(offset):
            for i in range(2000):
                j = (i + offset) % 2
                if family_walks(graphs[j]) != expected[j]:
                    wrong.append((offset, i))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            threads = [threading.Thread(target=walk, args=(offset,)) for offset in (0, 1)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        assert wrong == []


class TestQr:
    @pytest.mark.parametrize(
        "n,q,r", [(10, 3, 1), (16, 3, 7), (12, 3, 3), (2, 1, 1), (4, 1, 3), (50, 7, 1)]
    )
    def test_examples(self, n, q, r):
        qr = qr_decompose(n)
        assert (qr.q, qr.r) == (q, r)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            qr_decompose(1)

    def test_full_range_invariant(self):
        for n in range(2, 10**6 + 1):
            qr = qr_decompose(n)
            assert qr.q * qr.q < n <= qr.q * qr.q + 2 * qr.q + 1
            assert ceil_sqrt(n) == qr.q + 1


class TestIntMath:
    def test_ceil_sqrt_exact(self):
        for n in range(0, 5000):
            s = ceil_sqrt(n)
            assert s * s >= n and (s == 0 or (s - 1) * (s - 1) < n)

    def test_ceil_div(self):
        assert ceil_div(7, 2) == 4
        assert ceil_div(8, 2) == 4

    def test_counting_lower_is_least_k(self):
        # the loop the closed form replaces
        for t in range(12):
            for n in range(1, 3000):
                k = 1
                while k * k + t * (k - 1) < n:
                    k += 1
                assert counting_lower(n, t) == k, (n, t)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ceil_sqrt(-1)


class TestGraphFormat:
    def test_round_trip(self, tmp_path):
        g = build("uni:4;2,1")
        path = str(tmp_path / "g.txt")
        write_graph(g, path)
        assert read_graph(path) == g

    def test_round_trip_file_objects(self):
        g = build("forest:3,2")
        buf = io.StringIO()
        write_graph(g, buf)
        assert read_graph(io.StringIO(buf.getvalue())) == g

    def test_comments_and_blanks_ignored(self):
        text = "# a triangle\n\n3 3\n0 1\n\n1 2\n# done\n2 0\n"
        assert parse_graph(text) == build("cycle:3")

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "3\n",
            "3 1\n0 1\n1 2\n",
            "3 2\n0 1\n",
            "2 1\n0 x\n",
            "2 2\n0 1\n1 0\n",
        ],
    )
    def test_malformed_rejected(self, text):
        with pytest.raises(GraphFormatError):
            parse_graph(text)

    @pytest.mark.parametrize("n", [MAX_VERTICES + 1, 100000000000])
    def test_huge_header_rejected_before_allocation(self, n):
        with pytest.raises(GraphFormatError, match="more than"):
            parse_graph(f"{n} 0\n")

    @given(graphs())
    @settings(max_examples=30, deadline=None)
    def test_round_trip_random(self, g):
        buf = io.StringIO()
        write_graph(g, buf)
        assert parse_graph(buf.getvalue()) == g
