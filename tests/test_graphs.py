import io
import itertools
import random
from collections import deque

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from burnkit.graphs import (
    MAX_VERTICES,
    UNREACHABLE,
    Cycle,
    GeneralizedStar,
    Graph,
    GraphFormatError,
    LinearForest,
    Other,
    Path,
    TUnicyclic,
    bfs_distances,
    closed_ball,
    connected_components,
    distance_matrix,
    distance_rows,
    parse_graph,
    qr_decompose,
    read_graph,
    recognize_family,
    write_graph,
)
from burnkit.families import SWEEP_CLASSES, build, enumerate_sweep
from burnkit.intmath import ceil_div, ceil_sqrt, counting_lower, is_square


@st.composite
def graphs(draw, max_n=10):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    return Graph(n, edges)


def reference_bfs(g, source):
    """Distances from ``source`` by the deque BFS the kernel replaced."""
    if not 0 <= source < g.vertex_count:
        raise ValueError(f"invalid source vertex {source}")
    dist = [UNREACHABLE] * g.vertex_count
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in g.adjacency[u]:
            if dist[v] == UNREACHABLE:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def reference_matrix(g):
    """The all-pairs matrix built in two passes: UNREACHABLE, then 2*n."""
    inf = 2 * g.vertex_count
    return [
        [inf if d == UNREACHABLE else d for d in reference_bfs(g, s)]
        for s in range(g.vertex_count)
    ]


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
        arms = tuple(sorted((len(c) for c in connected_components(g, (hub,))), reverse=True))
        if len(arms) >= 3 and sum(arms) + 1 == n:
            return GeneralizedStar(arms)
        return Other()
    if m == n:
        core = reference_cycle_vertices(g)
        if hub not in core:
            return Other()
        arms = tuple(sorted((len(c) for c in connected_components(g, core)), reverse=True))
        if arms and sum(arms) + len(core) == n:
            return TUnicyclic(g=len(core), arms=arms)
        return Other()
    return Other()


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


class TestBfs:
    def test_cycle4(self):
        table = bfs_distances(build("cycle:4"), 0)
        assert table.dist == (0, 1, 2, 1)

    def test_single_vertex(self):
        assert bfs_distances(build("path:1"), 0).dist == (0,)

    def test_disconnected_marks_unreachable(self):
        table = bfs_distances(build("forest:2,2"), 0)
        assert table.dist[1] == 1
        assert table.dist[2] == UNREACHABLE and table.dist[3] == UNREACHABLE

    def test_invalid_source(self):
        with pytest.raises(ValueError):
            bfs_distances(build("path:3"), 3)

    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_symmetry_and_triangle(self, g):
        tables = [bfs_distances(g, s).dist for s in range(g.vertex_count)]
        n = g.vertex_count
        for u in range(n):
            for v in range(n):
                assert tables[u][v] == tables[v][u]
        inf = n + 1
        d = [[inf if x == UNREACHABLE else x for x in row] for row in tables]
        for u in range(n):
            for v in range(n):
                for w in range(n):
                    assert min(d[u][v], inf) <= min(d[u][w] + d[w][v], inf)

    @given(graphs())
    @settings(max_examples=40, deadline=None)
    def test_edge_distance_gap(self, g):
        for s in range(g.vertex_count):
            dist = bfs_distances(g, s).dist
            for u, v in g.edges():
                if dist[u] != UNREACHABLE and dist[v] != UNREACHABLE:
                    assert abs(dist[u] - dist[v]) <= 1


class TestDistanceRows:
    @pytest.mark.parametrize("g", DISTANCE_CASES, ids=repr)
    def test_matrix_matches_reference(self, g):
        assert distance_matrix(g) == reference_matrix(g)
        for s in range(g.vertex_count):
            assert list(bfs_distances(g, s).dist) == reference_bfs(g, s)

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


class TestClosedBall:
    def test_cycle5_radius1(self):
        assert closed_ball(build("cycle:5"), 0, 1) == {4, 0, 1}

    def test_cycle4_radius2_is_everything(self):
        assert closed_ball(build("cycle:4"), 0, 2) == {0, 1, 2, 3}

    def test_radius0(self):
        assert closed_ball(build("path:3"), 1, 0) == {1}

    @given(graphs(), st.integers(min_value=0, max_value=4))
    @settings(max_examples=40, deadline=None)
    def test_matches_distance_definition(self, g, radius):
        for c in range(g.vertex_count):
            dist = bfs_distances(g, c).dist
            want = {v for v in range(g.vertex_count)
                    if dist[v] != UNREACHABLE and dist[v] <= radius}
            assert closed_ball(g, c, radius) == want


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

    def test_is_square(self):
        squares = {i * i for i in range(100)}
        for n in range(0, 10000):
            assert is_square(n) == (n in squares)
        assert not is_square(-4)

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
