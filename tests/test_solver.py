import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from burnkit.families import build, enumerate_sweep, parse_spec
from burnkit.graphs import (
    GeneralizedStar,
    Graph,
    Other,
    Path,
    TUnicyclic,
    distance_matrix,
    recognize_family,
)
from burnkit import solver
from burnkit.solver import (
    MAX_ROUNDS,
    Inconclusive,
    SequenceCheck,
    _Prepared,
    _to_sequence,
    burning_number_exact,
    check_sequence,
    extract_partition,
    find_sequence,
    isometric_path_lower,
    unicyclic_spanning_upper,
    verify_sequence,
)

from .oracle import brute_burnable, brute_burning_number
from .test_graphs import reference_cycle_vertices, reference_matrix


@st.composite
def small_graphs(draw, max_n=9):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    return Graph(n, edges)


class TestVerify:
    def test_cycle4_opposite_pair(self):
        assert verify_sequence(build("cycle:4"), (0, 2))

    def test_path3_center_alone_fails_cover(self):
        check = check_sequence(build("path:3"), (1,))
        assert not check.ok and check.uncovered == {0, 2}

    def test_single_vertex(self):
        assert verify_sequence(build("path:1"), (0,))

    def test_distance_failure_reported(self):
        check = check_sequence(build("path:9"), (0, 2, 1))
        assert not check.ok and check.failed_pair == (1, 3)

    def test_cross_component_distance_vacuous(self):
        g = build("forest:2,2")
        assert verify_sequence(g, (0, 2, 3))

    @pytest.mark.parametrize("seq", [(), (0, 0), (0, 9)])
    def test_malformed_raises(self, seq):
        with pytest.raises(ValueError):
            verify_sequence(build("cycle:4"), seq)


class TestExact:
    @pytest.mark.parametrize(
        "spec,value",
        [
            ("cycle:5", 3),
            ("path:1", 1),
            ("uni:4;4,4", 4),  # brute-force verified
            ("uni:7;3", 3),
            ("uni:4;6", 3),
            ("forest:5,4", 3),
            ("forest:3,2,1", 3),
            ("star:8,1,1", 4),
        ],
    )
    def test_frozen_values(self, spec, value):
        res = burning_number_exact(build(spec))
        assert res.value == value
        assert res.method == "exact"
        assert res.lower_bound <= res.value <= res.upper_bound
        assert verify_sequence(build(spec), res.certificate)
        assert len(res.certificate) == value

    def test_path_monotone_up_to_49(self):
        values = [burning_number_exact(build(f"path:{n}")).value for n in range(1, 50)]
        assert values == sorted(values)

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            burning_number_exact(Graph(0))

    @given(small_graphs())
    @settings(max_examples=40, deadline=None)
    def test_matches_bruteforce(self, g):
        res = burning_number_exact(g)
        assert res.value == brute_burning_number(g)
        assert verify_sequence(g, res.certificate)

    @given(small_graphs(max_n=8), st.integers(min_value=1, max_value=4))
    @settings(max_examples=30, deadline=None)
    def test_find_sequence_agrees_with_bruteforce(self, g, k):
        found = find_sequence(g, k)
        assert (found is not None) == brute_burnable(g, k)
        if found is not None:
            assert len(found) == k and verify_sequence(g, found)

    def test_deterministic_certificates(self):
        g = build("uni:5;3,2")
        a = burning_number_exact(g).certificate
        b = burning_number_exact(g).certificate
        assert a == b

    def test_refutation_below_value(self):
        for spec in ("cycle:5", "uni:4;4,4", "forest:2,2", "path:10"):
            g = build(spec)
            value = burning_number_exact(g).value
            assert find_sequence(g, value - 1) is None

    def test_budget_exhaustion_is_inconclusive(self):
        g = build("uni:9;10,2")
        with pytest.raises(Inconclusive) as exc:
            burning_number_exact(g, budget=3)
        assert exc.value.lower_bound <= 5 <= exc.value.upper_bound

    def test_round_limit(self, monkeypatch):
        # MAX_ROUNDS isolated vertices still solve; one more is refused
        # before the distance matrix is built
        assert burning_number_exact(Graph(MAX_ROUNDS)).value == MAX_ROUNDS

        def fail(*args, **kwargs):
            raise AssertionError("search prepared beyond the round limit")

        monkeypatch.setattr(solver, "_Prepared", fail)
        with pytest.raises(ValueError, match="at most"):
            burning_number_exact(Graph(MAX_ROUNDS + 1))
        with pytest.raises(ValueError, match="at most"):
            find_sequence(build("path:3"), MAX_ROUNDS + 1)

    def test_round_limit_reached_while_deepening(self):
        # MAX_ROUNDS components, but the burning number is one more
        g = Graph(2 * MAX_ROUNDS, [(2 * i, 2 * i + 1) for i in range(MAX_ROUNDS)])
        with pytest.raises(ValueError, match=f"at least {MAX_ROUNDS + 1}"):
            burning_number_exact(g)

    def test_find_sequence_inconclusive_carries_real_bounds(self):
        g = build("uni:9;10,2")
        with pytest.raises(Inconclusive) as exc:
            find_sequence(g, 4, budget=3)
        lower, upper = exc.value.lower_bound, exc.value.upper_bound
        assert lower <= burning_number_exact(g).value <= upper
        assert 1 < lower and upper < g.vertex_count  # tighter than [1, n]


def grid_graph(rows, cols, perm=None):
    perm = perm or list(range(rows * cols))
    edges = []
    for i in range(rows):
        for j in range(cols):
            v = i * cols + j
            if j + 1 < cols:
                edges.append((perm[v], perm[v + 1]))
            if i + 1 < rows:
                edges.append((perm[v], perm[v + cols]))
    return Graph(rows * cols, edges)


def reference_check(g, seq):
    """check_sequence as it was before distance rows: the full matrix."""
    k = len(seq)
    dist = reference_matrix(g)
    for i, j in itertools.combinations(range(k), 2):
        if dist[seq[i]][seq[j]] < j - i:
            return SequenceCheck(ok=False, failed_pair=(i + 1, j + 1))
    covered = set()
    for i, x in enumerate(seq):
        covered.update(v for v in range(g.vertex_count) if dist[x][v] <= k - 1 - i)
    uncovered = frozenset(range(g.vertex_count)) - covered
    if uncovered:
        return SequenceCheck(ok=False, uncovered=uncovered)
    return SequenceCheck(ok=True)


class TestCheckSequenceRows:
    GRAPHS = [
        build("path:9"),
        build("cycle:10"),
        build("uni:9;10,2"),
        build("uni:6;3"),
        build("star:4,3,2"),
        build("forest:5,3,1"),
        build("forest:2,2,1,1"),
        grid_graph(4, 4),
        Graph(6),
        Graph(8, [(0, 1), (1, 2), (2, 0), (4, 5), (5, 6)]),
    ]

    @pytest.mark.parametrize("g", GRAPHS, ids=repr)
    def test_certificates_match_reference(self, g):
        cert = burning_number_exact(g).certificate
        assert check_sequence(g, cert) == reference_check(g, cert) == SequenceCheck(ok=True)

    def test_sweep_certificates_match_reference(self):
        for family_class, max_n in (("uni2", 14), ("uni1", 14), ("forest3", 12)):
            for desc in enumerate_sweep(family_class, max_n):
                g = build(desc)
                cert = burning_number_exact(g).certificate
                assert check_sequence(g, cert) == reference_check(g, cert)

    @pytest.mark.parametrize("g", GRAPHS, ids=repr)
    def test_random_sequences_match_reference(self, g):
        rng = random.Random(g.vertex_count * 1000 + g.edge_count)
        n = g.vertex_count
        outcomes = set()
        for _ in range(300):
            seq = tuple(rng.sample(range(n), rng.randint(1, n)))
            got = check_sequence(g, seq)
            assert got == reference_check(g, seq)
            outcomes.add("ok" if got.ok else "pair" if got.failed_pair else "cover")
        # the pairwise condition can fail unless every vertex is isolated
        assert "pair" in outcomes or g.edge_count == 0
        assert "cover" in outcomes

    def test_random_sequences_on_random_graphs(self):
        rng = random.Random(2024)
        for _ in range(200):
            n = rng.randint(1, 12)
            pairs = list(itertools.combinations(range(n), 2))
            g = Graph(n, rng.sample(pairs, rng.randint(0, min(len(pairs), n + 2))))
            seq = tuple(rng.sample(range(n), rng.randint(1, n)))
            assert check_sequence(g, seq) == reference_check(g, seq)

    @pytest.mark.parametrize("seq", [(), (0, 0), (0, 9), (-1,)])
    def test_malformed_raises_before_any_search(self, seq, monkeypatch):
        def fail(*args):
            raise AssertionError("distance rows computed for malformed input")

        monkeypatch.setattr(solver, "distance_rows", fail)
        with pytest.raises(ValueError):
            check_sequence(build("cycle:4"), seq)
        with pytest.raises(ValueError):
            extract_partition(build("cycle:4"), seq)


class TestCoverSearch:
    def test_forest_58_19_4_certified(self):
        g = build("forest:58,19,4")
        res = burning_number_exact(g)
        assert res.value == 10
        assert len(res.certificate) == 10 and verify_sequence(g, res.certificate)
        assert find_sequence(g, 9) is None

    def test_interchangeable_radii_refuted_quickly(self):
        # balls of every radius agree on isolated vertices; trying each
        # radius for each of them would take factorially many nodes
        g = build("forest:2,2" + ",1" * 10)
        assert burning_number_exact(g).value == 12
        assert find_sequence(g, 11, budget=1_000) is None

    def test_strict_fallback_above_burning_number(self):
        k4 = Graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
        assert burning_number_exact(k4).value == 2
        assert find_sequence(k4, 3) is None
        found = find_sequence(k4, 2)
        assert found is not None and verify_sequence(k4, found)

    def test_relabelled_grid_certificates_repeat(self):
        perm = [(7 * v + 3) % 36 for v in range(36)]
        runs = [burning_number_exact(grid_graph(6, 6, perm)) for _ in range(2)]
        assert runs[0].certificate == runs[1].certificate
        assert verify_sequence(grid_graph(6, 6, perm), runs[0].certificate)

    @pytest.mark.parametrize("centers", [(2, 2, 2), (2, None, None)])
    def test_cover_converts_to_valid_sequence(self, centers):
        # the radius-2 ball at the middle of path:5 covers it all, so the
        # repeated or missing centers must be swapped for unburned vertices
        g = build("path:5")
        seq = _to_sequence(_Prepared(g, max_radius=2), centers)
        assert len(seq) == 3 and verify_sequence(g, seq)


class TestPartition:
    def test_cycle4_example(self):
        g = build("cycle:4")
        parts = extract_partition(g, (0, 2))
        assert parts[0].root == 0 and parts[0].vertices == {3, 0, 1}
        assert parts[0].height == 1
        assert parts[1].root == 2 and parts[1].vertices == {2}
        assert parts[1].height == 0

    def test_single_vertex(self):
        parts = extract_partition(build("path:1"), (0,))
        assert len(parts) == 1 and parts[0].height == 0

    def test_two_components_three_parts(self):
        g = build("forest:2,2")
        res = burning_number_exact(g)
        assert res.value == 3
        parts = extract_partition(g, res.certificate)
        for i, part in enumerate(parts):
            assert part.height <= res.value - (i + 1)

    def test_invalid_sequence_rejected(self):
        with pytest.raises(ValueError):
            extract_partition(build("path:3"), (1,))

    @pytest.mark.parametrize(
        "spec", ["cycle:9", "uni:4;4,4", "uni:3;6", "star:4,3,2", "forest:7,3", "path:16"]
    )
    def test_partition_conditions(self, spec):
        g = build(spec)
        res = burning_number_exact(g)
        parts = extract_partition(g, res.certificate)
        k = res.value
        # vertex sets partition V(G)
        seen = set()
        for part in parts:
            assert not (part.vertices & seen)
            seen |= part.vertices
        assert seen == set(range(g.vertex_count))
        dist = distance_matrix(g)
        for i, part in enumerate(parts):
            assert part.root in part.vertices
            assert part.height <= k - (i + 1)
            # edges form a tree on the part's vertices, rooted at the root
            assert len(part.edges) == len(part.vertices) - 1
            reached = {part.root}
            pending = list(part.edges)
            while pending:
                rest = []
                for u, v in pending:
                    if u in reached:
                        assert v not in reached
                        reached.add(v)
                    else:
                        rest.append((u, v))
                assert len(rest) < len(pending)
                pending = rest
            assert reached == part.vertices
            for u, v in part.edges:
                assert v in g.adjacency[u]
            # height measured along tree edges matches the stored value
            depth = {part.root: 0}
            changed = True
            while changed:
                changed = False
                for u, v in part.edges:
                    if u in depth and v not in depth:
                        depth[v] = depth[u] + 1
                        changed = True
            assert max(depth.values()) == part.height
            for j in range(i + 1, len(parts)):
                assert dist[part.root][parts[j].root] >= j - i


def reference_tree_shapes(g):
    """The oracle's trees as it once found them: delete each cycle edge, recognise."""
    core = set(reference_cycle_vertices(g))
    edges = set(g.edges())
    return {
        recognize_family(Graph(g.vertex_count, edges - {(u, v)}))
        for u, v in edges
        if u in core and v in core
    }


def tree_legs(shape):
    """Legs of a recognised spider, or the one leg (n-1,) of a path."""
    if isinstance(shape, GeneralizedStar):
        return shape.arms
    assert isinstance(shape, Path), shape
    return (shape.n - 1,)


# Unicyclic graphs outside every one-hub family, which the oracle refuses
GENERAL_UNICYCLIC = [
    # cycle 0..5 with an arm of 2 at vertex 0 and an arm of 3 at vertex 2
    Graph(11, [(i, (i + 1) % 6) for i in range(6)]
          + [(0, 6), (6, 7), (2, 8), (8, 9), (9, 10)]),
    # cycle 0..4 carrying at vertex 0 a pendant tree that branches at 5
    Graph(10, [(i, (i + 1) % 5) for i in range(5)]
          + [(0, 5), (5, 6), (6, 7), (5, 8), (8, 9)]),
]


class TestUnicyclicOracles:
    @pytest.mark.parametrize(
        "spec,value", [("cycle:5", 3), ("uni:7;3", 3), ("uni:4;4,4", 4)]
    )
    def test_spanning_matches(self, spec, value):
        assert unicyclic_spanning_upper(build(spec)) == value

    def test_spanning_equals_exact_on_small_sweep(self):
        for desc in enumerate_sweep("uni1", 16):
            g = build(desc)
            assert unicyclic_spanning_upper(g) == burning_number_exact(g).value

    @pytest.mark.parametrize("t,max_n", [(3, 24), (4, 22), (5, 20)])
    def test_spanning_equals_exact_beyond_two_arms(self, t, max_n):
        for g in range(3, max_n - t + 1):
            for arms in itertools.combinations_with_replacement(range(max_n - g, 0, -1), t):
                if g + sum(arms) <= max_n:
                    graph = build(TUnicyclic(g=g, arms=arms))
                    expected = burning_number_exact(graph).value
                    assert unicyclic_spanning_upper(graph) == expected, (g, arms)

    def test_derived_shapes_match_recognised_trees(self):
        descs = itertools.chain(
            enumerate_sweep("cycle", 20),
            enumerate_sweep("uni1", 40),
            enumerate_sweep("uni2", 30),
            map(parse_spec, ("uni:7;3,2,1", "uni:3;1,1,1,1", "uni:10;4,4,4")),
        )
        for desc in descs:
            reference = {tree_legs(shape) for shape in reference_tree_shapes(build(desc))}
            assert solver._spanning_shapes(desc) == reference, desc

    @pytest.mark.parametrize("spec", ["cycle:9", "uni:7;3", "uni:9;10,2", "uni:7;3,2,1"])
    def test_one_hub_graph_recognised_once(self, spec, monkeypatch):
        g = build(spec)
        value = burning_number_exact(g).value
        seen = []

        def counted(graph):
            seen.append(graph)
            return recognize_family(graph)

        monkeypatch.setattr(solver, "recognize_family", counted)
        assert unicyclic_spanning_upper(g) == value
        assert seen == [g]

    def test_not_unicyclic_rejected(self):
        for g in GENERAL_UNICYCLIC:
            assert recognize_family(g) == Other()
        for g in [*GENERAL_UNICYCLIC, build("path:5"), build("forest:3,3")]:
            with pytest.raises(ValueError, match="cycle or a t-unicyclic"):
                unicyclic_spanning_upper(g)

    @pytest.mark.parametrize(
        "g,arms,value",
        [
            (9, (10, 2), 4),  # max(13, 15) -> ceil sqrt 15
            (4, (4, 4), 3),   # max(9, 7) -> 3
            (3, (3,), 3),     # path of 5 -> 3
        ],
    )
    def test_isometric_lower_examples(self, g, arms, value):
        assert isometric_path_lower(TUnicyclic(g=g, arms=arms)) == value

    def test_isometric_lower_rejects_t0(self):
        with pytest.raises(ValueError):
            isometric_path_lower(TUnicyclic(g=5, arms=()))

    def test_isometric_lower_sound_on_sweep(self):
        for desc in enumerate_sweep("uni2", 14):
            exact = burning_number_exact(build(desc)).value
            assert isometric_path_lower(desc) <= exact


class TestGreedyAndBounds:
    @given(small_graphs())
    @settings(max_examples=30, deadline=None)
    def test_result_bounds_sandwich(self, g):
        res = burning_number_exact(g)
        assert res.lower_bound <= res.value <= res.upper_bound

    def test_disconnected_lower_bound_counts_components(self):
        g = build("forest:1,1,1,1")
        res = burning_number_exact(g)
        assert res.value == 4  # one source per component, all radii wasted
