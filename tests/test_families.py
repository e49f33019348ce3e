import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from burnkit.families import (
    SpecError,
    build,
    enumerate_sweep,
    format_spec,
    parse_spec,
)
from burnkit.graphs import (
    MAX_VERTICES,
    Cycle,
    GeneralizedStar,
    Graph,
    LinearForest,
    Path,
    TUnicyclic,
    recognize_family,
)


def _path_edges(ids):
    return [(ids[i], ids[i + 1]) for i in range(len(ids) - 1)]


def _attach_arms(hub_edges, hub, n_core, arms):
    edges = list(hub_edges)
    nxt = n_core
    for a in arms:
        prev = hub
        for _ in range(a):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    return Graph(nxt, edges)


def reference_build(desc):
    """The edge-list builder ``build`` replaced: the checked ``Graph(n,
    edges)`` over the frozen numbering, parts and arms in the order given."""
    if isinstance(desc, Path):
        return Graph(desc.n, _path_edges(list(range(desc.n))))
    if isinstance(desc, Cycle):
        g = desc.g
        return Graph(g, [(i, (i + 1) % g) for i in range(g)])
    if isinstance(desc, LinearForest):
        edges = []
        start = 0
        for p in desc.parts:
            edges.extend(_path_edges(list(range(start, start + p))))
            start += p
        return Graph(sum(desc.parts), edges)
    if isinstance(desc, GeneralizedStar):
        return _attach_arms(hub_edges=[], hub=0, n_core=1, arms=desc.arms)
    g = desc.g
    cycle_edges = [(i, (i + 1) % g) for i in range(g)]
    return _attach_arms(hub_edges=cycle_edges, hub=g - 1, n_core=g, arms=desc.arms)


def assert_same_graph(got, want):
    assert got.vertex_count == want.vertex_count
    assert got.adjacency == want.adjacency
    assert got == want
    assert hash(got) == hash(want)


class TestParse:
    def test_grammar(self):
        assert parse_spec("path:5") == Path(5)
        assert parse_spec("cycle:4") == Cycle(4)
        assert parse_spec("forest:1,3,2") == LinearForest((3, 2, 1))
        assert parse_spec("uni:4;4,4") == TUnicyclic(g=4, arms=(4, 4))

    def test_round_trip(self):
        for text in ("path:5", "cycle:4", "forest:3,2,1", "star:2,1,1", "uni:5;3,2"):
            assert format_spec(parse_spec(text)) == text

    @pytest.mark.parametrize(
        "text",
        [
            "cycle:2",
            "path:0",
            "forest:2,0",
            "star:1,1",
            "uni:2;1",
            "uni:4;0",
            "uni:4",
            "blob:3",
            "path:x",
            "path",
            "path:3,4",
            "cycle:5,9",
            "uni:5,6;3",
            "path:1000001",  # one vertex above the graph-file limit
            "uni:3;999997,1",
        ],
    )
    def test_invalid_specs(self, text):
        with pytest.raises(SpecError):
            parse_spec(text)

    def test_order_limit_is_inclusive(self):
        assert parse_spec("path:1000000") == Path(MAX_VERTICES)
        assert parse_spec("uni:3;999996,1") == TUnicyclic(g=3, arms=(999996, 1))


class TestBuild:
    def test_cycle5(self):
        g = build("cycle:5")
        assert g.vertex_count == 5 and g.edge_count == 5
        assert all(g.degree(v) == 2 for v in range(5))

    def test_uni_4_44(self):
        g = build("uni:4;4,4")
        assert g.vertex_count == 12 and g.edge_count == 12
        assert g.degree(3) == 4  # attachment vertex is id g-1

    def test_forest_2_2(self):
        g = build("forest:2,2")
        assert g.vertex_count == 4 and g.edge_count == 2

    def test_numbering_frozen(self):
        g = build("uni:4;2,1")
        # cycle 0..3, first arm 4,5 outward from vertex 3, second arm 6
        assert set(g.adjacency[3]) == {0, 2, 4, 6}
        assert g.adjacency[4] == (3, 5)
        assert build("uni:4;2,1") == g

    def test_deterministic_across_orderings(self):
        assert build("forest:1,2,3") == build("forest:3,2,1")

    @pytest.mark.parametrize(
        "desc,spec",
        [
            (LinearForest((1, 3)), "forest:3,1"),
            (LinearForest((2, 5, 1, 5)), "forest:5,5,2,1"),
            (GeneralizedStar((1, 2, 3)), "star:3,2,1"),
            (TUnicyclic(4, (1, 2)), "uni:4;2,1"),
            (TUnicyclic(3, (1, 1, 4)), "uni:3;4,1,1"),
        ],
    )
    def test_descriptor_order_does_not_matter(self, desc, spec):
        # a descriptor with parts or arms out of order builds the graph of
        # its canonical spec, as the module docstring promises
        assert parse_spec(format_spec(desc)) == parse_spec(spec)
        assert_same_graph(build(desc), build(spec))
        assert_same_graph(build(desc), build(format_spec(desc)))
        assert_same_graph(build(desc), reference_build(parse_spec(spec)))


# horizons of the sweep comparison below
REFERENCE_HORIZONS = [("path", 40), ("cycle", 40), ("forest2", 30), ("forest3", 30),
                      ("uni1", 34), ("uni2", 28)]


@st.composite
def descriptors(draw):
    """Canonical descriptors of every family, parts and arms from 1 and
    cycles from 3."""
    kind = draw(st.sampled_from(["path", "cycle", "forest", "star", "uni"]))
    if kind == "path":
        return Path(draw(st.integers(1, 30)))
    if kind == "cycle":
        return Cycle(draw(st.integers(3, 30)))
    values = draw(st.lists(st.integers(1, 9), min_size=3 if kind == "star" else 1, max_size=6))
    values = tuple(sorted(values, reverse=True))
    if kind == "forest":
        return LinearForest(values)
    if kind == "star":
        return GeneralizedStar(values)
    return TUnicyclic(draw(st.integers(3, 9)), values)


class TestReferenceEquality:
    """``build`` writes adjacency tuples unchecked; the checked edge-list
    construction must give the same graph, id for id."""

    @pytest.mark.parametrize("cls,max_n", REFERENCE_HORIZONS)
    def test_sweep_classes(self, cls, max_n):
        for desc in enumerate_sweep(cls, max_n):
            assert_same_graph(build(desc), reference_build(desc))

    @pytest.mark.parametrize("t", [3, 4, 5, 6])
    def test_stars(self, t):
        for arms in itertools.combinations_with_replacement(range(6, 0, -1), t):
            desc = GeneralizedStar(arms)
            assert_same_graph(build(desc), reference_build(desc))

    @pytest.mark.parametrize(
        "spec",
        ["path:1", "path:2", "cycle:3", "forest:1,1", "uni:3;1", "uni:3;1,1", "star:1,1,1"],
    )
    def test_smallest_members(self, spec):
        assert_same_graph(build(spec), reference_build(parse_spec(spec)))

    @given(desc=descriptors())
    @settings(max_examples=200, deadline=None)
    def test_random_descriptors(self, desc):
        assert_same_graph(build(desc), reference_build(desc))

    @pytest.mark.parametrize(
        "spec",
        ["path:100000", "cycle:100000", "forest:50000,30000,19999,1",
         "star:40000,30000,29999,1", "uni:40000;30000,29999,1"],
    )
    def test_large_specs(self, spec):
        assert_same_graph(build(spec), reference_build(parse_spec(spec)))


class TestSweep:
    def test_cycle_example(self):
        assert [format_spec(d) for d in enumerate_sweep("cycle", 5)] == [
            "cycle:3",
            "cycle:4",
            "cycle:5",
        ]

    def test_forest2_example(self):
        got = [d.parts for d in enumerate_sweep("forest2", 4)]
        assert got == [(1, 1), (2, 1), (2, 2), (3, 1)]

    def test_uni2_example(self):
        specs = {format_spec(d) for d in enumerate_sweep("uni2", 8)}
        assert {"uni:3;1,1", "uni:4;1,1", "uni:5;1,1", "uni:6;1,1"} <= specs
        assert all(parse_spec(s).arms[0] >= parse_spec(s).arms[-1] for s in specs)

    def test_unknown_class(self):
        with pytest.raises(SpecError):
            list(enumerate_sweep("blob", 10))

    def test_too_small_max_n(self):
        with pytest.raises(SpecError):
            list(enumerate_sweep("cycle", 2))

    @pytest.mark.parametrize("cls,max_n", [("path", 10), ("cycle", 10),
                                           ("forest2", 12), ("forest3", 12),
                                           ("uni1", 12), ("uni2", 12)])
    def test_duplicate_free_and_bounded(self, cls, max_n):
        seen = set()
        for desc in enumerate_sweep(cls, max_n):
            assert desc not in seen
            seen.add(desc)
            assert build(desc).vertex_count <= max_n

    @pytest.mark.parametrize("cls,max_n", [("path", 8), ("cycle", 8),
                                           ("forest2", 10), ("forest3", 10),
                                           ("uni1", 11), ("uni2", 11)])
    def test_recognize_build_round_trip(self, cls, max_n):
        for desc in enumerate_sweep(cls, max_n):
            got = recognize_family(build(desc))
            if isinstance(desc, LinearForest) and len(desc.parts) == 1:
                assert got == Path(desc.parts[0])
            else:
                assert got == desc

    def test_unicyclic_edge_count_matches_order(self):
        for desc in enumerate_sweep("uni2", 12):
            g = build(desc)
            assert g.edge_count == g.vertex_count
            assert g.vertex_count == desc.g + sum(desc.arms)


@given(
    g=st.integers(min_value=3, max_value=9),
    arms=st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=4),
)
@settings(max_examples=60, deadline=None)
def test_uni_round_trip_random(g, arms):
    desc = TUnicyclic(g=g, arms=tuple(sorted(arms, reverse=True)))
    assert recognize_family(build(desc)) == desc
