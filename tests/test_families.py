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
from burnkit.graphs import Cycle, LinearForest, Path, TUnicyclic, recognize_family


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
        ],
    )
    def test_invalid_specs(self, text):
        with pytest.raises(SpecError):
            parse_spec(text)


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
