import functools
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from burnkit import families, solver, structural
from burnkit.families import build, enumerate_sweep
from burnkit.formulas import b_three_paths, b_two_paths
from burnkit.graphs import Cycle, GeneralizedStar, Path, TUnicyclic
from burnkit.intmath import ceil_sqrt
from burnkit.solver import unicyclic_spanning_upper
from burnkit.structural import MAX_ROUNDS

from .test_solver import reference_tree_shapes, search_value, t_unicyclic, tree_legs


def structural_value(legs):
    """Least k at which ``structural.hub_cover`` covers the spider."""
    k = structural.lower_bound(legs)
    while structural.hub_cover(legs, k) is None:
        k += 1
    return k


def forest_value(parts, covers):
    """Least k whose interval sizes 2k-1, ..., 1 cover the linear forest.

    Every k below ceil(sqrt(total)) fails by counting, since the sizes sum
    to k*k. ``covers(k)`` is the cover test for k, shared across forests.
    """
    k = ceil_sqrt(sum(parts))
    while covers(k)(parts) is None:
        k += 1
    return k


def cover_tests():
    """One ``assign_intervals`` test per k, built on first use."""
    return functools.cache(lambda k: structural.assign_intervals(tuple(range(2 * k - 1, 0, -2))))


def reference_tree_value(shape):
    """The oracle's former per-shape value, from the search on the built tree."""
    return search_value(families.build(shape))


def reference_intervals_cover(parts, sizes):
    """The former one-shot interval cover: a fresh memo of successes and failures."""
    memo = {}
    left = list(itertools.accumulate(reversed(sizes), initial=0))[::-1]

    def assign(demands, j, size):
        rest = demands[:j] + demands[j + 1:]
        remainder = demands[j] - size
        if remainder <= 0:
            return rest
        return tuple(sorted((*rest, remainder), reverse=True))

    def rec(i, demands):
        if not demands:
            return True
        if left[i] < sum(demands):
            return False
        key = (i, demands)
        if key not in memo:
            memo[key] = any(
                rec(i + 1, assign(demands, j, sizes[i]))
                for j, d in enumerate(demands)
                if j == 0 or d != demands[j - 1]
            )
        return memo[key]

    return rec(0, tuple(sorted((p for p in parts if p > 0), reverse=True)))


def reference_burns(legs, k):
    """The former spider decision: the hub center, then each depth and leg."""
    if len(legs) <= 2:
        return ceil_sqrt(1 + sum(legs)) <= k
    distinct = sorted(set(legs), reverse=True)
    for r in range(k - 1, -1, -1):
        sizes = tuple(2 * s + 1 for s in range(k - 1, -1, -1) if s != r)
        if reference_intervals_cover(tuple(a - r for a in legs), sizes):
            return True
        for d in range(1, r + 1):
            for a in distinct:
                if a < d:
                    break
                residual = [b - (r - d) for b in legs]
                residual[legs.index(a)] = a - d - r
                if reference_intervals_cover(tuple(residual), sizes):
                    return True
    return False


def reference_spanning_shapes(desc):
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


def reference_spanning_upper(desc):
    """The former oracle: one deepening over the ceil(g/2) edge-deleted spiders."""
    bounds = {legs: structural.lower_bound(legs) for legs in reference_spanning_shapes(desc)}
    k = min(bounds.values())
    while not any(structural.hub_cover(legs, k) is not None
                  for legs, lower in bounds.items() if lower <= k):
        k += 1
    return k


def spiders(legs_count, max_order):
    for legs in itertools.combinations_with_replacement(range(max_order - 1, 0, -1), legs_count):
        if 1 + sum(legs) <= max_order:
            yield legs


class TestSpiders:
    def test_paths_match_exact(self):
        for n in range(1, 41):
            legs = (n - 1,) if n > 1 else ()
            assert structural_value(legs) == reference_tree_value(Path(n)), n

    @pytest.mark.parametrize("legs_count", [3, 4, 5])
    def test_small_spiders_match_exact(self, legs_count):
        checked = 0
        for legs in spiders(legs_count, 18):
            assert structural_value(legs) == reference_tree_value(GeneralizedStar(legs)), legs
            checked += 1
        assert checked > 50

    @given(st.lists(st.integers(min_value=1, max_value=9), min_size=3, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_hypothesis_spiders_match_exact(self, legs):
        legs = tuple(sorted(legs, reverse=True))
        assert structural_value(legs) == reference_tree_value(GeneralizedStar(legs))

    @pytest.mark.parametrize("legs_count", [3, 4, 5])
    def test_burns_matches_reference(self, legs_count):
        # every k from the lower bound to one past the value
        for legs in spiders(legs_count, 40):
            k, value = structural.lower_bound(legs), None
            while value is None or k <= value + 1:
                expected = reference_burns(legs, k)
                assert (structural.hub_cover(legs, k) is not None) is expected, (legs, k)
                if expected and value is None:
                    value = k
                k += 1

    def test_tick_changes_no_answer(self):
        # one tick per interval-cover state; a search runs below the value
        for legs, cycle in [*((legs, 0) for legs in spiders(3, 16)), ((4, 3), 9), ((5, 2, 2), 6)]:
            for k in range(1, structural.lower_bound(legs, cycle) + 3):
                ticks = []
                answer = structural.hub_cover(legs, k, cycle, lambda: ticks.append(k))
                assert answer == structural.hub_cover(legs, k, cycle), (legs, cycle, k)
                assert ticks or k >= structural.lower_bound(legs, cycle), (legs, cycle, k)

    def test_tick_abandons_the_decision(self):
        class Stop(Exception):
            pass

        def stop():
            raise Stop

        with pytest.raises(Stop):
            structural.hub_cover((480, 424, 270, 158, 43), 42, 594, stop)

    def test_burns_iff_k_reaches_value(self):
        for legs in spiders(3, 20):
            value = structural_value(legs)
            assert all(structural.hub_cover(legs, k) is not None for k in range(value, value + 3)), legs
            assert not any(structural.hub_cover(legs, k) is not None for k in range(1, value)), legs


class TestIntervals:
    def test_two_paths_match_formula(self):
        covers = cover_tests()
        for total in range(2, 301):
            for a2 in range(1, total // 2 + 1):
                a1 = total - a2
                assert forest_value((a1, a2), covers) == b_two_paths(a1, a2), (a1, a2)

    def test_three_paths_match_formula(self):
        covers = cover_tests()
        for total in range(3, 161):
            for a3 in range(1, total // 3 + 1):
                for a2 in range(a3, (total - a3) // 2 + 1):
                    a1 = total - a2 - a3
                    value = forest_value((a1, a2, a3), covers)
                    assert value == b_three_paths(a1, a2, a3), (a1, a2, a3)

    @pytest.mark.parametrize(
        "parts,sizes,expected",
        [
            ((), (), True),
            ((0, 0), (), True),
            ((3,), (3,), True),
            ((4,), (3,), False),
            ((4,), (3, 1), True),
            ((2, 2), (3,), False),  # one interval cannot span two paths
            ((7, 2), (5, 3, 1), False),  # (t*t - 2, 2) needs a round more
            ((5, 4), (5, 3, 1), True),
            ((6, 3), (5, 3, 1), True),
            ((7, 2), (7, 3, 1), True),
            ((2, 2, 2), (7, 5), False),
        ],
    )
    def test_examples(self, parts, sizes, expected):
        assert (structural.assign_intervals(sizes)(parts) is not None) is expected

    @given(
        st.integers(min_value=1, max_value=9),
        st.integers(min_value=0, max_value=9),
        st.lists(st.lists(st.integers(min_value=-1, max_value=12), max_size=6), max_size=16),
    )
    @settings(max_examples=200, deadline=None)
    def test_one_test_matches_reference_on_every_forest(self, k, r, forests):
        # failures kept from earlier forests must never change a later answer
        sizes = tuple(2 * s + 1 for s in range(k - 1, -1, -1) if s != r)
        assign = structural.assign_intervals(sizes)
        for parts in forests:
            covers = assign(parts) is not None
            assert covers is reference_intervals_cover(parts, sizes), (sizes, parts)

    @given(
        st.integers(min_value=1, max_value=9),
        st.integers(min_value=0, max_value=9),
        st.lists(st.lists(st.integers(min_value=-1, max_value=12), max_size=6), max_size=16),
    )
    @settings(max_examples=200, deadline=None)
    def test_assignment_covers_every_path(self, k, r, forests):
        sizes = tuple(2 * s + 1 for s in range(k - 1, -1, -1) if s != r)
        assign = structural.assign_intervals(sizes)
        for parts in forests:
            placed = assign(parts)
            assert (placed is not None) is reference_intervals_cover(parts, sizes), parts
            if placed is None:
                continue
            used = [size for on_path in placed for size in on_path]
            assert len(set(used)) == len(used) and set(used) <= set(sizes), (parts, placed)
            for part, on_path in zip(parts, placed):
                # every size placed on a path is still needed when it comes
                assert sum(on_path) >= part and sum(on_path[:-1]) < max(part, 1), placed

    def test_one_test_matches_reference_largest_forest_first(self):
        # a smaller forest starts at index 0 in states that a larger one
        # reached, and failed, at a later index
        forests = sorted(itertools.combinations_with_replacement(range(1, 14), 3), key=sum)
        for k in range(1, 8):
            for r in range(k + 1):
                sizes = tuple(2 * s + 1 for s in range(k - 1, -1, -1) if s != r)
                assign = structural.assign_intervals(sizes)
                for parts in reversed(forests):
                    covers = assign(parts) is not None
                    assert covers is reference_intervals_cover(parts, sizes), (sizes, parts)


class TestRoundLimit:
    def test_spider_decided_at_the_limit(self):
        # the cover search goes about MAX_ROUNDS frames deep
        assert structural.hub_cover((100000, 80000, 70000), MAX_ROUNDS) is not None

    def test_spider_above_the_limit_refused(self):
        with pytest.raises(ValueError, match=f"at most {MAX_ROUNDS} rounds"):
            structural.hub_cover((100000, 80000, 70000), MAX_ROUNDS + 1)

    def test_path_needs_no_search(self):
        assert structural.hub_cover((10**6 - 1,), 1000) is not None
        assert structural.hub_cover((10**6,), 1000) is None

    @pytest.mark.parametrize(
        "spec,value",
        [
            ("uni:3;100000,100000", 448),
            ("cycle:300000", 548),
            # a cycle with one arm has a spanning path, so no search runs
            ("uni:3;300000", 548),
            ("uni:300000;1", 548),
            ("uni:260000;1", 510),
        ],
    )
    def test_oracle_at_large_orders(self, spec, value):
        assert unicyclic_spanning_upper(build(spec)) == value

    def test_oracle_above_the_limit_raises_value_error(self):
        with pytest.raises(ValueError, match=f"at most {MAX_ROUNDS} rounds"):
            unicyclic_spanning_upper(build("uni:3;150000,150000"))


class TestSpanningOracle:
    @pytest.mark.parametrize(
        "family,max_order",
        [("cycle", 200), ("uni1", 70), ("uni2", 45), (3, 34), (4, 28), (5, 24), (6, 22)],
    )
    def test_matches_reference_spanning_upper(self, family, max_order):
        # family is a sweep class or the arm count t
        if isinstance(family, str):
            descs = enumerate_sweep(family, max_order)
        else:
            descs = t_unicyclic(family, max_order)
        for desc in descs:
            assert unicyclic_spanning_upper(build(desc)) == reference_spanning_upper(desc), desc

    @given(
        st.integers(min_value=3, max_value=150),
        st.lists(st.integers(min_value=1, max_value=150), max_size=5),
    )
    @settings(max_examples=200, deadline=None)
    def test_hypothesis_matches_reference_spanning_upper(self, g, arms):
        desc = TUnicyclic(g=g, arms=tuple(sorted(arms, reverse=True))) if arms else Cycle(g)
        assert unicyclic_spanning_upper(build(desc)) == reference_spanning_upper(desc)

    def test_oracle_is_spanning_tree_minimum(self):
        descs = itertools.chain(
            enumerate_sweep("cycle", 20),
            enumerate_sweep("uni1", 40),
            enumerate_sweep("uni2", 30),
            map(families.parse_spec, ("uni:7;3,2,1", "uni:3;1,1,1,1", "uni:10;4,4,4")),
        )
        for desc in descs:
            g = build(desc)
            trees = reference_tree_shapes(g)
            assert unicyclic_spanning_upper(g) == min(
                structural_value(tree_legs(shape)) for shape in trees
            ), desc

    @pytest.mark.parametrize(
        "spec",
        # uni:6;4, uni:9;1 and uni:6;4,1 burn in fewer than ceil(sqrt(n)) rounds
        ["cycle:9", "uni:6;4", "uni:9;1", "uni:6;4,1", "uni:9;10,2", "uni:4;4,4", "uni:7;3,2,1"],
    )
    def test_cycle_mode_burns_iff_k_reaches_value(self, spec):
        desc = families.parse_spec(spec)
        arms = getattr(desc, "arms", ())
        value = search_value(build(desc))
        assert not any(structural.hub_cover(arms, k, desc.g) is not None for k in range(1, value)), spec
        assert all(structural.hub_cover(arms, k, desc.g) is not None for k in range(value, value + 3)), spec

    def test_matches_reference_tree_values(self):
        descs = itertools.chain(enumerate_sweep("uni1", 40), enumerate_sweep("uni2", 26))
        shapes = set()
        for desc in descs:
            shapes |= reference_tree_shapes(build(desc))
        for shape in shapes:
            assert structural_value(tree_legs(shape)) == reference_tree_value(shape), shape

    @pytest.mark.parametrize(
        "spec,value",
        [("cycle:57", 8), ("uni:13;41", 7), ("uni:9;30,14", 7), ("uni:6;20,17,9", 7)],
    )
    def test_one_hub_graph_builds_and_searches_nothing(self, spec, value, monkeypatch):
        g = build(spec)

        def fail(*args, **kwargs):
            raise AssertionError("spanning tree built or searched")

        monkeypatch.setattr(solver, "burning_number_exact", fail)
        monkeypatch.setattr(families, "build", fail)
        assert unicyclic_spanning_upper(g) == value
