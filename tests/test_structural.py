import functools
import itertools
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from burnkit import families, solver, structural
from burnkit.families import build, enumerate_sweep
from burnkit.formulas import b_three_paths, b_two_paths
from burnkit.graphs import Cycle, GeneralizedStar, Path, TUnicyclic
from burnkit.intmath import ceil_sqrt
from burnkit.solver import MAX_ROUNDS, unicyclic_spanning_upper
from burnkit.tables import b_unicyclic_t1, b_unicyclic_t2

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


def uncut_assign_intervals(sizes, tick=None):
    """``structural.assign_intervals`` before its arithmetic cuts: the sum
    test and the failed-state memo are its only cuts."""
    left = list(itertools.accumulate(reversed(sizes), initial=0))[::-1]
    failed = set()
    chosen = []

    def rec(i, demands):
        if tick is not None:
            tick()
        if not demands:
            return True
        if left[i] < sum(demands) or (i, demands) in failed:
            return False
        for j, d in enumerate(demands):
            if j and d == demands[j - 1]:
                continue
            if rec(i + 1, structural._assign(demands, j, sizes[i])):
                chosen.append(d)
                return True
        failed.add((i, demands))
        return False

    def assign(parts):
        chosen.clear()
        if not rec(0, tuple(sorted((p for p in parts if p > 0), reverse=True))):
            return None
        open_demand = list(parts)
        placed = [[] for _ in parts]
        for size, d in zip(sizes, reversed(chosen)):
            j = open_demand.index(d)
            placed[j].append(size)
            open_demand[j] -= size
        return placed

    return assign


def reference_assign_intervals(sizes, tick=None):
    """``structural.assign_intervals`` with its state in a closure that
    refers to itself, as it was before the state moved into a slotted
    object: the same cuts, so the same states in the same order."""
    count = len(sizes)
    left = list(itertools.accumulate(reversed(sizes), initial=0))[::-1]
    failed = set()
    chosen = []
    reach = 0

    def rec(i, demands):
        nonlocal reach
        if tick is not None:
            tick()
        if not demands:
            return True
        m = len(demands)
        if i + m > count:
            return False
        slack = left[i] - sum(demands)
        if slack < 0:
            return False
        if sizes[i + m - 1] >= demands[0]:
            chosen.extend(reversed(demands))
            return True
        if (i, demands) in failed:
            return False
        if i == 0 and slack < m:
            if not reach:
                reach = functools.reduce(lambda sums, s: sums | sums << s, sizes, 1)
            waste = 0
            for d in demands:
                beyond = reach >> d
                waste += (beyond & -beyond).bit_length() - 1
                if waste > slack:
                    return False
        for j, d in enumerate(demands):
            if (j == 0 or d != demands[j - 1]) and rec(i + 1, structural._assign(demands, j, sizes[i])):
                chosen.append(d)
                return True
        failed.add((i, demands))
        return False

    def assign(parts):
        chosen.clear()
        if not rec(0, tuple(sorted([p for p in parts if p > 0], reverse=True))):
            return None
        open_demand = list(parts)
        placed = [[] for _ in parts]
        for size, d in zip(sizes, reversed(chosen)):
            j = open_demand.index(d)
            placed[j].append(size)
            open_demand[j] -= size
        return placed

    return assign


class Stop(Exception):
    pass


class StateLog:
    """A tick that logs each interval-cover state it is called in, as
    (i, demands) read off the calling frame, and raises ``Stop`` on its
    call number ``stop_at`` (counting from 1, over every call), if given."""

    def __init__(self, stop_at=None):
        self.states = []
        self.calls = 0
        self.stop_at = stop_at

    @classmethod
    def of(cls, sizes, forests):
        """The states one test visits over ``forests``."""
        log = cls()
        assign = structural.assign_intervals(sizes, log)
        for parts in forests:
            assign(parts)
        return log.states

    def __call__(self):
        caller = sys._getframe(1).f_locals
        self.states.append((caller["i"], caller["demands"]))
        self.calls += 1
        if self.calls == self.stop_at:
            raise Stop


class PairedIntervals:
    """An ``assign_intervals`` test and its reference, each with a
    ``StateLog``; every call runs both and requires the same placements,
    or the same ``Stop``, after the same states in the same order."""

    def __init__(self, sizes, stop_at=None, make=None):
        self.logs = StateLog(stop_at), StateLog(stop_at)
        self.ours = (make or structural.assign_intervals)(sizes, self.logs[0])
        self.theirs = reference_assign_intervals(sizes, self.logs[1])

    def __call__(self, parts):
        got, expected = outcome(self.ours, parts), outcome(self.theirs, parts)
        assert got == expected, parts
        assert self.logs[0].states == self.logs[1].states, parts
        for log in self.logs:
            log.states.clear()
        return got


def outcome(assign, parts):
    """The placements ``assign`` gives ``parts``, or ``Stop`` if a tick raised."""
    try:
        return assign(parts)
    except Stop:
        return Stop


def reference_hub_cover(legs, k, cycle=0, tick=None):
    """``structural.hub_cover`` before its arithmetic cuts: one reference
    test per radius, run on every placement of the hub's ball. Graphs that
    need no search go to ``structural.hub_cover``, which the cuts leave
    alone there."""
    spanning_path = len(legs) <= (1 if cycle else 2) and ceil_sqrt(max(cycle, 1) + sum(legs)) <= k
    if spanning_path or len(legs) + (2 if cycle else 0) <= 2:
        return structural.hub_cover(legs, k, cycle, tick)
    centers = [None] * k
    distinct = sorted(set(legs), reverse=True)
    for r in range(k - 1, -1, -1):
        sizes = tuple(2 * s + 1 for s in range(k - 1, -1, -1) if s != r)
        assign = uncut_assign_intervals(sizes, tick)
        for d in range(r + 1):
            for a in distinct if d else distinct[:1]:
                if a < d:
                    break
                j = legs.index(a)
                residual = [b - (r - d) for b in legs]
                residual[j] = a - d - r
                residual.append(cycle - 2 * (r - d) - 1)
                placed = assign(residual)
                if placed is not None:
                    centers[k - 1 - r] = (j, d)
                    for walk, on_walk in enumerate(placed):
                        cut = legs[walk] - residual[walk] if walk < len(legs) else r - d
                        structural._place(centers, on_walk, walk, cut + 1, cut + residual[walk])
                    return centers
    return None


INTERVAL_EXAMPLES = [
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
]


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

    @pytest.mark.parametrize("parts,sizes,expected", INTERVAL_EXAMPLES)
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


def assert_same_covers(decide, reference, ks):
    """``decide(k)`` and ``reference(k)`` give the same cover for each k."""
    for k in ks:
        assert decide(k) == reference(k), k


class TestCutsKeepTheFirstCover:
    # the count, sum, fast-success and waste cuts of assign_intervals and
    # the radius and placement pre-tests of hub_cover drop only what holds
    # no cover, so every cover found is the reference's, placement for
    # placement

    def test_two_and_three_paths_match_reference(self):
        # the forests and levels of TestIntervals, one test per k on each side
        ours, theirs = cover_tests(), functools.cache(
            lambda k: uncut_assign_intervals(tuple(range(2 * k - 1, 0, -2)))
        )
        forests = [(total - a2, a2) for total in range(2, 301) for a2 in range(1, total // 2 + 1)]
        forests += [
            (total - a2 - a3, a2, a3)
            for total in range(3, 161)
            for a3 in range(1, total // 3 + 1)
            for a2 in range(a3, (total - a3) // 2 + 1)
        ]
        for parts in forests:
            k = ceil_sqrt(sum(parts))
            while True:
                placed = ours(k)(parts)
                assert placed == theirs(k)(parts), (parts, k)
                if placed is not None:
                    break
                k += 1

    @pytest.mark.parametrize("parts,sizes,expected", INTERVAL_EXAMPLES)
    def test_examples_match_reference(self, parts, sizes, expected):
        assert structural.assign_intervals(sizes)(parts) == uncut_assign_intervals(sizes)(parts)

    @given(
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=0, max_value=12),
        st.lists(st.lists(st.integers(min_value=-1, max_value=30), max_size=6), max_size=16),
    )
    @settings(max_examples=200, deadline=None)
    def test_hypothesis_forests_match_reference(self, k, r, forests):
        # one test on each side for every forest, so the kept failures agree
        sizes = tuple(2 * s + 1 for s in range(k - 1, -1, -1) if s != r)
        ours, theirs = structural.assign_intervals(sizes), uncut_assign_intervals(sizes)
        for parts in forests:
            assert ours(parts) == theirs(parts), (sizes, parts)
        for parts in forests:
            assert structural.forest_cover(parts, k) == reference_forest_cover(parts, k), parts

    @pytest.mark.parametrize("legs_count", [3, 4, 5])
    def test_spiders_match_reference(self, legs_count):
        # the spiders and levels of TestSpiders: every k from the lower
        # bound to one past the value, and from 1 on the smaller ones
        for legs in spiders(legs_count, 40):
            value = structural_value(legs)
            first = 1 if 1 + sum(legs) <= 20 else structural.lower_bound(legs)
            assert_same_covers(
                lambda k: structural.hub_cover(legs, k),
                lambda k: reference_hub_cover(legs, k),
                range(first, value + 3),
            )

    def test_paths_and_cycles_match_reference(self):
        shapes = [((n - 1,), 0) for n in range(2, 41)]
        shapes += [((4, 3), 9), ((5, 2, 2), 6), ((), 9), ((4,), 6), ((1,), 9), ((4, 1), 6)]
        shapes += [((10, 2), 9), ((4, 4), 4), ((3, 2, 1), 7), ((480, 424, 270, 158, 43), 594)]
        for legs, cycle in shapes:
            lower = structural.lower_bound(legs, cycle)
            assert_same_covers(
                lambda k: structural.hub_cover(legs, k, cycle),
                lambda k: reference_hub_cover(legs, k, cycle),
                range(max(lower - 2, 1), lower + 3) if sum(legs) < 1000 else [43],
            )

    @given(
        st.sampled_from([0, 0, 3, 4, 5, 8, 13, 21, 40, 75]),
        st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=6),
        st.integers(min_value=-2, max_value=2),
    )
    @settings(max_examples=300, deadline=None)
    def test_hypothesis_one_hub_graphs_match_reference(self, cycle, legs, shift):
        legs = tuple(sorted(legs, reverse=True))
        k = max(structural.lower_bound(legs, cycle) + shift, 1)
        assert structural.hub_cover(legs, k, cycle) == reference_hub_cover(legs, k, cycle)


class TestCycleFreeIntervals:
    # the interval cover keeps its state in a slotted object instead of a
    # closure that refers to itself; it visits the states of the closure,
    # in the same order, one tick each, keeps the same failed states across
    # calls and finds the same first cover

    def test_forests_of_test_intervals(self):
        # the forests and levels of TestIntervals, one pair of tests per k
        tests = functools.cache(lambda k: PairedIntervals(tuple(range(2 * k - 1, 0, -2))))
        forests = [(total - a2, a2) for total in range(2, 301) for a2 in range(1, total // 2 + 1)]
        forests += [
            (total - a2 - a3, a2, a3)
            for total in range(3, 161)
            for a3 in range(1, total // 3 + 1)
            for a2 in range(a3, (total - a3) // 2 + 1)
        ]
        for parts in forests:
            k = ceil_sqrt(sum(parts))
            while tests(k)(parts) is None:
                k += 1

    @pytest.mark.parametrize("parts,sizes,expected", INTERVAL_EXAMPLES)
    def test_examples(self, parts, sizes, expected):
        assert (PairedIntervals(sizes)(parts) is not None) is expected

    @pytest.mark.parametrize("legs_count", [3, 4, 5])
    def test_spiders_of_test_spiders(self, legs_count, monkeypatch):
        # the spiders and levels of TestSpiders, every k from the lower
        # bound to one past the value: each test hub_cover builds is paired
        original, paired = structural.assign_intervals, []

        def assign_intervals(sizes, tick=None):
            assert tick is None
            paired.append(PairedIntervals(sizes, make=original))
            return paired[-1]

        shapes = [(legs, 0) for legs in spiders(legs_count, 40)]
        shapes += [((4, 3), 9), ((5, 2, 2), 6), ((4, 1), 6), ((3, 2, 1), 7)]
        expected = {
            (legs, cycle, k): structural.hub_cover(legs, k, cycle)
            for legs, cycle in shapes
            for k in range(structural.lower_bound(legs, cycle), structural_value(legs) + 2)
        }
        monkeypatch.setattr(structural, "assign_intervals", assign_intervals)
        for (legs, cycle, k), cover in expected.items():
            assert structural.hub_cover(legs, k, cycle) == cover, (legs, cycle, k)
        assert len(paired) > 100

    @given(
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=0, max_value=12),
        st.lists(st.lists(st.integers(min_value=-1, max_value=30), max_size=6), max_size=16),
        st.none() | st.integers(min_value=1, max_value=200),
    )
    @settings(max_examples=200, deadline=None)
    def test_hypothesis_forests(self, k, r, forests, stop_at):
        # one pair of tests for every forest, twice over, so the kept
        # failures agree, also after a tick abandoned a call
        sizes = tuple(2 * s + 1 for s in range(k - 1, -1, -1) if s != r)
        assign = PairedIntervals(sizes, stop_at)
        for parts in forests + forests:
            assign(parts)

    @pytest.mark.parametrize(
        "sizes,forests",
        [
            ((9, 7, 5, 3, 1), [(12, 11, 2), (13, 7, 5), (12, 11, 2), (10, 9, 6)]),
            ((13, 11, 9, 7, 3, 1), [(20, 19, 5), (16, 15, 13), (22, 22), (20, 19, 5)]),
            (tuple(range(15, 0, -2)), [(40, 12, 12), (21, 21, 20), (30, 20, 14), (40, 12, 12)]),
        ],
    )
    def test_abandoned_at_every_state(self, sizes, forests):
        # a tick that raises on call N abandons both tests at the same
        # state, and both go on alike over the same and the later forests
        total = len(StateLog.of(sizes, forests))
        assert total > 10
        for stop_at in range(1, total + 2):
            assign = PairedIntervals(sizes, stop_at)
            assert [outcome(assign, parts) for parts in forests].count(Stop) == (stop_at <= total)


def reference_forest_cover(parts, k):
    """``structural.forest_cover`` on the uncut test."""
    placed = uncut_assign_intervals(tuple(range(2 * k - 1, 0, -2)))(parts)
    if placed is None:
        return None
    centers = [None] * k
    for j, sizes in enumerate(placed):
        structural._place(centers, sizes, j, 0, parts[j] - 1)
    return centers


class TestCuts:
    # each cut on an instance where it, and only it, decides the outcome

    def test_radius_pre_test_builds_no_test(self, monkeypatch):
        # n - 1 - 3r > 4^2 - 2r - 1 for every r < 4 on the spider (10, 10, 10)
        built, ticks = [], []
        monkeypatch.setattr(structural, "assign_intervals", lambda *args: built.append(args))
        assert structural.hub_cover((10, 10, 10), 4, 0, lambda: ticks.append(1)) is None
        assert built == [] and len(ticks) == 4  # one tick per radius

    def test_placement_pre_test_builds_no_test(self, monkeypatch):
        # (5, 4, 1) at k = 3, its counting bound: only r = 2 passes the
        # radius pre-test, with room 9 - 5 = 4, and three of its placements
        # (the hub, depth 1 on leg 5 and on leg 4) leave exactly 5 vertices
        built, ticks = [], []
        monkeypatch.setattr(structural, "assign_intervals", lambda *args: built.append(args))
        assert structural.hub_cover((5, 4, 1), 3, 0, lambda: ticks.append(1)) is None
        # one tick per rejected radius (2) and placement (1 + 3 + 2)
        assert built == [] and len(ticks) == 8
        monkeypatch.undo()
        assert reference_hub_cover((5, 4, 1), 3) is None

    @given(
        st.sampled_from([0, 0, 3, 4, 7, 12, 25]),
        st.lists(st.integers(min_value=1, max_value=30), min_size=3, max_size=7),
        st.integers(min_value=-1, max_value=3),
    )
    @settings(max_examples=200, deadline=None)
    def test_pre_tests_pass_exactly_the_placements_that_fit(self, cycle, legs, shift):
        # every placement whose positive residual parts fit in the room of
        # the other sizes reaches the interval test, and no other; legs in
        # walk order, not sorted
        legs = tuple(legs)
        k = max(structural.lower_bound(legs, cycle) + shift, 1)
        seen = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(
                structural,
                "assign_intervals",
                lambda sizes, tick=None: lambda parts: seen.append((sizes, tuple(parts))),
            )
            assert structural.hub_cover(legs, k, cycle) is None
        expected = []
        for r in range(k):
            sizes = tuple(2 * s + 1 for s in range(k - 1, -1, -1) if s != r)
            # the hub, then each distinct leg length a at depths 1..min(r, a)
            placements = [(0, legs[0])] + [
                (d, a) for a in set(legs) for d in range(1, min(r, a) + 1)
            ]
            for d, a in placements:
                c = r - d
                residual = [b - c for b in legs] + [cycle - 2 * c - 1]
                residual[legs.index(a)] = a - d - r
                if sum(p for p in residual if p > 0) <= k * k - 2 * r - 1:
                    expected.append((sizes, tuple(residual)))
        assert sorted(seen) == sorted(expected)

    @pytest.mark.parametrize(
        "parts,placed,states",
        [
            ((5,), [[5]], 1),
            ((3, 3), [[5], [3]], 1),  # sizes 5 and 3 are each at least 3
            ((5, 3), [[5], [3]], 2),  # 5 closes 5, then 3 closes 3
        ],
    )
    def test_fast_success_at_equal_sizes(self, parts, placed, states):
        ticks = []
        assert structural.assign_intervals((5, 3, 1), lambda: ticks.append(1))(parts) == placed
        assert len(ticks) == states
        assert uncut_assign_intervals((5, 3, 1))(parts) == placed

    def test_count_refutes_at_the_root(self):
        ticks = []
        assert structural.assign_intervals((9, 7), lambda: ticks.append(1))((2, 2, 2)) is None
        assert len(ticks) == 1

    @pytest.mark.parametrize(
        "sizes,parts",
        [
            # slack 0, 12 = 9 + 3 and 11 = 7 + 3 + 1 are subset sums, but 2
            # is not: its least overhang is 1
            ((9, 7, 5, 3, 1), (12, 11, 2)),
            # the one placement of uni:594;480,424,270,158,43 at k = 42
            # that passes the placement pre-test, the hub at radius 41; no
            # two distinct odd sizes sum to 2
            (tuple(range(81, 0, -2)), (511, 439, 383, 229, 117, 2)),
        ],
    )
    def test_waste_bound_refutes_at_the_root(self, sizes, parts):
        assert sum(sizes) == sum(parts)
        ticks = []
        assert structural.assign_intervals(sizes, lambda: ticks.append(1))(parts) is None
        assert len(ticks) == 1

    def test_state_limit_still_bounds_the_route(self):
        # every radius and placement the arithmetic rejects ticks once, so
        # deciding uni:3;20000,20000,20000 (245 rounds) stays below the
        # route's state limit
        legs, cycle, ticks = (20000, 20000, 20000), 3, []
        k = structural.lower_bound(legs, cycle)
        while structural.hub_cover(legs, k, cycle, lambda: ticks.append(1)) is None:
            k += 1
        assert k == 245
        assert len(ticks) == 18_026 <= solver.HUB_RULE_STATES


def ball_cover_holds(lengths, centers, hub):
    """Whether balls at ``centers`` (entry i of radius k-1-i, as (walk,
    position)) cover the spider with legs ``lengths`` when ``hub`` (position
    0 the hub, p the p-th vertex out along a leg), or else the linear forest
    with path orders ``lengths`` (position p the (p+1)-th vertex of a path)."""
    k = len(centers)
    for walk, length in enumerate(lengths):
        spans = []
        for i, center in enumerate(centers):
            if center is not None:
                on, p = center
                radius = k - 1 - i
                if on == walk or hub and p == 0:
                    spans.append((p - radius, p + radius))
                elif hub and p <= radius:  # through the hub
                    spans.append((0, radius - p))
        covered = 0  # the first position on the walk not covered yet
        for low, high in sorted(spans):
            if low > covered:
                break
            covered = max(covered, high + 1)
        if covered < length + hub:
            return False
    return True


class TestRoundLimit:
    # the interval cover keeps its open states on an explicit stack, so the
    # deciders take any number of rounds; only the ball search has a limit

    def test_spider_decided_at_the_limit(self):
        assert structural.hub_cover((100000, 80000, 70000), MAX_ROUNDS) is not None

    def test_spider_above_the_limit_decided(self):
        legs = (100000, 80000, 70000)
        centers = structural.hub_cover(legs, MAX_ROUNDS + 1)
        assert ball_cover_holds(legs, centers, hub=True)
        assert not ball_cover_holds(legs, centers[1:], hub=True)  # the check can fail

    def test_forest_decided_at_the_limit(self):
        assert structural.forest_cover((100000, 80000, 70000), MAX_ROUNDS) is not None

    @pytest.mark.parametrize("parts", [(10**6,), (400000, 300000, 299999)])
    def test_forest_decided_at_a_thousand_rounds(self, parts):
        centers = structural.forest_cover(parts, 1000)
        assert ball_cover_holds(parts, centers, hub=False)
        assert not ball_cover_holds(parts, centers[:-1], hub=False)

    def test_isolated_vertices_at_a_hundred_thousand_rounds(self):
        # size i goes to the first path still open, found without a scan
        # past the paths already covered (that scan took 40 s on 2-core x86-64)
        k = 10**5
        start = time.perf_counter()
        assert structural.forest_cover((1,) * k, k) == [(j, 0) for j in range(k)]
        assert time.perf_counter() - start < 5

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
            # two arms: a search above the ball search's round limit
            ("uni:3;150000,150000", 548),
        ],
    )
    def test_oracle_at_large_orders(self, spec, value):
        assert unicyclic_spanning_upper(build(spec)) == value


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


def levels_value(legs, cycle=0):
    """b of the shape by ``structural.levels`` alone: deepen from its start
    until its decider returns a cover."""
    k, decide = structural.levels(legs, cycle)
    while decide(k) is None:
        k += 1
    return k


class TestLevelsFromIntegers:
    # Every shape is decided from its integers, with no graph built: 26,054
    # instances. A start above b(G), such as a linear forest's one level too
    # high, gives a larger value. The one-hub rows stay small, since
    # TestSpanningOracle runs the same levels and hub_cover on larger sweeps.
    @pytest.mark.parametrize(
        "family,max_order,count",
        [("uni1", 50, 1128), ("uni2", 20, 444), ("forest3", 80, 14482), ("forest2", 200, 10000)],
    )
    def test_matches_closed_form(self, family, max_order, count):
        seen = 0
        for desc in enumerate_sweep(family, max_order):
            if family.startswith("uni"):
                table = b_unicyclic_t1 if family == "uni1" else b_unicyclic_t2
                assert levels_value(desc.arms, desc.g) == table(desc.g, *desc.arms).value, desc
            else:
                formula = b_two_paths if family == "forest2" else b_three_paths
                assert levels_value(desc.parts, None) == formula(*desc.parts), desc
            seen += 1
        assert seen == count
