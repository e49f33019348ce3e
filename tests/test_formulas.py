import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from burnkit import formulas, structural
from burnkit.families import build, enumerate_sweep
from burnkit.formulas import (
    J5,
    MAX_DEFICIT,
    SLACK,
    SPORADIC,
    b2_by_degree,
    b_cycle,
    b_path,
    b_three_paths,
    b_two_paths,
    forest_exceptional,
    t_unicyclic_bounds,
)
from burnkit.solver import burning_number_exact

# The former exception tests, kept literally as the reference that
# forest_exceptional must agree with: the paper's four pair sets, probed by
# perfect-square tests on the total plus 3, 2, 1 and 0.
reference_D1 = frozenset({(2, 2)})
reference_D2 = frozenset({(3, 2)})
reference_D3 = frozenset({(1, 1), (3, 3), (4, 2), (5, 5)})
reference_D4 = frozenset(
    {
        (2, 1),
        (4, 1),
        (4, 3),
        (4, 4),
        (6, 1),
        (6, 4),
        (6, 5),
        (6, 6),
        (7, 7),
        (8, 4),
        (8, 6),
        (10, 4),
    }
)


def reference_is_square(n):
    """True iff n is a perfect square."""
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


def reference_two_paths_exceptional(a1, a2):
    """True iff (a1, a2), descending, is (t*t - 2, 2) for an integer t >= 2."""
    return a2 == 2 and a1 + 2 >= 4 and reference_is_square(a1 + 2)


def reference_three_paths_exceptional(a1, a2, a3):
    """Exception test for three path components (inputs descending)."""
    D1, D2, D3, D4 = reference_D1, reference_D2, reference_D3, reference_D4
    total = a1 + a2 + a3
    pair = (a2, a3)
    if reference_is_square(total + 3) and pair in D1:
        return True
    if reference_is_square(total + 2) and pair in D1 | D2:
        return True
    if reference_is_square(total + 1) and (pair in D1 | D2 | D3 or (a1, a2, a3) == (11, 11, 2)):
        return True
    if reference_is_square(total) and (a3 == 2 or pair in D1 | D2 | D3 | D4):
        return True
    return (a1, a2, a3) in J5


def reference_exceptional(parts):
    if len(parts) == 2:
        return reference_two_paths_exceptional(*parts)
    return reference_three_paths_exceptional(*parts)


class TestCatalogCounts:
    def test_pair_sets(self):
        # the paper's sets are disjoint; SLACK gives each pair its set's level
        sets = (reference_D1, reference_D2, reference_D3, reference_D4)
        assert [len(pairs) for pairs in sets] == [1, 1, 4, 12]
        levels = {pair: level for level, pairs in zip((3, 2, 1, 0), sets) for pair in pairs}
        assert len(levels) == 18
        assert SLACK == levels

    def test_sporadic_triples(self):
        assert len(J5) == 23
        assert (13, 11, 1) in J5 and (58, 19, 4) in J5
        for a1, a2, a3 in J5:
            assert a1 >= a2 >= a3 >= 1


class TestPathsCycles:
    @pytest.mark.parametrize("n,value", [(1, 1), (2, 2), (4, 2), (5, 3), (10, 4), (49, 7)])
    def test_path(self, n, value):
        assert b_path(n) == value

    @pytest.mark.parametrize("n,value", [(3, 2), (4, 2), (5, 3), (49, 7)])
    def test_cycle(self, n, value):
        assert b_cycle(n) == value

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            b_path(0)
        with pytest.raises(ValueError):
            b_cycle(2)


class TestTwoPaths:
    @pytest.mark.parametrize(
        "a1,a2,value",
        [(2, 2, 3), (7, 2, 4), (5, 4, 3), (14, 2, 5), (23, 2, 6), (34, 2, 7), (1, 1, 2)],
    )
    def test_values(self, a1, a2, value):
        assert b_two_paths(a1, a2) == value

    def test_auto_normalized(self):
        assert b_two_paths(2, 7) == b_two_paths(7, 2) == 4

    def test_exception_family_is_exactly_t_squared_minus_2_paired_with_2(self):
        hits = {(a1, a2) for a1 in range(1, 60) for a2 in range(1, a1 + 1)
                if forest_exceptional((a1, a2))}
        assert hits == {(t * t - 2, 2) for t in range(2, 8)}

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            b_two_paths(3, 0)


class TestThreePaths:
    @pytest.mark.parametrize(
        "triple,value",
        [
            ((2, 2, 2), 4),     # total 6 = 9-3 with tail (2,2)
            ((11, 11, 2), 6),   # sporadic member riding the 24 = 25-1 family
            ((3, 2, 1), 3),
            ((13, 11, 1), 6),   # sporadic catalog
            ((5, 2, 2), 4),     # total 9, tail (2,2): square family
            ((4, 3, 2), 4),     # total 9, a3 = 2
            ((1, 1, 1), 3),     # isolated vertices: tail (1,1) with total 3
        ],
    )
    def test_values(self, triple, value):
        assert b_three_paths(*triple) == value

    def test_auto_normalized(self):
        assert b_three_paths(1, 11, 13) == 6

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            b_three_paths(1, 1, 0)

    def test_exceptional_instances_in_sweep_range(self):
        # every exceptional triple with total <= 21 burns one above root
        for desc in enumerate_sweep("forest3", 21):
            a1, a2, a3 = desc.parts
            want = burning_number_exact(build(desc)).value
            assert b_three_paths(a1, a2, a3) == want
            if forest_exceptional((a1, a2, a3)):
                from burnkit.intmath import ceil_sqrt

                assert want == ceil_sqrt(a1 + a2 + a3) + 1


def two_path_forests(max_total):
    for total in range(2, max_total + 1):
        for a2 in range(1, total // 2 + 1):
            yield (total - a2, a2)


def three_path_forests(max_total):
    for total in range(3, max_total + 1):
        for a3 in range(1, total // 3 + 1):
            for a2 in range(a3, (total - a3) // 2 + 1):
                yield (total - a2 - a3, a2, a3)


# drawn tails: (a2, a3) with parts up to 11, a3 = 2 (the square-total
# family), and the smaller part of a two-path forest
TAILS = st.one_of(
    st.tuples(st.integers(1, 11), st.integers(1, 11)).map(lambda p: (max(p), min(p))),
    st.integers(2, 60).map(lambda a2: (a2, 2)),
    st.integers(1, 11).map(lambda a2: (a2,)),
)
PAPER_TAILS = sorted(reference_D1 | reference_D2 | reference_D3 | reference_D4)


class TestForestExceptional:
    def test_two_paths_match_reference(self):
        for parts in two_path_forests(400):
            assert forest_exceptional(parts) is reference_exceptional(parts), parts

    def test_three_paths_match_reference(self):
        for parts in three_path_forests(400):
            assert forest_exceptional(parts) is reference_exceptional(parts), parts

    @given(st.integers(min_value=2, max_value=10**6), TAILS)
    @settings(max_examples=300, deadline=None)
    def test_near_squares_match_reference(self, t, drawn):
        # totals t*t - d with d <= 4: every deficit level and one past it,
        # for every tail of the paper's sets and one drawn tail
        for d in range(5):
            for tail in (*PAPER_TAILS, (2,), drawn):
                a1 = t * t - d - sum(tail)
                parts = (a1, *tail)
                if a1 >= tail[0]:
                    assert forest_exceptional(parts) is reference_exceptional(parts), parts


def reference_b_two_paths(a1, a2):
    """``b_two_paths`` as it was: the sorted parts through the exact test."""
    t = math.isqrt(a1 + a2 - 1) + 1
    return t + (1 if forest_exceptional((max(a1, a2), min(a1, a2))) else 0)


def reference_b_three_paths(a1, a2, a3):
    """``b_three_paths`` as it was: the sorted parts through the exact test."""
    t = math.isqrt(a1 + a2 + a3 - 1) + 1
    return t + (1 if forest_exceptional(tuple(sorted((a1, a2, a3), reverse=True))) else 0)


def assert_formulas_match_reference(parts):
    # every order of the arguments, since both formulas sort their own
    formula, reference = {
        2: (b_two_paths, reference_b_two_paths),
        3: (b_three_paths, reference_b_three_paths),
    }[len(parts)]
    for order in set(itertools.permutations(parts)):
        assert formula(*order) == reference(*order), order


class TestPreTestReference:
    # b_two_paths tests deficit 0 and smallest part 2 without the exact
    # test, and b_three_paths skips it when the deficit is above
    # MAX_DEFICIT; these compare them with the formulas that always ran it

    def test_bound_derives_from_the_catalogs(self):
        assert MAX_DEFICIT == max(SLACK.values()) == 3
        assert SPORADIC == J5 | {(11, 11, 2)}
        # every sporadic triple sits at most one below a square, so no
        # bound on the total is needed beside the deficit's
        deficits = {(math.isqrt(sum(p) - 1) + 1) ** 2 - sum(p) for p in SPORADIC}
        assert deficits == {0, 1}

    def test_every_forest_to_total_120(self):
        for parts in itertools.chain(two_path_forests(120), three_path_forests(120)):
            assert_formulas_match_reference(parts)

    @pytest.mark.parametrize("t", [10, 99, 1000, 31623])
    def test_deficits_0_to_6_at_every_tail(self, t):
        for d in range(7):
            assert_formulas_match_reference((t * t - d - 2, 2))
            for tail in SLACK:
                assert_formulas_match_reference((t * t - d - sum(tail), *tail))

    def test_exact_test_runs_only_up_to_max_deficit(self, monkeypatch):
        # deterministic count of the slow path: a change that drops the
        # pre-test fails here, not only in the benchmark; two-path forests
        # never reach the exact test
        calls = []
        exact = formulas.deficit_exceptional

        def counted(parts, t):
            calls.append(t * t - sum(parts))
            return exact(parts, t)

        monkeypatch.setattr(formulas, "deficit_exceptional", counted)
        for t in (10, 1000):
            for d in range(7):
                b_two_paths(t * t - d - 2, 2)
                for tail in SLACK:
                    b_three_paths(t * t - d - sum(tail), *tail)
        assert sorted(set(calls)) == [0, 1, 2, 3]
        assert len(calls) == 2 * 4 * len(SLACK)

    @given(
        st.lists(st.integers(min_value=1, max_value=10**12), min_size=2, max_size=3),
        st.integers(min_value=0, max_value=6),
        st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_drawn_forests_to_10_12(self, parts, d, near_square):
        # a drawn forest, or its largest part moved so the total sits d
        # below the next square
        if near_square:
            rest = sum(parts) - max(parts)
            t = math.isqrt(sum(parts)) + 1
            parts = [max(1, t * t - d - rest), *sorted(parts)[:-1]]
        assert_formulas_match_reference(tuple(parts))


def interval_cover_refutes(parts, t):
    """Whether intervals of sizes 2t-1, ..., 1 cannot cover the paths."""
    return structural.forest_cover(parts, t) is None


def slack_rule(parts, deficit):
    """The level rule of the three-path catalogs: the tail's SLACK level, or
    deficit 0 with smallest part 2."""
    return deficit <= SLACK.get(parts[1:], -1) or (deficit == 0 and parts[-1] == 2)


class TestCatalogsFromIntervalCover:
    # SLACK and SPORADIC are literals; the interval cover that decides a
    # linear forest exactly gives them back

    def test_levels_at_every_tail(self):
        t = 40
        for a2 in range(1, t + 1):
            for a3 in range(1, a2 + 1):
                for d in range(MAX_DEFICIT + 1):
                    parts = (t * t - d - a2 - a3, a2, a3)
                    assert interval_cover_refutes(parts, t) == slack_rule(parts, d), parts

    def test_every_three_path_forest_to_total_120(self):
        refuted, flagged = set(), set()
        for parts in three_path_forests(120):
            t = math.isqrt(sum(parts) - 1) + 1
            if interval_cover_refutes(parts, t):
                refuted.add(parts)
            if slack_rule(parts, t * t - sum(parts)):
                flagged.add(parts)
        assert SPORADIC <= refuted and not SPORADIC & flagged
        assert refuted == flagged | SPORADIC


class TestDegreeCriterion:
    def test_star_k14(self):
        assert b2_by_degree(build("star:1,1,1,1")) == 2

    def test_single_vertex(self):
        assert b2_by_degree(build("path:1")) == 1

    def test_p6_not_determined(self):
        assert b2_by_degree(build("path:6")) is None

    def test_iff_against_exact_small(self):
        for cls, cap in [("path", 8), ("cycle", 8), ("forest2", 8), ("uni1", 8)]:
            for desc in enumerate_sweep(cls, cap):
                g = build(desc)
                exact = burning_number_exact(g).value
                by_degree = b2_by_degree(g)
                if by_degree is not None:
                    assert by_degree == exact
                else:
                    assert exact != 2 or g.vertex_count == 1


class TestBounds:
    @pytest.mark.parametrize(
        "n,t,lower,upper", [(10, 1, 3, 4), (21, 2, 4, 5), (9, 0, 3, 3)]
    )
    def test_examples(self, n, t, lower, upper):
        assert t_unicyclic_bounds(n, t) == (lower, upper)

    def test_rejects_bad_domain(self):
        with pytest.raises(ValueError):
            t_unicyclic_bounds(3, 1)
        with pytest.raises(ValueError):
            t_unicyclic_bounds(10, -1)

    @given(st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=400))
    @settings(max_examples=120, deadline=None)
    def test_lower_matches_definition(self, t, extra):
        # lower = ceil(sqrt(n + (t^2+4t)/4) - t/2): smallest m with
        # (2m + t)^2 >= 4n + t^2 + 4t
        n = 3 + t + extra
        lower, upper = t_unicyclic_bounds(n, t)
        s = 4 * n + t * t + 4 * t
        assert (2 * lower + t) ** 2 >= s
        assert (2 * (lower - 1) + t) ** 2 < s
        assert lower <= upper
