import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from burnkit.families import build, enumerate_sweep
from burnkit.formulas import (
    D1,
    D2,
    D3,
    D4,
    J5,
    b2_by_degree,
    b_cycle,
    b_path,
    b_three_paths,
    b_two_paths,
    t_unicyclic_bounds,
    three_paths_exceptional,
    two_paths_exceptional,
)
from burnkit.solver import burning_number_exact


class TestCatalogCounts:
    def test_pair_sets(self):
        assert len(D1) == 1 and len(D2) == 1 and len(D3) == 4 and len(D4) == 12
        assert D1 == {(2, 2)}
        assert D2 == {(3, 2)}
        assert D3 == {(1, 1), (3, 3), (4, 2), (5, 5)}
        assert len(D4) == 12

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
                if two_paths_exceptional(a1, a2)}
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
            if three_paths_exceptional(a1, a2, a3):
                from burnkit.intmath import ceil_sqrt

                assert want == ceil_sqrt(a1 + a2 + a3) + 1


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
