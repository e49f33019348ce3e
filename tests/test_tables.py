import io

import pytest

from burnkit.families import build, enumerate_sweep
from burnkit.graphs import qr_decompose
from burnkit.solver import burning_number_exact, unicyclic_spanning_upper
from burnkit.tables import (
    B4_LITERALS,
    B5_LITERALS,
    B6_LITERALS,
    C3_LITERALS,
    DEGREE_B2,
    FALLBACK,
    b_unicyclic_t1,
    b_unicyclic_t2,
    errata_covers,
    in_c_union,
    load_errata,
    param_b1,
    param_b2,
    param_b3,
    parse_errata,
    set_a,
    set_b,
    set_c1,
    set_c2,
    set_c3,
)


class TestCatalogs:
    def test_counts(self):
        # parametric templates are counted at q = 10, where nothing degenerates
        assert len(C3_LITERALS) == 2
        assert len(param_b1(10)) == 15
        assert len(param_b2(10)) == 15
        assert len(param_b3(10)) == 9
        assert len(B4_LITERALS) == len(B5_LITERALS) == len(B6_LITERALS) == 23
        assert len(set_a(10)) == 2 and len(set_b(10)) == 2

    def test_set_a(self):
        assert set_a(3) == {(7, 4)}  # the two templates coincide at q=3
        assert set_a(4) == {(9, 10), (14, 5)}

    def test_set_b_small_q(self):
        assert set_b(3) == {(4, 4, 4), (5, 4, 4)}

    def test_set_c1_r_dependence(self):
        assert set_c1(4, 5) == {(9, 10, 2), (14, 5, 2)}
        assert set_c1(4, 3) == set()  # arm r-q+1 = 0 degenerates

    def test_degenerate_q_drops_invalid_tuples(self):
        for q in (1, 2, 3):
            for triple in set_c2(q) | set_c3(q) | param_b1(q) | param_b2(q) | param_b3(q):
                g, a1, a2 = triple
                assert g >= 3 and a1 >= a2 >= 1

    def test_all_catalog_members_classify_plus_one(self):
        # every materialized member must land in the union when evaluated
        # with the q, r of its own order, exactly as a table lookup would
        members = set()
        for q in (3, 4, 5, 6):
            for r in range(1, 2 * q - 1):
                members |= set_c1(q, r)
            members |= set_c2(q) | set_c3(q)
            members |= param_b1(q) | param_b2(q) | param_b3(q)
        members |= B4_LITERALS | B5_LITERALS | B6_LITERALS
        for g, a1, a2 in members:
            qr = qr_decompose(g + a1 + a2)
            assert in_c_union(g, a1, a2, qr.q, qr.r), (g, a1, a2)


class TestTableT1:
    @pytest.mark.parametrize(
        "g,a,value",
        [
            (7, 3, 3),   # generic row
            (7, 4, 4),   # exceptional pair
            (4, 6, 3),   # brute-force verified
            (3, 1, 2),   # n=4: degree criterion
            (4, 1, 2),   # n=5
            (3, 3, 3),   # n=6 boundary
            (5, 1, 3),   # n=6 boundary
        ],
    )
    def test_values(self, g, a, value):
        assert b_unicyclic_t1(g, a).value == value

    def test_methods_and_bounds(self):
        res = b_unicyclic_t1(7, 4)
        assert res.method == "table-t1"
        assert res.lower_bound <= res.value <= res.upper_bound
        assert b_unicyclic_t1(3, 2).method == DEGREE_B2

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            b_unicyclic_t1(2, 3)
        with pytest.raises(ValueError):
            b_unicyclic_t1(4, 0)

    def test_against_exact_mid_range(self):
        for desc in enumerate_sweep("uni1", 30):
            res = b_unicyclic_t1(desc.g, desc.arms[0])
            assert res.method != FALLBACK, desc
            exact = burning_number_exact(build(desc)).value
            assert res.value == exact, desc
            q = qr_decompose(desc.g + desc.arms[0]).q
            assert res.value in (q, q + 1)


class TestTableT2:
    @pytest.mark.parametrize(
        "g,a1,a2,value",
        [
            (4, 4, 4, 4),    # short-cycle exceptional triple
            (9, 10, 2, 5),   # r-dependent exceptional triple
            (8, 5, 4, 4),    # generic long-cycle row
            (3, 1, 1, 2),    # n=5: degree criterion
            (4, 1, 1, 2),    # n=6
            (3, 2, 2, 3),    # n=7 boundary
        ],
    )
    def test_values(self, g, a1, a2, value):
        assert b_unicyclic_t2(g, a1, a2).value == value

    def test_auto_normalizes_arms(self):
        assert b_unicyclic_t2(9, 2, 10).value == 5

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            b_unicyclic_t2(2, 1, 1)
        with pytest.raises(ValueError):
            b_unicyclic_t2(4, 1, 0)

    def test_against_exact_mid_range(self):
        for desc in enumerate_sweep("uni2", 24):
            res = b_unicyclic_t2(desc.g, *desc.arms)
            assert res.method != FALLBACK, desc
            exact = burning_number_exact(build(desc)).value
            assert res.value == exact, desc
            q = qr_decompose(desc.g + sum(desc.arms)).q
            assert res.value in (q, q + 1)

    def test_spanning_oracle_agrees_small_range(self):
        for desc in enumerate_sweep("uni2", 18):
            res = b_unicyclic_t2(desc.g, *desc.arms)
            assert res.value == unicyclic_spanning_upper(build(desc))


class TestErrata:
    def test_parse_and_cover(self):
        text = "# accepted discrepancies\n2 22 16 8 7 6 catalog check\n1 9 5 4 3 demo\n"
        entries = parse_errata(text)
        assert len(entries) == 2
        assert errata_covers(entries, 2, 22, (16, 8), 7, 6)
        assert not errata_covers(entries, 2, 22, (16, 8), 7, 7)  # values must match
        assert not errata_covers(entries, 2, 22, (16, 9), 7, 6)
        assert errata_covers(entries, 1, 9, (5,), 4, 3)

    def test_load_from_file_object(self):
        entries = load_errata(io.StringIO("1 7 4 4 3 note here\n"))
        assert entries[(1, 7, (4,))].note == "note here"

    def test_load_none_is_empty(self):
        assert load_errata(None) == {}

    def test_missing_file(self):
        with pytest.raises(FileNotFoundError):
            load_errata("/nonexistent/errata.txt")

    @pytest.mark.parametrize("line", ["x 3 1 2 3", "1 3", "3 3 1 1 2 2", "2 4 4 4 x 4"])
    def test_malformed_lines_rejected(self, line):
        with pytest.raises(ValueError):
            parse_errata(line)
