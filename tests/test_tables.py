import hashlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from burnkit import families, solver, tables
from burnkit.families import build, enumerate_sweep
from burnkit.formulas import forest_exceptional, t_unicyclic_bounds
from burnkit.graphs import qr_decompose
from burnkit.intmath import ceil_sqrt
from burnkit.solver import BurnResult, burning_number_exact, unicyclic_spanning_upper
from burnkit.tables import (
    DEGREE_B2,
    TABLE_T1,
    TABLE_T2,
    b_unicyclic_t1,
    b_unicyclic_t2,
    errata_covers,
    exceptional,
    load_errata,
    parse_errata,
)
from perfbench.catalogs import T2_LITERALS, t1_members, t2_members


def _digest(members):
    return hashlib.sha256(repr(sorted(members)).encode()).hexdigest()[:16]


def _two_arm_decisions(orders):
    """Classify every two-arm triple of the given orders; return the count
    and the triples at q+1, failing on any answer not from the table."""
    checked, plus = 0, []
    for n in orders:
        q = qr_decompose(n).q
        for g in range(3, n - 1):
            for a2 in range(1, (n - g) // 2 + 1):
                a1 = n - g - a2
                res = b_unicyclic_t2(g, a1, a2)
                assert res.method in (TABLE_T2, DEGREE_B2), (g, a1, a2)
                checked += 1
                if res.value == q + 1:
                    plus.append((g, a1, a2))
    return checked, plus


def reference_residual(q, g, *arms):
    """The residual-forest test as it was, through ``forest_exceptional``."""
    parts = tuple(sorted((g - 2 * q + 1, *(a - q + 1 for a in arms)), reverse=True))
    return parts[-1] >= 1 and forest_exceptional(parts)


def reference_flat_t1(g, a):
    """The one-arm q row as the table once tested it beside the q+1 row."""
    qr = qr_decompose(g + a)
    q, r = qr.q, qr.r
    exceptional_pair = reference_residual(q, g, a)
    return (1 <= r <= q - 1) and (2 * r + 1 <= g <= q * q) and not exceptional_pair


def reference_flat_t2(g, a1, a2):
    """The two-arm q rows as the table once tested them beside the q+1 rows."""
    qr = qr_decompose(g + a1 + a2)
    q, r = qr.q, qr.r
    arm_cap = q * q - g // 2
    return (
        (1 <= r <= 2 * q - 2)
        and not exceptional(q, r, g, a1, a2)
        and (
            (r + 1 <= g <= 2 * q - 1 and a1 <= arm_cap - 1)
            or (2 * q <= g <= q * q and a2 >= r - q + 1)
        )
    )


def _near(anchor, low, high):
    """A value within 3 of ``anchor``, clamped to [low, high]."""
    return st.integers(-3, 3).map(lambda d: min(max(anchor + d, low), high))


@st.composite
def unicyclic_instances(draw):
    """A one- or two-arm instance of order q^2 + r < 10**12, q >= 3, with
    the cycle and arm lengths drawn near the row boundaries or uniformly."""
    t = draw(st.sampled_from((1, 2)))
    q = draw(st.integers(min_value=3, max_value=999_999))
    r = draw(st.integers(min_value=1, max_value=2 * q + 1))
    n = q * q + r
    high = n - t
    g = draw(st.one_of(
        st.integers(min_value=3, max_value=high),
        *(_near(anchor, 3, high) for anchor in (r, 2 * r, 2 * q, q * q)),
    ))
    if t == 1:
        return (g, n - g)
    rest = n - g
    a1 = draw(st.one_of(
        st.integers(min_value=(rest + 1) // 2, max_value=rest - 1),
        _near(q * q - g // 2, (rest + 1) // 2, rest - 1),
        _near(rest - (r - q), (rest + 1) // 2, rest - 1),
    ))
    return (g, a1, rest - a1)


# per arm count: the lookup, its former q rows, and its method tag
TABLES = {
    1: (b_unicyclic_t1, reference_flat_t1, TABLE_T1),
    2: (b_unicyclic_t2, reference_flat_t2, TABLE_T2),
}


class TestTotality:
    @given(unicyclic_instances())
    @settings(max_examples=300, deadline=None)
    def test_single_predicate_never_searches(self, instance):
        # the q value holds exactly where the former q rows held, at orders
        # far beyond the frozen tests, without building a graph or searching
        def fail(*args, **kwargs):
            raise AssertionError("table lookup built a graph or searched")

        t = len(instance) - 1
        lookup, reference_flat, method = TABLES[t]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "burning_number_exact", fail)
            mp.setattr(families, "build", fail)
            res = lookup(*instance)
        n = sum(instance)
        q = qr_decompose(n).q
        assert res.method == method
        assert res.value in (q, q + 1)
        assert (res.value == q) == reference_flat(*instance), instance
        lower, upper = t_unicyclic_bounds(n, t)
        assert lower <= res.value <= upper
        assert (res.lower_bound, res.upper_bound) == (lower, upper)


def reference_exceptional(q, r, g, a1, a2):
    """``exceptional`` as it was, through ``reference_residual``."""
    if (g, a1, a2) in (
        (2 * q - 2, q * q - q - 2, q + 1),
        (2 * q - 1, q * q - q - 2, q + 1),
        (q * q - 7, q + 2, q + 1),
        (2 * q + 1, q * q - q - 6, q + 1),
        (2 * q + 1, q * q - q - 7, q + 2),
    ):
        return True
    return (a2 == r - q + 1 and reference_residual(q, g, a1)) or (
        r >= 2 * q - 3 and reference_residual(q, g, a1, a2)
    )


def _reference_result(value, method, n, t):
    lower, upper = t_unicyclic_bounds(n, t)
    return BurnResult(value=value, method=method, lower_bound=lower, upper_bound=upper)


def reference_lookup_t1(g, a):
    """The one-arm lookup by ``qr_decompose`` and ``t_unicyclic_bounds``."""
    n = g + a
    if n <= 5:
        return _reference_result(2, DEGREE_B2, n, 1)
    qr = qr_decompose(n)
    q, r = qr.q, qr.r
    plus = (q <= r <= 2 * q + 1) or g >= q * q + 1 or g <= 2 * r or reference_residual(q, g, a)
    return _reference_result(q + 1 if plus else q, TABLE_T1, n, 1)


def reference_lookup_t2(g, a1, a2):
    """The two-arm lookup by ``qr_decompose`` and ``t_unicyclic_bounds``."""
    a1, a2 = max(a1, a2), min(a1, a2)
    n = g + a1 + a2
    if n <= 6:
        return _reference_result(2, DEGREE_B2, n, 2)
    qr = qr_decompose(n)
    q, r = qr.q, qr.r
    plus = (
        r >= 2 * q - 1
        or 3 <= g <= r
        or g >= q * q + 1
        or a1 >= q * q - g // 2
        or (2 * q <= g <= q * q and a2 <= r - q)
        or reference_exceptional(q, r, g, a1, a2)
    )
    return _reference_result(q + 1 if plus else q, TABLE_T2, n, 2)


REFERENCE_LOOKUPS = {
    1: (b_unicyclic_t1, reference_lookup_t1),
    2: (b_unicyclic_t2, reference_lookup_t2),
}


class TestReferenceEquality:
    """Each lookup returns the whole BurnResult (value, method, both bounds,
    no certificate) of the lookup that decomposed n by ``qr_decompose`` and
    took its bounds from ``t_unicyclic_bounds``."""

    def test_one_arm_orders_to_400(self):
        for n in range(4, 401):
            for g in range(3, n):
                assert b_unicyclic_t1(g, n - g) == reference_lookup_t1(g, n - g), (g, n - g)

    def test_two_arm_orders_to_90(self):
        for n in range(5, 91):
            for g in range(3, n - 1):
                for a2 in range(1, (n - g) // 2 + 1):
                    a1 = n - g - a2
                    res = b_unicyclic_t2(g, a1, a2)
                    assert res == reference_lookup_t2(g, a1, a2), (g, a1, a2)

    @given(unicyclic_instances())
    @settings(max_examples=300, deadline=None)
    def test_drawn_orders_to_10_12(self, instance):
        lookup, reference = REFERENCE_LOOKUPS[len(instance) - 1]
        assert lookup(*instance) == reference(*instance)


def slow_path_queries(q):
    """One- and two-arm instances of order q^2 + r for r in {1, q-1, q,
    2q-3, 2q-2}: about a hundred evenly spaced cycle lengths plus those at
    the row boundaries, and for two arms second arms of length 1, r-q+1,
    q+1, q+2 and half the rest."""
    queries = []
    for r in (1, q - 1, q, 2 * q - 3, 2 * q - 2):
        n = q * q + r
        grid = set(range(3, n - 2, n // 97)) | {
            r, r + 1, 2 * r, 2 * r + 1, 2 * q - 2, 2 * q - 1, 2 * q, 2 * q + 1,
            q * q - 7, q * q, q * q + 1,
        }
        for g in sorted(x for x in grid if 3 <= x <= n - 2):
            rest = n - g
            queries.append((g, rest))
            for a2 in sorted({1, r - q + 1, q + 1, q + 2, rest // 2}):
                if 1 <= a2 <= rest // 2:
                    queries.append((g, rest - a2, a2))
    return queries


class TestSlowPathCount:
    # Only the two-arm three-path branch (r >= 2q-3) reaches the exact
    # forest test; the one-arm rule and the two-path branch compare the
    # smaller residual part with 2, so no two-part forest is built. The
    # count is deterministic, so a change that sends more lookups to the
    # exact test fails here and not only in the benchmark: when every
    # residual forest of two or three parts was built and pre-tested, the
    # same queries made 1,004 calls.
    def test_exact_forest_tests_at_q_1000(self, monkeypatch):
        calls = []
        exact = tables.deficit_exceptional

        def counted(parts, t):
            calls.append(parts)
            return exact(parts, t)

        monkeypatch.setattr(tables, "deficit_exceptional", counted)
        queries = slow_path_queries(1000)
        for instance in queries:
            lookup, reference = REFERENCE_LOOKUPS[len(instance) - 1]
            assert lookup(*instance) == reference(*instance), instance
        assert len(queries) == 2835
        assert len(calls) == 604
        assert {len(parts) for parts in calls} == {3}


class TestFrozenEquivalence:
    """Table decisions frozen when the literal exception catalogs were
    replaced by the residual-forest rule; the counts and digests were taken
    from the catalog-based tables and must never be edited to make a
    changed table pass."""

    def test_two_arm_orders_q2_plus_2q_minus_2(self):
        # every order n = q^2+2q-2 the two-arm long-chain families live on
        checked, plus = 0, []
        for q in range(2, 15):
            n = q * q + 2 * q - 2
            for g in range(3, n - 1):
                for a2 in range(1, (n - g) // 2 + 1):
                    a1 = n - g - a2
                    res = b_unicyclic_t2(g, a1, a2)
                    assert res.method in (TABLE_T2, DEGREE_B2), (g, a1, a2)
                    checked += 1
                    if res.value == q + 1:
                        plus.append((g, a1, a2))
        assert checked == 40_984
        assert len(plus) == 19_446
        assert _digest(plus) == "eb588de11b3e4acc"

    def test_two_arm_orders_7_to_90(self):
        # every two-arm order the short-cycle rows and the r-dependent
        # exceptions reach up to q = 9
        checked, plus = _two_arm_decisions(range(7, 91))
        assert checked == 55_811
        assert len(plus) == 19_379
        assert _digest(plus) == "8252d3ca52b1c384"

    def test_two_arm_orders_q2_plus_2q_minus_3(self):
        # the order n = q^2+2q-3 where the residual forest of the hub fire
        # totals (q-1)^2-1
        checked, plus = _two_arm_decisions(q * q + 2 * q - 3 for q in range(3, 15))
        assert checked == 40_408
        assert len(plus) == 16_615
        assert _digest(plus) == "3df59d416e67a0e5"

    def test_one_arm_orders_6_to_400(self):
        checked, plus = 0, []
        for n in range(6, 401):
            q = qr_decompose(n).q
            for g in range(3, n):
                res = b_unicyclic_t1(g, n - g)
                assert res.method in (TABLE_T1, DEGREE_B2), (g, n - g)
                checked += 1
                if res.value == q + 1:
                    plus.append((g, n - g))
        assert checked == 79_000
        assert len(plus) == 47_685
        assert _digest(plus) == "c51e68517afb5d61"

    def test_frozen_catalog_members_classify_plus_one(self):
        # the benchmark's frozen copy of the old catalogs; a member at order
        # n = q^2+r (r >= 1) needs q+1 = ceil(sqrt(n)) rounds
        for g, a1, a2 in T2_LITERALS:
            assert b_unicyclic_t2(g, a1, a2).value == ceil_sqrt(g + a1 + a2), (g, a1, a2)
        for q in range(2, 31):
            for g, a1, a2 in t2_members(q):
                assert b_unicyclic_t2(g, a1, a2).value == ceil_sqrt(g + a1 + a2), (g, a1, a2)
            for g, a in t1_members(q):
                assert b_unicyclic_t1(g, a).value == ceil_sqrt(g + a), (g, a)


class TestCatalogs:
    def test_all_catalog_members_classify_plus_one(self):
        # a one-arm exceptional pair plus a second arm of length r-q+1 is an
        # exception at order q^2+r for every r = q..2q-2
        for q in range(3, 31):
            for r in range(q, 2 * q - 1):
                for g, a1 in t1_members(q):
                    a2 = r - q + 1
                    n = g + a1 + a2
                    assert n == q * q + r
                    assert b_unicyclic_t2(g, a1, a2).value == ceil_sqrt(n), (g, a1, a2)

    @pytest.mark.parametrize(
        "q,r,triple,expected",
        [
            (3, 3, (4, 4, 4), True),     # short-cycle literal
            (5, 6, (18, 7, 6), True),    # long-cycle literal (q^2-7, q+2, q+1)
            (4, 5, (9, 10, 2), True),    # residual (8, 2) with a2 = r-q+1
            (5, 7, (22, 5, 5), True),    # r = 2q-3: residual (13, 1, 1)
            (5, 6, (19, 6, 6), False),   # r = 2q-4: residual (10, 2, 2) burns in q
            (5, 1, (7, 14, 5), False),   # cycle part 7 - 10 + 1 <= 0
            (10, 18, (77, 28, 13), True),   # r = 2q-2: residual (58, 19, 4), a J5 member
            (10, 17, (77, 28, 12), False),  # r = 2q-3: residual (58, 19, 3) at deficit 1
            (3, 4, (3, 5, 5), False),    # r = 2q-2: cycle part 3 - 6 + 1 <= 0
        ],
    )
    def test_exceptional(self, q, r, triple, expected):
        assert exceptional(q, r, *triple) is expected

    def test_one_arm_exceptional_pair_against_exact(self):
        # (g, a) = (7, 4): r = q-1 with residual (2, 2), a (t*t - 2, 2) pair
        assert reference_residual(3, 7, 4) is True
        exact = burning_number_exact(build("uni:7;4")).value
        assert b_unicyclic_t1(7, 4).value == exact == 4

    def test_reference_residual_needs_positive_parts(self):
        # no lookup reaches this forest: order 5 takes the degree criterion
        assert reference_residual(3, 4, 1) is False  # arm part 1 - 3 + 1 <= 0


class TestTableT1:
    @pytest.mark.parametrize(
        "g,a,value",
        [
            (7, 3, 3),   # generic row
            (7, 4, 4),   # exceptional pair: r = q-1, residual (2, 2)
            (6, 4, 3),   # r = q-2: residual (1, 2)
            (9, 2, 3),   # r = q-1: arm part 2 - 3 + 1 <= 0
            (4, 6, 3),   # brute-force verified
            (3, 1, 2),   # n=4: degree criterion
            (4, 1, 2),   # n=5
            (3, 3, 3),   # n=6 boundary
            (5, 1, 3),   # n=6 boundary
            # residual forest exceptional, but already q+1 by r >= q
            (5, 3, 3),
            (7, 9, 4),
            (12, 4, 4),
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
            assert res.method in (TABLE_T1, DEGREE_B2), desc
            exact = burning_number_exact(build(desc)).value
            assert res.value == exact, desc
            q = qr_decompose(desc.g + desc.arms[0]).q
            assert res.value in (q, q + 1)


class TestTableT2:
    @pytest.mark.parametrize(
        "g,a1,a2,value",
        [
            (4, 4, 4, 4),    # short-cycle exceptional triple
            (5, 4, 4, 4),    # short-cycle exceptional triple, g = 2q-1
            (14, 5, 2, 5),   # r-dependent exceptional triple (q^2-2, q+1, r-q+1)
            (9, 10, 2, 5),   # r-dependent exceptional triple
            (8, 5, 4, 4),    # generic long-cycle row
            (3, 1, 1, 2),    # n=5: degree criterion
            (4, 1, 1, 2),    # n=6
            (3, 2, 2, 3),    # n=7 boundary
            # chain-condition members whose residual forest has an empty
            # part; q+1 by the row 3 <= g <= r
            (3, 5, 5, 4),
            (4, 6, 3, 4),
            (4, 11, 7, 5),
            (4, 9, 9, 5),
            (5, 9, 8, 5),
            (6, 9, 7, 5),
            (6, 8, 8, 5),
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
            assert res.method in (TABLE_T2, DEGREE_B2), desc
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

    @pytest.mark.parametrize(
        "line",
        [
            "x 3 1 2 3",
            "1 3",
            "3 3 1 1 2 2",
            "2 4 4 4 x 4",
            "1 2 5 3 3",  # g = 2
            "2 7 0 4 4 4",  # an arm of length 0
            "1 7 4 0 -1",  # values 0 and -1
        ],
    )
    def test_malformed_lines_rejected(self, line):
        with pytest.raises(ValueError, match="malformed errata line 1"):
            parse_errata(line)

    def test_arms_stored_descending(self):
        entries = parse_errata("2 9 2 10 5 4 ascending arms\n")
        assert list(entries) == [(2, 9, (10, 2))]
        assert errata_covers(entries, 2, 9, (10, 2), 5, 4)

    @pytest.mark.parametrize("second", ["2 9 10 2 5 4", "2 9 2 10 5 5 other values"])
    def test_duplicate_instance_rejected(self, second):
        text = "# header\n2 9 10 2 5 4 first\n\n" + second + "\n"
        with pytest.raises(ValueError, match="line 4"):
            parse_errata(text)
