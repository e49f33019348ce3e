"""The O(1) evaluators against their earlier, plainer forms.

The table lookups, ``exceptional`` and the two- and three-path formulas
were reworked to return the counting-bound row first and to skip the
comparisons that validation or an earlier row implies. The functions
below are those evaluators as they were before (the three-path pre-test
written out where it called the helper ``may_be_exceptional``), and every
current evaluator must give the same value, method and bounds on every
classify query of the benchmark's first three seeds, around each row
boundary, and on drawn orders up to 10^18.
"""

import re
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from burnkit.formulas import (
    MAX_DEFICIT,
    b_three_paths,
    b_two_paths,
    deficit_exceptional,
    t_unicyclic_bounds,
)
from burnkit.intmath import ceil_sqrt
from burnkit.solver import BurnResult
from burnkit.tables import (
    DEGREE_B2,
    TABLE_T1,
    TABLE_T2,
    b_unicyclic_t1,
    b_unicyclic_t2,
    exceptional,
)
from perfbench.workloads import make_classify

MAX_ORDER = 10**18


def reference_exceptional(q, r, g, a1, a2):
    if q + 1 <= a2 <= q + 2 and (g, a1, a2) in (
        (2 * q - 2, q * q - q - 2, q + 1),
        (2 * q - 1, q * q - q - 2, q + 1),
        (q * q - 7, q + 2, q + 1),
        (2 * q + 1, q * q - q - 6, q + 1),
        (2 * q + 1, q * q - q - 7, q + 2),
    ):
        return True
    if a2 == r - q + 1 and min(g - 2 * q + 1, a1 - q + 1) == 2:
        return True
    if r < 2 * q - 3:
        return False
    parts = tuple(sorted((g - 2 * q + 1, a1 - q + 1, a2 - q + 1), reverse=True))
    return parts[-1] >= 1 and deficit_exceptional(parts, q - 1)


def _reference_degree_b2(n, t):
    return BurnResult(2, DEGREE_B2, *t_unicyclic_bounds(n, t))


def reference_b_unicyclic_t1(g, a, budget=None):
    if g < 3 or a < 1:
        raise ValueError(f"need g >= 3 and a >= 1, got (g={g}, a={a})")
    n = g + a
    if n <= 5:
        return _reference_degree_b2(n, 1)
    q = isqrt(n - 1)
    r = n - q * q
    lower = q + 1 if r >= q else q
    plus = lower > q or g >= q * q + 1 or g <= 2 * r or (
        r == q - 1 and min(g - 2 * q + 1, a - q + 1) == 2
    )
    return BurnResult(q + 1 if plus else q, TABLE_T1, lower, q + 1)


def reference_b_unicyclic_t2(g, a1, a2, budget=None):
    a1, a2 = max(a1, a2), min(a1, a2)
    if g < 3 or a2 < 1:
        raise ValueError(f"need g >= 3 and arms >= 1, got (g={g}, a1={a1}, a2={a2})")
    n = g + a1 + a2
    if n <= 6:
        return _reference_degree_b2(n, 2)
    q = isqrt(n - 1)
    r = n - q * q
    lower = q + 1 if r >= 2 * q - 1 else q
    plus = (
        lower > q
        or 3 <= g <= r
        or g >= q * q + 1
        or a1 >= q * q - g // 2
        or (2 * q <= g <= q * q and a2 <= r - q)
        or reference_exceptional(q, r, g, a1, a2)
    )
    return BurnResult(q + 1 if plus else q, TABLE_T2, lower, q + 1)


def reference_b_two_paths(a1, a2):
    if a1 < 1 or a2 < 1:
        raise ValueError(f"path orders must be >= 1, got ({a1}, {a2})")
    total = a1 + a2
    t = ceil_sqrt(total)
    return t + 1 if total == t * t and min(a1, a2) == 2 else t


def reference_b_three_paths(a1, a2, a3):
    if min(a1, a2, a3) < 1:
        raise ValueError(f"path orders must be >= 1, got ({a1}, {a2}, {a3})")
    total = a1 + a2 + a3
    t = ceil_sqrt(total)
    # the pre-test the former ``may_be_exceptional(total, t)`` made
    if t * t - total <= MAX_DEFICIT and deficit_exceptional(
        tuple(sorted((a1, a2, a3), reverse=True)), t
    ):
        return t + 1
    return t


EVALUATORS = {
    "t1": (b_unicyclic_t1, reference_b_unicyclic_t1),
    "t2": (b_unicyclic_t2, reference_b_unicyclic_t2),
    "f2": (b_two_paths, reference_b_two_paths),
    "f3": (b_three_paths, reference_b_three_paths),
}


def assert_same(kind, args):
    """Same answer in the same type: a BurnResult compares value, method,
    both bounds and the (absent) certificate."""
    current, reference = EVALUATORS[kind]
    got, want = current(*args), reference(*args)
    assert type(got) is type(want) and got == want, (kind, args, got, want)


def assert_same_exceptional(q, r, g, a1, a2):
    got = exceptional(q, r, g, a1, a2)
    assert got is reference_exceptional(q, r, g, a1, a2), (q, r, g, a1, a2)


@pytest.mark.parametrize(
    "kind,args",
    [
        ("t1", (2, 5)), ("t1", (5, 0)),
        ("t2", (2, 3, 3)), ("t2", (3, 0, 5)), ("t2", (4, 6, -1)),
        ("f2", (0, 4)), ("f2", (4, -2)),
        ("f3", (0, 1, 1)), ("f3", (3, 4, 0)),
    ],
)
def test_same_rejection(kind, args):
    current, reference = EVALUATORS[kind]
    with pytest.raises(ValueError) as want:
        reference(*args)
    with pytest.raises(ValueError, match=f"^{re.escape(str(want.value))}$"):
        current(*args)


def _through(name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


class TestClassifyQueries:
    def test_every_query_of_seeds_1_to_3(self):
        checked = 0
        for seed in (1, 2, 3):
            for item in make_classify(seed, _through):
                for kind, args, _ in item.queries:
                    assert_same(kind, args)
                    checked += 1
        assert checked == 3 * 200 * 100


class TestRowNeighbourhoods:
    # every order q^2 + r with r within 4 of the residual rows' q-1 and
    # 2q-3, cycle lengths around 2q and around the literals' q^2-7, and
    # second arms around 1, r-q+1, q+1 and q+2
    QS = (3, 4, 5, 6, 7, 10, 31, 1000, 999_999_999)

    def test_one_arm(self):
        for q in self.QS:
            for r in range(max(1, q - 5), q + 4):
                n = q * q + r
                for g in {*range(2 * q - 4, 2 * q + 5), *range(q * q - 9, q * q + 3)}:
                    if 3 <= g <= n - 1:
                        assert_same("t1", (g, n - g))

    def test_two_arms(self):
        for q in self.QS:
            for r in range(max(1, 2 * q - 7), 2 * q + 2):
                n = q * q + r
                for g in {*range(2 * q - 4, 2 * q + 5), *range(q * q - 9, q * q + 3)}:
                    for a2 in {1, 2, 3, *range(q - 1, q + 4), *range(r - q - 1, r - q + 3)}:
                        a1 = n - g - a2
                        if g >= 3 and 1 <= a2 <= a1:
                            assert_same("t2", (g, a1, a2))
                            if r <= 2 * q - 2:
                                assert_same_exceptional(q, r, g, a1, a2)


def _near(anchor, low, high, reach=2):
    """A value within ``reach`` of ``anchor``, clamped to [low, high]."""
    return st.integers(-reach, reach).map(lambda d: min(max(anchor + d, low), high))


@st.composite
def orders(draw, t):
    """An order q^2 + r <= 10^18 of a unicyclic graph with t arms, with r
    uniform or on either side of q-1, q, 2q-3 and 2q-1, or a small order
    that the degree criterion or the first q rows settle."""
    if draw(st.booleans()):
        return draw(st.integers(min_value=3 + t, max_value=30))
    q = draw(st.integers(min_value=2, max_value=10**9 - 1))
    r = draw(st.one_of(
        st.integers(min_value=1, max_value=2 * q + 1),
        *(_near(anchor, 1, 2 * q + 1) for anchor in (q - 1, q, 2 * q - 3, 2 * q - 1)),
    ))
    return q * q + r


@st.composite
def cycle_lengths(draw, n, t):
    """A cycle length for order n with t arms: uniform, or on either side of
    2q, q^2 and q^2 + 1, or near r and 2r."""
    q = isqrt(n - 1)
    r = n - q * q
    high = n - t
    return draw(st.one_of(
        st.integers(min_value=3, max_value=high),
        *(_near(anchor, 3, high) for anchor in (2 * q, q * q, q * q + 1, r, 2 * r, 2 * q + 1)),
    ))


@st.composite
def one_arm_instances(draw):
    n = draw(orders(1))
    g = draw(cycle_lengths(n, 1))
    return (g, n - g)


@st.composite
def two_arm_instances(draw):
    """Two arms in either order; the second arm is uniform, near the
    two-arm rows' r-q and r-q+1, near q+1 and q+2, or near half the rest."""
    n = draw(orders(2))
    g = draw(cycle_lengths(n, 2))
    q = isqrt(n - 1)
    r = n - q * q
    rest = n - g
    half = rest // 2
    a2 = draw(st.one_of(
        st.integers(min_value=1, max_value=half),
        *(_near(anchor, 1, half) for anchor in (1, r - q, r - q + 1, q + 1, q + 2, half)),
    ))
    a1 = rest - a2
    return (g, a2, a1) if draw(st.booleans()) else (g, a1, a2)


@st.composite
def path_forests(draw, parts):
    """``parts`` positive path orders totalling at most 10^18: uniform, or
    with the largest part set so that the total sits 0-4 below a square,
    small parts included, in any order."""
    small = st.integers(min_value=1, max_value=12)
    tail = draw(st.lists(
        st.one_of(small, st.integers(min_value=1, max_value=MAX_ORDER // 4)),
        min_size=parts - 1, max_size=parts - 1,
    ))
    if draw(st.booleans()):
        head = draw(st.integers(min_value=1, max_value=MAX_ORDER // 2))
    else:
        t = draw(st.integers(min_value=2, max_value=10**9))
        head = max(1, t * t - draw(st.integers(0, 4)) - sum(tail))
    forest = [head, *tail]
    return tuple(draw(st.permutations(forest)))


class TestDrawnOrders:
    @given(one_arm_instances())
    @settings(max_examples=400, deadline=None)
    def test_one_arm(self, instance):
        assert_same("t1", instance)

    @given(two_arm_instances())
    @settings(max_examples=600, deadline=None)
    def test_two_arms(self, instance):
        assert_same("t2", instance)
        g, a1, a2 = instance[0], max(instance[1:]), min(instance[1:])
        n = g + a1 + a2
        q = isqrt(n - 1)
        r = n - q * q
        if q >= 3 and r <= 2 * q - 2:
            assert_same_exceptional(q, r, g, a1, a2)

    @given(path_forests(2))
    @settings(max_examples=300, deadline=None)
    def test_two_paths(self, forest):
        assert_same("f2", forest)

    @given(path_forests(3))
    @settings(max_examples=300, deadline=None)
    def test_three_paths(self, forest):
        assert_same("f3", forest)
