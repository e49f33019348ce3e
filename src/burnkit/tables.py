"""O(1) burning-number classification for 1- and 2-arm unicyclic graphs.

Write n = q^2 + r with 1 <= r <= 2q+1. For a unicyclic graph with one or
two pendant paths (arms) hanging at a single cycle vertex (the hub), the
burning number is always q or q+1; the classification below decides which,
keyed on (q, r), the cycle length g, and the arm lengths.

The exceptions, where the answer is q+1 although a q row's conditions
hold, follow from the linear forests with at most three components by
the *residual-forest* rule: a fire of radius q-1 at the hub burns 2q-1
cycle vertices and q-1 vertices of each arm, leaving the linear forest
(g-2q+1, a1-q+1[, a2-q+1]). The one-arm exceptions are the pairs whose
residual forest is an exceptional two-path forest. The two-arm
exceptions (``exceptional``) are the triples whose first arm and cycle
leave an exceptional two-path forest while the second arm has length
r-q+1, the triples of order q^2+r with r >= 2q-3 whose residual forest is
an exceptional three-path forest, and five literal triples (two on short
cycles, g <= 2q-1) that no such rule gives without also flagging triples
that burn in q rounds. Every literal has r >= 2q-4 and a2 = q+1 or q+2,
and only such triples are compared with them.

Every lookup returns a BurnResult carrying the bound sandwich. The value
is q+1 exactly when a q+1 row or an exception holds, and q otherwise: the
q rows are the complement of the q+1 rows, so the classification is total
and never searches. For n >= 6 (one arm) or n >= 7 (two arms), so q >= 2:

* One arm: the q row asks 1 <= r <= q-1 and 2r+1 <= g <= q^2 and no
  exception; since r <= 2q+1, its negation is r >= q or g <= 2r or
  g > q^2 or an exception, which is the q+1 row.
* Two arms: the q rows ask r <= 2q-2 and no exception, and either
  r+1 <= g <= 2q-1 with a1 <= q^2 - floor(g/2) - 1 or 2q <= g <= q^2
  with a2 >= r-q+1. With r >= 2q-1 or an exception both sides say q+1;
  otherwise split on g and compare the negated q rows with the q+1 row:
  - g <= r: no q row applies and the q+1 row 3 <= g <= r holds.
  - r+1 <= g <= 2q-1: both rows reduce to a1 >= q^2 - floor(g/2).
  - 2q <= g <= q^2: a1 >= q^2 - floor(g/2) forces
    a2 <= r - ceil(g/2) <= r - q, so both rows reduce to a2 <= r-q.
  - g > q^2: no q row applies and the q+1 row g >= q^2+1 holds.

Each lookup takes one integer square root, q = isqrt(n-1), and reads r
and both bounds off it. Since r >= 1, the upper bound ceil(sqrt(n)) is
q+1. The lower bound is the counting bound ``counting_lower(n, t)``: q
rounds at a hub with t arms reach at most q^2 + t(q-1) vertices, and q-1
rounds fewer than n, so it is q+1 exactly when r > t(q-1), which is the
first q+1 row (r >= q for one arm, r >= 2q-1 for two). A lookup returns
that row at once. Otherwise the lower bound is q, and the rows follow
cheapest first with the exceptions last; validation already gives g >= 3,
and g <= q^2 once the row g > q^2 fails, so neither is compared again.
The residual forest totals n - 2q + 1 - t(q-1); wherever a lookup applies
the rule, that lies in ((q-2)^2, (q-1)^2], so its root is q-1 and its
deficit follows from r: no second root is taken. One arm (r <= q-1):
deficit q-1-r, and a two-path forest is exceptional only at deficit 0
with smaller part 2, so the pair is exceptional iff r = q-1 and
min(g-2q+1, a-q+1) = 2. The two parts total (q-1)^2 >= 4 (r = q-1 with
n >= 6 forces q >= 3), so the smaller is 2 exactly when either is:
g = 2q+1 or a = q+1. Two arms with a2 = r-q+1: the cycle and first arm
total (q-1)^2, so likewise iff g = 2q+1 or a1 = q+1. Two arms with r in
{2q-3, 2q-2}: deficit 2q-2-r, and the three parts, each at least 1, go
in descending order to ``formulas.deficit_exceptional`` with root q-1.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from typing import Iterable, Optional, TextIO, Union

from .formulas import deficit_exceptional, t_unicyclic_bounds
from .solver import BurnResult

TABLE_T1 = "table-t1"
TABLE_T2 = "table-t2"
DEGREE_B2 = "degree-b2"


def exceptional(q: int, r: int, g: int, a1: int, a2: int) -> bool:
    """True iff the two-arm triple (g, a1 >= a2) of order q^2 + r needs q+1
    although it satisfies the conditions of a q row.

    Every exception but five literal triples follows from the residual
    forest of the hub fire: either the cycle and the first arm leave an
    exceptional two-path forest and the second arm has length r-q+1, or
    r >= 2q-3 and the cycle and both arms leave an exceptional three-path
    forest. Of the literals, two have a short cycle (g <= 2q-1) and three
    a long one; every literal has r >= 2q-4 and a2 = q+1 or q+2. The tests
    run cheapest first: the two-path branch, then the gate r >= 2q-4 that
    ends most queries, then the literals (only at a2 = q+1 or q+2), and
    the three-path branch last. A queried triple is always valid and
    sorted, so no literal needs a validity filter. The domain is the q
    rows' r <= 2q-2 with q >= 3, on which the residual forests' root is
    q-1 (module docstring).
    """
    # the two parts g-2q+1 and a1-q+1 total (q-1)^2 >= 4, so the smaller
    # is 2 exactly when either is
    if a2 == r - q + 1 and (g == 2 * q + 1 or a1 == q + 1):
        return True
    if r < 2 * q - 4:
        return False
    if q + 1 <= a2 <= q + 2 and (g, a1, a2) in (
        (2 * q - 2, q * q - q - 2, q + 1),
        (2 * q - 1, q * q - q - 2, q + 1),
        (q * q - 7, q + 2, q + 1),
        (2 * q + 1, q * q - q - 6, q + 1),
        (2 * q + 1, q * q - q - 7, q + 2),
    ):
        return True
    if r == 2 * q - 4:
        return False
    # residual parts, y >= z since a1 >= a2; sorted by placing x
    x, y, z = g - 2 * q + 1, a1 - q + 1, a2 - q + 1
    if x < 1 or z < 1:
        return False
    parts = (x, y, z) if x >= y else (y, x, z) if x >= z else (y, z, x)
    return deficit_exceptional(parts, q - 1)


def _degree_b2(n: int, t: int) -> BurnResult:
    return BurnResult(2, DEGREE_B2, *t_unicyclic_bounds(n, t))


def b_unicyclic_t1(g: int, a: int, budget: Optional[int] = None) -> BurnResult:
    """Table lookup for a cycle of length g with one arm of length a.

    Orders 4 and 5 are settled by the degree criterion (b = 2). Otherwise,
    with n = q^2 + r, the value is q+1 when q <= r <= 2q+1, or g >= q^2+1,
    or g <= 2r, or the pair is exceptional (r = q-1 and the smaller part
    of its residual forest (g-2q+1, a-q+1) is 2), and q otherwise.
    ``budget`` is accepted for callers that pass a search budget and is
    unused: the lookup never searches. It stays while the benchmark's
    classify workload passes it.
    """
    if g < 3 or a < 1:
        raise ValueError(f"need g >= 3 and a >= 1, got (g={g}, a={a})")
    n = g + a
    if n <= 5:
        return _degree_b2(n, 1)
    q = isqrt(n - 1)
    qq = q * q
    r = n - qq
    if r >= q:
        return BurnResult(q + 1, TABLE_T1, q + 1, q + 1)
    # at r = q-1 (so q >= 3) the residual parts g-2q+1 and a-q+1 total
    # (q-1)^2 >= 4, so the smaller is 2 exactly when either is
    plus = g > qq or g <= 2 * r or (r == q - 1 and (g == 2 * q + 1 or a == q + 1))
    return BurnResult(q + 1 if plus else q, TABLE_T1, q, q + 1)


def b_unicyclic_t2(g: int, a1: int, a2: int, budget: Optional[int] = None) -> BurnResult:
    """Table lookup for a cycle of length g with two arms a1 >= a2.

    Orders 5 and 6 are settled by the degree criterion (b = 2). Otherwise,
    with n = q^2 + r, the value is q+1 when r >= 2q-1, or 3 <= g <= r, or
    g >= q^2+1, or a1 >= q^2 - floor(g/2), or 2q <= g <= q^2 with
    a2 <= r-q, or the triple is ``exceptional``, and q otherwise.
    ``budget`` is accepted for callers that pass a search budget and is
    unused: the lookup never searches. It stays while the benchmark's
    classify workload passes it.
    """
    if a1 < a2:
        a1, a2 = a2, a1
    if g < 3 or a2 < 1:
        raise ValueError(f"need g >= 3 and arms >= 1, got (g={g}, a1={a1}, a2={a2})")
    n = g + a1 + a2
    if n <= 6:
        return _degree_b2(n, 2)
    q = isqrt(n - 1)
    qq = q * q
    r = n - qq
    if r >= 2 * q - 1:
        return BurnResult(q + 1, TABLE_T2, q + 1, q + 1)
    # g >= 3 by validation, and g <= q^2 once the second row fails
    plus = (
        g <= r
        or g > qq
        or a1 >= qq - g // 2
        or (g >= 2 * q and a2 <= r - q)
        or exceptional(q, r, g, a1, a2)
    )
    return BurnResult(q + 1 if plus else q, TABLE_T2, q, q + 1)


# --------------------------------------------------------------------------
# Errata file: accepted table-vs-oracle discrepancies
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ErrataEntry:
    """One accepted discrepancy: "t g a1 [a2] table_value exact_value note"."""

    t: int
    g: int
    arms: tuple[int, ...]
    table_value: int
    exact_value: int
    note: str

    @property
    def key(self) -> tuple[int, int, tuple[int, ...]]:
        return (self.t, self.g, self.arms)


def parse_errata(text: str) -> dict[tuple, ErrataEntry]:
    """Parse an errata file; blank lines and '#' comments are ignored.

    Arms may be listed in any order and are stored descending. A line with
    a cycle shorter than 3, an arm or a value below 1, or a second line for
    the same instance is a ValueError naming its line number.
    """
    entries: dict[tuple, ErrataEntry] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        fields = stripped.split()
        try:
            t = int(fields[0])
            if t not in (1, 2):
                raise ValueError
            width = 1 + 1 + t + 2  # t, g, arms, table, exact
            if len(fields) < width:
                raise ValueError
            g = int(fields[1])
            # descending, the order the sweep looks entries up by
            arms = tuple(sorted((int(f) for f in fields[2 : 2 + t]), reverse=True))
            table_value = int(fields[2 + t])
            exact_value = int(fields[3 + t])
            # an instance that cannot exist would never match a sweep row
            if g < 3 or min(arms) < 1 or min(table_value, exact_value) < 1:
                raise ValueError
        except (ValueError, IndexError):
            raise ValueError(f"malformed errata line {lineno}: {line!r}") from None
        note = " ".join(fields[width:])
        entry = ErrataEntry(t, g, arms, table_value, exact_value, note)
        if entry.key in entries:
            raise ValueError(f"errata line {lineno} repeats instance {entry.key}")
        entries[entry.key] = entry
    return entries


def load_errata(source: Union[str, TextIO, None]) -> dict[tuple, ErrataEntry]:
    """Load an errata file from a path or open file; None means empty."""
    if source is None:
        return {}
    if isinstance(source, str):
        with open(source, encoding="utf-8") as fh:
            return parse_errata(fh.read())
    return parse_errata(source.read())


def errata_covers(
    entries: dict[tuple, ErrataEntry],
    t: int,
    g: int,
    arms: Iterable[int],
    table_value: int,
    exact_value: int,
) -> bool:
    """True iff the loaded errata accept exactly this discrepancy."""
    entry = entries.get((t, g, tuple(arms)))
    return (
        entry is not None
        and entry.table_value == table_value
        and entry.exact_value == exact_value
    )
