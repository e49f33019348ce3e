"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``. The heavy sweeps (all
one-arm unicyclic graphs to order 50 with the spanning-tree oracle, all
two-arm ones to order 42) are computed once in module-scoped fixtures and
shared across criteria. Every comparison is exact integer equality.
"""

import os

import pytest

from burnkit import structural
from burnkit.families import build, enumerate_sweep, format_spec
from burnkit.formulas import (
    b2_by_degree,
    b_cycle,
    b_path,
    b_three_paths,
    b_two_paths,
    forest_exceptional,
    t_unicyclic_bounds,
)
from burnkit.graphs import distance_matrix, qr_decompose
from burnkit.intmath import ceil_sqrt
from burnkit.solver import (
    burning_number_exact,
    extract_partition,
    find_sequence,
    unicyclic_spanning_upper,
    verify_sequence,
)
from burnkit.tables import b_unicyclic_t1, b_unicyclic_t2, errata_covers, load_errata

ERRATA_PATH = os.path.join(
    os.path.dirname(__file__), os.pardir, "errata", "unicyclic.txt"
)


def _report(name: str, failures: list, detail: str = ""):
    ok = not failures
    line = f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    if failures:
        line += f" failures: {failures[:5]}"
    print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def uni1_data():
    data = {}
    for desc in enumerate_sweep("uni1", 50):
        g = build(desc)
        exact = burning_number_exact(g)
        data[desc] = {
            "table": b_unicyclic_t1(desc.g, desc.arms[0]).value,
            "exact": exact.value,
            "certificate": exact.certificate,
            "spanning": unicyclic_spanning_upper(g),
        }
    return data


@pytest.fixture(scope="module")
def uni2_data():
    data = {}
    for desc in enumerate_sweep("uni2", 42):
        exact = burning_number_exact(build(desc))
        data[desc] = {
            "table": b_unicyclic_t2(desc.g, *desc.arms).value,
            "exact": exact.value,
            "certificate": exact.certificate,
        }
    return data


def _lower_side_fails(g, value):
    """True when the ball search, which never runs the structural route,
    finds a burning sequence shorter than ``value``."""
    return value > 1 and find_sequence(g, value - 1) is not None


def test_criterion_1_paths_cycles():
    failures = []
    for n in range(1, 50):
        exact = burning_number_exact(build(f"path:{n}")).value
        if b_path(n) != exact:
            failures.append(("path", n, b_path(n), exact))
    for n in range(3, 50):
        exact = burning_number_exact(build(f"cycle:{n}")).value
        if b_cycle(n) != exact:
            failures.append(("cycle", n, b_cycle(n), exact))
    _report("criterion 1 paths/cycles formula = exact (n <= 49)", failures)


def test_criterion_2_two_path_forests():
    failures = []
    count = 0
    for desc in enumerate_sweep("forest2", 36):
        a1, a2 = desc.parts
        formula = b_two_paths(a1, a2)
        g = build(desc)
        exact = burning_number_exact(g).value
        if formula != exact:
            failures.append(((a1, a2), formula, exact))
        if _lower_side_fails(g, exact):
            failures.append(((a1, a2), "ball search found a shorter sequence", exact))
        count += 1
    for a1, a2 in [(2, 2), (7, 2), (14, 2), (23, 2), (34, 2)]:
        if b_two_paths(a1, a2) != ceil_sqrt(a1 + a2) + 1:
            failures.append(("exception family", (a1, a2)))
    _report(
        "criterion 2 two-path forests formula = exact, exact - 1 refuted (total <= 36)",
        failures,
        f"{count} instances",
    )


def test_criterion_3_three_path_forests():
    failures = []
    count = exceptional = 0
    for desc in enumerate_sweep("forest3", 30):
        a1, a2, a3 = desc.parts
        formula = b_three_paths(a1, a2, a3)
        g = build(desc)
        exact = burning_number_exact(g).value
        if formula != exact:
            failures.append(((a1, a2, a3), formula, exact))
        if _lower_side_fails(g, exact):
            failures.append(((a1, a2, a3), "ball search found a shorter sequence", exact))
        if forest_exceptional((a1, a2, a3)):
            exceptional += 1
            if exact != ceil_sqrt(a1 + a2 + a3) + 1:
                failures.append(("exceptional but not +1", (a1, a2, a3), exact))
        count += 1
    if b_three_paths(11, 11, 2) != 6:
        failures.append(("(11,11,2)", b_three_paths(11, 11, 2)))
    _report(
        "criterion 3 three-path forests formula = exact, exact - 1 refuted (total <= 30)",
        failures,
        f"{count} instances, {exceptional} exceptional",
    )


def test_criterion_4_one_arm_unicyclic(uni1_data):
    failures = []
    for desc, row in uni1_data.items():
        q = qr_decompose(desc.g + desc.arms[0]).q
        if not (row["table"] == row["exact"] == row["spanning"]):
            failures.append((format_spec(desc), row["table"], row["exact"], row["spanning"]))
        if row["exact"] not in (q, q + 1):
            failures.append((format_spec(desc), "outside {q, q+1}", row["exact"]))
        if _lower_side_fails(build(desc), row["exact"]):
            failures.append((format_spec(desc), "ball search found a shorter sequence"))
    for g, a, want in [(7, 3, 3), (7, 4, 4)]:
        if uni1_data[next(d for d in uni1_data if d.g == g and d.arms == (a,))]["exact"] != want:
            failures.append(("spot", g, a, want))
    _report(
        "criterion 4 one-arm unicyclic table = exact = spanning (the route's rule on "
        "the spanning spiders), exact - 1 refuted by the ball search (n <= 50)",
        failures,
        f"{len(uni1_data)} instances",
    )


def test_criterion_5_two_arm_unicyclic(uni2_data):
    errata = load_errata(ERRATA_PATH)
    failures = []
    mismatches = 0
    for desc, row in uni2_data.items():
        if row["table"] != row["exact"]:
            mismatches += 1
            if not errata_covers(
                errata, 2, desc.g, desc.arms, row["table"], row["exact"]
            ):
                failures.append((format_spec(desc), row["table"], row["exact"]))
        if _lower_side_fails(build(desc), row["exact"]):
            failures.append((format_spec(desc), "ball search found a shorter sequence"))
    spots = {(4, (4, 4)): 4, (9, (10, 2)): 5, (8, (5, 4)): 4}
    for (g, arms), want in spots.items():
        desc = next(d for d in uni2_data if d.g == g and d.arms == arms)
        if uni2_data[desc]["exact"] != want:
            failures.append(("spot", g, arms, want, uni2_data[desc]["exact"]))
    _report(
        "criterion 5 two-arm unicyclic table = exact modulo errata, exact - 1 refuted "
        "(n <= 42)",
        failures,
        f"{len(uni2_data)} instances, {mismatches} mismatches in errata",
    )


def test_criterion_6_bound_sandwich(uni1_data, uni2_data):
    failures = []
    for data, t in ((uni1_data, 1), (uni2_data, 2)):
        for desc, row in data.items():
            n = desc.g + sum(desc.arms)
            lower, upper = t_unicyclic_bounds(n, t)
            if not lower <= row["exact"] <= upper:
                failures.append((format_spec(desc), lower, row["exact"], upper))
            if upper != ceil_sqrt(n):
                failures.append((format_spec(desc), "upper is not root bound"))
            if structural.lower_bound(desc.arms, desc.g) > row["exact"]:
                failures.append(
                    (format_spec(desc), "one-hub", structural.lower_bound(desc.arms, desc.g))
                )
    _report(
        "criterion 6 bound sandwich on all unicyclic instances",
        failures,
        f"{len(uni1_data) + len(uni2_data)} instances",
    )


def _partition_violations(g, seq):
    k = len(seq)
    parts = extract_partition(g, seq)
    bad = []
    seen = set()
    for part in parts:
        if part.vertices & seen:
            bad.append("overlap")
        seen |= part.vertices
    if seen != set(range(g.vertex_count)):
        bad.append("not a partition")
    dist = distance_matrix(g)
    for i, part in enumerate(parts):
        if part.root not in part.vertices:
            bad.append("root outside part")
        if part.height > k - (i + 1):
            bad.append(f"height {part.height} > {k - (i + 1)}")
        for j in range(i + 1, k):
            if dist[part.root][parts[j].root] < j - i:
                bad.append(f"roots {i + 1},{j + 1} too close")
    return bad


def test_criterion_7_certificates(uni1_data, uni2_data):
    failures = []
    checked_certs = 0
    # every exact result produced by the sweeps carries a verifying certificate
    for data in (uni1_data, uni2_data):
        for desc, row in data.items():
            g = build(desc)
            seq = row["certificate"]
            if seq is None or len(seq) != row["exact"] or not verify_sequence(g, seq):
                failures.append((format_spec(desc), "certificate"))
            checked_certs += 1

    # refutation and partition conditions on a deterministic sample
    sample = ["path:49", "cycle:49", "uni:9;10,2", "uni:4;4,4", "forest:23,2"]
    sample += [format_spec(d) for d in enumerate_sweep("uni1", 24)]
    sample += [format_spec(d) for d in enumerate_sweep("uni2", 20)]
    sample += [format_spec(d) for d in enumerate_sweep("forest3", 15)]
    sample += [format_spec(d) for d in enumerate_sweep("path", 30)]
    sample += [format_spec(d) for d in enumerate_sweep("cycle", 30)]
    refuted = 0
    for spec in sample:
        g = build(spec)
        res = burning_number_exact(g)
        if not verify_sequence(g, res.certificate):
            failures.append((spec, "sample certificate"))
        if res.value > 1:
            if find_sequence(g, res.value - 1) is not None:
                failures.append((spec, "refutation found a shorter sequence"))
            refuted += 1
        bad = _partition_violations(g, res.certificate)
        if bad:
            failures.append((spec, bad))
    _report(
        "criterion 7 certificates, refutations, tree partitions",
        failures,
        f"{checked_certs} certificates, {len(sample)} sampled, {refuted} refuted",
    )


def test_criterion_8_degree_criterion():
    failures = []
    count = 0
    classes = ["path", "cycle", "forest2", "forest3", "uni1", "uni2"]
    for cls in classes:
        for desc in enumerate_sweep(cls, 12):
            g = build(desc)
            exact = burning_number_exact(g).value
            by_degree = b2_by_degree(g)
            if g.vertex_count == 1:
                if by_degree != 1 or exact != 1:
                    failures.append((format_spec(desc), by_degree, exact))
            elif by_degree is not None and by_degree != exact:
                failures.append((format_spec(desc), by_degree, exact))
            elif by_degree is None and exact == 2:
                failures.append((format_spec(desc), "criterion missed b=2", exact))
            count += 1
    _report(
        "criterion 8 degree criterion iff exact (n <= 12)", failures, f"{count} instances"
    )
