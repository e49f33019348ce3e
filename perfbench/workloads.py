"""The benchmark's three workloads: inputs, timed calls and output checks.

crossval
    The traffic of the acceptance gate and of ``burnkit sweep``: every
    uni2, uni1 and forest3 instance up to ``CROSSVAL_ORDERS``. Each gets
    the routed closed form, the exact solver, a certificate check and,
    for uni1, the spanning-tree oracle. Thousands of small graphs whose
    lower bound is mostly already tight, so the witness level and the
    per-solve preparation dominate.
refute
    About a hundred larger graphs whose lower bound sits one below the
    value, so one full level must be exhausted: J5 members, the two-arm
    literal catalog members of order 46, grids and random trees.
    Refutation dominates; non-family graphs bypass the tables.
classify
    Seeded constant-time queries straight into the unicyclic tables and
    the two- and three-path formulas, at orders up to 10**9. The solver is
    never called in the timed region.

Every timed library call goes through ``call(name, fn, *args)`` (see
``tracing``), so the traced run records one span per call.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Optional

from burnkit import families, formulas, graphs, solver, tables
from burnkit.compute import compute
from burnkit.intmath import ceil_sqrt

from . import catalogs
from .reference_values import GRID_VALUES, TREE_SHAPE_SEED, TREE_VALUES

# Safety node budget per exact solve. The slowest item of any workload
# needs far fewer nodes; an item that runs out counts as failed.
BUDGET = 5_000_000

CROSSVAL_ORDERS = (("uni2", 28), ("uni1", 32), ("forest3", 26))
J5_MAX_TOTAL = 49
LITERAL_ORDER = 46
GRID_SIZES = tuple((r, c) for r in range(5, 9) for c in range(r, 10))
CLASSIFY_BLOCKS = 200
BLOCK_QUERIES = 100
# classify queries of at most this order are re-solved by the exact
# solver after the timed region
SMALL_ORDER = 20

Call = Callable[..., object]


@dataclass
class Item:
    """One timed unit: an instance (crossval, refute) or a query block."""

    key: str
    kind: str
    graph: Optional[graphs.Graph] = None
    expected: Optional[int] = None
    queries: tuple = ()


# --------------------------------------------------------------------------
# Inputs
# --------------------------------------------------------------------------

def _listed_sweep(family_class: str, max_n: int) -> list:
    return list(families.enumerate_sweep(family_class, max_n))


def make_crossval(seed: int, call: Call, orders=CROSSVAL_ORDERS) -> list[Item]:
    """Every instance of the sweep classes up to ``orders``, in sweep order.

    The inputs do not depend on the seed. Shuffling them would move the
    spanning-tree oracle's memo misses, which are the costliest items,
    to other positions, and with them the tail metric.
    """
    items = []
    for family_class, max_n in orders:
        for desc in call("families.enumerate_sweep", _listed_sweep, family_class, max_n):
            graph = call("families.build", families.build, desc)
            items.append(Item(families.format_spec(desc), family_class, graph))
    return items


def tree_shapes(count: int):
    """The first ``count`` random trees of the fixed shape stream, as
    ``(n, edges)``: n uniform in 50..80, each vertex attached to a
    uniformly chosen earlier one."""
    rng = random.Random(TREE_SHAPE_SEED)
    for _ in range(count):
        n = rng.randint(50, 80)
        yield n, [(rng.randrange(v), v) for v in range(1, n)]


def _grid_edges(rows: int, cols: int) -> list[tuple[int, int]]:
    edges = []
    for i in range(rows):
        for j in range(cols):
            v = i * cols + j
            if j + 1 < cols:
                edges.append((v, v + 1))
            if i + 1 < rows:
                edges.append((v, v + cols))
    return edges


def _relabeled(call: Call, n: int, edges, rng: random.Random) -> graphs.Graph:
    perm = list(range(n))
    rng.shuffle(perm)
    return call("graphs.Graph", graphs.Graph, n, [(perm[u], perm[v]) for u, v in edges])


def literal_members(order: int = LITERAL_ORDER) -> list[tuple[int, int, int]]:
    """Two-arm literal catalog members of the given order, arms descending."""
    return sorted(
        {(g, max(a, b), min(a, b)) for g, a, b in catalogs.T2_LITERALS if g + a + b == order}
    )


def make_refute(
    seed: int,
    call: Call,
    j5_max_total: int = J5_MAX_TOTAL,
    literal_order: int = LITERAL_ORDER,
    grids=GRID_SIZES,
    trees: Optional[int] = None,
) -> list[Item]:
    """Fixed graph shapes with vertex ids permuted by the seed.

    Random tree shapes come from a fixed stream, not from the seed: the
    cost of refuting a random tree spans three orders of magnitude, so
    trees drawn per seed would make the workload's cost depend on the
    seed far more than on the code. Relabelling keeps the work and the
    value and still changes the input the solver sees.
    """
    rng = random.Random(seed)
    shapes = []
    for t in sorted(catalogs.J5, key=lambda t: (sum(t), t)):
        if sum(t) <= j5_max_total:
            desc = graphs.LinearForest(t)
            shapes.append((families.format_spec(desc), "j5", desc, formulas.b_three_paths(*t)))
    for g, a1, a2 in literal_members(literal_order):
        desc = graphs.TUnicyclic(g=g, arms=(a1, a2))
        value = tables.b_unicyclic_t2(g, a1, a2).value
        shapes.append((families.format_spec(desc), "literal", desc, value))
    items = []
    for key, kind, desc, value in shapes:
        built = call("families.build", families.build, desc)
        graph = _relabeled(call, built.vertex_count, list(built.edges()), rng)
        items.append(Item(key, kind, graph, value))
    for rows, cols in grids:
        key = f"grid:{rows}x{cols}"
        graph = _relabeled(call, rows * cols, _grid_edges(rows, cols), rng)
        items.append(Item(key, "grid", graph, GRID_VALUES[key]))
    kept = set(sorted(TREE_VALUES)[:trees])
    for index, (n, edges) in enumerate(tree_shapes(max(kept, default=-1) + 1)):
        if index in kept:
            graph = _relabeled(call, n, edges, rng)
            items.append(Item(f"tree#{index}", "tree", graph, TREE_VALUES[index]))
    rng.shuffle(items)
    return items


def _log_uniform(rng: random.Random, lo: int, hi: int) -> int:
    """Integer in [lo, hi] whose logarithm is uniform."""
    if hi <= lo:
        return lo
    return min(hi, max(lo, int(lo * (hi / lo) ** rng.random())))


def _order(rng: random.Random) -> int:
    return _log_uniform(rng, 10, 10**9)


def _q(rng: random.Random) -> int:
    return math.isqrt(_order(rng))


def _t2_split(rng: random.Random, n: int) -> tuple[int, int, int]:
    g = _log_uniform(rng, 3, n - 2)
    rest = n - g
    a2 = _log_uniform(rng, 1, rest // 2)
    return g, rest - a2, a2


def _t2_query(rng: random.Random) -> tuple:
    u = rng.random()
    if u < 0.1:
        triple = rng.choice(catalogs.T2_LITERALS)
    elif u < 0.2:
        triple = rng.choice(catalogs.t2_members(_q(rng)))
    elif u < 0.35:
        q = _q(rng)
        triple = _t2_split(rng, q * q + 2 * q - 2)
    else:
        triple = _t2_split(rng, _order(rng))
    g, a1, a2 = triple
    return ("t2", (g, max(a1, a2), min(a1, a2)), u < 0.2)


def _t1_query(rng: random.Random) -> tuple:
    if rng.random() < 0.15:
        return ("t1", rng.choice(catalogs.t1_members(_q(rng))), True)
    n = _order(rng)
    g = _log_uniform(rng, 3, n - 1)
    return ("t1", (g, n - g), False)


def _f2_query(rng: random.Random) -> tuple:
    if rng.random() < 0.15:
        t = max(2, _q(rng))
        return ("f2", (t * t - 2, 2), True)
    total = _order(rng)
    a2 = _log_uniform(rng, 1, total // 2)
    return ("f2", (total - a2, a2), False)


def _f3_query(rng: random.Random) -> tuple:
    u = rng.random()
    if u < 0.1:
        return ("f3", rng.choice(catalogs.J5), True)
    if u < 0.2:
        k, pairs = rng.choice(catalogs.F3_PATTERNS)
        a2, a3 = rng.choice(pairs)
        t = max(5, _q(rng))
        return ("f3", (t * t - k - a2 - a3, a2, a3), True)
    total = _order(rng)
    a3 = _log_uniform(rng, 1, total // 3)
    a2 = _log_uniform(rng, a3, (total - a3) // 2)
    return ("f3", (total - a2 - a3, a2, a3), False)


_QUERY_MIX = ((0.45, _t2_query), (0.65, _t1_query), (0.80, _f2_query), (1.0, _f3_query))


def make_classify(
    seed: int, call: Call, blocks: int = CLASSIFY_BLOCKS, size: int = BLOCK_QUERIES
) -> list[Item]:
    """``blocks`` blocks of ``size`` queries drawn from the seed.

    Two-arm table queries have the largest share. Part of each kind lands
    on catalog members and on the orders q*q+2q-2 where the two-arm
    exception chains live, so membership tests hit as well as miss.
    """
    rng = random.Random(seed)
    items = []
    for b in range(blocks):
        queries = []
        for _ in range(size):
            u = rng.random()
            maker = next(m for limit, m in _QUERY_MIX if u < limit)
            queries.append(maker(rng))
        items.append(Item(f"block#{b}", "block", queries=tuple(queries)))
    return items


# --------------------------------------------------------------------------
# Timed calls
# --------------------------------------------------------------------------

def run_crossval(item: Item, call: Call):
    g = item.graph
    routed = call("compute.compute", compute, g, method="formula", budget=BUDGET)
    exact = call("solver.burning_number_exact", solver.burning_number_exact, g, budget=BUDGET)
    check = call("solver.check_sequence", solver.check_sequence, g, exact.certificate)
    spanning = None
    if item.kind == "uni1":
        spanning = call(
            "solver.unicyclic_spanning_upper", solver.unicyclic_spanning_upper, g
        )
    return routed, exact, check, spanning


def run_refute(item: Item, call: Call):
    g = item.graph
    exact = call("solver.burning_number_exact", solver.burning_number_exact, g, budget=BUDGET)
    check = call("solver.check_sequence", solver.check_sequence, g, exact.certificate)
    return exact, check


_QUERY_FUNCTIONS = {
    "t1": ("tables.b_unicyclic_t1", tables.b_unicyclic_t1),
    "t2": ("tables.b_unicyclic_t2", tables.b_unicyclic_t2),
    "f2": ("formulas.b_two_paths", formulas.b_two_paths),
    "f3": ("formulas.b_three_paths", formulas.b_three_paths),
}


def run_classify(item: Item, call: Call):
    results = []
    for kind, args, _ in item.queries:
        name, fn = _QUERY_FUNCTIONS[kind]
        if kind in ("t1", "t2"):
            results.append(call(name, fn, *args, budget=BUDGET))
        else:
            results.append(call(name, fn, *args))
    return results


def replay_solver(item: Item, exact: solver.BurnResult, call: Call) -> None:
    """Traced run only: repeat the solver's layers one by one.

    The distance matrix once, every refuted level ``find_sequence(g, k)``
    for k in [lower_bound, value-1], and the witness level.
    """
    g = item.graph
    call("graphs.distance_matrix", graphs.distance_matrix, g)
    for k in range(exact.lower_bound, exact.value):
        call("solver.find_sequence/refute", solver.find_sequence, g, k, budget=BUDGET)
    call("solver.find_sequence/witness", solver.find_sequence, g, exact.value, budget=BUDGET)


def replay(workload: str, item: Item, out, call: Call) -> None:
    if workload == "crossval":
        replay_solver(item, out[1], call)
    elif workload == "refute":
        replay_solver(item, out[0], call)


# --------------------------------------------------------------------------
# Checks
# --------------------------------------------------------------------------
# A check returns None when the output is right, or a message. Messages
# starting with "wrong" mark an incorrect answer; any other message marks
# a failure that gave no answer (for example a table fallback).

def _tally_exact(tally: Counter, res: solver.BurnResult) -> None:
    tally["solver.levels_refuted"] += res.value - res.lower_bound
    tally["solver.lower_tight"] += res.lower_bound == res.value
    tally["solver.greedy_loose"] += res.upper_bound > res.value
    tally["solver.greedy_excess"] += res.upper_bound - res.value


def _check_certificate(res: solver.BurnResult, check: solver.SequenceCheck) -> Optional[str]:
    if not check.ok:
        return f"wrong: invalid certificate {res.certificate}"
    if len(res.certificate) != res.value:
        return f"wrong: certificate length {len(res.certificate)} != value {res.value}"
    return None


def _check_table(res: solver.BurnResult, n: int, t: int, tally: Counter) -> Optional[str]:
    if res.method == "fallback-exact":
        tally["tables.fallback"] += 1
        return "table fell back to the exact solver"
    q = graphs.qr_decompose(n).q
    lower, upper = formulas.t_unicyclic_bounds(n, t)
    if res.value not in (q, q + 1) or not lower <= res.value <= upper:
        return f"wrong: table value {res.value} outside {{{q}, {q + 1}}} or [{lower}, {upper}]"
    return None


def check_crossval(item: Item, out, tally: Counter) -> Optional[str]:
    routed, exact, check, spanning = out
    _tally_exact(tally, exact)
    problem = _check_certificate(exact, check)
    if problem:
        return problem
    if routed.method in ("table-t1", "table-t2", "fallback-exact"):
        t = 1 if item.kind == "uni1" else 2
        problem = _check_table(routed, item.graph.vertex_count, t, tally)
        if problem:
            return problem
    if routed.value != exact.value:
        return f"wrong: {routed.method} gives {routed.value}, exact search {exact.value}"
    if spanning is not None and spanning != exact.value:
        return f"wrong: spanning-tree oracle gives {spanning}, exact search {exact.value}"
    return None


def check_refute(item: Item, out, tally: Counter) -> Optional[str]:
    exact, check = out
    _tally_exact(tally, exact)
    problem = _check_certificate(exact, check)
    if problem:
        return problem
    if exact.value != item.expected:
        return f"wrong: exact search gives {exact.value}, reference {item.expected}"
    return None


def check_query(kind: str, args: tuple, plus: bool, res, tally: Counter) -> Optional[str]:
    """``plus`` marks a planted exception: a catalog member, which needs
    q+1 = ceil(sqrt(n)) rounds, or a path-forest exception, which needs
    ceil(sqrt(n)) + 1."""
    n = sum(args)
    if kind in ("t1", "t2"):
        problem = _check_table(res, n, 1 if kind == "t1" else 2, tally)
        if not problem and plus and res.value != ceil_sqrt(n):
            problem = f"wrong: catalog member {kind}{args} gives {res.value}, not {ceil_sqrt(n)}"
        return problem
    base = ceil_sqrt(n)
    if res not in (base, base + 1):
        return f"wrong: {kind}{args} gives {res}, not {base} or {base + 1}"
    if plus and res != base + 1:
        return f"wrong: exception {kind}{args} gives {res}, not {base + 1}"
    return None


def check_classify(item: Item, out, tally: Counter) -> Optional[str]:
    for (kind, args, plus), res in zip(item.queries, out):
        problem = check_query(kind, args, plus, res, tally)
        if problem:
            return problem
    return None


def _query_spec(kind: str, args: tuple) -> str:
    if kind == "t1":
        return f"uni:{args[0]};{args[1]}"
    if kind == "t2":
        return f"uni:{args[0]};{args[1]},{args[2]}"
    return "forest:" + ",".join(map(str, args))


def cross_check_small(items: list[Item], outs: list) -> dict[int, str]:
    """Re-solve every distinct classify query of order <= SMALL_ORDER with
    the exact solver; map item index to the first disagreement."""
    solved: dict[str, int] = {}
    problems: dict[int, str] = {}
    for idx, (item, out) in enumerate(zip(items, outs)):
        if out is None:
            continue
        for (kind, args, _), res in zip(item.queries, out):
            if sum(args) > SMALL_ORDER:
                continue
            spec = _query_spec(kind, args)
            if spec not in solved:
                g = families.build(spec)
                solved[spec] = solver.burning_number_exact(g, budget=BUDGET).value
            value = res if isinstance(res, int) else res.value
            if value != solved[spec] and idx not in problems:
                problems[idx] = f"wrong: {spec} answered {value}, exact search {solved[spec]}"
    return problems


MAKERS = {"crossval": make_crossval, "refute": make_refute, "classify": make_classify}
RUNNERS = {"crossval": run_crossval, "refute": run_refute, "classify": run_classify}
CHECKS = {"crossval": check_crossval, "refute": check_refute, "classify": check_classify}
