import dataclasses
import gc
import hashlib
import inspect
import itertools
import pickle
import random
import time
import tracemalloc
from bisect import bisect_left
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from burnkit import graphs
from burnkit.families import SWEEP_CLASSES, build, enumerate_sweep, format_spec
from burnkit.formulas import J5
from burnkit.graphs import (
    Cycle,
    GeneralizedStar,
    Graph,
    LinearForest,
    Other,
    Path,
    TUnicyclic,
    distance_matrix,
    recognize_family,
)
from burnkit.intmath import ceil_sqrt
from burnkit import cli, solver, structural
from burnkit.compute import NoClosedForm, compute
from burnkit.solver import (
    MAX_EXACT_VERTICES,
    MAX_ROUNDS,
    BurnResult,
    Inconclusive,
    SequenceCheck,
    _Budget,
    _Prepared,
    _bounds,
    _burn,
    _cover,
    _greedy_upper,
    burning_number_exact,
    check_sequence,
    extract_partition,
    find_sequence,
    unicyclic_spanning_upper,
    verify_sequence,
)

from perfbench.reference_values import TREE_VALUES
from perfbench.workloads import tree_shapes

from .oracle import brute_burnable, brute_burning_number
from .test_graphs import (
    descending_tuples,
    one_hub_shapes,
    reference_cycle_vertices,
    reference_matrix,
    relabelled,
)


def search_value(g):
    """b of a graph by deepening with unbudgeted ``find_sequence``.

    Unbudgeted, ``find_sequence`` never runs the structural route or
    computes the solver's lower bound, so the one-hub and forest rules
    are checked here against the ball-cover search, not against
    themselves. The deepening starts at the geodesic bound: a longest
    geodesic is an isometric path.
    """
    n = g.vertex_count
    k = ceil_sqrt(1 + max(d for row in distance_matrix(g) for d in row if d < 2 * n))
    while find_sequence(g, k) is None:
        k += 1
    return k


@st.composite
def small_graphs(draw, max_n=9):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    return Graph(n, edges)


@st.composite
def disconnected_graphs(draw, max_n=10):
    """Two or three blocks with random edges inside each, so at least two
    components; a block may itself fall apart."""
    count = draw(st.integers(min_value=2, max_value=3))
    blocks = [draw(st.integers(min_value=1, max_value=max_n // count)) for _ in range(count)]
    edges = []
    start = 0
    for size in blocks:
        pairs = [(u, v) for u in range(start, start + size) for v in range(u + 1, start + size)]
        if pairs:
            edges += draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
        start += size
    return Graph(start, edges)


class TestVerify:
    def test_cycle4_opposite_pair(self):
        assert verify_sequence(build("cycle:4"), (0, 2))

    def test_path3_center_alone_fails_cover(self):
        check = check_sequence(build("path:3"), (1,))
        assert not check.ok and check.uncovered == {0, 2}

    def test_single_vertex(self):
        assert verify_sequence(build("path:1"), (0,))

    def test_distance_failure_reported(self):
        check = check_sequence(build("path:9"), (0, 2, 1))
        assert not check.ok and check.failed_pair == (1, 3)

    def test_cross_component_distance_vacuous(self):
        g = build("forest:2,2")
        assert verify_sequence(g, (0, 2, 3))

    @pytest.mark.parametrize("seq", [(), (0, 0), (0, 9)])
    def test_malformed_raises(self, seq):
        with pytest.raises(ValueError):
            verify_sequence(build("cycle:4"), seq)


class TestExact:
    @pytest.mark.parametrize(
        "spec,value",
        [
            ("cycle:5", 3),
            ("path:1", 1),
            ("uni:4;4,4", 4),  # brute-force verified
            ("uni:7;3", 3),
            ("uni:4;6", 3),
            ("forest:5,4", 3),
            ("forest:3,2,1", 3),
            ("star:8,1,1", 4),
        ],
    )
    def test_frozen_values(self, spec, value):
        res = burning_number_exact(build(spec))
        assert res.value == value
        assert res.method == "exact"
        assert res.lower_bound <= res.value <= res.upper_bound
        assert verify_sequence(build(spec), res.certificate)
        assert len(res.certificate) == value

    def test_path_monotone_up_to_49(self):
        values = [burning_number_exact(build(f"path:{n}")).value for n in range(1, 50)]
        assert values == sorted(values)

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            burning_number_exact(Graph(0))

    @given(small_graphs())
    @settings(max_examples=40, deadline=None)
    def test_matches_bruteforce(self, g):
        res = burning_number_exact(g)
        assert res.value == brute_burning_number(g)
        assert verify_sequence(g, res.certificate)

    @given(
        small_graphs(max_n=8),
        st.integers(min_value=1, max_value=4),
        st.sampled_from([None, 1]),
    )
    @settings(max_examples=40, deadline=None)
    def test_find_sequence_agrees_with_bruteforce(self, g, k, budget):
        try:
            found = find_sequence(g, k, budget=budget)
        except Inconclusive as exc:
            # the budget ran out at or above the shared lower bound
            res = burning_number_exact(g)
            assert exc.lower_bound <= k
            assert (exc.lower_bound, exc.upper_bound) == (res.lower_bound, res.upper_bound)
            return
        assert (found is not None) == brute_burnable(g, k)
        if found is not None:
            assert len(found) == k and verify_sequence(g, found)

    def test_deterministic_certificates(self):
        g = build("uni:5;3,2")
        a = burning_number_exact(g).certificate
        b = burning_number_exact(g).certificate
        assert a == b

    def test_refutation_below_value(self):
        j5 = [format_spec(LinearForest(parts)) for parts in sorted(J5) if sum(parts) <= 49]
        for spec in ("cycle:5", "uni:4;4,4", "forest:2,2", "path:10", *j5):
            g = build(spec)
            value = burning_number_exact(g).value
            assert find_sequence(g, value - 1) is None

    def test_budget_exhaustion_is_inconclusive(self):
        g = torus_graph(6, 7)  # bounds [4, 5], so level 4 is searched
        with pytest.raises(Inconclusive) as exc:
            burning_number_exact(g, budget=3)
        assert exc.value.lower_bound <= 5 <= exc.value.upper_bound

    def test_budget_at_the_greedy_level_gives_the_greedy_sequence(self):
        # the 6x7 torus has bounds [4, 5]; refuting level 4 takes 714
        # nodes and level 5 finds a cover in 3 more, so 716 runs out at
        # level 5 with nothing left to refute
        g = torus_graph(6, 7)
        res = burning_number_exact(g, budget=716)
        assert (res.value, res.lower_bound, res.upper_bound) == (5, 4, 5)
        assert res.certificate == _greedy_upper(_Prepared(g, max_radius=0))
        assert verify_sequence(g, res.certificate)
        with pytest.raises(Inconclusive) as exc:
            burning_number_exact(g, budget=600)
        assert (exc.value.lower_bound, exc.value.upper_bound) == (4, 5)

    def test_round_limit(self, monkeypatch):
        # the ball search refuses a graph the route does not take with more
        # than MAX_ROUNDS components, a triangle and MAX_ROUNDS isolated
        # vertices, and any level above MAX_ROUNDS, before it is prepared
        def fail(*args, **kwargs):
            raise AssertionError("search prepared beyond the round limit")

        monkeypatch.setattr(solver, "_Prepared", fail)
        g = Graph(MAX_ROUNDS + 3, [(0, 1), (1, 2), (0, 2)])
        with pytest.raises(ValueError, match=f"at most {MAX_ROUNDS} rounds"):
            burning_number_exact(g)
        with pytest.raises(ValueError, match="at most"):
            find_sequence(build("path:3"), MAX_ROUNDS + 1)

    def test_round_limit_messages(self):
        # a refused length is the caller's, not the graph's: path:3 burns in
        # 2 rounds; MAX_ROUNDS + 1 components do need MAX_ROUNDS + 1
        limit = f"exact search supports at most {MAX_ROUNDS} rounds; "
        with pytest.raises(ValueError) as exc:
            find_sequence(build("path:3"), MAX_ROUNDS + 1)
        assert str(exc.value) == limit + f"the requested length is {MAX_ROUNDS + 1}"
        with pytest.raises(ValueError) as exc:
            burning_number_exact(Graph(MAX_ROUNDS + 3, [(0, 1), (1, 2), (0, 2)]))
        assert str(exc.value) == limit + f"this graph needs at least {MAX_ROUNDS + 1}"

    def test_routed_above_the_round_limit(self):
        # the route has no round limit: MAX_ROUNDS + 1 isolated vertices, and
        # MAX_ROUNDS disjoint edges, which need one round more
        edges = Graph(2 * MAX_ROUNDS, [(2 * i, 2 * i + 1) for i in range(MAX_ROUNDS)])
        for g in (Graph(MAX_ROUNDS + 1), edges):
            res = burning_number_exact(g)
            assert res.value == res.lower_bound == res.upper_bound == MAX_ROUNDS + 1
            assert verify_sequence(g, res.certificate)

    def test_bounds_meet_above_the_round_limit(self):
        # MAX_ROUNDS triangles: the bounds meet at one round more, so the
        # greedy sequence is the answer and no level is searched
        edges = [(3 * i + a, 3 * i + b) for i in range(MAX_ROUNDS) for a, b in ((0, 1), (1, 2), (0, 2))]
        g = Graph(3 * MAX_ROUNDS, edges)
        res = burning_number_exact(g)
        assert res.value == res.lower_bound == res.upper_bound == MAX_ROUNDS + 1
        assert verify_sequence(g, res.certificate)

    def test_vertex_limit(self, monkeypatch):
        # one vertex above the limit is refused before any ball is grown or
        # any sweep is run, on a tree the structural route does not take
        refuse_preparation(monkeypatch, AssertionError("prepared beyond the vertex limit"))
        g = two_branch_tree(MAX_EXACT_VERTICES + 1)
        with pytest.raises(ValueError, match=f"at most {MAX_EXACT_VERTICES} vertices"):
            burning_number_exact(g)
        with pytest.raises(ValueError, match=f"at most {MAX_EXACT_VERTICES} vertices"):
            find_sequence(g, 3)

    @pytest.mark.parametrize(
        "spec,value",
        [("path:3000", 55), ("forest:900,700,500,300", 49), ("uni:3;20000,20000,20000", 245)],
    )
    def test_route_answers_above_the_vertex_limit(self, spec, value, monkeypatch):
        # the vertex limit guards the ball search, which a routed graph
        # never reaches
        refuse_preparation(monkeypatch, AssertionError("search prepared for a routed graph"))
        g = build(spec)
        res = burning_number_exact(g)
        assert res.value == res.lower_bound == res.upper_bound == value
        assert len(res.certificate) == value and check_sequence(g, res.certificate).ok

    def test_vertex_limit_is_inclusive(self, monkeypatch):
        class Admitted(Exception):
            pass

        refuse_preparation(monkeypatch, Admitted())
        # a grid and a tree the structural route does not take, since it
        # answers a path without balls
        for g in (grid_graph(40, 50), two_branch_tree(MAX_EXACT_VERTICES)):
            with pytest.raises(Admitted):
                burning_number_exact(g)

    def test_tree_at_the_vertex_limit(self, monkeypatch):
        # the sweeps give the tree's eccentricities, so no ball grows to
        # saturation, and no layer is grown past the one the last level
        # searched reads at twice its largest radius
        def fail(*args, **kwargs):
            raise AssertionError("balls grown on a tree")

        monkeypatch.setattr(graphs, "_ball_eccentricities", fail)
        made = []

        class Recorded(_Prepared):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        monkeypatch.setattr(solver, "_Prepared", Recorded)
        g = two_branch_tree(MAX_EXACT_VERTICES)
        res = burning_number_exact(g)
        assert (res.value, res.lower_bound, res.upper_bound) == (45, 45, 49)
        assert len(res.certificate) == 45 and verify_sequence(g, res.certificate)
        (prep,) = made
        assert len(prep.balls) <= 2 * (res.value - 1) + 1

    def test_find_sequence_inconclusive_carries_real_bounds(self):
        g = torus_graph(6, 7)
        with pytest.raises(Inconclusive) as exc:
            find_sequence(g, 4, budget=3)
        lower, upper = exc.value.lower_bound, exc.value.upper_bound
        assert lower <= burning_number_exact(g).value <= upper
        assert 1 < lower and upper < g.vertex_count  # tighter than [1, n]

    @pytest.mark.parametrize(
        "spec,k",
        [
            ("forest:58,19,4", 9),  # geodesic-forest bound 10
            ("star:9,9,9,9", 5),  # one-hub counting bound 6
        ],
    )
    def test_budgeted_find_sequence_below_the_bound_is_none(self, spec, k):
        assert find_sequence(build(spec), k, budget=3) is None

    def test_budgeted_find_sequence_at_the_bound_is_inconclusive(self):
        # the search runs out on a graph the structural route does not take
        with pytest.raises(Inconclusive) as exc:
            find_sequence(torus_graph(6, 7), 4, budget=3)
        assert (exc.value.lower_bound, exc.value.upper_bound) == (4, 5)
        # on a routed graph the bounds are the value, and at the value the
        # route's certificate is the sequence
        g = build("forest:58,19,4")
        found = find_sequence(g, 10, budget=3)
        assert found is not None and len(found) == 10 and verify_sequence(g, found)
        with pytest.raises(Inconclusive) as exc:
            find_sequence(g, 11, budget=3)
        assert (exc.value.lower_bound, exc.value.upper_bound) == (10, 10)

    def test_budgeted_find_sequence_on_an_unrouted_graph(self):
        # the 6x7 torus has bounds [4, 5]: at the greedy length the greedy
        # sequence is the answer (the search's cover there takes 3 nodes),
        # at the lower bound the search could not tell, and below it None
        # is a proof
        g = torus_graph(6, 7)
        found = find_sequence(g, 5, budget=2)
        assert found == (0, 24, 11, 19, 27) == _greedy_upper(_Prepared(g, max_radius=0))
        assert verify_sequence(g, found)
        with pytest.raises(Inconclusive) as exc:
            find_sequence(g, 4, budget=3)
        assert (exc.value.lower_bound, exc.value.upper_bound) == (4, 5)
        assert find_sequence(g, 3, budget=3) is None

    def test_results_pickle_and_stay_frozen(self):
        g = build("path:3")
        results = [burning_number_exact(g), check_sequence(g, (1,)), *extract_partition(g, (1, 0))]
        for res in results:
            assert pickle.loads(pickle.dumps(res)) == res
            # a field or any other name, set or deleted
            for name in (dataclasses.fields(res)[0].name, "nodes"):
                with pytest.raises(dataclasses.FrozenInstanceError, match=repr(name)):
                    setattr(res, name, None)
                with pytest.raises(dataclasses.FrozenInstanceError, match=repr(name)):
                    delattr(res, name)
            assert not hasattr(res, "__dict__")  # slots, no instance dict


@dataclasses.dataclass(frozen=True, slots=True)
class ReferenceBurnResult:
    """``BurnResult`` with the generated ``__init__``; the annotations are
    strings, as solver.py's are under postponed evaluation."""

    value: "int"
    method: "str"
    lower_bound: "int"
    upper_bound: "int"
    certificate: "Optional[tuple[int, ...]]" = None


class TestBurnResultContract:
    # BurnResult writes its slots in its own __init__; everything a caller
    # can observe must stay that of the generated dataclass
    ARGS = [
        ((3, "exact", 2, 4), {}),
        ((3, "exact", 2, 4, (0, 5, 1)), {}),
        ((3, "table-t1"), {"lower_bound": 3, "upper_bound": 4}),
        ((), {"value": 2, "method": "degree-b2", "lower_bound": 2, "upper_bound": 2}),
        ((), {"certificate": None, "upper_bound": 9, "value": 9, "lower_bound": 8, "method": "x"}),
    ]

    @staticmethod
    def pairs():
        for args, kwargs in TestBurnResultContract.ARGS:
            yield BurnResult(*args, **kwargs), ReferenceBurnResult(*args, **kwargs)

    def test_construction_repr_equality_and_hash(self):
        for res, ref in self.pairs():
            assert dataclasses.astuple(res) == dataclasses.astuple(ref)
            assert repr(res) == repr(ref).replace("ReferenceBurnResult", "BurnResult")
            assert hash(res) == hash(ref)
            assert res == BurnResult(*dataclasses.astuple(res))
            assert res != ref  # dataclass equality requires the same class
            for field in dataclasses.fields(res):
                changed = dataclasses.replace(res, **{field.name: -1})
                assert changed != res
                assert dataclasses.astuple(changed) == dataclasses.astuple(
                    dataclasses.replace(ref, **{field.name: -1})
                )
        assert BurnResult(3, "exact", 2, 4).certificate is None
        with pytest.raises(TypeError):
            BurnResult(3, "exact", 2)
        with pytest.raises(TypeError):
            BurnResult(3, "exact", 2, 4, None, 7)
        with pytest.raises(TypeError):
            BurnResult(3, "exact", 2, 4, nodes=7)

    def test_pickle_fields_asdict_and_signature(self):
        for res, ref in self.pairs():
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                back = pickle.loads(pickle.dumps(res, protocol))
                assert back == res and type(back) is BurnResult
            assert dataclasses.asdict(res) == dataclasses.asdict(ref)
        described = [(f.name, f.type, f.default, f.init, f.compare, f.hash, f.repr)
                     for f in dataclasses.fields(ReferenceBurnResult)]
        assert [(f.name, f.type, f.default, f.init, f.compare, f.hash, f.repr)
                for f in dataclasses.fields(BurnResult)] == described
        assert list(inspect.signature(BurnResult).parameters.values()) == list(
            inspect.signature(ReferenceBurnResult).parameters.values()
        )
        assert BurnResult.__match_args__ == ReferenceBurnResult.__match_args__

    def test_frozen_and_slotted(self):
        for res, ref in self.pairs():
            for field in dataclasses.fields(res):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(res, field.name, None)
                with pytest.raises(dataclasses.FrozenInstanceError):
                    delattr(res, field.name)
            # a new attribute is refused the same way; the reference's
            # generated methods raise TypeError for it instead
            with pytest.raises(dataclasses.FrozenInstanceError):
                res.nodes = 1
            with pytest.raises(dataclasses.FrozenInstanceError):
                del res.nodes
            assert not hasattr(res, "__dict__") and not hasattr(ref, "__dict__")
        assert BurnResult.__slots__ == ReferenceBurnResult.__slots__


def refuse_preparation(monkeypatch, error):
    """Make the search's preparation raise ``error`` on every graph: ball
    growth on a graph with a cycle, the sweeps on a forest."""
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(solver, "eccentricities", fail)


def two_branch_tree(n):
    """A path of n - 2 vertices with a leaf on its second and its fourth
    vertex: a tree with two branch vertices, outside every family."""
    edges = [(v, v + 1) for v in range(n - 3)] + [(1, n - 2), (3, n - 1)]
    return Graph(n, edges)


def grid_graph(rows, cols, perm=None):
    perm = perm or list(range(rows * cols))
    edges = []
    for i in range(rows):
        for j in range(cols):
            v = i * cols + j
            if j + 1 < cols:
                edges.append((perm[v], perm[v + 1]))
            if i + 1 < rows:
                edges.append((perm[v], perm[v + cols]))
    return Graph(rows * cols, edges)


def torus_graph(rows, cols):
    """The rows x cols grid with wrap-around edges: 4-regular for
    rows, cols >= 3, so no vertex is below the maximum degree."""
    edges = []
    for i in range(rows):
        for j in range(cols):
            v = i * cols + j
            edges.append((v, i * cols + (j + 1) % cols))
            edges.append((v, (i + 1) % rows * cols + j))
    return Graph(rows * cols, edges)


def reference_check(g, seq):
    """check_sequence as it was before distance rows: the full matrix."""
    k = len(seq)
    dist = reference_matrix(g)
    for i, j in itertools.combinations(range(k), 2):
        if dist[seq[i]][seq[j]] < j - i:
            return SequenceCheck(ok=False, failed_pair=(i + 1, j + 1))
    covered = set()
    for i, x in enumerate(seq):
        covered.update(v for v in range(g.vertex_count) if dist[x][v] <= k - 1 - i)
    uncovered = frozenset(range(g.vertex_count)) - covered
    if uncovered:
        return SequenceCheck(ok=False, uncovered=uncovered)
    return SequenceCheck(ok=True)


class TestCheckSequenceRows:
    GRAPHS = [
        build("path:9"),
        build("cycle:10"),
        build("uni:9;10,2"),
        build("uni:6;3"),
        build("star:4,3,2"),
        build("forest:5,3,1"),
        build("forest:2,2,1,1"),
        grid_graph(4, 4),
        Graph(6),
        Graph(8, [(0, 1), (1, 2), (2, 0), (4, 5), (5, 6)]),
    ]

    @pytest.mark.parametrize("g", GRAPHS, ids=repr)
    def test_certificates_match_reference(self, g):
        cert = burning_number_exact(g).certificate
        assert check_sequence(g, cert) == reference_check(g, cert) == SequenceCheck(ok=True)

    def test_sweep_certificates_match_reference(self):
        for family_class, max_n in (("uni2", 14), ("uni1", 14), ("forest3", 12)):
            for desc in enumerate_sweep(family_class, max_n):
                g = build(desc)
                cert = burning_number_exact(g).certificate
                assert check_sequence(g, cert) == reference_check(g, cert)

    @pytest.mark.parametrize("g", GRAPHS, ids=repr)
    def test_random_sequences_match_reference(self, g):
        rng = random.Random(g.vertex_count * 1000 + g.edge_count)
        n = g.vertex_count
        outcomes = set()
        for _ in range(300):
            seq = tuple(rng.sample(range(n), rng.randint(1, n)))
            got = check_sequence(g, seq)
            assert got == reference_check(g, seq)
            outcomes.add("ok" if got.ok else "pair" if got.failed_pair else "cover")
        # the pairwise condition can fail unless every vertex is isolated
        assert "pair" in outcomes or g.edge_count == 0
        assert "cover" in outcomes

    def test_random_sequences_on_random_graphs(self):
        rng = random.Random(2024)
        for _ in range(200):
            n = rng.randint(1, 12)
            pairs = list(itertools.combinations(range(n), 2))
            g = Graph(n, rng.sample(pairs, rng.randint(0, min(len(pairs), n + 2))))
            seq = tuple(rng.sample(range(n), rng.randint(1, n)))
            assert check_sequence(g, seq) == reference_check(g, seq)

    @pytest.mark.parametrize("seq", [(), (0, 0), (0, 9), (-1,)])
    def test_malformed_raises_before_any_search(self, seq, monkeypatch):
        def fail(*args):
            raise AssertionError("distance rows computed for malformed input")

        monkeypatch.setattr(solver, "distance_rows", fail)
        with pytest.raises(ValueError):
            check_sequence(build("cycle:4"), seq)
        with pytest.raises(ValueError):
            extract_partition(build("cycle:4"), seq)


def random_burning_sequence(g, rng):
    """A valid burning sequence drawn round by round: each source is drawn
    among the vertices no earlier source's fire has reached before its
    round, until every vertex is covered."""
    n = g.vertex_count
    dist = reference_matrix(g)
    seq = []
    while True:
        k = len(seq)
        if seq and all(any(dist[x][v] <= k - 1 - m for m, x in enumerate(seq)) for v in range(n)):
            return tuple(seq)
        free = [v for v in range(n) if all(dist[x][v] >= k - m for m, x in enumerate(seq))]
        seq.append(rng.choice(free))


def random_blocks(rng, count, max_size):
    """``count`` blocks of random trees plus a few chords, vertex ids
    shuffled across blocks, so the graph has ``count`` components."""
    sizes = [rng.randint(1, max_size) for _ in range(count)]
    perm = list(range(sum(sizes)))
    rng.shuffle(perm)
    edges = set()
    start = 0
    for size in sizes:
        for v in range(start + 1, start + size):
            edges.add((rng.randrange(start, v), v))
        for _ in range(rng.randint(0, 2)):
            u, v = sorted(rng.sample(range(start, start + size), 2)) if size > 1 else (start, start)
            if u != v:
                edges.add((u, v))
        start += size
    return Graph(len(perm), [(perm[u], perm[v]) for u, v in edges])


class TestBurnPass:
    """``check_sequence`` by one burn pass: a valid sequence needs no
    distance row, and a rejected one still reports the reference's pair."""

    @pytest.mark.parametrize(
        "g",
        [
            build("path:2000"),
            build("uni:5;665,665,665"),
            build("forest:900,700,300"),
            grid_graph(6, 6),
        ],
        ids=repr,
    )
    def test_valid_sequences_need_no_distance_rows(self, g, monkeypatch):
        cert = burning_number_exact(g).certificate

        def fail(*args, **kwargs):
            raise AssertionError("distance rows computed for a valid sequence")

        monkeypatch.setattr(solver, "distance_rows", fail)
        monkeypatch.setattr(graphs, "distance_rows", fail)
        assert check_sequence(g, cert) == SequenceCheck(ok=True)
        parts = extract_partition(g, cert)
        assert [part.root for part in parts] == list(cert)
        assert sum(len(part.vertices) for part in parts) == g.vertex_count

    def test_early_sources_across_components(self):
        # Sources hop between components, and some catch fire before their
        # round; the pass stops at the first such round, but the reported
        # pair is the lexicographically first, which may be another one
        rng = random.Random(19)
        later_pair = rejected = 0
        for _ in range(400):
            g = random_blocks(rng, rng.randint(2, 4), 7)
            n = g.vertex_count
            seq = tuple(rng.sample(range(n), rng.randint(2, n)))
            got = check_sequence(g, seq)
            assert got == reference_check(g, seq)
            if got.failed_pair:
                rejected += 1
                later_pair += len(_burn(g, seq)[0]) + 1 != got.failed_pair[1]
        assert rejected >= 200
        assert later_pair >= 20

    def test_random_valid_sequences(self):
        rng = random.Random(5)
        for _ in range(200):
            g = random_blocks(rng, rng.randint(1, 3), 9)
            seq = random_burning_sequence(g, rng)
            assert check_sequence(g, seq) == reference_check(g, seq) == SequenceCheck(ok=True)


class TestCoverSearch:
    def test_forest_58_19_4_certified(self):
        g = build("forest:58,19,4")
        res = burning_number_exact(g)
        assert res.value == 10
        assert len(res.certificate) == 10 and verify_sequence(g, res.certificate)
        assert find_sequence(g, 9) is None

    def test_interchangeable_radii_refuted_quickly(self):
        # balls of every radius agree on isolated vertices; trying each
        # radius for each of them would take factorially many nodes
        g = build("forest:2,2" + ",1" * 10)
        assert burning_number_exact(g).value == 12
        assert find_sequence(g, 11, budget=1_000) is None

    def test_strict_fallback_above_burning_number(self):
        k4 = Graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
        assert burning_number_exact(k4).value == 2
        assert find_sequence(k4, 3) is None
        found = find_sequence(k4, 2)
        assert found is not None and verify_sequence(k4, found)

    def test_relabelled_grid_certificates_repeat(self):
        perm = [(7 * v + 3) % 36 for v in range(36)]
        runs = [burning_number_exact(grid_graph(6, 6, perm)) for _ in range(2)]
        assert runs[0].certificate == runs[1].certificate
        assert verify_sequence(grid_graph(6, 6, perm), runs[0].certificate)

    @pytest.mark.parametrize("centers", [(2, 2, 2), (2, None, None)])
    def test_cover_converts_to_valid_sequence(self, centers):
        # the radius-2 ball at the middle of path:5 covers it all, so the
        # repeated or missing centers must be swapped for unburned vertices
        g = build("path:5")
        seq, _ = _burn(g, centers, _Prepared(g, max_radius=2).order)
        assert len(seq) == 3 and verify_sequence(g, seq)


def reference_to_sequence(prep, centers):
    """A cover's burning sequence as it was made from bitmask balls: round
    i ORs the balls of radius i-1-m of every earlier source x_m, and a
    burned or missing center takes the first unburned vertex in
    ``prep.order``."""
    balls, full = prep.balls, prep.full
    seq = []
    for i, c in enumerate(centers):
        burned = 0
        for m, x in enumerate(seq):
            burned |= balls[i - 1 - m][x]
        if burned == full:
            break
        if c is None or (burned >> c) & 1:
            c = next(v for v in prep.order if not (burned >> v) & 1)
        seq.append(c)
    return tuple(seq)


@st.composite
def graphs_and_centers(draw):
    """A small graph and arbitrary centers on it: repeats, None, and
    more of them than the graph needs."""
    g = draw(small_graphs(max_n=14))
    spots = st.none() | st.integers(0, g.vertex_count - 1)
    return g, draw(st.lists(spots, min_size=1, max_size=g.vertex_count + 3))


class TestCoverToSequence:
    """``_burn`` with the candidate order converts a cover as the bitmask
    balls did."""

    def test_first_feasible_covers(self):
        levels = swapped = 0
        for name, g in node_count_graphs():
            k = burning_number_exact(g).value
            prep = _Prepared(g, max_radius=k - 1)
            centers = _cover(prep, k, _Budget(None))
            seq = reference_to_sequence(prep, centers)
            assert len(seq) == k, name
            assert _burn(g, centers, prep.order)[0] == seq, name
            levels += 1
            swapped += seq != tuple(centers)
        assert (levels, swapped) == (557, 387)

    @given(graphs_and_centers())
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_centers(self, case):
        g, centers = case
        prep = _Prepared(g, max_radius=len(centers) - 1)
        assert _burn(g, centers, prep.order)[0] == reference_to_sequence(prep, centers)


def reference_partition(g, seq):
    """``extract_partition`` as it was before the burn rounds: k distance
    rows, a k-way minimum per vertex and k scans of all n vertices."""
    if not reference_check(g, seq).ok:
        raise ValueError(f"not a valid burning sequence: {seq}")
    dist = reference_matrix(g)
    rows = [dist[x] for x in seq]
    n = g.vertex_count
    burn = [min(m + 1 + row[v] for m, row in enumerate(rows)) for v in range(n)]
    part = [-1] * n
    parent = {}
    for m, x in enumerate(seq):
        part[x] = m
    for v in sorted(range(n), key=lambda v: (burn[v], v)):
        if part[v] >= 0:
            continue
        feeders = [u for u in g.adjacency[v] if burn[u] == burn[v] - 1]
        u = min(feeders, key=lambda u: (part[u], u))
        part[v] = part[u]
        parent[v] = u
    parts = []
    for m, x in enumerate(seq):
        vertices = frozenset(v for v in range(n) if part[v] == m)
        edges = tuple(sorted((parent[v], v) for v in vertices if v in parent))
        height = max(burn[v] for v in vertices) - (m + 1)
        parts.append(solver.TreePart(root=x, vertices=vertices, edges=edges, height=height))
    return parts


class TestPartition:
    def test_cycle4_example(self):
        g = build("cycle:4")
        parts = extract_partition(g, (0, 2))
        assert parts[0].root == 0 and parts[0].vertices == {3, 0, 1}
        assert parts[0].height == 1
        assert parts[1].root == 2 and parts[1].vertices == {2}
        assert parts[1].height == 0

    def test_single_vertex(self):
        parts = extract_partition(build("path:1"), (0,))
        assert len(parts) == 1 and parts[0].height == 0

    def test_two_components_three_parts(self):
        g = build("forest:2,2")
        res = burning_number_exact(g)
        assert res.value == 3
        parts = extract_partition(g, res.certificate)
        for i, part in enumerate(parts):
            assert part.height <= res.value - (i + 1)

    def test_invalid_sequence_rejected(self):
        with pytest.raises(ValueError):
            extract_partition(build("path:3"), (1,))
        with pytest.raises(ValueError):
            extract_partition(build("path:9"), (0, 2, 1))

    def test_matches_rows_reference_on_sweep_certificates(self):
        for family_class, max_n in (("uni2", 20), ("uni1", 24), ("forest3", 18)):
            for desc in enumerate_sweep(family_class, max_n):
                g = build(desc)
                cert = burning_number_exact(g).certificate
                assert extract_partition(g, cert) == reference_partition(g, cert), desc

    def test_matches_rows_reference_on_random_valid_sequences(self):
        rng = random.Random(11)
        cases = [grid_graph(4, 5), build("uni:6;4,3"), build("forest:5,3,1"), Graph(5)]
        cases += [random_blocks(rng, rng.randint(1, 3), 9) for _ in range(150)]
        for g in cases:
            for _ in range(3):
                seq = random_burning_sequence(g, rng)
                assert extract_partition(g, seq) == reference_partition(g, seq)

    @pytest.mark.parametrize(
        "spec", ["cycle:9", "uni:4;4,4", "uni:3;6", "star:4,3,2", "forest:7,3", "path:16"]
    )
    def test_partition_conditions(self, spec):
        g = build(spec)
        res = burning_number_exact(g)
        parts = extract_partition(g, res.certificate)
        k = res.value
        # vertex sets partition V(G)
        seen = set()
        for part in parts:
            assert not (part.vertices & seen)
            seen |= part.vertices
        assert seen == set(range(g.vertex_count))
        dist = distance_matrix(g)
        for i, part in enumerate(parts):
            assert part.root in part.vertices
            assert part.height <= k - (i + 1)
            # edges form a tree on the part's vertices, rooted at the root
            assert len(part.edges) == len(part.vertices) - 1
            reached = {part.root}
            pending = list(part.edges)
            while pending:
                rest = []
                for u, v in pending:
                    if u in reached:
                        assert v not in reached
                        reached.add(v)
                    else:
                        rest.append((u, v))
                assert len(rest) < len(pending)
                pending = rest
            assert reached == part.vertices
            for u, v in part.edges:
                assert v in g.adjacency[u]
            # height measured along tree edges matches the stored value
            depth = {part.root: 0}
            changed = True
            while changed:
                changed = False
                for u, v in part.edges:
                    if u in depth and v not in depth:
                        depth[v] = depth[u] + 1
                        changed = True
            assert max(depth.values()) == part.height
            for j in range(i + 1, len(parts)):
                assert dist[part.root][parts[j].root] >= j - i


def reference_tree_shapes(g):
    """The oracle's trees as it once found them: delete each cycle edge, recognise."""
    core = set(reference_cycle_vertices(g))
    edges = set(g.edges())
    return {
        recognize_family(Graph(g.vertex_count, edges - {(u, v)}))
        for u, v in edges
        if u in core and v in core
    }


def t_unicyclic(t, max_order):
    """Every t-unicyclic graph of order at most ``max_order``."""
    for g in range(3, max_order - t + 1):
        for arms in itertools.combinations_with_replacement(range(max_order - g, 0, -1), t):
            if g + sum(arms) <= max_order:
                yield TUnicyclic(g=g, arms=arms)


def tree_legs(shape):
    """Legs of a recognised spider, or the one leg (n-1,) of a path."""
    if isinstance(shape, GeneralizedStar):
        return shape.arms
    assert isinstance(shape, Path), shape
    return (shape.n - 1,)


# Unicyclic graphs outside every one-hub family, which the oracle refuses
GENERAL_UNICYCLIC = [
    # cycle 0..5 with an arm of 2 at vertex 0 and an arm of 3 at vertex 2
    Graph(11, [(i, (i + 1) % 6) for i in range(6)]
          + [(0, 6), (6, 7), (2, 8), (8, 9), (9, 10)]),
    # cycle 0..4 carrying at vertex 0 a pendant tree that branches at 5
    Graph(10, [(i, (i + 1) % 5) for i in range(5)]
          + [(0, 5), (5, 6), (6, 7), (5, 8), (8, 9)]),
]


class TestUnicyclicOracles:
    @pytest.mark.parametrize(
        "spec,value", [("cycle:5", 3), ("uni:7;3", 3), ("uni:4;4,4", 4)]
    )
    def test_spanning_matches(self, spec, value):
        assert unicyclic_spanning_upper(build(spec)) == value

    # burning_number_exact decides these graphs by the same one-hub rule
    # as the oracle, so the oracle is checked against the ball-cover search

    def test_spanning_equals_exact_on_small_sweep(self):
        for desc in enumerate_sweep("uni1", 16):
            g = build(desc)
            assert unicyclic_spanning_upper(g) == search_value(g)

    @pytest.mark.parametrize("t,max_n", [(3, 24), (4, 22), (5, 20)])
    def test_spanning_equals_exact_beyond_two_arms(self, t, max_n):
        for desc in t_unicyclic(t, max_n):
            graph = build(desc)
            assert unicyclic_spanning_upper(graph) == search_value(graph), desc

    @pytest.mark.parametrize("spec", ["cycle:9", "uni:7;3", "uni:9;10,2", "uni:7;3,2,1"])
    def test_one_hub_graph_recognised_once(self, spec, monkeypatch):
        g = build(spec)
        value = search_value(g)
        seen = []

        def counted(graph):
            seen.append(graph)
            return recognize_family(graph)

        monkeypatch.setattr(solver, "recognize_family", counted)
        assert unicyclic_spanning_upper(g) == value
        assert seen == [g]

    def test_not_unicyclic_rejected(self):
        for g in GENERAL_UNICYCLIC:
            assert recognize_family(g) == Other()
        for g in [*GENERAL_UNICYCLIC, build("path:5"), build("forest:3,3")]:
            with pytest.raises(ValueError, match="cycle or a t-unicyclic"):
                unicyclic_spanning_upper(g)

    @pytest.mark.parametrize(
        "g,arms,value",
        [
            (9, (10, 2), 4),  # max(13, 15) -> ceil sqrt 15
            (4, (4, 4), 3),   # max(9, 7) -> 3
            (3, (3,), 3),     # path of 5 -> 3
        ],
    )
    def test_isometric_lower_examples(self, g, arms, value):
        assert structural._path_lower(arms, g) == value

    def test_isometric_lower_sound_on_sweep(self):
        for desc in enumerate_sweep("uni2", 14):
            exact = burning_number_exact(build(desc)).value
            assert structural._path_lower(desc.arms, desc.g) <= exact


class TestGreedyAndBounds:
    @given(small_graphs())
    @settings(max_examples=30, deadline=None)
    def test_result_bounds_sandwich(self, g):
        res = burning_number_exact(g)
        assert res.lower_bound <= res.value <= res.upper_bound

    def test_disconnected_lower_bound_counts_components(self):
        g = build("forest:1,1,1,1")
        res = burning_number_exact(g)
        assert res.value == 4  # one source per component, all radii wasted

    def test_geodesic_forest_bound_exact_on_small_forests(self, monkeypatch):
        # a linear forest is its own longest geodesics, so the bound is b(G);
        # the route gives up at once, so it cannot stand in for the term
        monkeypatch.setattr(solver, "HUB_RULE_STATES", 0)
        forests = [(a1, a2) for a1 in range(1, 40) for a2 in range(1, min(a1, 40 - a1) + 1)]
        forests += [
            (a1, a2, a3)
            for a1 in range(1, 39)
            for a2 in range(1, a1 + 1)
            for a3 in range(1, min(a2, 40 - a1 - a2) + 1)
        ]
        for parts in forests:
            res = burning_number_exact(build(LinearForest(parts)))
            assert res.lower_bound == res.value, parts

    @given(disconnected_graphs())
    @settings(max_examples=40, deadline=None)
    def test_lower_bound_sound_on_disconnected_graphs(self, g):
        assert burning_number_exact(g).lower_bound <= brute_burning_number(g)

    def test_one_hub_counting_term_kept(self, monkeypatch):
        # no value moves without the counting term, so pin the bound itself;
        # the hub rule gives up at once, so it cannot stand in for the term
        monkeypatch.setattr(solver, "HUB_RULE_STATES", 0)
        descs = list(one_hub_shapes(16))
        assert len(descs) == 1861
        for desc in descs:
            bound = structural.lower_bound(desc.arms, getattr(desc, "g", 0))
            assert burning_number_exact(build(desc)).lower_bound >= bound, desc

    def test_one_hub_lower_bound_is_the_value(self):
        # the hub rule leaves no level to refute; the unbudgeted search,
        # which never computes the bound, checks both sides of the value
        descs = [Cycle(n) for n in range(3, 17)] + list(one_hub_shapes(16))
        for desc in descs:
            g = build(desc)
            res = burning_number_exact(g)
            assert res.lower_bound == res.value, desc
            assert find_sequence(g, res.value - 1) is None, desc
            found = find_sequence(g, res.value)
            assert found is not None and verify_sequence(g, found), desc

    def test_greedy_sequence_closes_the_gap(self):
        # graphs the structural route does not take: grids that are neither
        # paths nor a cycle, and random trees with more than one hub
        rng = random.Random(7)
        graphs_ = [grid_graph(r, c) for r in range(2, 8) for c in range(max(r, 3), 9)]
        graphs_ += [random_tree(rng, rng.randint(20, 40)) for _ in range(60)]
        closed = 0
        for g in graphs_:
            assert recognize_family(g) == Other()
            res = burning_number_exact(g)
            if res.lower_bound == res.upper_bound:
                closed += 1
                assert res.value == res.lower_bound
                assert res.certificate == _greedy_upper(_Prepared(g, max_radius=0))
                assert verify_sequence(g, res.certificate)
        assert closed >= 18


def rim_levels(g):
    """Every level k from 1 to the greedy length, whether the rim's O(k)
    skip test passes at k, and whether the rim's shares at radii k-1..0
    reach its size (so that the rim does not refute k)."""
    n = g.vertex_count
    prep = _Prepared(g, max_radius=0)
    greedy = len(_greedy_upper(prep))
    prep.extend(greedy - 1)
    degrees = [len(adj) for adj in g.adjacency]
    top = max(degrees)
    h = degrees.count(top)
    rim = sum(1 << v for v, d in enumerate(degrees) if d < top)
    for k in range(1, greedy + 1):
        skipped = solver._rim_skipped(prep.maxball, k, n, h)
        yield k, skipped, solver._holds(prep.balls[k - 1 :: -1], rim, n - h)


def refute_trees():
    """The refute workload's random trees, by their fixed shape stream."""
    for index, (n, edges) in enumerate(tree_shapes(max(TREE_VALUES) + 1)):
        if index in TREE_VALUES:
            yield Graph(n, edges)


class TestRimCapacity:
    """The capacity term on the rim, the vertices of degree below the
    maximum: balls of radii k-1..0 hold at most the sum of their best
    shares of it."""

    def test_grid_bounds_are_the_values(self):
        # every grid's lower bound is its value except 3x5 and 4x8; the
        # unbudgeted search, which never computes the bound, refutes the
        # level below each value
        loose = {(3, 5): (3, 4), (4, 8): (4, 5)}
        for rows in range(2, 10):
            for cols in range(rows, 10):
                g = grid_graph(rows, cols)
                res = burning_number_exact(g)
                assert verify_sequence(g, res.certificate)
                assert find_sequence(g, res.value - 1) is None, (rows, cols)
                bounds = (res.lower_bound, res.value)
                assert bounds == loose.get((rows, cols), (res.value,) * 2), (rows, cols)

    def test_skip_hides_no_refuted_level(self):
        graphs_ = [grid_graph(r, c) for r in range(2, 10) for c in range(r, 10)]
        graphs_ += list(refute_trees())
        skipped = 0
        for g in graphs_:
            for k, skip, held in rim_levels(g):
                assert held or not skip, k
                skipped += skip
        assert skipped  # the skip test is taken somewhere

    @given(st.one_of(small_graphs(), disconnected_graphs(max_n=9)))
    @settings(max_examples=80, deadline=None)
    def test_sound_on_random_graphs(self, g):
        # the bound never exceeds b(G), and the skip passes at no level
        # that the rim refutes
        assert burning_number_exact(g).lower_bound <= brute_burning_number(g)
        for k, skip, held in rim_levels(g):
            assert held or not skip, k

    def test_an_exact_fill_holds(self):
        # shares that sum to exactly the rim's size do not refute a level
        assert solver._holds([[0b0110, 0b1000], [0b0001]], 0b1111, 3)
        assert not solver._holds([[0b0110, 0b1000], [0b0001]], 0b1111, 4)


class TestHubRule:
    def test_raises_the_bound_to_the_value(self, monkeypatch):
        g = build("uni:24;16,6")
        res = burning_number_exact(g)
        assert res.lower_bound == res.value == 7
        assert res.upper_bound == 7  # the route's certificate is the witness
        # without the rule the other terms stop at 6 and a level is searched
        monkeypatch.setattr(solver, "HUB_RULE_STATES", 0)
        dropped = burning_number_exact(g)
        assert (dropped.value, dropped.lower_bound) == (7, 6)
        assert dropped.upper_bound == 8  # the greedy sequence's length
        assert verify_sequence(g, dropped.certificate)

    def test_state_limit_bounds_a_hard_level(self):
        # At k = 42 the counting bound is tight (42^2 + 5 * 41 = 1,969 = n).
        # With a sum test alone, deciding that level filled a 512 MB address
        # space with failed states in 39 s, and the route gave up there at
        # its state limit. One placement passes the pre-tests, and the
        # waste bound refutes it in one state.
        g = build("uni:594;480,424,270,158,43")
        tracemalloc.start()
        start = time.perf_counter()
        try:
            res = burning_number_exact(g)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.value == res.lower_bound == res.upper_bound == 43
        assert len(res.certificate) == 43 and check_sequence(g, res.certificate).ok
        assert elapsed < 1 and peak < 4 * 2**20
        assert unicyclic_spanning_upper(g) == 43
        # 1,111,447 interval-cover states at k = 24 with a sum test alone
        assert unicyclic_spanning_upper(build("uni:108;150,150,150,108,25")) == 25

    def test_state_limit_ends_a_level_the_cuts_leave_open(self):
        # On this 26-leg spider (order 954) the arithmetic refutes k = 22
        # and 23 without a search, but at k = 24 hub_cover visits 384,167
        # interval-cover states before its first cover. The route gives up
        # there at its real state limit, within time and memory bounds.
        g = build(
            "star:108,101,86,73,70,66,60,52,49,33,31,31,27,26,20,18,18,17,15,11,11,10,8,5,4,3"
        )
        tracemalloc.start()
        start = time.perf_counter()
        try:
            floor, certificate = solver._route(g)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (floor, certificate) == (24, None)
        assert elapsed < 1 and peak < 4 * 2**20


def route_shapes(max_order):
    """Every path, cycle, spider, t-unicyclic graph and linear forest of
    order at most ``max_order``."""
    yield from (Path(n) for n in range(1, max_order + 1))
    yield from (Cycle(n) for n in range(3, max_order + 1))
    yield from one_hub_shapes(max_order)
    yield from (LinearForest(parts) for parts in descending_tuples(max_order, 2))


@st.composite
def relabelled_route_graphs(draw):
    """A spider, a t-unicyclic graph or a linear forest, vertex ids permuted."""
    kind = draw(st.sampled_from(["star", "uni", "forest"]))
    sizes = draw(st.lists(st.integers(min_value=1, max_value=7), min_size=1, max_size=5))
    sizes = tuple(sorted(sizes, reverse=True))
    if kind == "star":
        desc = GeneralizedStar(sizes + (1,) * (3 - len(sizes)))
    elif kind == "uni":
        desc = TUnicyclic(draw(st.integers(min_value=3, max_value=9)), sizes)
    else:
        desc = LinearForest(sizes + (1,) * (2 - len(sizes)))
    g = build(desc)
    return relabelled(g, draw(st.permutations(range(g.vertex_count))))


def assert_routed(g, res):
    """``res`` is the route's answer: bounds at the value, valid certificate."""
    assert res.lower_bound == res.value == res.upper_bound
    assert len(res.certificate) == res.value
    assert check_sequence(g, res.certificate).ok


class TestRoute:
    def test_matches_search_on_every_small_graph(self, monkeypatch):
        graphs_ = [build(desc) for desc in route_shapes(18)]
        assert len(graphs_) == 5173

        def fail(*args, **kwargs):
            raise AssertionError("ball search prepared for a routed graph")

        monkeypatch.setattr(solver, "_Prepared", fail)
        results = [burning_number_exact(g) for g in graphs_]
        monkeypatch.undo()
        for g, res in zip(graphs_, results):
            assert res.value == search_value(g), recognize_family(g)
            assert_routed(g, res)

    @given(relabelled_route_graphs())
    @settings(max_examples=100, deadline=None)
    def test_matches_search_on_relabelled_graphs(self, g):
        res = burning_number_exact(g)
        assert res.value == search_value(g)
        assert_routed(g, res)

    @pytest.mark.parametrize(
        "spec,value",
        [("uni:24;16,6", 7), ("star:9,9,9,9", 6), ("forest:58,19,4", 10), ("path:2000", 45)],
    )
    def test_no_ball_grown_and_no_distance_computed(self, spec, value, monkeypatch):
        g = build(spec)

        def fail(*args, **kwargs):
            raise AssertionError("balls grown or distances computed")

        for name in ("_Prepared", "eccentricities", "_cover", "distance_rows"):
            monkeypatch.setattr(solver, name, fail)
        res = burning_number_exact(g)
        monkeypatch.undo()
        assert res.value == value
        assert_routed(g, res)

    def test_ball_path_without_states_gives_the_same_values(self, monkeypatch):
        graphs_ = [build(desc) for desc in route_shapes(13)]
        routed = [burning_number_exact(g).value for g in graphs_]
        monkeypatch.setattr(solver, "HUB_RULE_STATES", 0)
        searched = 0
        for g, value in zip(graphs_, routed):
            res = burning_number_exact(g)
            assert res.value == value
            assert len(res.certificate) == value and verify_sequence(g, res.certificate)
            searched += res.upper_bound > res.lower_bound
        assert searched > 100  # levels the search, not the route, decided

    def test_routed_graphs_run_no_components_pass(self, monkeypatch):
        calls = []
        counted = graphs.component_sweeps

        def counting(*args, **kwargs):
            calls.append(args)
            return counted(*args, **kwargs)

        monkeypatch.setattr(graphs, "component_sweeps", counting)
        monkeypatch.setattr(solver, "component_sweeps", counting)
        routed = [build(desc) for desc in route_shapes(9)]
        routed += [build(spec) for spec in ("path:2000", "cycle:40", "uni:5;665,665,665")]
        routed += [build("forest:900,700,300"), Graph(7)]
        for g in routed:
            burning_number_exact(g)
            recognize_family(g)
            assert not calls, g
        rng = random.Random(3)
        for g in [grid_graph(4, 5), grid_graph(6, 6)] + [random_tree(rng, 30) for _ in range(5)]:
            burning_number_exact(g)
            assert len(calls) == 1, g
            recognize_family(g)
            assert len(calls) == 1, g
            calls.clear()

    def test_state_limit_leaves_its_floor(self, monkeypatch):
        # star:9,9,9,9 has the counting bound 6, its value: the route gives
        # up before its first state, and the floor is that bound
        monkeypatch.setattr(solver, "HUB_RULE_STATES", 0)
        g = build("star:9,9,9,9")
        assert solver._route(g) == (6, None)
        assert burning_number_exact(g).value == 6

    def test_ticks_above_the_round_limit_count_more(self, monkeypatch):
        # an open cover state of level k holds up to k demands, so above
        # MAX_ROUNDS a tick counts k / MAX_ROUNDS states: 1,000 disjoint
        # edges take 1,000 ticks at k = 1,000 and one at 1,001, which 2,003
        # states allow and 2,002 do not
        g = Graph(2000, [(2 * i, 2 * i + 1) for i in range(1000)])
        monkeypatch.setattr(solver, "HUB_RULE_STATES", 2002)
        assert solver._route(g) == (1001, None)
        monkeypatch.setattr(solver, "HUB_RULE_STATES", 2003)
        value, certificate = solver._route(g)
        assert value == 1001 and verify_sequence(g, certificate)


def count_walks(monkeypatch):
    """The results of every walk ``graphs.family_walks`` makes from here
    on, that is, of every call its memo does not answer."""
    walked = []
    walk = graphs._walk

    def counting(adjacency):
        walked.append(walk(adjacency))
        return walked[-1]

    monkeypatch.setattr(graphs, "_walk", counting)
    return walked


class TestOneWalk:
    # recognition in compute, the route of the exact solve and the
    # spanning-tree oracle share the one walk of each graph
    @pytest.mark.parametrize("spec", ["uni:9;30", "uni:9;30,14", "forest:13,11,1"])
    def test_formula_exact_check_and_oracle_walk_once(self, spec, monkeypatch):
        g = build(spec)
        walked = count_walks(monkeypatch)
        routed = compute(g, method="formula")
        exact = burning_number_exact(g)
        assert check_sequence(g, exact.certificate).ok
        assert routed.value == exact.value
        if spec.startswith("uni"):
            assert unicyclic_spanning_upper(g) == exact.value
        else:
            with pytest.raises(ValueError):
                unicyclic_spanning_upper(g)
        assert len(walked) == 1 and walked[0] is not None

    def test_compute_certificate_walks_once(self, monkeypatch, capsys):
        walked = count_walks(monkeypatch)
        assert cli.main(["compute", "--family", "uni:9;30,14", "--certificate"]) == 0
        assert "certificate=" in capsys.readouterr().out
        assert len(walked) == 1

    def test_other_graph_rejected_once(self, monkeypatch):
        g = two_branch_tree(12)
        walked = count_walks(monkeypatch)
        assert compute(g, method="auto").value == burning_number_exact(g).value
        assert walked == [None]


def reference_walk_sequence(g, walks, centers, hub):
    """A cover on walks turned into a sequence by distance rows: a center
    is burned when some earlier source is close enough, and a swap takes
    the first unburned vertex in walk order, the hub first."""
    dist = reference_matrix(g)
    order = [w[p] for b, w in enumerate(walks) for p in range(1 if hub and b else 0, len(w))]
    seq = []
    for i, center in enumerate(centers):
        def burned(v):
            return any(dist[x][v] <= i - 1 - m for m, x in enumerate(seq))

        v = None if center is None else walks[center[0]][center[1]]
        if v is None or burned(v):
            v = next((u for u in order if not burned(u)), None)
            if v is None:
                break
        seq.append(v)
    return tuple(seq)


@st.composite
def walks_and_centers(draw):
    """A one-hub graph or a linear forest, its walks as the route makes
    them, and arbitrary centers on them."""
    sizes = tuple(draw(st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=4)))
    cycle = draw(st.sampled_from([0, 0, 3, 4, 5, 6, 7, 8]))
    forest = draw(st.booleans())
    if forest:
        g = build(LinearForest(tuple(sorted(sizes + (1,), reverse=True))))
        walks = []
        for comp in graphs.connected_components(g):
            end = next(v for v in comp if len(g.adjacency[v]) < 2)
            walks.append([end, *itertools.chain(*graphs.hub_walks(g.adjacency, end)[0])])
        cycle = 0
    else:
        desc = TUnicyclic(cycle, sizes) if cycle else GeneralizedStar(sizes + (1,) * (3 - len(sizes)))
        g = build(desc)
        hub = next(v for v, adj in enumerate(g.adjacency) if len(adj) >= 3)
        legs, ring = graphs.hub_walks(g.adjacency, hub)
        walks = [[hub, *walk] for walk in (*legs, ring)]
    spots = st.tuples(st.integers(0, len(walks) - 1), st.integers(0, 20))
    centers = draw(st.lists(st.none() | spots, min_size=1, max_size=7))
    centers = [c and (c[0], c[1] % len(walks[c[0]])) for c in centers]
    return g, walks, centers, not forest, cycle


def burn_on_walks(g, walks, centers, hub):
    """``_burn`` on a cover on walks as the route runs it: centers mapped to
    vertex ids, unlit vertices swapped in walk order, the hub first."""
    spots = [None if c is None else walks[c[0]][c[1]] for c in centers]
    if hub:
        order = [walks[0][0], *itertools.chain(*(walk[1:] for walk in walks))]
    else:
        order = list(itertools.chain(*walks))
    return _burn(g, spots, order)[0]


class TestWalkSequence:
    @given(walks_and_centers())
    @settings(max_examples=400, deadline=None)
    def test_matches_conversion_by_distances(self, case):
        g, walks, centers, hub, cycle = case
        expected = reference_walk_sequence(g, walks, centers, hub)
        assert burn_on_walks(g, walks, centers, hub) == expected

    def test_cycle_source_burns_a_leg_the_short_way_round(self):
        # c4 sits next to the hub on cycle:5, so two rounds later it has
        # burned the leg's first vertex; l1 is swapped for the first
        # unburned vertex in walk order
        g = build("uni:5;3")
        hub = next(v for v, adj in enumerate(g.adjacency) if len(adj) >= 3)
        legs, ring = graphs.hub_walks(g.adjacency, hub)
        walks = [[hub, *legs[0]], [hub, *ring]]
        centers = [(1, 4), (1, 2), (0, 3), (0, 1)]
        seq = burn_on_walks(g, walks, centers, True)
        assert seq == reference_walk_sequence(g, walks, centers, True)
        assert walks[0][1] not in seq


class ReferencePrepared:
    """``_Prepared``'s distance matrix, eccentricities and diameter as they
    were computed before the search stopped building the matrix."""

    def __init__(self, g):
        n = g.vertex_count
        self.n = n
        self.dist = distance_matrix(g)
        inf = 2 * n
        self.ecc = [max(row) for row in self.dist]
        for v, e in enumerate(self.ecc):
            if e >= inf:  # disconnected: farthest vertex in v's component
                self.ecc[v] = max(d for d in self.dist[v] if d < inf)
        self.diameter = max(self.ecc, default=0)


def reference_greedy_upper(prep):
    """``_greedy_upper`` as it was, over the gap to the fire and the matrix."""
    n, dist = prep.n, prep.dist
    inf = 2 * n
    seq = [min(range(n), key=lambda v: (prep.ecc[v], v))]
    # gap[v]: hops from v to the burned set, inf while v's component has
    # no fire; the burned vertices are exactly those with gap 0
    gap = list(dist[seq[0]])
    while any(gap):
        pick = max((v for v in range(n) if gap[v]), key=lambda v: (gap[v], -v))
        seq.append(pick)
        # fire spreads one hop from everything burning, then pick ignites
        row = dist[pick]
        gap = [min(d - 1 if 0 < d < inf else d, e) for d, e in zip(gap, row)]
    return tuple(seq)


def random_tree(rng, n):
    """Each vertex attached to a uniformly chosen earlier one, ids permuted."""
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph(n, [(perm[rng.randrange(v)], perm[v]) for v in range(1, n)])


def random_forest(rng, sizes):
    """A random tree per size, ids permuted over all of them; a size of 1
    is an isolated vertex."""
    n = sum(sizes)
    perm = list(range(n))
    rng.shuffle(perm)
    edges = []
    start = 0
    for size in sizes:
        edges += [(perm[start + rng.randrange(v)], perm[start + v]) for v in range(1, size)]
        start += size
    return Graph(n, edges)


def random_forests(rng, count):
    """Forests of one to four random trees of two vertices or more and one
    to three isolated vertices."""
    for _ in range(count):
        sizes = [rng.randint(2, 30) for _ in range(rng.randint(1, 4))]
        yield random_forest(rng, sizes + [1] * rng.randint(1, 3))


def trees_plus_one_edge(rng, count):
    """Random trees with one more edge, between two vertices not yet
    adjacent: one cycle, n edges."""
    for _ in range(count):
        tree = random_tree(rng, rng.randint(4, 40))
        missing = [pair for pair in itertools.combinations(range(tree.vertex_count), 2)
                   if pair[1] not in tree.adjacency[pair[0]]]
        yield Graph(tree.vertex_count, [*tree.edges(), rng.choice(missing)])


# n - 1 edges but not a forest: a cycle and c >= 2 components
CYCLES_WITH_N_MINUS_ONE_EDGES = [
    Graph(4, [(0, 1), (1, 2), (2, 0)]),  # a triangle and an isolated vertex
    Graph(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)]),  # a 5-cycle and an isolated vertex
    Graph(8, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 6), (6, 7), (7, 3)]),  # a path and a 5-cycle
]


def assert_matches_reference(g, max_radius=4):
    prep = _Prepared(g, max_radius=max_radius)
    ref = ReferencePrepared(g)
    assert prep.ecc == ref.ecc
    assert prep.diameter == ref.diameter
    assert _greedy_upper(prep) == reference_greedy_upper(ref)
    n = g.vertex_count
    for r, layer in enumerate(prep.balls):
        assert layer == [
            sum(1 << u for u, d in enumerate(ref.dist[v]) if d <= min(r, n - 1))
            for v in range(n)
        ], r


class TestBallPreparation:
    """Eccentricities from the forest sweeps or from ball growth, the ball
    layers and the burn-round greedy against the matrix they replaced."""

    @given(small_graphs(max_n=14))
    @settings(max_examples=200, deadline=None)
    def test_random_graphs(self, g):
        assert_matches_reference(g)

    @pytest.mark.parametrize(
        "g",
        [
            Graph(1),
            Graph(7),
            Graph(6, [(0, 1), (1, 2), (2, 0)]),
            Graph(9, [(1, 2), (2, 3), (5, 6), (6, 7), (7, 8), (8, 5)]),
            build("forest:9,4,1,1"),
            *CYCLES_WITH_N_MINUS_ONE_EDGES,
        ],
        ids=repr,
    )
    def test_disconnected_and_isolated(self, g):
        assert_matches_reference(g, max_radius=0)
        assert_matches_reference(g, max_radius=12)

    @pytest.mark.parametrize("family_class", SWEEP_CLASSES)
    def test_sweep_classes(self, family_class):
        for desc in enumerate_sweep(family_class, 20):
            assert_matches_reference(build(desc), max_radius=0)

    def test_grids(self):
        for rows in range(1, 8):
            for cols in range(rows, 9):
                assert_matches_reference(grid_graph(rows, cols))
        perm = [(7 * v + 3) % 36 for v in range(36)]
        assert_matches_reference(grid_graph(6, 6, perm))

    def test_random_trees(self):
        rng = random.Random(7)
        for _ in range(40):
            assert_matches_reference(random_tree(rng, rng.randint(50, 80)), max_radius=0)

    def test_random_forests(self):
        rng = random.Random(5)
        for g in random_forests(rng, 30):
            assert_matches_reference(g, max_radius=rng.choice((0, 4)))

    def test_trees_plus_one_edge(self):
        rng = random.Random(9)
        for g in trees_plus_one_edge(rng, 30):
            assert_matches_reference(g, max_radius=rng.choice((0, 4)))

    def test_only_graphs_with_a_cycle_grow_balls(self, monkeypatch):
        # a forest, connected or not, takes the sweeps; a graph with a
        # cycle, however few its edges, grows its balls
        calls = []
        grow = graphs._ball_eccentricities

        def spy(*args, **kwargs):
            calls.append(args)
            return grow(*args, **kwargs)

        monkeypatch.setattr(graphs, "_ball_eccentricities", spy)
        rng = random.Random(13)
        forests = [Graph(1), Graph(7), build("path:9"), build("forest:9,4,1,1"), build("star:3,2,2")]
        forests += [random_tree(rng, 40) for _ in range(5)] + list(random_forests(rng, 10))
        for g in forests:
            _Prepared(g, max_radius=2)
            assert not calls, g
        cyclic = [*CYCLES_WITH_N_MINUS_ONE_EDGES, build("cycle:7"), build("uni:5;3,2"), grid_graph(3, 4)]
        cyclic += list(trees_plus_one_edge(rng, 10))
        for g in cyclic:
            _Prepared(g, max_radius=2)
            assert len(calls) == 1, g
            calls.clear()

    def test_budgeted_find_sequence_takes_one_components_pass(self, monkeypatch):
        # when the budget runs out, _known reads the sweeps the preparation
        # made for the eccentricities, and a graph with a cycle makes them there
        rng = random.Random(39)
        cases = [(Graph(80, [(rng.randrange(v), v) for v in range(1, 80)]), 3)]
        cases += [(g, 0) for g in (two_branch_tree(40), *random_forests(rng, 3), grid_graph(6, 6))]
        calls, fallbacks = [], []
        counted, known = graphs.component_sweeps, solver._known

        def counting(*args, **kwargs):
            calls.append(args)
            return counted(*args, **kwargs)

        def falling_back(*args, **kwargs):
            fallbacks.append(args)
            return known(*args, **kwargs)

        monkeypatch.setattr(graphs, "component_sweeps", counting)
        monkeypatch.setattr(solver, "component_sweeps", counting)
        monkeypatch.setattr(solver, "_known", falling_back)
        for g, budget in cases:
            assert graphs.family_walks(g) is None, g  # not routed
            try:
                find_sequence(g, 5, budget=budget)
            except Inconclusive:
                pass
            assert len(fallbacks) == len(calls) == 1, g
            calls.clear()
            fallbacks.clear()

    def test_forest_bounds_take_three_sweeps_per_component(self, monkeypatch):
        # the components pass of _known, then the double sweep on it: three
        # breadth-first searches per component, not a second components pass
        rng = random.Random(34)
        forests = [two_branch_tree(40), *(random_tree(rng, 40) for _ in range(5))]
        forests += list(random_forests(rng, 10))
        components = [len(graphs.connected_components(g)) for g in forests]
        searched = []
        bfs = graphs._bfs

        def counting(g, source, dist):
            searched.append(source)
            return bfs(g, source, dist)

        monkeypatch.setattr(graphs, "_bfs", counting)
        for g, count in zip(forests, components):
            assert graphs.family_walks(g) is None, g  # not routed
            solver._known(g)
            assert len(searched) == 3 * count, g
            searched.clear()

    def test_no_distance_matrix_needed(self, monkeypatch):
        g = torus_graph(6, 7)  # a refuted level below the value
        value = burning_number_exact(g).value

        def fail(*args, **kwargs):
            raise AssertionError("distances computed by the exact search")

        monkeypatch.setattr(graphs, "distance_matrix", fail)
        monkeypatch.setattr(graphs, "distance_rows", fail)
        monkeypatch.setattr(solver, "distance_rows", fail)
        res = burning_number_exact(g)
        found = find_sequence(g, value)
        with pytest.raises(Inconclusive) as exc:
            find_sequence(g, value - 1, budget=3)
        monkeypatch.undo()
        assert res.value == value and verify_sequence(g, res.certificate)
        assert found is not None and len(found) == value and verify_sequence(g, found)
        assert exc.value.lower_bound <= value <= exc.value.upper_bound

    def test_memory_at_vertex_limit(self):
        # the n x n matrix's row pointers alone took 8 * 2,000^2 bytes = 32 MB;
        # the layers up to twice the first searched level stay below that
        g = grid_graph(40, 50)
        assert g.vertex_count == MAX_EXACT_VERTICES
        tracemalloc.start()
        try:
            prep = _Prepared(g, 0)
            lower, _ = _bounds(prep, graphs.connected_components(g), 1)
            prep.extend(lower - 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert lower == 15 and len(prep.balls) == 2 * lower - 1
        assert peak < 32 * 2**20


def cover_node_counts(g):
    """(k, nodes) of ``_cover`` at every level from the component and
    geodesic bounds up to the value, nodes read off the budget."""
    value = burning_number_exact(g).value
    prep = _Prepared(g, max_radius=value - 1)
    lower = max(len(graphs.connected_components(g)), ceil_sqrt(prep.diameter + 1))
    counts = []
    for k in range(lower, value + 1):
        budget = _Budget(10**9)
        found = _cover(prep, k, budget)
        assert (found is not None) == (k == value)
        counts.append((k, 10**9 - budget.remaining))
    return counts


def node_count_graphs():
    for family_class in SWEEP_CLASSES:
        for desc in enumerate_sweep(family_class, 16):
            yield format_spec(desc), build(desc)
    for rows in range(1, 7):
        for cols in range(rows, 8):
            yield f"grid:{rows}x{cols}", grid_graph(rows, cols)
    rng = random.Random(15)
    for index in range(10):
        yield f"tree#{index}", random_tree(rng, rng.randint(30, 40))
    for parts in sorted(J5):
        if sum(parts) <= 36:
            desc = LinearForest(parts)
            yield format_spec(desc), build(desc)


class TestNodeCounts:
    # The cover search's node counts are deterministic and do not depend on
    # the hardware; a kernel change that keeps the branching order keeps
    # every count. 815 levels, 4,093 nodes; ``TestPackingCut`` compares each
    # level with the search without the packing cut (5,101 nodes).
    DIGEST = "0815ad2947bd9fa17610c84e17f1e7071533e683935f2cec7e31bebb2d4aa257"

    def test_frozen_node_counts(self):
        rows = [
            (name, k, nodes)
            for name, g in node_count_graphs()
            for k, nodes in cover_node_counts(g)
        ]
        assert len(rows) == 815
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == self.DIGEST


def reference_cover(prep, k, budget):
    """``_cover`` as it was before the packing cut: the same budget, branch
    vertex, cover-budget bisection and dominance, and the same order. The
    branch vertex is read off the vertices grouped by ball size, ascending,
    each group the difference of two consecutive ``suffix`` unions."""
    balls, maxball, sizes, suffix = prep.balls, prep.maxball, prep.sizes, prep.suffix
    tiers = [[a & ~b for a, b in zip(unions, unions[1:])] for unions in suffix]
    centers = [None] * k

    def rec(uncovered, radii, capacity):
        budget.tick()
        if not uncovered:
            return True
        count = uncovered.bit_count()
        if count > capacity:
            return False
        for tier in tiers[radii.bit_length() - 1]:
            pending = tier & uncovered
            if pending:
                u = (pending & -pending).bit_length() - 1
                break
        rest = radii
        while rest:
            r = rest.bit_length() - 1
            rest ^= 1 << r
            ball_r = balls[r]
            ball_next = balls[rest.bit_length() - 1] if rest else None
            left = capacity - maxball[r]
            need = count - left
            options = []
            cand = ball_r[u] & suffix[r][bisect_left(sizes[r], need)]
            while cand:
                low = cand & -cand
                c = low.bit_length() - 1
                share = ball_r[c] & uncovered
                if ball_next is None or ball_next[c] & uncovered != share:
                    options.append((-share.bit_count(), c, share))
                cand ^= low
            options.sort()
            tried = []
            for size, c, share in options:
                if count + size > left:
                    break
                for t in tried:
                    if not share & ~t:
                        break
                else:
                    tried.append(share)
                    if rec(uncovered & ~share, radii ^ (1 << r), left):
                        centers[k - 1 - r] = c
                        return True
        return False

    found = rec(prep.full, (1 << k) - 1, prep.capacity[k - 1])
    return centers if found else None


def covers_against_reference(g, levels=None):
    """(nodes, reference nodes) of ``_cover`` and ``reference_cover`` at
    each level, default 1 up to b(g), after checking that both find a cover
    at the same levels and that it has the same centers."""
    value = burning_number_exact(g).value
    prep = _Prepared(g, max_radius=value - 1)
    rows = []
    for k in levels or range(1, value + 1):
        budget, ref_budget = _Budget(10**9), _Budget(10**9)
        got = _cover(prep, k, budget)
        assert got == reference_cover(prep, k, ref_budget), k
        assert (got is not None) == (k == value), k
        rows.append((10**9 - budget.remaining, 10**9 - ref_budget.remaining))
    return rows


class TestPackingCut:
    """The packing cut removes only subtrees without a cover: the search
    finds the same covers as without it, in no more nodes."""

    def test_node_count_levels(self):
        nodes = ref_nodes = 0
        for name, g in node_count_graphs():
            levels = [k for k, _ in cover_node_counts(g)]
            for got, ref in covers_against_reference(g, levels):
                assert got <= ref, name
                nodes += got
                ref_nodes += ref
        assert (nodes, ref_nodes) == (4093, 5101)

    @given(small_graphs(max_n=12) | disconnected_graphs(max_n=12))
    @settings(max_examples=300, deadline=None)
    def test_random_graphs(self, g):
        for got, ref in covers_against_reference(g):
            assert got <= ref

    def test_refute_grids_and_trees(self):
        rng = random.Random(3)
        perm = list(range(64))
        rng.shuffle(perm)
        cases = [grid_graph(8, 8), grid_graph(8, 8, perm)]
        cases += [random_tree(rng, rng.randint(50, 70)) for _ in range(5)]
        for g in cases:
            for got, ref in covers_against_reference(g):
                assert got <= ref


class TestCertificates:
    # Certificates are deterministic: the same graph gets the same sequence
    # from every version that keeps the search's branching order, the
    # route's covers and the levels at which the lower bound meets the
    # greedy length (there the greedy sequence is the certificate),
    # whichever way a cover is turned into a sequence. 1,265 graphs: the
    # search's node-count set and every routed shape to order 12.
    DIGEST = "aedbb78a55d2def8616e92c67b2494ac2dacdb13cbfef3337009ec749b5c0bb9"

    def test_frozen_certificates(self):
        rows = [(name, burning_number_exact(g).certificate) for name, g in node_count_graphs()]
        for desc in route_shapes(12):
            rows.append((format_spec(desc), burning_number_exact(build(desc)).certificate))
        assert len(rows) == 1265
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == self.DIGEST


def reference_route(g):
    """``_route`` with its own deepening loop and certificate check."""
    walked = graphs.family_walks(g)
    if walked is None:
        return 1, None
    hub, legs, ring = walked
    if hub is not None:
        walks = [[hub, *walk] for walk in (*legs, ring)]
        order = [hub, *itertools.chain(*legs, ring)]
        lengths = tuple(map(len, legs))
        cycle = len(ring) + 1 if ring else 0
        k = structural.lower_bound(lengths, cycle)
        decide = lambda k, tick: structural.hub_cover(lengths, k, cycle, tick)
    else:
        walks = legs
        order = list(itertools.chain(*walks))
        parts = tuple(map(len, walks))
        k = max(len(parts), ceil_sqrt(g.vertex_count))
        decide = lambda k, tick: structural.forest_cover(parts, k, tick)
    budget = _Budget(solver.HUB_RULE_STATES * MAX_ROUNDS)
    try:
        while True:
            budget.weight = max(k, MAX_ROUNDS)  # above MAX_ROUNDS a tick counts k / MAX_ROUNDS
            centers = decide(k, budget.tick)
            if centers is not None:
                spots = [None if c is None else walks[c[0]][c[1]] for c in centers]
                seq, _ = _burn(g, spots, order)
                if len(seq) != k:
                    raise AssertionError(f"cover at the first feasible level {k} gave {seq}")
                return k, seq
            k += 1
    except solver._BudgetExhausted:
        pass
    return k, None


def reference_exact(g, budget=None):
    """``burning_number_exact`` with the route, the bounds and the ball
    search written out one after the other, each with its own loop."""
    if g.vertex_count < 1:
        raise ValueError("graph must have at least one vertex")
    solver._check_vertices(g.vertex_count)
    lower, routed = reference_route(g)
    if routed is not None:
        return solver.BurnResult(lower, "exact", lower, lower, routed)
    components = graphs.connected_components(g)
    solver._check_rounds(len(components))
    prep = _Prepared(g, max_radius=0)
    lower, upper_seq = _bounds(prep, components, lower)
    upper = len(upper_seq)
    greedy = solver.BurnResult(upper, "exact", lower, upper, upper_seq)
    if lower == upper:
        solver._check_rounds(upper)
        return greedy
    state = _Budget(budget)
    k = lower
    try:
        while True:
            solver._check_rounds(k)
            prep.extend(k - 1)
            centers = _cover(prep, k, state)
            if centers is None:
                if k >= upper:
                    raise AssertionError("complete search missed the greedy witness")
                k += 1
                continue
            seq, _ = _burn(g, centers, prep.order)
            if len(seq) != k:
                raise AssertionError(f"cover at the first feasible level {k} gave {seq}")
            return solver.BurnResult(k, "exact", lower, upper, seq)
    except solver._BudgetExhausted:
        if k < upper:
            raise Inconclusive(k, upper) from None
        return greedy


def reference_find_sequence(g, k, budget=None):
    """``find_sequence`` whose budget fallback runs the route and then the
    bounds by hand."""
    if g.vertex_count < 1:
        raise ValueError("graph must have at least one vertex")
    if k < 1:
        raise ValueError("sequence length must be >= 1")
    solver._check_rounds(k, "the requested length is")
    prep = _Prepared(g, max_radius=k - 1)
    state = _Budget(budget)
    try:
        centers = _cover(prep, k, state)
        if centers is None:
            return None
        seq, _ = _burn(g, centers, prep.order)
        if len(seq) == k:
            return seq
        return solver._search(prep, k, state)
    except solver._BudgetExhausted:
        pass
    lower, known = reference_route(g)
    if known is None:
        lower, known = _bounds(prep, graphs.connected_components(g), lower)
    if len(known) == k:
        return known
    if k < lower:
        return None
    raise Inconclusive(lower, len(known))


def outcome(call, *args, **kwargs):
    """The result's repr, the bounds of an Inconclusive, or a ValueError's
    message."""
    try:
        return repr(call(*args, **kwargs))
    except Inconclusive as exc:
        return f"Inconclusive({exc.lower_bound}, {exc.upper_bound})"
    except ValueError as exc:
        return f"ValueError({exc})"


def deepening_graphs():
    """Routed and searched graphs of every kind the exact entry points
    tell apart: sweeps, spiders, grids, a torus, a complete graph, isolated
    vertices, random graphs and random trees."""
    for family_class in SWEEP_CLASSES:
        for desc in enumerate_sweep(family_class, 9):
            yield format_spec(desc), build(desc)
    stars = [(2, 2, 2), (3, 3, 3), (9, 9, 9, 9), (8, 1, 1), (5, 4, 3, 2, 1), (6, 6, 1)]
    # with 10 route states, the route refutes a level above every other
    # term of the lower bound on these before it gives up
    stars += [(3, 3, 3, 2), (4, 4, 2, 2, 2, 2), (7, 6, 5, 1)]
    for desc in [*map(GeneralizedStar, stars), TUnicyclic(24, (16, 6)), TUnicyclic(10, (1, 1))]:
        yield format_spec(desc), build(desc)
    for rows in range(1, 9):
        for cols in range(rows, 9):
            yield f"grid:{rows}x{cols}", grid_graph(rows, cols)
    # bounds [4, 5], with level 4 left to the search (714 nodes)
    yield "torus:6x7", torus_graph(6, 7)
    yield "K4", Graph(4, list(itertools.combinations(range(4), 2)))
    yield "empty:7", Graph(7)
    rng = random.Random(11)
    for index in range(40):
        n, p = rng.randint(1, 12), rng.random() / 2
        pairs = itertools.combinations(range(n), 2)
        yield f"random#{index}", Graph(n, [pair for pair in pairs if rng.random() < p])
    for index in range(40):
        yield f"tree#{index}", random_tree(rng, rng.randint(5, 40))


class TestDeepeningReference:
    """One deepening loop and one pre-search step give every outcome the
    separate loops gave: values, bounds, certificates, Inconclusive bounds
    and refusals, at every budget and at levels around the value."""

    # 600 runs out while the torus's level 4 is searched, 716 at level 5
    BUDGETS = (None, 1, 3, 50, 600, 716)

    def outcomes(self, exact, find, route):
        rows = []
        for name, g in deepening_graphs():
            rows.append((name, outcome(route, g)))
            for budget in self.BUDGETS:
                rows.append((name, budget, outcome(exact, g, budget=budget)))
            res = exact(g)
            for k in range(max(res.lower_bound - 1, 1), res.upper_bound + 2):
                for budget in (None, 1, 3):
                    rows.append((name, k, budget, outcome(find, g, k, budget=budget)))
        return rows

    # with fewer route states more one-hub graphs and forests are searched,
    # and the wider gap between the bounds adds find_sequence levels
    @pytest.mark.parametrize(
        "states,count",
        [(solver.HUB_RULE_STATES, 3817), (10, 3826), (0, 3973)],
        ids=["default-states", "10-states", "0-states"],
    )
    def test_outcomes_match_the_reference(self, states, count, monkeypatch):
        monkeypatch.setattr(solver, "HUB_RULE_STATES", states)
        got = self.outcomes(burning_number_exact, find_sequence, solver._route)
        expected = self.outcomes(reference_exact, reference_find_sequence, reference_route)
        assert len(expected) == count
        for row, ref in zip(got, expected):
            assert row == ref
        assert len(got) == count
        # values, certificates, Inconclusive bounds and proofs of no sequence
        assert {"BurnResult", "Inconclusive", "None"} <= {row[-1].split("(")[0] for row in got}


def assert_no_cyclic_garbage(run):
    """Run ``run`` with the cyclic garbage collector off, and require that
    a collection afterwards finds nothing: everything ``run`` allocated was
    freed by reference counting alone."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        run()
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


GARBAGE_SPECS = ("uni:7;4", "uni:24;16,6", "forest:13,11,1", "path:20", "cycle:12", "star:9,9,9,9")


class TestNoCyclicGarbage:
    # the solve path forms no reference cycle: the interval cover holds its
    # state in one slotted object, and the ball searches drop their
    # recursion's reference to itself when they return

    def test_compute(self):
        def run():
            for spec in GARBAGE_SPECS:
                g = build(spec)
                for method in ("auto", "formula", "exact"):
                    try:
                        compute(g, method=method)
                    except NoClosedForm:
                        assert spec.startswith("star")

        assert_no_cyclic_garbage(run)

    def test_burning_number_exact(self):
        rng = random.Random(39)
        budgeted = Graph(80, [(rng.randrange(v), v) for v in range(1, 80)])
        routed, tree, grid = build("uni:24;16,6"), next(refute_trees()), grid_graph(6, 6)

        def run():
            for g in (routed, tree, grid):
                burning_number_exact(g)
            try:
                burning_number_exact(budgeted, budget=3)
            except Inconclusive:
                pass
            else:
                raise AssertionError("3 nodes refuted the tree's level 5")

        assert_no_cyclic_garbage(run)

    def test_find_sequence(self):
        k4 = Graph(4, list(itertools.combinations(range(4), 2)))
        tree = next(refute_trees())
        value = burning_number_exact(tree).value

        def run():
            assert find_sequence(tree, value) is not None
            assert find_sequence(tree, value - 1) is None
            # the cover at k = 3 burns K4 in 2 rounds, so the strict search runs
            assert find_sequence(k4, 3) is None

        assert_no_cyclic_garbage(run)

    def test_check_sequence(self):
        g = build("path:9")

        def run():
            assert check_sequence(g, (3, 7, 0)).ok
            assert check_sequence(g, (0, 2, 1)).failed_pair == (1, 3)
            assert check_sequence(g, (4,)).uncovered

        assert_no_cyclic_garbage(run)

    def test_unicyclic_spanning_upper(self):
        graphs_ = [build(spec) for spec in ("uni:7;4", "uni:24;16,6", "cycle:12")]
        assert_no_cyclic_garbage(lambda: [unicyclic_spanning_upper(g) for g in graphs_])

    def test_one_interval_test_across_calls(self):
        def run():
            ticks = []
            assign = structural.assign_intervals((13, 11, 9, 7, 5, 3, 1), lambda: ticks.append(1))
            for parts in [(20, 19, 9), (12, 11, 2), (30, 9), (7, 2), (48,), (25, 24)]:
                assign(parts)
            assert ticks

        assert_no_cyclic_garbage(run)
