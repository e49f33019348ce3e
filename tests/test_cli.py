import json
import os
import subprocess
import sys

import pytest

from burnkit import cli, graphs, solver
from burnkit.cli import main
from burnkit.compute import NoClosedForm, compute
from burnkit.families import build
from burnkit.graphs import write_graph
from burnkit.solver import verify_sequence

from .test_solver import refuse_preparation, torus_graph, two_branch_tree


def write_family(tmp_path, spec, name="g.txt"):
    path = tmp_path / name
    write_graph(build(spec), str(path))
    return str(path)


class TestComputeRouting:
    @pytest.mark.parametrize(
        "spec,method",
        [
            ("path:10", "formula-path"),
            ("cycle:5", "formula-cycle"),
            ("forest:5,4", "formula-forest2"),
            ("forest:3,2,1", "formula-forest3"),
            ("uni:7;4", "table-t1"),
            ("uni:8;5,4", "table-t2"),
            ("star:1,1,1,1", "degree-b2"),
            ("uni:3;1,1,1", "degree-b2"),
            ("uni:4;1,1,1", "degree-b2"),
        ],
    )
    def test_auto_methods(self, spec, method):
        res = compute(build(spec), method="auto")
        assert res.method == method

    def test_auto_falls_back_to_exact(self):
        res = compute(build("forest:2,2,1,1"), method="auto")
        assert res.method == "exact" and res.value == 4

    def test_formula_raises_without_closed_form(self):
        with pytest.raises(NoClosedForm):
            compute(build("star:4,3,2"), method="formula")

    def test_degree_criterion_beyond_two_arms(self):
        # the hub of uni:3;1,1,1 has degree 5 = n - 2; uni:3;2,2,2 has no
        # vertex of degree n - 2 or more and no table
        for spec in ("uni:3;1,1,1", "uni:4;1,1,1"):
            g = build(spec)
            res = compute(g, method="formula")
            assert (res.value, res.method) == (2, "degree-b2")
            assert compute(g, "exact").value == 2
        with pytest.raises(NoClosedForm):
            compute(build("uni:3;2,2,2"), method="formula")

    def test_formula_and_exact_agree(self):
        for spec in ("path:17", "cycle:12", "forest:7,2", "uni:7;4", "uni:9;10,2"):
            g = build(spec)
            assert compute(g, "formula").value == compute(g, "exact").value


class TestCmdCompute:
    def test_family_cycle(self, capsys):
        assert main(["compute", "--family", "cycle:5"]) == 0
        out = capsys.readouterr().out
        assert "value=3" in out and "method=formula-cycle" in out

    def test_table_route(self, capsys):
        assert main(["compute", "--family", "uni:7;4", "--method", "auto"]) == 0
        out = capsys.readouterr().out
        assert "value=4" in out and "method=table-t1" in out

    def test_exact_with_certificate(self, capsys):
        rc = main(
            ["compute", "--family", "forest:3,2,1", "--method", "exact", "--certificate"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "value=3" in out
        cert_line = next(l for l in out.splitlines() if l.startswith("certificate="))
        seq = tuple(int(x) for x in cert_line.split("=", 1)[1].split(","))
        assert verify_sequence(build("forest:3,2,1"), seq)
        assert "partition 1:" in out

    def test_json_round_trip(self, capsys):
        rc = main(["compute", "--family", "uni:7;4", "--method", "exact", "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n"] == 11 and doc["family"] == "uni:7;4"
        assert (doc["q"], doc["r"]) == (3, 2)
        assert doc["value"] == 4 and doc["method"] == "exact"
        assert doc["lower"] <= doc["value"] <= doc["upper"]
        assert verify_sequence(build("uni:7;4"), tuple(doc["certificate"]))

    def test_json_certificate_for_formula_methods(self, capsys):
        rc = main(["compute", "--family", "cycle:5", "--certificate", "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["method"] == "formula-cycle"
        assert verify_sequence(build("cycle:5"), tuple(doc["certificate"]))
        assert len(doc["certificate"]) == doc["value"]

    def test_certificate_mismatch_fails_verification(self, capsys, monkeypatch):
        monkeypatch.setattr("burnkit.formulas.b_cycle", lambda n: 2)
        rc = main(["compute", "--family", "cycle:5", "--certificate"])
        assert rc == 1
        captured = capsys.readouterr()
        assert "exact value 3 disagrees with formula-cycle value 2" in captured.err
        assert "certificate=" not in captured.out

    def test_file_input(self, tmp_path, capsys):
        path = write_family(tmp_path, "cycle:4")
        assert main(["compute", "--file", path]) == 0
        assert "value=2" in capsys.readouterr().out

    def test_unreadable_file(self, capsys):
        assert main(["compute", "--file", "/nonexistent/graph.txt"]) == 2

    @pytest.mark.parametrize(
        "header,args",
        [
            ("100000000000 0", []),  # would not fit in memory
            # a triangle and 500 isolated vertices: more components than the
            # ball search's rounds, on a graph the route does not take
            pytest.param(
                "503 3\n0 1\n1 2\n0 2", ["--method", "exact"], id="triangle-and-500-isolated"
            ),
        ],
    )
    def test_hostile_file_is_input_error(self, tmp_path, capsys, header, args):
        path = tmp_path / "g.txt"
        path.write_text(header + "\n")
        assert main(["compute", "--file", str(path)] + args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_isolated_vertices_above_the_search_round_limit(self, tmp_path, capsys):
        # a linear forest takes the route, which has no round limit
        path = tmp_path / "g.txt"
        path.write_text("3000 0\n")
        assert main(["compute", "--file", str(path), "--method", "exact"]) == 0
        assert "value=3000" in capsys.readouterr().out

    def test_out_of_memory_is_input_error(self, tmp_path, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(sys.modules[compute.__module__], "burning_number_exact", exhausted)
        path = tmp_path / "g.txt"
        # a tree with two branch vertices, outside every closed-form family
        path.write_text("7 6\n0 1\n1 2\n2 3\n3 4\n1 5\n3 6\n")
        assert main(["compute", "--file", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_memory_exhausted_while_building_is_input_error(self):
        # 120 MB of address space cannot hold a 10^6-vertex graph; the
        # report must still be printed once the built part is released
        resource = pytest.importorskip("resource")
        cap = 120_000 * 1024

        def capped():
            resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

        package_root = os.path.dirname(os.path.dirname(cli.__file__))
        done = subprocess.run(
            [sys.executable, "-c", "import sys; from burnkit.cli import main; sys.exit(main())",
             "compute", "--family", "cycle:1000000", "--json"],
            capture_output=True, text=True, timeout=120, preexec_fn=capped,
            env={**os.environ, "PYTHONPATH": package_root},
        )
        assert done.returncode == 2, done.stderr[-2000:]
        assert done.stderr == "error: out of memory: the input is too large to solve\n"

    def test_unparsable_spec(self, capsys):
        assert main(["compute", "--family", "cycle:2"]) == 2

    def test_extra_spec_value_is_input_error(self, capsys):
        assert main(["compute", "--family", "cycle:5,100"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")

    def test_spec_above_vertex_limit_is_input_error(self, capsys):
        assert main(["compute", "--family", "path:1000001"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    def test_exact_search_above_vertex_limit_is_input_error(self, tmp_path, capsys, monkeypatch):
        # a tree with two branch vertices reaches the exact search, which
        # refuses 2,001 vertices before it prepares anything
        refuse_preparation(monkeypatch, AssertionError("prepared beyond the vertex limit"))
        path = tmp_path / "tree.txt"
        write_graph(two_branch_tree(solver.MAX_EXACT_VERTICES + 1), str(path))
        assert main(["compute", "--file", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1 and "at most" in captured.err

    @pytest.mark.parametrize(
        "spec,value", [("path:3000", 55), ("uni:3;20000,20000,20000", 245)]
    )
    def test_routed_certificate_above_vertex_limit(self, spec, value, capsys):
        assert main(["compute", "--family", spec, "--certificate", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["value"] == doc["lower"] == doc["upper"] == value
        assert verify_sequence(build(spec), tuple(doc["certificate"]))

    def test_requires_exactly_one_source(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["compute"])
        assert exc.value.code == 2

    def test_budget_env_inconclusive(self, tmp_path, capsys, monkeypatch):
        # the 6x7 torus's bounds are [4, 5], so level 4 is searched
        path = tmp_path / "torus.txt"
        write_graph(torus_graph(6, 7), str(path))
        monkeypatch.setenv("BURNKIT_NODE_BUDGET", "2")
        rc = main(["compute", "--file", str(path), "--method", "exact"])
        assert rc == 3
        assert "inconclusive" in capsys.readouterr().err

    def test_budget_env_malformed(self, capsys, monkeypatch):
        monkeypatch.setenv("BURNKIT_NODE_BUDGET", "lots")
        assert main(["compute", "--family", "cycle:5", "--method", "exact"]) == 2


class TestCmdVerify:
    def test_valid(self, tmp_path, capsys):
        path = write_family(tmp_path, "cycle:4")
        assert main(["verify", "--file", path, "--sequence", "0,2"]) == 0
        assert "valid" in capsys.readouterr().out

    def test_uncovered_reported(self, tmp_path, capsys):
        path = write_family(tmp_path, "path:3")
        assert main(["verify", "--file", path, "--sequence", "1"]) == 1
        out = capsys.readouterr().out
        assert "uncovered" in out and "0" in out and "2" in out

    def test_distance_violation_reported(self, tmp_path, capsys):
        path = write_family(tmp_path, "path:9")
        assert main(["verify", "--file", path, "--sequence", "0,2,1"]) == 1
        assert "distance condition" in capsys.readouterr().out

    def test_distance_read_off_the_check(self, tmp_path, capsys, monkeypatch):
        # check_sequence found the pair with one distance row; verify
        # computes no second one
        def fail(*args, **kwargs):
            raise AssertionError("distance row recomputed by verify")

        real, rows = solver.distance_rows, []

        def counted(g, sources):
            rows.append(tuple(sources))
            return real(g, sources)

        monkeypatch.setattr(cli, "distance_rows", fail, raising=False)
        monkeypatch.setattr(graphs, "distance_rows", fail)
        monkeypatch.setattr(solver, "distance_rows", counted)
        path = write_family(tmp_path, "path:9")
        assert main(["verify", "--file", path, "--sequence", "0,2,1"]) == 1
        out = capsys.readouterr().out
        assert out == "invalid: distance condition failed for positions (1,3): d(0,1)=1 < 2\n"
        assert rows == [(0,)]

    def test_duplicate_is_input_error(self, tmp_path, capsys):
        path = write_family(tmp_path, "cycle:5")
        assert main(["verify", "--file", path, "--sequence", "0,0"]) == 2

    def test_malformed_sequence(self, tmp_path, capsys):
        path = write_family(tmp_path, "cycle:5")
        assert main(["verify", "--file", path, "--sequence", "0,a"]) == 2


class TestCmdSweep:
    def test_cycle_sweep(self, capsys):
        assert main(["sweep", "--class", "cycle", "--max-n", "49"]) == 0
        out = capsys.readouterr().out
        rows = [l for l in out.splitlines() if l.startswith("cycle:")]
        assert len(rows) == 47
        assert "mismatches=0" in out

    def test_forest3_sweep_includes_triple(self, capsys, tmp_path):
        report = tmp_path / "report.txt"
        rc = main(
            ["sweep", "--class", "forest3", "--max-n", "12", "--out", str(report)]
        )
        assert rc == 0
        text = report.read_text()
        assert "forest:2,2,2 6 2 2 4 formula-forest3 4 yes" in text

    def test_uni1_sweep_with_jobs_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "a.txt", tmp_path / "b.txt"
        assert main(["sweep", "--class", "uni1", "--max-n", "14", "--out", str(out1)]) == 0
        assert main(
            ["sweep", "--class", "uni1", "--max-n", "14", "--jobs", "2", "--out", str(out2)]
        ) == 0
        assert out1.read_text() == out2.read_text()

    def test_inconclusive_exit(self, tmp_path, monkeypatch, capsys):
        # the structural route decides every sweep instance without search
        # nodes; with no interval-cover states it gives up at once and the
        # budgeted search runs out
        monkeypatch.setattr(solver, "HUB_RULE_STATES", 0)
        monkeypatch.setenv("BURNKIT_NODE_BUDGET", "2")
        rc = main(["sweep", "--class", "uni2", "--max-n", "8"])
        assert rc == 3
        monkeypatch.setenv("BURNKIT_NODE_BUDGET", "2")
        rc = main(
            ["sweep", "--class", "uni2", "--max-n", "8", "--allow-inconclusive"]
        )
        assert rc == 0

    def test_errata_gating(self, tmp_path, capsys):
        # a fake errata file for instances that actually agree changes nothing
        errata = tmp_path / "errata.txt"
        errata.write_text("2 4 4 4 4 4 not a real mismatch\n")
        rc = main(
            ["sweep", "--class", "uni2", "--max-n", "12", "--errata", str(errata)]
        )
        assert rc == 0

    def test_unknown_class_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--class", "blob", "--max-n", "10"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_input_error(self, jobs, capsys):
        assert main(["sweep", "--class", "cycle", "--max-n", "5", "--jobs", jobs]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--jobs" in err

    @pytest.mark.parametrize(
        "jobs,cpus,workers",
        [("100000", 4, [4]), ("3", 64, [3]), ("100000", 64, [7]), ("2", 1, [])],
    )
    def test_pool_sized_by_instances_and_cpus(self, jobs, cpus, workers, monkeypatch, capsys):
        # cycle:3..cycle:9 is 7 instances; a pool of one runs serially
        started = []

        class FakeExecutor:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", FakeExecutor)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        assert main(["sweep", "--class", "cycle", "--max-n", "9", "--jobs", jobs]) == 0
        assert started == workers
        assert "instances=7 " in capsys.readouterr().out

    def test_max_n_above_the_ball_search_limit_is_routed(self, capsys):
        # every sweep instance is routed, so an order the ball search refuses
        # is answered
        max_n = solver.MAX_EXACT_VERTICES + 1
        assert main(["sweep", "--class", "cycle", "--max-n", str(max_n)]) == 0
        out = capsys.readouterr().out
        rows = [l.split() for l in out.splitlines() if l.startswith("cycle:")]
        assert rows[-1][:2] == [f"cycle:{max_n}", str(max_n)]
        assert rows[-1][4] == rows[-1][6] and rows[-1][7] == "yes"
        assert "mismatches=0" in out

    def test_max_n_above_the_largest_order_fails_before_any_instance(self, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("instance built or solved above the largest order")

        monkeypatch.setattr(cli, "build", fail)
        monkeypatch.setattr(cli, "_sweep_row", fail)
        max_n = str(graphs.MAX_VERTICES + 1)
        assert main(["sweep", "--class", "path", "--max-n", max_n]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
        assert "max_n" in captured.err and captured.err.count("\n") == 1

    def test_unwritable_out_fails_before_any_instance(self, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("instance solved before the report path was opened")

        monkeypatch.setattr(cli, "_sweep_row", fail)
        out = tmp_path / "missing" / "r.txt"
        assert main(["sweep", "--class", "uni2", "--max-n", "36", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1


class TestUnreadablePath:
    # a directory is an OSError other than FileNotFoundError when opened
    @pytest.mark.parametrize(
        "args",
        [
            ["compute", "--file", "{dir}"],
            ["verify", "--file", "{dir}", "--sequence", "0"],
            ["sweep", "--class", "cycle", "--max-n", "5", "--errata", "{dir}"],
            ["sweep", "--class", "cycle", "--max-n", "5", "--out", "{dir}"],
        ],
    )
    def test_directory_path_is_input_error(self, tmp_path, capsys, args):
        assert main([a.format(dir=tmp_path) for a in args]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
