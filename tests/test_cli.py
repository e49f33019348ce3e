import json
import sys

import pytest

from burnkit import cli
from burnkit.cli import main
from burnkit.compute import NoClosedForm, compute
from burnkit.families import build
from burnkit.graphs import write_graph
from burnkit.solver import verify_sequence


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
            ("3000 0", ["--method", "exact"]),  # more rounds than the search's stack
        ],
    )
    def test_hostile_file_is_input_error(self, tmp_path, capsys, header, args):
        path = tmp_path / "g.txt"
        path.write_text(header + "\n")
        assert main(["compute", "--file", str(path)] + args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

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

    def test_requires_exactly_one_source(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["compute"])
        assert exc.value.code == 2

    def test_budget_env_inconclusive(self, capsys, monkeypatch):
        monkeypatch.setenv("BURNKIT_NODE_BUDGET", "2")
        rc = main(["compute", "--family", "uni:9;10,2", "--method", "exact"])
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


class TestUnreadablePath:
    # a directory is an OSError other than FileNotFoundError when opened
    @pytest.mark.parametrize(
        "args",
        [
            ["compute", "--file", "{dir}"],
            ["verify", "--file", "{dir}", "--sequence", "0"],
            ["sweep", "--class", "cycle", "--max-n", "5", "--errata", "{dir}"],
        ],
    )
    def test_directory_path_is_input_error(self, tmp_path, capsys, args):
        assert main([a.format(dir=tmp_path) for a in args]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
