"""Self-test of the benchmark at tiny sizes.

Run from the repository root with ``PYTHONPATH=src python -m pytest
perfbench/selftest``.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, ROOT)

from perfbench import kernel, run, workloads  # noqa: E402
from perfbench.tracing import Tracer, direct  # noqa: E402
from perfbench.worker import run_pass  # noqa: E402

TINY = {
    "crossval": {"orders": (("uni2", 9), ("uni1", 9), ("forest3", 9))},
    "refute": {"j5_max_total": 25, "literal_order": 0, "grids": ((5, 5),), "trees": 2},
    "classify": {"blocks": 3, "size": 40},
}


def _benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_kernel_unchanged():
    assert kernel.reference_kernel() == kernel.REF_CHECKSUM


def test_tail_keeps_ten_items_beyond():
    assert run.tail([float(i) for i in range(100)]) == (89.0, 90.0)
    assert run.tail([float(i) for i in range(2000)]) == (1989.0, 99.5)


@pytest.mark.parametrize("workload", sorted(TINY))
def test_tiny_pass_is_correct(workload):
    result = run_pass(workload, 3, Tracer(), sizes=TINY[workload])
    assert result["failed"] == 0, result["problems"]
    assert len(result["costs"]) >= 1 and all(c > 0 for c in result["costs"])
    assert result["layers"]


@pytest.mark.parametrize("workload", ["refute", "classify"])
def test_seed_changes_inputs(workload):
    def inputs(seed):
        items = workloads.MAKERS[workload](seed, direct, **TINY[workload])
        return [(it.key, it.graph, it.queries) for it in items]

    assert inputs(1) == inputs(1)
    assert inputs(1) != inputs(2)


def test_planted_wrong_reference_fails(monkeypatch):
    first = min(workloads.TREE_VALUES)
    monkeypatch.setitem(workloads.TREE_VALUES, first, workloads.TREE_VALUES[first] + 1)
    result = run_pass("refute", 1, sizes=TINY["refute"])
    assert result["failed"] == 1 and result["wrong"] == 1
    assert result["problems"][0][0] == f"tree#{first}"


def test_self_time_subtracts_children():
    tracer = Tracer()
    tracer.call("outer", lambda: tracer.call("inner", sum, range(1000)))
    outer, inner = [end - start for _, _, _, start, end in tracer.spans]
    assert tracer.spans[1][2] == 0  # inner's parent is outer
    assert tracer.self_times() == [("outer", None, outer - inner), ("inner", None, inner)]


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_prints_with_unit(trace, section):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", "classify",
         "--seed", "5", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = {m["name"]: m["unit"] for m in _benchmark_spec()[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(line.split()[:1] == [name] and line.split()[2] == unit for line in lines[:-1])
