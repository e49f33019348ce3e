"""burnkit benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload crossval|refute|classify
        --seed N --seconds S --trace 0|1

Run it from the repository root. It runs passes of the workload, each in a
fresh child process (``worker.py``), one after another until ``--seconds``
have passed and at least ``MIN_PASSES`` have run. Every pass times the same
items; an item's cost for the run is its median over the passes. With ``--trace 0`` it prints the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced passes and prints the
per-layer metrics. Human-readable lines come first; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")  # span files and bytecode cache
PYCACHE_DIR = os.path.join(OUT_DIR, "pycache")
WORKLOADS = ("crossval", "refute", "classify")
MIN_PASSES = 3
SETUP_SAMPLES = 9  # set-up times per untraced run, from passes and set-up-only children
RUN_DEADLINE_S = 170  # every child ends, or is killed, this long after the start
TAIL_PERCENTILES = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0)

END_TO_END_UNITS = {
    "cost_ref": "ref",
    "item_p50_ref": "ref",
    "item_tail_ref": "ref",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
LAYER_UNITS = {
    "families.enumerate_ref": "ref",
    "families.build_ref": "ref",
    "graphs.graph_ref": "ref",
    "graphs.distance_matrix_ref": "ref",
    "solver.exact_ref": "ref",
    "solver.witness_ref": "ref",
    "solver.refute_ref": "ref",
    "solver.check_ref": "ref",
    "solver.spanning_ref": "ref",
    "compute.formula_ref": "ref",
    "tables.t1_ref": "ref",
    "tables.t2_ref": "ref",
    "formulas.eval_ref": "ref",
    "solver.levels_refuted": "count",
    "solver.lower_tight": "count",
    "solver.greedy_loose": "count",
    "solver.greedy_excess": "count",
    "solver.inconclusive": "count",
    "tables.fallback": "count",
    "raw.wall_s": "s",
    "raw.ref_s": "s",
    "trace.overhead_frac": "frac",
}


def tail(costs: list[float]) -> tuple[float, float]:
    """Cost at the highest of ``TAIL_PERCENTILES`` that leaves at least ten
    items above it (nearest rank), and that percentile."""
    ordered = sorted(costs)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        rank = max(1, -(-round(pct * n * 10) // 1000))  # ceil(pct/100 * n)
        if n - rank >= 10:
            return ordered[rank - 1], pct
    return ordered[-1], 100.0


def _decode(data) -> str:
    if data is None:
        return ""
    return data.decode("utf-8", "replace") if isinstance(data, bytes) else data


def run_child(
    workload: str, seed: int, traced: bool, timeout: float, setup_only: bool = False
) -> dict:
    """Run one pass in a child process and return its result.

    A child that dies or overruns returns ``{"items": n, "killed": why}``,
    where n is the item count it announced (1 if it announced none).
    """
    cmd = [
        sys.executable, "-m", "perfbench.worker",
        "--workload", workload, "--seed", str(seed), "--trace", str(int(traced)),
        "--cpu-seconds", str(int(timeout)),
    ]
    if setup_only:
        cmd.append("--setup-only")
    if traced:
        os.makedirs(OUT_DIR, exist_ok=True)
        cmd += ["--trace-out", os.path.join(OUT_DIR, f"trace-{workload}.jsonl")]
    path = [SOURCE, ROOT] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    # Set-up imports burnkit from cached bytecode, as an installed package
    # would, whatever the caller's environment says about bytecode files.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path), PYTHONPYCACHEPREFIX=PYCACHE_DIR)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
        )
        stdout, stderr, why = proc.stdout, proc.stderr, f"exit code {proc.returncode}"
        finished = proc.returncode == 0
    except subprocess.TimeoutExpired as exc:
        stdout, stderr, why = _decode(exc.stdout), _decode(exc.stderr), "timed out"
        finished = False
    lines = [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]
    if finished and lines and ("costs" in lines[-1] or setup_only):
        return lines[-1]
    items = lines[0]["items"] if lines else 1
    detail = stderr.strip().splitlines()[-1:] or [""]
    return {"items": items, "killed": f"{why} {detail[0]}".strip()}


def run_passes(
    workload: str, seed: int, seconds: float, trace: bool, deadline: float
) -> list[dict]:
    """Passes until ``seconds`` have passed and enough have run.

    Untraced runs need ``MIN_PASSES`` passes. Traced runs alternate an
    untraced and a traced pass and need one of each. No pass starts
    within ten seconds of ``deadline`` (a ``time.monotonic`` value).
    """
    start = time.monotonic()
    needed = 2 if trace else MIN_PASSES
    results: list[dict] = []
    while True:
        now = time.monotonic()
        traced = trace and len(results) % 2 == 1
        if len(results) >= needed and now - start >= seconds and not traced:
            return results
        if now >= deadline - 10:
            return results
        result = run_child(workload, seed, traced, deadline - now)
        result["traced"] = traced
        results.append(result)


def setup_times(workload: str, seed: int, passes: list[dict], deadline: float) -> list[float]:
    """Set-up times of the untraced passes, topped up to ``SETUP_SAMPLES``
    by children that only set up. Set-up is short and noisy, so its
    median needs more samples than a run has passes."""
    times = [r["setup_s"] for r in passes if "setup_s" in r and not r["traced"]]
    while len(times) < SETUP_SAMPLES and time.monotonic() < deadline - 10:
        result = run_child(workload, seed, False, deadline - time.monotonic(), setup_only=True)
        if "setup_s" not in result:
            break
        times.append(result["setup_s"])
    return times


def item_costs(passes: list[dict]) -> list[float]:
    """Each item's cost as the median over passes.

    Every pass of a run times the same items, so a per-item median drops
    the items that one pass lost to a pause of the machine.
    """
    return [statistics.median(costs) for costs in zip(*(r["costs"] for r in passes))]


def end_to_end(untraced: list[dict], setups: list[float]) -> tuple[dict, dict]:
    """End-to-end metrics over the untraced passes, and context."""
    costs = item_costs(untraced)
    tail_value, tail_pct = tail(costs)
    metrics = {
        "cost_ref": sum(costs),
        "item_p50_ref": statistics.median(costs),
        "item_tail_ref": tail_value,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
    }
    context = {
        "tail_percentile": tail_pct,
        "items": len(costs),
        "raw.wall_s": statistics.median(r["raw_s"] for r in untraced),
        "raw.ref_s": statistics.median(r["ref_s"] for r in untraced),
        "raw.setup_s": statistics.median(r["raw_setup_s"] for r in untraced),
    }
    return metrics, context


def per_layer(untraced: list[dict], traced: list[dict]) -> dict:
    """Per-layer metrics: medians over traced passes, plus the raw context
    and the tracing overhead against the untraced passes."""
    metrics = {}
    for name, unit in LAYER_UNITS.items():
        if unit == "ref":
            metrics[name] = statistics.median(r["layers"].get(name, 0.0) for r in traced)
        elif unit == "count":  # deterministic for a seed: every pass counts the same
            metrics[name] = traced[-1]["counts"].get(name, 0)
    metrics["raw.wall_s"] = statistics.median(r["raw_s"] for r in untraced)
    metrics["raw.ref_s"] = statistics.median(r["ref_s"] for r in untraced + traced)
    metrics["trace.overhead_frac"] = sum(item_costs(traced)) / sum(item_costs(untraced)) - 1
    return metrics


def report(args, results: list[dict], setups: list[float]) -> dict:
    """Print the human-readable summary and return the JSON result."""
    done = [r for r in results if "costs" in r]
    attempted = sum(len(r["costs"]) if "costs" in r else r["items"] for r in results)
    failed = sum(r["failed"] if "costs" in r else r["items"] for r in results)
    wrong = sum(r.get("wrong", 0) for r in results)
    untraced = [r for r in done if not r["traced"]]
    traced = [r for r in done if r["traced"]]
    print(
        f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
        f"{len(results)} passes ({len(traced)} traced), {attempted} items attempted"
    )
    if args.trace:
        metrics = per_layer(untraced, traced)
        units = LAYER_UNITS
    else:
        metrics, context = end_to_end(untraced, setups)
        units = END_TO_END_UNITS
    for name, value in metrics.items():
        note = ""
        if name == "item_tail_ref":
            note = f"  (p{context['tail_percentile']:g} of {context['items']} items per pass)"
        elif name == "setup_s":
            note = f"  (median of {len(setups)} set-ups)"
        print(f"  {name:28s} {value:14.4f} {units[name]}{note}")
    print(f"  {'failed_frac':28s} {failed / attempted:14.4f} frac  ({failed} of {attempted})")
    if not args.trace:
        for name in ("raw.wall_s", "raw.ref_s", "raw.setup_s"):
            print(f"  {name:28s} {context[name]:14.4f} s  (context, not gated)")
    for r in results:
        if "killed" in r:
            print(f"  killed pass: {r['killed']}")
        for key, problem in r.get("problems", []):
            print(f"  failed item {key}: {problem}")
    return {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SOURCE, "burnkit", "__init__.py")):
        print(f"perfbench: no burnkit source tree under {SOURCE}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_DEADLINE_S
    results = run_passes(args.workload, args.seed, args.seconds, bool(args.trace), deadline)
    done = [r for r in results if "costs" in r]
    if not any(not r["traced"] for r in done) or (args.trace and not any(r["traced"] for r in done)):
        for r in results:
            print(f"perfbench: pass failed: {r.get('killed')}", file=sys.stderr)
        return 1
    setups = [] if args.trace else setup_times(args.workload, args.seed, done, deadline)
    print(json.dumps(report(args, results, setups)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
