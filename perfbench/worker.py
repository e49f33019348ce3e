"""One pass of one workload, run in a fresh process by ``run.py``.

    python3 -m perfbench.worker --workload NAME --seed N --trace 0|1
        --cpu-seconds S [--trace-out FILE]

The process first caps its own address space and CPU time, so a runaway
item (a table fallback that builds a 10**9-vertex graph, a search that
never ends) ends as an out-of-memory error counted against that item, or
as a killed pass counted against all of its items, instead of taking the
machine down. It prints one JSON line with the item count once the inputs
exist, and one JSON line with the pass result at the end.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from collections import Counter
from time import perf_counter

from .kernel import REF_SECONDS, timed_kernel
from .tracing import Tracer, direct

MEMORY_LIMIT = 1 << 30  # bytes of address space
WARMUP_KERNELS = 20

# span name -> per-layer metric (self time in ref units)
LAYER_METRICS = {
    "families.enumerate_sweep": "families.enumerate_ref",
    "families.build": "families.build_ref",
    "graphs.Graph": "graphs.graph_ref",
    "graphs.distance_matrix": "graphs.distance_matrix_ref",
    "solver.burning_number_exact": "solver.exact_ref",
    "solver.find_sequence/witness": "solver.witness_ref",
    "solver.find_sequence/refute": "solver.refute_ref",
    "solver.check_sequence": "solver.check_ref",
    "solver.unicyclic_spanning_upper": "solver.spanning_ref",
    "compute.compute": "compute.formula_ref",
    "tables.b_unicyclic_t1": "tables.t1_ref",
    "tables.b_unicyclic_t2": "tables.t2_ref",
    "formulas.b_two_paths": "formulas.eval_ref",
    "formulas.b_three_paths": "formulas.eval_ref",
}


def _describe(error: Exception, tally: Counter) -> str:
    from burnkit.solver import Inconclusive

    if isinstance(error, Inconclusive):
        tally["solver.inconclusive"] += 1
        return f"inconclusive under the safety budget: {error}"
    return f"{type(error).__name__}: {error}"


def run_pass(
    workload: str,
    seed: int,
    tracer: Tracer | None = None,
    sizes=None,
    header=None,
    setup_only=False,
) -> dict:
    """Set up the workload, time every item, check every output.

    With a ``tracer`` the pass records spans, replays the solver's layers
    and reports per-layer self times. ``sizes`` passes keyword arguments
    to the input maker (the self-test uses tiny sizes); ``header`` is
    called with the item count before the timed region starts.
    ``setup_only`` stops after set-up and reports only its time.
    """
    call = tracer.call if tracer else direct
    for _ in range(WARMUP_KERNELS):
        timed_kernel()
    ref_before_setup = timed_kernel()
    start = perf_counter()
    from . import workloads  # imports burnkit: part of set-up

    items = workloads.MAKERS[workload](seed, call, **(sizes or {}))
    raw_setup_s = perf_counter() - start
    refs = [timed_kernel()]
    setup_ref = (ref_before_setup + refs[0]) / 2
    # set-up in seconds at the nominal kernel speed: raw set-up seconds
    # swing with the machine's state as much as any other timing
    setup = {"setup_s": raw_setup_s / setup_ref * REF_SECONDS, "raw_setup_s": raw_setup_s}
    if setup_only:
        return setup
    if header:
        header(len(items))

    run, check = workloads.RUNNERS[workload], workloads.CHECKS[workload]
    tally: Counter = Counter()
    costs, item_refs, outs, problems = [], [], [], {}
    raw_s = 0.0
    for idx, item in enumerate(items):
        if tracer:
            tracer.item = idx
        error = out = None
        t0 = perf_counter()
        try:
            out = call("item", run, item, call)
        except Exception as exc:  # counted against the item, never fatal
            error = exc
        elapsed = perf_counter() - t0
        if tracer and out is not None:
            try:
                workloads.replay(workload, item, out, call)
            except Exception as exc:
                error = exc
        refs.append(timed_kernel())
        ref = (refs[-2] + refs[-1]) / 2
        item_refs.append(ref)
        costs.append(elapsed / ref)
        raw_s += elapsed
        outs.append(out)
        problem = _describe(error, tally) if error else check(item, out, tally)
        if problem:
            problems[idx] = problem
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if workload == "classify":
        for idx, problem in workloads.cross_check_small(items, outs).items():
            problems.setdefault(idx, problem)

    result = {
        **setup,
        "peak_rss_mb": peak_rss_mb,
        "costs": costs,
        "raw_s": raw_s,
        "ref_s": statistics.median(refs),
        "failed": len(problems),
        "wrong": sum(p.startswith("wrong") for p in problems.values()),
        "problems": [[items[i].key, problems[i]] for i in sorted(problems)[:5]],
        "counts": dict(tally),
    }
    if tracer:
        layers: Counter = Counter()
        for name, item, self_s in tracer.self_times():
            metric = LAYER_METRICS.get(name)
            if metric:
                layers[metric] += self_s / (setup_ref if item is None else item_refs[item])
        result["layers"] = dict(layers)
    return result


def _limit_resources(cpu_seconds: int) -> None:
    for which, soft in ((resource.RLIMIT_AS, MEMORY_LIMIT), (resource.RLIMIT_CPU, cpu_seconds)):
        _, hard = resource.getrlimit(which)
        if hard != resource.RLIM_INFINITY:
            soft = min(soft, hard)
        resource.setrlimit(which, (soft, hard))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cpu-seconds", type=int, required=True)
    parser.add_argument("--trace-out")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    _limit_resources(args.cpu_seconds)

    def header(count: int) -> None:
        print(json.dumps({"items": count}), flush=True)

    tracer = Tracer() if args.trace else None
    result = run_pass(
        args.workload, args.seed, tracer, header=header, setup_only=args.setup_only
    )
    if tracer and args.trace_out:
        tracer.write(args.trace_out)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
