"""Command-line interface: compute, verify, and sweep/cross-validate.

Exit codes are frozen for CI use: 0 success, 1 failed verification or
unexplained sweep mismatch, 2 input error, 3 inconclusive under the search
budget. The environment variable BURNKIT_NODE_BUDGET overrides the default
(unlimited) node budget of every exact search.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import nullcontext
from functools import partial
from typing import Optional

from .compute import METHODS, NoClosedForm, compute
from .families import SWEEP_CLASSES, SpecError, build, enumerate_sweep, format_spec, parse_spec
from .graphs import (
    GraphFormatError,
    TUnicyclic,
    qr_decompose,
    read_graph,
    recognize_family,
)
from .solver import (
    EXACT,
    Inconclusive,
    burning_number_exact,
    check_sequence,
    extract_partition,
)
from .tables import errata_covers, load_errata

BUDGET_ENV = "BURNKIT_NODE_BUDGET"


def _node_budget() -> Optional[int]:
    raw = os.environ.get(BUDGET_ENV)
    if raw is None:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise SpecError(f"{BUDGET_ENV} must be an integer, got {raw!r}") from None
    if value <= 0:
        raise SpecError(f"{BUDGET_ENV} must be positive, got {value}")
    return value


def _qr_fields(n: int) -> tuple[Optional[int], Optional[int]]:
    if n < 2:
        return None, None
    qr = qr_decompose(n)
    return qr.q, qr.r


def cmd_compute(args: argparse.Namespace) -> int:
    budget = _node_budget()
    if args.file is not None:
        g = read_graph(args.file)
    else:
        g = build(parse_spec(args.family))
    family = recognize_family(g)
    result = compute(g, method=args.method, budget=budget)

    certificate = result.certificate
    if args.certificate and certificate is None:
        exact = burning_number_exact(g, budget=budget)
        if exact.value != result.value:
            print(
                f"error: exact value {exact.value} disagrees with "
                f"{result.method} value {result.value}",
                file=sys.stderr,
            )
            return 1
        certificate = exact.certificate

    q, r = _qr_fields(g.vertex_count)
    if args.json:
        doc = {
            "n": g.vertex_count,
            "family": format_spec(family),
            "q": q,
            "r": r,
            "value": result.value,
            "method": result.method,
            "lower": result.lower_bound,
            "upper": result.upper_bound,
            "certificate": list(certificate) if certificate is not None else None,
        }
        print(json.dumps(doc))
        return 0

    print(f"n={g.vertex_count} family={format_spec(family)}" + (
        f" q={q} r={r}" if q is not None else ""
    ))
    print(f"value={result.value}")
    print(f"method={result.method}")
    print(f"lower={result.lower_bound} upper={result.upper_bound}")
    if args.certificate and certificate is not None:
        print("certificate=" + ",".join(map(str, certificate)))
        if result.method == EXACT:
            for i, part in enumerate(extract_partition(g, certificate), start=1):
                vertices = ",".join(map(str, sorted(part.vertices)))
                print(
                    f"partition {i}: root={part.root} height={part.height} "
                    f"vertices={vertices}"
                )
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    g = read_graph(args.file)
    try:
        sources = tuple(int(f) for f in args.sequence.split(","))
    except ValueError:
        raise SpecError(f"malformed sequence {args.sequence!r}") from None
    check = check_sequence(g, sources)  # malformed ids raise -> exit 2
    if check.ok:
        print(f"valid burning sequence of length {len(sources)}")
        return 0
    if check.failed_pair is not None:
        i, j = check.failed_pair
        x, y = sources[i - 1], sources[j - 1]
        print(
            f"invalid: distance condition failed for positions ({i},{j}): "
            f"d({x},{y})={check.distance} < {j - i}"
        )
    else:
        uncovered = ",".join(map(str, sorted(check.uncovered)))
        print(f"invalid: uncovered vertices {{{uncovered}}}")
    return 1


def _sweep_row(spec_text: str, budget: Optional[int]) -> dict:
    """Compare the closed form against the exact solver on one instance."""
    g = build(spec_text)
    formula = compute(g, method="formula", budget=budget)
    q, r = _qr_fields(g.vertex_count)
    row = {
        "spec": spec_text,
        "n": g.vertex_count,
        "q": q,
        "r": r,
        "formula": formula.value,
        "method": formula.method,
        "exact": None,
        "agree": None,
        "bounds": None,
    }
    try:
        exact = burning_number_exact(g, budget=budget)
        row["exact"] = exact.value
        row["agree"] = exact.value == formula.value
    except Inconclusive as inc:
        row["bounds"] = (inc.lower_bound, inc.upper_bound)
    return row


def _format_row(row: dict) -> str:
    q = "-" if row["q"] is None else row["q"]
    r = "-" if row["r"] is None else row["r"]
    if row["agree"] is None:
        lo, hi = row["bounds"]
        tail = f"inconclusive[{lo},{hi}]"
    else:
        tail = f"{row['exact']} {'yes' if row['agree'] else 'NO'}"
    return f"{row['spec']} {row['n']} {q} {r} {row['formula']} {row['method']} {tail}"


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.jobs < 1:
        raise SpecError(f"--jobs must be at least 1, got {args.jobs}")
    budget = _node_budget()
    errata = load_errata(args.errata)
    specs = [format_spec(d) for d in enumerate_sweep(args.family_class, args.max_n)]

    # opened first, so an unwritable report path fails before any solve
    report = open(args.out, "w", encoding="utf-8") if args.out else nullcontext(sys.stdout)
    with report as out:
        start = time.monotonic()
        worker = partial(_sweep_row, budget=budget)
        # the fork start method launches every worker up front, so never ask
        # for more than there are instances or CPUs
        workers = min(args.jobs, len(specs), os.cpu_count() or 1)
        if workers > 1:
            # imported here: loading it costs every other command about a
            # quarter of its start-up
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=workers) as pool:
                rows = list(pool.map(worker, specs, chunksize=16))
        else:
            rows = [worker(s) for s in specs]
        elapsed = time.monotonic() - start

        mismatches = [row for row in rows if row["agree"] is False]
        inconclusive = [row for row in rows if row["agree"] is None]
        unexplained = []
        for row in mismatches:
            desc = parse_spec(row["spec"])
            covered = isinstance(desc, TUnicyclic) and errata_covers(
                errata, desc.t, desc.g, desc.arms, row["formula"], row["exact"]
            )
            if not covered:
                unexplained.append(row)

        lines = [
            f"# sweep class={args.family_class} max_n={args.max_n}",
            "# spec n q r formula method exact agree",
        ]
        lines.extend(_format_row(row) for row in rows)
        lines.append(
            f"# instances={len(rows)} mismatches={len(mismatches)} "
            f"unexplained={len(unexplained)} inconclusive={len(inconclusive)}"
        )
        out.write("\n".join(lines) + "\n")
    print(
        f"swept {len(rows)} instances in {elapsed:.1f}s: "
        f"{len(mismatches)} mismatches ({len(unexplained)} unexplained), "
        f"{len(inconclusive)} inconclusive"
    )

    if inconclusive and not args.allow_inconclusive:
        return 3
    return 0 if not unexplained else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="burnkit",
        description="Graph burning numbers: exact solver, closed forms, sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="compute a burning number")
    source = p_compute.add_mutually_exclusive_group(required=True)
    source.add_argument("--file", help="graph file ('n m' header, 'u v' edge lines)")
    source.add_argument("--family", help="family spec, e.g. uni:7;4 or path:10")
    p_compute.add_argument("--method", choices=METHODS, default="auto")
    p_compute.add_argument(
        "--certificate", action="store_true", help="print an optimal burning sequence"
    )
    p_compute.add_argument("--json", action="store_true", help="structured output")
    p_compute.set_defaults(func=cmd_compute)

    p_verify = sub.add_parser("verify", help="verify a burning sequence")
    p_verify.add_argument("--file", required=True)
    p_verify.add_argument(
        "--sequence", required=True, help="comma-separated vertex ids, e.g. 0,2"
    )
    p_verify.set_defaults(func=cmd_verify)

    p_sweep = sub.add_parser(
        "sweep", help="cross-validate closed forms against the exact solver"
    )
    p_sweep.add_argument(
        "--class",
        dest="family_class",
        required=True,
        choices=SWEEP_CLASSES,
    )
    p_sweep.add_argument("--max-n", type=int, required=True)
    p_sweep.add_argument("--errata", help="file of accepted discrepancies")
    p_sweep.add_argument("--jobs", type=int, default=1)
    p_sweep.add_argument("--out", help="write the report to this file")
    p_sweep.add_argument("--allow-inconclusive", action="store_true")
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Inconclusive as inc:
        print(
            f"inconclusive: burning number in "
            f"[{inc.lower_bound}, {inc.upper_bound}]",
            file=sys.stderr,
        )
        return 3
    except (GraphFormatError, SpecError, NoClosedForm, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        # report only once the handler has ended: until then the traceback
        # keeps the frames that filled memory alive, and the report itself
        # could not be allocated
        pass
    print("error: out of memory: the input is too large to solve", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
