"""One fresh interpreter of the benchmark; prints one JSON object as its last line.

    python3 perfbench/child.py setup
    python3 perfbench/child.py pass --workload W --seed N --pass K [--trace]
                                    [--reduced] [--perturb-reference] [--spans FILE]
    python3 perfbench/child.py jobs

`setup` times ``import quatsys`` plus `hurwitz_context()` and exits.
`pass` times set-up, then runs the workload's operations once, in the order
the seed and pass number give, and reports per-operation gates, counters and
seconds.  `jobs` runs the norm-7 systole search with ``--jobs 2`` for the
untimed equivalence check.  quatsys must be importable (run.py puts the
checkout's ``src`` on PYTHONPATH).
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import time
import traceback


def permuted(ops: list, seed: int, pass_index: int) -> list:
    order = list(ops)
    random.Random(seed * 1009 + pass_index).shuffle(order)
    return order


def _run_pass(args) -> dict:
    t0 = time.perf_counter()
    import quatsys

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        ctx = tracer.call("bench.setup", quatsys.hurwitz_context)
    else:
        ctx = quatsys.hurwitz_context()
    setup_s = time.perf_counter() - t0

    import workloads

    ref = workloads.perturbed(workloads.REFERENCE) if args.perturb_reference \
        else workloads.REFERENCE
    ops = permuted(workloads.build_ops(args.workload, ctx, args.reduced),
                   args.seed, args.pass_index)
    results = []
    solve_start = time.perf_counter()
    for number, op in enumerate(ops, start=1):
        started = time.perf_counter()
        try:
            if tracer is not None:
                tracer.current_op = number
                out = tracer.call("bench.op", workloads.run_op, op, ctx, ref)
            else:
                out = workloads.run_op(op, ctx, ref)
        except Exception:  # an operation that raises is a failed operation
            out = {"ok": False, "counters": None, "detail": traceback.format_exc()}
        out["seconds"] = time.perf_counter() - started
        out["key"] = op["key"]
        results.append(out)
    solve_s = time.perf_counter() - solve_start

    report = {"setup_s": setup_s, "solve_s": solve_s, "ops": results,
              "order": [op["key"] for op in ops],
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer is not None:
        tracer.uninstall()
        report["trace"] = {"summary": tracer.summary(), "counters": tracer.counters,
                           "root_bits": tracer.root_bits(), "spans": len(tracer.sid)}
        if args.spans:
            tracer.write(args.spans)
    return report


def _run_jobs() -> dict:
    import workloads

    op = {"key": "norm7", "kind": "systole", "argv": workloads.SYSTOLE_ARGV["norm7"]}
    out = workloads.run_op(op, None, workloads.REFERENCE, ["--jobs", "2"])
    return {"records": out["records"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="mode", required=True)
    sub.add_parser("setup")
    sp = sub.add_parser("pass")
    sp.add_argument("--workload", required=True)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--pass", dest="pass_index", type=int, default=0)
    sp.add_argument("--trace", action="store_true")
    sp.add_argument("--reduced", action="store_true")
    sp.add_argument("--perturb-reference", action="store_true")
    sp.add_argument("--spans", default=None)
    sub.add_parser("jobs")
    args = parser.parse_args(argv)
    if args.mode == "setup":
        t0 = time.perf_counter()
        import quatsys

        quatsys.hurwitz_context()
        report = {"setup_s": time.perf_counter() - t0}
    elif args.mode == "pass":
        report = _run_pass(args)
    else:
        report = _run_jobs()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
