"""Self-test of the benchmark at reduced size (about two minutes on 2 cores).

    python3 perfbench/selftest.py

For every workload it checks that
  * a --trace 0 run passes its gates and emits every end-to-end metric of
    BENCHMARK.json with its unit, plus the fail_frac report line;
  * a --trace 1 run (another seed) emits every per-layer metric of
    BENCHMARK.json with its unit, reports every per-layer metric named below
    and its tracing overhead, and gives the same counter digest;
  * a run with every reference value moved off the truth fails its gates.
Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

# every per-layer metric the traced run reports, including those left out of
# BENCHMARK.json because they read 0 on a workload that never calls the layer
REPORTED_LAYER_METRICS = [
    "geodesics.enumerate.calls", "geodesics.enumerate.s", "geodesics.visited",
    "geodesics.nodes_per_s", "geodesics.candidates", "geodesics.elliptic",
    "geodesics.yield",
    "intervals.interval_solve.calls", "intervals.interval_solve.s",
    "intervals.iv.calls", "intervals.iv.s",
    "numfield.embed.calls", "numfield.embed.s", "numfield.ideal.calls",
    "numfield.ideal.s", "numfield.root_bits",
    "realroots.refine.calls", "realroots.refine.s",
    "lattice.hnf.calls", "lattice.hnf.s",
    "orders.congruence_lattice.calls", "orders.congruence_lattice.s", "orders.build.s",
    "quotient.init.calls", "quotient.init.s", "quotient.count.s", "quotient.residues",
    "quotient.residues_per_s", "quotient.norm_one_share",
    "torsion.certify.calls", "torsion.certify.s", "torsion.roots_in_field.calls",
    "torsion.roots_in_field.s",
    "quatalg.prime_status.calls", "quatalg.prime_status.s", "quatalg.undecided",
    "bounds.context.s",
    "cli.main.calls", "cli.main.self_s",
]


def run(workload, seed, trace, *extra):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--reduced", *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{' '.join(cmd[1:])} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return lines[:-1], json.loads(lines[-1])


def fail(message):
    print(f"FAIL {message}")
    raise SystemExit(1)


def check(ok, message):
    if not ok:
        fail(message)
    print(f"ok   {message}")


def check_manifest(result, section, label):
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    check(got == want, f"{label}: every {section} metric emitted with its unit")


def digest(report):
    return next(ln for ln in report if ln.startswith("counters_digest="))


def main() -> int:
    for workload in [w["name"] for w in SPEC["workloads"]]:
        report, result = run(workload, 1, 0)
        check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
              f"{workload}: gates pass at reduced size")
        check_manifest(result, "end_to_end", workload)
        check(any(ln.startswith("metric fail_frac value=0 unit=1") for ln in report),
              f"{workload}: fail_frac reported")

        traced_report, traced = run(workload, 2, 1)
        check(traced["correct"], f"{workload}: traced run passes its gates")
        check_manifest(traced, "per_layer", f"{workload} traced")
        names = {ln.split()[1] for ln in traced_report if ln.startswith("layer ")}
        missing = [n for n in REPORTED_LAYER_METRICS if n not in names]
        check(not missing, f"{workload}: traced run reports every layer metric"
              + (f", missing {missing}" if missing else ""))
        check(any(ln.startswith("trace_overhead ") for ln in traced_report),
              f"{workload}: tracing overhead reported")
        check(digest(report) == digest(traced_report),
              f"{workload}: counters identical across seeds and tracing")

        _report, wrong = run(workload, 1, 0, "--perturb-reference")
        check(not wrong["correct"] and wrong["failed"] > 0,
              f"{workload}: a wrong reference value fails the gate")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
