"""quatsys benchmark: one workload per call, each pass in a fresh interpreter.

    python3 perfbench/run.py --workload {systole,survey,orbifold} --seed N \
        --seconds S --trace {0,1} [--reduced] [--perturb-reference]

Run it from anywhere inside a checkout that holds ``src/quatsys``.  It prints
one report line per metric, counter and gate, and as its last line one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end metrics of BENCHMARK.json,
with ``--trace 1`` its per-layer metrics.

--trace 0: two set-up probes (fresh interpreters that import quatsys and
build the Hurwitz context), then as many passes of the workload as fit in
``--seconds`` at its nominal pass time (at least one), each in a fresh
interpreter.  Every pass runs the workload's operations once, closed-loop and
serial, in an order drawn from the seed and the pass number.  setup_s is the median over probes and passes, solve_s the median
pass time, peak_rss_mb the largest peak resident set of a pass.

--trace 1: one untraced pass and one traced pass in the same order; the
per-layer metrics come from the traced pass, and the difference of the two
solve times is the tracing overhead.  Spans are written to
``perfbench/out/spans-<workload>.npz``.

In a --trace 1 run the systole workload also runs its norm-7 search with
``--jobs 2`` (not timed) and requires the records to equal the ``--jobs 1``
ones.
--reduced runs every workload at a smaller size and --perturb-reference moves
every reference value off the truth; both exist for selftest.py.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 2
BUDGET_S = 170.0  # every run must end within 180 s

sys.path.insert(0, str(HERE))
from tracer import BENCH_LAYER, LAYERS  # noqa: E402
from workloads import BASELINE, NOMINAL_PASS_S  # noqa: E402


class ChildFailed(Exception):
    pass


class Runner:
    """Starts child interpreters against the checkout's sources, within the budget."""

    def __init__(self):
        self.started = time.monotonic()
        self.env = dict(os.environ, PYTHONPATH=str(SRC), OMP_NUM_THREADS="1",
                        OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")

    def remaining(self) -> float:
        return BUDGET_S - (time.monotonic() - self.started)

    def child(self, *args) -> dict:
        timeout = self.remaining()
        if timeout <= 1:
            raise ChildFailed("time budget exhausted")
        try:
            proc = subprocess.run([sys.executable, str(HERE / "child.py"), *args],
                                  env=self.env, capture_output=True, text=True,
                                  timeout=timeout, check=False)
        except subprocess.TimeoutExpired as exc:
            raise ChildFailed(f"child {args[0]} timed out") from exc
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise ChildFailed(f"child {args[0]} exited {proc.returncode}: "
                              f"{proc.stderr.strip()[-2000:]}")
        return json.loads(lines[-1])


def _pass_args(args, pass_index, trace=False):
    out = ["pass", "--workload", args.workload, "--seed", str(args.seed),
           "--pass", str(pass_index)]
    if trace:
        OUT.mkdir(exist_ok=True)
        out += ["--trace", "--spans", str(OUT / f"spans-{args.workload}.npz")]
    if args.reduced:
        out.append("--reduced")
    if args.perturb_reference:
        out.append("--perturb-reference")
    return out


# -- checks -------------------------------------------------------------------


class Tally:
    """Operations attempted and failed, with one report line per failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def check(self, ok: bool, what: str, detail: str = ""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(f"gate FAILED {what} {detail}".rstrip())

    def add_pass(self, report: dict, label: str):
        for op in report["ops"]:
            self.check(op["ok"], f"{label} op={op['key']}", op["detail"])


def counters_by_key(report: dict) -> dict:
    return {op["key"]: op["counters"] for op in report["ops"]}


def digest(counters: dict) -> str:
    text = json.dumps(counters, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def check_counters_agree(tally: Tally, reports: list):
    """Deterministic counters must not depend on the pass, order or tracing."""
    first = counters_by_key(reports[0])
    for k, report in enumerate(reports[1:], start=1):
        tally.check(counters_by_key(report) == first, f"counters pass {k} == pass 0")


def jobs_check(runner: Runner, tally: Tally, serial_report: dict, out: list):
    """Untimed: the norm-7 search with --jobs 2 gives the --jobs 1 records."""
    serial = next((op for op in serial_report["ops"] if op["key"] == "norm7"), None)
    try:
        parallel = runner.child("jobs")
    except ChildFailed as exc:
        tally.check(False, "jobs equivalence", str(exc))
        return
    same = serial is not None and serial.get("records") == parallel["records"]
    tally.check(same, "jobs equivalence", "records differ between --jobs 1 and --jobs 2")
    out.append(f"check jobs_equivalence jobs1_vs_jobs2={'identical' if same else 'DIFFERENT'}")


# -- reporting ----------------------------------------------------------------


def _stats_line(name, unit, samples):
    return (f"metric {name} value={statistics.median(samples):.6g} unit={unit} "
            f"samples={len(samples)} min={min(samples):.6g} max={max(samples):.6g}")


def counter_lines(workload: str, reports: list) -> list:
    lines = []
    counters = counters_by_key(reports[0])
    for key in sorted(counters):
        lines.append(f"counters {workload}.{key} {json.dumps(counters[key], sort_keys=True)}")
    lines.append(f"counters_digest={digest(counters)}")
    if workload == "systole":
        for key, base in BASELINE.items():
            times = [op["seconds"] for r in reports for op in r["ops"] if op["key"] == key]
            per_radius = (counters.get(key) or {}).get("visited_per_radius")
            if not times or not per_radius:
                continue
            visited = per_radius[-1][1]
            lines.append(
                f"level systole.{key} solve_s={statistics.median(times):.4f} "
                f"baseline_s={base['solve_s']} visited={visited} "
                f"baseline_visited={base['visited']} "
                f"match={'true' if visited == base['visited'] else 'false'}")
    elif workload == "survey":
        residues = sum(c.get("residues", 0) for c in counters.values() if c)
        lines.append(f"counters survey.residues_total {residues}")
    return lines


def pass_count(workload: str, seconds: float) -> int:
    """Passes that fit in --seconds at the workload's nominal pass time.

    Fixed per workload and --seconds, never by a measured time, so every
    run's solve_s is a median over the same number of passes.
    """
    return max(1, int(seconds // NOMINAL_PASS_S[workload]))


def end_to_end(args, runner: Runner, tally: Tally, lines: list) -> dict:
    setup = []
    for _ in range(SETUP_PROBES):
        try:
            setup.append(runner.child("setup")["setup_s"])
        except ChildFailed as exc:
            tally.check(False, "setup probe", str(exc))
            break
    reports = []
    for k in range(pass_count(args.workload, args.seconds)):
        if k and runner.remaining() < 2 * (reports[0]["solve_s"] + reports[0]["setup_s"]) + 15:
            tally.check(False, f"pass {k}", "not started: time budget")
            break
        try:
            report = runner.child(*_pass_args(args, k))
        except ChildFailed as exc:
            tally.check(False, f"pass {k}", str(exc))
            break
        reports.append(report)
        tally.add_pass(report, f"pass {k}")
        setup.append(report["setup_s"])
    if not reports:
        return {}
    check_counters_agree(tally, reports)
    solve = [r["solve_s"] for r in reports]
    rss = max(r["peak_rss_mb"] for r in reports)
    lines.append(_stats_line("setup_s", "s", setup))
    lines.append(_stats_line("solve_s", "s", solve))
    lines.append(f"metric peak_rss_mb value={rss:.6g} unit=MB samples={len(reports)}")
    for k, r in enumerate(reports):
        lines.append(f"pass {k} order={','.join(r['order'])} solve_s={r['solve_s']:.4f} "
                     f"setup_s={r['setup_s']:.4f}")
    lines += counter_lines(args.workload, reports)
    return {"setup_s": (statistics.median(setup), "s"),
            "solve_s": (statistics.median(solve), "s"),
            "peak_rss_mb": (rss, "MB")}


def layer_metrics(traced: dict, plain: dict) -> dict:
    """Every per-layer metric of the traced pass, as name -> (value, unit)."""
    trace = traced["trace"]
    spans = trace["summary"]["all"]
    solve = trace["summary"]["solve"]
    cnt = trace["counters"]

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def self_s(name):
        return spans.get(name, {}).get("self_s", 0.0)

    def incl_s(name):
        return spans.get(name, {}).get("incl_s", 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for name in ("geodesics.enumerate", "intervals.interval_solve", "intervals.iv",
                 "numfield.embed", "numfield.ideal", "realroots.refine", "lattice.hnf",
                 "orders.congruence_lattice", "quotient.init", "torsion.certify",
                 "torsion.roots_in_field", "quatalg.prime_status", "cli.main"):
        m[f"{name}.calls"] = (calls(name), "count")
    for name in ("geodesics.enumerate", "intervals.interval_solve", "intervals.iv",
                 "numfield.embed", "numfield.ideal", "realroots.refine", "lattice.hnf",
                 "orders.congruence_lattice", "orders.build", "quotient.init",
                 "quotient.count", "torsion.certify", "torsion.roots_in_field",
                 "quatalg.prime_status", "bounds.context"):
        m[f"{name}.s"] = (incl_s(name), "s")
    m["cli.main.self_s"] = (self_s("cli.main"), "s")
    visited = cnt["geodesics.visited"]
    m["geodesics.visited"] = (visited, "count")
    m["geodesics.candidates"] = (cnt["geodesics.candidates"], "count")
    m["geodesics.elliptic"] = (cnt["geodesics.elliptic"], "count")
    m["geodesics.nodes_per_s"] = (ratio(visited, incl_s("geodesics.enumerate")), "1/s")
    m["geodesics.yield"] = (ratio(cnt["geodesics.candidates"], visited), "ratio")
    residues = cnt["quotient.residues"]
    m["quotient.residues"] = (residues, "count")
    m["quotient.residues_per_s"] = (ratio(residues, incl_s("quotient.count")), "1/s")
    m["quotient.norm_one_share"] = (ratio(cnt["quotient.norm_one"], residues), "ratio")
    m["quatalg.undecided"] = (cnt["quatalg.undecided"], "count")
    m["numfield.root_bits"] = (trace["root_bits"], "bits")
    # self-time share of the traced solve time, per layer
    for layer in LAYERS + [BENCH_LAYER]:
        own = sum(v["self_s"] for k, v in solve.items() if k.split(".")[0] == layer)
        m[f"{layer}.self_pct"] = (100 * ratio(own, traced["solve_s"]), "%")
    m["trace.overhead_s"] = (traced["solve_s"] - plain["solve_s"], "s")
    m["trace.overhead_pct"] = (100 * ratio(traced["solve_s"] - plain["solve_s"],
                                           plain["solve_s"]), "%")
    m["trace.spans"] = (trace["spans"], "count")
    return m


def per_layer(args, runner: Runner, tally: Tally, lines: list) -> dict:
    try:
        plain = runner.child(*_pass_args(args, 0))
        tally.add_pass(plain, "untraced pass")
        traced = runner.child(*_pass_args(args, 0, trace=True))
        tally.add_pass(traced, "traced pass")
    except ChildFailed as exc:
        tally.check(False, "trace run", str(exc))
        return {}
    check_counters_agree(tally, [plain, traced])
    if args.workload == "systole":
        jobs_check(runner, tally, plain, lines)
    metrics = layer_metrics(traced, plain)
    lines.append(f"trace_overhead solve_untraced_s={plain['solve_s']:.4f} "
                 f"solve_traced_s={traced['solve_s']:.4f} "
                 f"overhead_s={metrics['trace.overhead_s'][0]:.4f} "
                 f"overhead_pct={metrics['trace.overhead_pct'][0]:.2f}")
    for name, (value, unit) in metrics.items():
        lines.append(f"layer {name} value={value:.6g} unit={unit}")
    lines += counter_lines(args.workload, [plain, traced])
    return metrics


def manifest_metrics(trace: bool) -> list:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(NOMINAL_PASS_S), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reduced", action="store_true")
    parser.add_argument("--perturb-reference", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "quatsys" / "__init__.py").is_file():
        print(f"error: no quatsys sources under {SRC}", file=sys.stderr)
        return 2

    runner = Runner()
    tally = Tally()
    lines = [f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
             f"trace={args.trace} reduced={str(args.reduced).lower()}"]
    measure = per_layer if args.trace else end_to_end
    metrics = measure(args, runner, tally, lines)
    lines += tally.notes
    lines.append(f"metric fail_frac value={tally.failed / max(tally.attempted, 1):.6g} "
                 f"unit=1 attempted={tally.attempted} failed={tally.failed}")
    result_metrics = {}
    for spec in manifest_metrics(bool(args.trace)):
        if spec["name"] in metrics:
            value, unit = metrics[spec["name"]]
            result_metrics[spec["name"]] = {"value": value, "unit": unit}
    correct = tally.failed == 0 and len(result_metrics) == len(manifest_metrics(bool(args.trace)))
    print("\n".join(lines))
    print(json.dumps({"correct": correct, "attempted": max(tally.attempted, 1),
                      "failed": tally.failed, "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
