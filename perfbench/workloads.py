"""Workload operations, their reference values and their correctness gates.

Every operation returns whether it passed its gate and the deterministic
counters read from what the program returned.  Gates check certified values
(systole lengths, counts, genera, elliptic traces), never byte-identical
candidate lists, so a later opt-in record such as ``trace_cap=`` is not a
failure.

quatsys is reached through module attributes at call time (``quatsys.cli.main``,
``quatsys.enumerate_gamma``) so that the tracer's wrappers are the ones called.
"""

from __future__ import annotations

import contextlib
import io
import math

# Vogeler's Hurwitz-surface systoles, the genus pipeline and the orbifold's
# elliptic traces |tr| = 2cos(pi/n) for n = 2, 3 and 2cos(k pi/7), k = 1..3
REFERENCE = {
    "systole": {"norm7": 3.936, "norm13": 5.903},
    "genus": {7: 3, 8: 7, 13: 14},
    "p7_squared_norm_one": 115_248,
    "elliptic_traces": sorted([0.0, 1.0] + [2 * math.cos(k * math.pi / 7)
                                           for k in (1, 2, 3)]),
}
SYSTOLE_TOL = 1.5e-3
TRACE_TOL = 1e-9

# ROADMAP baseline rows: visited nodes at the final radius and serial seconds
BASELINE = {"norm7": {"visited": 128_407, "solve_s": 6.0},
            "norm13": {"visited": 1_472_006, "solve_s": 20.2}}

SYSTOLE_ARGV = {
    "norm7": ["--hurwitz", "systole", "--prime", "7", "--radius", "4.5:1:14"],
    "norm13": ["--hurwitz", "systole", "--prime", "13", "--index", "0",
               "--radius", "4.5:1:14"],
}
# seconds of one full pass on a 2-vCPU x86-64 virtual machine, Python 3.11; a run
# makes max(1, seconds // NOMINAL_PASS_S) passes
NOMINAL_PASS_S = {"systole": 27, "survey": 36, "orbifold": 12}
ORBIFOLD_RADIUS = {"full": 3.0, "reduced": 2.0}
SURVEY_NORM_BOUND = {"full": 100, "reduced": 13}


def perturbed(ref: dict) -> dict:
    """A copy of the references with every value moved off the truth."""
    return {
        "systole": {k: v + 0.01 for k, v in ref["systole"].items()},
        "genus": {k: v + 1 for k, v in ref["genus"].items()},
        "p7_squared_norm_one": ref["p7_squared_norm_one"] + 1,
        "elliptic_traces": [v + 1e-6 for v in ref["elliptic_traces"]],
    }


def build_ops(workload: str, ctx, reduced: bool) -> list[dict]:
    """The workload's operations in canonical order (the seed permutes them)."""
    import quatsys

    size = "reduced" if reduced else "full"
    if workload == "systole":
        keys = ["norm7"] if reduced else ["norm7", "norm13"]
        return [{"key": k, "kind": "systole", "argv": SYSTOLE_ARGV[k]} for k in keys]
    if workload == "survey":
        field = ctx.order.algebra.field
        primes = quatsys.primes_up_to_norm(field, SURVEY_NORM_BOUND[size])
        ops = []
        for prime in primes:
            index = sum(1 for op in ops if op["prime"].norm == prime.norm)
            ops.append({"key": f"P{prime.norm}.{index}", "kind": "prime", "prime": prime})
        if not reduced:
            p7 = next(op["prime"] for op in ops if op["prime"].norm == 7)
            ops.append({"key": "P7^2", "kind": "prime_power", "prime": p7, "t": 2})
        return ops
    if workload == "orbifold":
        return [{"key": "whole_ring", "kind": "orbifold", "radius": ORBIFOLD_RADIUS[size]}]
    raise ValueError(f"unknown workload {workload!r}")


def run_op(op: dict, ctx, ref: dict, argv_extra=()) -> dict:
    """Run one operation; returns {"ok", "counters", "detail"[, "records"]}."""
    kind = op["kind"]
    if kind == "systole":
        return _systole(op, ref, argv_extra)
    if kind == "prime":
        return _prime(op, ctx, ref)
    if kind == "prime_power":
        return _prime_power(op, ctx, ref)
    return _orbifold(op, ctx, ref)


def _systole(op, ref, argv_extra):
    import quatsys.cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = quatsys.cli.main(list(op["argv"]) + list(argv_extra))
    records = [ln for ln in buf.getvalue().splitlines() if not ln.startswith("elapsed=")]
    fields = {}
    per_radius = []
    for line in records:
        if line.startswith("progress "):
            kv = dict(tok.split("=", 1) for tok in line.split()[1:])
            per_radius.append([kv["radius"], int(kv["visited"])])
        elif "=" in line:
            key, value = line.split("=", 1)
            fields.setdefault(key, value)
    counters = {"exit": code, "mode": fields.get("mode"),
                "min_trace": fields.get("min_trace"),
                "min_length": fields.get("min_length"),
                "distinct_traces": fields.get("distinct_traces"),
                "elliptic": fields.get("elliptic")}
    if "radius" in fields and "visited" in fields:
        per_radius.append([fields["radius"], int(fields["visited"])])
    counters["visited_per_radius"] = per_radius
    target = ref["systole"][op["key"]]
    length = None
    if "min_length" in fields:
        lo, hi = (float(x) for x in fields["min_length"].strip("[]").split(","))
        length = (lo + hi) / 2
    ok = (code == 0 and fields.get("mode") in ("stabilized", "certified")
          and length is not None and abs(length - target) <= SYSTOLE_TOL)
    detail = f"exit={code} mode={fields.get('mode')} min_length={length} reference={target}"
    return {"ok": ok, "counters": counters, "detail": detail, "records": records}


def _prime(op, ctx, ref):
    import quatsys
    from quatsys.quotient import DEFAULT_CAP

    order = ctx.order
    prime = op["prime"]
    status = order.algebra.finite_prime_status(prime)
    cert = quatsys.certify_torsion_free(order, prime)
    counters = {"norm": prime.norm, "status": status, "torsion_free": cert.torsion_free}
    ok = status == "split" and cert.torsion_free
    if prime.norm ** 4 <= DEFAULT_CAP:
        ring = quatsys.FiniteQuotRing(order, prime, 1)
        units, norm_one = ring.count_units_and_norm_one()
        index = quatsys.psl_index(norm_one, order.minus_one_in_gamma(prime))
        genus = quatsys.genus_from_index(ctx, index)
        counters.update(residues=ring.cardinality, units=units, norm_one=norm_one,
                        genus=genus)
        ok = ok and norm_one == quatsys.maxim_formula(prime.norm, 1, False)
        if prime.norm in ref["genus"]:
            ok = ok and genus == ref["genus"][prime.norm]
    return {"ok": ok, "counters": counters, "detail": str(counters)}


def _prime_power(op, ctx, ref):
    import quatsys

    ring = quatsys.FiniteQuotRing(ctx.order, op["prime"], op["t"])
    units, norm_one = ring.count_units_and_norm_one()
    counters = {"residues": ring.cardinality, "units": units, "norm_one": norm_one}
    ok = norm_one == ref["p7_squared_norm_one"]
    return {"ok": ok, "counters": counters,
            "detail": f"{counters} reference={ref['p7_squared_norm_one']}"}


def _orbifold(op, ctx, ref):
    import quatsys

    field = ctx.order.algebra.field
    cands, visited = quatsys.enumerate_gamma(ctx.order, field.whole_ring(), op["radius"])
    elliptic = sorted(c.abs_trace for c in cands if c.is_elliptic)
    target = ref["elliptic_traces"]
    ok = len(elliptic) == len(target) and all(
        abs(a - b) <= TRACE_TOL for a, b in zip(elliptic, target))
    counters = {"visited": visited, "candidates": len(cands),
                "elliptic": len(elliptic),
                "elliptic_traces": [round(v, 9) for v in elliptic]}
    return {"ok": ok, "counters": counters,
            "detail": f"elliptic={elliptic} reference={target}"}
