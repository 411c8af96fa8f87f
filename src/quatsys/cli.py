"""Command line front end.

Commands: field-info, ideal-factor, ramification, quotient-count,
torsion-check, bounds, systole, table1.  Output is line-delimited
key=value records (plus an aligned table for `table1`); identical
invocations produce identical output except for the trailing elapsed
field.  Exit codes: 0 success, 1 bad input, 2 cap or precision
exhaustion, 3 violated invariant.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time

from .bounds import (asymptotic_strings, explicit_constant, four_thirds_log_genus,
                     fuchsian_sr_bound, genus_from_index, hurwitz_43_threshold,
                     hurwitz_context, psl_index, r_invariant,
                     sys_lower_bound_from_genus, sys_lower_bound_from_ideal,
                     trace_bound_pair)
from .errors import CapExceeded, InputError, InvariantViolation, PrecisionError
from .geodesics import RadiusSchedule, systole_search
from .intervals import START_BITS
from .numfield import IdealHNF, factor_ideal, factor_rational_prime
from .quotient import (DEFAULT_CAP, FiniteQuotRing, count_norm_one_ideal, index_bound,
                       maxim_formula)
from .specfile import parse_element, parse_spec_file
from .torsion import certify_torsion_free

# independently published systole values for the short principal congruence
# covers of the (2,3,7) orbifold (Vogeler's computation), used as the
# cross-check column of `table1`; the genus-17 cover is not a principal
# congruence quotient of this kind and is carried as reference data only
TABLE_REFERENCE = [
    {"genus": 3, "group": "PSL(2,7)", "systole": 3.936, "computed": True},
    {"genus": 7, "group": "PSL(2,8)", "systole": 5.796, "computed": True},
    {"genus": 14, "group": "PSL(2,13)", "systole": 5.903, "computed": True},
    {"genus": 14, "group": "PSL(2,13)", "systole": 6.393, "computed": True},
    {"genus": 14, "group": "PSL(2,13)", "systole": 6.887, "computed": True},
    {"genus": 17, "group": "(C2)^3.PSL(2,7)", "systole": 7.609, "computed": False},
]


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise InputError(message)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _global_flags(parser, defaults: bool):
    """The shared flags, attachable before or after the subcommand."""
    d = (lambda v: v) if defaults else (lambda _v: argparse.SUPPRESS)
    parser.add_argument("--field", default=d(None),
                        help="field/algebra/order definition file")
    parser.add_argument("--hurwitz", action="store_true", default=d(False),
                        help="built-in preset: field Q(eta), algebra (eta,eta), maximal order")
    parser.add_argument("--out", default=d(None),
                        help="write records to this file instead of stdout")
    parser.add_argument("--jobs", type=int, default=d(1),
                        help="accepted and ignored: the enumeration runs serially")
    parser.add_argument("--cap", type=_positive_int, default=d(DEFAULT_CAP),
                        help="residue/node cap for exhaustive passes")
    parser.add_argument("--asymptotic", action="store_true", default=d(False),
                        help="also print the asymptotic-form strings (display only)")


@functools.cache
def build_parser() -> _Parser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    p = _Parser(prog="quatsys", description=__doc__,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    _global_flags(p, defaults=True)
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        sp = sub.add_parser(name, help=help_text)
        _global_flags(sp, defaults=False)
        return sp

    add("field-info", "degree, discriminant, certified embeddings")

    sp = add("ideal-factor", "factor a rational prime into prime ideals")
    _ideal_flags(sp, prime_only=True)

    sp = add("ramification", "real and finite ramification of the algebra")
    sp.add_argument("--norm-bound", type=_positive_int, default=50)

    sp = add("quotient-count", "unit/norm-one counts of Q/(p^t Q)")
    _ideal_flags(sp)
    sp.add_argument("--t", type=int, help="exponent of --prime (default 1)")

    sp = add("torsion-check", "torsion-freeness certificate for an ideal")
    _ideal_flags(sp)

    sp = add("bounds", "trace floor, genus, systole floor, ratio bounds")
    _ideal_flags(sp)

    sp = add("systole", "exact enumeration of short congruence elements")
    _ideal_flags(sp)
    sp.add_argument("--radius", default="5:1:12", help="schedule L0:STEP:MAX")

    add("table1", "summary table over the five short congruence covers")
    return p


def _ideal_flags(sp, prime_only=False):
    sp.add_argument("--prime", type=int, help="rational prime")
    if not prime_only:
        sp.add_argument("--index", type=int,
                        help="which prime ideal above --prime (sorted order, default 0)")
        sp.add_argument("--ideal", help="generators, e.g. \"2\" or \"2,-1,0;3\"")


def _load(args):
    if args.hurwitz and args.field:
        raise InputError("choose either --hurwitz or --field")
    if args.hurwitz:
        ctx = hurwitz_context()
        algebra = ctx.order.algebra
        return {"field": algebra.field, "algebra": algebra, "order": ctx.order, "ctx": ctx}
    if args.field:
        spec = parse_spec_file(args.field)
        out = dict(spec)
        if "order" in spec:
            out["ctx"] = None  # covolume is not derivable from the definition file
        return out
    raise InputError("need --hurwitz or --field FILE")


def _pick_ideal(args, field) -> IdealHNF:
    ideal_text = getattr(args, "ideal", None)
    if ideal_text is not None and any(getattr(args, flag, None) is not None
                                      for flag in ("prime", "index", "t")):
        raise InputError("--ideal names the ideal alone; drop --prime, --index and --t")
    if ideal_text:
        gens = [parse_element(field, chunk) for chunk in ideal_text.split(";")]
        ideal = IdealHNF.from_generators(field, gens)
    elif getattr(args, "prime", None):
        factors = factor_rational_prime(field, args.prime)
        idx = getattr(args, "index", None) or 0
        if not 0 <= idx < len(factors):
            raise InputError(f"--index must lie in [0, {len(factors)}): "
                             f"{len(factors)} primes above {args.prime}")
        ideal = factors[idx][0]
    else:
        raise InputError("select an ideal with --ideal or --prime [--index]")
    try:  # every command's records print the norm
        str(ideal.norm)
    except ValueError:
        raise InputError(f"the ideal's norm has more than "
                         f"{sys.get_int_max_str_digits()} digits") from None
    return ideal


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_field_info(args, env, emit):
    field = env["field"]
    emit(f"name={field.name}")
    emit(f"degree={field.degree}")
    emit(f"minpoly={' '.join(str(c) for c in reversed(field.min_poly))}")
    emit(f"disc={field.disc}")
    for s in range(field.degree):
        box = field.embedding_interval(s, START_BITS)
        emit(f"embedding_{s}=[{float(box.lo)!r},{float(box.hi)!r}]")
    if "algebra" in env:
        alg = env["algebra"]
        emit(f"quat_a={alg.a}")
        emit(f"quat_b={alg.b}")
    if "order" in env and env["order"] is not None:
        emit(f"order={env['order'].name}")
        emit(f"kappa={env['order'].kappa}")


def cmd_ideal_factor(args, env, emit):
    field = env["field"]
    if not getattr(args, "prime", None):
        raise InputError("ideal-factor needs --prime P")
    for prime, e, f in factor_rational_prime(field, args.prime):
        emit(f"prime={args.prime} norm={prime.norm} e={e} f={f} hnf={prime}")


def cmd_ramification(args, env, emit):
    algebra = env.get("algebra")
    if algebra is None:
        raise InputError("ramification needs an algebra (quat: line or --hurwitz)")
    report = algebra.ramification_report(args.norm_bound)
    for line in report.records():
        emit(line)


def cmd_quotient_count(args, env, emit):
    order = _need_order(env)
    ideal = _pick_ideal(args, env["field"])
    prime_factors = factor_ideal(env["field"], ideal)
    if len(prime_factors) != 1:
        raise InputError("quotient-count expects a prime-power ideal")
    prime, t_from_ideal = prime_factors[0]
    t = t_from_ideal if args.t is None else args.t  # a --prime level has t_from_ideal = 1
    ring = FiniteQuotRing(order, prime, t, cap=args.cap)
    units, norm_one = ring.count_units_and_norm_one()
    division = env["algebra"].finite_prime_status(prime) == "ramified"
    formula = maxim_formula(ring.q, t, division)
    line = (f"prime={prime.norm} t={t} q={ring.q} units={units} "
            f"norm_one={norm_one} formula={formula} "
            f"match={str(norm_one == formula).lower()}")
    if t == 1:
        radical, tag = ring.radical_and_type()
        line += f" type={tag} radical={radical}"
    emit(line)


def cmd_torsion_check(args, env, emit):
    order = _need_order(env)
    ideal = _pick_ideal(args, env["field"])
    cert = certify_torsion_free(order, ideal)
    for line in cert.lines():
        emit(line)
    emit(f"minus_one_in_gamma={str(order.minus_one_in_gamma(ideal)).lower()}")


def cmd_bounds(args, env, emit):
    order = _need_order(env)
    ctx = env.get("ctx")
    if ctx is None:
        raise InputError("bounds needs the base covolume; use --hurwitz")
    ideal = _pick_ideal(args, env["field"])
    if ideal.is_whole_ring():
        raise InputError("the improper ideal defines the full group; certificate undefined")
    sharp, coarse = trace_bound_pair(ctx, ideal)
    emit(f"ideal_norm={ideal.norm}")
    try:
        emit(f"trace_floor_sharp={float(sharp):.6f}")
        emit(f"trace_floor_coarse={float(coarse):.6f}")
    except OverflowError:
        raise InputError("the trace floor exceeds the largest double") from None
    bound = index_bound(env["algebra"], order, ideal)
    emit(f"index_bound={bound}")
    count = count_norm_one_ideal(order, ideal, cap=args.cap)
    emit(f"norm_one_count={count}")
    cert = certify_torsion_free(order, ideal)
    emit(f"torsion_free={str(cert.torsion_free).lower()}")
    minus = order.minus_one_in_gamma(ideal)
    emit(f"minus_one_in_gamma={str(minus).lower()}")
    pidx = psl_index(count, minus)
    emit(f"psl_index={pidx}")
    genus = genus_from_index(ctx, pidx)
    emit(f"genus={genus}")
    bound_col = four_thirds_log_genus(genus)
    emit(f"four_thirds_log_genus={float(bound_col.mid):.3f}")
    floor_ideal = sys_lower_bound_from_ideal(ctx, ideal)
    emit("sys_floor_ideal=" + (f"{float(floor_ideal.mid):.6f}"
                               if floor_ideal is not None else "vacuous"))
    floor_genus = sys_lower_bound_from_genus(ctx, genus)
    emit("sys_floor_genus_chain=" + (f"{float(floor_genus.mid):.6f}"
                                     if floor_genus is not None else "vacuous"))
    emit("four_thirds_check=true" if genus >= hurwitz_43_threshold()
         else f"four_thirds_check=below-range(g={genus})")
    sr = fuchsian_sr_bound(ctx, genus)
    emit("sr_floor=" + (f"{float(sr.mid):.6g}" if sr is not None else "vacuous"))
    coeff, encl = r_invariant(ctx)
    emit(f"r_invariant={coeff}*pi~{float(encl.mid):.6f}")
    emit(f"explicit_constant_c={float(explicit_constant(ctx).mid):.6f}")
    if args.asymptotic:
        for line in asymptotic_strings(ctx):
            emit(line)


def cmd_systole(args, env, emit):
    order = _need_order(env)
    ideal = _pick_ideal(args, env["field"])
    schedule = RadiusSchedule.parse(args.radius)

    def progress(step):
        if step.mode == "searching":
            cur = (f"{float(step.min_length.mid):.6f}"
                   if step.min_length is not None else "-")
            emit(f"progress radius={step.radius:g} visited={step.visited} "
                 f"classes={step.distinct_traces} current_min={cur}")

    result = systole_search(order, ideal, schedule, cap_nodes=args.cap,
                            progress=progress)
    for line in result.records():
        emit(line)
    for cand in result.candidates:
        emit(cand.record())


def cmd_table1(args, env, emit):
    order = _need_order(env)
    ctx = env.get("ctx")
    if ctx is None:
        raise InputError("table1 runs on the built-in preset; use --hurwitz")
    field = env["field"]
    eta = field.gen()
    ideals = [IdealHNF.principal(field, field.from_rational(2) - eta),
              IdealHNF.principal(field, field.from_rational(2))]
    ideals += [pr for pr, _e, _f in factor_rational_prime(field, 13)]
    rows = []
    reference_pool = {}
    for row in TABLE_REFERENCE:
        if row["computed"]:
            reference_pool.setdefault(row["genus"], []).append(row["systole"])
    for ideal in ideals:
        count = count_norm_one_ideal(order, ideal, cap=args.cap)
        minus = order.minus_one_in_gamma(ideal)
        pidx = psl_index(count, minus)
        genus = genus_from_index(ctx, pidx)
        cert = certify_torsion_free(order, ideal)
        if not cert.torsion_free:
            raise InvariantViolation(f"ideal of norm {ideal.norm} not torsion-free")
        result = systole_search(order, ideal, RadiusSchedule(4.5, 1.0, 14.0),
                                cap_nodes=args.cap)
        sys_mid = float(result.min_length.mid)
        matches = [v for v in reference_pool.get(genus, [])
                   if abs(v - sys_mid) <= 1.5e-3]
        ref = matches[0] if matches else None
        if ref is not None:
            reference_pool[genus].remove(ref)
        bound_col = float(four_thirds_log_genus(genus).mid)
        rows.append({
            "ideal_norm": ideal.norm, "genus": genus, "group_order": pidx,
            "systole": sys_mid, "reference": ref, "bound": bound_col,
            "mode": result.mode, "pass": ref is not None,
        })
        emit(f"ideal_norm={ideal.norm} genus={genus} group_order={pidx} "
             f"systole={sys_mid:.3f} reference={ref if ref is not None else 'none'} "
             f"bound={bound_col:.3f} mode={result.mode} "
             f"pass={str(ref is not None).lower()}")
    ref_genus = TABLE_REFERENCE[-1]["genus"]
    # the cover's index, from the area relation 4 pi (g - 1) = index * area
    ref_row = {"genus": ref_genus, "group_order": int(4 * (ref_genus - 1) / ctx.covolume_pi),
               "reference": TABLE_REFERENCE[-1]["systole"],
               "bound": float(four_thirds_log_genus(ref_genus).mid)}
    emit(f"ideal_norm=- genus={ref_genus} group_order={ref_row['group_order']} "
         f"systole=- reference={ref_row['reference']} bound={ref_row['bound']:.3f} "
         f"mode=reference pass=-")
    emit("")
    emit(_render_table(rows, ref_row))
    if not all(r["pass"] for r in rows):
        raise InvariantViolation("a computed systole failed the reference cross-check")


def _render_table(rows, ref_row):
    head = f"{'genus':>5} {'group':>6} {'systole':>9} {'ref':>7} {'bound':>7} {'mode':>11} {'pass':>5}"
    lines = [head, "-" * len(head)]
    for r in rows:
        lines.append(f"{r['genus']:>5} {r['group_order']:>6} {r['systole']:>9.3f} "
                     f"{r['reference'] if r['reference'] else '-':>7} "
                     f"{r['bound']:>7.3f} {r['mode']:>11} "
                     f"{'ok' if r['pass'] else 'FAIL':>5}")
    lines.append(f"{ref_row['genus']:>5} {ref_row['group_order']:>6} {'-':>9} "
                 f"{ref_row['reference']:>7} {ref_row['bound']:>7.3f} {'reference':>11} {'-':>5}")
    return "\n".join(lines)


def _need_order(env):
    order = env.get("order")
    if order is None:
        raise InputError("this command needs an order (order: line or --hurwitz)")
    return order


COMMANDS = {
    "field-info": cmd_field_info,
    "ideal-factor": cmd_ideal_factor,
    "ramification": cmd_ramification,
    "quotient-count": cmd_quotient_count,
    "torsion-check": cmd_torsion_check,
    "bounds": cmd_bounds,
    "systole": cmd_systole,
    "table1": cmd_table1,
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    started = time.monotonic()
    lines = []
    out = None
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        if args.out:
            try:  # fail before the command runs, but truncate only once it has
                out = open(args.out, "a", encoding="utf-8")
            except OSError as exc:
                raise InputError(f"cannot write --out {args.out}: {exc.strerror}") from exc
        env = _load(args)
        COMMANDS[args.command](args, env, lines.append)
        code = 0
    except InputError as exc:
        lines.append(f"error=input {exc}")
        code = 1
    except (CapExceeded, PrecisionError) as exc:
        lines.append(f"error=cap {exc}")
        code = 2
    except InvariantViolation as exc:
        lines.append(f"error=invariant {exc}")
        code = 3
    lines.append(f"elapsed={time.monotonic() - started:.3f}s")
    text = "\n".join(lines) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with out:
            out.truncate(0)
            out.write(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
