import contextlib
import io
import itertools
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from quatsys import cli
from quatsys.bounds import hurwitz_context, trace_coset_minimum
from quatsys.cli import COMMANDS, build_parser, main
from quatsys.errors import InputError
from quatsys.numfield import IdealHNF, hurwitz_field
from quatsys.specfile import parse_element, parse_spec_text

from conftest import B6_SPEC, Q10MAX_SPEC, Q2MAX_SPEC

HURWITZ_SPEC = """
# the real subfield of the 7th cyclotomic field
name: eta-field
minpoly: 1 1 -2 -1
quat: 0 1 0 | 0 1 0
order: hurwitz
"""

QUAT_SPEC = "minpoly: 1 1 -2 -1\nquat: 0 1 0 | 0 1 0"
# split at its one real place, but a < 0 there
MINUS1_3_SPEC = "minpoly: 1 0\nquat: -1 | 3\norder: standard\n"
IDENTITY_ROWS = "; ".join(" ".join("1" if i == j else "0" for j in range(12))
                          for i in range(12))
NON_INTEGER_ROWS = IDENTITY_ROWS.replace("1", "x", 1)
SPAN_1_I_ROWS = "; ".join(" ".join("1" if j == i and i in (0, 3) else "0" for j in range(12))
                          for i in range(12))


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_parse_spec_roundtrip():
    spec = parse_spec_text(HURWITZ_SPEC)
    assert spec["field"].degree == 3
    assert spec["algebra"].a == spec["field"].gen()
    assert spec["order"].kappa == 2


def test_parse_standard_and_custom_rows():
    spec = parse_spec_text("minpoly: 1 1 -2 -1\nquat: 0 1 0 | 0 1 0\norder: standard")
    assert spec["order"].kappa == 1
    rows = "; ".join(" ".join(str(v) for v in row) for row in spec["order"].mat)
    spec2 = parse_spec_text(
        f"minpoly: 1 1 -2 -1\nquat: 0 1 0 | 0 1 0\norder: 1 | {rows}")
    assert spec2["order"].mat == spec["order"].mat


def test_parse_errors():
    with pytest.raises(InputError):
        parse_spec_text("name: x")              # no minpoly
    with pytest.raises(InputError):
        parse_spec_text("minpoly: 1 1\nbogus: 3")
    with pytest.raises(InputError):
        parse_spec_text("minpoly: 1 1 -2 -1\norder: hurwitz")  # order before quat
    with pytest.raises(InputError):
        parse_spec_text(f"{QUAT_SPEC}\norder: 1 | {NON_INTEGER_ROWS}")
    with pytest.raises(InputError):
        parse_spec_text(f"{QUAT_SPEC}\norder: 0 | {IDENTITY_ROWS}")  # kappa 0
    with pytest.raises(InputError):
        parse_spec_text(f"{QUAT_SPEC}\norder: -2 | {IDENTITY_ROWS}")  # negative kappa


def test_cli_bad_order_line(tmp_path, capsys):
    for order in (f"1 | {NON_INTEGER_ROWS}", f"0 | {IDENTITY_ROWS}", f"1 | {SPAN_1_I_ROWS}"):
        path = tmp_path / "field.txt"
        path.write_text(f"{QUAT_SPEC}\norder: {order}\n")
        code, out = _run(capsys, "--field", str(path), "field-info")
        assert code == 1 and "error=input" in out
    # the rows span O_K + O_K i, a ring of rank 6
    assert out.splitlines()[0] == "error=input order lattice has rank 6, expected 12"


def test_element_parsing(K):
    x = parse_element(K, "(1/2, -3, 0)")
    assert str(x) == "(1/2, -3, 0)"
    y = parse_element(K, "7")
    assert y == K.from_rational(7)
    assert str(y) == "(7, 0, 0)"
    with pytest.raises(InputError):
        parse_element(K, "(1, 2)")


def test_cli_field_info(capsys):
    code, out = _run(capsys, "--hurwitz", "field-info")
    assert code == 0
    assert "degree=3" in out and "disc=49" in out
    assert "kappa=2" in out


def test_cli_field_file(tmp_path, capsys):
    path = tmp_path / "field.txt"
    path.write_text(HURWITZ_SPEC)
    code, out = _run(capsys, "--field", str(path), "field-info")
    assert code == 0
    assert "name=eta-field" in out


def test_cli_ideal_factor(capsys):
    code, out = _run(capsys, "--hurwitz", "ideal-factor", "--prime", "13")
    assert code == 0
    assert out.count("norm=13") == 3


def test_cli_quotient_count(capsys):
    code, out = _run(capsys, "--hurwitz", "quotient-count", "--prime", "7", "--t", "1")
    assert code == 0
    assert "norm_one=336" in out and "formula=336" in out and "match=true" in out
    assert "type=M2(F_q)" in out
    # the type comes from the unit count, so a large residue field is cheap
    code, out = _run(capsys, "--hurwitz", "quotient-count", "--prime", "43", "--t", "1")
    assert code == 0 and "type=M2(F_q) radical=1" in out


def test_cli_quotient_count_counts_the_quotient_once(capsys, monkeypatch):
    # the residue type comes from the same count as units= and norm_one=
    from quatsys.quotient import FiniteQuotRing

    calls = []
    histogram = FiniteQuotRing._norm_histogram
    monkeypatch.setattr(FiniteQuotRing, "_norm_histogram",
                        lambda ring: calls.append(ring) or histogram(ring))
    code, out = _run(capsys, "--hurwitz", "quotient-count", "--prime", "7")
    assert code == 0 and "norm_one=336" in out and "type=M2(F_q) radical=1" in out
    assert len(calls) == 1


def test_cli_quotient_count_at_the_largest_raw_range(capsys):
    # (4) = P2^2: 16.8 M residues, the largest Hurwitz quotient below 2e7, with
    # three central coordinates of pivot 4 and two binary blocks over R = O_K/(4)
    code, out = _run(capsys, "--hurwitz", "quotient-count", "--ideal", "4,0,0",
                     "--cap", "20000000")
    assert code == 0
    assert _records(out) == ["prime=8 t=2 q=8 units=14450688 norm_one=258048 "
                             "formula=258048 match=true"]


def test_cli_order_with_tables_beyond_int64(tmp_path, capsys):
    # ab = 10^20 exceeds 2^63: the order's tables and the quotient count are
    # Python integers, so every command handles the order
    a = b = 10 ** 10
    path = tmp_path / "field.txt"
    path.write_text(f"minpoly: 1 0\nquat: {a} | {b}\n"
                    "order: 1 | 1 0 0 0 ; 0 1 0 0 ; 0 0 1 0 ; 0 0 0 1\n")
    for command in ("field-info", "ramification"):
        code, out = _run(capsys, "--field", str(path), command)
        assert code == 0 and "error=" not in out, command
    # the 81 residues x0 + x1 i + x2 j + x3 ij of Z<i, j>/3, one by one
    norms = [(x0 * x0 - a * x1 * x1 - b * x2 * x2 + a * b * x3 * x3) % 3
             for x0, x1, x2, x3 in itertools.product(range(3), repeat=4)]
    units, norm_one = sum(n != 0 for n in norms), norms.count(1)
    code, out = _run(capsys, "--field", str(path), "quotient-count", "--prime", "3")
    assert code == 0
    assert f"units={units} norm_one={norm_one} " in _records(out)[0]


def test_cli_quotient_count_by_ideal_generators(capsys):
    code, out = _run(capsys, "--hurwitz", "quotient-count", "--ideal", "2,-1,0")
    assert code == 0
    assert "norm_one=336" in out


@pytest.mark.parametrize("argv", [
    ["bounds", "--prime", "7", "--ideal", "2"],
    ["quotient-count", "--ideal", "2,-1,0", "--t", "2"],
    ["quotient-count", "--ideal", "2,-1,0", "--t", "1"],
    ["systole", "--prime", "7", "--index", "0", "--ideal", "2"],
    ["torsion-check", "--index", "0", "--ideal", "7"],
])
def test_cli_refuses_an_ideal_named_twice(capsys, argv):
    # --ideal names the level alone: with --prime, an explicit --index or an
    # explicit --t one of them would be ignored, so the run stops first
    code, out = _run(capsys, "--hurwitz", *argv)
    assert code == 1
    assert out.splitlines()[0] == ("error=input --ideal names the ideal alone; "
                                   "drop --prime, --index and --t")


def test_cli_prime_alone_takes_the_first_ideal_and_t_1(capsys):
    runs = [_run(capsys, "--hurwitz", "quotient-count", "--prime", "13", *extra)
            for extra in ([], ["--index", "0", "--t", "1"])]
    assert [code for code, _out in runs] == [0, 0]
    first, explicit = (out.splitlines()[0] for _code, out in runs)
    assert first == explicit and first.startswith("prime=13 t=1 q=13 ")


def test_cli_torsion_check(capsys):
    code, out = _run(capsys, "--hurwitz", "torsion-check", "--prime", "2")
    assert code == 0
    assert "verdict=torsion-free" in out
    assert "minus_one_in_gamma=true" in out


@pytest.mark.parametrize("spec,ideal,verdict", [
    (Q2MAX_SPEC, "0,1", "possibly-torsion(n=4)"),   # P2 = (sqrt 2)
    (Q2MAX_SPEC, "2", "torsion-free"),              # (2) = P2^2
    (Q2MAX_SPEC, "0,2", "torsion-free"),            # P2^3
    (B6_SPEC, "2", "torsion-free"),
    (B6_SPEC, "3", "torsion-free"),
    # Q(sqrt 10) has class number 2, and both primes above 3 are non-principal:
    # t - 2 = -3, -2 and -1 for the traces -1, 0 and 1, none of them in P3^2
    (Q10MAX_SPEC, "3;1,1", "torsion-free"),
    (Q10MAX_SPEC, "3;2,1", "torsion-free"),
])
def test_cli_torsion_check_in_the_strong_form_over_field_files(tmp_path, capsys, spec, ideal,
                                                                 verdict):
    # the square-divisibility test applies over every field
    path = tmp_path / "field.txt"
    path.write_text(spec)
    code, out = _run(capsys, "--field", str(path), "torsion-check", "--ideal", ideal)
    assert code == 0
    assert "strong_form=true" in out.splitlines()
    assert f"verdict={verdict}" in out.splitlines()


@pytest.fixture
def q10max_file(tmp_path):
    path = tmp_path / "q10max.txt"
    path.write_text(Q10MAX_SPEC)
    return str(path)


def test_cli_q10max_ramification_and_count_at_3(capsys, q10max_file):
    code, out = _run(capsys, "--field", q10max_file, "ramification")
    assert code == 0
    assert {"real_ramified=1", "finite_ramified_norm=2",
            "parity_consistent=true"} <= set(out.splitlines())
    code, out = _run(capsys, "--field", q10max_file, "quotient-count", "--prime", "3")
    assert code == 0
    assert _records(out) == ["prime=3 t=1 q=3 units=48 norm_one=24 formula=24 match=true "
                             "type=M2(F_q) radical=1"]


@pytest.mark.parametrize("index, ideal, trace, length, visited", [
    (0, "1 1; 0 3", "(3, 1)", "3.582014", 66),
    (1, "1 2; 0 3", "(5, 2)", "4.838166", 99),
])
def test_cli_q10max_certifies_the_systoles_at_both_non_principal_primes_above_3(
        capsys, q10max_file, index, ideal, trace, length, visited):
    code, out = _run(capsys, "--field", q10max_file, "systole", "--prime", "3",
                     "--index", str(index), "--radius", "2:1:14")
    assert code == 0
    lines = out.splitlines()
    for line in (f"ideal={ideal}", f"min_trace={trace}", f"min_length=[{length},{length}]",
                 "mode=certified", f"visited={visited}"):
        assert line in lines


def test_cli_bounds(capsys):
    code, out = _run(capsys, "--hurwitz", "bounds", "--prime", "7")
    assert code == 0
    assert "genus=3" in out and "psl_index=168" in out
    assert "four_thirds_log_genus=1.465" in out


def test_cli_bounds_refuses_the_whole_ring_before_any_record(capsys):
    code, out = _run(capsys, "--hurwitz", "bounds", "--ideal", "1")
    assert code == 1
    assert _records(out) == ["error=input the improper ideal defines the full group; "
                             "certificate undefined"]
    assert out.splitlines()[-1].startswith("elapsed=")


def test_cli_exit_codes(capsys):
    code, out = _run(capsys, "--hurwitz", "quotient-count")   # no ideal selected
    assert code == 1 and "error=input" in out
    code, out = _run(capsys, "field-info")                    # no field given
    assert code == 1
    code, out = _run(capsys, "--hurwitz", "--bogus-flag", "field-info")
    assert code == 1 and "error=input" in out
    # malformed numbers: non-finite radii, a negative index, norm bound or
    # cap; --precision and --diameter are no flags at all (a diameter the
    # program does not derive certifies nothing)
    for argv in (["systole", "--prime", "7", "--radius", "inf:1:inf"],
                 ["systole", "--prime", "7", "--radius", "4.5:1:nan"],
                 ["systole", "--prime", "13", "--index", "-1"],
                 ["field-info", "--precision", "-5"],
                 ["systole", "--prime", "7", "--precision", "0"],
                 ["systole", "--prime", "7", "--diameter", "1"],
                 ["ramification", "--norm-bound", "-5"],
                 ["systole", "--ideal", "1/0"],
                 ["quotient-count", "--prime", "7", "--cap", "-1"]):
        code, out = _run(capsys, "--hurwitz", *argv)
        assert code == 1 and "error=input" in out, argv
    code, out = _run(capsys, "--hurwitz", "quotient-count", "--prime", "7",
                     "--t", "3", "--cap", "1000")
    assert code == 2 and "error=cap" in out


def test_cli_refuses_a_negative_a_at_the_split_place(capsys, tmp_path):
    path = tmp_path / "minus1_3.txt"
    path.write_text(MINUS1_3_SPEC)
    code, out = _run(capsys, "--field", str(path), "systole", "--prime", "5")
    assert code == 1
    assert _records(out) == ["error=input need a > 0 at place 0; present the algebra as (b, a)"]


@pytest.mark.parametrize("quat", ["1 | 1", "4 | -1"])
def test_cli_refuses_a_split_algebra_over_q(capsys, tmp_path, quat):
    # presentations of M_2(Q): split at the one real place and at every prime,
    # so Gamma(I) is not cocompact and is refused before any walk
    path = tmp_path / "m2q.txt"
    path.write_text(f"minpoly: 1 0\nquat: {quat}\norder: standard\n")
    code, out = _run(capsys, "--field", str(path), "systole", "--prime", "5",
                     "--radius", "7:1:9")
    assert code == 1
    assert _records(out) == ["error=input need the algebra split at place 0 and "
                             "ramified elsewhere"]


def test_cli_bounds_refuses_a_trace_floor_beyond_the_double_range(capsys):
    # norm 10^156: the sharp floor is about 10^312 / 2^10
    code, out = _run(capsys, "--hurwitz", "bounds", "--ideal", "1e52")
    assert code == 1
    assert _records(out) == [f"ideal_norm={10 ** 156}",
                             "error=input the trace floor exceeds the largest double"]
    # norm 10^6000 has too many digits to print
    for command in ("bounds", "torsion-check", "systole"):
        code, out = _run(capsys, "--hurwitz", command, "--ideal", "1e2000")
        assert code == 1
        assert _records(out) == ["error=input the ideal's norm has more than "
                                 f"{sys.get_int_max_str_digits()} digits"]


def test_cli_cap_bounds_the_trace_coset_walk(capsys):
    # the ranged walk reaches the minimum at (7) in a few hundred nodes; the cap
    # counts every node of the walks together
    started = time.monotonic()
    code, out = _run(capsys, "--hurwitz", "systole", "--ideal", "7", "--cap", "100")
    assert code == 2
    assert _records(out) == ["error=cap trace-coset walk exceeded 100 nodes"]
    assert time.monotonic() - started < 5.0
    order = hurwitz_context().order
    field = order.algebra.field
    coset = trace_coset_minimum(order, IdealHNF.principal(field, field.from_rational(7)))
    assert [str(t) for t in coset.traces] == ["(-3183, -8918, -3969)"]
    assert f"{float(coset.abs_trace.mid):.6f} {float(coset.length.mid):.6f}" == \
        "20475.192932 19.853939"


def test_cli_refuses_a_schedule_that_ends_below_the_coset_floor(capsys):
    # at (7) L* = 19.85 lies past the default schedule 5:1:12: the search is
    # refused before any walk, naming L* and the first radius of the schedule's
    # progression that reaches it
    started = time.monotonic()
    code, out = _run(capsys, "--hurwitz", "systole", "--ideal", "7")
    assert code == 2
    assert _records(out) == ["error=cap radius schedule exhausted below L*=19.853939: "
                             "its first radius not below L* is 20.0"]
    code, out = _run(capsys, "--hurwitz", "systole", "--prime", "7", "--radius", "1:0.5:3.5")
    assert _records(out) == ["error=cap radius schedule exhausted below L*=3.935946: "
                             "its first radius not below L* is 4.0"]
    # one radius whose step is far below the float spacing at L*: the search
    # for the first radius stops at the schedule's end
    code, out = _run(capsys, "--hurwitz", "systole", "--prime", "7", "--radius", "0:1e-30:0")
    assert code == 2 and _records(out)[0].startswith("error=cap radius schedule exhausted below")
    assert time.monotonic() - started < 5.0


def test_cli_quotient_count_gives_up_factoring_a_large_norm_fast(tmp_path, capsys):
    # the norm of 10^300 + sqrt 2 has 600 digits: each Pollard-Brent step
    # multiplies numbers of that size, so its budget shrinks with them
    path = tmp_path / "q2max.txt"
    path.write_text(Q2MAX_SPEC)
    started = time.monotonic()
    code, out = _run(capsys, "--field", str(path), "quotient-count", "--ideal", "1e300,1",
                     "--cap", "1000")
    assert code == 2
    (line,) = _records(out)
    assert re.fullmatch(r"error=cap no factor of \d+ found in \d+ Pollard-Brent steps", line)
    assert time.monotonic() - started < 1.0


# (flags, min_length) of the Hurwitz tower levels that certify at a few
# hundred to a thousand nodes (ROADMAP item 2)
TOWER_LEVELS = [
    (["--ideal", "3"], "10.451262"),
    (["--prime", "29", "--index", "2"], "8.680029"),
    (["--prime", "41", "--index", "1"], "9.839866"),
    (["--ideal", "4"], "11.592598"),
]


@pytest.mark.parametrize("flags,length", TOWER_LEVELS)
def test_cli_certifies_the_cheap_tower_levels(capsys, flags, length):
    code, out = _run(capsys, "--hurwitz", "systole", *flags, "--radius", "4.5:1:20")
    assert code == 0
    lines = out.splitlines()
    assert "mode=certified" in lines and "certificate=trace-coset" in lines
    assert f"min_length=[{length},{length}]" in lines
    visited = int(next(ln for ln in lines if ln.startswith("visited="))[len("visited="):])
    assert visited < 2_000


@pytest.mark.parametrize("t", [10_000, 1_000_000])
def test_cli_quotient_count_refuses_a_large_t_before_forming_the_ideal(capsys, t):
    # 7^(4t) has too many digits to print, and p^t takes seconds to form
    started = time.monotonic()
    code, out = _run(capsys, "--hurwitz", "quotient-count", "--prime", "7", "--t", str(t))
    assert code == 2
    assert _records(out) == [f"error=cap quotient has q^(4t) = 7^{4 * t} residues, "
                             "above the cap 10000000"]
    assert time.monotonic() - started < 1.0


def test_cli_has_no_precision_flag():
    # every enclosure starts at one fixed precision (`intervals.START_BITS`)
    assert "--precision" not in build_parser().format_help()


def test_cli_rejects_a_radius_beyond_the_double_range(capsys):
    for argv in (["--radius", "1e5:1:1e5"], ["--radius", "2000:1:2000", "--cap", "1000"],
                 ["--radius", "1e308:1:1e308"]):
        started = time.monotonic()
        code, out = _run(capsys, "--hurwitz", "systole", "--prime", "7", *argv)
        assert code == 1 and "error=input" in out and "too large" in out, argv
        assert time.monotonic() - started < 1.0, argv


def test_cli_rejects_a_radius_step_that_cannot_advance(capsys):
    started = time.monotonic()
    code, out = _run(capsys, "--hurwitz", "systole", "--prime", "7",
                     "--radius", "1:1e-20:2")
    assert code == 1 and "error=input" in out and "cannot advance" in out
    # one radius, below L*: the schedule ends without a search
    code, out = _run(capsys, "--hurwitz", "systole", "--prime", "7",
                     "--radius", "1:1e-20:1")
    assert code == 2 and "error=cap" in out and "exhausted" in out
    assert time.monotonic() - started < 1.0


@pytest.mark.parametrize("schedule", ["1:1e-15:2", "1:1e-6:9"])
def test_cli_rejects_a_schedule_of_too_many_radii(capsys, schedule):
    # each step advances, but the radii below L* alone would take hours to pass
    started = time.monotonic()
    code, out = _run(capsys, "--hurwitz", "systole", "--prime", "7", "--radius", schedule)
    assert code == 1 and "error=input" in out and "radii" in out
    assert time.monotonic() - started < 1.0


def test_cli_stops_factoring_an_ideal_norm_with_two_large_prime_factors(capsys):
    # the norm is (p q)^3 with p and q prime, of 20 digits each
    pq = 10000000000000000051 * 30000000000000000041
    for command in ("bounds", "quotient-count"):
        started = time.monotonic()
        code, out = _run(capsys, "--hurwitz", command, "--ideal", f"{pq},0,0")
        assert code == 2 and "error=cap" in out and "Pollard-Brent" in out, command
        assert time.monotonic() - started < 1.0, command


def test_cli_cap_bounds_the_systole_walk(capsys):
    code, out = _run(capsys, "--hurwitz", "systole", "--prime", "7", "--cap", "100")
    assert code == 2 and "error=cap" in out


def test_cli_determinism_modulo_elapsed(capsys):
    _, out1 = _run(capsys, "--hurwitz", "ideal-factor", "--prime", "13")
    _, out2 = _run(capsys, "--hurwitz", "ideal-factor", "--prime", "13")
    strip = lambda s: re.sub(r"elapsed=.*", "", s)
    assert strip(out1) == strip(out2)


def test_cli_out_file(tmp_path, capsys):
    target = tmp_path / "report.txt"
    target.write_text("stale\n" * 100)   # replaced, not appended to
    code = main(["--hurwitz", "--out", str(target), "ideal-factor", "--prime", "7"])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert target.read_text().startswith("prime=7 norm=7")
    assert "stale" not in target.read_text()


def test_cli_out_path_that_cannot_be_written(tmp_path, capsys):
    for target in (tmp_path / "missing" / "report.txt", tmp_path):
        code, out = _run(capsys, "--hurwitz", "--out", str(target), "field-info")
        assert code == 1, target
        assert len(_records(out)) == 1, target
        assert _records(out)[0].startswith(f"error=input cannot write --out {target}:"), target


def test_cli_field_file_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "field.txt"
    path.write_bytes(b"minpoly: 1 0\xff\n")
    code, out = _run(capsys, "--field", str(path), "field-info")
    assert code == 1
    assert _records(out)[0].startswith(f"error=input cannot read {path}:")


def test_cli_systole_small(capsys):
    code, out = _run(capsys, "--hurwitz", "systole", "--prime", "7",
                     "--radius", "4.5:1:9")
    assert code == 0
    assert "mode=certified" in out and "certificate=trace-coset" in out
    assert "min_length=[3.93" in out


SYSTOLE_ARGV = [["--hurwitz", "systole", "--prime", "7", "--radius", "4.5:1:14"],
                ["--hurwitz", "systole", "--prime", "13", "--index", "0",
                 "--radius", "4.5:1:14"]]


def _records(text):
    return [ln for ln in text.splitlines() if not ln.startswith("elapsed=")]


def _fresh_records(argv):
    """The records of `quatsys argv` in a fresh interpreter."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return _records(subprocess.run([sys.executable, "-m", "quatsys.cli", *argv], env=env,
                                   capture_output=True, text=True, timeout=300,
                                   check=True).stdout)


def test_cli_builds_the_hurwitz_order_once_and_matches_a_fresh_interpreter(capsys,
                                                                            monkeypatch):
    from quatsys import orders

    fresh = [_fresh_records(argv) for argv in SYSTOLE_ARGV]
    builds = []
    build = orders.hurwitz_order

    def counting(*args):
        builds.append(args)
        return build(*args)

    monkeypatch.setattr(orders, "hurwitz_order", counting)
    orders.hurwitz_preset.cache_clear()
    for _ in range(2):
        for argv, expected in zip(SYSTOLE_ARGV, fresh):
            code, out = _run(capsys, *argv)
            assert code == 0 and _records(out) == expected
    assert len(builds) == 1
    assert "certificate=trace-coset" in fresh[0]


def test_cli_builds_its_parser_once(capsys, monkeypatch):
    built = []
    init = cli._Parser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting)
    build_parser.cache_clear()
    for _ in range(2):
        assert _run(capsys, "--hurwitz", "ramification")[0] == 0
    assert built.count("quatsys") == 1


def test_cli_parser_reuse_keeps_the_defaults(capsys):
    # each plain call runs after one that set its flags, and prints what it
    # prints in a fresh interpreter
    for rich, plain in (
            (["--hurwitz", "--asymptotic", "--cap", "9000000", "quotient-count", "--prime",
              "7", "--t", "2"], ["--hurwitz", "quotient-count", "--prime", "7"]),
            (["--hurwitz", "ramification", "--norm-bound", "3"], ["--hurwitz", "ramification"])):
        fresh = _fresh_records(plain)
        assert _run(capsys, *rich)[0] == 0
        code, out = _run(capsys, *plain)
        assert code == 0 and _records(out) == fresh
    assert "norm_bound=50" in fresh


def test_cli_systole_leaves_sympy_unimported():
    """sympy is a test oracle only: set-up and a whole systole run never load it."""
    from quatsys import orders

    src = str(Path(orders.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    script = ("import sys, quatsys, quatsys.cli\n"
              "quatsys.hurwitz_context()\n"
              f"assert quatsys.cli.main({SYSTOLE_ARGV[0]!r}) == 0\n"
              "print('sympy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=300, check=True).stdout
    assert out.splitlines()[-1] == "False"


def test_cli_systole_records_do_not_depend_on_jobs(capsys):
    _, serial = _run(capsys, *SYSTOLE_ARGV[1], "--jobs", "1")
    _, parallel = _run(capsys, *SYSTOLE_ARGV[1], "--jobs", "2")
    assert _records(serial) == _records(parallel)


# ---------------------------------------------------------------------------
# Fuzzing the definition-file parser: a value or InputError, never a traceback
# ---------------------------------------------------------------------------

TOKEN = st.one_of(st.integers(-4, 4).map(str),
                  st.sampled_from(["1/2", "-1/3", "x", "", "|", ";", "(", ")", ",",
                                   "1/0", "0/0", "1e3", "nan", "inf"]))
TOKENS = st.lists(TOKEN, max_size=12)
ORDER_ROW = st.lists(st.integers(-2, 2), min_size=4, max_size=4).map(
    lambda r: " ".join(map(str, r)))
SPEC_LINE = st.one_of(
    st.tuples(st.sampled_from(["name", "minpoly", "quat", "order", "bogus"]),
              TOKENS.map(" ".join)).map(lambda kv: f"{kv[0]}: {kv[1]}"),
    st.sampled_from(["minpoly: 1 1 -2 -1", "minpoly: 1 -1 -4", "minpoly: 1 0",
                     "minpoly: 1 0 -8", "quat: 0 1 0 | 0 1 0", "quat: -1 | -3",
                     "order: standard", "order: hurwitz"]),
    st.tuples(st.integers(-1, 3), st.lists(ORDER_ROW, min_size=3, max_size=5)).map(
        lambda t: f"order: {t[0]} | " + "; ".join(t[1])),
    st.text(max_size=20))


SPEC_HEADER = st.sampled_from(["", "minpoly: 1 0\nquat: -1 | -3",
                               "minpoly: 1 0\nquat: 1 | 2", QUAT_SPEC])


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.tuples(SPEC_HEADER, st.lists(SPEC_LINE, max_size=4)).map(
    lambda hl: "\n".join([hl[0], *hl[1]])))
def test_parse_spec_text_fuzz(text):
    try:
        spec = parse_spec_text(text)
    except InputError:
        return
    assert "field" in spec


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.text(max_size=20), TOKENS.map(",".join),
                 TOKENS.map(lambda t: "(" + ",".join(t) + ")")))
def test_parse_element_fuzz(text):
    K = hurwitz_field()
    try:
        x = parse_element(K, text)
    except InputError:
        return
    assert x.field == K


# ---------------------------------------------------------------------------
# Fuzzing whole argv lists: an exit code of 0-3 in bounded time, never a
# traceback
# ---------------------------------------------------------------------------

FUZZ_FIELDS = {"b6": B6_SPEC, "q2max": Q2MAX_SPEC, "minus1_3": MINUS1_3_SPEC}
# valid values first: hypothesis draws the first of a list most often, so most
# examples run deep, and the malformed and huge ones vary them
FUZZ_NUMBER = st.sampled_from(["7", "13", "5", "2", "0", "-1", "x", "1/0", "2.5", "9" * 40])
FUZZ_IDEAL = st.sampled_from(["7", "13", "8", "2,-1,0;3", "1e52", "1e2000", "0,0,0", "("])
FUZZ_FLAG = st.one_of(
    st.tuples(st.just("--radius"),
              st.sampled_from(["4.5:1:9", "5:1:12", "1:1e-15:2", "3:1:2", "inf:1:inf",
                               "1e308:1:1e308", "4.5:1:nan", "x"])),
    st.tuples(st.sampled_from(["--index", "--t", "--norm-bound", "--jobs",
                               "--diameter", "--bogus"]), FUZZ_NUMBER),
    st.tuples(st.just("--out"), st.sampled_from(["out.txt", "no-dir/out.txt", "."])),
    st.just(("--asymptotic",)))
FUZZ_ARGV = st.tuples(
    st.sampled_from([["--hurwitz"], ["--field", "minus1_3"], ["--field", "b6"],
                     ["--field", "q2max"], [], ["--hurwitz", "--field", "b6"]]),
    st.sampled_from(list(COMMANDS)),
    st.one_of(st.tuples(st.just("--ideal"), FUZZ_IDEAL),
              st.tuples(st.just("--prime"), FUZZ_NUMBER), st.just(())),
    st.lists(FUZZ_FLAG, max_size=3),
    st.sampled_from(["3000", "1000", "50", "1", "0", "x"]))

# seconds an argv may take; the slowest passing example takes under one
FUZZ_SECONDS = 10


class _Expired(Exception):
    pass


def _expire(signum, frame):
    raise _Expired(f"no exit within {FUZZ_SECONDS} s")


@settings(max_examples=1000, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(FUZZ_ARGV)
def test_cli_argv_fuzz(tmp_path, parts):
    field, command, ideal, flags, cap = parts
    argv = []
    for arg in field:
        if arg in FUZZ_FIELDS:
            path = tmp_path / f"{arg}.txt"
            path.write_text(FUZZ_FIELDS[arg])
            arg = str(path)
        argv.append(arg)
    argv += [command, *ideal]
    for flag, *value in flags:
        argv += [flag, *(str(tmp_path / v) if flag == "--out" else v for v in value)]
    argv += ["--cap", cap]
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, FUZZ_SECONDS)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert code in (0, 1, 2, 3), argv
