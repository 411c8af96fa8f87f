import itertools
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quatsys import geodesics
from conftest import (coefficient_ideal_test, congruence_basis, field_sqrt, in_congruence,
                      is_central, static_box_walk)
from quatsys.bounds import hurwitz_context, trace_coset_minimum, trace_lower_bound
from quatsys.errors import CapExceeded, InputError, InvariantViolation
from quatsys.geodesics import Enumerator, RadiusSchedule, enumerate_gamma, systole_search
from quatsys.intervals import START_BITS, RatInterval, iv_sqrt
from quatsys.numfield import (FieldElement, IdealHNF, NumberField, compare_abs,
                              factor_rational_prime)
from quatsys.orders import OrderLattice, scaled_row, unflatten
from quatsys.quatalg import QuatElement
from quatsys.walkranges import WalkRanges, _up, slice_range


@pytest.fixture(scope="module")
def run7(QH, P7):
    cands, visited = enumerate_gamma(QH, P7, 5.5)
    return cands, visited


def test_minimum_matches_published_value(run7):
    cands, _ = run7
    hyper = [c for c in cands if not c.is_elliptic]
    assert hyper
    best = hyper[0]
    assert abs(float(best.length.mid) - 3.936) < 1e-3
    assert best.trace.coords == (Fraction(2), Fraction(3), Fraction(1))


def test_all_emitted_are_exact_members(run7, QH, P7, D):
    cands, _ = run7
    one = D.one()
    for c in cands:
        x = c.element
        assert x.reduced_norm() == D.field.one()
        assert in_congruence(QH, P7, x - one)
        assert not is_central(x)


def test_trace_floor_soundness(run7, P7):
    ctx = hurwitz_context()
    floor = trace_lower_bound(ctx, P7, sharp=False)
    for c in run7[0]:
        box = c.trace.embed(0, 80).abs()
        assert box.certainly_gt(floor)


def test_conjugate_coefficient_bound(run7):
    # |sigma(x0)| < 1 at both non-distinguished places, strictly
    for c in run7[0]:
        x0 = c.element.coords[0]
        for s in (1, 2):
            assert x0.embed(s, 80).abs().hi < 1


def test_first_coefficient_identity(run7, D):
    # 2*y0 = -N(x - 1) with y0 = x0 - 1, exactly
    K = D.field
    one = D.one()
    for c in run7[0]:
        x = c.element
        y0 = x.coords[0] - K.one()
        assert y0 * 2 == -((x - one).reduced_norm())


def test_whereisy_membership(run7, QH, P7, K):
    # y0 = x0 - 1 in ((2) + kappa*P7)^-1 * P7^2
    in_target = coefficient_ideal_test(QH, P7)
    for c in run7[0]:
        assert in_target(c.element.coords[0] - K.one())


def test_trace_symmetry_and_dedup(run7):
    # classes are keyed by |trace|: the stored representative has the
    # lexicographically larger sign, and x, -x, x^-1 collapse together
    seen = set()
    for c in run7[0]:
        key = max(c.trace.coords, tuple(-t for t in c.trace.coords))
        assert key == c.trace.coords
        assert key not in seen
        seen.add(key)


def test_monotone_in_radius(QH, P7):
    small, _ = enumerate_gamma(QH, P7, 4.6)
    large, _ = enumerate_gamma(QH, P7, 5.5)
    small_keys = {c.trace.coords for c in small}
    large_keys = {c.trace.coords for c in large}
    assert small_keys <= large_keys


def test_empty_at_tiny_radius(QH, P7):
    cands, _ = enumerate_gamma(QH, P7, 1.0)
    assert cands == []


def box_bounds(order, ideal, radius):
    """Per-coefficient lattice points inside the certified embedding boxes.

    Scaled integer coordinates, congruence not applied: the boxes that the
    joint enumeration refines.  Monotone in the radius.
    """
    enum = Enumerator(order, ideal)
    boxes, _m_sq, _m = enum._boxes(radius)
    coord_bound = enum._coord_bounds(boxes)
    d = enum.d
    out = []
    for l in range(4):
        caps = [math.floor(coord_bound[l * d + m]) for m in range(d)]
        ranges = [range(-c, c + 1) for c in caps]
        pts = []
        for tup in itertools.product(*ranges):
            elem = order.algebra.field.element([Fraction(c, order.kappa) for c in tup])
            if _inside_box(enum, elem, boxes[l]):
                pts.append(tup)
        out.append(sorted(pts))
    return out


def _inside_box(enum, elem, bound):
    for s in range(enum.d):
        box = elem.embed(s, START_BITS).abs()
        limit = Fraction(bound[s])
        if box.certainly_le(limit):
            continue
        if box.certainly_gt(limit):
            return False
        # undecided: exact tie is only possible for rational embeddings
        if elem.is_rational():
            if abs(elem.coords[0]) <= limit:
                continue
            return False
        box = elem.embed(s, START_BITS * 8).abs()
        if not box.certainly_le(limit):
            return False
    return True


def test_box_bounds_contents(QH, P7):
    boxes = box_bounds(QH, P7, 4.0)
    x0 = set(boxes[0])
    # 0, +-1/2, +-1 (scaled coordinates with kappa = 2)
    for pt in [(0, 0, 0), (1, 0, 0), (-1, 0, 0), (2, 0, 0), (-2, 0, 0)]:
        assert pt in x0
    smaller = box_bounds(QH, P7, 3.0)
    for l in range(4):
        assert set(smaller[l]) <= set(boxes[l])


def test_systole_search_stabilizes(QH, P7, monkeypatch):
    # the fallback rule, with the trace-coset certificate unavailable
    monkeypatch.setattr(geodesics, "_coset_realised", lambda *args: None)
    result = systole_search(QH, P7, RadiusSchedule(4.5, 1.0, 9.0))
    assert result.mode == "stabilized" and result.certificate is None
    assert abs(float(result.min_length.mid) - 3.936) < 1e-3


def test_schedule_exhaustion_raises(QH, P7):
    with pytest.raises(CapExceeded):
        systole_search(QH, P7, RadiusSchedule(1.0, 0.5, 2.0))


def test_orbifold_elliptic_alarms(QH, K):
    cands, _ = enumerate_gamma(QH, K.whole_ring(), 2.0)
    elliptic = [c for c in cands if c.is_elliptic]
    assert elliptic, "the full norm-one group contains torsion"
    for c in elliptic:
        assert c.trace.embed(0, 80).abs().hi < 2
    traces = sorted(c.abs_trace for c in elliptic)
    # the (2,3,7) torsion traces: 0, 1 and |2cos(k pi/7)|
    for val in traces:
        assert min(abs(val - r) for r in
                   (0.0, 1.0, 0.4450418679, 1.2469796037, 1.8019377358)) < 1e-9


def test_node_cap(QH, P7):
    with pytest.raises(CapExceeded):
        enumerate_gamma(QH, P7, 6.0, cap_nodes=100)


def test_radius_beyond_the_double_range_is_input_error(QH, P7):
    """2 cosh L > e^L: no radius above log of the largest double has float
    bounds, and the largest float radius below it still walks (to the cap)."""
    below = math.log(sys.float_info.max)
    with pytest.raises(CapExceeded):
        enumerate_gamma(QH, P7, below, cap_nodes=100)
    for radius in (math.nextafter(below, math.inf), 2000.0, 1e308):
        with pytest.raises(InputError, match="too large"):
            enumerate_gamma(QH, P7, radius, cap_nodes=100)



def test_radius_check_uses_the_enclosure_of_2_cosh_l(QH, P7, monkeypatch):
    """A limit between e^2 and 2 cosh 2 passes the test on e^L, and the
    enclosure of 2 cosh L then rejects the radius."""
    monkeypatch.setattr(geodesics, "DOUBLE_MAX", Fraction(745, 100))
    assert math.exp(2.0) < 7.45 < 2 * math.cosh(2.0)
    with pytest.raises(InputError, match="squared bounds"):
        enumerate_gamma(QH, P7, 2.0)


# -- per-node coordinate ranges ------------------------------------------------

@pytest.fixture(scope="module")
def walk(QH, K):
    """The Hurwitz embedding table with the whole ring's run constants at radius 3."""
    enum = Enumerator(QH, K.whole_ring())
    boxes, m_sq, m_val = enum._boxes(3.0)
    bounds = enum._coord_bounds(boxes)
    return enum, bounds, enum._ranges.tables(boxes, _up(m_sq), m_val, bounds)


def _block_values(enum, c):
    """Float block values exactly as the walk forms them."""
    vals = []
    for row in enum.emb_f:
        acc = 0.0
        for m in range(enum.d):
            acc += c[m] * row[m]
        vals.append(acc / enum.kappa)
    return vals


def _emb_q(enum):
    """The walk's float table of theta_s^m as exact rationals."""
    return [[Fraction(f) for f in row] for row in enum.emb_f]


def _last_coordinate_interval(enum, prefix_and_c, widths):
    """Exact real interval of the last coordinate, or None when it is empty."""
    lo, hi = None, None
    for row, w in zip(_emb_q(enum), widths):
        a = sum(c * row[m] for m, c in enumerate(prefix_and_c))
        e = row[enum.d - 1]
        x, y = sorted(((-Fraction(w) - a) / e, (Fraction(w) - a) / e))
        lo = x if lo is None else max(lo, x)
        hi = y if hi is None else min(hi, y)
    return (lo, hi) if lo <= hi else None


def _exact_pair_interval(enum, prefix, widths):
    """Exact projection of the last two coordinates' region onto the first of them."""
    d, q = enum.d, _emb_q(enum)
    alpha = [sum(c * row[m] for m, c in enumerate(prefix)) / row[d - 1] for row in q]
    slope = [row[d - 2] / row[d - 1] for row in q]
    half = [Fraction(w) / abs(row[d - 1]) for w, row in zip(widths, q)]
    lo, hi = None, None
    for s, t in itertools.combinations(range(d), 2):
        g = slope[s] - slope[t]
        reach, gap = half[s] + half[t], alpha[s] - alpha[t]
        x, y = sorted(((-reach - gap) / g, (reach - gap) / g))
        lo = x if lo is None else max(lo, x)
        hi = y if hi is None else min(hi, y)
    return (lo, hi) if lo <= hi else None


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_range_rules_contain_every_filter_passer(walk, data):
    enum, bounds, tabs = walk
    d, kappa = enum.d, enum.kappa
    l = data.draw(st.integers(0, 2), label="block")
    k = data.draw(st.integers(0, d - 1), label="coordinate")
    cmax = [math.floor(bounds[l * d + m]) + 1 for m in range(d)]
    point = [data.draw(st.integers(-c, c)) for c in cmax]
    bound = [data.draw(st.floats(0, 1)) * cap for cap in tabs.box_up[l]]
    if data.draw(st.booleans(), label="on a face"):
        vals = [abs(v) for v in _block_values(enum, point)]
        bound = [max(b, v) for b, v in zip(bound, vals)]
        face = data.draw(st.integers(0, d - 1))
        bound[face] = vals[face]
        assume(all(b <= cap for b, cap in zip(bound, tabs.box_up[l])))
    widths = [_up(kappa * (Fraction(b) + Fraction(e))) for b, e in zip(bound, tabs.eps[l])]
    prefix = point[:k]
    nu = tabs.nu[l][k]
    lo, hi = enum._ranges.rule_range(k, prefix, widths, nu)

    for tail in itertools.product(*(range(-c, c + 1) for c in cmax[k:])):
        c = prefix + list(tail)
        if all(abs(v) <= b for v, b in zip(_block_values(enum, c), bound)):
            assert lo <= c[k] <= hi, (c, lo, hi)

    # each finite endpoint lies within the widening of a feasible real point
    if k == d - 1:
        exact = _last_coordinate_interval(enum, prefix, widths)
    elif k == d - 2:
        exact = _exact_pair_interval(enum, prefix, widths)
        if exact is not None:
            for end in exact:
                assert _last_coordinate_interval(enum, prefix + [end], widths) is not None
    else:
        inv = enum.field.embedding_inverse()[k]
        reach_lo = sum(min(abs(e.lo), abs(e.hi)) * Fraction(w) for e, w in zip(inv, widths))
        reach_hi = sum(max(abs(e.lo), abs(e.hi)) * Fraction(w) for e, w in zip(inv, widths))
        assert -Fraction(lo) >= reach_hi and Fraction(hi) >= reach_hi
        assert Fraction(hi) - reach_lo <= 2 * Fraction(nu)
        exact = None
    if exact is not None:
        assert 0 <= exact[0] - Fraction(lo) <= 2 * Fraction(nu)
        assert 0 <= Fraction(hi) - exact[1] <= 2 * Fraction(nu)


def test_slice_range_handles_negative_leading_powers():
    # |A + c e| <= W is unchanged by negating A and e; the Hurwitz table's
    # leading powers theta_s^2 are all positive, so this branch needs its own case
    prefix, lead, widths = [0.3, -1.2, 0.5], [0.8, 1.9, 0.45], [2.0, 3.0, 1.5]
    ranges = [slice_range(prefix, lead, widths, 0.0),
              slice_range([-a for a in prefix], [-e for e in lead], widths, 0.0),
              slice_range(prefix[:1] + [-a for a in prefix[1:]],
                          lead[:1] + [-e for e in lead[1:]], widths, 0.0)]
    assert ranges[0][0] < ranges[0][1]
    assert all(r == pytest.approx(ranges[0], abs=1e-12) for r in ranges)


# Candidates of the static-box walk: record() and str(element) of each.  The
# per-node ranges and the orbit rule must find the same ones, with exactly this
# many visited nodes and leaf counters (LEAF_COUNTERS order: leaves,
# float_rejected, float_candidates, fallbacks); without the orbit
# rule the walk visited 11,485, 14,554, 54,265 and 5,323 nodes, and the
# static-box walk 128,407, 199,872 and 42,991 for P7, P13 and the whole ring.
# Each class is represented by its element of least Frobenius norm, the first
# one met in walk order on a tie (trace (2, 0, -1) is such a tie).
REGRESSION = {
    "P7": ("P7", 6.5, 4_194, (88, 68, 20, 0), [
        ("trace=(2, 3, 1) abs_trace=7.295897 length=[3.935946,3.935946]",
         "(-1, -3/2, -1/2) + (-3/2, -1, 0)*i + (-1/2, 1, 1/2)*j + (0, 0, 0)*ij"),
        ("trace=(3, 6, 2) abs_trace=13.591794 length=[5.208017,5.208017]",
         "(3/2, 3, 1) + (0, -3/2, -1)*i + (-1/2, 5/2, 3/2)*j + (0, 0, 0)*ij"),
    ]),
    "P13": ("P13", 7.5, 5_508, (54, 47, 7, 0), [
        ("trace=(3, 8, 4) abs_trace=19.195669 length=[5.903919,5.903919]",
         "(-3/2, -4, -2) + (0, -7/2, -2)*i + (-3/2, -3/2, -1/2)*j + (0, 0, 0)*ij"),
    ]),
    "P13 at 8.5": ("P13", 8.5, 18_164, (228, 212, 16, 0), [
        ("trace=(3, 8, 4) abs_trace=19.195669 length=[5.903919,5.903919]",
         "(-3/2, -4, -2) + (0, -7/2, -2)*i + (-3/2, -3/2, -1/2)*j + (0, 0, 0)*ij"),
        ("trace=(12, 29, 12) abs_trace=66.821906 length=[8.403614,8.403614]",
         "(-6, -29/2, -6) + (0, 0, 0)*i + (-11/2, -13, -11/2)*j + (-3/2, -3/2, -1/2)*ij"),
    ]),
    "whole ring": ("whole ring", 3.0, 1_063, (113, 16, 97, 0), [
        ("trace=(0, 0, 0) abs_trace=0.000000 elliptic=true",
         "(0, 0, 0) + (0, 0, 0)*i + (0, 0, 0)*j + (-2, 1, 1)*ij"),
        ("trace=(2, 0, -1) abs_trace=0.445042 elliptic=true",
         "(-1, 0, 1/2) + (-1/2, 0, 0)*i + (0, 0, 0)*j + (-1/2, 1/2, 1/2)*ij"),
        ("trace=(1, 0, 0) abs_trace=1.000000 elliptic=true",
         "(-1/2, 0, 0) + (0, 0, 0)*i + (-1, 0, 1/2)*j + (-3/2, 0, 1/2)*ij"),
        ("trace=(0, 1, 0) abs_trace=1.246980 elliptic=true",
         "(0, -1/2, 0) + (-1, 1/2, 1/2)*i + (0, 0, 0)*j + (3/2, 0, -1/2)*ij"),
        ("trace=(1, -1, -1) abs_trace=1.801938 elliptic=true",
         "(-1/2, 1/2, 1/2) + (-1, 0, 1/2)*i + (0, 0, 0)*j + (-1, 1/2, 1/2)*ij"),
        ("trace=(1, 1, 0) abs_trace=2.246980 length=[0.983987,0.983987]",
         "(-1/2, -1/2, 0) + (-1, 1/2, 1/2)*i + (-1, 0, 1/2)*j + (0, 0, 0)*ij"),
        ("trace=(0, 1, 1) abs_trace=2.801938 length=[1.736006,1.736006]",
         "(0, -1/2, -1/2) + (-1/2, 0, 0)*i + (-3/2, 0, 1/2)*j + (0, 0, 0)*ij"),
        ("trace=(1, -2, -1) abs_trace=3.048917 length=[1.967973,1.967973]",
         "(-1/2, 1, 1/2) + (-1/2, 1/2, 1/2)*i + (-1/2, 0, 0)*j + (0, 0, 0)*ij"),
        ("trace=(2, 1, 0) abs_trace=3.246980 length=[2.131105,2.131105]",
         "(-1, -1/2, 0) + (-1, 0, 1/2)*i + (-1/2, -1/2, 0)*j + (0, 0, 0)*ij"),
        ("trace=(0, 2, 1) abs_trace=4.048917 length=[2.661931,2.661931]",
         "(0, -1, -1/2) + (-1/2, 1, 1/2)*i + (-1, 1/2, 1/2)*j + (0, 0, 0)*ij"),
        ("trace=(2, 2, 0) abs_trace=4.493959 length=[2.898149,2.898149]",
         "(-1, -1, 0) + (-1, 1, 1)*i + (0, 0, 0)*j + (0, 0, 0)*ij"),
        ("trace=(1, -2, -2) abs_trace=4.603875 length=[2.951960,2.951960]",
         "(-1/2, 1, 1) + (-1, -1/2, 0)*i + (-1/2, 1/2, 1/2)*j + (0, 0, 0)*ij"),
    ]),
}


_ENUMERATE_ONE = """
import json, sys
from quatsys.geodesics import LEAF_COUNTERS, Enumerator
from quatsys.numfield import IdealHNF, factor_rational_prime
from quatsys.orders import hurwitz_order
order = hurwitz_order()
K = order.algebra.field
ideal = {"P7": IdealHNF.principal(K, K.from_rational(2) - K.gen()),
         "P13": factor_rational_prime(K, 13)[0][0], "whole ring": K.whole_ring()}[sys.argv[1]]
enum = Enumerator(order, ideal)
found, visited = enum.run(float(sys.argv[2]))
cands = sorted(found.values(), key=lambda c: (c.abs_trace, c.trace.coords))
print(json.dumps([visited, [enum.counters[k] for k in LEAF_COUNTERS],
                  [[c.record(), str(c.element)] for c in cands]]))
"""


@pytest.mark.parametrize("name", sorted(REGRESSION))
def test_per_node_ranges_keep_every_candidate(name):
    # one enumeration in a fresh interpreter, apart from the rest of the suite
    ideal, radius, expected_visited, expected_counters, expected = REGRESSION[name]
    env = dict(os.environ)
    src = str(Path(geodesics.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", _ENUMERATE_ONE, ideal, str(radius)],
                         env=env, capture_output=True, text=True, check=True).stdout
    visited, counters, cands = json.loads(out)
    assert [tuple(c) for c in cands] == expected
    assert (visited, tuple(counters)) == (expected_visited, expected_counters)


# -- the orbit rule: one member of each orbit of the sign group --------------
# conj(x), -x when -1 is in Gamma(I), and sigma: x1 -> -x1 when it maps I*Q
# onto itself, with tau = sigma conj: x -> i x i^-1

# the five table1 levels at their certifying radii, the orbifold list, P7 at
# 6.5, and levels of the orders over Q and Q(sqrt 2), Q(sqrt 10) (B6 at 2,
# Q2max at P2: -1 in Gamma(I))
ORBIT_LEVELS = [("P7", 4.5), ("P8", 6.5), ("P13 0", 6.5), ("P13 1", 7.5), ("P13 2", 6.5),
                ("whole ring", 3.0), ("P7", 6.5), ("B6 5", 8.0), ("B6 2", 7.0),
                ("Q2max 2", 5.0), ("Q10max 3", 7.0)]


@pytest.fixture(scope="module")
def orbit_ideals(K, P7, P2, P13s):
    return {"P7": P7, "P8": P2, "P13 0": P13s[0], "P13 1": P13s[1], "P13 2": P13s[2],
            "whole ring": K.whole_ring()}


@pytest.fixture(scope="module")
def orbit_levels(QH, B6, Q2max, Q10max, orbit_ideals):
    levels = {name: (QH, ideal) for name, ideal in orbit_ideals.items()}
    for name, order, p in (("B6", B6, 5), ("B6", B6, 2), ("Q2max", Q2max, 2),
                           ("Q10max", Q10max, 3)):
        levels[f"{name} {p}"] = (order, factor_rational_prime(order.algebra.field, p)[0][0])
    return levels


def assert_orbit_rule_keeps_the_classes(order, ideal, radius, monkeypatch):
    """The classes of the walk are the full walk's: the oracle switches the
    orbit rule off past the last walked coordinate.  Returns both node counts."""
    found, visited = Enumerator(order, ideal).run(radius)
    oracle = Enumerator(order, ideal)
    monkeypatch.setattr(oracle, "_orbit_from", 3 * oracle.d)
    full, full_visited = oracle.run(radius)
    assert found.keys() == full.keys()
    for key, cand in full.items():
        assert str(found[key].element) == str(cand.element)
        assert found[key].record() == cand.record()
    assert (sum(c.is_elliptic for c in found.values())
            == sum(c.is_elliptic for c in full.values()))
    return visited, full_visited


@pytest.mark.parametrize("level, radius", ORBIT_LEVELS)
def test_orbit_rule_keeps_every_class_representative(orbit_levels, level, radius,
                                                      monkeypatch):
    order, ideal = orbit_levels[level]
    enum = Enumerator(order, ideal)
    # every order here is sigma-stable: blocks 1 and 2 run their own zeros
    assert enum._run_starts == (0, enum.d, 2 * enum.d)
    visited, full_visited = assert_orbit_rule_keeps_the_classes(order, ideal, radius,
                                                                monkeypatch)
    share = 0.25 if order.minus_one_in_gamma(ideal) else 0.50
    assert visited <= share * full_visited, (visited, full_visited)


def test_orbit_rule_without_sigma_keeps_the_conj_rule(B6, monkeypatch):
    # in (3, -1) over Q, the order of 1, -1 + 2i - 2j and -2 + i + j + ij has
    # the HNF row i + j + ij, whose sigma image -i + j + ij it does not hold:
    # blocks 1 and 2 share one run of zeros, as under conj alone
    algebra = B6.algebra
    one, i, j, ij = algebra.one(), algebra.gen_i(), algebra.gen_j(), algebra.gen_ij()
    order = OrderLattice(algebra, [one, -one + i * 2 - j * 2, -one * 2 + i + j + ij])
    assert order.contains(i + j + ij) and not order.contains(-i + j + ij)
    ideal = algebra.field.whole_ring()
    assert Enumerator(order, ideal)._run_starts == (0, 1, 1)
    visited, full_visited = assert_orbit_rule_keeps_the_classes(order, ideal, 6.0,
                                                                monkeypatch)
    assert (visited, full_visited) == (590, 2_161)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_orbit_maps_keep_the_coset_the_norm_and_the_class(QH, orbit_ideals, data):
    # x -> conj(x), sigma(x), tau(x) = i x i^-1, and x -> -x when -1 is in
    # Gamma(I), map the coset 1 + IQ to itself with the same split-place
    # Frobenius norm and the same |trace| class
    ideal = orbit_ideals[data.draw(st.sampled_from(sorted(orbit_ideals)), label="ideal")]
    enum = Enumerator(QH, ideal)
    algebra = QH.algebra
    x = algebra.one()
    for b in congruence_basis(QH, ideal):
        x = x + b * data.draw(st.integers(-6, 6))
    x0, x1, x2, x3 = x.coords
    sigma, tau = algebra.element(x0, -x1, x2, x3), algebra.element(x0, x1, -x2, -x3)
    i = algebra.gen_i()
    assert tau * algebra.a == i * x * i and sigma == tau.conj()
    mates = [x.conj(), sigma, tau] + ([-x, -x.conj()] if QH.minus_one_in_gamma(ideal) else [])
    for y in mates:
        assert in_congruence(QH, ideal, y - 1)
        cx, cy = scaled_row(x, enum.kappa), scaled_row(y, enum.kappa)
        assert enum._frob_parts(cy) == enum._frob_parts(cx)
        assert _class_key(enum, cy) == _class_key(enum, cx)


def _class_key(enum, c):
    """The class key of `Enumerator._emit`: block 0 of c up to sign."""
    block0 = tuple(c[:enum.d])
    return max(block0, tuple(-n for n in block0))


# -- leaf recovery and search bookkeeping ---------------------------------------

def test_field_sqrt_fixes_the_sign_at_place_0(K, monkeypatch):
    # the oracle of `leaf_roots` lists x positive at place 0, then -x, after
    # one recovery per sign pattern of the other places
    import conftest

    x = K.element([Fraction(-3, 2), 1, Fraction(1, 2)])
    if x.sign_at(0) < 0:
        x = -x
    calls = []
    recover = conftest.element_from_embeddings

    def counting(*args):
        calls.append(args)
        return recover(*args)

    monkeypatch.setattr(conftest, "element_from_embeddings", counting)
    roots = field_sqrt(x * x, 2)
    assert [r.coords for r in roots] == [x.coords, (-x).coords]
    assert len(calls) == 2 ** (K.degree - 1)


@pytest.mark.parametrize("sign", [1, -1])
def test_emit_keeps_the_refinement_schedule_of_its_trace(monkeypatch, QH, P7, sign):
    # x = t/2 with |sigma_0 t| - 2 = +-2^-93 or so (w = eta^2 - 2 is a unit,
    # small at place 0): one enclosure of the trace per precision decides the
    # side of 2 and gives the length
    K = QH.algebra.field
    enum = Enumerator(QH, P7)
    t = 2 * sign + (K.gen() ** 2 - 2) ** 80
    asked = []
    embed = FieldElement.embed

    def spy(self, place, bits=53):
        asked.append((self.coords, bits))
        return embed(self, place, bits)

    c = scaled_row(QH.algebra.element(t / 2, 0, 0, 0), enum.kappa)
    monkeypatch.setattr(FieldElement, "embed", spy)
    cand = enum._candidate(c, _class_key(enum, c))
    assert [bits for coords, bits in asked if coords in (t.coords, (-t).coords)] == [60, 120]
    assert cand.is_elliptic == (sign < 0)


def test_frob_less_refines_only_what_the_given_enclosures_leave_open(QH, P7, D, monkeypatch):
    enum = Enumerator(QH, P7)
    one, i = D.one(), D.gen_i()
    x, y = (scaled_row(q, enum.kappa) for q in (one, i))
    # float bounds that separate decide alone, with no exact test
    with monkeypatch.context() as floats_only:
        floats_only.setattr(Enumerator, "_frob_sign", lambda *args: pytest.fail("exact"))
        assert enum._frob_less((x, (1.0, 2.0)), (y, (3.0, 4.0)))
        assert not enum._frob_less((y, (3.0, 4.0)), (x, (1.0, 2.0)))
    # overlapping bounds go to the exact test, which follows the norms
    less = (_frob_sq(enum, one, 200) - _frob_sq(enum, i, 200)).sign() < 0
    assert enum._frob_less((x, (1.0, 9.0)), (y, (1.0, 9.0))) == less
    assert enum._frob_less((y, (1.0, 9.0)), (x, (1.0, 9.0))) == (not less)
    # overlapping bounds of one element: a tie, decided exactly
    assert not enum._frob_less((x, (1.0, 4.0)), (x, (2.0, 3.0)))


def test_search_enumerates_once_per_radius_and_keeps_precision(QH, P7, monkeypatch):
    # one enumerator per search; each radius walks the pinned prefixes of t*
    # first, and the full ball only where they realise nothing
    runs, built = [], []
    run_once, init_once = Enumerator.run, Enumerator.__init__

    def counting_run(self, radius, cap_nodes=geodesics.CAP_NODES, prefixes=None):
        runs.append((radius, "pinned" if prefixes is not None else "full"))
        return run_once(self, radius, cap_nodes, prefixes)

    def counting_init(self, *args):
        built.append(self)
        init_once(self, *args)

    monkeypatch.setattr(Enumerator, "run", counting_run)
    monkeypatch.setattr(Enumerator, "__init__", counting_init)
    result = systole_search(QH, P7, RadiusSchedule(4.5, 1.0, 6.5))
    assert result.mode == "certified"
    assert runs == [(4.5, "pinned")] and len(built) == 1
    # the stabilized fallback walks the schedule: a full ball at every radius
    runs.clear()
    built.clear()
    monkeypatch.setattr(geodesics, "_coset_realised", lambda *args: None)
    result = systole_search(QH, P7, RadiusSchedule(4.5, 1.0, 6.5))
    assert result.mode == "stabilized"
    assert runs == [(r, walk) for r in (4.5, 5.5, 6.5) for walk in ("pinned", "full")]
    assert len(built) == 1


# -- float recovery of x3 at the leaves -----------------------------------------

@pytest.fixture(scope="module")
def ring3(QH, K):
    return enumerate_gamma(QH, K.whole_ring(), 3.0)


@pytest.fixture(scope="module")
def leaf_walk(QH, K, ring3):
    """Whole-ring run constants at radius 7, and norm-one elements inside its box."""
    enum = Enumerator(QH, K.whole_ring())
    boxes, m_sq, m_val = enum._boxes(7.0)
    bounds = enum._coord_bounds(boxes)
    tabs = enum._ranges.tables(boxes, _up(m_sq), m_val, bounds)
    group = [c.element for c in ring3[0]]
    group += [x.conj() for x in group]
    group += [x * y for x in group[:12] for y in group]
    inside = [x for x in group
              if all(abs(c * enum.kappa) <= bounds[l * enum.d + m]
                     for l in range(3) for m, c in enumerate(x.coords[l].coords))]
    return enum, tabs, inside, bounds


def _leaf_floats(enum, x0, x1, x2):
    """The walk's float block values of x0, x1, x2 (kappa-scaled integer coordinates)."""
    return [_block_values(enum, [int(c * enum.kappa) for c in x.coords]) for x in (x0, x1, x2)]


def _x3_square(enum, x0, x1, x2):
    """x3^2 from the norm-one equation, (1 - Nrd(x0 + x1 i + x2 j)) / (ab)."""
    algebra = enum.algebra
    nrd = algebra.element(x0, x1, x2, enum.field.zero()).reduced_norm()
    return (1 - nrd) / (algebra.a * algebra.b)


def _random_leaf(enum, group, bounds, data):
    """x0, x1, x2 of a drawn group element inside the walk's box, x2 sometimes
    moved by a few lattice steps, so that x3^2 need not be a square."""
    x = data.draw(st.sampled_from(group), label="element")
    x0, x1, x2 = x.coords[:3]
    if data.draw(st.booleans(), label="perturb"):
        shift = enum.field.element([Fraction(data.draw(st.integers(-2, 2)), enum.kappa)
                                    for _ in range(enum.d)])
        x2 = x2 + shift
    assume(all(abs(c * enum.kappa) <= bounds[2 * enum.d + m] for m, c in enumerate(x2.coords)))
    return x0, x1, x2


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_leaf_roots_agree_with_field_sqrt(leaf_walk, K, data):
    # exact squares from products of group elements, and nearby non-squares,
    # against the certified recovery of the tests' oracle
    enum, tabs, group, bounds = leaf_walk
    x0, x1, x2 = _random_leaf(enum, group, bounds, data)
    ranges = enum._ranges
    got = ranges.leaf_roots(ranges.leaf_squares(_leaf_floats(enum, x0, x1, x2), tabs), tabs)
    v = _x3_square(enum, x0, x1, x2)
    exact = [[c * enum.kappa for c in r.coords] for r in field_sqrt(v, enum.kappa)]
    if got is None:
        # deferred: only where v is nonzero and within the bound of 0 at some place
        assert not v.is_zero()
        assert any(abs(float(v.embed(s, 80).mid)) < 1e-9 for s in range(enum.d))
        return
    roots = [c for c in got
             if K.element([Fraction(t, enum.kappa) for t in c]) ** 2 == v]
    assert roots == exact


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_fallback_box_holds_every_root(leaf_walk, data):
    # leaf_roots forced to defer: the box walk of the leaf lists every exact
    # root of the oracle among its points
    enum, tabs, group, bounds = leaf_walk
    x0, x1, x2 = _random_leaf(enum, group, bounds, data)
    kappa, d = enum.kappa, enum.d
    exact = [tuple(int(c * kappa) for c in r.coords)
             for r in field_sqrt(_x3_square(enum, x0, x1, x2), kappa)]
    walked = []
    box_walk = NumberField.box_walk

    def spy(self, limits, *args):
        points = list(box_walk(self, limits, *args))
        walked.extend(y.num for y in points)
        return iter(points)

    vec = [int(c * kappa) for x in (x0, x1, x2) for c in x.coords] + [0] * d
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(WalkRanges, "leaf_roots", lambda self, squares, tabs: None)
        patch.setattr(NumberField, "box_walk", spy)
        patch.setattr(Enumerator, "_emit", lambda *args: None)
        enum._leaf(vec, _leaf_floats(enum, x0, x1, x2), tabs, {}, None)
    assert enum.counters["fallbacks"] >= 1
    assert set(exact) <= set(walked), (exact, walked)


_NORM_UNITS = {"QH": [0, 1, 0], "B6": [1], "Q2max": [1, 1]}  # eta, 1, 1 + sqrt 2


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_norm_rule_answers_zero_only_at_zero(form_enums, data):
    # x3 = y / kappa for y in Z[theta]: squares V_s within Delta_s of
    # sigma_s(x3)^2, at least one Delta_s reaching V_s so that the norm
    # decides.  A nonzero y (units, with a tiny place, among them) is never
    # answered [0] * d, and y = 0 always is
    name = data.draw(st.sampled_from(sorted(form_enums)), label="order")
    enum = form_enums[name]
    field, d, kappa = enum.field, enum.d, enum.kappa
    boxes, m_sq, m_val = enum._boxes(12.0)
    tabs = enum._ranges.tables(boxes, _up(m_sq), m_val, enum._coord_bounds(boxes))
    kind = data.draw(st.sampled_from(["random", "unit", "zero"]), label="kind")
    if kind == "zero":
        y = field.zero()
    elif kind == "unit":
        y = FieldElement(field, _NORM_UNITS[name]) ** data.draw(st.integers(0, 8), label="k")
        y = y * data.draw(st.sampled_from([1, -1]), label="sign")
    else:
        y = FieldElement(field, data.draw(st.lists(st.integers(-30, 30), min_size=d,
                                                   max_size=d), label="y"))
    squares = []
    for s in range(d):
        v = (y.embed(s, 120) / kappa) ** 2
        mid = float(v.mid)
        # err covers the enclosure, the float mid and the roundings of V below
        err = float(abs(Fraction(mid) - v.mid) + v.width) * 2 + mid * 2.0 ** -48 + 2.0 ** -1070
        loose = data.draw(st.booleans(), label="loose") or s == d - 1
        dv = err + (mid * data.draw(st.floats(1.0, 4.0), label="reach") if loose else 0.0)
        # V below the truth, toward the smaller norm the rule could misread
        shift = data.draw(st.floats(0.0, 1.0), label="shift") * (dv - err)
        squares.append((mid - shift, dv))
    got = enum._ranges.leaf_roots(squares, tabs)
    if y.is_zero():
        assert got == [[0] * d]
    else:
        assert got != [[0] * d]


def test_leaf_bound_covers_inputs_at_the_edge_of_their_error(leaf_walk):
    # every float block value moved by 0.95 of its error bound eps, in the
    # direction that pushes one root coordinate furthest: the root must survive
    enum, tabs, group, _bounds = leaf_walk
    ranges, d, kappa = enum._ranges, enum.d, enum.kappa
    checked = 0
    for x in group[::7]:
        if x.coords[3].is_zero():
            continue
        exact = [[x.coords[l].embed(s, 120) for s in range(d)] for l in range(4)]
        sign0 = 1 if exact[3][0].mid > 0 else -1
        target = [sign0 * int(c * kappa) for c in x.coords[3].coords]
        for m, push in itertools.product(range(d), (1, -1)):
            floats = [[0.0] * d for _ in range(3)]
            for s in range(d):
                a, b = ranges.a_f[s], ranges.b_f[s]
                want = push * math.copysign(1, ranges.einv[m][0][s] * exact[3][s].mid)
                slopes = [-float(exact[0][s].mid), a * float(exact[1][s].mid),
                          b * float(exact[2][s].mid)]
                for l in range(3):
                    e = tabs.eps[l][s]
                    step = Fraction(0.95 * e) * int(want * math.copysign(1, slopes[l] / (a * b)))
                    floats[l][s] = float(exact[l][s].mid + step)
                    assert abs(Fraction(floats[l][s]) - exact[l][s].mid) + exact[l][s].width <= e
            got = ranges.leaf_roots(ranges.leaf_squares(floats, tabs), tabs)
            assert got is not None and target in got, (str(x), m, push)
            checked += 1
    assert checked >= 100


def test_leaf_defers_near_zero_and_when_bounds_reach_half(leaf_walk, K):
    enum, tabs, group, _bounds = leaf_walk
    ranges, d, kappa = enum._ranges, enum.d, enum.kappa
    # x3 = 0: v is 0 at every place, and the norm proves x3 = 0 from the floats
    flat = next(x for x in group if x.coords[3].is_zero())
    squares = ranges.leaf_squares(_leaf_floats(enum, *flat.coords[:3]), tabs)
    assert not all(v - dv > 0 for v, dv in squares)
    assert ranges.leaf_roots(squares, tabs) == [[0] * d]
    # V_0 within its bound of 0: a nonzero kappa x3 has N^2 >= 1, which the
    # product kappa^(2d) prod_s (V_s + Delta_s) rules out only below 1
    ok = [(1.0, 0.0)] * (d - 1)
    scale = kappa ** (2 * d)
    assert ranges.leaf_roots([(0.0, 0.99 / scale)] + ok, tabs) == [[0] * d]
    assert ranges.leaf_roots([(0.0, 1.01 / scale)] + ok, tabs) is None
    # just below 0 at one place rejects
    assert ranges.leaf_roots(ok[:1] + [(-2e-12, 1e-12)] + ok[1:], tabs) == []
    # a root with a half-integer coordinate: rejected under tight bounds,
    # deferred once the bounds reach 1/2 and both neighbours are in reach
    half = K.element([Fraction(3, 4), Fraction(-1, 2), Fraction(1, 2)])
    vals = [float(half.embed(s, 80).mid) ** 2 for s in range(d)]
    assert ranges.leaf_roots([(v, v * 1e-14) for v in vals], tabs) == []
    assert ranges.leaf_roots([(v, v * 0.99) for v in vals], tabs) is None


def test_leaf_counters_partition_the_leaves(QH, P7):
    # the floats and the norm decide every leaf of this run
    enum = Enumerator(QH, P7)
    enum.run(5.5)
    counts = enum.counters
    assert counts["leaves"] == (counts["float_rejected"] + counts["float_candidates"]
                                + counts["fallbacks"])
    assert counts["float_rejected"] > 0 and counts["float_candidates"] > 0
    assert counts["fallbacks"] == 0


# -- leaves settled on the walk's integers -------------------------------------

@pytest.fixture(scope="module")
def form_enums(QH, B6, Q2max):
    return {name: Enumerator(order, order.algebra.field.whole_ring())
            for name, order in (("QH", QH), ("B6", B6), ("Q2max", Q2max))}


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_integer_forms_match_the_field_arithmetic(form_enums, data):
    # D kappa^2 Nrd(x), and (alpha, beta) of ||x||_F^2, from the integer tables
    # against QuatElement arithmetic on random walk vectors, x3 included
    enum = form_enums[data.draw(st.sampled_from(sorted(form_enums)), label="order")]
    d, kappa, algebra = enum.d, enum.kappa, enum.algebra
    c = data.draw(st.lists(st.integers(-40, 40), min_size=4 * d, max_size=4 * d), label="c")
    x = unflatten(algebra, c, kappa)
    scale = enum._norm_form.den * kappa ** 2
    assert enum._norm_one == [scale] + [0] * (d - 1)
    assert x.reduced_norm() * scale == FieldElement(algebra.field, enum._norm_form.value(c))
    # a, b and theta are integral in all three fields, so D = 1 for every form
    assert enum._norm_form.den == enum._alpha_form.den == enum._beta_form.den == 1
    x0, x1, x2, x3 = x.coords
    a, b = algebra.a, algebra.b
    alpha = (x0 * x0 + a * (x1 * x1)) * 2 + (1 + b * b) * (x2 * x2 + a * (x3 * x3))
    beta = (1 - b * b) * 2 * (x2 * x3)
    assert (alpha, beta) == enum._frob_parts(c)


def _frob_sq(enum, x: QuatElement, bits: int) -> RatInterval:
    """Oracle: an enclosure of ||x||_F^2 at the split place, from the four
    matrix entries u, ub, v, w of x, with sqrt(a) and b at no fewer bits than
    the walk's enclosures of them."""
    x0, x1, x2, x3 = (q.embed(0, bits) for q in x.coords)
    split_bits = max(bits, enum._ab_bits)
    ra = iv_sqrt(enum.algebra.a.embed(0, split_bits), split_bits)
    b0 = enum.algebra.b.embed(0, split_bits)
    u, ub = x0 + x1 * ra, x0 - x1 * ra
    v, w = x2 + x3 * ra, b0 * (x2 - x3 * ra)
    return u * u + ub * ub + v * v + w * w


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_frob_sign_follows_the_enclosures_of_the_norms(form_enums, data):
    # the sign of A + B sqrt(a) at the split place for A, B the differences of
    # the (alpha, beta) of two walk vectors, against the norms at 200 bits; the
    # same vector, its conjugate and its negative give A = B = 0
    enum = form_enums[data.draw(st.sampled_from(sorted(form_enums)), label="order")]
    d, kappa, algebra = enum.d, enum.kappa, enum.algebra
    draw = st.lists(st.integers(-40, 40), min_size=4 * d, max_size=4 * d)
    c = data.draw(draw, label="c")
    mate = data.draw(st.sampled_from(["random", "same", "conj", "negative"]), label="mate")
    c2 = {"random": lambda: data.draw(draw, label="c2"), "same": lambda: list(c),
          "conj": lambda: c[:d] + [-n for n in c[d:]], "negative": lambda: [-n for n in c]}[mate]()
    (ax, bx), (ay, by) = enum._frob_parts(c), enum._frob_parts(c2)
    sign = enum._frob_sign(ax - ay, bx - by)
    gap = (_frob_sq(enum, unflatten(algebra, c, kappa), 200)
           - _frob_sq(enum, unflatten(algebra, c2, kappa), 200)).sign()
    if gap is None:
        assert sign == 0 and (ax, bx) == (ay, by)
    else:
        assert sign == gap
    if mate != "random":
        assert sign == 0


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_frob_sign_matches_the_split_place_enclosure(form_enums, data):
    # random A, B in K, B = A, and A = B = 0, against the sign of the 200-bit
    # enclosure of sigma_0 A + sigma_0 B sqrt(sigma_0 a); the walk's norms
    # above have B = 0 in Q2max and B6 (b = -1), so the mixed signs are drawn here
    enum = form_enums[data.draw(st.sampled_from(sorted(form_enums)), label="order")]
    field, d = enum.field, enum.d
    coef = st.lists(st.integers(-60, 60), min_size=d, max_size=d)
    kind = data.draw(st.sampled_from(["random", "equal", "zero"]), label="kind")
    A = FieldElement(field, [0] * d if kind == "zero" else data.draw(coef, label="A"))
    B = A if kind != "random" else FieldElement(field, data.draw(coef, label="B"))
    ra = iv_sqrt(enum.algebra.a.embed(0, 200), 200)
    assert enum._frob_sign(A, B) == (A.embed(0, 200) + B.embed(0, 200) * ra).sign()


def test_emit_decides_a_norm_equal_to_the_cut(form_enums):
    # x = sqrt 2 in Q(sqrt 2) has ||x||_F^2 = 2 x0^2 = 4 exactly: no enclosure
    # separates it from m_sq = 4, and the exact sign test keeps it inside
    enum = form_enums["Q2max"]
    c = scaled_row(enum.algebra.element(enum.field.gen(), 0, 0, 0), enum.kappa)
    reps = {}
    enum._emit(c, reps, (Fraction(4), 4.0, 4.0), (3.9, 4.1))
    assert list(reps.values()) == [(c, (3.9, 4.1))]
    below = {}
    enum._emit(c, below, (4 - Fraction(1, 2 ** 300), 4.0, 4.0), (3.9, 4.1))
    assert below == {}
    # an enclosure whose top equals the cut's bottom is a float tie: the exact
    # test decides it, inside as ||x||_F^2 <= 4 = m_sq
    tie = {}
    enum._emit(c, tie, (Fraction(4), 4.0, 4.0), (3.5, 4.0))
    assert list(tie.values()) == [(c, (3.5, 4.0))]


@pytest.mark.parametrize("name", ["whole ring", "P7"])
def test_exact_leaf_decisions_agree_with_the_floats(QH, K, P7, name, monkeypatch):
    # every float decision of the leaf and of _emit left open: x3 listed by
    # the box walk at every leaf, the radius cut and the representative rule
    # decided by the exact sign test; the candidates and representatives stay
    _ideal, radius, _visited, counters, expected = REGRESSION[name]
    monkeypatch.setattr(WalkRanges, "leaf_roots", lambda self, squares, tabs: None)
    monkeypatch.setattr(geodesics, "_float_less", lambda *args: None)
    enum = Enumerator(QH, K.whole_ring() if name == "whole ring" else P7)
    found, _ = enum.run(radius)
    cands = sorted(found.values(), key=lambda c: (c.abs_trace, c.trace.coords))
    assert [(c.record(), str(c.element)) for c in cands] == expected
    assert enum.counters["fallbacks"] == enum.counters["leaves"] == counters[0]


def test_orbifold_leaves_stay_on_the_integers(QH, K, levels, monkeypatch):
    # no exact norm and no box walk at any leaf: the floats and the norm decide
    # every leaf of the orbifold run and of the systole workload's pinned
    # searches at P7 and P13
    calls = dict.fromkeys(["reduced_norm", "box_walk"], 0)
    in_leaf = []

    def spy(cls, name):
        method = getattr(cls, name)

        def counted(*args, **kwargs):
            calls[name] += bool(in_leaf)
            return method(*args, **kwargs)

        monkeypatch.setattr(cls, name, counted)

    leaf, enums, init = Enumerator._leaf, [], Enumerator.__init__

    def flagged(self, *args):
        in_leaf.append(True)
        try:
            leaf(self, *args)
        finally:
            in_leaf.pop()

    def kept(self, *args):
        init(self, *args)
        enums.append(self)

    spy(QuatElement, "reduced_norm")
    spy(NumberField, "box_walk")
    monkeypatch.setattr(Enumerator, "_leaf", flagged)
    monkeypatch.setattr(Enumerator, "__init__", kept)
    Enumerator(QH, K.whole_ring()).run(3.0)
    for name in ("P7", "P13#0"):
        assert systole_search(QH, levels[name], RadiusSchedule(4.5, 1.0, 14.0)).mode == "certified"
    assert [e.counters["leaves"] for e in enums] == [113, 4, 4]
    assert [e.counters["fallbacks"] for e in enums] == [0, 0, 0]
    assert calls == {"reduced_norm": 0, "box_walk": 0}


def test_class_representatives_do_not_depend_on_history(QH, P7, K, ring3):
    # the least Frobenius norm, first met in walk order on a tie, whatever ran
    # before in the process
    first = [str(c.element) for c in ring3[0]]
    assert first == [e for _r, e in REGRESSION["whole ring"][-1]]
    enumerate_gamma(QH, P7, 6.5)
    cands, _ = enumerate_gamma(QH, K.whole_ring(), 3.0)
    assert [str(c.element) for c in cands] == first


def test_split_norm_encloses_the_frobenius_norm(leaf_walk):
    # float block values moved by 0.95 of eps in the direction that moves
    # ||x||_F^2 furthest; the float bounds of the radius cut must still hold it
    enum, tabs, group, _bounds = leaf_walk
    ranges, d, kappa = enum._ranges, enum.d, enum.kappa
    for x in group[::5]:
        exact = [x.coords[l].embed(0, 120) for l in range(4)]
        true = _frob_sq(enum, x, 200)
        a0, b0 = ranges.a_f[0], ranges.b_f[0]
        slopes = [exact[0].mid, a0 * exact[1].mid,
                  exact[2].mid * (1 + b0 * b0) + exact[3].mid * ranges.ra0_mid * (1 - b0 * b0)]
        target = [int(c * kappa) for c in x.coords[3].coords]
        for push in (1, -1):
            floats = _leaf_floats(enum, *x.coords[:3])
            for l in range(3):
                e = tabs.eps[l][0]
                floats[l][0] = float(exact[l].mid + Fraction(0.95 * e) * push
                                     * (1 if slopes[l] > 0 else -1))
                assert abs(Fraction(floats[l][0]) - exact[l].mid) + exact[l].width <= e
            lo, hi = ranges.split_norm(floats, target, tabs, ranges.split_head(floats, tabs))
            assert Fraction(lo) <= true.lo and true.hi <= Fraction(hi), (str(x), push)


# -- the trace coset 2 + I^2 ------------------------------------------------------

# coset minimum per level: (|sigma_0 t*|, L*), matching the published systoles
COSET_MINIMA = {"P7": (7.29590, 3.936), "P2": (18.19567, 5.796), "P13#0": (19.19567, 5.903),
                "P13#1": (31.34242, 6.887), "P13#2": (24.49157, 6.393)}
# the radius at which `table1`'s schedule 4.5:1:14 certifies each level, and
# the nodes of its pinned walk there
CERTIFYING_RADIUS = {"P7": 4.5, "P2": 6.5, "P13#0": 6.5, "P13#1": 7.5, "P13#2": 6.5}
PINNED_VISITED = {"P7": 79, "P2": 92, "P13#0": 183, "P13#1": 137, "P13#2": 144}
# the nodes of `trace_coset_minimum`'s box walks, all cap doublings together;
# its CapExceeded (`--cap`) depends on them
COSET_NODES = {"P7": 23, "P2": 36, "P13#0": 289, "P13#1": 289, "P13#2": 289, "(7)": 558}


@pytest.fixture(scope="module")
def levels(P7, P2, P13s):
    return dict(zip(COSET_MINIMA, [P7, P2] + P13s))


def test_trace_coset_minimum_at_the_table_levels(QH, levels):
    ctx = hurwitz_context()
    for name, ideal in levels.items():
        coset = trace_coset_minimum(QH, ideal)
        abs_trace, systole = COSET_MINIMA[name]
        assert abs(float(coset.abs_trace.mid) - abs_trace) < 1e-5
        assert abs(float(coset.length.mid) - systole) < 1e-3
        assert coset.length.width < Fraction(1, 2 ** 40)
        # the paper's norm-inequality floor is a weaker form of the same bound
        assert coset.abs_trace.certainly_gt(trace_lower_bound(ctx, ideal, sharp=True))
        square = ideal * ideal
        for t in coset.traces:
            assert square.contains(t - 2)
            assert t.embed(0, 80).abs().certainly_gt(2)
            assert all(t.embed(s, 80).abs().hi < 2 for s in (1, 2))
    # t and -t both lie in 2 + I^2 exactly when 4 lies in I^2, as at <2>
    assert len(trace_coset_minimum(QH, levels["P2"]).traces) == 2
    assert len(trace_coset_minimum(QH, levels["P7"]).traces) == 1


def test_trace_coset_walk_visits_the_pinned_nodes(QH, levels, K):
    ideals = dict(levels, **{"(7)": IdealHNF.principal(K, K.from_rational(7))})
    for name, ideal in ideals.items():
        nodes = COSET_NODES[name]
        trace_coset_minimum(QH, ideal, cap_nodes=nodes)
        with pytest.raises(CapExceeded, match=f"exceeded {nodes - 1} nodes"):
            trace_coset_minimum(QH, ideal, cap_nodes=nodes - 1)


def test_trace_coset_minimum_needs_a_cocompact_presentation(K):
    from quatsys.orders import standard_order
    from quatsys.quatalg import QuaternionAlgebra

    split = QuaternionAlgebra(K, K.one(), K.one())
    with pytest.raises(InputError, match="split at place 0"):
        trace_coset_minimum(standard_order(split), K.whole_ring())


def test_enumerator_narrows_the_structure_constants_until_their_signs_show(QH, P7):
    from quatsys.orders import standard_order
    from quatsys.quatalg import QuaternionAlgebra

    K2 = NumberField([1, 0, -2])
    a = K2.element([1, 1]) ** 61   # sigma_1(a) = (1 - sqrt 2)^61 ~ -4.5e-24
    algebra = QuaternionAlgebra(K2, a, K2.from_rational(-1))
    assert algebra.is_cocompact_presentation()
    assert a.embed(1, START_BITS).sign() is None
    enum = Enumerator(standard_order(algebra), IdealHNF.principal(K2, K2.from_rational(3)))
    assert all(x.lo > 0 for x in enum._ranges.a_abs + enum._ranges.b_abs)
    assert enum._ab_bits > START_BITS
    # the exact sign test needs no precision of its own: for x = 1 + i + ij it
    # puts ||x||_F^2 between the ends of the oracle's enclosure at _ab_bits
    x = QuatElement(algebra, (K2.one(), K2.one(), K2.zero(), K2.one()))
    box = _frob_sq(enum, x, enum._ab_bits)
    alpha, beta = enum._frob_parts(scaled_row(x, enum.kappa))
    assert enum._frob_sign(alpha - box.lo, beta) > 0 > enum._frob_sign(alpha - box.hi, beta)
    _found, visited = enum.run(3.0)
    assert visited == 11_177
    # the Hurwitz signs show at the start precision: its walk is unchanged
    assert Enumerator(QH, P7)._ab_bits == START_BITS


@pytest.mark.parametrize("name,radius", [("P7", 6.5), ("P13#0", 7.5)])
def test_enumerated_traces_lie_in_the_coset(QH, levels, name, radius):
    # the lemma on data: trd gamma in 2 + I^2, |sigma_s(trd gamma)| < 2 for s >= 1
    ideal = levels[name]
    square = ideal * ideal
    cands, _ = enumerate_gamma(QH, ideal, radius)
    hyper = [c for c in cands if not c.is_elliptic]
    assert hyper
    coset = trace_coset_minimum(QH, ideal)
    for c in hyper:
        t = c.element.reduced_trace()
        assert square.contains(t - 2)
        assert all(t.embed(s, 80).abs().hi < 2 for s in (1, 2))
        assert t.embed(0, 80).abs().hi >= coset.abs_trace.lo


def test_certified_search_skips_radii_below_the_coset_floor(QH, levels):
    seen = []
    result = systole_search(QH, levels["P13#0"], RadiusSchedule(4.5, 1.0, 14.0),
                            progress=lambda step: seen.append(step.radius))
    assert seen == [6.5] and result.radius == 6.5
    assert result.mode == "certified" and result.certificate == "trace-coset"
    assert "certificate=trace-coset" in result.records()
    coset = trace_coset_minimum(QH, levels["P13#0"])
    assert coset.is_minimiser(result.candidates[0].element.reduced_trace())
    # both enclose L*
    assert result.min_length.hi >= coset.length.lo
    assert coset.length.hi >= result.min_length.lo


def test_search_starts_at_the_first_radius_not_below_the_floor(QH, levels):
    seen = []
    systole_search(QH, levels["P7"], RadiusSchedule(0.5, 0.5, 9.0),
                   progress=lambda step: seen.append(step.radius))
    assert seen[0] == 4.0  # L* = 3.936
    # 10^15 radii, all below L* = 3.936: none is visited one by one
    started = time.monotonic()
    with pytest.raises(CapExceeded, match="exhausted"):
        systole_search(QH, levels["P7"], RadiusSchedule(1.0, 1e-15, 2.0))
    assert time.monotonic() - started < 1.0


def test_trace_below_the_coset_minimum_is_an_invariant_violation(QH, P7, K, monkeypatch):
    true = trace_coset_minimum(QH, P7)
    fake = true._replace(traces=[K.from_rational(100)])
    monkeypatch.setattr(geodesics, "trace_coset_minimum", lambda *args: fake)
    with pytest.raises(InvariantViolation):
        systole_search(QH, P7, RadiusSchedule(4.5, 1.0, 9.0))


@pytest.mark.parametrize("name", list(CERTIFYING_RADIUS))
def test_pinned_walk_agrees_with_the_full_ball(QH, levels, name):
    ideal, radius = levels[name], CERTIFYING_RADIUS[name]
    coset = trace_coset_minimum(QH, ideal)
    enum = Enumerator(QH, ideal)
    full, full_visited = enumerate_gamma(QH, ideal, radius, enumerator=enum)
    # the oracle: no hyperbolic trace of the full ball lies below t*, and t* is there
    rep = geodesics._coset_realised(coset, full)
    assert rep is not None
    pinned, pinned_visited = enumerate_gamma(
        QH, ideal, radius, enumerator=enum, prefixes=enum.block0_prefixes(coset.traces))
    assert [c.element for c in pinned] == [rep.element]
    assert (pinned[0].length.lo, pinned[0].length.hi) == (rep.length.lo, rep.length.hi)
    assert pinned_visited == PINNED_VISITED[name] < full_visited
    # and the search certifies there from the pinned walk alone
    result = systole_search(QH, ideal, RadiusSchedule(4.5, 1.0, 14.0))
    assert (result.radius, result.mode, result.visited) == (radius, "certified", pinned_visited)


def test_block0_prefixes_skip_traces_off_the_lattice(QH, O_std, P7, K):
    t = K.element([2, 3, 1])
    # kappa = 2: block 0 holds the coordinates of 2 x0 = t
    enum = Enumerator(QH, P7)
    assert enum.block0_prefixes([t, -t, t]) == [(-2, -3, -1), (2, 3, 1)]
    assert enum.block0_prefixes([K.element([Fraction(1, 2), 0, 0])]) == []
    # kappa = 1: those of x0 = t/2, integral only for t in 2 Z[eta]
    assert Enumerator(O_std, P7).block0_prefixes([t, 2 * t]) == [(2, 3, 1)]


def static_box_coset_traces(order, ideal):
    """Oracle: the minimisers of `trace_coset_minimum` from the static coordinate
    box, every point decided by the exact tests."""
    field = order.algebra.field
    d = field.degree
    square = ideal * ideal
    cap = Fraction(4)
    while True:
        best = []
        for t in static_box_walk(field, [cap] + [Fraction(2)] * (d - 1), square.mat, 2):
            if any(compare_abs(t, 2, s) >= 0 for s in range(1, d)) or compare_abs(t, 2, 0) <= 0:
                continue
            cmp = compare_abs(t, best[0]) if best else -1
            if cmp < 0:
                best = [t]
            elif cmp == 0:
                best.append(t)
        if best and best[0].embed(0, START_BITS).abs().certainly_le(cap):
            return best
        cap *= 2


def test_trace_coset_minimum_matches_the_static_box_walk(QH, levels, B6, Q2max):
    cases = [(QH, ideal) for ideal in levels.values()]
    q = B6.algebra.field
    cases.append((B6, IdealHNF.principal(q, q.from_rational(11))))
    f = Q2max.algebra.field
    cases.append((Q2max, factor_rational_prime(f, 7)[0][0]))
    for order, ideal in cases:
        assert trace_coset_minimum(order, ideal).traces == static_box_coset_traces(order, ideal)


def test_pinned_walk_emits_the_full_walks_classes_of_its_traces(QH, K, ring3):
    # the elements of class |t| have x0 = +-t/2, so pinning the prefixes of
    # +-t for a set of classes gives exactly their full-walk representatives;
    # pairs of classes whose prefixes share leading coordinates must not mix
    cands, _ = ring3
    enum = Enumerator(QH, K.whole_ring())
    for chosen in itertools.combinations(cands, 2):
        traces = [t for c in chosen for t in (c.trace, -c.trace)]
        pinned, _ = enumerate_gamma(QH, K.whole_ring(), 3.0, enumerator=enum,
                                    prefixes=enum.block0_prefixes(traces))
        assert [c.element for c in pinned] == [c.element for c in chosen]
