"""`walkranges.walk`, the one lattice walk, against a brute-force oracle.

The oracle lists every integer vector of the static box |c_j| <= bound[j],
keeps those on start + L, and admits a prefix c_0 .. c_j when each c_i lies
in one of the real intervals `node_ranges(i, c)` gives at its node (no
interval for None; an infinite endpoint leaves that side open).  The walk
must yield the admitted vectors in increasing coordinate order and call
`on_node` once per admitted prefix.

The float constants of the ranges (`WalkRanges.tables`,
`PlaceTable.box_ranges`) are checked against their derivation in exact
Fractions, and `_OWN` against the rounding count it claims to cover.
"""

import itertools
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import static_box_walk
from quatsys.geodesics import Enumerator
from quatsys.intervals import START_BITS
from quatsys.numfield import IdealHNF, NumberField, factor_rational_prime
from quatsys.walkranges import _OWN, _up, walk


def _admits(spans, x) -> bool:
    return spans is None or any(lo <= x <= hi for lo, hi in spans)


def oracle(rows, start, bound, node_ranges):
    """(full vectors in walk order, number of nodes) by listing the static box."""
    dim = len(rows)
    out, prefixes = [], set()
    for c in itertools.product(*(range(-b, b + 1) for b in bound[:dim])):
        vec = list(start)
        for j in range(dim):
            h = rows[j][j]
            if (c[j] - vec[j]) % h:
                break
            if not _admits(node_ranges(j, vec), c[j]):
                break
            n = (c[j] - vec[j]) // h
            vec = [v + n * r for v, r in zip(vec, rows[j])]
            prefixes.add(c[:j + 1])
        else:
            out.append(vec)
    return sorted(out, key=lambda v: v[:dim]), len(prefixes)


def run_walk(rows, start, bound, node_ranges):
    nodes = 0

    def on_node():
        nonlocal nodes
        nodes += 1

    return [list(v) for v in walk(rows, start, bound, node_ranges, on_node)], nodes


def test_walk_matches_the_oracle_on_a_fixed_box():
    # pivots 2 and 3, a nonzero start, a carried fourth coordinate
    rows = [[2, 1, -1, 3], [0, 3, 2, 1], [0, 0, 1, -2]]
    start = [1, -1, 2, 5]
    bound = [5, 6, 4]

    def node_ranges(j, c):
        if j == 0:
            return None
        if j == 1:  # disjoint intervals, points among them, as pinned prefixes give
            return [(-math.inf, -3.5), (c[0], c[0]), (2.25, 2.75), (4, math.inf)]
        # no interval: nothing below the node
        return [] if c[0] == c[1] else [(-c[0] - c[1] - 0.5, math.inf)]

    got, nodes = run_walk(rows, start, bound, node_ranges)
    want, want_nodes = oracle(rows, start, bound, node_ranges)
    assert got == want and nodes == want_nodes
    assert len(want) > 10 and want_nodes > len(want)


@st.composite
def spans(draw):
    """None, or up to three disjoint increasing real intervals, points allowed."""
    kind = draw(st.sampled_from(["none", "intervals", "points"]))
    if kind == "none":
        return None
    if kind == "points":
        pts = sorted(draw(st.sets(st.integers(-6, 6), max_size=4)))
        return [(q, q) for q in pts]
    ends = sorted(draw(st.sets(st.integers(-12, 12), max_size=6)))
    ends = [e / 2 for e in ends[:len(ends) // 2 * 2]]
    out = list(zip(ends[::2], ends[1::2]))
    if out and draw(st.booleans()):
        out[0] = (-math.inf, out[0][1])
    if out and draw(st.booleans()):
        out[-1] = (out[-1][0], math.inf)
    return out


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_walk_matches_the_oracle(data):
    dim = data.draw(st.integers(1, 3), label="dim")
    width = dim + data.draw(st.integers(0, 1), label="carried")
    rows = [[0] * width for _ in range(dim)]
    for j in range(dim):
        rows[j][j] = data.draw(st.integers(1, 3))
        for k in range(j + 1, width):
            rows[j][k] = data.draw(st.integers(-3, 3))
    start = data.draw(st.lists(st.integers(-4, 4), min_size=width, max_size=width))
    bound = data.draw(st.lists(st.integers(0, 4), min_size=dim, max_size=dim))
    table = [data.draw(spans(), label=f"ranges {j}") for j in range(dim)]

    def node_ranges(j, c):
        # shifted by the prefix, so the ranges change from node to node
        shift = sum(c[:j]) % 3
        return None if table[j] is None else [(lo + shift, hi + shift) for lo, hi in table[j]]

    assert run_walk(rows, start, bound, node_ranges) == oracle(rows, start, bound, node_ranges)


# -- the walk's float constants against their exact derivation ------------------
#
# `WalkRanges.tables` and `PlaceTable.box_ranges` form their constants in
# floats under the module's rounding model.  The oracle derives the same
# constants in exact Fractions from the exact table errors and slopes, with
# the float structure constants and rounded-up boxes as inputs; each float
# constant must bound its exact value from above, within 1 + 2^-40.

UNIT = Fraction(1, 2 ** 53)
SLACK = 1 + Fraction(1, 2 ** 40)


def _gamma(n):
    return n * UNIT / (1 - n * UNIT)


def _sqrt_hi(x):
    """An upper bound on sqrt(x) within 2^-200."""
    return Fraction(math.isqrt(math.ceil(x * 4 ** 200)) + 1, 2 ** 200)


class ExactTable:
    """The exact data behind a field's `place_table`: its floats as rationals,
    their distance to theta_s^m, and the pair constants |1/g| of the slopes."""

    def __init__(self, field):
        table = field.place_table()
        d = self.d = field.degree
        theta = [field.embedding_interval(s, START_BITS) for s in range(d)]
        self.table = table
        self.emb_q = [[Fraction(f) for f in row] for row in table.emb_f]
        self.emb_err = [[max(abs(q - p.lo), abs(q - p.hi))
                         for q, p in zip(qrow, [theta[s] ** m for m in range(d)])]
                        for s, qrow in enumerate(self.emb_q)]
        slope = [row[d - 2] / row[d - 1] for row in self.emb_q] if d >= 2 else []
        self.pair_inv_g = [abs(1 / (slope[s] - slope[t]))
                           for s, t in itertools.combinations(range(d), 2)]

    def widenings(self, lam):
        d = self.d
        reach = [x / abs(row[d - 1]) for x, row in zip(lam, self.emb_q)]
        nu_slice = _gamma(d + 3) * max(reach)
        nu_pair = _gamma(d + 5) * max(((reach[s] + reach[t]) * inv_g for (s, t, _), inv_g
                                       in zip(self.table.pairs, self.pair_inv_g)), default=0)
        nu_sum = [_gamma(2 * d + 1) * sum(e * x for e, x in zip(self.table.einv_up[k], lam))
                  for k in range(d - 2)]
        return nu_sum + [nu_pair, nu_slice][-d:]

    def box_ranges(self, limits, bound):
        widths = [limit + sum(b * e for b, e in zip(bound, row))
                  for limit, row in zip(limits, self.emb_err)]
        mag = [sum(b * abs(q) for b, q in zip(bound, row)) for row in self.emb_q]
        return widths, self.widenings([2 * (m + w) for m, w in zip(mag, widths)])

    def tables(self, ranges, boxes, m_sq, m_val, coord_bound):
        """The exact constants of `WalkRanges.tables`, as a dict of its fields."""
        d, kappa, emb_q = self.d, ranges.kappa, self.emb_q
        mag = [[sum(coord_bound[l * d + m] * abs(emb_q[s][m]) for m in range(d))
                for s in range(d)] for l in range(3)]
        eps = [[(sum(coord_bound[l * d + m] * self.emb_err[s][m] for m in range(d))
                 + _gamma(d + 2) * mag[l][s]) / kappa for s in range(d)] for l in range(3)]
        ymax = [[(1 + _gamma(d + 2)) * x / kappa for x in row] for row in mag[:2]]
        cap = [[Fraction(_up(x)) for x in row] for row in boxes[:3]]
        mf, m_sq_f = Fraction(_up(m_val)), Fraction(_up(m_sq))
        a_hi = [x.hi for x in ranges.a_abs]
        beta = [[Fraction(0)] * d for _ in range(3)]
        beta[1][0] = 3 * UNIT * (mf + ymax[0][0]) * Fraction(ranges.ra0_f)
        beta[2][0] = (_sqrt_hi(_gamma(6) * (m_sq_f + 2 * ymax[0][0] ** 2
                                            + 2 * a_hi[0] * ymax[1][0] ** 2)
                               * Fraction(ranges.cb_f)) / 2 + 2 * UNIT * cap[2][0])
        for s in range(1, d):
            beta[1][s] = (_sqrt_hi(_gamma(3) * (1 + ymax[0][s] ** 2) * Fraction(ranges.ra_f[s]))
                          + 2 * UNIT * cap[1][s])
            beta[2][s] = (_sqrt_hi(_gamma(6) * (1 + ymax[0][s] ** 2 + a_hi[s] * ymax[1][s] ** 2)
                                   * Fraction(ranges.rb_f[s])) + 2 * UNIT * cap[2][s])
        delta = [[e + b + 3 * UNIT * (c + e + b) for e, b, c in zip(eps[l], beta[l], cap[l])]
                 for l in range(3)]
        width0 = [kappa * (boxes[0][s] + eps[0][s]) for s in range(d)]
        lam = [[2 * (mag[l][s] + (width0[s] if l == 0 else kappa * (cap[l][s] + delta[l][s])))
                for s in range(d)] for l in range(3)]
        return dict(mf=m_val, m_sq_f=m_sq, box_up=[list(row) for row in boxes[:3]], eps=eps,
                    delta=delta, width0=width0, nu=[self.widenings(row) for row in lam],
                    v0_max=boxes[3][0] ** 2)


def assert_bounds(got, exact, where=""):
    """Each float of `got` is at least its exact value and at most 1 + 2^-40 times it."""
    if isinstance(exact, list):
        assert len(got) == len(exact), where
        for k, (g, e) in enumerate(zip(got, exact)):
            assert_bounds(g, e, f"{where}[{k}]")
    else:
        assert exact <= Fraction(got) <= exact * SLACK, (where, got, exact)


def test_own_covers_a_hundred_roundings():
    n_u = 100 * UNIT
    assert Fraction(_OWN) >= 1 + n_u / (1 - n_u)


@pytest.fixture(scope="module")
def table_cases(QH, P7, K, B6, Q2max):
    """(enumerator, radius): QH at P7 and on the whole ring, B6 at 5, Q2max at
    a prime above 7."""
    q, f = B6.algebra.field, Q2max.algebra.field
    p7 = Enumerator(QH, P7)
    return ([(p7, radius) for radius in (4.5, 7.0, 14.0)]
            + [(Enumerator(QH, K.whole_ring()), 3.0),
               (Enumerator(B6, IdealHNF.principal(q, q.from_rational(5))), 5.0),
               (Enumerator(Q2max, factor_rational_prime(f, 7)[0][0]), 6.0)])


def test_tables_bound_their_exact_derivation(table_cases):
    for enum, radius in table_cases:
        boxes, m_sq, m_val = enum._boxes(radius)
        bounds = enum._coord_bounds(boxes)
        tabs = enum._ranges.tables(boxes, _up(m_sq), m_val, bounds)
        exact = ExactTable(enum.field).tables(enum._ranges, boxes, m_sq, m_val, bounds)
        for name, value in exact.items():
            assert_bounds(getattr(tabs, name), value, f"{enum.order.name} {radius} {name}")


@pytest.mark.parametrize("minpoly", [[1, 1, -2, -1], [1, 0], [1, 0, -2], [1, 1, -4, -3, 3, 1]],
                         ids=["Q(eta)", "Q", "Q(sqrt2)", "Q(zeta11)+"])
def test_box_ranges_bound_their_exact_derivation(minpoly):
    # the torsion box [2] * d, and on Q(eta) the trace-coset boxes of caps 4 to 64
    field = NumberField(minpoly)
    d = field.degree
    boxes = [[2] * d]
    if d == 3:
        boxes += [[Fraction(cap), 2, 2] for cap in (4, 8, 16, 32, 64)]
    exact_table = ExactTable(field)
    for limits in boxes:
        bound = field.coordinate_bounds(limits)
        assert_bounds(list(field.place_table().box_ranges(limits, bound)),
                      list(exact_table.box_ranges(limits, bound)), str(limits))


def test_a_box_whose_float_constants_overflow_keeps_its_static_range(K):
    # 2^1022 is a float, but the rules' magnitudes 2 (mag + W) are not
    limits = [Fraction(2) ** 1022, 2, 2]
    with pytest.raises(OverflowError):
        K.place_table().box_ranges(limits, K.coordinate_bounds(limits))
    first = list(itertools.islice(K.box_walk(limits), 5))
    assert [x.num for x in first] == \
        [x.num for x in itertools.islice(static_box_walk(K, limits), 5)]


def test_tables_stay_finite_at_the_largest_radius(table_cases):
    # `Enumerator._boxes` admits radii up to log of the largest double; there
    # the float derivation takes each gamma_n before a square, so none overflows
    for enum, _radius in table_cases:
        boxes, m_sq, m_val = enum._boxes(math.log(sys.float_info.max))
        tabs = enum._ranges.tables(boxes, _up(m_sq), m_val, enum._coord_bounds(boxes))
        values = [tabs.mf, tabs.m_sq_f, tabs.v0_max, *tabs.width0]
        for rows in (tabs.box_up, tabs.eps, tabs.delta, tabs.nu):
            values += [x for row in rows for x in row]
        assert all(map(math.isfinite, values)), enum.order.name
