"""Differential tests of FieldElement's integer arithmetic.

The oracle is the rational-coordinate arithmetic FieldElement used before it
moved to integer numerators over one common denominator: one Fraction per
power-basis coordinate, products reduced through the field's power table.
FieldElement arithmetic is in turn the oracle of the field's arithmetic on
integer rows (`NumberField.theta_rows`, `NumberField.power_mod`).
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quatsys.numfield import FieldElement, IdealHNF, NumberField, hurwitz_field, rationals
from quatsys.polys import poly_xgcd_mod

FIELDS = {"Q(eta)": hurwitz_field(), "Q": rationals(),
          "Q(sqrt5)": NumberField([1, -1, -1], name="Q(sqrt5)")}


class RationalElement:
    """An element of K as one Fraction per power-basis coordinate."""

    def __init__(self, field, coords):
        self.field = field
        self.coords = tuple(Fraction(c) for c in coords)

    def __add__(self, other):
        return RationalElement(self.field, [a + b for a, b in zip(self.coords, other.coords)])

    def __neg__(self):
        return RationalElement(self.field, [-a for a in self.coords])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        d = self.field.degree
        conv = [Fraction(0)] * (2 * d - 1)
        for i, a in enumerate(self.coords):
            for j, b in enumerate(other.coords):
                conv[i + j] += a * b
        out = [Fraction(0)] * d
        for k, c in enumerate(conv):
            for m, w in enumerate(self.field._pow[k]):
                out[m] += c * w
        return RationalElement(self.field, out)

    def inverse(self):
        d = self.field.degree
        g, inv = poly_xgcd_mod(self.coords, self.field.min_poly)
        return RationalElement(self.field, [c / g[0] for c in (inv + [Fraction(0)] * d)[:d]])

    def __truediv__(self, other):
        return self * other.inverse()

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        result = RationalElement(self.field, [1] + [0] * (self.field.degree - 1))
        for _ in range(n):
            result = result * self
        return result

    def is_zero(self):
        return all(c == 0 for c in self.coords)

    def is_integral(self):
        return all(c.denominator == 1 for c in self.coords)

    def denominator(self):
        return math.lcm(*(c.denominator for c in self.coords))

    def __str__(self):
        return "(" + ", ".join(str(c) for c in self.coords) + ")"


def _rationals():
    # mixed denominators, including ones that cancel against the numerators
    return st.builds(Fraction, st.integers(-60, 60), st.sampled_from([1, 1, 2, 3, 4, 6, 7, 12]))


@st.composite
def element_pairs(draw):
    field = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    coords = st.lists(_rationals(), min_size=field.degree, max_size=field.degree)
    return field, draw(coords), draw(coords)


def _assert_matches(elem, oracle):
    assert elem.coords == oracle.coords
    assert elem.den >= 1 and math.gcd(elem.den, *elem.num) == 1
    assert list(elem.num) == [c * elem.den for c in oracle.coords]
    assert str(elem) == str(oracle)
    assert elem.is_integral() == oracle.is_integral()
    assert elem.den == oracle.denominator()
    assert elem.is_zero() == oracle.is_zero()


@settings(max_examples=300, deadline=None)
@given(element_pairs())
def test_ring_operations_match_the_rational_oracle(case):
    field, xc, yc = case
    x, y = field.element(xc), field.element(yc)
    ox, oy = RationalElement(field, xc), RationalElement(field, yc)
    _assert_matches(x, ox)
    _assert_matches(x + y, ox + oy)
    _assert_matches(x - y, ox - oy)
    _assert_matches(-x, -ox)
    _assert_matches(x * y, ox * oy)
    if not oy.is_zero():
        _assert_matches(y.inverse(), oy.inverse())
        _assert_matches(x / y, ox / oy)
        _assert_matches(y ** -2, oy ** -2)
    _assert_matches(x ** 3, ox ** 3)
    _assert_matches(x ** 0, ox ** 0)


@settings(max_examples=300, deadline=None)
@given(element_pairs(), st.integers(-24, 24).filter(bool))
def test_constructor_reduces_to_the_canonical_form(case, den):
    field, xc, _ = case
    num = [int(c * 12) for c in xc]
    elem = FieldElement(field, num, den)
    _assert_matches(elem, RationalElement(field, [Fraction(n, den) for n in num]))


@settings(max_examples=300, deadline=None)
@given(element_pairs(), _rationals(), st.integers(-9, 9))
def test_mixed_operands_and_equality_match_the_oracle(case, r, n):
    field, xc, yc = case
    x, y = field.element(xc), field.element(yc)
    ox, oy = RationalElement(field, xc), RationalElement(field, yc)
    rat = RationalElement(field, [r] + [0] * (field.degree - 1))
    whole = RationalElement(field, [n] + [0] * (field.degree - 1))
    _assert_matches(x + r, ox + rat)
    _assert_matches(r - x, rat - ox)
    _assert_matches(x * r, ox * rat)
    _assert_matches(n * x, whole * ox)
    _assert_matches(x - n, ox - whole)
    assert (x == y) == (ox.coords == oy.coords)
    assert (x == r) == (ox.coords == rat.coords)
    assert (x == n) == (ox.coords == whole.coords)
    assert (field.from_rational(r) == r) and (field.from_rational(n) == n)
    # equal elements reached by different routes are equal and hash alike
    again = (x + y) - y
    assert again == x and hash(again) == hash(x)
    assert field.element(x.coords) == x and hash(field.element(x.coords)) == hash(x)


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_ring_operations_construct_no_fraction(name):
    field = FIELDS[name]
    d = field.degree
    x = field.element([Fraction(1, 2)] + [Fraction(k, 3) for k in range(1, d)])
    y = field.element([Fraction(-5, 4)] + [k + 1 for k in range(1, d)])
    made = []
    saved = Fraction.__dict__["__new__"]

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return saved.__func__(cls, *args, **kwargs)

    Fraction.__new__ = staticmethod(counting_new)
    try:
        _ = (x + y, x - y, x * y, -x, x == y, x == x, x * 3, x + 2, x == 1)
    finally:
        Fraction.__new__ = saved
    assert made == []


ROW_FIELDS = {"Q(eta)": hurwitz_field(), "Q": rationals(),
              "Q(sqrt2)": NumberField([1, 0, -2], name="Q(sqrt2)"),
              "Q(sqrt10)": NumberField([1, 0, -10], name="Q(sqrt10)")}


@st.composite
def integer_rows(draw):
    field = ROW_FIELDS[draw(st.sampled_from(sorted(ROW_FIELDS)))]
    coords = st.lists(st.integers(-60, 60), min_size=field.degree, max_size=field.degree)
    return field, draw(coords), draw(coords.filter(any)), draw(st.integers(1, 30))


@settings(max_examples=200, deadline=None)
@given(integer_rows(), st.integers(0, 40))
def test_integer_rows_match_field_element_arithmetic(case, n):
    field, vec, gen, modulus = case
    v, theta = FieldElement(field, vec), field.gen()
    rows = field.theta_rows(vec, n + 1)
    assert len(rows) == n + 1
    assert all(row == list((v * theta ** k).num) for k, row in enumerate(rows))
    assert field.theta_rows(vec) == field.theta_rows(vec, field.degree)
    ideal = IdealHNF.from_generators(field, [FieldElement(field, gen), modulus])
    assert field.power_mod(vec, n, ideal.mat) == ideal.reduce((v ** n).num)
