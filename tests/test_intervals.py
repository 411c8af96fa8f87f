import decimal
import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given
from hypothesis import strategies as st

from quatsys.bounds import v3_enclosure
from quatsys.errors import PrecisionError
from quatsys.intervals import (RatInterval, interval_solve, iv_acosh, iv_cosh, iv_log,
                               iv_pi, iv_pow, iv_sqrt, refine)


def test_exact_ring_ops():
    a = RatInterval(Fraction(1, 3), Fraction(1, 2))
    b = RatInterval(Fraction(-2), Fraction(5))
    s = a + b
    assert s.lo == Fraction(1, 3) - 2 and s.hi == Fraction(1, 2) + 5
    p = a * b
    assert p.lo == Fraction(-1)  # 1/2 * -2
    assert p.hi == Fraction(5, 2)
    assert (a - a).contains_zero()
    assert (-a).hi == -a.lo


def test_power_and_abs():
    x = RatInterval(-3, 2)
    assert (x ** 2).lo == 0 and (x ** 2).hi == 9
    assert x.abs().lo == 0 and x.abs().hi == 3
    y = RatInterval(-3, -1)
    assert (y ** 3).lo == -27 and (y ** 3).hi == -1


def test_division_rejects_zero_interval():
    with pytest.raises(ZeroDivisionError):
        RatInterval(1, 2) / RatInterval(-1, 1)


def test_certified_sign_and_compare():
    assert RatInterval(1, 2).sign() == 1
    assert RatInterval(-2, -1).sign() == -1
    assert RatInterval(0, 0).sign() == 0
    assert RatInterval(-1, 1).sign() is None
    assert RatInterval(1, 2).certainly_le(2)
    assert not RatInterval(1, 2).certainly_le(Fraction(3, 2))
    assert RatInterval(1, 2).certainly_gt(Fraction(1, 2))
    assert not RatInterval(1, 2).certainly_gt(1)


def _fractions(lo, hi):
    return st.fractions(lo, hi, max_denominator=10 ** 9)


# name: (arguments, enclosure, mpmath's function); the exponents of iv_pow are
# as small as the library's, since its width grows with |e log x|
ENCLOSURES = {
    "log": (st.tuples(_fractions(Fraction(1, 10 ** 6), 10 ** 6)), iv_log, mpmath.log),
    "sqrt": (st.tuples(_fractions(0, 10 ** 6)), iv_sqrt, mpmath.sqrt),
    "cosh": (st.tuples(_fractions(0, 50)), iv_cosh, mpmath.cosh),
    "acosh": (st.tuples(_fractions(1, 10 ** 6)), iv_acosh, mpmath.acosh),
    "pow": (st.tuples(_fractions(Fraction(1, 10 ** 6), 10 ** 6), _fractions(-2, 2)),
            iv_pow, mpmath.power),
    "pi": (st.tuples(), iv_pi, lambda: +mpmath.pi),
}


def _exact(value) -> Fraction:
    man, exp = value.man_exp  # of |value|
    return int(mpmath.sign(value)) * Fraction(man) * Fraction(2) ** exp


@pytest.mark.parametrize("name", sorted(ENCLOSURES))
@given(data=st.data(), prec=st.sampled_from([60, 96, 240]))
def test_enclosures_contain_the_value_and_are_narrow(name, data, prec):
    args, enclose, reference = ENCLOSURES[name]
    args = data.draw(args)
    box = enclose(*args, prec)
    with mpmath.workprec(prec + 120):
        value = _exact(reference(*(mpmath.mpf(a.numerator) / a.denominator for a in args)))
    assert box.lo <= value <= box.hi
    assert box.width <= max(1, abs(value)) / 2 ** (prec - 4)


def test_v3_contains_the_clausen_value():
    with mpmath.workprec(300):
        value = _exact(mpmath.clsin(2, mpmath.pi / 3))
    box = v3_enclosure()
    assert box.lo <= value <= box.hi
    assert box.width <= Fraction(1, 2 ** 92)


def test_pi_and_rational_power():
    assert float(iv_pi(80).mid) == pytest.approx(math.pi, abs=1e-15)
    box = iv_pow(Fraction(84), Fraction(2, 3), 80)
    assert float(box.mid) == pytest.approx(84 ** (2 / 3), rel=1e-12)


def test_interval_solve_recovers_exact_solution():
    mat = [[RatInterval.exact(2), RatInterval.exact(1)],
           [RatInterval.exact(1), RatInterval.exact(3)]]
    rhs = [RatInterval.exact(5), RatInterval.exact(10)]
    sol = interval_solve(mat, rhs)
    assert sol[0].lo == sol[0].hi == Fraction(1)
    assert sol[1].lo == sol[1].hi == Fraction(3)


def test_interval_solve_flags_singular():
    mat = [[RatInterval(-1, 1), RatInterval.exact(0)],
           [RatInterval.exact(0), RatInterval.exact(1)]]
    with pytest.raises(PrecisionError):
        interval_solve(mat, [RatInterval.exact(0), RatInterval.exact(0)])


def test_refine_doubles_until_decided():
    # sqrt(2) vs 1.41421356 (gap about 2^-27) separates at 32 bits, not at 16
    target = Fraction(141421356, 100000000)
    asked = []

    def decide(prec):
        asked.append(prec)
        return (iv_sqrt(Fraction(2), prec) - target).sign()

    assert refine(decide, 8) == 1
    assert asked == [8, 16, 32]
    # the first answer that is not None is returned, even a falsy one
    assert refine(lambda prec: False if prec >= 16 else None, 4) is False
    # past the cap: every precision up to it is tried, then PrecisionError
    asked.clear()
    with pytest.raises(PrecisionError):
        refine(asked.append, 8, 40)
    assert asked == [8, 16, 32]
    # the start precision is tried even when it exceeds the cap
    assert refine(decide, 64, 32) == 1


def test_float_endpoints_are_outward():
    box = RatInterval(Fraction(1, 3), Fraction(2, 3))
    lo, hi = box.as_floats()
    assert Fraction(lo) <= Fraction(1, 3) and Fraction(hi) >= Fraction(2, 3)


def _endpoints():
    # 10^20 and cosh(30) lie above the Emax the test sets
    boxes = [iv_log(Fraction(49, 16), 96), iv_log(Fraction(10) ** 20, 60),
             iv_sqrt(Fraction(2), 200), iv_cosh(Fraction(30), 150), iv_acosh(Fraction(5, 2), 80),
             iv_pi(300), iv_pow(Fraction(84), Fraction(2, 3), 120), v3_enclosure()]
    return [(box.lo, box.hi) for box in boxes]


def test_enclosures_ignore_the_global_decimal_contexts():
    expected = _endpoints()
    contexts = (decimal.getcontext(), decimal.DefaultContext)
    saved = [(ctx.prec, ctx.rounding, ctx.Emax) for ctx in contexts]
    try:
        for ctx in contexts:
            ctx.prec, ctx.rounding, ctx.Emax = 5, decimal.ROUND_UP, 10
        before = [repr(ctx) for ctx in contexts]
        assert _endpoints() == expected
        assert [repr(ctx) for ctx in contexts] == before
    finally:
        for ctx, (prec, rounding, emax) in zip(contexts, saved):
            ctx.prec, ctx.rounding, ctx.Emax = prec, rounding, emax
