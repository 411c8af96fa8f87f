"""Certified interval arithmetic.

Two layers, matched to how they are used:

* ``RatInterval`` -- closed intervals with exact ``Fraction`` endpoints.
  Ring operations are exact (no rounding of any kind), so an enclosure
  computed through any number of +,-,* stays a true enclosure.  These carry
  the real embeddings of number field elements.

* ``iv_log``, ``iv_sqrt``, ``iv_cosh``, ``iv_acosh``, ``iv_pi``, ``iv_pow`` --
  enclosures of transcendental expressions via mpmath's interval context,
  returned as ``RatInterval`` with the binary endpoints converted exactly.

All comparisons offered here are *certified*: they return an answer only
when the intervals actually separate.  ``refine`` is the one retry loop:
it reruns a decision on enclosures at doubling precision until it answers,
and raises ``PrecisionError`` past an optional cap.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from mpmath import iv

from .errors import PrecisionError

_ZERO = Fraction(0)

# the start precision, in bits, of every enclosure and `refine` loop but v3's and
# the irreducibility test's; the walk computes in doubles, so under 53 only widens
START_BITS = 60


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x)  # exact binary value
    raise TypeError(f"cannot build an exact endpoint from {type(x)!r}")


class RatInterval:
    """Closed interval [lo, hi] with exact rational endpoints."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi=None):
        lo = _frac(lo)
        hi = lo if hi is None else _frac(hi)
        if lo > hi:
            raise ValueError(f"empty interval [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi

    # -- constructors -------------------------------------------------

    @classmethod
    def exact(cls, x) -> "RatInterval":
        x = _frac(x)
        return cls(x, x)

    # -- basic queries -------------------------------------------------

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def __contains__(self, x) -> bool:
        x = _frac(x)
        return self.lo <= x <= self.hi

    def contains_zero(self) -> bool:
        return self.lo <= 0 <= self.hi

    def __repr__(self):
        return f"RatInterval({self.lo}, {self.hi})"

    def __float__(self):
        return float(self.mid)

    def as_floats(self) -> tuple[float, float]:
        """Outward-rounded float endpoints."""
        lo = float(self.lo)
        if Fraction(lo) > self.lo:
            lo = math.nextafter(lo, -math.inf)
        hi = float(self.hi)
        if Fraction(hi) < self.hi:
            hi = math.nextafter(hi, math.inf)
        return lo, hi

    # -- exact arithmetic ----------------------------------------------

    def __neg__(self):
        return RatInterval(-self.hi, -self.lo)

    def __add__(self, other):
        if isinstance(other, RatInterval):
            return RatInterval(self.lo + other.lo, self.hi + other.hi)
        other = _frac(other)
        return RatInterval(self.lo + other, self.hi + other)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other if isinstance(other, RatInterval) else -_frac(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, RatInterval):
            p = (self.lo * other.lo, self.lo * other.hi,
                 self.hi * other.lo, self.hi * other.hi)
            return RatInterval(min(p), max(p))
        other = _frac(other)
        if other >= 0:
            return RatInterval(self.lo * other, self.hi * other)
        return RatInterval(self.hi * other, self.lo * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, RatInterval):
            if other.contains_zero():
                raise ZeroDivisionError("division by interval containing zero")
            p = (self.lo / other.lo, self.lo / other.hi,
                 self.hi / other.lo, self.hi / other.hi)
            return RatInterval(min(p), max(p))
        other = _frac(other)
        if other == 0:
            raise ZeroDivisionError
        if other > 0:
            return RatInterval(self.lo / other, self.hi / other)
        return RatInterval(self.hi / other, self.lo / other)

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers")
        if n == 0:
            return RatInterval.exact(1)
        if n % 2 == 1 or self.lo >= 0:
            return RatInterval(self.lo ** n, self.hi ** n)
        if self.hi <= 0:
            return RatInterval(self.hi ** n, self.lo ** n)
        return RatInterval(_ZERO, max(self.lo ** n, self.hi ** n))

    def abs(self) -> "RatInterval":
        if self.lo >= 0:
            return self
        if self.hi <= 0:
            return -self
        return RatInterval(_ZERO, max(-self.lo, self.hi))

    # -- certified decisions --------------------------------------------

    def sign(self):
        """Certified sign: -1, 0 (exact zero) or +1; None if undecided."""
        if self.lo > 0:
            return 1
        if self.hi < 0:
            return -1
        if self.lo == self.hi == 0:
            return 0
        return None

    def certainly_lt(self, other) -> bool:
        hi = other.lo if isinstance(other, RatInterval) else _frac(other)
        return self.hi < hi

    def certainly_le(self, other) -> bool:
        hi = other.lo if isinstance(other, RatInterval) else _frac(other)
        return self.hi <= hi

    def certainly_gt(self, other) -> bool:
        lo = other.hi if isinstance(other, RatInterval) else _frac(other)
        return self.lo > lo


# ---------------------------------------------------------------------------
# mpmath bridge for transcendental enclosures
# ---------------------------------------------------------------------------


def _raw_to_frac(raw) -> Fraction:
    """Exact value of a raw mpf tuple (sign, mantissa, exponent, bitcount)."""
    sign, man, exp, _bc = raw
    if man == 0 and exp != 0:
        raise PrecisionError("non-finite endpoint in interval computation")
    fr = Fraction(int(man)) * Fraction(2) ** int(exp)
    return -fr if sign else fr


def _to_iv(x, prec: int):
    """Enclose a Fraction/int/RatInterval in an mpmath interval at `prec` bits."""
    iv.prec = prec
    if isinstance(x, RatInterval):
        lo, hi = x.lo, x.hi
    else:
        lo = hi = _frac(x)
    lo_iv = iv.mpf(lo.numerator) / lo.denominator
    hi_iv = iv.mpf(hi.numerator) / hi.denominator
    return iv.mpf([lo_iv.a, hi_iv.b])


def _from_iv(x) -> RatInterval:
    lo_raw, hi_raw = x._mpi_
    return RatInterval(_raw_to_frac(lo_raw), _raw_to_frac(hi_raw))


def _keeps_iv_prec(fn):
    """Run fn at its own `iv.prec` and restore the caller's afterwards."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        saved = iv.prec
        try:
            return fn(*args, **kwargs)
        finally:
            iv.prec = saved

    return wrapper


@_keeps_iv_prec
def iv_log(x, prec: int) -> RatInterval:
    return _from_iv(iv.log(_to_iv(x, prec)))


@_keeps_iv_prec
def iv_sqrt(x, prec: int) -> RatInterval:
    return _from_iv(iv.sqrt(_to_iv(x, prec)))


@_keeps_iv_prec
def iv_cosh(x, prec: int) -> RatInterval:
    e = iv.exp(_to_iv(x, prec))
    return _from_iv((e + 1 / e) / 2)


@_keeps_iv_prec
def iv_acosh(x, prec: int) -> RatInterval:
    """acosh(x) = log(x + sqrt(x^2-1)) for x >= 1, monotone so interval-safe."""
    t = _to_iv(x, prec)
    if t.a < 1:
        raise ValueError(f"acosh needs x >= 1, got enclosure {t}")
    return _from_iv(iv.log(t + iv.sqrt(t * t - 1)))


@_keeps_iv_prec
def iv_pi(prec: int) -> RatInterval:
    iv.prec = prec
    return _from_iv(iv.pi)


@_keeps_iv_prec
def iv_pow(x, e: Fraction, prec: int) -> RatInterval:
    """x**e for positive x and rational exponent, via exp(e*log x)."""
    t = _to_iv(x, prec)
    if t.a <= 0:
        raise ValueError("iv_pow needs a positive base enclosure")
    ee = iv.mpf(e.numerator) / e.denominator
    return _from_iv(iv.exp(ee * iv.log(t)))


def interval_solve(mat, rhs):
    """Gauss-Jordan with RatInterval coefficients: enclosures of the solution
    of (point matrix inside mat) x = (point vector inside rhs).

    Raises PrecisionError when a pivot interval straddles zero, which a
    caller fixes by refining its inputs.
    """
    n = len(mat)
    rows = [list(r) + [v] for r, v in zip(mat, rhs)]
    for col in range(n):
        piv = None
        for r in range(col, n):
            if not rows[r][col].contains_zero():
                piv = r
                break
        if piv is None:
            raise PrecisionError("pivot interval contains zero")
        rows[col], rows[piv] = rows[piv], rows[col]
        for r in range(n):
            if r == col:
                continue
            factor = rows[r][col] / rows[col][col]
            rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return [rows[k][n] / rows[k][k] for k in range(n)]


def refine(decide, bits: int, max_bits: int | None = None):
    """The first answer of decide(b) that is not None, for b = bits, 2 bits,
    4 bits, ...; decide works on enclosures at b bits and answers None while
    they do not separate.  Raises PrecisionError once b would pass max_bits.
    """
    while True:
        answer = decide(bits)
        if answer is not None:
            return answer
        bits *= 2
        if max_bits is not None and bits > max_bits:
            raise PrecisionError(f"undecided at {max_bits} bits")
