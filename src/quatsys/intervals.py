"""Certified interval arithmetic.

Two layers, matched to how they are used:

* ``RatInterval`` -- closed intervals with exact ``Fraction`` endpoints.
  Ring operations are exact (no rounding of any kind), so an enclosure
  computed through any number of +,-,* stays a true enclosure.  These carry
  the real embeddings of number field elements.

* ``iv_log``, ``iv_sqrt``, ``iv_cosh``, ``iv_acosh``, ``iv_pi``, ``iv_pow`` --
  enclosures of transcendental expressions, returned as ``RatInterval``: ln,
  exp and sqrt from the standard library's correctly rounded ``decimal``
  under explicit contexts, widened by one unit in the last place, and pi
  from Machin's formula with exact alternating-series bounds.

All comparisons offered here are *certified*: they return an answer only
when the intervals actually separate.  ``refine`` is the one retry loop:
it reruns a decision on enclosures at doubling precision until it answers,
and raises ``PrecisionError`` past an optional cap.
"""

from __future__ import annotations

import math
from decimal import (ROUND_CEILING, ROUND_FLOOR, Context, DivisionByZero, InvalidOperation,
                     Overflow)
from fractions import Fraction

from .errors import PrecisionError

_ZERO = Fraction(0)
_EXPONENT_LIMIT = 10 ** 6  # of every decimal Context: no enclosure comes near it

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
# transcendental enclosures over the standard library's decimal
# ---------------------------------------------------------------------------


def _box(x) -> RatInterval:
    return x if isinstance(x, RatInterval) else RatInterval.exact(x)


def _increasing(op: str, x, prec: int) -> RatInterval:
    """Enclosure of ln, exp or sqrt (op) over x at about prec bits.

    Each endpoint is rounded outward to a decimal of `digits` digits, with
    10^(1 - digits) <= 2^-(prec + scale) / 10, and the increasing op applied to it.
    Python documents ln, exp and sqrt as correctly rounded, so the true value
    at the rounded endpoint is within half a unit in the last place of the
    result; widening by one full unit also covers a result that rounded up
    across a power of ten, where the unit below is a tenth of the one above.
    A zero result is exact (ln 1 or sqrt 0) and is not widened.  For exp,
    2^scale bounds the argument, so its rounding error, which is exp's relative
    error, is at most 2^-prec / 10; ln and sqrt need no scale.  Every Context
    is given in full, as a bare Context() copies the global DefaultContext.
    """
    box = _box(x)
    scale = int(max(-box.lo, box.hi)).bit_length() if op == "exp" else 0
    digits = math.ceil((prec + scale) * math.log10(2)) + 2
    ends = []
    for end, rounding, side in ((box.lo, ROUND_FLOOR, -1), (box.hi, ROUND_CEILING, 1)):
        ctx = Context(prec=digits, rounding=rounding, Emin=-_EXPONENT_LIMIT,
                      Emax=_EXPONENT_LIMIT, traps=[InvalidOperation, DivisionByZero, Overflow])
        value = getattr(ctx, op)(ctx.divide(end.numerator, end.denominator))
        bound = Fraction(value)
        if value:
            bound += side * Fraction(10) ** (value.adjusted() + 1 - digits)
        ends.append(bound)
    return RatInterval(*ends)


def iv_log(x, prec: int) -> RatInterval:
    return _increasing("ln", x, prec)


def iv_sqrt(x, prec: int) -> RatInterval:
    return _increasing("sqrt", x, prec)


def iv_cosh(x, prec: int) -> RatInterval:
    """cosh(x) = (e + 1/e)/2 with e = exp(x), for x >= 0."""
    t = _box(x)
    if t.lo < 0:
        raise ValueError(f"iv_cosh needs x >= 0, got enclosure {t}")
    e = _increasing("exp", t, prec)
    return (e + RatInterval.exact(1) / e) / 2


def iv_acosh(x, prec: int) -> RatInterval:
    """acosh(x) = log(x + sqrt(x^2-1)) for x >= 1, monotone so interval-safe."""
    t = _box(x)
    if t.lo < 1:
        raise ValueError(f"acosh needs x >= 1, got enclosure {t}")
    return _increasing("ln", t + _increasing("sqrt", t * t - 1, prec), prec)


def iv_pi(prec: int) -> RatInterval:
    """Machin's pi = 16 atan(1/5) - 4 atan(1/239), each atan to 2^-(prec+5)."""
    return _atan_inv(5, prec + 5) * 16 - _atan_inv(239, prec + 5) * 4


def _atan_inv(n: int, bits: int) -> RatInterval:
    """atan(1/n) for an integer n > 1, to 2^-bits: the terms of the alternating
    series sum_k (-1)^k / ((2k+1) n^(2k+1)) decrease, so each partial sum and
    the next bracket its value."""
    total, k = _ZERO, 0
    while True:
        term = Fraction((-1) ** k, (2 * k + 1) * n ** (2 * k + 1))
        if abs(term) < Fraction(1, 2 ** bits):
            return RatInterval(min(total, total + term), max(total, total + term))
        total += term
        k += 1


def iv_pow(x, e: Fraction, prec: int) -> RatInterval:
    """x**e for positive x and rational exponent, via exp(e*log x); its
    relative width grows with |e log x|."""
    t = _box(x)
    if t.lo <= 0:
        raise ValueError("iv_pow needs a positive base enclosure")
    return _increasing("exp", _increasing("ln", t, prec) * e, prec)


def interval_solve(mat, rhs):
    """Gauss-Jordan with RatInterval coefficients: enclosures of the solution
    of (point matrix inside mat) x = (point vector inside rhs).

    Raises PrecisionError when a pivot interval straddles zero, which a
    caller fixes by refining its inputs.  No module of the package calls it:
    `NumberField.embedding_inverse` reads the trace-dual basis, and this stays
    as the tests' oracle for that inverse and as a benchmark tracer hook.
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
