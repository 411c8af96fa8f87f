"""Quaternion algebras (a,b) over a totally real field and their ramification.

The algebra is K[i,j] with i^2 = a, j^2 = b, ji = -ij; elements carry four
exact field coordinates over the basis 1, i, j, ij.  Reduced trace and norm
are the usual 2*x0 and x0^2 - a*x1^2 - b*x2^2 + a*b*x3^2, and the standard
involution is x* = Tr(x) - x.

Ramification
------------
* at a real place: the algebra stays a division algebra exactly when both
  structure constants are negative there; decided from certified signs.
* at a finite prime p: ramified exactly when the Hilbert symbol (a, b)_p
  is -1 (Voight, Quaternion Algebras, ch. 12 and 14).  At odd p it is the
  tame symbol, a quadratic residue symbol in O_K/p from Euler's criterion;
  in particular p splits when it divides neither a nor b.  At a dyadic p
  Hilbert reciprocity gives it from the real places and the odd primes,
  after b is moved by the local square theorem so that it is a square at
  every other dyadic prime.  Every status is decided; none is searched.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from . import lattice
from .errors import InputError, InvariantViolation
from .numfield import (FieldElement, IdealHNF, NumberField, factor_ideal,
                       factor_rational_prime)

SPLIT = "split"
RAMIFIED = "ramified"


class QuaternionAlgebra:
    """(a,b) over K with a, b nonzero algebraic integers."""

    def __init__(self, field: NumberField, a: FieldElement, b: FieldElement):
        if not (a.is_integral() and b.is_integral()):
            raise InputError("structure constants must be algebraic integers")
        if a.is_zero() or b.is_zero():
            raise InputError("structure constants must be nonzero")
        self.field = field
        self.a = a
        self.b = b
        self.ab = a * b
        # decided once per algebra, from two certified signs per place
        self._real_status = tuple(RAMIFIED if a.sign_at(s) < 0 and b.sign_at(s) < 0 else SPLIT
                                  for s in range(field.degree))

    def element(self, x0, x1, x2, x3) -> "QuatElement":
        coerce = lambda v: v if isinstance(v, FieldElement) else self.field.from_rational(v)
        return QuatElement(self, (coerce(x0), coerce(x1), coerce(x2), coerce(x3)))

    def zero(self):
        z = self.field.zero()
        return QuatElement(self, (z, z, z, z))

    def one(self):
        z = self.field.zero()
        return QuatElement(self, (self.field.one(), z, z, z))

    def gen_i(self):
        z = self.field.zero()
        return QuatElement(self, (z, self.field.one(), z, z))

    def gen_j(self):
        z = self.field.zero()
        return QuatElement(self, (z, z, self.field.one(), z))

    def gen_ij(self):
        z = self.field.zero()
        return QuatElement(self, (z, z, z, self.field.one()))

    def __eq__(self, other):
        return (isinstance(other, QuaternionAlgebra) and self.field == other.field
                and self.a == other.a and self.b == other.b)

    def __hash__(self):
        return hash((self.field, self.a, self.b))

    def __repr__(self):
        return f"QuaternionAlgebra(a={self.a}, b={self.b} over {self.field.name})"

    # -- ramification at the real places ---------------------------------

    def real_place_status(self, place: int) -> str:
        """Split unless both constants are negative under the embedding."""
        return self._real_status[place]

    def real_ramified_places(self):
        return [s for s, status in enumerate(self._real_status) if status == RAMIFIED]

    def is_cocompact_presentation(self) -> bool:
        """Split at the distinguished place, division algebra at all others.

        Over Q there is no other real place, and the algebra is a division
        algebra, not M_2(Q), exactly when some prime ramifies.
        """
        if self._real_status != (SPLIT,) + (RAMIFIED,) * (self.field.degree - 1):
            return False
        return self.field.degree > 1 or bool(self._finite_ramified)

    # -- ramification at finite primes -------------------------------------

    def finite_prime_status(self, prime: IdealHNF) -> str:
        """`ramified` exactly when the Hilbert symbol (a, b)_p is -1."""
        if prime.norm % 2:
            symbol = _tame_symbol(self.a, self.b, prime)
        else:
            symbol = self._dyadic_symbol(prime)
        return RAMIFIED if symbol < 0 else SPLIT

    def _dyadic_symbol(self, prime: IdealHNF) -> int:
        """(a, b)_p at a dyadic p by Hilbert reciprocity on (a, b').

        b' = b mod p^(v_p(b) + 2e + 1) and b' = 1 mod p'^(2e' + 1) at every
        other dyadic p', so by the local square theorem b'/b is a square at
        p and b' one at each p'.  The product of (a, b')_v over all places
        is 1, and the places left are real or odd primes dividing a b'.
        """
        K = self.field
        b = self.b
        far = K.whole_ring()
        for other, e, _f in factor_rational_prime(K, 2):
            if other == prime:
                near = prime ** (IdealHNF.principal(K, b).valuation(prime) + 2 * e + 1)
            else:
                far = far * other ** (2 * e + 1)
        if not far.is_whole_ring():
            x = _split_one(near, far)
            b = b * (1 - x) + x
        symbol = 1
        for s in range(K.degree):
            if self.a.sign_at(s) < 0 and b.sign_at(s) < 0:
                symbol = -symbol
        for r, _v in factor_ideal(K, IdealHNF.principal(K, self.a * b)):
            if r.norm % 2:
                symbol *= _tame_symbol(self.a, b, r)
        return symbol

    @functools.cached_property
    def _finite_ramified(self) -> list:
        """The ramified primes, by norm, found once per algebra; each divides 2ab."""
        K = self.field
        return sorted((r for r, _v in factor_ideal(K, IdealHNF.principal(K, self.ab * 2))
                       if self.finite_prime_status(r) == RAMIFIED),
                      key=lambda r: (r.norm, r.mat))

    def ramification_report(self, norm_bound: int = 50) -> "RamificationReport":
        """Ramified places; the finite ones listed up to `norm_bound`.

        Every ramified prime divides 2ab, so the parity runs over all of them.
        """
        finite = self._finite_ramified
        real = self.real_ramified_places()
        return RamificationReport(
            real_ramified=real,
            finite_ramified=[r for r in finite if r.norm <= norm_bound],
            norm_bound=norm_bound,
            parity_consistent=(len(real) + len(finite)) % 2 == 0,
        )


@dataclass
class RamificationReport:
    real_ramified: list
    finite_ramified: list
    norm_bound: int
    parity_consistent: bool

    def records(self):
        lines = [f"real_ramified={','.join(map(str, self.real_ramified)) or '-'}"]
        for p in self.finite_ramified:
            lines.append(f"finite_ramified_norm={p.norm}")
        lines.append(f"norm_bound={self.norm_bound}")
        lines.append(f"parity_consistent={str(self.parity_consistent).lower()}")
        return lines


def _tame_symbol(a: FieldElement, b: FieldElement, prime: IdealHNF) -> int:
    """(a, b)_p at an odd p: the residue symbol of (-1)^(alpha beta) a^beta / b^alpha."""
    alpha = IdealHNF.principal(prime.field, a).valuation(prime)
    beta = IdealHNF.principal(prime.field, b).valuation(prime)
    if alpha == beta == 0:
        return 1
    return _residue_symbol(a ** beta * b ** (-alpha) * (-1) ** (alpha * beta), prime)


def _residue_symbol(c: FieldElement, prime: IdealHNF) -> int:
    """(c | p) for a p-unit c at an odd p, by Euler's criterion in O_K/p.

    Multiplying c by squares of p-units leaves the symbol unchanged.  An
    element t of the product of the other primes p' | l, each to the power
    k e' with l^k the l-part of c's denominator, that lies outside p makes
    c t^2 integral at every prime above l; the integer denominator D left
    is prime to l, and c t^2 D^2 is integral.
    """
    K = prime.field
    # O_K/p is elementary abelian: every HNF diagonal entry is 1 or l
    ell = max(prime.mat[i][i] for i in range(K.degree))
    k, den = 0, c.denominator()
    while den % ell == 0:
        k, den = k + 1, den // ell
    if k:
        clear = K.whole_ring()
        for other, e, _f in factor_rational_prime(K, ell):
            if other != prime:
                clear = clear * other ** (k * e)
        t = next(x for x in clear.basis_elements() if not prime.contains(x))
        c = c * t * t
    c = c * c.denominator() ** 2
    residue = lambda x: K.element(prime.reduce([int(v) for v in x.coords]))
    power, base, n = K.one(), residue(c), (prime.norm - 1) // 2
    while n:
        if n & 1:
            power = residue(power * base)
        base, n = residue(base * base), n >> 1
    for sign in (1, -1):
        if power == residue(K.from_rational(sign)):
            return sign
    raise InvariantViolation("Euler's criterion gave neither 1 nor -1")


def _split_one(near: IdealHNF, far: IdealHNF) -> FieldElement:
    """x in `near` with 1 - x in `far`, for coprime ideals (CRT).

    One augmented HNF of the stacked bases, as in `lattice.kernel`: near + far
    is the whole ring, so the echelon row with pivot 1 in column 0 carries
    the coefficients u with u @ stacked = 1.
    """
    K = near.field
    d = K.degree
    stacked = [list(r) for r in near.mat] + [list(r) for r in far.mat]
    aug = [row + [1 if i == j else 0 for j in range(2 * d)] for i, row in enumerate(stacked)]
    u = lattice.hnf(aug, 3 * d)[0][d:]
    x = [sum(c * row[m] for c, row in zip(u[:d], near.mat)) for m in range(d)]
    return K.element(x)


class QuatElement:
    """x0 + x1 i + x2 j + x3 ij with exact field coordinates."""

    __slots__ = ("algebra", "coords")

    def __init__(self, algebra: QuaternionAlgebra, coords):
        self.algebra = algebra
        self.coords = tuple(coords)

    def __add__(self, other):
        other = self._coerce(other)
        return QuatElement(self.algebra,
                           tuple(a + b for a, b in zip(self.coords, other.coords)))

    __radd__ = __add__

    def __neg__(self):
        return QuatElement(self.algebra, tuple(-a for a in self.coords))

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        a, b, ab = self.algebra.a, self.algebra.b, self.algebra.ab
        x0, x1, x2, x3 = self.coords
        y0, y1, y2, y3 = other.coords
        z0 = x0 * y0 + a * (x1 * y1) + b * (x2 * y2) - ab * (x3 * y3)
        z1 = x0 * y1 + x1 * y0 - b * (x2 * y3) + b * (x3 * y2)
        z2 = x0 * y2 + x2 * y0 + a * (x1 * y3) - a * (x3 * y1)
        z3 = x0 * y3 + x3 * y0 + x1 * y2 - x2 * y1
        return QuatElement(self.algebra, (z0, z1, z2, z3))

    __rmul__ = __mul__

    def _coerce(self, other):
        if isinstance(other, QuatElement):
            if other.algebra != self.algebra:
                raise InputError("elements of different algebras")
            return other
        if isinstance(other, FieldElement):
            z = self.algebra.field.zero()
            return QuatElement(self.algebra, (other, z, z, z))
        z = self.algebra.field.zero()
        return QuatElement(self.algebra, (self.algebra.field.from_rational(other), z, z, z))

    def __eq__(self, other):
        return (isinstance(other, QuatElement) and self.algebra == other.algebra
                and self.coords == other.coords)

    def __hash__(self):
        return hash(self.coords)

    def conj(self) -> "QuatElement":
        """Standard involution x* = Tr(x) - x."""
        x0, x1, x2, x3 = self.coords
        return QuatElement(self.algebra, (x0, -x1, -x2, -x3))

    def reduced_trace(self) -> FieldElement:
        return self.coords[0] * 2

    def reduced_norm(self) -> FieldElement:
        a, b, ab = self.algebra.a, self.algebra.b, self.algebra.ab
        x0, x1, x2, x3 = self.coords
        return x0 * x0 - a * (x1 * x1) - b * (x2 * x2) + ab * (x3 * x3)

    def is_zero(self):
        return all(c.is_zero() for c in self.coords)

    def is_central(self):
        return all(c.is_zero() for c in self.coords[1:])

    def denominator(self) -> int:
        den = 1
        for c in self.coords:
            d = c.denominator()
            den = math.lcm(den, d)
        return den

    def __str__(self):
        x0, x1, x2, x3 = self.coords
        return f"{x0} + {x1}*i + {x2}*j + {x3}*ij"

    def __repr__(self):
        return f"QuatElement({self})"
