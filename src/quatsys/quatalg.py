"""Quaternion algebras (a,b) over a totally real field and their ramification.

The algebra is K[i,j] with i^2 = a, j^2 = b, ji = -ij; elements carry four
exact field coordinates over the basis 1, i, j, ij.  Reduced trace and norm
are the usual 2*x0 and x0^2 - a*x1^2 - b*x2^2 + a*b*x3^2, and the standard
involution is x* = Tr(x) - x.

Ramification
------------
* at a real place: the algebra stays a division algebra exactly when both
  structure constants are negative there; decided from certified signs.
* at a finite prime: decided by bounded-exhaustive search for a primitive
  zero of the norm form modulo increasing prime powers.  A found zero is
  only accepted with a verified Hensel condition (some partial derivative
  of valuation s with level k > 2s), so "split" answers are certificates;
  "ramified" answers are certificates too, because an isotropic completion
  would force a primitive zero at every level.  If the configured caps are
  reached first the status is reported as undecided, never guessed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InputError, InvariantViolation
from .lattice import make_reducer
from .numfield import FieldElement, IdealHNF, NumberField, primes_up_to_norm

SPLIT = "split"
RAMIFIED = "ramified"
UNDECIDED = "undecided"


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
        sa = self.a.sign_at(place)
        sb = self.b.sign_at(place)
        if sa == 0 or sb == 0:
            raise InvariantViolation("structure constant vanishes at a real place")
        return RAMIFIED if (sa < 0 and sb < 0) else SPLIT

    def real_ramified_places(self):
        return [s for s in range(self.field.degree)
                if self.real_place_status(s) == RAMIFIED]

    def is_cocompact_presentation(self) -> bool:
        """Split at the distinguished place, division algebra at all others."""
        if self.real_place_status(0) != SPLIT:
            return False
        return all(self.real_place_status(s) == RAMIFIED
                   for s in range(1, self.field.degree))

    # -- ramification at finite primes -------------------------------------

    def norm_form_coeffs(self):
        one = self.field.one()
        return (one, -self.a, -self.b, self.ab)

    def finite_prime_status(self, prime: IdealHNF, max_level: int = 6,
                            pair_cap: int = 1 << 23) -> str:
        status, _w = self.finite_prime_status_witnessed(prime, max_level, pair_cap)
        return status

    def finite_prime_status_witnessed(self, prime: IdealHNF, max_level: int = 6,
                                      pair_cap: int = 1 << 23):
        """(status, witness); witness is (level, lambda residue 4-tuple) for splits."""
        K = self.field
        two = IdealHNF.principal(K, K.from_rational(2))
        diadic_e = two.valuation(prime) if prime.divides(two) else 0
        level = 1
        while level <= max_level:
            q_k = prime.norm ** level
            if q_k * q_k > pair_cap:
                return UNDECIDED, None
            found = self._search_level(prime, level)
            if found == "no_primitive_zero":
                return RAMIFIED, None
            if found is not None and found != "no_certificate":
                return SPLIT, (level, found)
            level += 1
            # a diadic certificate needs level > 2e, skip hopeless early levels
            if diadic_e and level <= 2 * diadic_e:
                level = 2 * diadic_e + 1
                if level > max_level:
                    break
        return UNDECIDED, None

    def _search_level(self, prime: IdealHNF, k: int):
        """One level of the primitive-zero search modulo prime**k.

        Meet in the middle: the norm form splits as
        (l1^2 - a*l2^2) - (b*l3^2 - a*b*l4^2); a zero is a value collision
        between the two halves.  Per matched value we track the least
        attainable derivative valuation with and without half-primitivity,
        which is enough to decide the Hensel condition for the best
        combined tuple without storing all pairs.
        """
        K = self.field
        P = prime ** k
        c1, c2, c3, c4 = self.norm_form_coeffs()
        residues = [tuple(r) for r in P.residues()]
        powers = [prime ** v for v in range(1, k + 1)]

        def val_below_k(elem: FieldElement) -> int:
            # valuation of a residue representative, capped at k
            if elem.is_zero():
                return k
            v = 0
            while v < k and powers[v].contains(elem):
                v += 1
            return v

        two_elem = K.from_rational(2)
        in_prime = []
        coeff_val = [[], [], [], []]
        coeffs = (c1, c2, c3, c4)
        sq_scaled = [[], [], [], []]  # coords of c_i * r^2 reduced mod P, per residue
        for r in residues:
            elem = K.element(r)
            in_prime.append(prime.contains(elem))
            sq = elem * elem
            for idx in range(4):
                coeff_val[idx].append(val_below_k(two_elem * coeffs[idx] * elem))
                scaled = coeffs[idx] * sq
                sq_scaled[idx].append(tuple(P.reduce([int(c) for c in scaled.coords])))

        side_a = self._half_table(P, residues, sq_scaled[0], sq_scaled[1],
                                  in_prime, coeff_val[0], coeff_val[1])
        # the collision equation is c1 l1^2 + c2 l2^2 = -(c3 l3^2 + c4 l4^2)
        neg_b1 = [tuple(P.reduce([-x for x in v])) for v in sq_scaled[2]]
        neg_b2 = [tuple(P.reduce([-x for x in v])) for v in sq_scaled[3]]
        side_b = self._half_table(P, residues, neg_b1, neg_b2,
                                  in_prime, coeff_val[2], coeff_val[3])

        any_primitive = False
        best = None
        for value, rec_a in side_a.items():
            rec_b = side_b.get(value)
            if rec_b is None:
                continue
            for s_a, w_a, s_b, w_b in _primitive_combos(rec_a, rec_b):
                any_primitive = True
                s = min(s_a, s_b)
                if 2 * s < k:
                    witness = w_a + w_b
                    if best is None or witness < best[1]:
                        best = (s, witness)
        if best is not None:
            return best[1]
        if not any_primitive:
            return "no_primitive_zero"
        return "no_certificate"

    def _half_table(self, P, residues, tab1, tab2, in_prime, val1, val2):
        """value -> [min val any pair, witness, min val half-primitive pair, witness]."""
        table = {}
        mat = [list(r) for r in P.mat]
        n = len(residues)
        reduce_mod = make_reducer(mat)
        for a in range(n):
            va = tab1[a]
            v1 = val1[a]
            p1 = not in_prime[a]
            r1 = residues[a]
            for b in range(n):
                value = reduce_mod([x + y for x, y in zip(va, tab2[b])])
                s = v1 if v1 < val2[b] else val2[b]
                prim = p1 or (not in_prime[b])
                rec = table.get(value)
                pair = (r1, residues[b])
                if rec is None:
                    table[value] = [s, pair, s if prim else None, pair if prim else None]
                else:
                    if s < rec[0] or (s == rec[0] and pair < rec[1]):
                        rec[0], rec[1] = s, pair
                    if prim and (rec[2] is None or s < rec[2]
                                 or (s == rec[2] and pair < rec[3])):
                        rec[2], rec[3] = s, pair
        return table

    def is_isotropy_witness(self, prime: IdealHNF, level: int, lam) -> bool:
        """Check a claimed certified zero of the norm form modulo prime**level."""
        K = self.field
        P = prime ** level
        elems = [x if isinstance(x, FieldElement) else K.from_rational(x) for x in lam]
        if all(prime.contains(e) for e in elems):
            return False  # not primitive
        c = self.norm_form_coeffs()
        total = K.zero()
        for ci, li in zip(c, elems):
            total = total + ci * li * li
        if not P.contains(total):
            return False
        two = K.from_rational(2)
        for ci, li in zip(c, elems):
            grad = two * ci * li
            v = 0
            power = prime
            while v < level and power.contains(grad):
                power = power * prime
                v += 1
            if 2 * v < level:
                return True
        return False

    def ramification_report(self, norm_bound: int = 50, max_level: int = 6,
                            pair_cap: int = 1 << 23) -> "RamificationReport":
        finite = []
        undecided = []
        for prime in primes_up_to_norm(self.field, norm_bound):
            status = self.finite_prime_status(prime, max_level, pair_cap)
            if status == RAMIFIED:
                finite.append(prime)
            elif status == UNDECIDED:
                undecided.append(prime)
        real = self.real_ramified_places()
        return RamificationReport(
            real_ramified=real,
            finite_ramified=finite,
            undecided=undecided,
            norm_bound=norm_bound,
            parity_consistent=(len(real) + len(finite)) % 2 == 0,
        )


@dataclass
class RamificationReport:
    real_ramified: list
    finite_ramified: list
    undecided: list
    norm_bound: int
    parity_consistent: bool

    def records(self):
        lines = [f"real_ramified={','.join(map(str, self.real_ramified)) or '-'}"]
        for p in self.finite_ramified:
            lines.append(f"finite_ramified_norm={p.norm}")
        for p in self.undecided:
            lines.append(f"undecided_norm={p.norm}")
        lines.append(f"norm_bound={self.norm_bound}")
        lines.append(f"parity_consistent={str(self.parity_consistent).lower()}")
        return lines


def _primitive_combos(rec_a, rec_b):
    a_any, a_any_w, a_prim, a_prim_w = rec_a
    b_any, b_any_w, b_prim, b_prim_w = rec_b
    if a_prim is not None:
        yield a_prim, a_prim_w, b_any, b_any_w
    if b_prim is not None:
        yield a_any, a_any_w, b_prim, b_prim_w


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
