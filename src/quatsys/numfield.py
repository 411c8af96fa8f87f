"""Totally real number fields, their integers, and ideal arithmetic.

A field K = Q(theta) is given by the monic integer minimal polynomial of
theta; an element is a vector of integer numerators over the power basis
1, theta, ..., theta^(d-1) and one positive common denominator, in lowest
terms (gcd(den, *num) = 1), so its arithmetic is integer arithmetic and
its rational coordinates are num[m] / den (Cohen, GTM 138, 4.2).
Construction certifies that the polynomial, of degree at most MAX_DEGREE,
is irreducible, totally real, and that Z[theta] is the full ring of integers
(via the Dedekind criterion at every prime whose square divides the
polynomial discriminant); fields failing any check are rejected, which
keeps "integral element" synonymous with "den = 1" everywhere downstream.
A Minkowski bound below 2 certifies class number one (`class_number_one`).
The discriminant, the irreducibility certificate, the factorisations
modulo p (Dedekind-Kummer) and the rational primes come from `polys`.

Integral ideals are integer lattices in row Hermite normal form over the
power basis; fractional ideals are an integral numerator with a minimal
positive integer denominator.

Real embeddings are certified: enclosures of each root of the minimal
polynomial are bisected from its isolating interval and cached per precision,
so an embedding depends on the element, the place and the precision alone,
not on what ran before.  Embeddings are indexed in decreasing root order;
index 0 is the distinguished one used for geometry.  The elements of a
lattice coset whose embeddings lie in a given box are listed by `box_walk`,
a caller of the package's one lattice walk (`walkranges.walk`), whose last
two coordinates get per-node ranges from the field's float table of
theta_s^m (`place_table`).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from . import lattice
from .errors import InputError, InvariantViolation, PrecisionError
from .intervals import START_BITS, RatInterval, refine
from .polys import (det_fraction, discriminant, factorint, gf_factor, gf_gcd, gf_reduce,
                    isprime, poly_mul, poly_sub, poly_xgcd_mod, real_rooted_irreducible)
from .realroots import isolate_real_roots, poly_eval_interval, refine_root
from .walkranges import PlaceTable, walk

Q0 = Fraction(0)
# The irreducibility certificate tries all 2^(d-1) root subsets of size <= d/2
# (`polys.real_rooted_irreducible`): about 2 s at degree 12 on a 2-vCPU VM,
# and twice that for each further degree, so larger fields are refused.
MAX_DEGREE = 12


class NumberField:
    """A totally real field Q(theta) with maximal power-basis order Z[theta]."""

    def __init__(self, coeffs_desc, name=None):
        coeffs = [int(c) for c in coeffs_desc]
        if len(coeffs) < 2:
            raise InputError("minimal polynomial must have degree >= 1")
        if coeffs[0] != 1:
            raise InputError("minimal polynomial must be monic")
        if len(coeffs) - 1 > MAX_DEGREE:
            raise InputError(f"minimal polynomial has degree {len(coeffs) - 1}; "
                             f"at most {MAX_DEGREE} is supported")
        self.min_poly = list(reversed(coeffs))  # ascending
        self.degree = len(coeffs) - 1
        self.name = name or f"field-deg{self.degree}"

        self.disc = discriminant(self.min_poly)
        if self.disc == 0:  # a repeated factor
            raise InputError("minimal polynomial is reducible over Q")
        roots = isolate_real_roots(self.min_poly)
        if len(roots) != self.degree:
            raise InputError(
                f"field is not totally real: {len(roots)} real roots, degree {self.degree}")
        # the isolating intervals, by place; never narrowed
        self.roots = [RatInterval(lo, hi) for lo, hi in sorted(roots, reverse=True)]
        # per place: bits -> enclosure of the root (`embedding_interval`)
        self._root_boxes = [{} for _ in roots]
        if not real_rooted_irreducible(self.min_poly, self.embedding_interval):
            raise InputError("minimal polynomial is reducible over Q")

        self._certify_power_basis_maximal()
        # Minkowski: every ideal class holds an integral ideal of norm at most
        # M = (d!/d^d) sqrt|d_K|, so M < 2 proves h = 1; False leaves h open
        d = self.degree
        self.class_number_one = math.factorial(d) ** 2 * abs(self.disc) < 4 * d ** (2 * d)
        # facts about the field alone that other modules compute (`cached`)
        self._cache = {}

        # theta^k for k = 0 .. 2d-2 as integer coordinate vectors
        self._pow = []
        vec = [0] * d
        vec[0] = 1
        for k in range(2 * d - 1):
            self._pow.append(list(vec))
            vec = self._shift_reduce(vec)

    def _shift_reduce(self, vec):
        d = self.degree
        out = [0] + vec[:-1]
        top = vec[-1]
        if top:
            for k in range(d):
                out[k] -= top * self.min_poly[k]
        return out

    def _certify_power_basis_maximal(self):
        """Dedekind criterion at every prime p with p^2 | disc(m)."""
        if self.degree == 1:
            return
        for p, e in factorint(abs(self.disc)).items():
            if e < 2:
                continue
            if not self._dedekind_ok(p):
                raise InputError(
                    f"Z[theta] is not maximal at p={p}; only monogenic fields with "
                    f"polynomial discriminant equal to the field discriminant are supported")

    def _dedekind_ok(self, p: int) -> bool:
        g_lift = [1]
        h_lift = [1]
        for fac, e in gf_factor(self.min_poly, p):
            g_lift = poly_mul(g_lift, fac)
            for _ in range(e - 1):
                h_lift = poly_mul(h_lift, fac)
        diff = poly_sub(poly_mul(g_lift, h_lift), self.min_poly)
        big_f = [int(c) // p for c in diff]  # all entries divisible by p by construction
        g = gf_gcd(gf_reduce(big_f, p), gf_reduce(g_lift, p), p)
        return len(gf_gcd(g, gf_reduce(h_lift, p), p)) == 1  # gcd == constant

    # -- element constructors -------------------------------------------

    def element(self, coords) -> "FieldElement":
        """The element with the given rational coordinates over the power basis."""
        coords = list(coords)
        if len(coords) != self.degree:
            raise InputError(f"expected {self.degree} coordinates, got {len(coords)}")
        coords = [c if isinstance(c, int) else Fraction(c) for c in coords]
        den = math.lcm(*(c.denominator for c in coords))
        return FieldElement(self, [c.numerator * (den // c.denominator) for c in coords], den)

    def zero(self):
        return FieldElement(self, (0,) * self.degree)

    def one(self):
        return FieldElement(self, (1,) + (0,) * (self.degree - 1))

    def from_rational(self, r):
        r = r if isinstance(r, int) else Fraction(r)
        return FieldElement(self, (r.numerator,) + (0,) * (self.degree - 1), r.denominator)

    def gen(self):
        if self.degree == 1:
            return self.from_rational(-self.min_poly[0])
        num = [0] * self.degree
        num[1] = 1
        return FieldElement(self, num)

    # -- embeddings -------------------------------------------------------

    def embedding_interval(self, place: int, bits: int) -> RatInterval:
        """Enclosure of theta at the place, of width at most 2^-bits.

        Bisection from the isolating interval follows one chain of intervals
        (`realroots.refine_root`), so the box of each precision, rounded up to
        a multiple of 8 bits, is cached and bisected from the nearest coarser
        one, with the same endpoints whatever is cached.  A rational root
        (degree 1), around which that margin depends on the width, is not.
        """
        if not 0 <= place < self.degree:
            raise InputError(f"place index {place} out of range")
        if self.degree == 1:
            return RatInterval(*refine_root(self.min_poly, self.roots[0].lo, self.roots[0].hi,
                                            Fraction(1, 2 ** bits)))
        bits = -(-bits // 8) * 8
        boxes = self._root_boxes[place]
        if bits not in boxes:
            coarser = [b for b in boxes if b < bits]
            start = boxes[max(coarser)] if coarser else self.roots[place]
            boxes[bits] = RatInterval(*refine_root(self.min_poly, start.lo, start.hi,
                                                   Fraction(1, 2 ** bits)))
        return boxes[bits]

    def embedding_inverse(self, bits: int):
        """Certified enclosure of the inverse of E = [theta_s^m] (rows: places).

        Entry [m][s] encloses (E^-1)[m][s], the weight of sigma_s(x) in coordinate m
        of x: sigma_s(b_m) for the trace-dual basis b_m = c_m(theta) / f'(theta) of the
        powers of theta, f(x) / (x - theta) = sum_m c_m x^m (Euler's lemma; Serre, Local
        Fields, III 6), formed once per field; entries (width <= 2^-bits) kept per bits."""
        f, d = self.min_poly, self.degree

        def dual_basis():  # f'(theta) and each c_m(theta) have exponents below d
            inv = FieldElement(self, [k * f[k] for k in range(1, d + 1)]).inverse()
            return tuple(FieldElement(self, f[m + 1:] + [0] * m) * inv for m in range(d))

        dual = self.cached("dual_basis", dual_basis)
        return self.cached(("embedding_inverse", bits),
                           lambda: tuple(tuple(b.embed(s, bits) for s in range(d)) for b in dual))

    def element_from_embeddings(self, boxes, den: int, bits: int):
        """The unique element of (1/den) Z[theta] with sigma_s(x) in boxes[s].

        Returns None when some coordinate enclosure holds no multiple of
        1/den (no such element exists); raises PrecisionError when one holds
        several (refine the boxes or raise `bits`).  The answer is certified
        but callers still verify whatever exact identity they need.
        """
        num = []
        ambiguous = False
        for row in self.embedding_inverse(bits):
            acc = RatInterval.exact(0)
            for entry, box in zip(row, boxes):
                acc = acc + entry * box
            lo = math.ceil(acc.lo * den)
            hi = math.floor(acc.hi * den)
            if lo > hi:
                return None
            ambiguous = ambiguous or lo < hi
            num.append(lo)
        if ambiguous:
            raise PrecisionError("coordinate enclosure holds several lattice points")
        return FieldElement(self, num, den)

    def coordinate_bounds(self, limits) -> list:
        """|c_m| <= sum_s |E^-1[m][s]| * limits[s] for every x = sum_m c_m theta^m
        with |sigma_s x| <= limits[s]; E^-1 is the certified `embedding_inverse`
        at START_BITS, so the bounds are exact Fractions that hold."""
        return [sum(max(abs(e.lo), abs(e.hi)) * b for e, b in zip(row, limits))
                for row in self.embedding_inverse(START_BITS)]

    def place_table(self) -> PlaceTable:
        """The float table of theta_s^m at START_BITS and its range-rule constants
        (`walkranges.PlaceTable`), built once per field."""
        def build():
            d = self.degree
            theta = [self.embedding_interval(s, START_BITS) for s in range(d)]
            powers = [[theta[s] ** m for m in range(d)] for s in range(d)]
            return PlaceTable(powers, self.embedding_inverse(START_BITS))

        return self.cached("place_table", build)

    def box_walk(self, limits, hnf=None, shift: int = 0, on_node=None):
        """The elements of shift + L in the box |sigma_s x| <= limits[s], and some
        points near it, in coordinate order.

        L is the integer lattice of the upper-triangular row HNF `hnf`,
        Z[theta] by default; callers decide the exact condition on each
        element.  One `walkranges.walk` over the integers of the static range
        of `coordinate_bounds`, cut at the last two coordinates by the ranges
        of `PlaceTable.rule_range`: given c_0 .. c_(m-1), `pair_range`
        (m = d - 2) and `slice_range` (m = d - 1) give every c_m for which some
        real completion has |sum_k c_k emb_f[s][k]| <= W_s at every place,
        with W_s and their rounding widening from `PlaceTable.box_ranges`.
        So every element of the box is walked, in the order of the static
        range; a point the ranges drop lies outside the box.  A box beyond the
        double range keeps the static range alone.  `on_node()`, if given, is
        called at every node (each value tried for each coordinate), so a
        caller can bound its work.
        """
        d = self.degree
        if hnf is None:
            hnf = [[int(i == j) for j in range(d)] for i in range(d)]
        bound = self.coordinate_bounds(limits)
        table = self.place_table()
        try:
            widths, nu = table.box_ranges(limits, bound)
        except OverflowError:
            widths = None

        def node_ranges(m, vec):  # before d - 2 the sum rule is the static range
            if widths is None or m < d - 2:
                return None
            return [table.rule_range(m, vec, widths, nu[m])]

        for vec in walk(hnf, [shift] + [0] * (d - 1), [math.floor(b) for b in bound],
                        node_ranges, on_node):
            yield FieldElement(self, vec)

    def cached(self, key, build):
        """build(), computed once per field and kept under `key`.

        For facts that depend on the field alone, such as the torsion traces
        of `torsion.torsion_traces`.  A build that raises stores nothing.
        """
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def whole_ring(self) -> "IdealHNF":
        eye = [[1 if i == j else 0 for j in range(self.degree)] for i in range(self.degree)]
        return IdealHNF(self, eye)

    def __repr__(self):
        return f"NumberField({list(reversed(self.min_poly))}, name={self.name!r})"

    def __eq__(self, other):
        return isinstance(other, NumberField) and self.min_poly == other.min_poly

    def __hash__(self):
        return hash(tuple(self.min_poly))


def rationals() -> NumberField:
    """Q presented as the degree-1 field with minimal polynomial t."""
    return NumberField([1, 0], name="Q")


def hurwitz_field() -> NumberField:
    """The real subfield of the 7th cyclotomic field, Q(2*cos(2*pi/7)).

    The generator eta = 2*cos(2*pi/7) has minimal polynomial
    t^3 + t^2 - 2t - 1; the ring of integers Z[eta] is a principal ideal
    domain, as Minkowski's bound M = (6/27) * 7 < 2 certifies on construction.
    """
    return NumberField([1, 1, -2, -1], name="Q(eta)")


class FieldElement:
    """Element of K as integer numerators over one common denominator.

    x = (num[0] + num[1] theta + ... + num[d-1] theta^(d-1)) / den with
    den >= 1 and gcd(den, *num) = 1, so every element has exactly one
    (num, den): equality, hashing and the predicates read them directly, and
    the ring operations work on integers only.  The constructor reduces any
    nonzero den to this form.  `coords` gives the rational coordinates as
    Fractions, built once on first use.
    """

    __slots__ = ("field", "num", "den", "_coords")

    def __init__(self, field: NumberField, num, den: int = 1):
        if den != 1:
            if den < 0:
                num, den = [-n for n in num], -den
            g = math.gcd(den, *num)
            if g != 1:
                num, den = [n // g for n in num], den // g
        self.field = field
        self.num = tuple(num)
        self.den = den
        self._coords = None

    @property
    def coords(self) -> tuple:
        """Rational coordinates over the power basis (read-only Fractions)."""
        if self._coords is None:
            self._coords = tuple(Fraction(n, self.den) for n in self.num)
        return self._coords

    # -- ring structure ---------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        p, q = self.den, other.den
        if p == q:
            return FieldElement(self.field, [a + b for a, b in zip(self.num, other.num)], p)
        return FieldElement(self.field, [a * q + b * p for a, b in zip(self.num, other.num)],
                            p * q)

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.field, [-a for a in self.num], self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return FieldElement(self.field, [a * other for a in self.num], self.den)
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        field = self.field
        d = field.degree
        conv = [0] * (2 * d - 1)
        for i, a in enumerate(self.num):
            if a:
                for j, b in enumerate(other.num):
                    if b:
                        conv[i + j] += a * b
        # theta^k for k >= d folds back through the power table
        out = conv[:d]
        for k in range(d, 2 * d - 1):
            c = conv[k]
            if c:
                for m, w in enumerate(field._pow[k]):
                    if w:
                        out[m] += c * w
        return FieldElement(field, out, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = self.field.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.field is not self.field and other.field != self.field:
                raise InputError("elements of different fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.den == other.den and self.num == other.num
        if isinstance(other, (int, Fraction)):
            return (self.den == other.denominator and self.num[0] == other.numerator
                    and self.is_rational())
        return False

    def __hash__(self):
        return hash((self.num, self.den))

    def is_zero(self):
        return not any(self.num)

    def is_rational(self):
        return not any(self.num[1:])

    def is_integral(self):
        return self.den == 1

    def denominator(self) -> int:
        """The least positive integer n with n * self integral."""
        return self.den

    # -- invariants ---------------------------------------------------------

    def mult_matrix(self):
        """Matrix of multiplication by self on the power basis (rows = images)."""
        d = self.field.degree
        rows = []
        theta = self.field.gen()
        cur = self
        for k in range(d):
            rows.append(list(cur.coords))
            if k < d - 1:
                cur = cur * theta
        return rows

    def norm(self) -> Fraction:
        return det_fraction(self.mult_matrix())

    def trace(self) -> Fraction:
        return sum(row[k] for k, row in enumerate(self.mult_matrix()))

    def inverse(self) -> "FieldElement":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero field element")
        # 1/x = den / num(theta): extended Euclid of num against the minimal polynomial
        d = self.field.degree
        g, inv = poly_xgcd_mod(self.num, self.field.min_poly)
        if len(g) != 1:
            raise InvariantViolation("minimal polynomial not coprime to nonzero element")
        return self.field.element([c * self.den / g[0] for c in (inv + [Q0] * d)[:d]])

    # -- embeddings -----------------------------------------------------------

    def embed(self, place: int, bits: int) -> RatInterval:
        """Certified interval of width at most 2^-bits containing the image at
        the given real place.

        Horner on the numerators over an enclosure of theta, then one exact
        division by den.  The precision of theta starts at bits plus the size
        of the numerators and grows by what the box still lacks, so the
        enclosure depends on the element, the place and bits alone.
        """
        if self.is_rational():
            return RatInterval.exact(Fraction(self.num[0], self.den))
        target = Fraction(1, 2 ** bits)
        root_bits = bits + 4 + max(abs(n) for n in self.num).bit_length()
        while True:
            box = poly_eval_interval(self.num, self.field.embedding_interval(place, root_bits))
            if self.den != 1:
                box = box / self.den
            if box.width <= target:
                return box
            root_bits += math.ceil(box.width / target).bit_length()

    def sign_at(self, place: int) -> int:
        """Certified sign of the image at a real place (0 only for the zero element)."""
        return refine(lambda bits: self.embed(place, bits).sign(), START_BITS)

    def __str__(self):
        return "(" + ", ".join(str(c) for c in self.coords) + ")"

    def __repr__(self):
        return f"FieldElement{self}"


def abs_vs_two(t: FieldElement, place: int) -> int:
    """Sign of |sigma_place(t)| - 2, exact: zero only for t = +-2 (`embed` is
    exact on rationals)."""
    return refine(lambda b: (t.embed(place, b).abs() - 2).sign(), START_BITS)


# ---------------------------------------------------------------------------
# Ideals
# ---------------------------------------------------------------------------


class IdealHNF:
    """Nonzero integral ideal as a full-rank integer lattice in row HNF."""

    __slots__ = ("field", "mat", "norm")

    def __init__(self, field: NumberField, rows):
        self.field = field
        d = field.degree
        mat = lattice.hnf(rows, d)
        if not lattice.is_full_rank_hnf(mat, d):
            raise InputError("zero ideal (or rank-deficient lattice) rejected")
        self.mat = tuple(tuple(r) for r in mat)
        self.norm = lattice.det_upper_triangular(mat)
        self._check_module()

    def _check_module(self):
        theta = self.field.gen()
        for row in self.mat:
            elem = self.field.element(row) * theta
            if not self.contains(elem):
                raise InvariantViolation("lattice is not closed under multiplication by theta")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_generators(cls, field: NumberField, gens) -> "IdealHNF":
        gens = [g if isinstance(g, FieldElement) else field.from_rational(g) for g in gens]
        if not gens or all(g.is_zero() for g in gens):
            raise InputError("need at least one nonzero generator")
        for g in gens:
            if not g.is_integral():
                raise InputError(f"generator {g} is not an algebraic integer")
        rows = []
        theta = field.gen()
        for g in gens:
            cur = g
            for _ in range(field.degree):
                rows.append(list(cur.num))
                cur = cur * theta
        return cls(field, rows)

    @classmethod
    def principal(cls, field: NumberField, g) -> "IdealHNF":
        return cls.from_generators(field, [g])

    # -- structure -----------------------------------------------------------

    def basis_elements(self):
        return [self.field.element(r) for r in self.mat]

    def contains(self, elem: FieldElement) -> bool:
        if not elem.is_integral():
            return False
        return lattice.contains(self.mat, elem.num)

    def reduce(self, coords):
        return lattice.reduce_mod(self.mat, coords)

    def residues(self):
        """Deterministic iterator over coset representatives of O_K modulo self."""
        diag = [self.mat[i][i] for i in range(self.field.degree)]
        for tup in itertools.product(*(range(x) for x in diag)):
            yield self.reduce(list(tup))

    def __eq__(self, other):
        return (isinstance(other, IdealHNF) and self.field == other.field
                and self.mat == other.mat)

    def __hash__(self):
        return hash((self.field, self.mat))

    def is_whole_ring(self) -> bool:
        return self.norm == 1

    def __repr__(self):
        return f"IdealHNF(norm={self.norm}, mat={[list(r) for r in self.mat]})"

    def __str__(self):
        return "; ".join(" ".join(str(x) for x in row) for row in self.mat)

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other: "IdealHNF") -> "IdealHNF":
        return IdealHNF(self.field, self.mat + other.mat)

    def __mul__(self, other: "IdealHNF") -> "IdealHNF":
        rows = []
        for a in self.basis_elements():
            for b in other.basis_elements():
                rows.append(list((a * b).num))
        return IdealHNF(self.field, rows)

    def __pow__(self, n: int) -> "IdealHNF":
        if n < 0:
            raise InputError("negative ideal powers are fractional; use inverse()")
        result = self.field.whole_ring()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def intersect(self, other: "IdealHNF") -> "IdealHNF":
        return IdealHNF(self.field, lattice.intersect(self.mat, other.mat, self.field.degree))

    def divides(self, other: "IdealHNF") -> bool:
        """self | other, equivalently other is contained in self."""
        return all(lattice.contains(self.mat, row) for row in other.mat)

    def inverse(self) -> "FractionalIdeal":
        """The fractional ideal {u in K : u * self is integral}."""
        d = self.field.degree
        n = self.norm
        basis = self.basis_elements()
        # membership of w: w * b ranges over N * O_K for every ideal basis element b
        big = []
        for k in range(d):
            theta_k = self.field.element([1 if i == k else 0 for i in range(d)])
            row = []
            for b in basis:
                prod = theta_k * b
                row.extend(prod.num)
            big.append(row)
        ncols = d * d
        stacked = big + [[n if i == j else 0 for j in range(ncols)] for i in range(ncols)]
        ker = lattice.kernel(stacked, ncols)
        num_rows = [u[:d] for u in ker if any(u[:d])]
        num = IdealHNF(self.field, num_rows)
        return FractionalIdeal(num, n).normalize()

    def valuation(self, prime: "IdealHNF") -> int:
        """Exponent of a prime ideal in self (by repeated divisibility)."""
        v = 0
        power = prime
        while power.divides(self):
            v += 1
            power = power * prime
        return v


class FractionalIdeal:
    """Integral numerator over a positive integer denominator, kept minimal."""

    __slots__ = ("num", "den")

    def __init__(self, num: IdealHNF, den: int = 1):
        if den <= 0:
            raise InputError("denominator must be positive")
        self.num = num
        self.den = int(den)

    def normalize(self) -> "FractionalIdeal":
        g = math.gcd(lattice.content([list(r) for r in self.num.mat]), self.den)
        if g <= 1:
            return self
        rows = [[x // g for x in row] for row in self.num.mat]
        return FractionalIdeal(IdealHNF(self.num.field, rows), self.den // g)

    @classmethod
    def from_integral(cls, ideal: IdealHNF) -> "FractionalIdeal":
        return cls(ideal, 1)

    def contains(self, elem: FieldElement) -> bool:
        scaled = elem * self.den
        return scaled.is_integral() and self.num.contains(scaled)

    def __mul__(self, other):
        if isinstance(other, IdealHNF):
            other = FractionalIdeal.from_integral(other)
        return FractionalIdeal(self.num * other.num, self.den * other.den).normalize()

    def __eq__(self, other):
        if isinstance(other, IdealHNF):
            other = FractionalIdeal.from_integral(other)
        a = self.normalize()
        b = other.normalize()
        return a.den == b.den and a.num == b.num

    def is_whole_ring(self) -> bool:
        return self.den == 1 and self.num.is_whole_ring()

    def norm(self) -> Fraction:
        return Fraction(self.num.norm, self.den ** self.num.field.degree)

    def __repr__(self):
        return f"FractionalIdeal(1/{self.den} * {self.num!r})"


# ---------------------------------------------------------------------------
# Prime factorization above a rational prime
# ---------------------------------------------------------------------------


def factor_rational_prime(field: NumberField, p: int):
    """Factor pO_K into primes; returns [(prime ideal, e, f)] deterministically.

    Valid because construction certified Z[theta] maximal: the factorization
    mirrors the factorization of the minimal polynomial modulo p.
    """
    p = int(p)
    if not isprime(p):
        raise InputError(f"{p} is not a rational prime")
    out = []
    theta = field.gen()
    for asc, e in gf_factor(field.min_poly, p):
        g_theta = field.zero()
        power = field.one()
        for c in asc:
            g_theta = g_theta + power * c
            power = power * theta
        prime = IdealHNF.from_generators(field, [field.from_rational(p), g_theta])
        f = len(asc) - 1
        out.append((prime, e, f))
    out.sort(key=lambda t: (t[2], t[0].mat))

    total = sum(e * f for _, e, f in out)
    if total != field.degree:
        raise InvariantViolation(f"sum of e*f is {total}, expected {field.degree}")
    recombined = field.whole_ring()
    for prime, e, _ in out:
        recombined = recombined * prime ** e
    if recombined != IdealHNF.principal(field, field.from_rational(p)):
        raise InvariantViolation(f"prime factors of {p} do not recombine")
    return out


def primes_up_to_norm(field: NumberField, bound: int):
    """All prime ideals of norm <= bound, sorted by (norm, HNF)."""
    out = []
    for p in filter(isprime, range(2, bound + 1)):
        for prime, _e, f in factor_rational_prime(field, p):
            if prime.norm <= bound:
                out.append(prime)
    out.sort(key=lambda pr: (pr.norm, pr.mat))
    return out


def factor_ideal(field: NumberField, ideal: IdealHNF):
    """Prime factorization of an integral ideal as [(prime, exponent)]."""
    out = []
    for p in factorint(ideal.norm):
        for prime, _e, _f in factor_rational_prime(field, p):
            v = ideal.valuation(prime)
            if v > 0:
                out.append((prime, v))
    check = field.whole_ring()
    for prime, v in out:
        check = check * prime ** v
    if check != ideal:
        raise InvariantViolation("ideal does not factor into primes as computed")
    return out
