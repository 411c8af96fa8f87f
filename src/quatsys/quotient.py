"""Finite quotients Q/(p^t Q): exhaustive unit and norm-one counting,
radical and semisimple type from the unit count, square counting, and the
index-bound factor.

The exhaustive counts are the ground truth here; the closed-form counting
identities are the claims being validated against them.

Every ring of one order reads the order's tables (structure constants,
involution, norm form, identity; `OrderLattice.tables`, Python integers),
built once per order.  A ring adds the residue ring R = O_K/p^t
(`_residue_ring`) and four order-basis vectors that are an R-basis of
Q/p^tQ.  It counts its residues at most once, in Python integers.

Counting.  The reduced norm nu is a quadratic form on the free R-module
Q/p^tQ of rank 4, and every residue count is read off its histogram: how
many residues have each norm in R.  R is a chain ring, so the form splits
orthogonally into pieces of rank at most 2 (O'Meara, Introduction to
Quadratic Forms, sections 91-93), and the histogram is the convolution of
the pieces' histograms over the additive group of R: O(|R|^2) integer
operations in place of the |R|^4 residues.  Where the HNF of p^t has one
diagonal entry n > 1, R is Z/n in integers (`_CyclicRing`; every ring over
Q), else `_ResidueRing`.  The count works in five steps.

1. Four order-basis vectors e_a are an R-basis of Q/p^tQ for every t
   (`_residue_basis`).  The order's HNF is block upper triangular, so Q has
   a filtration by O_K-modules whose steps are the coefficient ideals B_l
   of its quaternion blocks; e_l is the first HNF row pivoting in block l
   whose block-l part lies outside B_l p, and it generates that step at p.
   The B_l depend on the order alone, so a count builds no congruence
   lattice I*Q and no HNF of Q's rank.
2. Their Gram data over R, nu(e_a) and B(e_a, e_b) = trd(e_a conj(e_b)), is
   read off the norm tensor T, which the order's certificate shows integral
   on all of Q (`OrderLattice._certify`).
3. `_split` takes the entry of least valuation among B(e_a, e_a) = 2 nu(e_a)
   and the B(e_a, e_b).  A diagonal pivot splits e_a off with rank 1, an
   off-diagonal one (both diagonal entries then have larger valuation) e_a
   and e_b as a binary block.  Once B vanishes on what is left, each vector
   left is a piece of rank 1.  Every projection divides by the pivot, whose
   valuation is the least, so it is solved exactly in R.
4. `_piece_forms` recomputes each piece's form from the Gram data and raises
   `InvariantViolation` unless vectors of distinct pieces are orthogonal;
   the histogram must hold q^(4t) residues.
5. The pieces' histograms (R or R^2 points) are convolved over R.
"""

from __future__ import annotations

import functools
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from typing import NamedTuple

from . import lattice
from .errors import CapExceeded, InputError, InvariantViolation
from .numfield import IdealHNF, factor_ideal
from .orders import OrderLattice
from .quatalg import RAMIFIED, QuaternionAlgebra

DEFAULT_CAP = 10 ** 7


class FiniteQuotRing:
    """The finite ring Q/(p^t Q) with its involution and central norm map."""

    def __init__(self, order: OrderLattice, prime: IdealHNF, t: int,
                 cap: int = DEFAULT_CAP):
        if t < 1:
            raise InputError("exponent t must be >= 1")
        self.order = order
        self.prime = prime
        self.t = t
        self.q = prime.norm
        # as q >= 2, q^(4t) > cap exactly when q^min(4t, bits of cap) > cap
        if self.q ** min(4 * t, cap.bit_length()) > cap:
            raise CapExceeded(f"quotient has q^(4t) = {self.q}^{4 * t} residues, "
                              f"above the cap {cap}")
        self.ideal = prime ** t
        self.cardinality = self.ideal.norm ** 4

        self.dim = order.dim
        self.kappa = order.kappa
        self.tables = order.tables
        self.norm_tensor = self.tables.norm_tensor
        self.residues = _residue_ring(prime, t, self.ideal)
        self._basis = _residue_basis(order, prime)
        self._counts = None

    # -- counting -----------------------------------------------------------

    def _gram(self):
        """(nu(e_a), B(e_a, e_b)) over R on the residue basis, as residue keys;
        kappa divides each entry read, by the order's certificate."""
        kappa, tensor = self.kappa, self.norm_tensor
        reduce = self.residues.reduce
        basis = self._basis
        norms = [reduce([c // kappa for c in tensor[a][a]]) for a in basis]
        polar = [[reduce([(x + y) // kappa for x, y in zip(tensor[a][b], tensor[b][a])])
                  for b in basis] for a in basis]
        return norms, polar

    def _norm_histogram(self) -> dict:
        """Number of residues x with nu(x) = r, for every residue key r that occurs.

        The split count of the module docstring.
        """
        ring = self.residues
        norms, polar = self._gram()
        hist = {ring.zero: 1}
        for piece in _piece_forms(ring, norms, polar, _split(ring, norms, polar)):
            hist = ring.convolve(hist, ring.histogram(*piece))
        if sum(hist.values()) != self.cardinality:
            raise InvariantViolation("the split count missed residues")
        return hist

    def count_units_and_norm_one(self):
        """(units, norm-one residues), counted on the first call only."""
        if self._counts is None:
            hist, ring = self._norm_histogram(), self.residues
            self._counts = (sum(n for r, n in hist.items() if ring.is_unit(r)),
                            hist.get(ring.one, 0))
        return self._counts

    def count_norm_one(self) -> int:
        return self.count_units_and_norm_one()[1]

    # -- radical and semisimple type (t == 1) ---------------------------------

    def radical_and_type(self):
        """(radical size, semisimple type tag) for the t == 1 quotient.

        R = Q/pQ is a 4-dimensional algebra over F_q = O_K/p whose every x
        satisfies x^2 - trd(x) x + nrd(x) = 0, so each element of T = R/J
        has degree at most 2 over F_q.  By Wedderburn T is a product of
        matrix rings over extensions of F_q, of dimension at most 4; degree
        at most 2 leaves F_q, F_q2, F_q x F_q and M2(F_q) ((b, 0) has degree
        3 when b generates F_q2), and F_2^3 and F_2^4 ((0, 1, c) has degree
        3 in F_q^3 when q > 2).  x is a unit exactly when its image in T is,
        so R has q^(4 - dim T) * |T^x| units.  These counts are pairwise
        distinct (q^3 (q-1), q^2 (q^2-1), q^2 (q-1)^2, q (q-1) (q^2-1), and
        2 and 1 at q = 2), so the exact unit count names T and |J|.  A count
        that matches no type raises `InvariantViolation`.
        """
        if self.t != 1:
            raise InputError("type classification only applies to t == 1")
        units, _ = self.count_units_and_norm_one()
        q = self.q
        types = [  # (tag, dim T, |T^x|)
            ("F_q", 1, q - 1),
            ("F_q2", 2, q ** 2 - 1),
            ("F_q x F_q", 2, (q - 1) ** 2),
            ("M2(F_q)", 4, (q ** 2 - 1) * (q ** 2 - q)),
        ]
        if q == 2:
            types += [("F_q x F_q x F_q", 3, 1), ("F_q x F_q x F_q x F_q", 4, 1)]
        for tag, dim, t_units in types:
            if q ** (4 - dim) * t_units == units:
                return q ** (4 - dim), tag
        raise InvariantViolation(
            f"{units} units match none of the admissible semisimple types")


class _KeySums:
    """Addition of residue keys by one lookup: `_sums[x + y]` is the key of x + y."""

    def add(self, x: int, y: int) -> int:
        return self._sums[x + y]

    def convolve(self, left: dict, right: dict) -> dict:
        """The histogram of x + y, x and y drawn from the two histograms."""
        sums, out = self._sums, {}
        for x, m in left.items():
            for y, n in right.items():
                z = sums[x + y]
                out[z] = out.get(z, 0) + m * n
        return out


class _ResidueRing(_KeySums):
    """R = O_K/p^t, its elements as integer keys.

    A residue is its coordinate vector c reduced by the HNF of p^t
    (0 <= c_k < h_k, h the HNF's diagonal), and its key is sum c_k W_k in the
    radix 2 h_k - 1.  Two keys then add with no carry between digits, and
    `_sums`, one reduction per digit vector, maps the sum to the key of the
    reduced sum: an addition is one table lookup.  Every nonzero residue is
    pi^s u with u a unit and s < t, pi in p outside p^2; `_factored` keeps one
    such (s, u) per residue, which gives valuations and exact division.  Both
    tables are built on first use, so a square count builds neither.  Units
    and pi are found by membership of coordinates in the HNFs of p and p^2,
    and inverses by `NumberField.power_mod`, all on integer vectors.
    """

    def __init__(self, prime: IdealHNF, t: int, ideal: IdealHNF):
        self.field = field = prime.field
        self.prime = prime
        self.t = t
        self.mat = ideal.mat
        diag = [row[k] for k, row in enumerate(ideal.mat)]
        self._radix = radix = [2 * h - 1 for h in diag]
        self._weights = [1] * len(diag)
        for k in range(len(diag) - 2, -1, -1):
            self._weights[k] = self._weights[k + 1] * radix[k + 1]
        self._coords = {self.key(c): c for c in product(*map(range, diag))}
        self.elements = list(self._coords)
        self.zero = 0
        self.one = self.reduce([1] + [0] * (field.degree - 1))
        # the active columns' basis elements theta^k, whose integer combinations
        # with coefficients below h_k are the residues (`multiples`)
        self._steps = [(h, self.key([int(j == k) for j in range(len(diag))]))
                       for k, h in enumerate(diag) if h > 1]
        self.units = frozenset(x for x, c in self._coords.items()
                               if not lattice.contains(prime.mat, c))
        self._inverses = {}
        self._squares = None

    def is_unit(self, x: int) -> bool:
        return x in self.units

    @functools.cached_property
    def _sums(self) -> list:
        # keys are increasing in the product order, last coordinate fastest
        return [self.reduce(raw) for raw in product(*map(range, self._radix))]

    @functools.cached_property
    def _pi_powers(self) -> list:
        """pi^s for s < t."""
        powers = [self.one]
        if self.t > 1:
            square = (self.prime * self.prime).mat
            pi = next(self.reduce(row) for row in self.prime.mat
                      if not lattice.contains(square, row))
            for _ in range(1, self.t):
                powers.append(self.mul(powers[-1], pi))
        return powers

    @functools.cached_property
    def _factored(self) -> dict:
        factored = {u: (0, u) for u in self.units}
        for s, power in enumerate(self._pi_powers[1:], 1):
            for u in self.units:
                factored.setdefault(self.mul(power, u), (s, u))
        if len(factored) != len(self.elements) - 1:
            raise InvariantViolation("a nonzero residue is no unit times a power of pi")
        return factored

    def key(self, coords) -> int:
        return sum(c * w for c, w in zip(coords, self._weights))

    def reduce(self, vec) -> int:
        """The key of the residue of an integral coordinate vector."""
        return self.key(lattice.reduce_mod(self.mat, vec))

    def neg(self, x: int) -> int:
        return self.reduce([-c for c in self._coords[x]])

    def mul(self, x: int, y: int) -> int:
        if x == self.zero or y == self.one:
            return x
        if y == self.zero or x == self.one:
            return y
        return self.reduce(self.field.mul_vec(self._coords[x], self._coords[y]))

    def valuation(self, x: int) -> int:
        return self.t if x == self.zero else self._factored[x][0]

    def inverse(self, u: int) -> int:
        """u^-1 = u^(|R^x| - 1) for a unit u."""
        if u not in self._inverses:
            self._inverses[u] = self.key(self.field.power_mod(self._coords[u],
                                                              len(self.units) - 1, self.mat))
        return self._inverses[u]

    def div(self, x: int, y: int) -> int:
        """Some z with y z = x, for y != 0 and v(x) >= v(y)."""
        if x == self.zero:
            return x
        (r, u), (s, w) = self._factored[x], self._factored[y]
        if r < s:
            raise InvariantViolation("a projection divides by a pivot of larger valuation")
        return self.mul(self._pi_powers[r - s], self.mul(u, self.inverse(w)))

    def multiples(self, m: int) -> list:
        """[m * y for y in elements], one product per active column: m * y is
        the sum of the m * theta^k that y's coordinates count."""
        out = [self.zero]
        for h, step in self._steps:
            mk = self.mul(m, step)
            row = [self.zero]
            for _ in range(h - 1):
                row.append(self._sums[row[-1] + mk])
            out = [self._sums[x + y] for x in out for y in row]
        return out

    def squares(self) -> list:
        """[y^2 for y in elements], computed once."""
        if self._squares is None:
            self._squares = [self.mul(y, y) for y in self.elements]
        return self._squares

    def histogram(self, norms, polar) -> dict:
        """How many points of R (one norm) or R^2 (two norms and their polar
        value) take each value of the piece's form."""
        position = {y: i for i, y in enumerate(self.elements)}

        def scaled_squares(c):  # c * y^2 for y in elements
            by_c = self.multiples(c)
            return [by_c[position[s]] for s in self.squares()]

        if len(norms) == 1:
            return Counter(scaled_squares(norms[0]))
        sums, first, second = self._sums, scaled_squares(norms[0]), scaled_squares(norms[1])
        hist = Counter()
        for x, ax in zip(self.elements, first):
            hist.update(sums[sums[ax + cy] + bxy]
                        for cy, bxy in zip(second, self.multiples(self.mul(polar, x))))
        return hist


class _CyclicRing(_KeySums):
    """R = O_K/p^t = Z/n, its elements as the integers 0 <= m < n.

    `_residue_ring` builds it exactly when the HNF of p^t has one diagonal
    entry n > 1, at column k.  The reduced residues are then c theta^k,
    0 <= c < n, so the additive group of R is cyclic, and a unital ring with
    a cyclic additive group is Z/n: m 1 = 0 forces m x = 0 for every x, so 1
    has additive order n.  Hence f = 1 and n = p^t; a residue is the m with
    x = m 1, the units are the m prime to p and the valuation is v_p.
    """

    def __init__(self, prime: IdealHNF, t: int, ideal: IdealHNF, k: int):
        self.t, self.p, self.n = t, prime.norm, ideal.mat[k][k]
        if self.n != self.p ** t:
            raise InvariantViolation("a cyclic O_K/p^t has no p^t residues")
        # x reduces to c theta^k; 1 to c_1 theta^k, so x = c c_1^-1 1
        self._mat, self._k = ideal.mat, k
        one = [int(j == 0) for j in range(prime.field.degree)]
        self._scale = pow(lattice.reduce_mod(ideal.mat, one)[k], -1, self.n)
        self.elements, self.zero, self.one = range(self.n), 0, 1

    @functools.cached_property
    def _sums(self) -> list:
        return [z % self.n for z in range(2 * self.n - 1)]

    def is_unit(self, x: int) -> bool:
        return x % self.p != 0

    def reduce(self, vec) -> int:
        return lattice.reduce_mod(self._mat, vec)[self._k] * self._scale % self.n

    def neg(self, x: int) -> int:
        return -x % self.n

    def mul(self, x: int, y: int) -> int:
        return x * y % self.n

    def valuation(self, x: int) -> int:
        return next((s for s in range(self.t) if x % self.p ** (s + 1)), self.t)

    def div(self, x: int, y: int) -> int:
        """x/p^s (y/p^s)^-1 with s = v(y), for y != 0 and v(x) >= v(y)."""
        s = self.valuation(y)
        if self.valuation(x) < s:
            raise InvariantViolation("a projection divides by a pivot of larger valuation")
        return x // self.p ** s * pow(y // self.p ** s, -1, self.n) % self.n

    def histogram(self, norms, polar) -> dict:
        """As `_ResidueRing.histogram`: a y^2 over R, or a y^2 + b x y + c x^2 over R^2."""
        n = self.n
        first = [norms[0] * y * y % n for y in self.elements]
        if len(norms) == 1:
            return Counter(first)
        hist = Counter()
        for x in self.elements:
            cx, bx = norms[1] * x * x, polar * x
            hist.update((ay + bx * y + cx) % n for y, ay in enumerate(first))
        return hist


def _residue_ring(prime: IdealHNF, t: int, ideal: IdealHNF):
    """R = O_K/p^t for ideal = p^t: Z/n (`_CyclicRing`) when the HNF of p^t has
    one diagonal entry n > 1, else `_ResidueRing`."""
    active = [k for k, row in enumerate(ideal.mat) if row[k] > 1]
    cyclic = len(active) == 1
    return _CyclicRing(prime, t, ideal, active[0]) if cyclic else _ResidueRing(prime, t, ideal)


def _residue_basis(order: OrderLattice, prime: IdealHNF) -> list:
    """Four order-basis indices a_0 .. a_3 whose w_a are an R-basis of Q/p^tQ
    for every t, read off the order's HNF block filtration.

    Let Q_l be the elements of Q whose quaternion blocks 0 .. l-1 vanish.  O_K
    acts block by block, so Q_l is an O_K-module, and projection to block l
    is O_K-linear with kernel Q_(l+1).  The HNF is upper triangular, so Q_l
    is spanned by the rows that pivot in blocks l and later, and the image of
    the projection, scaled by kappa, is B_l: the span over Z of the block-l
    parts of the d rows that pivot in block l (`_block_ideals`), an integral
    ideal (Cohen, GTM 193, ch. 1, HNF over Dedekind domains).  As
    B_l p != B_l, one of those d rows, w_(a_l), has its block-l part outside
    B_l p; that part generates B_l at p.  So
    Q_(l,p) = O_(K,p) w_(a_l) (+) Q_(l+1,p), and by induction the four rows
    are an O_(K,p)-basis of Q_p, hence an R-basis of Q/p^tQ.

    The checks are exact: `IdealHNF` certifies that each B_l is an ideal,
    and `lattice.contains` decides membership in B_l p on the integer row.
    If no row of a block qualifies, the argument above is broken and
    `InvariantViolation` is raised.
    """
    d = order.algebra.field.degree
    blocks = order.cached("block_ideals", lambda: _block_ideals(order))
    # the B_l repeat (O_K, O_K, 2 O_K, 2 O_K for the Hurwitz order)
    scaled = {block: block * prime for block in set(blocks)}
    chosen = []
    for l, block in enumerate(blocks):
        cols = slice(l * d, (l + 1) * d)
        a = next((a for a in range(l * d, (l + 1) * d)
                  if not lattice.contains(scaled[block].mat, order.mat[a][cols])), None)
        if a is None:
            raise InvariantViolation(f"no row of block {l} generates its coefficient ideal at p")
        chosen.append(a)
    return chosen


def _block_ideals(order: OrderLattice) -> list:
    """B_0 .. B_3: B_l is spanned by the block-l parts of the d HNF rows of
    the order that pivot in block l (`_residue_basis`)."""
    field = order.algebra.field
    d = field.degree
    return [IdealHNF(field, [row[l * d:(l + 1) * d] for row in order.mat[l * d:(l + 1) * d]])
            for l in range(4)]


def _split(ring: _ResidueRing | _CyclicRing, norms, polar) -> list:
    """An orthogonal splitting of the form with nu(e_a) = norms[a] and
    B(e_a, e_b) = polar[a][b] over R, into pieces of rank 1 or 2.

    Returns the pieces as lists of coefficient vectors over the e_a (the
    module docstring's step 3); each step is an e_c += lam e_x, so the
    vectors stay an R-basis.
    """
    norms, polar = list(norms), [list(row) for row in polar]
    n = len(norms)
    vecs = [[ring.one if a == b else ring.zero for b in range(n)] for a in range(n)]
    rest, pieces = list(range(n)), []
    add, mul, div, neg = ring.add, ring.mul, ring.div, ring.neg

    def shift(c, lam, x):
        """e_c += lam e_x, keeping the Gram data of the vectors in `rest`."""
        norms[c] = add(add(norms[c], mul(mul(lam, lam), norms[x])), mul(lam, polar[c][x]))
        for y in rest:
            if y != c:
                polar[c][y] = polar[y][c] = add(polar[c][y], mul(lam, polar[x][y]))
        polar[c][c] = add(norms[c], norms[c])
        vecs[c] = [add(u, mul(lam, w)) for u, w in zip(vecs[c], vecs[x])]

    while rest:
        val, off, a, b = min((ring.valuation(polar[x][y]), x != y, x, y)
                             for i, x in enumerate(rest) for y in rest[i:])
        if val >= ring.t:  # B vanishes on what is left
            pieces += [[vecs[x]] for x in rest]
            break
        others = [c for c in rest if c not in (a, b)]
        if not off:
            for c in others:
                shift(c, neg(div(polar[c][a], polar[a][a])), a)
            pieces.append([vecs[a]])
        else:
            # f = e_b - w e_a is orthogonal to e_b, and B(f, e_a) has valuation val
            w = div(polar[b][b], polar[a][b])
            f_a = add(polar[a][b], neg(mul(w, polar[a][a])))
            for c in others:
                shift(c, neg(div(polar[c][b], polar[a][b])), a)  # now B(e_c, e_b) = 0
                lam = neg(div(polar[c][a], f_a))
                shift(c, lam, b)  # e_c += lam f
                shift(c, neg(mul(lam, w)), a)
            pieces.append([vecs[a], vecs[b]])
        rest = others
    return pieces


def _piece_forms(ring: _ResidueRing | _CyclicRing, norms, polar, pieces) -> list:
    """(the norms of a piece's vectors, their polar value or None) for every
    piece, from the Gram data of the basis.

    Raises `InvariantViolation` unless vectors of distinct pieces are
    orthogonal, so a split is used only once it is checked.
    """
    add, mul = ring.add, ring.mul

    def form(v, w, quadratic):
        out = ring.zero
        for a, x in enumerate(v):
            if x != ring.zero:
                for b, y in enumerate(w):
                    if y != ring.zero and (not quadratic or a <= b):
                        out = add(out, mul(mul(x, y), norms[a] if quadratic and a == b
                                           else polar[a][b]))
        return out

    tagged = [(k, v) for k, piece in enumerate(pieces) for v in piece]
    for (k, v), (l, w) in combinations(tagged, 2):
        if k != l and form(v, w, False) != ring.zero:
            raise InvariantViolation("the split of the norm form is not orthogonal")
    return [([form(v, v, True) for v in piece],
             form(*piece, False) if len(piece) == 2 else None) for piece in pieces]


# ---------------------------------------------------------------------------
# Closed forms and envelopes
# ---------------------------------------------------------------------------


def maxim_formula(q: int, t: int, division_case: bool) -> int:
    """Norm-one count in the quotient of a maximal local order.

    q^{3t}(1 + 1/q) when the completion is a division algebra,
    q^{3t}(1 - 1/q^2) = |SL_2| * q^{3(t-1)} when it is a matrix algebra.
    """
    if t < 1 or q < 2:
        raise InputError("need q >= 2, t >= 1")
    if division_case:
        value = (q + 1) * q ** (3 * t - 1)
    else:
        value = (q ** 3 - q) * q ** (3 * (t - 1))
    return value


def unit_envelope(q: int) -> int:
    """Upper bound for units of any t=1 quotient: the supremum q^2 (q^2 - 1).

    With R = T + J of dimension 4 over F_q, the unit count is
    |J| * |T^x| = q^(4 - dim T) * |T^x|; maximizing over the admissible
    semisimple types (`FiniteQuotRing.radical_and_type`) gives the
    local-ring case T = F_{q^2} (the quotient of a maximal order in the
    division case), with q^2 (q^2 - 1) units.
    """
    return q ** 2 * (q ** 2 - 1)


def norm_one_envelope(q: int, t: int, division_case: bool, diadic_e: int = 0) -> Fraction:
    """Envelope for (norm-one count) / q^{3t} for possibly non-maximal orders."""
    q = Fraction(q)
    if division_case and diadic_e == 0:
        return 2 * (1 - q ** -2)
    if division_case:
        return 2 * (1 - q ** -1) * (1 - q ** -2) * q ** diadic_e
    if diadic_e == 0:
        return 2 * (1 - q ** -1)
    return 2 * (1 - q ** -1) ** 2 * q ** diadic_e


# ---------------------------------------------------------------------------
# Squares in the central quotient
# ---------------------------------------------------------------------------


class SquaresReport(NamedTuple):
    prime_norm: int
    t: int
    diadic_e: int
    count: int
    formula_value: Fraction
    is_lower_bound: bool
    equality_claimed: bool
    matches: bool
    discrepancy: bool


def squares_count(prime: IdealHNF, t: int, cap: int = DEFAULT_CAP) -> int:
    """Exhaustive count of squares in the unit group of O_K/p^t (`_residue_ring`)."""
    q = prime.norm
    # as q >= 2, q^t > cap exactly when q^min(t, bits of cap) > cap
    if q ** min(t, cap.bit_length()) > cap:
        raise CapExceeded(f"O_K/p^t has q^t = {q}^{t} residues, above the cap {cap}")
    ring = _residue_ring(prime, t, prime ** t)
    return len({ring.mul(x, x) for x in ring.elements if ring.is_unit(x)})


def lemma44_check(prime: IdealHNF, t: int, cap: int = DEFAULT_CAP) -> SquaresReport:
    """Compare the exhaustive square count with the closed form.

    Odd primes: the count must equal (q-1)/2 * q^(t-1).  Even primes: the
    closed form is only the lower bound q^(t-e)/2, with equality claimed
    for t >= 2e+1; a failure of that equality clause is reported as a
    discrepancy, never silently reconciled.
    """
    field = prime.field
    two = IdealHNF.principal(field, field.from_rational(2))
    e = two.valuation(prime) if prime.divides(two) else 0
    q = prime.norm
    count = squares_count(prime, t, cap)
    if e == 0:
        formula = Fraction((q - 1) * q ** (t - 1), 2)
        matches = count == formula
        return SquaresReport(q, t, e, count, formula, False, True, matches,
                             discrepancy=not matches)
    formula = Fraction(q ** max(t - e, 0), 2)
    bound_ok = count >= formula or t <= e  # for tiny t the unit group may be smaller
    equality_claimed = t >= 2 * e + 1
    equality_holds = Fraction(count) == formula
    discrepancy = (equality_claimed and not equality_holds) or not bound_ok
    return SquaresReport(q, t, e, count, formula, True, equality_claimed,
                         equality_holds, discrepancy)


# ---------------------------------------------------------------------------
# The index-bound factor and Norm(I)^3 bound
# ---------------------------------------------------------------------------


class LambdaFactor(NamedTuple):
    t1_norms: list
    t2_norms: list
    diadic_exponents: dict
    value: Fraction


def lambda_factor(algebra: QuaternionAlgebra, order: OrderLattice,
                  ideal: IdealHNF) -> LambdaFactor:
    """The product over primes dividing the ideal that scales the index bound.

    T1: primes where the algebra ramifies; T2: primes above a rational prime
    in `order.nonmaximal_primes`.  A prime in T2 where the order is maximal
    only raises the bound.  Contribution (1 + 1/q) for T1 \\ T2, a factor 2
    for T2, and an extra q^e for even primes in T2.
    """
    field = algebra.field
    nonmaximal = order.nonmaximal_primes
    two = IdealHNF.principal(field, field.from_rational(2))
    value = Fraction(1)
    t1_norms, t2_norms = [], []
    diadic_exponents = {}
    third_product = 1
    for prime, _t in factor_ideal(field, ideal):
        in_t1 = algebra.finite_prime_status(prime) == RAMIFIED
        in_t2 = any(prime.norm % p == 0 for p in nonmaximal)
        if in_t1:
            t1_norms.append(prime.norm)
        if in_t2:
            t2_norms.append(prime.norm)
        if in_t1 and not in_t2:
            value *= 1 + Fraction(1, prime.norm)
        if in_t2:
            value *= 2
            if prime.divides(two):
                e = two.valuation(prime)
                diadic_exponents[prime.norm] = e
                value *= prime.norm ** e
                third_product *= prime.norm ** e
    if third_product > 2 ** field.degree:
        raise InvariantViolation("diadic product exceeds Norm(2) = 2^d")
    return LambdaFactor(t1_norms, t2_norms, diadic_exponents, value)


def index_bound(algebra: QuaternionAlgebra, order: OrderLattice, ideal: IdealHNF) -> int:
    """lambda * Norm(I)^3, an upper bound for the congruence index."""
    lam = lambda_factor(algebra, order, ideal)
    bound = lam.value * Fraction(ideal.norm) ** 3
    if bound.denominator != 1:
        raise InvariantViolation("index bound should be an integer")
    return int(bound)


def count_norm_one_ideal(order: OrderLattice, ideal: IdealHNF,
                         cap: int = DEFAULT_CAP) -> int:
    """Norm-one count of Q/IQ for composite I, via its prime-power factors."""
    total = 1
    for prime, t in factor_ideal(order.algebra.field, ideal):
        ring = FiniteQuotRing(order, prime, t, cap=cap)
        total *= ring.count_norm_one()
    return total
