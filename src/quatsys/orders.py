"""Orders in a quaternion algebra as certified rank-4d integer lattices.

An order is stored over the scaled standard basis (1/kappa) * {1,i,j,ij} x
(power basis of K), with kappa the least positive integer clearing all
denominators of the supplied basis.  Construction never trusts its input:
the O_K-module spanned by the generators is closed under multiplication
pass by pass.  A pass multiplies every pair of basis rows on the algebra's
integer multiplication table (`QuaternionAlgebra.mul_table`), with no
quaternion arithmetic; when every product solves against the lattice, that
pass is the closure certificate, and otherwise the lattice is re-spanned
with the products.

Order-level tables: the structure constants, the involution, the norm form
and the identity over the order's own basis are tuples of Python integers
that depend on the order alone.  The structure constants are the
certifying pass's solutions; the constructor builds the others
(`OrderLattice.tables`) and certifies the order from them: it contains 1,
is closed under multiplication and the standard involution, has integral
reduced traces and norm form, and kappa | 2ab.  Every finite quotient and
congruence lattice of the order reads the same tables, and so does the
maximality test on its discriminant (`nonmaximal_primes`).

Congruence structure: for an ideal I of the center, I*Q is the Z-span of
the products alpha * w, alpha in a Z-basis of I and w in one of Q, and the
level-I congruence group consists of the norm-one elements x with
x - 1 in I*Q.  I*Q is a two-sided ideal stable under the involution by
construction, as I is central (`CongruenceIdealLattice`), so it carries no
certificate of its own.  Membership tests are integer lattice solves, hence
exact.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import gcd, isqrt, lcm, prod
from typing import NamedTuple

from . import lattice
from .errors import InputError, InvariantViolation
from .numfield import FieldElement, IdealHNF, NumberField, factor_rational_prime, hurwitz_field
from .polys import det_fraction, factorint
from .quatalg import RAMIFIED, QuatElement, QuaternionAlgebra

_MAX_CLOSE_ITERS = 12


def scaled_row(x: QuatElement, kappa: int):
    """Integer coordinates of kappa*x over the scaled standard basis, or None.

    A coordinate num/den in lowest terms (gcd(den, *num) = 1) has
    kappa*num/den integral exactly when den divides kappa.
    """
    row = []
    for c in x.coords:
        if kappa % c.den:
            return None
        scale = kappa // c.den
        row.extend(n * scale for n in c.num)
    return row


def unflatten(algebra: QuaternionAlgebra, row, den: int = 1) -> QuatElement:
    """The quaternion with scaled standard coordinates `row` over `den`."""
    d = algebra.field.degree
    return QuatElement(algebra, [FieldElement(algebra.field, row[l * d:(l + 1) * d], den)
                                 for l in range(4)])


class OrderTables(NamedTuple):
    """Integer tables of an order over its basis w_0 .. w_{n-1}, as tuples of ints.

    struct[a][b]       coordinates of w_a * w_b
    invol[a]           coordinates of conj(w_a)
    norm_tensor[a][b]  kappa times the power-basis coordinates of the
                       1-component of w_a * conj(w_b), so that the reduced
                       norm of x = sum x_a w_a is sum x_a x_b norm_tensor[a][b] / kappa
    one                coordinates of 1
    """

    struct: tuple
    invol: tuple
    norm_tensor: tuple
    one: tuple


class OrderLattice:
    """An order containing O_K, with certified multiplicative closure."""

    def __init__(self, algebra: QuaternionAlgebra, generators, name=None):
        self.algebra = algebra
        self.generators = generators = tuple(generators)
        self.name = name or "order"
        kappa, mat = _module_span(algebra, generators)
        for _ in range(_MAX_CLOSE_ITERS):
            struct, span = _closure_pass(algebra, kappa, mat)
            if struct is not None:
                break
            kappa, mat = span
        else:
            raise InputError("generators do not span an order: closure did not stabilize")
        self.kappa, self.mat = kappa, mat
        dim = 4 * algebra.field.degree
        if len(self.mat) != dim:
            raise InputError(f"order lattice has rank {len(self.mat)}, expected {dim}")
        if not lattice.is_full_rank_hnf(self.mat, dim):
            raise InvariantViolation("order lattice lost rank during normalization")
        if not self.contains(algebra.one()):
            raise InputError("generators span a ring without 1: order does not contain 1")
        tables = _build_tables(self, struct)
        self._certify(tables)
        self.tables = tables
        self._cache = {}  # facts about the order alone that other modules compute (`cached`)

    # -- certification ------------------------------------------------------

    def _certify(self, tables: OrderTables):
        """Certify the order from its tables; no quaternion is multiplied.

        The tables exist, so the lattice contains 1 and is closed under
        multiplication and the involution.  The reduced trace of w_a is
        2 head_a / kappa, with head_a the first d entries of row a of `mat`;
        with T the norm tensor, its reduced norm is T[a][a] / kappa and the
        polar value trd(w_a conj(w_b)) is (T[a][b] + T[b][a]) / kappa, the
        trace of an order element, so no order fails that check.  No finite
        quotient checks the norm form again.
        """
        d, kappa, tensor = self.algebra.field.degree, self.kappa, tables.norm_tensor
        if (any(2 * c % kappa for row in self.mat for c in row[:d])
                or any(c % kappa for a, plane in enumerate(tensor) for c in plane[a])
                or any((x + y) % kappa for a, plane in enumerate(tensor) for b in range(a)
                       for x, y in zip(plane[b], tensor[b][a]))):
            raise InvariantViolation("order element with non-integral trace or norm")
        quota = self.algebra.a * self.algebra.b * 2
        if quota.den != 1 or any(c % self.kappa for c in quota.num):
            raise InvariantViolation(f"kappa={self.kappa} does not divide 2ab")

    # -- maximality -------------------------------------------------------------

    def discriminant_norm(self) -> int:
        """N(disc O), from |det Tr_{K/Q} trd(w_a w_b)| = d_K^4 N(disc O)^2.

        trd(w_c) = 2 head_c / kappa (see `_certify`), so the Gram entry of
        w_a, w_b is sum_c struct[a][b][c] tau_c with tau_c = Tr_{K/Q} trd(w_c).
        """
        field = self.algebra.field
        d = field.degree
        tau = [int(FieldElement(field, row[:d], self.kappa).trace() * 2) for row in self.mat]
        gram = [[sum(s * t for s, t in zip(entry, tau)) for entry in plane]
                for plane in self.tables.struct]
        square, rest = divmod(int(abs(det_fraction(gram))), field.disc ** 4)
        root = isqrt(square)
        if rest or root * root != square:
            raise InvariantViolation(f"order discriminant {square} over d_K^4 is not a square")
        return root

    @functools.cached_property
    def nonmaximal_primes(self) -> frozenset:
        """The rational primes p at which the order is not maximal.

        A maximal order's reduced discriminant is the product of the finite
        primes where the algebra ramifies; a smaller order's is a proper
        multiple of it at every prime where the order is not maximal.  So the
        order is maximal at every prime above p exactly when the p-part of
        N(disc O) is the product of N(P) over the ramified P | p.  Computed on
        first use, never by the constructor.
        """
        algebra = self.algebra
        out = set()
        for p, e in factorint(self.discriminant_norm()).items():
            ramified = [prime.norm for prime, _e, _f in factor_rational_prime(algebra.field, p)
                        if algebra.finite_prime_status(prime) == RAMIFIED]
            if p ** e != prod(ramified):
                out.add(p)
        return frozenset(out)

    # -- basic structure ------------------------------------------------------

    @property
    def dim(self):
        return 4 * self.algebra.field.degree

    def kappa_element(self) -> FieldElement:
        return self.algebra.field.from_rational(self.kappa)

    def basis_elements(self):
        return [unflatten(self.algebra, row, self.kappa) for row in self.mat]

    def coords(self, x: QuatElement):
        """Integer coordinates of x over the order basis, or None if x is not in the order."""
        vec = scaled_row(x, self.kappa)
        if vec is None:
            return None
        return lattice.solve_triangular(self.mat, vec)

    def contains(self, x: QuatElement) -> bool:
        return self.coords(x) is not None

    def cached(self, key: str, build):
        """build(), computed once per order and kept under `key`.

        For facts that depend on the order alone, such as the enumerator's
        enclosures and integer forms (`geodesics.Enumerator`).  A build that
        raises stores nothing.
        """
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def __eq__(self, other):
        return (isinstance(other, OrderLattice) and self.algebra == other.algebra
                and self.kappa == other.kappa and self.mat == other.mat)

    def __repr__(self):
        return f"OrderLattice({self.name}, kappa={self.kappa})"

    # -- congruence structure ---------------------------------------------------

    def congruence_lattice(self, ideal: IdealHNF) -> "CongruenceIdealLattice":
        """I*Q, built once per ideal (`cached`)."""
        return self.cached(("congruence_lattice", ideal),
                           lambda: CongruenceIdealLattice(self, ideal))

    def minus_one_in_gamma(self, ideal: IdealHNF) -> bool:
        """Whether -1 lies in Gamma(I): exactly when 2 lies in I.

        -1 has norm one, so it lies in Gamma(I) iff -2 lies in I*Q.  Q meets K
        in O_K (its elements are integral), so at each prime p, Q_p / O_K,p is
        torsion-free, hence free over the DVR O_K,p: Q_p = O_K,p (+) M.  Then
        I_p Q_p = I_p (+) I_p M meets O_K,p in I_p, so I*Q meets O_K in I.
        """
        return ideal.contains(self.algebra.field.from_rational(2))


class CongruenceIdealLattice:
    """The two-sided ideal I*Q as a rank-4d sublattice of the order Q.

    `mat` is its row HNF over the scaled standard basis (as for the order),
    spanned by alpha * w for alpha in I's Z-basis and w a row of the order's
    HNF.  alpha is central, so alpha * w multiplies each of w's four
    K-blocks by the d x d integer matrix whose rows are alpha * theta^k.

    I*Q needs no certificate: alpha lies in O_K, which is central and fixed
    by the involution, so q' (alpha q) = alpha (q' q), (alpha q) q' =
    alpha (q q') and conj(alpha q) = alpha conj(q); the order's certified
    tables close Q under all three, hence I*Q too.
    """

    def __init__(self, order: OrderLattice, ideal: IdealHNF):
        if ideal.field != order.algebra.field:
            raise InputError("ideal and order live over different fields")
        self.order = order
        self.ideal = ideal
        d = ideal.field.degree
        rows = []
        for alpha in ideal.mat:
            times = ideal.field.theta_rows(alpha)  # times[k]: coordinates of alpha * theta^k
            rows.extend([x for l in range(4) for x in _combine(w[l * d:(l + 1) * d], times)]
                        for w in order.mat)
        mat = lattice.hnf(rows, order.dim)
        if not lattice.is_full_rank_hnf(mat, order.dim):
            raise InvariantViolation("congruence lattice lost rank")
        self.mat = tuple(tuple(r) for r in mat)


# ---------------------------------------------------------------------------
# Named constructions
# ---------------------------------------------------------------------------


def standard_order(algebra: QuaternionAlgebra) -> OrderLattice:
    """O_K + O_K i + O_K j + O_K ij."""
    gens = [algebra.one(), algebra.gen_i(), algebra.gen_j(), algebra.gen_ij()]
    return OrderLattice(algebra, gens, name="standard")


def hurwitz_algebra(field: NumberField | None = None) -> QuaternionAlgebra:
    """(eta, eta) over Q(eta), the algebra of the (2,3,7) triangle lattice."""
    K = field if field is not None else hurwitz_field()
    eta = K.gen()
    return QuaternionAlgebra(K, eta, eta)


def hurwitz_order(algebra: QuaternionAlgebra | None = None) -> OrderLattice:
    """The maximal order Z[eta][i, j, j'] with j' = (1 + eta*i + tau*j)/2.

    tau = 1 + eta + eta^2.  Its maximality is certified from its discriminant:
    N(disc O) = 1 and the algebra is unramified at every finite prime, so
    `nonmaximal_primes` is empty.
    """
    if algebra is None:
        algebra = hurwitz_algebra()
    K = algebra.field
    eta = K.gen()
    if K.min_poly != [-1, -2, 1, 1] or algebra.a != eta or algebra.b != eta:
        raise InputError("the Hurwitz order lives in (eta,eta) over Q(eta)")
    gens = [algebra.one(), algebra.gen_i(), algebra.gen_j(), hurwitz_j_prime(algebra)]
    order = OrderLattice(algebra, gens, name="hurwitz")
    if order.kappa != 2:
        raise InvariantViolation(f"Hurwitz order should have kappa=2, got {order.kappa}")
    return order


@functools.cache
def hurwitz_preset() -> OrderLattice:
    """The Hurwitz order over its own Q(eta), built and certified once per process.

    `bounds.hurwitz_context` and the CLI's `--hurwitz` preset share it, and
    with it the caches its field and its tables keep, so repeated calls do
    not rebuild them.  Every result is a function of the order alone.
    """
    return hurwitz_order(hurwitz_algebra())


def hurwitz_j_prime(algebra: QuaternionAlgebra) -> QuatElement:
    """j' = (1 + eta*i + tau*j)/2 with tau = 1 + eta + eta^2."""
    K = algebra.field
    eta = K.gen()
    tau = K.one() + eta + eta * eta
    half = Fraction(1, 2)
    return QuatElement(algebra, (K.from_rational(half), eta * half, tau * half, K.zero()))


# ---------------------------------------------------------------------------
# internals
# ---------------------------------------------------------------------------


def _build_tables(order: OrderLattice, struct) -> OrderTables:
    """The order's tables from its structure constants `struct`.

    A table with an entry outside the order raises `InvariantViolation`, so
    the tables exist only for a lattice that contains 1 and is closed under
    the involution; `struct` exists only for one closed under multiplication.
    """
    n, d = order.dim, order.algebra.field.degree

    def table(elems, failure):
        rows = [order.coords(x) for x in elems]
        if any(r is None for r in rows):
            raise InvariantViolation(failure)
        return tuple(tuple(r) for r in rows)

    (one,) = table([order.algebra.one()], "order does not contain 1")
    invol = table([w.conj() for w in order.basis_elements()],
                  "order is not closed under the involution")
    # w_a * conj(w_b) = sum_c invol[b][c] w_a w_c, and the first d scaled
    # standard coordinates of an element are kappa times its 1-component
    head = [row[:d] for row in order.mat]
    norm_tensor = []
    for plane in struct:
        heads = [_combine(coords, head) for coords in plane]  # kappa (w_a w_c)_0
        norm_tensor.append(tuple(tuple(_combine(invol[b], heads)) for b in range(n)))
    return OrderTables(struct, invol, tuple(norm_tensor), one)


def _combine(coeffs, rows) -> list:
    """The integer row sum_k coeffs[k] * rows[k]."""
    out = [0] * len(rows[0])
    for c, row in zip(coeffs, rows):
        if c:
            out = [x + c * y for x, y in zip(out, row)]
    return out


def _closure_pass(algebra, kappa, mat):
    """One closure pass over the lattice spanned by the rows of `mat` over kappa.

    Forms kappa^2 w_a w_b for every pair of basis rows on the algebra's
    integer multiplication table (`QuaternionAlgebra.mul_table`).  When each
    is kappa times a vector that solves against `mat`, every product lies in
    the lattice, which is then closed: the pass returns its structure
    constants (struct, None).  Otherwise it returns (None, (kappa', mat')),
    the canonical span of the rows and the products as in `_module_span`: the
    least kappa' that makes it integral is kappa^2 over the gcd of kappa^2
    and the content of the span's HNF at scale kappa^2.
    """
    n = 4 * algebra.field.degree
    table = algebra.mul_table
    products = []
    for row in mat:
        left = _combine(row, table)  # left[q n + c]: coordinate c of kappa w_a e_q
        left = [left[q * n:(q + 1) * n] for q in range(n)]
        products.extend(_combine(other, left) for other in mat)
    closed = []
    for vec in products:
        if any(x % kappa for x in vec):
            break
        coords = lattice.solve_triangular(mat, [x // kappa for x in vec])
        if coords is None:
            break
        closed.append(tuple(coords))
    else:
        m = len(mat)
        return tuple(tuple(closed[a * m:(a + 1) * m]) for a in range(m)), None
    span = lattice.hnf([[kappa * x for x in row] for row in mat] + products, n)
    g = gcd(kappa * kappa, lattice.content(span))
    return None, (kappa * kappa // g, tuple(tuple(x // g for x in row) for row in span))


def _module_span(algebra, generators):
    """(kappa, HNF rows) of the O_K-module spanned by `generators` over the
    scaled standard basis: the Z-span of the g theta^k for k < d.

    kappa, the least common denominator of the generators' coordinates, is
    the least positive integer that makes the span integral (theta^k is
    integral), so the pair is canonical for the lattice.  Row g theta^k is,
    block by block, row k of the multiplication matrix of kappa g's block
    (`NumberField.theta_rows`).
    """
    field, d = algebra.field, algebra.field.degree
    kappa = lcm(*(c.den for g in generators for c in g.coords))
    rows = []
    for g in generators:
        row = scaled_row(g, kappa)
        blocks = [field.theta_rows(row[l * d:(l + 1) * d]) for l in range(4)]
        rows.extend([x for block in blocks for x in block[k]] for k in range(d))
    return kappa, tuple(tuple(r) for r in lattice.hnf(rows, 4 * d))
