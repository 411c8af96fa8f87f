import functools
import itertools
import math

import pytest

from quatsys import lattice
from quatsys.errors import PrecisionError
from quatsys.intervals import START_BITS, RatInterval, iv_sqrt, refine
from quatsys.numfield import (FieldElement, IdealHNF, factor_rational_prime, hurwitz_field,
                              rationals)
from quatsys.orders import (_combine, hurwitz_algebra, hurwitz_order, scaled_row, standard_order,
                            unflatten)


def lattice_index(outer, inner) -> int:
    """Oracle: index [outer : inner] of full-rank HNF lattices with inner <= outer."""
    do = lattice.det_upper_triangular(outer)
    di = lattice.det_upper_triangular(inner)
    if di % do != 0:
        raise ValueError("inner lattice is not a sublattice of outer")
    return di // do


def is_central(x) -> bool:
    """Whether the quaternion x lies in K: its i, j and ij coordinates vanish."""
    return all(c.is_zero() for c in x.coords[1:])


def is_norm_one(order, x) -> bool:
    return order.contains(x) and x.reduced_norm() == order.algebra.field.one()


def in_congruence(order, ideal, x) -> bool:
    """Whether the quaternion x lies in I*Q, by one solve against its HNF."""
    vec = scaled_row(x, order.kappa)
    return vec is not None and lattice.contains(order.congruence_lattice(ideal).mat, vec)


def congruence_basis(order, ideal) -> list:
    """The quaternions of the HNF basis of I*Q."""
    return [unflatten(order.algebra, row, order.kappa)
            for row in order.congruence_lattice(ideal).mat]


def in_gamma(order, ideal, x) -> bool:
    """Norm-one and congruent to 1 modulo ideal*order."""
    if not is_norm_one(order, x):
        return False
    return in_congruence(order, ideal, x - order.algebra.one())


def coset_reps(ideal) -> list:
    """Oracle: a coset representative of each class of O_K modulo the ideal,
    in coordinate order, from the diagonal of its HNF."""
    diag = [row[k] for k, row in enumerate(ideal.mat)]
    return [ideal.reduce(list(c)) for c in itertools.product(*map(range, diag))]


def trace_norm_contained(basis, ideal) -> bool:
    """Oracle: Tr(L) in I and nrd(L) in I^2 for the lattice L spanned by basis, exactly.

    trd is Z-linear and nrd a quadratic form, nrd(sum c_i z_i) =
    sum c_i^2 nrd(z_i) + sum_{i<j} c_i c_j (nrd(z_i + z_j) - nrd(z_i) - nrd(z_j)),
    so the three checks on the basis cover every element of L."""
    square = ideal * ideal
    norms = [z.reduced_norm() for z in basis]
    return (all(ideal.contains(z.reduced_trace()) for z in basis)
            and all(square.contains(n) for n in norms)
            and all(square.contains((basis[i] + basis[j]).reduced_norm() - norms[i] - norms[j])
                    for i, j in itertools.combinations(range(len(basis)), 2)))


def coefficient_ideal_test(order, ideal):
    """Oracle: the test y in J^-1 I^2 with J = (2) + kappa*I, without an inverse.

    J is an invertible integral ideal, so y lies in J^-1 I^2 exactly when
    y J lies in I^2, that is when y g does for each g in a Z-basis of J."""
    field = order.algebra.field
    J = (IdealHNF.principal(field, field.from_rational(2))
         + IdealHNF.principal(field, order.kappa_element()) * ideal)
    square, basis = ideal * ideal, J.basis_elements()
    return lambda y: all(square.contains(y * g) for g in basis)


def left_matrix(order, x) -> tuple:
    """Rows x * w_b = sum_a x_a struct[a][b] over the order basis, for x in
    the order; x * z = sum_b z_b (x * w_b)."""
    coords = order.coords(x)
    return tuple(tuple(_combine(coords, column)) for column in zip(*order.tables.struct))


def congruence_coord_hnf(order, ideal) -> tuple:
    """Oracle: the row HNF of I*Q over the order basis, from the products
    alpha * w_b, alpha in I's Z-basis, read off the structure constants."""
    rows = [row for alpha in ideal.basis_elements()
            for row in left_matrix(order, order.algebra.element(alpha, 0, 0, 0))]
    return tuple(tuple(r) for r in lattice.hnf(rows, order.dim))


def static_box_walk(field, limits, hnf=None, shift=0):
    """Oracle: every element of shift + L in the static box of
    `NumberField.coordinate_bounds`, in coordinate order, with no per-node range."""
    d = field.degree
    if hnf is None:
        hnf = [[int(i == j) for j in range(d)] for i in range(d)]
    bound = field.coordinate_bounds(limits)

    def walk(m, vec):
        h = hnf[m][m]
        for n in range(math.ceil((-bound[m] - vec[m]) / h),
                       math.floor((bound[m] - vec[m]) / h) + 1):
            nxt = [v + n * r for v, r in zip(vec, hnf[m])]
            if m + 1 == d:
                yield FieldElement(field, nxt)
            else:
                yield from walk(m + 1, nxt)

    yield from walk(0, [shift] + [0] * (d - 1))


def trace_dual_basis(field) -> list:
    """Oracle: the trace-dual basis b_m = c_m(theta) / f'(theta) of the powers
    of theta, f(x) / (x - theta) = sum_m c_m x^m (Euler's lemma), whose
    embeddings `NumberField.embedding_inverse` encloses."""
    f, d = field.min_poly, field.degree
    inv = FieldElement(field, [k * f[k] for k in range(1, d + 1)]).inverse()
    return [FieldElement(field, f[m + 1:] + [0] * m) * inv for m in range(d)]


@functools.lru_cache(maxsize=None)
def embedding_inverse_at(field, bits: int) -> tuple:
    """Oracle: E^-1 at any precision, entry [m][s] = sigma_s(b_m) of width
    at most 2^-bits (`trace_dual_basis`)."""
    return tuple(tuple(b.embed(s, bits) for s in range(field.degree))
                 for b in trace_dual_basis(field))


def element_from_embeddings(field, boxes, den: int, bits: int):
    """Oracle: the unique element of (1/den) Z[theta] with sigma_s(x) in boxes[s].

    Returns None when some coordinate enclosure holds no multiple of
    1/den (no such element exists); raises PrecisionError when one holds
    several (refine the boxes or raise `bits`).  The answer is certified
    but callers still verify whatever exact identity they need.
    """
    num = []
    ambiguous = False
    for row in embedding_inverse_at(field, bits):
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
    return FieldElement(field, num, den)


def field_sqrt(v: FieldElement, den: int) -> list:
    """Oracle: the square roots of v in (1/den) Z[theta] (possibly none),
    certified then verified: certified interval square roots of v's
    embeddings, the sign fixed positive at place 0 and the other places
    running through (+, -), recovered by `element_from_embeddings`; each root
    is followed by its negative."""
    field = v.field
    if v.is_zero():
        return [field.zero()]

    def roots_at(bits):
        boxes = [v.embed(s, bits) for s in range(field.degree)]
        if any(b.hi < 0 for b in boxes):
            return []
        roots = [iv_sqrt(RatInterval(max(box.lo, 0), box.hi), bits)
                 if box.hi > 0 else RatInterval.exact(0) for box in boxes]
        out = {}
        try:
            for signs in itertools.product((1, -1), repeat=field.degree - 1):
                elem = element_from_embeddings(
                    field, [r * sg for r, sg in zip(roots, (1,) + signs)], den, bits)
                if elem is not None and elem * elem == v:
                    out[elem] = elem
                    out[-elem] = -elem
        except PrecisionError:
            return None
        return list(out.values())

    return refine(roots_at, START_BITS, 8 * START_BITS)


@pytest.fixture(scope="session")
def K():
    return hurwitz_field()


@pytest.fixture(scope="session")
def QQ():
    return rationals()


@pytest.fixture(scope="session")
def D(K):
    return hurwitz_algebra(K)


@pytest.fixture(scope="session")
def QH(D):
    return hurwitz_order(D)


@pytest.fixture(scope="session")
def O_std(D):
    return standard_order(D)


@pytest.fixture(scope="session")
def P7(K):
    return IdealHNF.principal(K, K.from_rational(2) - K.gen())


@pytest.fixture(scope="session")
def P2(K):
    return IdealHNF.principal(K, K.from_rational(2))


@pytest.fixture(scope="session")
def P13s(K):
    return [pr for pr, _e, _f in factor_rational_prime(K, 13)]


B6_SPEC = """name: B6max
minpoly: 1 0
quat: 3 | -1
order: 2 | 2 0 0 0 ; 0 2 0 0 ; 0 0 2 0 ; 1 1 1 1
"""


@pytest.fixture(scope="session")
def B6():
    """The maximal order of (3, -1) over Q, ramified at 2 and 3, as a `--field` file."""
    from quatsys.specfile import parse_spec_text

    return parse_spec_text(B6_SPEC)["order"]


Q2MAX_SPEC = """name: Q2max
minpoly: 1 0 -2
quat: 1 1 | -1 0
order: 2 | 1 0 1 0 1 1 1 1 ; 0 1 0 0 0 1 0 0 ; 0 0 2 0 0 0 0 0 ; 0 0 0 1 0 0 0 1 ; 0 0 0 0 2 0 0 0 ; 0 0 0 0 0 2 0 0 ; 0 0 0 0 0 0 2 0 ; 0 0 0 0 0 0 0 2
"""


@pytest.fixture(scope="session")
def Q2max():
    """The maximal order of (1 + sqrt 2, -1) over Q(sqrt 2), ramified at one real
    place and at P2 = (sqrt 2), as a `--field` file."""
    from quatsys.specfile import parse_spec_text

    return parse_spec_text(Q2MAX_SPEC)["order"]


Q10MAX_SPEC = """name: Q10max
minpoly: 1 0 -10
quat: -3 1 | -1 0
order: 2 | 1 0 1 0 1 1 1 1 ; 0 1 0 0 0 1 0 0 ; 0 0 2 0 0 0 0 0 ; 0 0 0 1 0 0 0 1 ; 0 0 0 0 2 0 0 0 ; 0 0 0 0 0 2 0 0 ; 0 0 0 0 0 0 2 0 ; 0 0 0 0 0 0 0 2
"""


@pytest.fixture(scope="session")
def Q10max():
    """A maximal order of (sqrt 10 - 3, -1) over Q(sqrt 10), as a `--field` file.

    Q(sqrt 10) has class number 2, so both primes above 3 are non-principal
    levels; the algebra ramifies at one real place and at P2 = (2, sqrt 10),
    which is not principal either, so the order is not free over O_K."""
    from quatsys.specfile import parse_spec_text

    return parse_spec_text(Q10MAX_SPEC)["order"]
