import random
from fractions import Fraction
from math import lcm

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quatsys import lattice, orders
from quatsys.errors import InputError
from quatsys.numfield import IdealHNF, factor_rational_prime, primes_up_to_norm
from quatsys.orders import (CongruenceIdealLattice, OrderLattice, _combine, hurwitz_j_prime,
                            hurwitz_order, scaled_row, standard_order, unflatten)
from quatsys.quatalg import QuatElement

from conftest import (coefficient_ideal_test, congruence_basis, congruence_coord_hnf,
                      in_congruence, in_gamma, is_central, is_norm_one, lattice_index,
                      left_matrix, trace_norm_contained)


def test_standard_order_shape(O_std, D):
    assert O_std.kappa == 1
    assert O_std.contains(D.one())
    assert O_std.contains(D.gen_i() * D.gen_j())
    # j * ij = b * i stays inside
    assert O_std.contains(D.gen_j() * D.gen_ij())


def test_hurwitz_order_shape(QH, O_std, D):
    jp = hurwitz_j_prime(D)
    assert QH.kappa == 2
    assert QH.contains(jp)
    assert not O_std.contains(jp)
    # the standard order sits inside with 2-power index
    inner = [[QH.kappa * x for x in row] for row in O_std.mat]
    assert all(lattice.contains(QH.mat, row) for row in inner)
    assert lattice_index(QH.mat, lattice.hnf(inner, QH.dim)) == 64
    # maximal at every prime
    assert QH.nonmaximal_primes == frozenset()


def test_discriminant_norms_decide_maximality(QH, O_std, B6, Q2max):
    # N(disc O) is the product of the ramified primes' norms exactly at the
    # primes where the order is maximal: B6 ramifies at 2 and 3, Q2max at
    # P2 = (sqrt 2) of norm 2, and (eta, eta) at no finite prime
    for order, disc_norm, nonmaximal in ((QH, 1, set()), (O_std, 64, {2}),
                                         (B6, 6, set()), (Q2max, 2, set())):
        assert order.discriminant_norm() == disc_norm
        assert order.nonmaximal_primes == nonmaximal


def test_maximality_is_decided_on_first_use_only(D):
    order = hurwitz_order(D)
    assert "nonmaximal_primes" not in vars(order)
    assert not order.nonmaximal_primes and "nonmaximal_primes" in vars(order)


def test_certification_catches_non_orders(D):
    K = D.field
    third = D.element(K.from_rational(Fraction(1, 3)), 0, 0, 0)
    with pytest.raises(InputError):
        OrderLattice(D, [D.one(), third, D.gen_i(), D.gen_j(), D.gen_ij()])
    # closed under multiplication, but without 1: bad input, not a defect
    with pytest.raises(InputError, match="order does not contain 1"):
        OrderLattice(D, [D.gen_i() * 2, D.gen_j() * 2])


def test_order_and_tables_take_one_closure_pass(D, monkeypatch):
    # no quaternion is multiplied: the module span reads the multiplication
    # matrices of the generators' blocks, and the closure passes read the
    # integer multiplication table, Hurwitz in 2 passes (9 rows, then 12) and
    # the standard order in 1; a pass that certifies closure gives the tables
    # and runs no HNF
    calls, events = [], []
    product = QuatElement.__mul__
    monkeypatch.setattr(QuatElement, "__mul__", lambda x, y: calls.append(1) or product(x, y))
    hnf, close = lattice.hnf, orders._closure_pass
    monkeypatch.setattr(lattice, "hnf", lambda *args: events.append("hnf") or hnf(*args))
    monkeypatch.setattr(orders, "_closure_pass",
                        lambda *args: events.append("pass") or close(*args))
    for build, expected in ((hurwitz_order, ["hnf", "pass", "hnf", "pass"]),
                            (standard_order, ["hnf", "pass"])):
        calls.clear()
        events.clear()
        assert np.array(build(D).tables.struct, dtype=np.int64).shape == (12, 12, 12)
        assert calls == []
        assert events == expected


def _hnf_span(algebra, elems):
    """(kappa, HNF rows) of the Z-span of the quaternions `elems` over the
    scaled standard basis, kappa their coordinates' least common denominator."""
    kappa = lcm(*(c.den for e in elems for c in e.coords))
    rows = [scaled_row(e, kappa) for e in elems]
    return kappa, tuple(tuple(r) for r in lattice.hnf(rows, 4 * algebra.field.degree))


def _oracle_order(algebra, generators):
    """The closure on quaternion products, as the constructor ran it before
    the integer multiplication table: (kappa, mat, struct, invol,
    norm_tensor, one), or the constructor's `InputError`.  The first span is
    that of the quaternion products g theta^k, k < d."""
    theta = algebra.element(algebra.field.gen(), 0, 0, 0)
    elems = []
    for g in generators:
        for _ in range(algebra.field.degree):
            elems.append(g)
            g = g * theta
    kappa, mat = _hnf_span(algebra, elems)
    for _ in range(orders._MAX_CLOSE_ITERS):
        basis = [unflatten(algebra, row, kappa) for row in mat]
        products = [w1 * w2 for w1 in basis for w2 in basis]
        span = _hnf_span(algebra, basis + products)
        if span == (kappa, mat):
            break
        kappa, mat = span
    else:
        raise InputError("generators do not span an order: closure did not stabilize")
    dim = 4 * algebra.field.degree
    if len(mat) != dim:
        raise InputError(f"order lattice has rank {len(mat)}, expected {dim}")


    def table(elems):
        rows = [lattice.solve_triangular(mat, scaled_row(x, kappa)) for x in elems]
        return None if None in rows else tuple(map(tuple, rows))

    one = table([algebra.one()])
    if one is None:
        raise InputError("generators span a ring without 1: order does not contain 1")
    struct = table(products)
    norm_tensor = tuple(tuple(tuple(int(c * kappa) for c in (a * b.conj()).coords[0].coords)
                              for b in basis) for a in basis)
    return (kappa, mat, tuple(struct[a * dim:(a + 1) * dim] for a in range(dim)),
            table(w.conj() for w in basis), norm_tensor, one[0])


def _built(order):
    return (order.kappa, order.mat, *order.tables)


def test_closure_on_the_multiplication_table_matches_quaternion_products(QH, O_std, B6,
                                                                         Q2max):
    for order in (QH, O_std, B6, Q2max):
        assert _built(order) == _oracle_order(order.algebra, order.generators)


def test_multiplication_table_holds_the_products_of_the_standard_basis(D, B6, Q2max):
    for algebra in (D, B6.algebra, Q2max.algebra):
        n = 4 * algebra.field.degree
        basis = [unflatten(algebra, [int(k == p) for k in range(n)]) for p in range(n)]
        assert [list(row) for row in algebra.mul_table] == [
            [c for y in basis for c in scaled_row(x * y, 1)] for x in basis]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_closure_matches_quaternion_products_on_random_generators(B6, Q2max, data):
    # integer combinations of a maximal order's basis: both closures stop, in
    # an order, or in a rank-deficient ring or a ring without 1
    maximal = data.draw(st.sampled_from([B6, Q2max]))
    algebra, basis = maximal.algebra, maximal.basis_elements()
    coefficients = st.lists(st.integers(-2, 2), min_size=len(basis), max_size=len(basis))
    gens = [sum((c * w for c, w in zip(coeffs, basis)), algebra.zero())
            for coeffs in data.draw(st.lists(coefficients, min_size=2, max_size=4))]
    if data.draw(st.booleans()):
        gens.append(algebra.one())
    try:
        expected = _oracle_order(algebra, gens)
    except InputError as exc:
        with pytest.raises(InputError) as info:
            OrderLattice(algebra, gens)
        assert str(info.value) == str(exc)
    else:
        assert _built(OrderLattice(algebra, gens)) == expected


@pytest.mark.parametrize("gens, message", [
    (lambda D: [D.one(), D.gen_i()], "order lattice has rank 6, expected 12"),
    (lambda D: [D.gen_i() * 2, D.gen_j() * 2],
     "generators span a ring without 1: order does not contain 1"),
    (lambda D: [D.one(), D.element(Fraction(1, 3), 0, 0, 0), D.gen_i(), D.gen_j()],
     "generators do not span an order: closure did not stabilize"),
])
def test_closure_errors_keep_their_messages(D, gens, message):
    with pytest.raises(InputError) as info:
        OrderLattice(D, gens(D))
    assert str(info.value) == message
    with pytest.raises(InputError) as info:
        _oracle_order(D, gens(D))
    assert str(info.value) == message


def test_tables_equal_exact_products_of_the_basis(QH, O_std, D):
    for order in (QH, O_std):
        assert [list(r) for r in order.mat] == lattice.hnf(order.mat, order.dim)
        basis = order.basis_elements()
        struct, invol, norm_tensor, one = (
            np.array(table, dtype=np.int64) for table in (
                order.tables.struct, order.tables.invol, order.tables.norm_tensor,
                order.tables.one))
        assert struct.tolist() == [[order.coords(a * b) for b in basis] for a in basis]
        assert invol.tolist() == [order.coords(w.conj()) for w in basis]
        assert one.tolist() == order.coords(D.one())
        head = [[c * order.kappa for c in (a * b.conj()).coords[0].coords] for b in basis
                for a in basis]
        assert norm_tensor.transpose(1, 0, 2).reshape(-1, 3).tolist() == head


def test_involution_stability_of_bases(QH, O_std):
    for order in (QH, O_std):
        for w in order.basis_elements():
            assert order.contains(w.conj())
            assert w.reduced_trace().is_integral()
            assert w.reduced_norm().is_integral()


def test_norm_one_membership(QH, D):
    K = D.field
    assert is_norm_one(QH, D.one())
    assert is_norm_one(QH, -D.one())
    i = D.gen_i()
    assert QH.contains(i)
    assert i.reduced_norm() == -K.gen()
    assert not is_norm_one(QH, i)


def test_congruence_lattice_index(QH, P7, P2, P13s):
    for ideal, index in ((P7, 7 ** 4), (P2, 8 ** 4), (P13s[0], 13 ** 4)):
        assert lattice_index(QH.mat, QH.congruence_lattice(ideal).mat) == index


def test_congruence_lattice_built_once_per_ideal(QH, K, P7):
    cong = QH.congruence_lattice(P7)
    assert QH.congruence_lattice(P7) is cong
    same_ideal = IdealHNF.principal(K, K.from_rational(2) - K.gen())
    assert same_ideal is not P7
    assert QH.congruence_lattice(same_ideal) is cong


def test_gamma_membership_of_center(QH, D, P7, P2, P13s):
    one = D.one()
    for ideal in (P7, P2, P13s[0]):
        assert in_gamma(QH, ideal, one)
    assert not QH.minus_one_in_gamma(P7)
    assert QH.minus_one_in_gamma(P2)
    assert not QH.minus_one_in_gamma(P13s[0])


def test_minus_one_in_gamma_is_two_in_the_ideal(QH, O_std, B6, Q2max):
    # against the lattice query in_gamma(I, -1), at the whole ring and at p,
    # p^2 and p^3 for every prime p above 2, 3, 5, 7 and 13
    verdicts = []
    for order in (QH, O_std, B6, Q2max):
        field, minus = order.algebra.field, -order.algebra.one()
        ideals = [field.whole_ring()]
        for q in (2, 3, 5, 7, 13):
            for prime, _e, _f in factor_rational_prime(field, q):
                ideals += [prime, prime * prime, prime * prime * prime]
        for ideal in ideals:
            verdicts.append(order.minus_one_in_gamma(ideal))
            assert verdicts[-1] == in_gamma(order, ideal, minus), (order.name, str(ideal))
    assert len(verdicts) == 79 and set(verdicts) == {True, False}


def _levels(field) -> list:
    """Every prime of norm <= 50 and the square of every prime of norm <= 13."""
    primes = primes_up_to_norm(field, 50)
    return primes + [p * p for p in primes if p.norm <= 13]


def test_trace_norm_containment_exact(QH, O_std, B6, Q2max, P7, P2):
    # Tr(I*Q) in I and nrd(I*Q) in I^2, exactly on the HNF basis of I*Q
    levels = 0
    for order in (QH, O_std, B6, Q2max):
        for ideal in _levels(order.algebra.field):
            assert trace_norm_contained(congruence_basis(order, ideal), ideal), \
                (order.name, str(ideal))
            levels += 1
    assert levels == 80
    # the certificate rejects a lattice outside the level: P7*Q against P2
    assert not trace_norm_contained(congruence_basis(QH, P7), P2)


def test_containment_specific_example(QH, D, P7):
    K = D.field
    eta = K.gen()
    jp = hurwitz_j_prime(D)
    z = (K.from_rational(2) - eta) * jp
    assert P7.contains(z.reduced_trace())
    assert (P7 * P7).contains(z.reduced_norm())
    assert in_congruence(QH, P7, z)


def test_whereisy_ideal_identity(QH, P2):
    # (<2> + kappa*<2>)^{-1} <2>^2 = <2> when kappa = 2: J = <2> + kappa*<2> is
    # <2>, and J * <2> = <2>^2, so <2> is J^-1 <2>^2 by cancellation
    K = QH.algebra.field
    two = IdealHNF.principal(K, K.from_rational(2))
    kap = IdealHNF.principal(K, QH.kappa_element())
    denom = two + kap * P2
    assert denom == two
    assert denom * P2 == P2 * P2
    in_target = coefficient_ideal_test(QH, P2)
    assert all(in_target(member) for member in P2.basis_elements())
    assert not in_target(K.one())
    assert not in_target(K.from_rational(Fraction(1, 2)))


def test_custom_order_roundtrip(D, O_std):
    # rebuilding from its own basis reproduces the same lattice
    rebuilt = OrderLattice(D, O_std.basis_elements(), name="copy")
    assert rebuilt.kappa == O_std.kappa
    assert rebuilt.mat == O_std.mat


def _ring_multipliers(order):
    """`left_matrix` of theta and of each non-integer generator.  With 1 they
    generate the order as a ring: the closure loop builds the ring generated
    by the g * theta^k, which holds 1 and so theta."""
    theta = order.algebra.element(order.algebra.field.gen(), 0, 0, 0)
    return [left_matrix(order, x) for x in (theta, *order.generators)
            if not (is_central(x) and x.coords[0].is_rational())]


def _generator_certificate(order, coord_mat):
    """The former per-ideal certificate of I*Q, kept as the oracle: conj(z) and
    g * z lie in the lattice for every basis z of it (order-basis HNF) and
    every g of `_ring_multipliers`.  The failure it finds first, or None.

    {x in Q : x * L lies in L} is a subring of Q holding 1, theta and the
    generators, hence Q, so L is a left ideal; Q is stable under the
    involution, so z * w = conj(conj(w) conj(z)) and L is two-sided.
    """
    multipliers = _ring_multipliers(order)
    for z in coord_mat:
        if not lattice.contains(coord_mat, _combine(z, order.tables.invol)):
            return "involution"
        if not all(lattice.contains(coord_mat, _combine(z, m)) for m in multipliers):
            return "two-sided"
    return None


def _oracle_congruence_mat(order, ideal):
    """The former construction of I*Q, kept as the oracle: the order-basis HNF
    of the products alpha * w_b, certified two-sided, then mapped to scaled
    standard coordinates by a second HNF."""
    coord_mat = congruence_coord_hnf(order, ideal)
    assert lattice.is_full_rank_hnf(coord_mat, order.dim)
    assert _generator_certificate(order, coord_mat) is None
    return tuple(tuple(r) for r in lattice.hnf([_combine(r, order.mat) for r in coord_mat],
                                               order.dim))


def test_congruence_lattice_matches_the_certified_oracle(QH, O_std, B6, Q2max, Q10max):
    # every prime of norm <= 100 and its square; Q10max's levels above 2, 3
    # and 5 are non-principal, and the order is not free over O_K
    count = 0
    for order in (QH, O_std, B6, Q2max, Q10max):
        for prime in primes_up_to_norm(order.algebra.field, 100):
            for ideal in (prime, prime * prime):
                assert order.congruence_lattice(ideal).mat == _oracle_congruence_mat(order, ideal)
                count += 1
    assert count == 250


def _fake_lattice(order, rows):
    return tuple(tuple(r) for r in lattice.hnf(rows, order.dim))


def test_congruence_certificate_rejects_non_ideals(QH, D):
    seven_q = [[7 if a == b else 0 for b in range(QH.dim)] for a in range(QH.dim)]
    # Z*1 + 7Q is stable under the involution but not an ideal
    ring_like = _fake_lattice(QH, seven_q + [QH.coords(D.one())])
    assert _generator_certificate(QH, ring_like) == "two-sided"
    # Z*(1 + i) + 7Q does not contain conj(1 + i) = 2 - (1 + i)
    skew = _fake_lattice(QH, seven_q + [QH.coords(D.one() + D.gen_i())])
    assert _generator_certificate(QH, skew) == "involution"
    # 7Q itself passes
    assert _generator_certificate(QH, _fake_lattice(QH, seven_q)) is None


def test_congruence_lattice_in_order_coordinates(QH, O_std, P7, P2):
    for order in (QH, O_std):
        basis = order.basis_elements()
        for ideal in (P7, P2):
            coord_mat = congruence_coord_hnf(order, ideal)
            assert lattice.det_upper_triangular(coord_mat) == ideal.norm ** 4
            for row in coord_mat:
                z = sum((c * w for c, w in zip(row, basis)), order.algebra.zero())
                assert in_congruence(order, ideal, z)


def test_congruence_lattice_equals_the_span_of_products(QH, O_std, P7, P2, P13s):
    # I*Q from the field multiplication is the span of the quaternion products alpha * w
    for order in (QH, O_std):
        for ideal in [P7, P2, P7 * P7] + P13s:
            rows = [scaled_row(alpha * w, order.kappa) for alpha in ideal.basis_elements()
                    for w in order.basis_elements()]
            mat = lattice.hnf(rows, order.dim)
            assert order.congruence_lattice(ideal).mat == tuple(tuple(r) for r in mat)


def test_left_matrix_rows_are_the_products(QH, D):
    basis = QH.basis_elements()
    x = hurwitz_j_prime(D)
    for b, row in enumerate(left_matrix(QH, x)):
        assert tuple(row) == tuple(QH.coords(x * basis[b]))


def _all_maps_verdict(order, coord_mat):
    """The certificate before it was cut to the ring generators, kept as the
    oracle: conj(z), w*z and z*w for every basis z of the lattice and every
    basis element w of the order (25 maps on a rank-12 order).  The failure
    it finds first, or None."""
    tables = order.tables
    columns = list(zip(*tables.struct))  # columns[a][b] = struct[b][a]
    for z in coord_mat:
        if not lattice.contains(coord_mat, _combine(z, tables.invol)):
            return "involution"
        # w_a * z = sum_b z_b struct[a][b]; z * w_a = sum_b z_b struct[b][a]
        for plane, column in zip(tables.struct, columns):
            if not (lattice.contains(coord_mat, _combine(z, plane))
                    and lattice.contains(coord_mat, _combine(z, column))):
                return "two-sided"
    return None


def _fake_lattices(order, rng):
    """Lattices between 7Q and Q: Z*1, O_K*1, Z*(1 + i) and random elements
    on top of 7Q, and 7Q itself."""
    alg = order.algebra
    seven_q = [[7 if a == b else 0 for b in range(order.dim)] for a in range(order.dim)]
    o_k = [order.coords(alg.element(alpha, 0, 0, 0))
           for alpha in alg.field.whole_ring().basis_elements()]
    extras = [[], [order.coords(alg.one())], o_k, [order.coords(alg.one() + alg.gen_i())]]
    extras += [[[rng.randrange(-3, 4) for _ in range(order.dim)]] for _ in range(6)]
    return [_fake_lattice(order, seven_q + extra) for extra in extras]


def test_generator_certificate_agrees_with_all_maps(QH, O_std, B6, P2, P7, P13s):
    rng = random.Random(20)
    for order in (QH, O_std):
        for ideal in [P2, P7, P7 * P7, P2 * P2] + P13s:
            coord_mat = congruence_coord_hnf(order, ideal)
            assert _generator_certificate(order, coord_mat) is None
            assert _all_maps_verdict(order, coord_mat) is None
    QQ = B6.algebra.field
    for p in (2, 3, 5):
        coord_mat = congruence_coord_hnf(B6, IdealHNF.principal(QQ, QQ.from_rational(p)))
        assert _generator_certificate(B6, coord_mat) is None
        assert _all_maps_verdict(B6, coord_mat) is None
    verdicts = []
    for order in (QH, O_std, B6):
        for fake in _fake_lattices(order, rng):
            verdicts.append(_generator_certificate(order, fake))
            assert verdicts[-1] == _all_maps_verdict(order, fake)
    assert set(verdicts) == {None, "involution", "two-sided"}


def test_generator_certificate_catches_a_failure_at_a_generator(QH, O_std, D):
    # O_K*1 + 7Q is stable under the involution and under theta, not under i
    for order in (QH, O_std):
        seven_q = [[7 if a == b else 0 for b in range(order.dim)] for a in range(order.dim)]
        o_k = [order.coords(D.element(alpha, 0, 0, 0))
               for alpha in D.field.whole_ring().basis_elements()]
        fake = _fake_lattice(order, seven_q + o_k)
        theta = left_matrix(order, D.element(D.field.gen(), 0, 0, 0))
        for z in fake:
            assert lattice.contains(fake, _combine(z, order.tables.invol))
            assert lattice.contains(fake, _combine(z, theta))
        assert not lattice.contains(fake, order.coords(D.gen_i()))
        assert _generator_certificate(order, fake) == "two-sided"
        assert _all_maps_verdict(order, fake) == "two-sided"


def test_congruence_lattice_at_p7_makes_one_hnf_and_no_membership_solve(QH, P7, monkeypatch):
    calls = []
    hnf, contains = lattice.hnf, lattice.contains
    monkeypatch.setattr(lattice, "hnf", lambda *args: calls.append("hnf") or hnf(*args))
    monkeypatch.setattr(lattice, "contains",
                        lambda *args: calls.append("contains") or contains(*args))
    CongruenceIdealLattice(QH, P7)
    # the former construction made two HNFs and 60 membership solves
    assert calls == ["hnf"]


def test_trace_norm_containment_at_a_non_principal_level(Q10max):
    # both primes above 3 of Q(sqrt 10) are non-principal levels
    field = Q10max.algebra.field
    levels = _levels(field)
    assert len(levels) == 21
    assert all(prime in levels for prime, _e, _f in factor_rational_prime(field, 3))
    for ideal in levels:
        assert trace_norm_contained(congruence_basis(Q10max, ideal), ideal), \
            str(ideal)
