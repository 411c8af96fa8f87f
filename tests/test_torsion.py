import itertools
from fractions import Fraction

import pytest
import sympy

from conftest import element_from_embeddings
from quatsys.errors import InputError, PrecisionError
from quatsys.intervals import RatInterval
from quatsys.numfield import IdealHNF, NumberField, primes_up_to_norm
from quatsys.orders import hurwitz_algebra, hurwitz_order, standard_order
from quatsys.quatalg import QuaternionAlgebra
from quatsys.realroots import isolate_real_roots, refine_root
from quatsys.torsion import (ObstructionRecord, TorsionCertificate, candidate_orders,
                             certify_torsion_free, roots_in_field, torsion_traces)

_T = sympy.Symbol("t")


def two_cos_minimal_poly(n: int) -> list:
    """Ascending integer coefficients of the minimal polynomial of 2*cos(2*pi/n)."""
    if n < 1:
        raise InputError("n must be positive")
    if n == 1:
        return [-2, 1]
    if n == 2:
        return [2, 1]
    cyc = sympy.Poly(sympy.cyclotomic_poly(n, _T), _T).all_coeffs()
    cyc = [int(c) for c in reversed(cyc)]  # ascending, degree phi(n), palindromic
    phi = len(cyc) - 1
    half = phi // 2
    # write x^k + x^-k as p_k(y), y = x + 1/x:  p_0 = 2, p_1 = y, p_k = y*p_{k-1} - p_{k-2}
    p_prev = [2]
    p_cur = [0, 1]
    out = _scale(cyc[half], [1])
    for k in range(1, half + 1):
        if k == 1:
            pk = p_cur
        else:
            pk = _sub(_shift_mul_y(p_cur), p_prev)
            p_prev, p_cur = p_cur, pk
        out = _add(out, _scale(cyc[half + k], pk))
    return [int(c) for c in out]


def _shift_mul_y(p):
    return [0] + list(p)


def _add(a, b):
    n = max(len(a), len(b))
    a = list(a) + [0] * (n - len(a))
    b = list(b) + [0] * (n - len(b))
    return [x + y for x, y in zip(a, b)]


def _sub(a, b):
    return _add(a, [-x for x in b])


def _scale(c, p):
    return [c * x for x in p]


def placed_roots(field, asc_coeffs, bits=80):
    """Roots in K by the former search: every placement of the polynomial's
    real roots at the places, recovered from certified embeddings and
    verified by exact evaluation; by coordinates."""
    width = Fraction(1, 2 ** bits)
    boxes = [RatInterval(*refine_root(asc_coeffs, lo, hi, width))
             for lo, hi in isolate_real_roots(asc_coeffs)]
    found = {}
    for assign in itertools.product(boxes, repeat=field.degree):
        x = element_from_embeddings(field, list(assign), 1, bits)
        if x is not None and sum((x ** k * c for k, c in enumerate(asc_coeffs)),
                                 field.zero()).is_zero():
            found[x.coords] = x
    return [found[key] for key in sorted(found)]


def oracle_traces(field):
    """(n, x) for every n with phi(n) <= 2d and every root x in K of the
    minimal polynomial of 2*cos(2*pi/n), found by `placed_roots`."""
    bound = 2 * field.degree
    return [(n, x) for n in range(1, 2 * bound * bound + 3)
            if sympy.totient(n) <= bound
            for x in placed_roots(field, two_cos_minimal_poly(n))]


@pytest.mark.parametrize("n,coeffs", [
    (1, [-2, 1]),
    (2, [2, 1]),
    (3, [1, 1]),
    (4, [0, 1]),
    (6, [-1, 1]),
    (5, [-1, 1, 1]),
    (7, [-1, -2, 1, 1]),
    (9, [1, -3, 0, 1]),
    (14, [1, -2, -1, 1]),
])
def test_cosine_minimal_polys(n, coeffs):
    assert two_cos_minimal_poly(n) == coeffs


def test_candidates(K, QQ):
    assert candidate_orders(QQ) == [1, 2, 3, 4, 6]
    # every n whose cosine trace is rational appears for any field, and the
    # seventh/fourteenth orders join for the cubic field of the 7th cyclotomic
    assert candidate_orders(K) == [1, 2, 3, 4, 6, 7, 14]


# Q, Q(sqrt 2), Q(sqrt 3), Q(sqrt 5), Q(sqrt 17), Q(eta) and the real
# cyclotomic fields of conductor 9, 16 and 20, each by a power basis
# minimal polynomial
ORACLE_FIELDS = [[1, 0], [1, 0, -2], [1, 0, -3], [1, -1, -1], [1, -1, -4],
                 [1, 1, -2, -1], [1, 0, -3, 1], [1, 0, -4, 0, 2], [1, 0, -5, 0, 5]]


@pytest.mark.parametrize("minpoly", ORACLE_FIELDS)
def test_torsion_traces_match_the_placement_oracle(minpoly):
    field = NumberField(minpoly)
    assert list(torsion_traces(field)) == oracle_traces(field)


def test_roots_in_field(K):
    eta = K.gen()
    roots7 = roots_in_field(K, two_cos_minimal_poly(7))
    assert eta in roots7 and len(roots7) == 3
    assert roots_in_field(K, two_cos_minimal_poly(9)) == []
    assert roots_in_field(K, two_cos_minimal_poly(5)) == []
    roots14 = roots_in_field(K, two_cos_minimal_poly(14))
    assert sorted(r.coords for r in roots14) == sorted((-r).coords for r in roots7)
    for n in (1, 2, 3, 4, 6, 7, 9, 14):
        poly = two_cos_minimal_poly(n)
        assert roots_in_field(K, poly) == placed_roots(K, poly)
    # no real roots, and a square root of a non-square
    assert roots_in_field(K, [1, 0, 1]) == []
    assert roots_in_field(K, [-2, 0, 1]) == []


def test_unit_identity_backs_shortcircuit(K):
    eta = K.gen()
    assert eta * (eta - 1) * (eta + 2) == K.one()
    for r in roots_in_field(K, two_cos_minimal_poly(14)):
        assert abs((r - K.from_rational(2)).norm()) == 1


def test_prime_seven_certified(QH, P7):
    cert = certify_torsion_free(QH, P7)
    assert cert.torsion_free
    assert cert.lines()[1] == "strong_form=true"
    sevens = [r for r in cert.records if r.n == 7]
    assert sevens and all(r.obstruction_norm == 7 for r in sevens)


def test_all_small_primes_certified(QH, K):
    for prime in primes_up_to_norm(K, 100):
        assert certify_torsion_free(QH, prime).torsion_free


def sqrt6_standard_order():
    """The standard order of (-1, -1) over Q(sqrt 6), whose Minkowski bound
    sqrt 6 is above 2, so that its class number is left undecided; the
    square test applies all the same."""
    field = NumberField([1, 0, -6])
    minus_one = field.from_rational(-1)
    return standard_order(QuaternionAlgebra(field, minus_one, minus_one))


def test_weak_form_blocks_at_obstruction(QH, P2):
    # the square test holds without a proof of class number one: <2> divides
    # <0 - 2>, but <4> does not, so -2 is no trace difference t - 2 in
    # Gamma(2) and the order-4 trace 0 does not block
    order = sqrt6_standard_order()
    field = order.algebra.field
    assert not field.class_number_one
    cert = certify_torsion_free(order, IdealHNF.principal(field, field.from_rational(2)))
    assert cert.lines()[1] == "strong_form=true"
    assert [(r.n, r.obstruction_norm, r.blocks) for r in cert.records if r.n == 4] == [
        (4, 4, False)]
    assert cert.lines()[-1] == "verdict=torsion-free"
    # the square form certifies the Hurwitz group at P2 too
    assert certify_torsion_free(QH, P2).torsion_free


def test_improper_ideal_rejected(QH, K):
    with pytest.raises(InputError):
        certify_torsion_free(QH, K.whole_ring())


def _fresh_hurwitz():
    from quatsys.numfield import IdealHNF, hurwitz_field
    from quatsys.orders import hurwitz_algebra, hurwitz_order

    field = hurwitz_field()
    order = hurwitz_order(hurwitz_algebra(field))
    p7 = IdealHNF.principal(field, field.from_rational(2) - field.gen())
    return field, order, p7


def test_torsion_traces_computed_once_per_field(monkeypatch):
    field, order, p7 = _fresh_hurwitz()
    calls = []
    walk = NumberField.box_walk

    def spy(self, *args, **kwargs):
        calls.append(args)
        return walk(self, *args, **kwargs)

    monkeypatch.setattr(NumberField, "box_walk", spy)
    first = certify_torsion_free(order, p7)
    assert calls  # a new field has nothing cached
    made = len(calls)
    second = certify_torsion_free(order, p7)
    p2 = [p for p in primes_up_to_norm(field, 8) if p.norm == 8][0]
    certify_torsion_free(order, p2)
    candidate_orders(field)
    assert len(calls) == made
    assert second.lines() == first.lines()


def test_precision_failure_is_not_cached(monkeypatch):
    field, order, p7 = _fresh_hurwitz()
    walk = NumberField.box_walk

    def fails_midway(self, *args, **kwargs):
        points = walk(self, *args, **kwargs)
        yield next(points)
        raise PrecisionError("forced")

    with monkeypatch.context() as patch:
        patch.setattr(NumberField, "box_walk", fails_midway)
        with pytest.raises(PrecisionError):
            certify_torsion_free(order, p7)
    cert = certify_torsion_free(order, p7)
    assert cert.torsion_free
    assert candidate_orders(field) == [1, 2, 3, 4, 6, 7, 14]


def uncached_certificate_lines(order, ideal):
    """The certificate as computed before the obstructions were kept per field:
    every obstruction ideal is formed afresh for the ideal at hand."""
    field = order.algebra.field
    i_sq = ideal * ideal
    records, blocking = [], []
    for n, trace_value in torsion_traces(field):
        if n <= 2:
            continue
        c = trace_value - field.from_rational(2)
        if c.is_zero():
            continue
        if abs(c.norm()) == 1:
            records.append(ObstructionRecord(n, trace_value, True, None, False))
            continue
        obstruction = IdealHNF.principal(field, c)
        blocks = i_sq.divides(obstruction)
        records.append(ObstructionRecord(n, trace_value, False, obstruction.norm, blocks))
        if blocks:
            blocking.append(n)
    return TorsionCertificate(ideal.norm, records, not blocking,
                              sorted(set(blocking))).lines()


def test_certificate_matches_the_uncached_oracle(QH, K, P7, B6):
    for prime in primes_up_to_norm(K, 100) + [P7 * P7]:
        assert certify_torsion_free(QH, prime).lines() == uncached_certificate_lines(QH, prime)
    QQ = B6.algebra.field
    for p in (2, 3, 4, 5, 7, 9):
        ideal = IdealHNF.principal(QQ, QQ.from_rational(p))
        assert certify_torsion_free(B6, ideal).lines() == uncached_certificate_lines(B6, ideal)
    # over a field without a proof of class number one
    order = sqrt6_standard_order()
    plain = order.algebra.field
    assert not plain.class_number_one
    for p in (2, 3, 5):
        ideal = IdealHNF.principal(plain, plain.from_rational(p))
        assert certify_torsion_free(order, ideal).lines() == uncached_certificate_lines(order, ideal)


def test_obstruction_ideals_built_once_per_field(monkeypatch):
    field, order, p7 = _fresh_hurwitz()
    p13 = primes_up_to_norm(field, 13)[-1]
    calls = []
    principal = IdealHNF.principal.__func__

    def spy(cls, *args):
        calls.append(args)
        return principal(cls, *args)

    monkeypatch.setattr(IdealHNF, "principal", classmethod(spy))
    first = certify_torsion_free(order, p7)
    # <t - 2> for t = -1 (n = 3), 0 (n = 4) and the three conjugates of eta (n = 7)
    assert len(calls) == sum(not r.unit_shortcircuit for r in first.records) == 5
    second = certify_torsion_free(order, p13)
    assert len(calls) == 5
    assert second.ideal_norm == 13 and second.torsion_free
