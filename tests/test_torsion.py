import pytest

from quatsys.errors import InputError, PrecisionError
from quatsys.numfield import NumberField, primes_up_to_norm
from quatsys.torsion import (candidate_orders, certify_torsion_free,
                             roots_in_field, two_cos_minimal_poly)


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


def test_roots_in_field(K):
    eta = K.gen()
    roots7 = roots_in_field(K, two_cos_minimal_poly(7))
    assert eta in roots7 and len(roots7) == 3
    assert roots_in_field(K, two_cos_minimal_poly(9)) == []
    assert roots_in_field(K, two_cos_minimal_poly(5)) == []
    roots14 = roots_in_field(K, two_cos_minimal_poly(14))
    assert sorted(r.coords for r in roots14) == sorted((-r).coords for r in roots7)


def test_roots_in_field_never_answers_uncertified(K, monkeypatch):
    # a placement that stays ambiguous at every precision must not read as
    # "no root in K": a missed root would hide an obstruction ideal
    def undecided(self, boxes, den, bits):
        raise PrecisionError("forced")

    monkeypatch.setattr(NumberField, "element_from_embeddings", undecided)
    with pytest.raises(PrecisionError):
        roots_in_field(K, two_cos_minimal_poly(7))


def test_unit_identity_backs_shortcircuit(K):
    eta = K.gen()
    assert eta * (eta - 1) * (eta + 2) == K.one()
    for r in roots_in_field(K, two_cos_minimal_poly(14)):
        assert abs((r - K.from_rational(2)).norm()) == 1


def test_prime_seven_certified(QH, P7):
    cert = certify_torsion_free(QH, P7)
    assert cert.torsion_free
    assert cert.strong_form
    sevens = [r for r in cert.records if r.n == 7]
    assert sevens and all(r.obstruction_norm == 7 for r in sevens)


def test_all_small_primes_certified(QH, K):
    for prime in primes_up_to_norm(K, 100):
        assert certify_torsion_free(QH, prime).torsion_free


def test_weak_form_blocks_at_obstruction(QH, K, P2):
    # with only the divisibility test (no principality), the even prime is
    # blocked by the order-4 trace: <2> divides <0 - 2>
    cert = certify_torsion_free(QH, P2, principal=False)
    assert not cert.torsion_free
    assert 4 in cert.blocking_orders
    # the strong square form certifies it
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
    from quatsys import torsion

    field, order, p7 = _fresh_hurwitz()
    calls = []

    def spy(*args):
        calls.append(args)
        return roots_in_field(*args)

    monkeypatch.setattr(torsion, "roots_in_field", spy)
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

    def undecided(self, boxes, den, bits):
        raise PrecisionError("forced")

    with monkeypatch.context() as patch:
        patch.setattr(NumberField, "element_from_embeddings", undecided)
        with pytest.raises(PrecisionError):
            certify_torsion_free(order, p7)
    cert = certify_torsion_free(order, p7)
    assert cert.torsion_free
    assert candidate_orders(field) == [1, 2, 3, 4, 6, 7, 14]
