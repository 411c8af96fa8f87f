import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import quatsys.quatalg as quatalg
from conftest import B6_SPEC
from quatsys.geodesics import RadiusSchedule, systole_search
from quatsys.lattice import reduce_mod
from quatsys.numfield import (FieldElement, IdealHNF, NumberField, factor_ideal,
                              factor_rational_prime, hurwitz_field, primes_up_to_norm,
                              rationals)
from quatsys.orders import hurwitz_j_prime
from quatsys.quatalg import RAMIFIED, SPLIT, QuaternionAlgebra
from quatsys.specfile import parse_spec_text


def _random_quat(D, rng, spread=5, denom=1):
    K = D.field
    return D.element(*[K.element([Fraction(rng.randrange(-spread, spread + 1), denom)
                                  for _ in range(K.degree)]) for _ in range(4)])


def test_defining_relations(D):
    i, j, ij = D.gen_i(), D.gen_j(), D.gen_ij()
    assert i * j == ij
    assert j * i == -ij
    assert i * i == D.element(D.a, 0, 0, 0)
    assert j * j == D.element(D.b, 0, 0, 0)
    assert ij * ij == D.element(-(D.a * D.b), 0, 0, 0)
    assert i * ij == D.element(0, 0, D.a, 0)
    assert ij * i == D.element(0, 0, -D.a, 0)


def test_j_prime_trace_norm_square(D):
    K = D.field
    eta = K.gen()
    jp = hurwitz_j_prime(D)
    assert jp.reduced_trace() == K.one()
    assert jp.reduced_norm() == -(K.one() + eta * 3)
    assert jp * jp == jp + (K.one() + eta * 3)


def test_involution_and_characteristic_identity(D):
    rng = random.Random(97)
    one = D.one()
    for _ in range(1000):
        x = _random_quat(D, rng, 4, denom=rng.choice([1, 2]))
        y = _random_quat(D, rng, 4)
        assert (x * y).reduced_norm() == x.reduced_norm() * y.reduced_norm()
        assert (x * y).conj() == y.conj() * x.conj()
        assert (x + x.conj()).is_central()
        assert x * x.conj() == one * x.reduced_norm()
        # x^2 - Tr(x) x + N(x) = 0
        lhs = x * x - x * x.reduced_trace() + one * x.reduced_norm()
        assert lhs.is_zero()


def test_real_places(D, QQ):
    assert D.real_place_status(0) == SPLIT
    assert D.real_place_status(1) == RAMIFIED
    assert D.real_place_status(2) == RAMIFIED
    assert D.real_ramified_places() == [1, 2]
    assert D.is_cocompact_presentation()
    Dq = QuaternionAlgebra(QQ, QQ.from_rational(2), QQ.from_rational(3))
    assert Dq.real_place_status(0) == SPLIT
    # over Q the only other places are the primes: (2, 3) ramifies at 2 and 3,
    # and (1, 1), (4, -1) are M_2(Q)
    assert Dq.is_cocompact_presentation()
    for a, b in ((1, 1), (4, -1)):
        split = QuaternionAlgebra(QQ, QQ.from_rational(a), QQ.from_rational(b))
        assert split.ramification_report().finite_ramified == []
        assert not split.is_cocompact_presentation()


def test_finite_ramification_hurwitz_empty(D, P7, P2, P13s):
    for prime in [P7, P2] + P13s:
        assert D.finite_prime_status(prime) == SPLIT


def test_mod8_witness_accepted(D, P2):
    K = D.field
    eta = K.gen()
    lam = [K.one(), K.one() + eta * 3 + eta * eta, eta, K.zero()]
    assert is_isotropy_witness(D, P2, 3, lam)
    # non-primitive tuples are never witnesses
    lam2 = [x * 2 for x in lam]
    assert not is_isotropy_witness(D, P2, 3, lam2)


def test_two_three_algebra_over_Q(QQ):
    Dq = QuaternionAlgebra(QQ, QQ.from_rational(2), QQ.from_rational(3))
    statuses = {}
    for p in (2, 3, 5, 7, 11, 13):
        prime = factor_rational_prime(QQ, p)[0][0]
        statuses[p] = Dq.finite_prime_status(prime)
    assert statuses == {2: RAMIFIED, 3: RAMIFIED, 5: SPLIT, 7: SPLIT,
                        11: SPLIT, 13: SPLIT}
    report = Dq.ramification_report(13)
    assert [p.norm for p in report.finite_ramified] == [2, 3]
    assert report.real_ramified == []
    assert report.parity_consistent


def test_ramification_parity_counts_primes_above_the_bound(QQ):
    # every ramified prime divides 2ab, so the parity is whole whatever the bound
    Dq = QuaternionAlgebra(QQ, QQ.from_rational(2), QQ.from_rational(3))
    report = Dq.ramification_report(2)
    assert [p.norm for p in report.finite_ramified] == [2]
    assert report.parity_consistent
    hamilton = QuaternionAlgebra(QQ, QQ.from_rational(-1), QQ.from_rational(-1))
    report = hamilton.ramification_report(1)
    assert report.finite_ramified == [] and report.real_ramified == [0]
    assert report.parity_consistent


def test_hurwitz_ramification_report(D):
    report = D.ramification_report(50)
    assert report.finite_ramified == []
    assert all(D.finite_prime_status(prime) in (SPLIT, RAMIFIED)
               for prime in primes_up_to_norm(D.field, 50))
    assert report.real_ramified == [1, 2]
    assert report.parity_consistent


def test_nonintegral_constants_rejected(QQ):
    from quatsys.errors import InputError

    with pytest.raises(InputError):
        QuaternionAlgebra(QQ, QQ.from_rational(Fraction(1, 2)), QQ.one())
    with pytest.raises(InputError):
        QuaternionAlgebra(QQ, QQ.zero(), QQ.one())


# ---------------------------------------------------------------------------
# The Hilbert symbol against the isotropy-search oracle
# ---------------------------------------------------------------------------

SQRT17 = NumberField([1, -1, -4], name="Q(theta), theta^2 = theta + 4")


def _algebra(field, a, b):
    lift = lambda v: field.element(v) if isinstance(v, list) else field.from_rational(v)
    return QuaternionAlgebra(field, lift(a), lift(b))


ORACLE_CASES = [
    (hurwitz_field(), [0, 1, 0], [0, 1, 0]),
    (rationals(), 2, 3),
    (rationals(), -1, -1),
    (rationals(), -1, 3),
    (SQRT17, -1, -1),
    (SQRT17, [0, 1], -3),
    # ramified at exactly one of the two dyadic primes
    (SQRT17, [1, 2], [-3, 1]),
]


@pytest.mark.parametrize("field,a,b", ORACLE_CASES,
                         ids=lambda v: v.name if isinstance(v, NumberField) else str(v))
def test_hilbert_symbol_matches_search_oracle(field, a, b):
    algebra = _algebra(field, a, b)
    decided = 0
    for prime in primes_up_to_norm(field, 30):
        expected, _witness = finite_prime_status_witnessed(algebra, prime)
        if expected != UNDECIDED:
            decided += 1
            assert algebra.finite_prime_status(prime) == expected, prime
    assert decided > 0


def test_sqrt17_algebra_ramifies_at_one_dyadic_prime():
    algebra = _algebra(SQRT17, [1, 2], [-3, 1])
    dyadic = [p for p, _e, _f in factor_rational_prime(SQRT17, 2)]
    assert len(dyadic) == 2
    assert sorted(algebra.finite_prime_status(p) for p in dyadic) == [RAMIFIED, SPLIT]


# ---------------------------------------------------------------------------
# Properties of the Hilbert symbol over small random structure constants
# ---------------------------------------------------------------------------

PROPERTY_FIELDS = [rationals(), hurwitz_field(), SQRT17]


@st.composite
def _field_and_elements(draw, count):
    field = draw(st.sampled_from(PROPERTY_FIELDS))
    coord = st.integers(-6, 6)
    elems = [field.element(draw(st.lists(coord, min_size=field.degree,
                                         max_size=field.degree)))
             for _ in range(count)]
    for x in elems:
        assume(not x.is_zero() and abs(x.norm()) <= 400)
    return field, elems


def _bad_primes(field, a, b):
    """The primes dividing 2ab, the only ones where (a, b) can ramify."""
    return [p for p, _v in factor_ideal(field, IdealHNF.principal(field, a * b * 2))]


@settings(max_examples=25, deadline=None)
@given(_field_and_elements(2))
def test_hilbert_symbol_is_symmetric(case):
    field, (a, b) = case
    ab, ba = QuaternionAlgebra(field, a, b), QuaternionAlgebra(field, b, a)
    for prime in _bad_primes(field, a, b):
        assert ab.finite_prime_status(prime) == ba.finite_prime_status(prime)


@settings(max_examples=25, deadline=None)
@given(_field_and_elements(3))
def test_hilbert_symbol_ignores_square_factors(case):
    field, (a, b, c) = case
    plain = QuaternionAlgebra(field, a, b)
    scaled = QuaternionAlgebra(field, a, b * c * c)
    for prime in _bad_primes(field, a, b * c):
        assert plain.finite_prime_status(prime) == scaled.finite_prime_status(prime)


@settings(max_examples=25, deadline=None)
@given(_field_and_elements(1))
def test_hilbert_symbol_of_norms_is_trivial(case):
    field, (a,) = case
    pairs = [QuaternionAlgebra(field, a, -a)]
    if not (1 - a).is_zero():
        pairs.append(QuaternionAlgebra(field, a, 1 - a))
    for algebra in pairs:
        for prime in _bad_primes(field, algebra.a, algebra.b):
            assert algebra.finite_prime_status(prime) == SPLIT


@settings(max_examples=25, deadline=None)
@given(_field_and_elements(2))
def test_ramified_places_are_even_in_number(case):
    field, (a, b) = case
    algebra = QuaternionAlgebra(field, a, b)
    finite = [p for p in _bad_primes(field, a, b)
              if algebra.finite_prime_status(p) == RAMIFIED]
    assert (len(algebra.real_ramified_places()) + len(finite)) % 2 == 0


# ---------------------------------------------------------------------------
# Tests-side oracle: the bounded-exhaustive isotropy search that decided
# finite ramification before the Hilbert symbol.  It looks for a primitive
# zero of the norm form modulo increasing prime powers; a found zero is
# accepted only with a verified Hensel condition (some partial derivative of
# valuation s with level k > 2s), so "split" answers are certificates, and
# "ramified" ones too, because an isotropic completion would force a
# primitive zero at every level.  Past the caps it answers `undecided`.
# ---------------------------------------------------------------------------

UNDECIDED = "undecided"


def norm_form_coeffs(algebra):
    one = algebra.field.one()
    return (one, -algebra.a, -algebra.b, algebra.ab)


def finite_prime_status_witnessed(algebra, prime: IdealHNF, max_level: int = 6,
                                  pair_cap: int = 1 << 23):
    """(status, witness); witness is (level, lambda residue 4-tuple) for splits."""
    K = algebra.field
    two = IdealHNF.principal(K, K.from_rational(2))
    diadic_e = two.valuation(prime) if prime.divides(two) else 0
    level = 1
    while level <= max_level:
        q_k = prime.norm ** level
        if q_k * q_k > pair_cap:
            return UNDECIDED, None
        found = _search_level(algebra, prime, level)
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


def _search_level(algebra, prime: IdealHNF, k: int):
    """One level of the primitive-zero search modulo prime**k.

    Meet in the middle: the norm form splits as
    (l1^2 - a*l2^2) - (b*l3^2 - a*b*l4^2); a zero is a value collision
    between the two halves.  Per matched value we track the least
    attainable derivative valuation with and without half-primitivity,
    which is enough to decide the Hensel condition for the best
    combined tuple without storing all pairs.
    """
    K = algebra.field
    P = prime ** k
    c1, c2, c3, c4 = norm_form_coeffs(algebra)
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

    side_a = _half_table(P, residues, sq_scaled[0], sq_scaled[1],
                         in_prime, coeff_val[0], coeff_val[1])
    # the collision equation is c1 l1^2 + c2 l2^2 = -(c3 l3^2 + c4 l4^2)
    neg_b1 = [tuple(P.reduce([-x for x in v])) for v in sq_scaled[2]]
    neg_b2 = [tuple(P.reduce([-x for x in v])) for v in sq_scaled[3]]
    side_b = _half_table(P, residues, neg_b1, neg_b2,
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


def _half_table(P, residues, tab1, tab2, in_prime, val1, val2):
    """value -> [min val any pair, witness, min val half-primitive pair, witness]."""
    table = {}
    mat = [list(r) for r in P.mat]
    n = len(residues)
    for a in range(n):
        va = tab1[a]
        v1 = val1[a]
        p1 = not in_prime[a]
        r1 = residues[a]
        for b in range(n):
            value = tuple(reduce_mod(mat, [x + y for x, y in zip(va, tab2[b])]))
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


def _primitive_combos(rec_a, rec_b):
    a_any, a_any_w, a_prim, a_prim_w = rec_a
    b_any, b_any_w, b_prim, b_prim_w = rec_b
    if a_prim is not None:
        yield a_prim, a_prim_w, b_any, b_any_w
    if b_prim is not None:
        yield a_any, a_any_w, b_prim, b_prim_w


def is_isotropy_witness(algebra, prime: IdealHNF, level: int, lam) -> bool:
    """Check a claimed certified zero of the norm form modulo prime**level."""
    K = algebra.field
    P = prime ** level
    elems = [x if isinstance(x, FieldElement) else K.from_rational(x) for x in lam]
    if all(prime.contains(e) for e in elems):
        return False  # not primitive
    c = norm_form_coeffs(algebra)
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


def test_finite_ramification_is_found_once_per_algebra(monkeypatch):
    """`systole_search` asks whether a B6 presentation is cocompact twice (the
    trace-coset minimum and the enumerator), and the ramification report asks
    for the ramified primes again; 2ab is factored once for all three."""
    order = parse_spec_text(B6_SPEC)["order"]  # fresh, so nothing is cached yet
    D, q = order.algebra, order.algebra.field
    two_ab = IdealHNF.principal(q, D.ab * 2)
    factored = []
    factor = quatalg.factor_ideal

    def spy(field, ideal):
        factored.append(ideal == two_ab)
        return factor(field, ideal)

    monkeypatch.setattr(quatalg, "factor_ideal", spy)
    result = systole_search(order, IdealHNF.principal(q, q.from_rational(5)),
                            RadiusSchedule(2.0, 1.0, 22.0))
    assert result.mode == "certified"
    assert [p.norm for p in D.ramification_report().finite_ramified] == [2, 3]
    assert factored.count(True) == 1
