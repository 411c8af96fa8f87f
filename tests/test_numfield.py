import functools
import itertools
import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from conftest import static_box_walk
from quatsys.bounds import compare_abs0
from quatsys.errors import InputError, PrecisionError
from quatsys.intervals import START_BITS, RatInterval, interval_solve, refine
from quatsys.numfield import (MAX_DEGREE, FieldElement, IdealHNF, NumberField,
                              abs_vs_two, factor_ideal, factor_rational_prime, hurwitz_field,
                              primes_up_to_norm, rationals)

T = sympy.Symbol("t")


def _random_element(field, rng, spread=6, denom=1):
    return field.element([Fraction(rng.randrange(-spread, spread + 1), denom)
                          for _ in range(field.degree)])


def _random_ideal(field, rng):
    while True:
        gens = [_random_element(field, rng, 5) for _ in range(2)]
        gens = [g for g in gens if not g.is_zero()]
        if gens:
            return IdealHNF.from_generators(field, gens)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def test_constructor_rejects_bad_fields():
    with pytest.raises(InputError):
        NumberField([1, 0, -1])          # t^2 - 1 reducible
    with pytest.raises(InputError):
        NumberField([1, 0, 1])           # t^2 + 1 not totally real
    with pytest.raises(InputError):
        NumberField([2, 0, -1])          # not monic
    with pytest.raises(InputError):
        # the classic non-monogenic-at-2 cubic: disc = 4*503, index 2
        NumberField([1, -1, -2, -8])
    # prod (t - k), k = 1 .. 13: totally real, refused for its degree alone
    poly = sympy.Poly(sympy.prod([T - k for k in range(1, MAX_DEGREE + 2)]), T)
    with pytest.raises(InputError, match=f"at most {MAX_DEGREE}"):
        NumberField([int(c) for c in poly.all_coeffs()])


def test_hurwitz_field_invariants(K):
    assert K.degree == 3
    assert K.disc == 49
    vals = [float(K.embedding_interval(s, 50).mid) for s in range(3)]
    assert vals == sorted(vals, reverse=True)
    assert vals[0] == pytest.approx(1.2469796037, abs=1e-9)
    assert vals[1] == pytest.approx(-0.4450418679, abs=1e-9)
    assert vals[2] == pytest.approx(-1.8019377358, abs=1e-9)


def test_rationals_degenerate_case(QQ):
    assert QQ.degree == 1
    x = QQ.from_rational(Fraction(22, 7))
    assert x.norm() == Fraction(22, 7)
    assert x.trace() == Fraction(22, 7)
    assert float(x.embed(0, 30).mid) == pytest.approx(22 / 7)


@pytest.mark.parametrize("minpoly,minkowski,proved", [
    ([1, 0], 1.0, True),                   # Q
    ([1, 1, -2, -1], 1.556, True),         # Q(eta)
    ([1, 0, -2], 1.414, True),             # Q(sqrt 2)
    ([1, 0, -3], 1.732, True),             # Q(sqrt 3)
    ([1, -1, -1], 1.118, True),            # Q(sqrt 5)
    ([1, 0, -6], 2.449, False),            # Q(sqrt 6)
    ([1, 0, -7], 2.646, False),            # Q(sqrt 7)
    ([1, 0, -10], 3.162, False),           # Q(sqrt 10)
])
def test_class_number_one_is_proved_exactly_when_minkowski_is_below_two(minpoly, minkowski,
                                                                         proved):
    field = NumberField(minpoly)
    d = field.degree
    assert math.factorial(d) / d ** d * math.sqrt(abs(field.disc)) == pytest.approx(
        minkowski, abs=1e-3)
    assert field.class_number_one is proved


# ---------------------------------------------------------------------------
# element arithmetic
# ---------------------------------------------------------------------------


def test_known_norms_and_units(K):
    eta = K.gen()
    assert (K.from_rational(2) - eta).norm() == 7
    assert eta.norm() == 1
    assert K.one().norm() == 1
    assert (eta * (eta - 1) * (eta + 2)) == K.one()
    assert (K.from_rational(2) + eta).norm() == 1


def test_norm_trace_against_resultant_oracle(K):
    rng = random.Random(11)
    m = sympy.Poly([1, 1, -2, -1], T)
    for _ in range(40):
        x = _random_element(K, rng, 8)
        xpoly = sympy.Poly([int(c) for c in reversed(x.coords)] or [0], T)
        res = sympy.resultant(m, xpoly) if not x.is_zero() else 0
        assert x.norm() == Fraction(int(res))


def test_norm_multiplicative_trace_additive(K):
    rng = random.Random(5)
    for _ in range(60):
        x = _random_element(K, rng, 7, denom=rng.choice([1, 2, 3]))
        y = _random_element(K, rng, 7, denom=rng.choice([1, 2]))
        assert (x * y).norm() == x.norm() * y.norm()
        assert (x + y).trace() == x.trace() + y.trace()


def test_norm_equals_product_of_embeddings(K):
    rng = random.Random(17)
    for _ in range(20):
        x = _random_element(K, rng, 6)
        if x.is_zero():
            continue
        prod_lo, prod_hi = Fraction(1), Fraction(1)
        box = None
        for s in range(K.degree):
            e = x.embed(s, 70)
            box = e if box is None else box * e
        assert box.lo <= x.norm() <= box.hi


def test_inverse_and_division(K):
    rng = random.Random(23)
    for _ in range(30):
        x = _random_element(K, rng, 9, denom=rng.choice([1, 2, 5]))
        if x.is_zero():
            continue
        assert (x * x.inverse()) == K.one()
        y = _random_element(K, rng, 9)
        if not y.is_zero():
            assert ((x / y) * y) == x


def test_embedding_refinement(K):
    eta = K.gen()
    wide = eta.embed(0, 10)
    narrow = eta.embed(0, 120)
    assert narrow.width <= Fraction(1, 2 ** 120)
    assert wide.lo <= narrow.lo and narrow.hi <= wide.hi
    one = K.one().embed(2, 10)
    assert one.lo == one.hi == 1


# ---------------------------------------------------------------------------
# ideals
# ---------------------------------------------------------------------------


def test_norm_of_rational_multiples(K):
    for m in range(1, 21):
        ideal = IdealHNF.principal(K, K.from_rational(m))
        assert ideal.norm == m ** K.degree


def test_two_is_inert_with_f8_residue(K, P2):
    assert P2.norm == 8
    # O_K/<2> is a field iff every nonzero residue is invertible mod <2>
    field_like = all(
        (IdealHNF.principal(K, K.element(r)) + P2).is_whole_ring()
        for r in P2.residues() if any(r))
    assert field_like


def test_seven_totally_ramified(K, P7):
    assert P7.norm == 7
    assert P7 ** 3 == IdealHNF.principal(K, K.from_rational(7))
    fac = factor_rational_prime(K, 7)
    assert len(fac) == 1 and fac[0][1] == 3 and fac[0][2] == 1


def test_thirteen_splits_completely(K, P13s):
    assert [p.norm for p in P13s] == [13, 13, 13]
    assert len({p.mat for p in P13s}) == 3


def test_factorizations_recombine(K):
    for p in (2, 3, 5, 7, 11, 13, 29):
        fac = factor_rational_prime(K, p)
        assert sum(e * f for _pr, e, f in fac) == K.degree
        prod = K.whole_ring()
        for prime, e, _f in fac:
            prod = prod * prime ** e
            assert prime.contains(K.from_rational(p))
        assert prod == IdealHNF.principal(K, K.from_rational(p))


def test_dedekind_identity_random(K):
    rng = random.Random(31)
    for _ in range(15):
        i1 = _random_ideal(K, rng)
        i2 = _random_ideal(K, rng)
        assert (i1 + i2) * i1.intersect(i2) == i1 * i2
        assert (i1 * i2).norm == i1.norm * i2.norm


def test_fractional_inverse_identities(K, P7, P2):
    rng = random.Random(41)
    for ideal in [P7, P2, _random_ideal(K, rng), _random_ideal(K, rng)]:
        inv = ideal.inverse()
        assert (inv * ideal).is_whole_ring()
    half = P2.inverse()
    assert half.den == 2 and half.num.is_whole_ring()


def test_fractional_membership(K, P7):
    inv = P7.inverse()
    eta = K.gen()
    gen = (K.from_rational(2) - eta).inverse()
    assert inv.contains(gen)
    assert inv.contains(K.one())
    assert not inv.contains(gen * gen)


def test_divides_is_containment(K, P7, P2):
    assert P7.divides(P7 * P2)
    assert P2.divides(P7 * P2)
    assert not (P7 * P7).divides(P7)
    assert (P7 * P7).divides(P7 ** 3)


def test_factor_ideal_composite(K, P7, P2, P13s):
    ideal = P7 * P2 * P13s[0]
    fac = dict((pr.mat, v) for pr, v in factor_ideal(K, ideal))
    assert fac[P7.mat] == 1 and fac[P2.mat] == 1 and fac[P13s[0].mat] == 1
    ideal2 = P7 ** 2 * P2
    fac2 = dict((pr.mat, v) for pr, v in factor_ideal(K, ideal2))
    assert fac2[P7.mat] == 2


def test_primes_up_to_norm(K):
    norms = [p.norm for p in primes_up_to_norm(K, 50)]
    assert norms == [7, 8, 13, 13, 13, 27, 29, 29, 29, 41, 41, 41, 43, 43, 43]


def test_zero_ideal_rejected(K):
    with pytest.raises(InputError):
        IdealHNF.from_generators(K, [K.zero()])
    with pytest.raises(InputError):
        IdealHNF.from_generators(K, [K.gen() / 2])  # not integral


def test_printing_formats(K, P7):
    eta = K.gen()
    x = (eta + 1) / 2
    assert str(x) == "(1/2, 1/2, 0)"
    assert str(P7).count(";") == 2


# ---------------------------------------------------------------------------
# recovering elements from certified embeddings
# ---------------------------------------------------------------------------

FIELDS = {"eta": hurwitz_field(), "Q": rationals()}
BITS = 60


@st.composite
def _lattice_elements(draw):
    field = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    den = draw(st.sampled_from([1, 2]))
    nums = draw(st.lists(st.integers(-40, 40), min_size=field.degree,
                         max_size=field.degree))
    return field, den, field.element([Fraction(n, den) for n in nums])


@settings(max_examples=60, deadline=None)
@given(_lattice_elements())
def test_element_from_embeddings_roundtrip(case):
    field, den, x = case
    boxes = [x.embed(s, BITS) for s in range(field.degree)]
    assert field.element_from_embeddings(boxes, den, BITS) == x


@settings(max_examples=60, deadline=None)
@given(_lattice_elements())
def test_element_from_embeddings_off_lattice_is_none(case):
    field, den, x = case
    # every coordinate of x + shift sits halfway between multiples of 1/den
    shifted = x + field.element([Fraction(1, 2 * den)] * field.degree)
    boxes = [shifted.embed(s, BITS) for s in range(field.degree)]
    assert field.element_from_embeddings(boxes, den, BITS) is None


@settings(max_examples=60, deadline=None)
@given(_lattice_elements(), st.fractions(Fraction(1, 1000), 3))
def test_element_from_embeddings_wide_box_is_ambiguous(case, extra):
    field, den, x = case
    # the boxes hold x + t for every rational t in [0, width], and width > 1/den,
    # so the constant coordinate admits at least two multiples of 1/den
    width = Fraction(1, den) + extra
    boxes = [x.embed(s, BITS) + RatInterval(0, width) for s in range(field.degree)]
    with pytest.raises(PrecisionError):
        field.element_from_embeddings(boxes, den, BITS)


def test_embedding_inverse_cached_per_precision():
    K = hurwitz_field()
    inv = K.embedding_inverse(BITS)
    assert K.embedding_inverse(BITS) is inv
    assert K.embedding_inverse(2 * BITS) is not inv
    # the enclosure really inverts the embedding matrix
    theta = [K.embedding_interval(s, BITS) for s in range(3)]
    for m in range(3):
        for k in range(3):
            entry = sum((inv[m][s] * theta[s] ** k for s in range(3)),
                        RatInterval.exact(0))
            assert (1 if m == k else 0) in entry


# Q(eta), Q (B6), Q(sqrt 2) (Q2max), and the real subfields of Q(zeta_11), Q(zeta_13)
DUAL_FIELDS = {"eta": [1, 1, -2, -1], "Q": [1, 0], "sqrt2": [1, 0, -2],
               "zeta11+": [1, 1, -4, -3, 3, 1], "zeta13+": [1, 1, -5, -4, 6, 3, -1]}


@functools.lru_cache(maxsize=None)
def _dual_field(name):
    K = NumberField(DUAL_FIELDS[name])
    return K, K.embedding_inverse(START_BITS)


@pytest.mark.parametrize("name", sorted(DUAL_FIELDS))
def test_embedding_inverse_reads_the_trace_dual_basis(name):
    K, inv = _dual_field(name)
    d = K.degree
    dual = K.cached("dual_basis", None)  # formed by the first embedding_inverse
    assert len(dual) == d
    theta = K.gen()
    for i in range(d):
        for m in range(d):
            assert (theta ** i * dual[m]).trace() == (1 if i == m else 0)
    for m in range(d):
        for s in range(d):
            assert _ends(inv[m][s]) == _ends(dual[m].embed(s, START_BITS))
    K.embedding_inverse(2 * START_BITS)
    assert K.cached("dual_basis", None) is dual  # once per field, whatever the precision


@pytest.mark.parametrize("name", sorted(DUAL_FIELDS))
def test_embedding_inverse_entries_are_narrow(name):
    _K, inv = _dual_field(name)
    assert all(e.width <= Fraction(1, 2 ** START_BITS) for row in inv for e in row)


@pytest.mark.parametrize("name", sorted(DUAL_FIELDS))
def test_embedding_inverse_meets_the_interval_gauss_jordan(name):
    K, inv = _dual_field(name)
    d = K.degree
    theta = [K.embedding_interval(s, START_BITS) for s in range(d)]
    emb = [[theta[s] ** m for m in range(d)] for s in range(d)]
    for k in range(d):
        col = interval_solve(emb, [RatInterval.exact(int(s == k)) for s in range(d)])
        for m in range(d):
            assert max(inv[m][k].lo, col[m].lo) <= min(inv[m][k].hi, col[m].hi)


# -- certified comparisons ---------------------------------------------------------


def embed_spy(monkeypatch):
    """(coords, bits) of every FieldElement.embed call, in call order."""
    asked = []
    embed = FieldElement.embed

    def spy(self, place, bits):
        asked.append((self.coords, bits))
        return embed(self, place, bits)

    monkeypatch.setattr(FieldElement, "embed", spy)
    return asked


# eta^k is tiny at place 1 and w^k at place 0 (w = eta^2 - 2, both units):
# |eta^100| ~ 2^-117 and |eta^150|, |w^150| ~ 2^-175 there, so each comparison
# below needs several refinements; the schedules start at START_BITS, double,
# and stop at the first enclosure that separates
REFINEMENT_SCHEDULES = [
    (lambda eta: abs_vs_two(2 - eta ** 150, 1), -1, [60, 120, 240]),
    (lambda eta: abs_vs_two(2 + eta ** 150, 1), 1, [60, 120, 240]),
    (lambda eta: (eta ** 100).sign_at(1), 1, [60, 120]),
    (lambda eta: (-eta ** 31).sign_at(1), 1, [60]),
    (lambda eta: compare_abs0(eta.field.from_rational(3), 3 + (eta * eta - 2) ** 150),
     -1, [60, 60, 120, 120, 240, 240]),
    (lambda eta: compare_abs0(-3 - (eta * eta - 2) ** 150, eta.field.from_rational(3)),
     1, [60, 60, 120, 120, 240, 240]),
]


@pytest.mark.parametrize("compare,answer,schedule", REFINEMENT_SCHEDULES)
def test_comparisons_keep_their_refinement_schedule(monkeypatch, compare, answer, schedule):
    eta = hurwitz_field().gen()
    asked = embed_spy(monkeypatch)
    assert compare(eta) == answer
    assert [bits for _coords, bits in asked] == schedule


_SMALL = st.fractions(min_value=-12, max_value=12, max_denominator=4)
_COORDS = st.lists(_SMALL, min_size=3, max_size=3)


def _conjugates(x):
    """sigma_s(x) at 300 bits; the roots 2 cos(2 pi k / 7) in decreasing order."""
    roots = [2 * mp.cos(2 * mp.pi * k / 7) for k in (1, 2, 3)]
    return [sum(mp.mpf(c.numerator) / c.denominator * r ** k
                for k, c in enumerate(x.coords)) for r in roots]


def _sign(v):
    return 0 if abs(v) < mp.mpf(2) ** -200 else (1 if v > 0 else -1)


@settings(max_examples=80, deadline=None)
@given(_COORDS, _COORDS, st.integers(0, 2))
def test_comparisons_agree_with_300_bit_conjugates(K, tc, uc, place):
    t, u = K.element(tc), K.element(uc)
    with mp.workprec(300):
        ct, cu = _conjugates(t), _conjugates(u)
        assert t.sign_at(place) == _sign(ct[place])
        assert abs_vs_two(t, place) == _sign(abs(ct[place]) - 2)
        assert compare_abs0(t, u) == _sign(abs(ct[0]) - abs(cu[0]))


# -- history independence --------------------------------------------------------


def _ends(box):
    return box.lo, box.hi


_PRECISION = st.integers(8, 512)


@settings(max_examples=60, deadline=None)
@given(_COORDS, _COORDS, st.integers(0, 2), st.integers(0, 2), _PRECISION, _PRECISION)
def test_embeddings_do_not_depend_on_earlier_calls(xc, yc, place, other_place, b1, b2):
    fresh, used = hurwitz_field(), hurwitz_field()
    used.element(yc).embed(other_place, b2)
    assert _ends(used.element(xc).embed(place, b1)) == _ends(fresh.element(xc).embed(place, b1))


@settings(max_examples=15, deadline=None)
@given(_COORDS, st.integers(0, 2), _PRECISION, _PRECISION)
def test_embedding_inverse_does_not_depend_on_earlier_calls(yc, place, b1, b2):
    fresh, used = hurwitz_field(), hurwitz_field()
    used.element(yc).embed(place, b2)
    used.embedding_inverse(b2)
    assert [[_ends(e) for e in row] for row in used.embedding_inverse(b1)] == \
        [[_ends(e) for e in row] for row in fresh.embedding_inverse(b1)]


def test_a_fine_embedding_leaves_coarse_ones_and_the_roots_alone():
    K = hurwitz_field()
    roots = [_ends(r) for r in K.roots]
    x = K.element([3, 8, 4])
    coarse = _ends(x.embed(0, 60))
    assert x.embed(0, 1024).width <= Fraction(1, 2 ** 1024)
    assert _ends(x.embed(0, 60)) == coarse
    assert [_ends(r) for r in K.roots] == roots


# -- the float check of |sigma_s| against 2 ----------------------------------------


def _vs_two_cases(K):
    """Integral elements at and near |sigma_s| = 2: eta^k is tiny at place 1 and
    w^k = (eta^2 - 2)^k at place 0, both units."""
    eta = K.gen()
    w = eta * eta - 2
    yield from (K.from_rational(2), K.from_rational(-2), K.one(), K.zero())
    for k in (40, 100, 150):
        for unit in (eta ** k, w ** k):
            yield from (2 - unit, 2 + unit, unit - 2, -2 - unit)


def test_float_check_agrees_with_abs_vs_two_at_the_edges(K):
    table = K.place_table()
    decided = 0
    for t in _vs_two_cases(K):
        for s in range(3):
            got = table.vs_two(t.num, s)
            assert got in (None, abs_vs_two(t, s)), (str(t), s)
            decided += got is not None
            if max(abs(n) for n in t.num) > 2 ** 53:
                assert got is None  # beyond 2^53 a coordinate is not a float
    # +-2 sit on the boundary: only the exact test can say 0
    for t in (K.from_rational(2), K.from_rational(-2)):
        assert [table.vs_two(t.num, s) for s in range(3)] == [None] * 3
        assert [abs_vs_two(t, s) for s in range(3)] == [0] * 3
    # eta^40 is ~1e-14 at place 1, below the float error of its ~1e10 coordinates
    eta40 = K.gen() ** 40
    assert table.vs_two((2 - eta40).num, 1) is None and abs_vs_two(2 - eta40, 1) == -1
    assert decided > 0


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-3, 3), min_size=3, max_size=3), st.integers(0, 60),
       st.sampled_from([1, -1]), st.booleans(), st.integers(0, 2))
def test_float_check_agrees_with_abs_vs_two_near_two(K, small, k, sign, at_zero, place):
    eta = K.gen()
    unit = (eta * eta - 2 if at_zero else eta) ** k
    t = K.from_rational(2 * sign) + K.element(small) * unit
    got = K.place_table().vs_two(t.num, place)
    assert got in (None, abs_vs_two(t, place))


# -- the ranged box walk ----------------------------------------------------------


def _outside(x, limits):
    """Whether |sigma_s x| > limits[s] at some place, decided exactly."""
    for s, limit in enumerate(limits):
        if x.is_rational():
            if abs(x.coords[0]) > limit:
                return True
        elif refine(lambda b: (x.embed(s, b).abs() - limit).sign(), START_BITS) > 0:
            return True
    return False


# field, largest limit: the static box of Q(zeta_15)^+ grows as limit^4
BOX_FIELDS = {"Q(eta)": ([1, 1, -2, -1], 6), "Q(sqrt2)": ([1, 0, -2], 12), "Q": ([1, 0], 12),
              "Q(zeta15)+": ([1, -1, -4, 4, 1], 3)}


@functools.cache
def _box_field(name):
    return NumberField(BOX_FIELDS[name][0])


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(BOX_FIELDS)), st.data())
def test_box_walk_keeps_every_point_of_the_box_in_order(name, data):
    field = _box_field(name)
    d, top = field.degree, BOX_FIELDS[name][1]
    limits = [data.draw(st.fractions(Fraction(1, 10), top, max_denominator=16))
              for _ in range(d)]
    hnf = None
    if data.draw(st.booleans(), label="lattice"):
        rng = random.Random(data.draw(st.integers(0, 10 ** 6), label="seed"))
        hnf = _random_ideal(field, rng).mat
    shift = data.draw(st.integers(-3, 3), label="shift")
    ranged = [x.num for x in field.box_walk(limits, hnf, shift)]
    static = [x.num for x in static_box_walk(field, limits, hnf, shift)]
    kept = set(ranged)
    assert kept <= set(static)
    # the ranges drop only points outside the box, and keep the walk's order
    assert ranged == [x for x in static if x in kept]
    assert all(_outside(FieldElement(field, x), limits) for x in static if x not in kept)


def test_box_walk_keeps_points_on_the_faces_of_the_box(K):
    # each box is the enclosure of x's own |sigma_s x| at 200 bits, so x lies
    # within 2^-200 of a face at every place: the rounding widening keeps it
    for coords in itertools.product(range(-2, 3), repeat=3):
        x = K.element(coords)
        limits = [x.embed(s, 200).abs().hi for s in range(3)]
        assert x.num in [y.num for y in K.box_walk(limits)], coords


def test_box_walk_beyond_the_double_range_keeps_its_static_range(K):
    # 2^1100 has no float: the walk falls back to the static box, whose
    # first points are those of the static oracle
    limits = [Fraction(2) ** 1100, 2, 2]
    first = list(itertools.islice(K.box_walk(limits), 5))
    assert [x.num for x in first] == \
        [x.num for x in itertools.islice(static_box_walk(K, limits), 5)]
