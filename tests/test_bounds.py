import math
import random
from fractions import Fraction

import pytest

from quatsys.bounds import (explicit_constant, four_thirds_log_genus,
                            fuchsian_sr_bound, genus_from_index, hurwitz_43_check,
                            hurwitz_43_threshold, hurwitz_context, kleinian_bounds,
                            kleinian_sr_constant, kleinian_trace_bounds,
                            length_from_trace, psl_index, r_invariant,
                            sys_lower_bound_from_genus, sys_lower_bound_from_ideal,
                            trace_bound_pair, trace_lower_bound, v3_enclosure)
from quatsys.errors import InputError, InvariantViolation
from quatsys.numfield import IdealHNF


@pytest.fixture(scope="module")
def ctx():
    return hurwitz_context()


def test_trace_bounds_headline(ctx, P7, P2, P13s):
    assert trace_bound_pair(ctx, P7) == (Fraction(17, 16), Fraction(17, 16))
    assert trace_bound_pair(ctx, P2) == (Fraction(2), Fraction(2))
    assert trace_bound_pair(ctx, P13s[0]) == (Fraction(137, 16), Fraction(137, 16))


def test_trace_bound_vacuous_for_whole_ring(ctx, K):
    whole = K.whole_ring()
    assert trace_lower_bound(ctx, whole, sharp=False) < 0


def test_sharp_at_least_coarse_random(ctx, K):
    rng = random.Random(99)
    for _ in range(100):
        gens = [K.element([rng.randrange(-5, 6) for _ in range(3)]) for _ in range(2)]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        ideal = IdealHNF.from_generators(K, gens)
        sharp, coarse = trace_bound_pair(ctx, ideal)
        assert sharp >= coarse


def test_trace_bound_monotone_in_norm(ctx, K, P7, P13s):
    # same <2>+kappa*I norm (both odd), so the sharp bound grows with Norm(I)
    assert trace_lower_bound(ctx, P13s[0]) > trace_lower_bound(ctx, P7)


def test_length_from_trace_modes():
    with pytest.raises(InputError):
        length_from_trace(2, exact=True)
    exact = length_from_trace(3)
    bound = length_from_trace(3, exact=False)
    assert bound.hi < exact.lo
    assert float(exact.mid) == pytest.approx(2 * math.acosh(1.5), rel=1e-12)
    assert float(bound.mid) == pytest.approx(2 * math.log(2), rel=1e-12)
    # consistency across a grid of trace values, up to 10^6
    grid = [Fraction(k * k + 1, k) for k in range(3, 60)]
    grid += [Fraction(10 ** e) + Fraction(1, 7) for e in range(2, 7)]
    grid += [Fraction(2001, 1000), Fraction(10 ** 6)]
    for t in grid:
        assert length_from_trace(t, exact=False).hi < length_from_trace(t).lo


def test_length_inverts_cosh(ctx):
    ell = length_from_trace(Fraction(72972, 10000))
    t_back = 2 * math.cosh(float(ell.mid) / 2)
    assert t_back == pytest.approx(7.2972, abs=1e-9)


def test_psl_index_rule():
    assert psl_index(336, False) == 168
    assert psl_index(504, True) == 504
    assert psl_index(2184, False) == 1092
    with pytest.raises(InvariantViolation):
        psl_index(7, False)


def test_genus_pipeline(ctx):
    assert genus_from_index(ctx, 168) == 3
    assert genus_from_index(ctx, 504) == 7
    assert genus_from_index(ctx, 1092) == 14
    with pytest.raises(InvariantViolation):
        genus_from_index(ctx, 169)   # non-integral genus


def test_bound_column(ctx):
    refs = {3: 1.465, 7: 2.595, 14: 3.519, 17: 3.778}
    for g, val in refs.items():
        assert round(float(four_thirds_log_genus(g).mid), 3) == val


def test_four_thirds_boundary(ctx):
    assert hurwitz_43_threshold() == 65
    assert hurwitz_43_check(65)
    assert not hurwitz_43_check(64)
    # below genus 8 the chain is vacuous, and the inequality reads as not
    # established rather than raising
    for g in range(2, 8):
        assert sys_lower_bound_from_genus(ctx, g) is None
        assert not hurwitz_43_check(g)
    assert sys_lower_bound_from_genus(ctx, 8) is not None


def test_four_thirds_range_matches_a_linear_scan():
    # the oracle: every genus of 5..139 checked on its own, against the
    # threshold that bisection and the monotone gap give
    passing = [g for g in range(5, 140) if hurwitz_43_check(g)]
    assert passing == list(range(hurwitz_43_threshold(), 140))


def test_sys_floor_vacuous_and_meaningful(ctx, P7, P13s):
    assert sys_lower_bound_from_ideal(ctx, P7) is None   # floor 17/16 <= 2
    floor = sys_lower_bound_from_ideal(ctx, P13s[0])
    assert floor is not None
    assert float(floor.mid) == pytest.approx(2 * math.log(137 / 16 - 1), rel=1e-12)
    assert sys_lower_bound_from_genus(ctx, 3) is None
    chain65 = sys_lower_bound_from_genus(ctx, 65)
    assert float(chain65.mid) == pytest.approx(
        2 * math.log((21 * 64 / 16) ** (2 / 3) - 3), rel=1e-10)


def test_soundness_against_known_systoles(ctx, P13s):
    # every actual systole value must exceed the floor computed for its ideal
    floor = sys_lower_bound_from_ideal(ctx, P13s[0])
    for sys_val in (5.903, 6.393, 6.887):
        assert sys_val > float(floor.hi)


def test_constants(ctx):
    coeff, encl = r_invariant(ctx)
    assert coeff == Fraction(512, 21)
    assert float(encl.mid) == pytest.approx(512 / 21 * math.pi, rel=1e-12)
    c = explicit_constant(ctx)
    assert float(c.mid) == pytest.approx(math.log(16 / 21), rel=1e-12)
    v3 = v3_enclosure()
    ref_v3 = Fraction("1.01494160640965362502120255427")  # 30-digit evaluation
    assert abs(v3.mid - ref_v3) < Fraction(1, 10 ** 25)
    assert v3.lo <= ref_v3 + Fraction(1, 10 ** 28)
    assert v3.hi >= ref_v3 - Fraction(1, 10 ** 28)
    c1 = kleinian_sr_constant()
    assert float(c1.mid) == pytest.approx((8 / 27) / 1.0149416064096536, rel=1e-9)


def test_sr_bound(ctx):
    sr = fuchsian_sr_bound(ctx, 14)
    expect = (4 / (9 * math.pi)) * (math.log(14) - math.log(16 / 21)) ** 2 / 14
    assert float(sr.mid) == pytest.approx(expect, rel=1e-9)


def test_kleinian_evaluator():
    sharp, coarse = kleinian_trace_bounds(4, 100, norm_two_plus_kappa=16)
    assert coarse == Fraction(100, 4) - 2
    assert float(sharp.mid) == pytest.approx(100 / (2 ** 0 * 4) - 2, rel=1e-9)
    rep = kleinian_bounds(d=4, norm_i=100, lambda_value=1,
                          base_simplicial_volume=3, torsion_free_base=True)
    assert rep.cover_volume_bound == 3 * 10 ** 6
    assert float(rep.sys_floor.mid) == pytest.approx(2 * math.log(23 - 1), rel=1e-9)
    with pytest.raises(InputError):
        kleinian_bounds(d=4, norm_i=100, lambda_value=1,
                        base_simplicial_volume=3, torsion_free_base=False)
