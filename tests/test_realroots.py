import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from quatsys.realroots import (isolate_real_roots, poly_eval, refine_root,
                               squarefree_part, sturm_chain, count_roots)

T = sympy.Symbol("t")


@pytest.mark.parametrize("coeffs", [
    [-1, -2, 1, 1],          # 2cos(2pi/7) family: three real roots
    [1, -3, 0, 1],           # 2cos(2pi/9) family
    [-2, 0, 1],              # sqrt(2)
    [2, 0, 1],               # no real roots
    [0, 1],                  # root at 0
    [-6, 11, -6, 1],         # 1, 2, 3
])
def test_isolation_matches_sympy(coeffs):
    mine = isolate_real_roots(coeffs)
    poly = sympy.Poly(list(reversed(coeffs)), T)
    ref = sorted(float(r) for r in sympy.real_roots(poly))
    assert len(mine) == len(ref)
    for (lo, hi), r in zip(mine, ref):
        assert float(lo) < r < float(hi) or abs(float(lo) - r) < 1e-12


def test_isolating_intervals_are_disjoint_and_refinable():
    coeffs = [-1, -2, 1, 1]
    sqf = squarefree_part(coeffs)
    ivs = isolate_real_roots(coeffs)
    for (a1, b1), (a2, b2) in zip(ivs, ivs[1:]):
        assert b1 <= a2
    for lo, hi in ivs:
        rlo, rhi = refine_root(sqf, lo, hi, Fraction(1, 2 ** 100))
        assert rhi - rlo <= Fraction(1, 2 ** 100)
        assert poly_eval(sqf, rlo) * poly_eval(sqf, rhi) < 0


def test_squarefree_part_strips_multiplicity():
    # (t-1)^2 (t+2)
    coeffs = [2, -3, 0, 1]
    sqf = squarefree_part(coeffs)
    assert len(sqf) == 3
    assert poly_eval(sqf, Fraction(1)) == 0
    assert poly_eval(sqf, Fraction(-2)) == 0


def test_sturm_count_random_cubics():
    rng = random.Random(20240811)
    for _ in range(25):
        roots = sorted(rng.sample(range(-12, 13), 3))
        # monic cubic with known integer roots
        a, b, c = roots
        coeffs = [-a * b * c, a * b + a * c + b * c, -(a + b + c), 1]
        sqf = squarefree_part(coeffs)
        chain = sturm_chain(sqf)
        n = count_roots(chain, Fraction(-100), Fraction(100))
        assert n == len(set(roots))
        found = isolate_real_roots(coeffs)
        assert len(found) == len(set(roots))
        for (lo, hi), r in zip(found, sorted(set(roots))):
            assert lo < r < hi or poly_eval(sqf, Fraction(r)) == 0


def refine_root_fractions(coeffs, lo: Fraction, hi: Fraction, width: Fraction):
    """Oracle: the bisection of `refine_root` on Fractions."""
    slo = poly_eval(coeffs, lo)
    shi = poly_eval(coeffs, hi)
    if slo == 0 or shi == 0:
        raise ValueError("isolating interval endpoints must not be roots")
    if (slo > 0) == (shi > 0):
        raise ValueError("interval does not bracket a sign change")
    neg_left = slo < 0
    while hi - lo > width:
        mid = (lo + hi) / 2
        v = poly_eval(coeffs, mid)
        if v == 0:
            eps = min(width, hi - lo) / 4
            return (mid - eps, mid + eps) if width > 0 else (mid, mid)
        if (v < 0) == neg_left:
            lo = mid
        else:
            hi = mid
    return lo, hi


# integer-rooted factors make the bisection meet rational roots exactly
_FACTORS = st.lists(st.tuples(st.integers(-6, 6), st.sampled_from([1, 2, 3, 4])),
                    min_size=0, max_size=3)


@settings(max_examples=150, deadline=None)
@given(extra=st.lists(st.integers(-9, 9), min_size=1, max_size=4),
       lead=st.sampled_from([1, 2, 3, -5]), factors=_FACTORS, bits=st.integers(0, 120),
       odd=st.integers(1, 40))
def test_integer_bisection_matches_the_fraction_oracle(extra, lead, factors, bits, odd):
    coeffs = extra + [lead]
    for root, den in factors:  # times (den t - root)
        coeffs = [a - b for a, b in zip([0] + [den * c for c in coeffs],
                                        [root * c for c in coeffs] + [0])]
    sqf = squarefree_part(coeffs)
    for width in (Fraction(1, 2 ** bits), Fraction(odd, 3 ** (bits // 3 + 1)), Fraction(0)):
        for lo, hi in isolate_real_roots(coeffs):
            if width == 0 and poly_eval(sqf, (lo + hi) / 2) != 0:
                continue  # bisecting to width 0 ends only at a rational root
            assert refine_root(sqf, lo, hi, width) == refine_root_fractions(sqf, lo, hi, width)


def test_integer_bisection_collapses_around_a_rational_root():
    # (2t - 1)(t^2 - 2): the first midpoint of (0, 1) is the root 1/2
    coeffs = [2, -4, -1, 2]
    for width in (Fraction(1, 8), Fraction(3), Fraction(0)):
        got = refine_root(coeffs, Fraction(0), Fraction(1), width)
        assert got == refine_root_fractions(coeffs, Fraction(0), Fraction(1), width)
    assert refine_root(coeffs, Fraction(0), Fraction(1), Fraction(1, 8)) == \
        (Fraction(1, 2) - Fraction(1, 32), Fraction(1, 2) + Fraction(1, 32))
    with pytest.raises(ValueError, match="must not be roots"):
        refine_root(coeffs, Fraction(1, 2), Fraction(1), Fraction(1, 8))
    with pytest.raises(ValueError, match="sign change"):
        refine_root(coeffs, Fraction(-3, 4), Fraction(-1, 4), Fraction(1, 8))
