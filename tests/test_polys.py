"""The exact polynomial and integer helpers of `quatsys.polys`, against sympy."""

import time
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_factor as sympy_gf_factor

from quatsys import polys
from quatsys.errors import CapExceeded, InputError
from quatsys.numfield import NumberField
from quatsys.polys import (discriminant, factorint, gf_factor, isprime,
                           real_rooted_irreducible)
from quatsys.intervals import RatInterval
from quatsys.realroots import isolate_real_roots, refine_root

T = sympy.Symbol("t")

# ascending coefficients of a monic integer polynomial of degree 1 .. 6
MONIC = st.integers(1, 6).flatmap(
    lambda d: st.lists(st.integers(-20, 20), min_size=d, max_size=d).map(lambda c: c + [1]))


def _sympy_poly(coeffs):
    return sympy.Poly(list(reversed(coeffs)), T)


def _irreducible(coeffs):
    """The certified test, for a monic integer polynomial with only real roots."""
    if discriminant(coeffs) == 0:
        return False
    roots = isolate_real_roots(coeffs)
    assert len(roots) == len(coeffs) - 1
    return real_rooted_irreducible(coeffs, lambda k, bits: RatInterval(
        *refine_root(coeffs, *roots[k], Fraction(1, 2 ** bits))))


@given(MONIC)
@settings(max_examples=200, deadline=None)
def test_discriminant_matches_sympy(coeffs):
    assert discriminant(coeffs) == int(sympy.discriminant(_sympy_poly(coeffs)))


def _times(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


# monic polynomials near prod (t - 4 x_i): a small perturbation keeps every
# root real, and a product of two of them is reducible
NEAR_SPLIT = st.integers(1, 6).flatmap(lambda d: st.tuples(
    st.lists(st.integers(-6, 6), min_size=d, max_size=d, unique=True),
    st.lists(st.integers(-3, 3), min_size=d, max_size=d)))


def _near_split(data):
    xs, shift = data
    f = [1]
    for x in xs:
        f = _times(f, [-4 * x, 1])
    return [c + s for c, s in zip(f, shift + [0])]


@given(NEAR_SPLIT, st.one_of(st.none(), NEAR_SPLIT))
@settings(max_examples=150, deadline=None)
def test_irreducibility_matches_sympy_on_real_rooted_polynomials(first, second):
    coeffs = _near_split(first)
    if second is not None:
        coeffs = _times(coeffs, _near_split(second))
    assume(len(coeffs) <= 7 and len(isolate_real_roots(coeffs)) == len(coeffs) - 1)
    assert _irreducible(coeffs) == _sympy_poly(coeffs).is_irreducible


@pytest.mark.parametrize("coeffs", [
    [-1, 0, 1],              # t^2 - 1
    [6, -2, -3, 1],          # (t^2 - 2)(t - 3)
    [2, -3, 0, 1],           # (t - 1)^2 (t + 2)
    [6, 0, -5, 0, 1],        # (t^2 - 2)(t^2 - 3)
    _times([-1, -2, 1], [-1, -2, 1, 1]),   # (t^2 - 2t - 1)(t^3 + t^2 - 2t - 1)
])
def test_fixed_reducible_polynomials_are_rejected(coeffs):
    assert not _sympy_poly(coeffs).is_irreducible
    assert not _irreducible(coeffs)
    with pytest.raises(InputError, match="reducible"):
        NumberField(list(reversed(coeffs)))


# the real subfields of the 7th, 9th, 8th, 12th, 11th and 13th cyclotomic fields
@pytest.mark.parametrize("coeffs", [[-1, -2, 1, 1], [1, -3, 0, 1], [-2, 0, 1],
                                    [1, 0, -4, 0, 1], [1, 3, -3, -4, 1, 1],
                                    [-1, 3, 6, -4, -5, 1, 1]])
def test_totally_real_irreducible_polynomials_are_accepted(coeffs):
    assert _sympy_poly(coeffs).is_irreducible
    assert _irreducible(coeffs)


def test_a_reducible_polynomial_with_complex_roots_is_still_an_input_error():
    with pytest.raises(InputError):
        NumberField([1, -1, 1, -1])      # (t^2 + 1)(t - 1)


@pytest.mark.parametrize("p", [2, 3, 7, 18446744073709551629])
@given(coeffs=MONIC)
@settings(max_examples=60, deadline=None)
def test_gf_factor_matches_sympy(p, coeffs):
    _, ref = sympy_gf_factor([ZZ(c % p) for c in reversed(coeffs)], p, ZZ)
    expected = sorted(([int(c) for c in reversed(fac)], e) for fac, e in ref)
    assert sorted(gf_factor(coeffs, p)) == expected


CARMICHAEL = [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 321197185]
STRONG_PSEUDOPRIMES = [2047, 3277, 4033, 1373653, 25326001, 3215031751, 2152302898747,
                       3474749660383, 341550071728321, 3825123056546413051,
                       318665857834031151167461, 3317044064679887385961981]


@pytest.mark.parametrize("n", CARMICHAEL + STRONG_PSEUDOPRIMES)
def test_isprime_rejects_pseudoprimes(n):
    assert not isprime(n) and not sympy.isprime(n)


@pytest.mark.parametrize("n", [2, 3, 997, 1009, 1000000007, 2 ** 61 - 1, 2 ** 89 - 1,
                               2 ** 127 - 1, 18446744073709551629])
def test_isprime_accepts_primes(n):
    assert isprime(n) and sympy.isprime(n)


@given(st.one_of(st.integers(-10, 10 ** 6), st.integers(0, 10 ** 30)))
@settings(max_examples=300, deadline=None)
def test_isprime_matches_sympy(n):
    assert isprime(n) == sympy.isprime(n)


@given(st.one_of(st.integers(1, 10 ** 12),
                 st.lists(st.sampled_from([2, 3, 1009, 65537, 1000003]), max_size=6)
                 .map(lambda ps: sympy.prod(ps, start=1)).map(int)))
@settings(max_examples=150, deadline=None)
def test_factorint_matches_sympy(n):
    assert factorint(n) == {int(p): e for p, e in sympy.factorint(n).items()}


@pytest.mark.parametrize("n", [1, 1000000016000000063,
                               (10 ** 9 + 7) ** 3 * (10 ** 9 + 9) ** 3,
                               (2 ** 31 - 1) ** 2 * (2 ** 61 - 1), 1009 ** 5])
def test_factorint_of_large_composites(n):
    assert factorint(n) == {int(p): e for p, e in sympy.factorint(n).items()}


def test_factorint_stops_on_two_large_prime_factors():
    # sympy's ECM splits this; Pollard-Brent would need about 10^10 steps
    with pytest.raises(CapExceeded, match="Pollard-Brent"):
        factorint(10000000000000000051 * 30000000000000000041)


def test_pollard_brent_budget_shrinks_with_the_size_of_n():
    assert polys._rho_budget(2 ** 255) == polys._RHO_STEPS
    assert polys._rho_budget(2 ** 511) == polys._RHO_STEPS // 4
    # two primes of 1000 bits: no split, and about as fast as at 40 digits
    p = sympy.nextprime(2 ** 1000)
    q = sympy.nextprime(3 * 2 ** 999)
    started = time.monotonic()
    with pytest.raises(CapExceeded, match=f"in {polys._rho_budget(p * q)} Pollard-Brent"):
        factorint(p * q)
    assert time.monotonic() - started < 1.0


def test_factorint_rejects_non_positive_input():
    for n in (0, -12):
        with pytest.raises(ValueError):
            factorint(n)
