"""Exact real root isolation for integer polynomials.

Sturm-chain root counting over rational sample points, bisection down to
isolating intervals with non-root rational endpoints, and on-demand
refinement to any requested width.  Everything here is Fraction-exact, so
the returned intervals are certified enclosures, not floating point guesses.

Polynomials are dense coefficient lists in *ascending* order
(``coeffs[k]`` multiplies ``x**k``); the Q[t] arithmetic lives in `polys`.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .intervals import RatInterval
from .polys import poly_degree, poly_deriv, poly_divmod, poly_gcd, trim


def poly_eval(coeffs, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def poly_eval_interval(coeffs, x: RatInterval) -> RatInterval:
    acc = RatInterval.exact(0)
    for c in reversed(coeffs):
        acc = acc * x + Fraction(c)
    return acc


def squarefree_part(coeffs):
    d = poly_gcd(coeffs, poly_deriv(coeffs))
    if poly_degree(d) <= 0:
        return trim(coeffs)
    q, r = poly_divmod(coeffs, d)
    assert poly_degree(r) < 0 or all(c == 0 for c in r)
    return trim(q)


def sturm_chain(coeffs):
    p0 = trim(coeffs)
    p1 = trim(poly_deriv(p0))
    chain = [p0, p1]
    while poly_degree(chain[-1]) > 0:
        _, r = poly_divmod(chain[-2], chain[-1])
        r = trim([-c for c in r])
        if poly_degree(r) < 0:
            break
        chain.append(r)
    return chain


def _sign_changes(chain, x: Fraction) -> int:
    signs = []
    for p in chain:
        v = poly_eval(p, x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_roots(chain, lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots in (lo, hi]; needs a squarefree chain."""
    return _sign_changes(chain, lo) - _sign_changes(chain, hi)


def root_bound(coeffs) -> Fraction:
    """Cauchy bound: all real roots lie in (-B, B)."""
    coeffs = trim(coeffs)
    lead = abs(coeffs[-1])
    if len(coeffs) == 1:
        return Fraction(1)
    return 1 + max(abs(Fraction(c)) for c in coeffs[:-1]) / lead


def isolate_real_roots(coeffs) -> list[tuple[Fraction, Fraction]]:
    """Disjoint open isolating intervals for all distinct real roots, ascending.

    Endpoints are rational non-roots of the squarefree part, so sign
    evaluations at the endpoints stay informative during refinement.
    """
    sqf = squarefree_part(coeffs)
    deg = poly_degree(sqf)
    if deg <= 0:
        return []
    chain = sturm_chain(sqf)
    bound = root_bound(sqf)
    found = []

    def split(lo, hi, n):
        if n == 0:
            return
        if n == 1:
            found.append((lo, hi))
            return
        mid = (lo + hi) / 2
        while poly_eval(sqf, mid) == 0:
            # nudge the cut off the root; the perturbed point is still interior
            mid += (hi - lo) / 64
        nl = count_roots(chain, lo, mid)
        split(lo, mid, nl)
        split(mid, hi, n - nl)

    total = count_roots(chain, -bound, bound)
    split(-bound, bound, total)
    return sorted(found)


def refine_root(coeffs, lo: Fraction, hi: Fraction, width: Fraction):
    """Shrink an isolating interval of a squarefree poly below `width` by bisection.

    The halves depend on (lo, hi) alone, so refining a returned interval
    continues one chain, unless it hits a rational root (a width-dependent margin).
    The bisection runs on integers: the endpoints are a/q and b/q over one
    common denominator q, which each halving doubles, and f(x/q) has the sign
    of the homogenised sum_k c_k x^k q^(n-k) (q > 0, the c_k scaled to
    integers by a positive factor).  The endpoints are those of bisecting
    the Fractions.
    """
    coeffs = [Fraction(c) for c in coeffs]
    scale = math.lcm(*(c.denominator for c in coeffs))
    ints = [int(c * scale) for c in reversed(coeffs)]  # descending integer coefficients

    def sign(x, q):
        acc, qk = ints[0], 1
        for c in ints[1:]:
            qk *= q
            acc = acc * x + c * qk
        return (acc > 0) - (acc < 0)

    lo, hi, width = Fraction(lo), Fraction(hi), Fraction(width)
    q = math.lcm(lo.denominator, hi.denominator)
    a, b = lo.numerator * (q // lo.denominator), hi.numerator * (q // hi.denominator)
    slo, shi = sign(a, q), sign(b, q)
    if slo == 0 or shi == 0:
        raise ValueError("isolating interval endpoints must not be roots")
    if slo == shi:
        raise ValueError("interval does not bracket a sign change")
    w_num, w_den = width.numerator, width.denominator
    while (b - a) * w_den > w_num * q:
        mid = a + b  # (lo + hi) / 2 = mid / 2q
        v = sign(mid, 2 * q)
        if v == 0:
            # exact rational root: collapse around it
            root = Fraction(mid, 2 * q)
            eps = min(width, Fraction(b - a, q)) / 4
            return (root - eps, root + eps) if width > 0 else (root, root)
        a, b, q = 2 * a, 2 * b, 2 * q
        if v == slo:
            a = mid
        else:
            b = mid
    return Fraction(a, q), Fraction(b, q)
