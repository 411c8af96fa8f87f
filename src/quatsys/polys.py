"""Exact polynomial and integer arithmetic for one number field's set-up.

Three small toolkits, each textbook (Cohen, GTM 138, sections 3.1-3.4 and
chapter 8):

* Q[t] -- dense coefficient lists in *ascending* order (``coeffs[k]``
  multiplies ``t**k``) with Fraction or int entries: division with
  remainder, gcd, the extended gcd modulo a polynomial, the determinant of
  a rational matrix, and the discriminant of a monic integer polynomial.
* GF(p)[t] -- ascending lists of residues in [0, p) with no trailing zeros
  (the zero polynomial is ``[]``): squarefree, distinct-degree and
  equal-degree factoring.  Equal-degree splitting is Cantor-Zassenhaus on a
  fixed sequence of seeds t, t + 1, ..., t + p - 1, 2t, ... (the trace map
  at p = 2), so every factorisation is free of randomness and of call
  history.
* Z -- `isprime` (deterministic Miller-Rabin below 3.3e24, Baillie-PSW
  above) and `factorint` (trial division, perfect powers, Pollard-Brent).

`real_rooted_irreducible` certifies irreducibility over Q of a polynomial
whose roots are all real and isolated, by enclosing the coefficients of
every candidate factor.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

from .errors import CapExceeded, InvariantViolation
from .intervals import RatInterval, refine

# ---------------------------------------------------------------------------
# Q[t]
# ---------------------------------------------------------------------------


def poly_degree(coeffs) -> int:
    d = len(coeffs) - 1
    while d >= 0 and coeffs[d] == 0:
        d -= 1
    return d


def trim(coeffs):
    d = poly_degree(coeffs)
    return [Fraction(c) for c in coeffs[: d + 1]]


def poly_deriv(coeffs):
    return [k * Fraction(c) for k, c in enumerate(coeffs)][1:]


def poly_divmod(num, den):
    num = trim(num)
    den = trim(den)
    if poly_degree(den) < 0:
        raise ZeroDivisionError("polynomial division by zero")
    quot = [Fraction(0)] * max(0, len(num) - len(den) + 1)
    rem = list(num)
    dd = poly_degree(den)
    lead = den[dd]
    while poly_degree(rem) >= dd:
        dr = poly_degree(rem)
        f = rem[dr] / lead
        quot[dr - dd] = f
        for k in range(dd + 1):
            rem[dr - dd + k] -= f * den[k]
        rem = rem[:dr]  # the leading term cancelled exactly
        if not rem:
            rem = [Fraction(0)]
    return quot if quot else [Fraction(0)], trim(rem) or [Fraction(0)]


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def poly_sub(a, b):
    n = max(len(a), len(b))
    a = list(a) + [0] * (n - len(a))
    b = list(b) + [0] * (n - len(b))
    return [x - y for x, y in zip(a, b)]


def poly_gcd(a, b):
    """Monic gcd over the rationals."""
    a, b = trim(a), trim(b)
    while poly_degree(b) >= 0:
        _, r = poly_divmod(a, b)
        a, b = b, trim(r)
    if poly_degree(a) < 0:
        return [Fraction(0)]
    lead = a[poly_degree(a)]
    return [c / lead for c in a]


def poly_xgcd_mod(a, m):
    """(gcd, u) with u*a = gcd modulo m, over Q[t]; gcd returned unnormalized."""
    r0, r1 = trim(m), trim(a)
    s0, s1 = [Fraction(0)], [Fraction(1)]
    while poly_degree(r1) > 0:
        q, r = poly_divmod(r0, r1)
        r0, r1 = r1, trim(r) or [Fraction(0)]
        s0, s1 = s1, poly_sub(s0, poly_mul(q, s1))
        if poly_degree(r1) < 0:
            raise InvariantViolation("element shares a factor with the minimal polynomial")
    return r1, s1


def det_fraction(rows) -> Fraction:
    """Determinant of a square rational matrix by exact Gaussian elimination."""
    n = len(rows)
    mat = [list(map(Fraction, r)) for r in rows]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if mat[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            mat[col], mat[piv] = mat[piv], mat[col]
            det = -det
        det *= mat[col][col]
        inv = 1 / mat[col][col]
        for r in range(col + 1, n):
            f = mat[r][col] * inv
            if f:
                mat[r] = [x - f * y for x, y in zip(mat[r], mat[col])]
    return det


def discriminant(coeffs) -> int:
    """Discriminant of a monic integer polynomial of degree d >= 1.

    disc f = (-1)^(d(d-1)/2) Res(f, f'), and Res(f, f') is the determinant
    of multiplication by f'(t) on Q[t]/(f): row k holds t^k f'(t) mod f.
    """
    d = len(coeffs) - 1
    rows = []
    cur = poly_deriv(coeffs)
    for _ in range(d):
        rows.append(cur + [0] * (d - len(cur)))
        cur = poly_divmod([0] + cur, coeffs)[1]
    return (-1) ** (d * (d - 1) // 2) * int(det_fraction(rows))


# ---------------------------------------------------------------------------
# GF(p)[t]
# ---------------------------------------------------------------------------


def gf_reduce(coeffs, p: int):
    """The polynomial with integer coefficients `coeffs` reduced modulo p."""
    out = [int(c) % p for c in coeffs]
    while out and not out[-1]:
        out.pop()
    return out


def gf_monic(a, p: int):
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def gf_sub(a, b, p: int):
    return gf_reduce(poly_sub(a, b), p)


def gf_mul(a, b, p: int):
    return gf_reduce(poly_mul(a, b), p)


def gf_divmod(a, b, p: int):
    """(quotient, remainder) of a by a nonzero b."""
    db = len(b) - 1
    inv = pow(b[-1], -1, p)
    rem = list(a)
    quot = [0] * max(0, len(a) - db)
    for k in range(len(quot) - 1, -1, -1):
        c = rem[k + db] * inv % p
        quot[k] = c
        if c:
            for j, y in enumerate(b):
                rem[k + j] -= c * y
    return gf_reduce(quot, p), gf_reduce(rem[:db], p)


def gf_gcd(a, b, p: int):
    """Monic gcd ([] when both are zero)."""
    while b:
        a, b = b, gf_divmod(a, b, p)[1]
    return gf_monic(a, p) if a else []


def gf_powmod(a, e: int, mod, p: int):
    """a^e modulo the polynomial `mod`."""
    out = [1]
    base = gf_divmod(a, mod, p)[1]
    while e:
        if e & 1:
            out = gf_divmod(gf_mul(out, base, p), mod, p)[1]
        base = gf_divmod(gf_mul(base, base, p), mod, p)[1]
        e >>= 1
    return out


def gf_sqf(f, p: int):
    """[(g, e)] with f = prod g^e for monic f: each g monic, squarefree and
    nonconstant, pairwise coprime."""
    out = []
    c = gf_gcd(f, gf_reduce([k * a for k, a in enumerate(f)][1:], p), p)
    w = gf_divmod(f, c, p)[0]
    e = 1
    while len(w) > 1:
        y = gf_gcd(w, c, p)
        part = gf_divmod(w, y, p)[0]
        if len(part) > 1:
            out.append((part, e))
        w = y
        c = gf_divmod(c, y, p)[0]
        e += 1
    if len(c) > 1:
        # c is a polynomial in t^p, and a^p = a in GF(p): c = (c[::p])^p
        out += [(g, k * p) for g, k in gf_sqf(c[::p], p)]
    return out


def gf_ddf(f, p: int):
    """[(g, k)] for monic squarefree f: g is the product of the irreducible
    factors of f of degree k."""
    out = []
    t = [0, 1]
    h = t
    k = 0
    while len(f) - 1 >= 2 * (k + 1):
        k += 1
        h = gf_powmod(h, p, f, p)
        g = gf_gcd(f, gf_sub(h, t, p), p)
        if len(g) > 1:
            out.append((g, k))
            f = gf_divmod(f, g, p)[0]
            h = gf_divmod(h, f, p)[1]
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def _seeds(p: int):
    """t, t + 1, ..., t + p - 1, 2t, ...: every polynomial of positive degree
    once, as the base-p digits of p, p + 1, p + 2, ..."""
    for s in itertools.count(p):
        digits = []
        while s:
            s, r = divmod(s, p)
            digits.append(r)
        yield digits


def gf_edf(f, k: int, p: int):
    """The monic irreducible factors of f, a product of distinct ones of
    degree k: Cantor-Zassenhaus on the seeds of `_seeds`."""
    if len(f) - 1 <= k:
        return [f]
    for a in _seeds(p):
        if p == 2:
            # the trace a + a^2 + ... + a^(2^(k-1)) is 0 or 1 on each factor
            b = gf_divmod(a, f, 2)[1]
            split = b
            for _ in range(k - 1):
                b = gf_divmod(gf_mul(b, b, 2), f, 2)[1]
                split = gf_sub(split, b, 2)
        else:
            split = gf_sub(gf_powmod(a, (p ** k - 1) // 2, f, p), [1], p)
        g = gf_gcd(f, split, p)
        if 1 < len(g) < len(f):
            return gf_edf(g, k, p) + gf_edf(gf_divmod(f, g, p)[0], k, p)
    raise AssertionError("unreachable: the seeds run through every polynomial")


def gf_factor(coeffs, p: int):
    """Monic irreducible factors with multiplicities of a monic integer
    polynomial modulo p, sorted by (degree, coefficients from the top)."""
    out = []
    for g, e in gf_sqf(gf_reduce(coeffs, p), p):
        for h, k in gf_ddf(g, p):
            out += [(q, e) for q in gf_edf(h, k, p)]
    return sorted(out, key=lambda qe: (len(qe[0]), qe[0][::-1]))


# ---------------------------------------------------------------------------
# Z: primality and factoring
# ---------------------------------------------------------------------------

_SMALL_PRIMES = [q for q in range(2, 1000) if all(q % r for r in range(2, math.isqrt(q) + 1))]
# Miller-Rabin with the first 13 prime bases is exact below this bound
# (Sorenson and Webster, Math. Comp. 86 (2017))
_MR_BASES = _SMALL_PRIMES[:13]
_MR_LIMIT = 3317044064679887385961981


def _strong_probable_prime(n: int, a: int) -> bool:
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    a %= n
    out = 1
    while a:
        while not a & 1:
            a >>= 1
            if n % 8 in (3, 5):
                out = -out
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            out = -out
        a %= n
    return out if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas test with Selfridge's parameters (odd n, not a square)."""
    D = 5
    while _jacobi(D, n) != -1:
        if _jacobi(D, n) == 0 and abs(D) != n:
            return False
        D = -D - 2 if D > 0 else -D + 2
    P, Q = 1, (1 - D) // 4
    d, s = n + 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    # U_d, V_d and Q^d by the binary method, from U_1 = 1, V_1 = P
    U, V, Qk = 1, P, Q % n
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V = P * U + V, D * U + P * V
            U = ((U + n if U & 1 else U) >> 1) % n
            V = ((V + n if V & 1 else V) >> 1) % n
            Qk = Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V = (V * V - 2 * Qk) % n
        if V == 0:
            return True
        Qk = Qk * Qk % n
    return False


def isprime(n: int) -> bool:
    """Primality: trial division, then Miller-Rabin with the first 13 prime
    bases (exact below 3.3e24), then Baillie-PSW (no counterexample known)."""
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if q * q > n:
            return True
        if n % q == 0:
            return n == q
    if n < _MR_LIMIT:
        return all(_strong_probable_prime(n, a) for a in _MR_BASES)
    return (_strong_probable_prime(n, 2) and math.isqrt(n) ** 2 != n
            and _strong_lucas_probable_prime(n))


def _iroot(n: int, k: int) -> int:
    """floor(n^(1/k)) by Newton's method from above."""
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


# Pollard-Brent iterations allowed for one split: rho finds a prime factor p
# in about sqrt(p) of them, so this reaches every p up to about 10^9, at
# about 0.25 s for a 40-digit n (2-vCPU VM, Python 3.11)
_RHO_STEPS = 1 << 18
# above this many bits of n a step's products grow with n (0.9 s for the full
# budget at 512 bits, 7.6 s at 2000), so the budget shrinks as the square of
# the size, which keeps one split below about 0.4 s at any size
_RHO_BITS = 256


def _rho_budget(n: int) -> int:
    """The Pollard-Brent steps allowed for splitting n."""
    bits = n.bit_length()
    return _RHO_STEPS if bits <= _RHO_BITS else _RHO_STEPS * _RHO_BITS ** 2 // bits ** 2


def _pollard_brent(n: int) -> int:
    """A proper divisor of the odd composite n that is not a perfect power
    (Brent, BIT 20 (1980)); the polynomials y^2 + c, c = 1, 2, ..., start
    at y = 2, so the divisor found is the same on every call.  Raises
    CapExceeded after `_rho_budget(n)` iterations, counted over every c."""
    steps, budget = 0, _rho_budget(n)
    for c in itertools.count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            steps += 2 * r  # r to move x, at most r more in the batches
            if steps > budget:
                raise CapExceeded(f"no factor of {n} found in {budget} Pollard-Brent steps")
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            # the batch overshot: step from its start one term at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise AssertionError("unreachable")


def _split(n: int, mult: int, out: dict):
    """Add the factorisation of n^mult to `out`; n has no prime factor below 1000."""
    if isprime(n):
        out[n] = out.get(n, 0) + mult
        return
    for k in range(2, n.bit_length() // 9 + 1):
        root = _iroot(n, k)
        if root ** k == n:
            _split(root, mult * k, out)
            return
    d = _pollard_brent(n)
    _split(d, mult, out)
    _split(n // d, mult, out)


def factorint(n: int) -> dict:
    """{prime: exponent} for an integer n >= 1, primes ascending.

    Raises CapExceeded when a composite part has no prime factor in reach of
    `_rho_budget`, as with two prime factors of more than about ten digits."""
    if n < 1:
        raise ValueError(f"factorint needs n >= 1, got {n}")
    out = {}
    for q in _SMALL_PRIMES:
        while n % q == 0:
            out[q] = out.get(q, 0) + 1
            n //= q
    if n > 1:
        _split(n, 1, out)
    return dict(sorted(out.items()))


# ---------------------------------------------------------------------------
# Irreducibility over Q
# ---------------------------------------------------------------------------


def real_rooted_irreducible(coeffs, root_box) -> bool:
    """Whether a monic squarefree integer polynomial of degree d, all of whose
    d roots are real, is irreducible over Q.

    ``root_box(k, b)`` is a RatInterval of width at most 2^-b around root k,
    for k = 0 .. d-1 (`NumberField.embedding_interval`).  By Gauss's lemma a
    factor of degree k <= d/2 may be taken monic with integer coefficients,
    and then it is prod_{i in S} (t - r_i) for a k-subset S of the roots.
    Each subset's coefficients are enclosed and refined until one of them
    holds no integer (no factor) or each holds exactly one (a candidate,
    settled by exact division).  An irreducible polynomial costs all
    2^(d-1) subsets, so the time doubles with each degree (about 2 s at
    d = 12; `numfield.MAX_DEGREE`).
    """
    d = len(coeffs) - 1
    for k in range(1, d // 2 + 1):
        for subset in itertools.combinations(range(d), k):
            candidate = refine(functools.partial(_subset_factor, root_box, subset), 8)
            if candidate and poly_degree(poly_divmod(coeffs, candidate)[1]) < 0:
                return False
    return True


def _subset_factor(root_box, subset, bits: int):
    """False when some coefficient of prod (t - r) over the subset's roots
    holds no integer at this precision, the integer coefficients when each
    holds exactly one, None while some holds several."""
    prod = [RatInterval.exact(1)]
    for k in subset:
        box = root_box(k, bits)
        shifted = [RatInterval.exact(0)] + prod
        prod = [s - box * c for s, c in zip(shifted, prod + [RatInterval.exact(0)])]
    out = []
    ambiguous = False
    for c in prod:
        lo, hi = math.ceil(c.lo), math.floor(c.hi)
        if lo > hi:
            return False
        ambiguous = ambiguous or lo < hi
        out.append(lo)
    return None if ambiguous else out
