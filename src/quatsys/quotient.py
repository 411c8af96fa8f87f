"""Finite quotients Q/(p^t Q): exhaustive unit and norm-one counting,
radical and semisimple type from the unit count, square counting, and the
index-bound factor.

The exhaustive counts are the ground truth here; the closed-form counting
identities are the claims being validated against them.

Every ring of one order reads the order's tables (structure constants,
involution, norm form, identity; `OrderLattice.tables`, Python integers),
built once per order.  A ring adds its norm form as a read-only int64
array (a table that does not fit int64 raises `CapExceeded`), its
congruence lattice in order coordinates, and the classification of the
central residues O_K/p^t into units.  It counts its residues at most once.

Counting.  The reduced residues are the product set {0 <= x_j < diag_j}.
Coordinates with diag_j == 1 are always 0; the others split into leading
ones h and trailing ones l, each set of about sqrt(card) points, and the
scaled norm S = kappa * nu is quadratic:

    S(h + l) = S(h) + S(l) + h^T (T_k + T_k^T) l,   T = norm_tensor.

S is computed over each half once, and the cross coefficients
c_a(l) = (T + T^T)[a] l once for every leading a.  Divisibility by kappa is
checked on these parts: every norm value is divisible exactly when S(h),
S(l) and the cross coefficients are, since S(e_a + l) - S(e_a) - S(l) is
the coefficient of h_a.  Central values are reduced by the HNF of the
ideal.  Its rows with pivot 1 act linearly (the entries above a pivot 1
are 0), so they are applied to the parts once, leaving r coordinates, those
with pivot p_k > 1; the rest of the HNF (`_center_reduce`) then puts each
part's coordinate k in [0, p_k), the cross coefficients included, as h_a
is an integer.  The raw value of a pair,

    v_k = sum_a h_a c_ak(l) + S(h)_k + S(l)_k,

is then a sum of non-negative terms below V_k = (p_k - 1)(D + 2) + 1, with
D the sum of diag_a - 1 over the leading a, and its mixed-radix raw code in
the V_k is below M = prod V_k.  A block of leading residues, each row
[h | S(h) | 1], times the fixed matrix [cross; r indicator rows; S(l)] in
that radix gives the raw codes of all its pairs in one matrix product,
tallied by one `bincount` into a histogram of M bins.  Once per ring the
nonzero bins are decoded, reduced and keyed by central class.  Every
partial sum of a code lies in [0, M), so the product runs in float64/BLAS
when M < 2^53 and in int64 otherwise; a ring with M above its cap, or at
2^63 or more, is refused with `CapExceeded`.  Each block holds at most
`_CHUNK` residues.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

import numpy as np

from . import lattice
from .errors import CapExceeded, InputError, InvariantViolation
from .numfield import IdealHNF, factor_ideal
from .orders import OrderLattice
from .quatalg import RAMIFIED, QuaternionAlgebra

DEFAULT_CAP = 10 ** 7
_CHUNK = 1 << 15


class FiniteQuotRing:
    """The finite ring Q/(p^t Q) with its involution and central norm map."""

    def __init__(self, order: OrderLattice, prime: IdealHNF, t: int,
                 cap: int = DEFAULT_CAP):
        if t < 1:
            raise InputError("exponent t must be >= 1")
        self.order = order
        self.prime = prime
        self.t = t
        self.q = prime.norm
        # as q >= 2, q^(4t) > cap exactly when q^min(4t, bits of cap) > cap
        if self.q ** min(4 * t, cap.bit_length()) > cap:
            raise CapExceeded(f"quotient has q^(4t) = {self.q}^{4 * t} residues, "
                              f"above the cap {cap}")
        self.ideal = prime ** t
        self.cardinality = self.ideal.norm ** 4

        self.dim = order.dim
        self.center_dim = order.algebra.field.degree
        self.kappa = order.kappa
        self.tables = order.tables
        self.norm_tensor = _int64(self.tables.norm_tensor)

        # the congruence lattice in order-basis coordinates
        mod_mat = order.congruence_lattice(self.ideal).coord_mat
        if lattice.det_upper_triangular(mod_mat) != self.cardinality:
            raise InvariantViolation("congruence lattice index mismatch")
        self.diag = np.array([mod_mat[k][k] for k in range(self.dim)], dtype=np.int64)

        # float64 fast path, exact while every accumulated integer stays
        # below 2^53 (a reduced residue has coordinates below max diag)
        self._norm_exact_float = _float_exact(
            self._tensor_bound(self.norm_tensor, int(self.diag.max())))

        # the split of the counting pass: the last nontrivial coordinate and
        # as many before it as keep the product of their radices at most
        # sqrt(card) and _CHUNK are trailing
        active = [j for j in range(self.dim) if self.diag[j] > 1]
        size, m = 1, len(active)
        limit = min(isqrt(self.cardinality), _CHUNK)
        while m > 0 and (size == 1 or size * int(self.diag[active[m - 1]]) <= limit):
            m -= 1
            size *= int(self.diag[active[m]])
        self._lead, self._trail = active[:m], active[m:]

        # central residues.  HNF rows with pivot 1 act linearly (the entries
        # above a pivot 1 are 0, so its quotient is the coordinate itself):
        # `_center_fold` applies all of them at once and keeps the columns
        # whose pivot exceeds 1, which `_center_sub`, the HNF restricted to
        # those columns, finishes reducing.
        hnf = np.array(self.ideal.mat, dtype=np.int64)
        self._center_cols = [k for k in range(self.center_dim) if hnf[k, k] > 1]
        fold = np.eye(self.center_dim, dtype=np.int64)
        for j in range(self.center_dim):
            if hnf[j, j] == 1:
                fold[j] -= hnf[j]
        self._center_fold = fold[:, self._center_cols]
        self._center_sub = hnf[np.ix_(self._center_cols, self._center_cols)]
        self._center_index, self._center_units, self._center_one = \
            self._classify_center()

        # the raw range of the counting pass: coordinate k of a raw value is
        # below V_k = (p_k - 1)(D + 2) + 1, D the sum of diag_a - 1 over the
        # leading a, and a raw code is below M = prod V_k
        spread = sum(int(self.diag[a]) - 1 for a in self._lead) + 2
        radices = [(int(p) - 1) * spread + 1 for p in np.diag(self._center_sub)]
        weights = [1] * len(radices)
        for k in range(len(radices) - 2, -1, -1):
            weights[k] = weights[k + 1] * radices[k + 1]
        self._raw_range = weights[0] * radices[0]
        if self._raw_range > cap:
            raise CapExceeded(f"the counting pass has M = {self._raw_range} raw codes, "
                              f"above the cap {cap}")
        # every partial sum of a raw code is a non-negative integer below M
        self._cross_exact_float = _float_exact(self._raw_range)
        self._raw_radices = np.array(radices, dtype=np.int64)
        self._raw_weights = np.array(weights, dtype=np.int64)
        self._counts = None

    @staticmethod
    def _tensor_bound(tensor, max_coord):
        # in Python integers, so the bound itself cannot wrap
        worst = int(np.abs(np.array(tensor, dtype=object)).sum(axis=(0, 1)).max())
        return worst * max_coord * max_coord

    def _divide_kappa(self, scaled: np.ndarray) -> np.ndarray:
        if (scaled % self.kappa).any():
            raise InvariantViolation("norm values are not integral")
        return scaled // self.kappa

    def _center_reduce(self, folded: np.ndarray) -> np.ndarray:
        """Finish reducing folded central coordinates by `_center_sub`, in place."""
        for i, row in enumerate(self._center_sub):
            if row[i + 1:].any():
                q = folded[:, i] // row[i]
                folded[:, i:] -= q[:, None] * row[i:]
            else:
                folded[:, i] %= row[i]
        return folded

    def _classify_center(self):
        field = self.order.algebra.field
        diag = [self.ideal.mat[k][k] for k in range(self.center_dim)]
        strides = np.ones(self.center_dim, dtype=np.int64)
        for j in range(self.center_dim - 2, -1, -1):
            strides[j] = strides[j + 1] * diag[j + 1]
        units = np.zeros(int(np.prod([int(x) for x in diag])), dtype=bool)
        for rep in self.ideal.residues():
            code = int(sum(int(v) * int(s) for v, s in zip(rep, strides)))
            # a residue of O_K/p^t is a unit exactly when it is not in p
            units[code] = not self.prime.contains(field.element(rep))
        one_rep = self.ideal.reduce([1] + [0] * (self.center_dim - 1))
        one_code = int(sum(int(v) * int(s) for v, s in zip(one_rep, strides)))
        # reduced coordinates vanish in the columns with pivot 1
        return strides[self._center_cols], units, one_code

    def _center_keys(self, classes: np.ndarray) -> np.ndarray:
        """Mixed-radix codes of reduced central classes, vectorized."""
        return classes @ self._center_index

    # -- counting -----------------------------------------------------------

    def _norm_histogram(self) -> np.ndarray:
        """Number of residues x with nu(x) in each central class, by class key.

        The split-form pass of the module docstring.
        """
        tensor = self.norm_tensor
        lead, trail = self._lead, self._trail
        r = len(self._center_cols)
        lows = _digits(0, int(np.prod(self.diag[trail])), self.diag[trail])
        highs = _digits(0, int(np.prod(self.diag[lead])), self.diag[lead])

        def half_norms(half, idx):
            """S over one half, folded and reduced."""
            scaled = _quad(half, half, tensor[np.ix_(idx, idx)], self._norm_exact_float)
            return self._center_reduce(self._divide_kappa(scaled) @ self._center_fold)

        s_low, s_high = half_norms(lows, trail), half_norms(highs, lead)
        # the cross coefficients (T + T^T)[a, trail] . l for every leading a,
        # folded and reduced
        sym = tensor[np.ix_(lead, trail)] + tensor[np.ix_(trail, lead)].transpose(1, 0, 2)
        cross = self._divide_kappa(np.einsum("ajk,nj->ank", sym, lows)) @ self._center_fold
        cross = self._center_reduce(cross.reshape(-1, r)).reshape(len(lead), len(lows), r)
        # [cross; one indicator row per k; S(l)] in the raw radix: a leading
        # residue's row [h | S(h) | 1] times it is the raw code of every pair
        indicators = np.broadcast_to(np.eye(r, dtype=np.int64)[:, None, :], (r, len(lows), r))
        dtype = np.float64 if self._cross_exact_float else np.int64
        right = (np.concatenate([cross, indicators, s_low[None]]) @ self._raw_weights).astype(dtype)
        left = np.concatenate([highs, s_high, np.ones((len(highs), 1), dtype=np.int64)],
                              axis=1, dtype=dtype)

        raw = np.zeros(self._raw_range, dtype=np.int64)
        rows = max(1, _CHUNK // len(lows))
        for start in range(0, len(left), rows):
            codes = (left[start:start + rows] @ right).astype(np.int64, copy=False)
            raw += np.bincount(codes.ravel(), minlength=self._raw_range)

        # fold the raw codes into central classes, once for the ring
        seen = np.flatnonzero(raw)
        classes = self._center_reduce(seen[:, None] // self._raw_weights % self._raw_radices)
        hist = np.zeros(len(self._center_units), dtype=np.int64)
        np.add.at(hist, self._center_keys(classes), raw[seen])
        if int(hist.sum()) != self.cardinality:
            raise InvariantViolation("the split pass missed residues")
        return hist

    def count_units_and_norm_one(self):
        """(units, norm-one residues), counted on the first call only."""
        if self._counts is None:
            hist = self._norm_histogram()
            self._counts = int(hist[self._center_units].sum()), int(hist[self._center_one])
        return self._counts

    def count_norm_one(self) -> int:
        return self.count_units_and_norm_one()[1]

    # -- radical and semisimple type (t == 1) ---------------------------------

    def radical_and_type(self):
        """(radical size, semisimple type tag) for the t == 1 quotient.

        R = Q/pQ is a 4-dimensional algebra over F_q = O_K/p whose every x
        satisfies x^2 - trd(x) x + nrd(x) = 0, so each element of T = R/J
        has degree at most 2 over F_q.  By Wedderburn T is a product of
        matrix rings over extensions of F_q, of dimension at most 4; degree
        at most 2 leaves F_q, F_q2, F_q x F_q and M2(F_q) ((b, 0) has degree
        3 when b generates F_q2), and F_2^3 and F_2^4 ((0, 1, c) has degree
        3 in F_q^3 when q > 2).  x is a unit exactly when its image in T is,
        so R has q^(4 - dim T) * |T^x| units.  These counts are pairwise
        distinct (q^3 (q-1), q^2 (q^2-1), q^2 (q-1)^2, q (q-1) (q^2-1), and
        2 and 1 at q = 2), so the exact unit count names T and |J|.  A count
        that matches no type raises `InvariantViolation`.
        """
        if self.t != 1:
            raise InputError("type classification only applies to t == 1")
        units, _ = self.count_units_and_norm_one()
        q = self.q
        types = [  # (tag, dim T, |T^x|)
            ("F_q", 1, q - 1),
            ("F_q2", 2, q ** 2 - 1),
            ("F_q x F_q", 2, (q - 1) ** 2),
            ("M2(F_q)", 4, (q ** 2 - 1) * (q ** 2 - q)),
        ]
        if q == 2:
            types += [("F_q x F_q x F_q", 3, 1), ("F_q x F_q x F_q x F_q", 4, 1)]
        for tag, dim, t_units in types:
            if q ** (4 - dim) * t_units == units:
                return q ** (4 - dim), tag
        raise InvariantViolation(
            f"{units} units match none of the admissible semisimple types")


def _float_exact(bound: int) -> bool:
    """Whether float64 is exact for integer sums of magnitude at most `bound`.

    Below 2^53 every such integer is a float64; otherwise the int64 path is
    taken, which is exact below 2^63.  Past that even int64 would wrap, so
    the ring is refused.
    """
    if bound >= 2 ** 63:
        raise CapExceeded(f"integer sums up to {bound} would overflow int64")
    return bound < 2 ** 53


def _int64(table) -> np.ndarray:
    """A read-only int64 array of an order table; `CapExceeded` if it does not fit."""
    try:
        arr = np.array(table, dtype=np.int64)
    except OverflowError as exc:
        raise CapExceeded("an order table entry does not fit int64") from exc
    arr.setflags(write=False)
    return arr


def _digits(start: int, stop: int, radices) -> np.ndarray:
    """Mixed-radix digits of start .. stop-1, last digit fastest."""
    rest = np.arange(start, stop, dtype=np.int64)
    out = np.empty((stop - start, len(radices)), dtype=np.int64)
    for j in range(len(radices) - 1, -1, -1):
        out[:, j] = rest % radices[j]
        rest = rest // radices[j]
    return out


def _quad(x: np.ndarray, y: np.ndarray, tensor: np.ndarray, float_ok: bool) -> np.ndarray:
    """einsum('ni,nj,ijk->nk') exactly; float64/BLAS when provably lossless."""
    if float_ok:
        xf = x.astype(np.float64)
        yf = y.astype(np.float64)
        tf = tensor.astype(np.float64)
        dim = tensor.shape[0]
        k = tensor.shape[2]
        tmp = xf @ tf.reshape(dim, dim * k)          # n x (dim*k)
        tmp = tmp.reshape(-1, dim, k)
        out = np.einsum("nj,njk->nk", yf, tmp, optimize=True)
        return np.rint(out).astype(np.int64)
    return np.einsum("ni,nj,ijk->nk", x, y, tensor, optimize=True)


# ---------------------------------------------------------------------------
# Closed forms and envelopes
# ---------------------------------------------------------------------------


def maxim_formula(q: int, t: int, division_case: bool) -> int:
    """Norm-one count in the quotient of a maximal local order.

    q^{3t}(1 + 1/q) when the completion is a division algebra,
    q^{3t}(1 - 1/q^2) = |SL_2| * q^{3(t-1)} when it is a matrix algebra.
    """
    if t < 1 or q < 2:
        raise InputError("need q >= 2, t >= 1")
    if division_case:
        value = (q + 1) * q ** (3 * t - 1)
    else:
        value = (q ** 3 - q) * q ** (3 * (t - 1))
    return value


def unit_envelope(q: int) -> int:
    """Upper bound for units of any t=1 quotient: the supremum q^2 (q^2 - 1).

    With R = T + J of dimension 4 over F_q, the unit count is
    |J| * |T^x| = q^(4 - dim T) * |T^x|; maximizing over the admissible
    semisimple types (`FiniteQuotRing.radical_and_type`) gives the
    local-ring case T = F_{q^2} (the quotient of a maximal order in the
    division case), with q^2 (q^2 - 1) units.
    """
    return q ** 2 * (q ** 2 - 1)


def norm_one_envelope(q: int, t: int, division_case: bool, diadic_e: int = 0) -> Fraction:
    """Envelope for (norm-one count) / q^{3t} for possibly non-maximal orders."""
    q = Fraction(q)
    if division_case and diadic_e == 0:
        return 2 * (1 - q ** -2)
    if division_case:
        return 2 * (1 - q ** -1) * (1 - q ** -2) * q ** diadic_e
    if diadic_e == 0:
        return 2 * (1 - q ** -1)
    return 2 * (1 - q ** -1) ** 2 * q ** diadic_e


# ---------------------------------------------------------------------------
# Squares in the central quotient
# ---------------------------------------------------------------------------


@dataclass
class SquaresReport:
    prime_norm: int
    t: int
    diadic_e: int
    count: int
    formula_value: Fraction
    is_lower_bound: bool
    equality_claimed: bool
    matches: bool
    discrepancy: bool

    def records(self):
        kind = "lower_bound" if self.is_lower_bound else "exact"
        return [f"q={self.prime_norm}", f"t={self.t}", f"e={self.diadic_e}",
                f"squares={self.count}", f"formula={self.formula_value}",
                f"formula_kind={kind}",
                f"equality_claimed={str(self.equality_claimed).lower()}",
                f"match={str(self.matches).lower()}",
                f"discrepancy={str(self.discrepancy).lower()}"]


def squares_count(prime: IdealHNF, t: int, cap: int = DEFAULT_CAP) -> int:
    """Exhaustive count of squares in the unit group of O_K/p^t."""
    field = prime.field
    q = prime.norm
    # as q >= 2, q^t > cap exactly when q^min(t, bits of cap) > cap
    if q ** min(t, cap.bit_length()) > cap:
        raise CapExceeded(f"O_K/p^t has q^t = {q}^{t} residues, above the cap {cap}")
    power = prime ** t
    squares = set()
    for rep in power.residues():
        elem = field.element(rep)
        if prime.contains(elem):
            continue  # not a unit of O_K/p^t
        key = tuple(power.reduce([int(c) for c in (elem * elem).coords]))
        squares.add(key)
    return len(squares)


def lemma44_check(prime: IdealHNF, t: int, cap: int = DEFAULT_CAP) -> SquaresReport:
    """Compare the exhaustive square count with the closed form.

    Odd primes: the count must equal (q-1)/2 * q^(t-1).  Even primes: the
    closed form is only the lower bound q^(t-e)/2, with equality claimed
    for t >= 2e+1; a failure of that equality clause is reported as a
    discrepancy, never silently reconciled.
    """
    field = prime.field
    two = IdealHNF.principal(field, field.from_rational(2))
    e = two.valuation(prime) if prime.divides(two) else 0
    q = prime.norm
    count = squares_count(prime, t, cap)
    if e == 0:
        formula = Fraction((q - 1) * q ** (t - 1), 2)
        matches = count == formula
        return SquaresReport(q, t, e, count, formula, False, True, matches,
                             discrepancy=not matches)
    formula = Fraction(q ** max(t - e, 0), 2)
    bound_ok = count >= formula or t <= e  # for tiny t the unit group may be smaller
    equality_claimed = t >= 2 * e + 1
    equality_holds = Fraction(count) == formula
    discrepancy = (equality_claimed and not equality_holds) or not bound_ok
    return SquaresReport(q, t, e, count, formula, True, equality_claimed,
                         equality_holds, discrepancy)


# ---------------------------------------------------------------------------
# The index-bound factor and Norm(I)^3 bound
# ---------------------------------------------------------------------------


@dataclass
class LambdaFactor:
    t1_norms: list
    t2_norms: list
    diadic_exponents: dict
    value: Fraction

    def records(self):
        return [
            f"t1={','.join(map(str, self.t1_norms)) or '-'}",
            f"t2={','.join(map(str, self.t2_norms)) or '-'}",
            f"lambda={self.value}",
        ]


def lambda_factor(algebra: QuaternionAlgebra, order: OrderLattice,
                  ideal: IdealHNF) -> LambdaFactor:
    """The product over primes dividing the ideal that scales the index bound.

    T1: primes where the algebra ramifies; T2: primes above a rational prime
    in `order.nonmaximal_primes`.  A prime in T2 where the order is maximal
    only raises the bound.  Contribution (1 + 1/q) for T1 \\ T2, a factor 2
    for T2, and an extra q^e for even primes in T2.
    """
    field = algebra.field
    nonmaximal = order.nonmaximal_primes
    two = IdealHNF.principal(field, field.from_rational(2))
    value = Fraction(1)
    t1_norms, t2_norms = [], []
    diadic_exponents = {}
    third_product = 1
    for prime, _t in factor_ideal(field, ideal):
        in_t1 = algebra.finite_prime_status(prime) == RAMIFIED
        in_t2 = any(prime.norm % p == 0 for p in nonmaximal)
        if in_t1:
            t1_norms.append(prime.norm)
        if in_t2:
            t2_norms.append(prime.norm)
        if in_t1 and not in_t2:
            value *= 1 + Fraction(1, prime.norm)
        if in_t2:
            value *= 2
            if prime.divides(two):
                e = two.valuation(prime)
                diadic_exponents[prime.norm] = e
                value *= prime.norm ** e
                third_product *= prime.norm ** e
    if third_product > 2 ** field.degree:
        raise InvariantViolation("diadic product exceeds Norm(2) = 2^d")
    return LambdaFactor(t1_norms, t2_norms, diadic_exponents, value)


def index_bound(algebra: QuaternionAlgebra, order: OrderLattice, ideal: IdealHNF) -> int:
    """lambda * Norm(I)^3, an upper bound for the congruence index."""
    lam = lambda_factor(algebra, order, ideal)
    bound = lam.value * Fraction(ideal.norm) ** 3
    if bound.denominator != 1:
        raise InvariantViolation("index bound should be an integer")
    return int(bound)


def count_norm_one_ideal(order: OrderLattice, ideal: IdealHNF,
                         cap: int = DEFAULT_CAP) -> int:
    """Norm-one count of Q/IQ for composite I, via its prime-power factors."""
    total = 1
    for prime, t in factor_ideal(order.algebra.field, ideal):
        ring = FiniteQuotRing(order, prime, t, cap=cap)
        total *= ring.count_norm_one()
    return total
