"""Closed-form bound evaluators: trace floor, geodesic length, genus,
systole floors, the 4/3 comparison for the (2,3,7) tower, and the
systolic-ratio corollaries (surface and 3-manifold versions).

Exact quantities (trace floors over a totally real field, genus from the
area relation) are returned as Fractions; transcendental quantities are
certified enclosures.  Asymptotic o(1) forms are never used in computed
values: every evaluator follows the explicit inequality chain of the
underlying proof, and the asymptotic strings are only produced as clearly
labelled companions for display.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import NamedTuple

from .errors import CapExceeded, InputError, InvariantViolation
from .intervals import START_BITS, RatInterval, iv_acosh, iv_log, iv_pi, iv_pow, iv_sqrt, refine
from .numfield import IdealHNF, compare_abs
from .orders import OrderLattice, hurwitz_preset


class GeometryContext(NamedTuple):
    """Everything the surface-level evaluators need about the base quotient."""

    order: OrderLattice
    covolume_pi: Fraction          # hyperbolic area of the base = covolume_pi * pi
    lambda_value: Fraction = Fraction(1)

    @property
    def degree(self) -> int:
        return self.order.algebra.field.degree

    def two_plus_kappa_ideal(self, ideal: IdealHNF) -> IdealHNF:
        field = self.order.algebra.field
        two = IdealHNF.principal(field, field.from_rational(2))
        kap = IdealHNF.principal(field, self.order.kappa_element())
        return two + kap * ideal


def hurwitz_context() -> GeometryContext:
    """The (2,3,7) base orbifold: area pi/21, lambda = 1, kappa = 2.

    Every call shares the process's one Hurwitz order (`orders.hurwitz_preset`).
    """
    return GeometryContext(order=hurwitz_preset(), covolume_pi=Fraction(1, 21))


# ---------------------------------------------------------------------------
# Trace floors
# ---------------------------------------------------------------------------


def trace_lower_bound(ctx: GeometryContext, ideal: IdealHNF, sharp: bool = True) -> Fraction:
    """Strict floor for |Tr| over non-central congruence elements (exact rational).

    sharp: Norm(I)^2 / (2^(d-2) * Norm(<2> + kappa I)) - 2
    coarse: Norm(I)^2 / 2^(2d-2) - 2; the sharp form never falls below it.
    """
    d = ctx.degree
    n_i = Fraction(ideal.norm)
    if sharp:
        n2k = ctx.two_plus_kappa_ideal(ideal).norm
        return n_i ** 2 / (Fraction(2) ** (d - 2) * n2k) - 2
    return n_i ** 2 / Fraction(2) ** (2 * d - 2) - 2


def trace_bound_pair(ctx: GeometryContext, ideal: IdealHNF):
    sharp = trace_lower_bound(ctx, ideal, sharp=True)
    coarse = trace_lower_bound(ctx, ideal, sharp=False)
    if sharp < coarse:
        raise InvariantViolation("sharp trace bound fell below the coarse one")
    return sharp, coarse


class TraceCosetMinimum(NamedTuple):
    """Least |sigma_0(t)| over the traces a hyperbolic element of Gamma(I) can have.

    traces: the minimisers t* (t and -t when both lie in 2 + I^2).
    abs_trace: enclosure of |sigma_0(t*)|; length: L* = 2 acosh(|sigma_0 t*|/2).
    """

    traces: list
    abs_trace: RatInterval
    length: RatInterval

    def is_minimiser(self, trace) -> bool:
        return any(trace == t for t in self.traces)


CAP_NODES = 30_000_000  # the default node cap of the trace-coset walk and the enumerator


def trace_coset_minimum(order: OrderLattice, ideal: IdealHNF,
                        cap_nodes: int = CAP_NODES) -> TraceCosetMinimum:
    """The systole floor L* of Gamma(I) from the trace coset 2 + I^2 (exact).

    For gamma = 1 + q in Gamma(I), q in I*Q, nrd gamma = 1 gives
    trd q = -nrd q, and nrd(I*Q) lies in I^2, so trd gamma lies in 2 + I^2.
    At a ramified real place a non-central norm-one element has
    |sigma_s(trd gamma)| < 2, and a hyperbolic one has |sigma_0| > 2.  The
    least |sigma_0(t)| over such t bounds every translation length from
    below by L*; an element of trace t* realises it.

    The walk (`NumberField.box_walk`, per-node ranges) covers the rank-d
    lattice 2 + I^2 under a |sigma_0| cap that doubles until the least
    admissible point lies under it.  Admissibility compares |sigma_s t| with
    2 in floats first (`walkranges.PlaceTable.vs_two`): the float
    X = sum_m t_m emb_f[s][m] of the walk's integer coordinates is within
    E = sum_m |t_m| |emb_f - theta_s^m| + gamma_d sum_m |t_m emb_f[s][m]| of
    sigma_s t (the table error plus d products and d - 1 additions), so
    |X| + E < 2 or |X| - E > 2 decides it; only a point where neither holds
    goes to the exact `numfield.compare_abs` against the integer 2, which
    refines certified embeddings until they separate (|sigma_s t| = 2 only
    for t = +-2).  The same function orders by |sigma_0|, exactly:
    |sigma_0 t| = |sigma_0 t'| in K only for t = +-t'.  Raises `InputError`
    unless the presentation is cocompact
    (`QuaternionAlgebra.is_cocompact_presentation`), and `CapExceeded` once
    the walks, counted together, pass `cap_nodes` nodes.
    """
    algebra = order.algebra
    if not algebra.is_cocompact_presentation():
        raise InputError("need the algebra split at place 0 and ramified elsewhere")
    field = algebra.field
    table = field.place_table()
    square = ideal * ideal
    cap = Fraction(4)
    walked = 0

    def vs_two(t, s):  # the walk's points are integral: t = sum_m t.num[m] theta^m
        return table.vs_two(t.num, s) or compare_abs(t, 2, s)

    def count_node():
        nonlocal walked
        walked += 1
        if walked > cap_nodes:
            raise CapExceeded(f"trace-coset walk exceeded {cap_nodes} nodes")

    while True:
        best = []
        limits = [cap] + [Fraction(2)] * (field.degree - 1)
        for t in field.box_walk(limits, square.mat, shift=2, on_node=count_node):
            if any(vs_two(t, s) >= 0 for s in range(1, field.degree)) or vs_two(t, 0) <= 0:
                continue
            cmp = compare_abs(t, best[0]) if best else -1
            if cmp < 0:
                best = [t]
            elif cmp == 0:
                best.append(t)
        if best:
            box = best[0].embed(0, START_BITS).abs()
            if box.certainly_le(cap):
                return TraceCosetMinimum(best, box, length_from_trace(box))
        cap *= 2


def kleinian_trace_bounds(d: int, norm_i: int, norm_two_plus_kappa: int | None = None):
    """(sharp enclosure or None, coarse Fraction) for the 3-manifold case."""
    coarse = Fraction(norm_i) / Fraction(2) ** (d - 2) - 2
    sharp = None
    if norm_two_plus_kappa is not None:
        denom = iv_sqrt(Fraction(norm_two_plus_kappa), START_BITS) * \
            iv_pow(Fraction(2), Fraction(d, 2) - 2, START_BITS)
        sharp = RatInterval.exact(norm_i) / denom - 2
    return sharp, coarse


# ---------------------------------------------------------------------------
# Lengths
# ---------------------------------------------------------------------------


def length_from_trace(trace, exact: bool = True) -> RatInterval:
    """Geodesic length from a translation trace.

    exact: 2*acosh(|t|/2), the true length of the hyperbolic element.
    bound: 2*log(|t| - 1), the floor implied by |lambda| + 1 > |t|; valid in
    the loxodromic (complex trace modulus) regime as well.
    """
    t = trace if isinstance(trace, RatInterval) else RatInterval.exact(Fraction(trace))
    t = t.abs()
    if exact:
        if not t.certainly_gt(2):
            raise InputError("exact length needs |trace| > 2 (hyperbolic element)")
        return iv_acosh(t / 2, START_BITS) * 2
    if not t.certainly_gt(1):
        raise InputError("length bound needs |trace| > 1")
    return iv_log(t - 1, START_BITS) * 2


# ---------------------------------------------------------------------------
# Genus via the area relation
# ---------------------------------------------------------------------------


def psl_index(sl_count: int, minus_one_in_group: bool) -> int:
    """Index of the image in the isometry group: halve unless -1 is congruent to 1."""
    if minus_one_in_group:
        return sl_count
    if sl_count % 2:
        raise InvariantViolation("odd norm-one count cannot halve")
    return sl_count // 2


def genus_from_index(ctx: GeometryContext, projective_index: int) -> int:
    """Solve 4*pi*(g-1) = index * area for g; non-integral g is a hard failure."""
    g_minus_1 = Fraction(projective_index) * ctx.covolume_pi / 4
    g = g_minus_1 + 1
    if g.denominator != 1 or g < 2:
        raise InvariantViolation(
            f"genus came out {g}; the equality assumptions are violated")
    return int(g)


# ---------------------------------------------------------------------------
# Systole floors (explicit chains)
# ---------------------------------------------------------------------------


def sys_lower_bound_from_ideal(ctx: GeometryContext, ideal: IdealHNF):
    """2*log(sharp trace floor - 1); None when the value would be <= 0 (vacuous)."""
    floor = trace_lower_bound(ctx, ideal)
    if floor <= 2:
        return None
    return length_from_trace(floor, exact=False)


def sys_lower_bound_from_genus(ctx: GeometryContext, genus: int, prec: int = START_BITS):
    """Explicit chain: 2*log( (4*pi*(g-1)/(nu*lambda))^(2/3) / 2^(2d-2) - 3 ).

    The area ratio 4*pi*(g-1)/nu is rational because nu is a rational
    multiple of pi, so the enclosure is tight.  Returns None when vacuous.
    """
    if genus < 2:
        raise InputError("genus must be at least 2")
    ratio = Fraction(4) * (genus - 1) / (ctx.covolume_pi * ctx.lambda_value)
    base = iv_pow(ratio, Fraction(2, 3), prec) / Fraction(2) ** (2 * ctx.degree - 2) - 3
    if not base.certainly_gt(1):
        return None
    return iv_log(base, prec) * 2


def four_thirds_log_genus(genus: int, prec: int = START_BITS) -> RatInterval:
    return iv_log(Fraction(genus), prec) * Fraction(4, 3)


def hurwitz_43_check(genus: int) -> bool:
    """Certified test of the genus chain >= (4/3)*log(g) for the (2,3,7) tower,
    where the chain is 2*log((21(g-1)/16)^(2/3) - 3); False while it is vacuous."""
    ctx = hurwitz_context()

    def decide(p):
        chain = sys_lower_bound_from_genus(ctx, genus, p)
        if chain is None:
            return False
        gap = (chain - four_thirds_log_genus(genus, p)).sign()
        return None if gap is None else gap >= 0

    return refine(decide, START_BITS, 1536)


@functools.cache
def hurwitz_43_threshold() -> int:
    """The least genus from which the 4/3 inequality holds, for every larger one too.

    f(g) = 2 log(A - 3) - (4/3) log g, A = (21(g-1)/16)^(2/3), is increasing
    for g >= 5: f'(g) = (4/3) [A / ((A - 3)(g - 1)) - 1/g] > 0, as A > 3 there
    makes A / (A - 3) > 1.  So a genus passes `hurwitz_43_check` exactly when
    it is at least the least passing one, found by doubling from 5 and then
    bisection.  Below 8 the chain is vacuous (A - 3 <= 1), and the check reads
    False there, as f < 0.
    """
    least, top = 5, 5
    while not hurwitz_43_check(top):
        least, top = top + 1, 2 * top
    while least < top:
        mid = (least + top) // 2
        if hurwitz_43_check(mid):
            top = mid
        else:
            least = mid + 1
    return top


# ---------------------------------------------------------------------------
# Constants and systolic-ratio corollaries
# ---------------------------------------------------------------------------


def explicit_constant(ctx: GeometryContext) -> RatInterval:
    """The bracketed constant of the surface bound: log(2^(3d-5) * nu * lambda / pi).

    nu/pi is rational, so this is the log of an exact rational.
    """
    value = Fraction(2) ** (3 * ctx.degree - 5) * ctx.covolume_pi * ctx.lambda_value
    return iv_log(value, START_BITS)


def r_invariant(ctx: GeometryContext):
    """R = 8^d * nu * lambda, reported as (rational coefficient of pi, enclosure)."""
    coeff = Fraction(8) ** ctx.degree * ctx.covolume_pi * ctx.lambda_value
    return coeff, iv_pi(START_BITS) * coeff


def fuchsian_sr_bound(ctx: GeometryContext, genus: int):
    """(4/(9*pi)) * (log g - c)^2 / g with the explicit constant c."""
    diff = iv_log(Fraction(genus), START_BITS) - explicit_constant(ctx)
    if not diff.certainly_gt(0):
        return None
    return diff * diff * Fraction(4, 9 * genus) / iv_pi(START_BITS)


def v3_enclosure() -> RatInterval:
    """Volume of the regular ideal 3-simplex, v3 = Cl_2(pi/3), at 96 bits
    rather than START_BITS, as its value is pinned to 1e-25.

    Cl_2(t) = t - t log t + sum_{n>=1} |B_2n| t^(2n+1) / (2n (2n+1)!) for
    0 < t < 2 pi.  As |B_2n| <= 4 (2n)! / (2 pi)^(2n), term n is at most
    4 t 36^-n / (2n (2n+1)) < 36^-n at t = pi/3, so the terms past n = N sum
    to less than 36^-N, which is below 2^-prec for N = prec // 5 + 1.
    """
    prec = 96
    count = prec // 5 + 1
    bernoulli = [Fraction(1)]
    for m in range(1, 2 * count + 1):
        bernoulli.append(-sum(math.comb(m + 1, k) * b for k, b in enumerate(bernoulli)) / (m + 1))
    theta = iv_pi(prec) / 3
    total = theta - theta * iv_log(theta, prec)
    for n in range(1, count + 1):
        coeff = abs(bernoulli[2 * n]) / (2 * n * math.factorial(2 * n + 1))
        total += theta ** (2 * n + 1) * coeff
    return total + RatInterval(0, Fraction(1, 36 ** count))


class KleinianReport(NamedTuple):
    norm_i: int
    lambda_value: Fraction
    base_simplicial_volume: Fraction
    cover_volume_bound: Fraction
    trace_floor_coarse: Fraction
    sys_floor: RatInterval | None
    sr_floor: RatInterval | None
    torsion_free_base_asserted: bool

    def lines(self):
        out = [f"norm={self.norm_i}", f"lambda={self.lambda_value}",
               f"base_volume={self.base_simplicial_volume}",
               f"cover_volume_bound={self.cover_volume_bound}",
               f"trace_floor={float(self.trace_floor_coarse):.6g}"]
        if self.sys_floor is not None:
            out.append(f"sys_floor=[{float(self.sys_floor.lo):.6g},{float(self.sys_floor.hi):.6g}]")
        else:
            out.append("sys_floor=vacuous")
        if self.sr_floor is not None:
            out.append(f"sr_floor=[{float(self.sr_floor.lo):.6g},{float(self.sr_floor.hi):.6g}]")
        out.append(f"torsion_free_base={str(self.torsion_free_base_asserted).lower()}")
        return out


def kleinian_bounds(d: int, norm_i: int, lambda_value, base_simplicial_volume,
                    torsion_free_base: bool) -> KleinianReport:
    """Plug-in evaluators for the 3-manifold tower; all inputs supplied by the caller.

    The cover volume obeys ||X_I|| <= ||X_1|| * lambda * Norm(I)^3, and the
    systole floor is the explicit chain 2*log(Norm(I)/2^(d-2) - 3); the
    systolic-ratio floor uses C1 = (8/27)/v3.
    """
    if not torsion_free_base:
        raise InputError("the base manifold must be torsion-free (certificate or assertion)")
    lam = Fraction(lambda_value)
    base_vol = Fraction(base_simplicial_volume)
    if base_vol <= 0:
        raise InputError("simplicial volume of the base must be positive")
    cover_bound = base_vol * lam * Fraction(norm_i) ** 3
    _sharp, coarse = kleinian_trace_bounds(d, norm_i)
    sys_floor = None
    if coarse - 1 > 1:
        sys_floor = length_from_trace(coarse, exact=False)
    sr_floor = None
    if sys_floor is not None and sys_floor.certainly_gt(0):
        v3 = v3_enclosure()
        # SR = sys^3 / vol, vol = ||X|| * v3 <= cover_bound * v3
        sr_floor = (sys_floor ** 3) / (RatInterval.exact(cover_bound) * v3)
    return KleinianReport(norm_i, lam, base_vol, cover_bound, coarse,
                          sys_floor, sr_floor, torsion_free_base)


def kleinian_sr_constant() -> RatInterval:
    """C1 = (8/27) / v3."""
    return RatInterval.exact(Fraction(8, 27)) / v3_enclosure()


def asymptotic_strings(ctx: GeometryContext) -> list:
    """Display-only companions of the computed chains, clearly labelled."""
    d = ctx.degree
    c = explicit_constant(ctx)
    return [
        f"asymptotic_surface_form=sys >= (4/3)(log g - ({float(c.mid):.6f} + o(1)))",
        f"asymptotic_constant_c=log(2^{3 * d - 5} * nu * lambda / pi)",
        "asymptotic_sr_form=SR >= (4/(9*pi)) (log g - c)^2 / g",
    ]
