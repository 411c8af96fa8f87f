"""Exact enumeration of short congruence-group elements at the split place.

The group elements x = x0 + x1 i + x2 j + x3 ij live on the coset
1 + I*Q of an integer lattice; under the split embedding

    i |-> diag(sqrt(a), -sqrt(a)),  j |-> [[0, 1], [b, 0]],

the displacement of the basepoint i in the upper half plane satisfies
cosh d(i, x.i) = ||x||_F^2 / 2, so elements displacing the basepoint by at
most L live in a compact box: the split place bounds the four matrix
entries by sqrt(2 cosh L), and at every other real place all four
coefficients are pinned to the unit ball of the norm form (the completion
is a division algebra there).

Enumeration walks the coset lattice in Hermite normal form, coordinate by
coordinate in the order x0, x1, x2, inside certified boxes, by the lattice
walk `walkranges.walk` that `NumberField.box_walk` runs too.  Each node gives
the next coordinate its own range, in the manner of Fincke-Pohst's per-level
bounds.  First a per-place bound B_s on the current block, implied by the
exact checks at the leaf (norm one and the radius cut): the static box for
x0; for x1, |u|, |ub| <= M at the split place and the unit ball elsewhere;
for x2, the Frobenius budget left after u and ub at the split place and
x3^2 >= 0 elsewhere.  Then, given the block's fixed coordinates, the range
is exact for its last coordinate, comes from Fourier-Motzkin elimination of
the last one for the last-but-one, and from the inverse embedding matrix
before that.  These ranges are the walk's only float pruning, and they drop
only nodes below which the exact leaf checks would emit nothing, so the
emitted elements, in their order, are those of the static-box walk.

The final coefficient is never enumerated: the norm-one equation determines
x3^2 exactly.  At a leaf, floats recover x3 first (`WalkRanges.leaf_roots`):
x3^2 at each place from the walk's block values, its square roots with the
sign fixed at place 0, and the inverse embedding matrix give the candidate
coordinates of each sign pattern, each under an error bound derived from the
walk's rounding bounds.  A pattern with a coordinate farther than its bound
from every integer has no root; any other has exactly one candidate, which
the integer checks below then settle.  Where x3^2 lies within its bound of
0 at some place, the integral norm decides x3 = 0: kappa x3 is in Z[theta],
and a nonzero one has |N| >= 1, which the bounds on x3^2 may rule out.  Only
where neither decides (or a bound reaches 1/2) does a box walk of Z[theta]
under those bounds (`NumberField.box_walk`) list the candidates.

A leaf works on the walk's integers, c_(l d + m) = kappa times coefficient m
of x_l.  A candidate passes the congruence rows, a triangular solve on the
last d rows and columns of I*Q's HNF (`lattice.contains`), then one integer
check of norm one: the order's table of the norm form gives D kappa^2
Nrd(x) as a sum of products c_i c_j times integer vectors (`_IntegerForm`),
which must equal D kappa^2, for one common denominator D; x is central
exactly when c_d .. c_(4d-1) are 0.  Two more integer tables give the
split-place Frobenius norm as ||x||_F^2 = alpha + beta sqrt(a) with alpha,
beta in K (`Enumerator._frob_parts`).  One float comparison (`_float_less`)
of derived enclosures decides the radius cut ||x||_F^2 <= m_sq, with m_sq
the rational upper bound of 2 cosh L that the boxes use, and which of two
elements of a class |trace| (read from block 0, as trd x = 2 x0) has the
smaller norm; where the enclosures touch or overlap, one exact sign test of
A + B sqrt(a) at place 0 for A, B in K does (`Enumerator._frob_sign`).
Each class keeps its element of least norm, the first one met in walk order
on a tie (`Enumerator._frob_less`), so the representatives do not depend on
what ran before in the process.  A `QuatElement` is built once per final
representative, whose trace gives the class its side of 2 and its length.

The walk visits one member of each symmetry orbit.  Gamma(I) is closed under
x -> conj(x) = trd x - x (I*Q is stable under the involution by construction,
`orders.CongruenceIdealLattice`), under x -> -x exactly when -1 is in
Gamma(I), that is when 2 is in I*Q, and under sigma: x1 -> -x1 exactly when
sigma maps I*Q onto itself.  sigma is conj after conjugation by i, and its
product with conj is tau: x -> i x i^-1, which negates x2 and x3.  Each map
keeps ||x||_F (||conj(x)||_F = ||x^-1||_F = ||x||_F in SL_2; x1 enters
||x||_F^2 = 2 (x0^2 + a x1^2) + (1 + b^2)(x2^2 + a x3^2) + 2 (1 - b^2) x2 x3
sqrt(a) only squared) and the class |trace|.  `Enumerator` tests sigma on
the HNF rows of I*Q (`lattice.contains`); an involution that maps the
lattice into itself maps it onto itself.  In the scaled coordinates conj
negates blocks 1-3, -x all four, sigma block 1 and tau blocks 2-3, and the
walk meets coordinates in increasing lexicographic order (the HNF diagonal
is positive).  The members of an orbit differ only in the signs of whole
blocks, so the member met first is the one whose blocks 1 and 2 (blocks 1-2
together when sigma is not in the group), and block 0 as well when -x is,
are lexicographically non-positive: c_j is capped at 0 while the run of
zeros from the start of its block (from c_d for j in block 2 without sigma)
to c_{j-1} holds.  Where block 2 is 0, tau flips x3 alone: both members
sit at the same leaf, and the first-on-a-tie rule picks between them as in
the full walk.  The first least-norm element of a class is the first member
of its own orbit, so it survives the cut and every representative is the
full walk's.

Completeness of the visited region is certified: outward rounding
everywhere, an exact static range, and per-node ranges and leaf decisions
under derived bounds on their float rounding (`walkranges`).  The systole
itself is certified from traces, with no diameter bound: every hyperbolic
gamma in Gamma(I) has trd gamma in 2 + I^2 with |sigma_s(trd gamma)| < 2 at
the ramified places, so the least admissible |sigma_0| over that coset
(`bounds.trace_coset_minimum`) gives a floor L* on every translation length,
and an enumerated element whose trace is a minimiser proves sys = L*.
`systole_search` starts at the first scheduled radius not below L* (a
schedule without one is refused before any walk) and labels each result
`certified` with its `certificate` (`trace-coset`) or, failing that,
`stabilized` (minimum unchanged across two radius increments).

That element is searched for first by a pinned walk.  An element of trace
t has x0 = t/2, so its block 0 is the prefix c_0 .. c_(d-1) = kappa t/2;
`Enumerator.run` takes the prefixes of the minimisers as point ranges of
its walk at the first d coordinates, and keeps the ranges, orbit rule and
leaf checks of the full walk below them.  So it emits the full walk's
elements of those traces, and each class representative is the full walk's.
A radius whose pinned walk finds none walks the full ball too, as the oracle
of the trace-coset lemma (no hyperbolic trace below t*) and for the
stabilized streak.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
from collections import Counter
from fractions import Fraction
from typing import NamedTuple

from . import lattice
from .bounds import CAP_NODES, trace_coset_minimum
from .errors import CapExceeded, InputError, InvariantViolation
from .intervals import START_BITS, RatInterval, iv_acosh, iv_cosh, iv_log, iv_sqrt, refine
from .numfield import FieldElement, IdealHNF, compare_abs
from .orders import OrderLattice, unflatten
from .quatalg import QuatElement
from .walkranges import WalkRanges, walk

# the largest double: the walk holds its bounds as doubles (`WalkRanges.tables`)
DOUBLE_MAX = Fraction(sys.float_info.max)
# the most radii a parsed schedule may hold
MAX_RADII = 10_000

# Enumerator.counters: leaves = float_rejected + float_candidates + fallbacks
LEAF_COUNTERS = ("leaves", "float_rejected", "float_candidates", "fallbacks")


class GeodesicCandidate(NamedTuple):
    element: QuatElement
    trace: FieldElement
    abs_trace: float
    length: RatInterval | None        # None for non-hyperbolic (torsion alarm)
    is_elliptic: bool

    def record(self):
        if self.length is not None:
            lo, hi = float(self.length.lo), float(self.length.hi)
            kind = f"length=[{lo:.6f},{hi:.6f}]"
        else:
            kind = "elliptic=true"
        return f"trace={self.trace} abs_trace={self.abs_trace:.6f} {kind}"


class EnumerationResult(NamedTuple):
    ideal_hnf: str
    ideal_norm: int
    radius: float
    min_trace: FieldElement | None
    min_length: RatInterval | None
    distinct_traces: int
    elliptic_count: int
    visited: int
    mode: str                          # certified | stabilized | searching
    candidates: list
    certificate: str | None = None     # trace-coset, when certified

    def records(self):
        out = [f"ideal={self.ideal_hnf}", f"norm={self.ideal_norm}",
               f"radius={self.radius:g}"]
        if self.min_trace is not None:
            out.append(f"min_trace={self.min_trace}")
        if self.min_length is not None:
            out.append(f"min_length=[{float(self.min_length.lo):.6f},"
                       f"{float(self.min_length.hi):.6f}]")
        out.append(f"mode={self.mode}")
        if self.certificate is not None:
            out.append(f"certificate={self.certificate}")
        out += [f"visited={self.visited}",
                f"distinct_traces={self.distinct_traces}",
                f"elliptic={self.elliptic_count}"]
        return out


class _OrderHalf:
    """What an `Enumerator` needs of its order alone, built once per order
    (`OrderLattice.cached`) under the attribute names the enumerator reads.

    The walk's float tables (`WalkRanges`) on enclosures of a and b at
    `_ab_bits`, the radius-free parts of the boxes, and the integer tables
    (`_IntegerForm`) of the norm form and of the split-place Frobenius norm on
    the walk's coordinates.
    """

    def __init__(self, order: OrderLattice):
        algebra = order.algebra
        field = algebra.field
        d = field.degree

        # enclosures of a and b that exclude 0, as the walk divides by them, and
        # whose floats bound every leaf's division by ab (`WalkRanges.ab_ok`);
        # the signs are those the presentation checks of `Enumerator` decided
        def ranges_at(ab_bits):
            embs = [[x.embed(s, ab_bits) for s in range(d)] for x in (algebra.a, algebra.b)]
            if any(e.sign() is None for row in embs for e in row):
                return None
            ranges = WalkRanges(field.place_table(), *embs, iv_sqrt(embs[0][0], ab_bits),
                                order.kappa)
            return (ab_bits, ranges) if ranges.ab_ok else None

        self._ab_bits, ranges = refine(ranges_at, START_BITS)
        self._ranges = ranges
        self.emb_f = ranges.emb_f  # float table of the walk's block values
        # the boxes' unit-ball rows 1, 1/sqrt|a|, 1/sqrt|b|, 1/sqrt|ab| at the ramified places
        unit = RatInterval.exact(1)
        a_abs, b_abs = ranges.a_abs[1:], ranges.b_abs[1:]
        self._ramified_boxes = [[Fraction(1)] * (d - 1)] + [
            [(unit / iv_sqrt(x, START_BITS)).hi for x in row]
            for row in (a_abs, b_abs, [a * b for a, b in zip(a_abs, b_abs)])]
        one, a, b = field.one(), algebra.a, algebra.b

        # Nrd(x) = x0^2 - a x1^2 - b x2^2 + ab x3^2: norm one is D kappa^2 there
        self._norm_form = _IntegerForm(field, {(0, 0): one, (1, 1): -a, (2, 2): -b,
                                               (3, 3): a * b})
        self._norm_one = [self._norm_form.den * order.kappa ** 2] + [0] * (d - 1)
        # ||x||_F^2 = alpha + beta sqrt(a) at the split place (`_frob_parts`)
        b2 = b * b
        self._alpha_form = _IntegerForm(field, {(0, 0): one * 2, (1, 1): a * 2,
                                                (2, 2): one + b2, (3, 3): (one + b2) * a})
        self._beta_form = _IntegerForm(field, {(2, 3): (one - b2) * 2})


class Enumerator:
    """Reusable exact enumerator for one (order, ideal) pair.

    `counters` accumulates over runs, per name in LEAF_COUNTERS: leaves
    reached; leaves whose floats rule out every x3 (`float_rejected`), leave
    candidates for the exact checks (`float_candidates`, x3 = 0 by the norm
    included) or cannot decide (`fallbacks`, whose candidates a box walk of
    Z[theta] lists).
    """

    def __init__(self, order: OrderLattice, ideal: IdealHNF):
        algebra = order.algebra
        field = algebra.field
        if not algebra.is_cocompact_presentation():
            raise InputError("need the algebra split at place 0 and ramified elsewhere")
        if algebra.a.sign_at(0) < 0:  # i |-> diag(sqrt a, -sqrt a) needs a > 0 there
            raise InputError("need a > 0 at place 0; present the algebra as (b, a)")
        self.order = order
        self.ideal = ideal
        self.algebra = algebra
        self.field = field
        d = field.degree
        self.d = d
        self.kappa = order.kappa

        hnf = [list(r) for r in order.congruence_lattice(ideal).mat]
        # the walk fixes x0, x1, x2; x3 is recovered at the leaf (`_leaf`)
        self._walk_rows = hnf[:3 * d]
        self._tail_rows = [row[3 * d:] for row in hnf[3 * d:]]
        # the orbit rule (module docstring) starts at block 1 for x -> conj(x),
        # at block 0 when x -> -x maps Gamma(I) to itself too
        self._orbit_from = 0 if order.minus_one_in_gamma(ideal) else d
        # its runs of zeros start at blocks 0, 1 and 2, and blocks 1 and 2 share
        # one unless x1 -> -x1 maps I*Q into (so onto) itself, row by HNF row
        sigma = order.cached(("sigma_stable", ideal), lambda: all(
            lattice.contains(hnf, row[:d] + [-n for n in row[d:2 * d]] + row[2 * d:])
            for row in hnf))
        self._run_starts = (0, d, 2 * d if sigma else d)
        self.offset = [self.kappa] + [0] * (4 * d - 1)
        self.counters = Counter(dict.fromkeys(LEAF_COUNTERS, 0))
        # the order-only half, under the same names
        vars(self).update(vars(order.cached("enumerator", lambda: _OrderHalf(order))))

    # -- radius-dependent boxes ---------------------------------------------

    def _boxes(self, radius):
        """Certified per-coefficient embedding bounds B[l][s] (Fractions, outer).

        Raises InputError for a radius whose bounds leave the double range.
        The walk's largest doubles are 2 cosh L (`WalkTables.m_sq_f`) and the
        square of x3's box at the split place (`WalkTables.v0_max`); its other
        bounds grow as their square roots.  2 cosh L > e^L, so no radius above
        log DOUBLE_MAX fits, which is decided before cosh is enclosed.
        """
        # the exact binary value of the radius is the radius; box and emission
        # cut use the same enclosure, so the visited set is well defined
        radius = Fraction(radius)
        if radius > iv_log(DOUBLE_MAX, START_BITS).hi:
            raise InputError(f"radius {float(radius):g} is too large: 2 cosh L "
                             f"exceeds the largest double")
        t_encl = iv_cosh(radius, START_BITS) * 2
        m_sq = t_encl.hi                      # upper bound for 2 cosh L
        m_val = iv_sqrt(RatInterval.exact(m_sq), START_BITS).hi
        half_m2 = iv_sqrt(RatInterval.exact(m_sq / 2), START_BITS).hi
        # |x2|, |x3| from v^2 + w^2 <= 2 cosh L via Cauchy-Schwarz
        ranges = self._ranges
        vw = iv_sqrt(RatInterval.exact(m_sq) * ranges.one_plus_inv_b2, START_BITS).hi / 2
        split = [half_m2, half_m2 * ranges.inv_sqrt_a0, vw, vw * ranges.inv_sqrt_a0]
        boxes = [[x] + row for x, row in zip(split, self._ramified_boxes)]
        if max(m_sq, boxes[3][0] ** 2) > DOUBLE_MAX:
            raise InputError(f"radius {float(radius):g} is too large: the walk's "
                             f"squared bounds exceed the largest double")
        return boxes, m_sq, m_val

    def _coord_bounds(self, boxes):
        """|c_j| bounds, block by block, by `NumberField.coordinate_bounds`."""
        return [b * self.kappa for row in boxes
                for b in self.field.coordinate_bounds(row)]

    # -- main run --------------------------------------------------------------

    def block0_prefixes(self, traces):
        """The block-0 coordinates c_0 .. c_(d-1) = kappa t/2 of an element of
        trace t, for each t whose kappa t/2 is integral (no element of the
        coset has any other trace among them)."""
        out = set()
        for t in traces:
            num = [n * self.kappa for n in t.num]
            if all(n % (2 * t.den) == 0 for n in num):
                out.add(tuple(n // (2 * t.den) for n in num))
        return sorted(out)

    def run(self, radius, cap_nodes: int = CAP_NODES, prefixes=None):
        """All congruence elements with ||gamma||_F^2 <= 2 cosh(radius).

        One `walkranges.walk` of x0, x1, x2, whose `node_ranges` give each
        coordinate its rule range under the block's widths W_s, capped at 0
        by the orbit rule; each full vector goes to `_leaf`.
        prefixes: if given, only the elements whose block 0 is one of these
        coordinate tuples (`block0_prefixes`): at each of the first d
        coordinates the same walk takes, as point ranges, only the values of
        the prefixes that agree so far.  Every node below a prefix gets the
        same ranges and orbit rule as in the full walk, so the elements
        emitted, and each class representative, are those of the full walk
        under it.

        Returns (candidates by the block-0 key of their class, visited node count).
        """
        boxes, m_sq, m_val = self._boxes(radius)
        coord_bound = self._coord_bounds(boxes)
        d, kappa = self.d, self.kappa
        emb_f = self.emb_f
        ranges = self._ranges
        # the radius cut's floats lo <= m_sq <= hi; hi also bounds the walk's B_s
        cut = (m_sq, *RatInterval.exact(m_sq).as_floats())
        tabs = ranges.tables(boxes, cut[2], m_val, coord_bound)
        reps = {}  # block-0 class key -> (coords, float norm bounds) of its representative
        visited = 0

        def block_values(c, l):
            base = l * d
            vals = []
            for s in range(d):
                acc = 0.0
                row = emb_f[s]
                for m in range(d):
                    acc += c[base + m] * row[m]
                vals.append(acc / kappa)
            return vals

        x_places = [None] * 3  # float embedding rows for blocks 0..2
        widths = [tabs.width0, None, None]  # per-node W_s of blocks 0..2
        orbit_from, run_starts = self._orbit_from, self._run_starts

        def node_ranges(j, c):
            l, k = divmod(j, d)
            if l and not k:
                x_places[l - 1] = block_values(c, l - 1)
                widths[l] = ranges.block_widths(l, x_places, tabs)
            lo, hi = -math.inf, math.inf
            # block 0 has only the static box, so the sum rule adds nothing there
            if j and (l or k >= d - 2):
                lo, hi = ranges.rule_range(k, c[j - k:j], widths[l], tabs.nu[l][k])
            # the orbit member with c_j <= 0, while the rule's run of zeros holds
            if j >= orbit_from and not any(c[run_starts[l]:j]):
                hi = min(hi, 0)
            if prefixes is None or l:
                return [(lo, hi)]
            # the values c_j of the prefixes that agree with c_0 .. c_(j-1)
            fixed = tuple(c[:j])
            return [(q, q) for q in sorted({q[j] for q in prefixes if q[:j] == fixed})
                    if lo <= q <= hi]

        def count_node():
            nonlocal visited
            visited += 1
            if visited > cap_nodes:
                raise CapExceeded(f"enumeration exceeded {cap_nodes} nodes")

        for vec in walk(self._walk_rows, self.offset, [math.floor(b) for b in coord_bound],
                        node_ranges, count_node):
            x_places[2] = block_values(vec, 2)
            self._leaf(vec, x_places, tabs, reps, cut)
        return {key: self._candidate(c, key) for key, (c, _norm) in reps.items()}, visited

    # -- leaf: recover the last coefficient --------------------------------------

    def _leaf(self, vec, x_places, tabs, reps, cut):
        """The elements at a leaf: vec holds the walked coordinates c_0 .. c_(3d-1)
        and the partial sums of the congruence rows in its tail.

        The candidates kappa x3 come from the floats (`WalkRanges.leaf_roots`)
        or, where they cannot decide, from a box walk of Z[theta] with
        |sigma_s y| <= kappa sqrt(V_s + Delta_s), which holds every root.  Its
        points go positive at place 0 first, the order of `leaf_roots`, so the
        first element met on a tie is the same.  Each candidate that meets the
        congruence is settled on the integers: one check of D kappa^2 Nrd(x)
        against D kappa^2 (`_IntegerForm`).
        """
        counters = self.counters
        counters["leaves"] += 1
        ranges = self._ranges
        squares = ranges.leaf_squares(x_places, tabs)
        targets = ranges.leaf_roots(squares, tabs)
        if targets == []:
            counters["float_rejected"] += 1
            return
        d, kappa = self.d, self.kappa
        if targets is None:
            counters["fallbacks"] += 1
            # kappa sqrt(V_s + Delta_s) rounded up, 0 where no root is left
            limits = [Fraction(math.nextafter(math.sqrt(max(math.nextafter(v + dv, math.inf), 0)),
                                              math.inf)) * kappa for v, dv in squares]
            targets = [list(y.num) for y in sorted(self.field.box_walk(limits),
                                                   key=lambda y: -y.sign_at(0))]
        else:
            counters["float_candidates"] += 1
        head = None  # `WalkRanges.split_head`, once per leaf that emits
        for target in targets:
            if not lattice.contains(self._tail_rows,
                                    [t - p for t, p in zip(target, vec[3 * d:])]):
                continue
            c = vec[:3 * d] + target
            if self._norm_form.value(c) != self._norm_one:
                continue
            if not any(c[d:]):
                continue  # +-1 are the only central norm-one elements on the coset
            head = head or ranges.split_head(x_places, tabs)
            self._emit(c, reps, cut, ranges.split_norm(x_places, target, tabs, head))

    def _emit(self, c, reps, cut, approx):
        """Keep the element of walk coordinates c if ||x||_F^2 <= m_sq, as its
        class representative if it is one.

        cut: (m_sq, lo, hi) with floats lo <= m_sq <= hi; approx: floats
        lo <= ||x||_F^2 <= hi (`WalkRanges.split_norm`).  Floats decide the
        cut where they separate (`_float_less`), the exact sign test elsewhere,
        a float tie included.  The class of |trace| is read from block 0, as
        trd x = 2 x0.
        """
        inside = _float_less(approx, cut[1:])
        if inside is None:
            alpha, beta = self._frob_parts(c)
            inside = self._frob_sign(alpha - cut[0], beta) <= 0
        if not inside:
            return
        block0 = tuple(c[:self.d])
        key = max(block0, tuple(-n for n in block0))
        rep = (c, approx)
        prev = reps.get(key)
        if prev is None or self._frob_less(rep, prev):
            reps[key] = rep

    def _candidate(self, c, key) -> GeodesicCandidate:
        """The candidate of a class representative of walk coordinates c and
        block-0 key (`_emit`): its element, the trace t = 2 key / kappa of the
        class, the side of 2 of |sigma_0 t| and, if hyperbolic, its length.
        Every element of a class has the same |sigma_0 t|, so a parabolic
        class shows here."""
        x = unflatten(self.algebra, c, self.kappa)
        trace = FieldElement(self.field, [2 * n for n in key], self.kappa)

        def side_and_box(bits):
            # one enclosure of |sigma_0 t| (exact if t is rational) for side and length
            box = trace.embed(0, bits).abs()
            side = (box - 2).sign()
            return None if side is None else (side, box)

        side, tr_box = refine(side_and_box, START_BITS)
        if side == 0:
            raise InvariantViolation(f"parabolic element {x} in a cocompact group")
        length = iv_acosh(tr_box / 2, START_BITS) * 2 if side > 0 else None
        return GeodesicCandidate(
            element=x,
            trace=trace,
            abs_trace=float(tr_box.mid),
            length=length,
            is_elliptic=side < 0,
        )

    def _frob_parts(self, c):
        """(alpha, beta) in K from the walk coordinates c, with ||x||_F^2 =
        alpha + beta sqrt(a) at the split place: alpha = 2 (x0^2 + a x1^2) +
        (1 + b^2)(x2^2 + a x3^2), beta = 2 (1 - b^2) x2 x3."""
        k2 = self.kappa ** 2
        return tuple(FieldElement(self.field, form.value(c), form.den * k2)
                     for form in (self._alpha_form, self._beta_form))

    def _frob_sign(self, A, B) -> int:
        """The sign of sigma_0 A + sigma_0 B sqrt(sigma_0 a) for A, B in K.

        Where the two terms have opposite signs, the sign of A^2 - a B^2 at
        place 0 says which one is larger.  That sign is never 0 there: a is
        not a square in K, as (a, b) is a division algebra
        (`QuaternionAlgebra.is_cocompact_presentation`).  So the result is 0
        only at A = B = 0.
        """
        sa, sb = A.sign_at(0), B.sign_at(0)
        if sa * sb >= 0:
            return sa or sb
        return sa * (A * A - self.algebra.a * (B * B)).sign_at(0)

    def _frob_less(self, x, y) -> bool:
        """Whether ||x||_F^2 < ||y||_F^2 at the split place, decided exactly, for
        the (coords, float bounds) pairs x and y of `_emit`.

        Float bounds that separate decide (`_float_less`); where they
        overlap, the sign of the difference does (`_frob_sign`), 0 on a tie.
        This is the representative rule of a class: the least norm, the first
        one met on a tie.
        """
        less = _float_less(x[1], y[1])
        if less is None:
            (ax, bx), (ay, by) = self._frob_parts(x[0]), self._frob_parts(y[0])
            less = self._frob_sign(ax - ay, bx - by) < 0
        return less


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def enumerate_gamma(order: OrderLattice, ideal: IdealHNF, radius,
                    cap_nodes: int = CAP_NODES, enumerator=None, prefixes=None):
    """Sorted GeodesicCandidate list for the given displacement radius.

    enumerator: an `Enumerator` of (order, ideal) to reuse, else a new one;
    prefixes: walk only under these block-0 prefixes (`Enumerator.run`).
    """
    enumerator = enumerator or Enumerator(order, ideal)
    found, visited = enumerator.run(radius, cap_nodes, prefixes)
    cands = sorted(found.values(), key=lambda c: (c.abs_trace, c.trace.coords))
    return cands, visited


class RadiusSchedule(NamedTuple):
    """The radii start + k step for k = 0, 1, ..., up to stop plus 1e-9 of a step."""

    start: float
    step: float
    stop: float

    @classmethod
    def parse(cls, text: str) -> "RadiusSchedule":
        try:
            a, b, c = (float(x) for x in text.split(":"))
        except ValueError as exc:
            raise InputError(f"bad radius schedule {text!r}; want L0:STEP:MAX") from exc
        if not all(math.isfinite(x) for x in (a, b, c)):
            raise InputError(f"radius schedule {text!r} needs finite values")
        if b <= 0 or c < a:
            raise InputError("radius schedule must increase")
        top = max(abs(a), abs(c))
        if c > a and top + b == top:  # below the float spacing, radii repeat
            raise InputError(f"radius step {b:g} cannot advance a radius of {top:g}")
        schedule = cls(a, b, c)
        if schedule.count() > MAX_RADII:
            raise InputError(f"radius schedule {text!r} has {schedule.count()} radii; "
                             f"at most {MAX_RADII} are supported")
        return schedule

    def count(self) -> int:
        """The number of radii."""
        span = (Fraction(self.stop) - Fraction(self.start)) / Fraction(self.step)
        return max(0, math.floor(span + Fraction(1, 10 ** 9)) + 1)


def systole_search(order: OrderLattice, ideal: IdealHNF,
                   schedule: RadiusSchedule = RadiusSchedule(5.0, 1.0, 12.0),
                   cap_nodes: int = CAP_NODES,
                   progress=None) -> EnumerationResult:
    """Increasing-radius search until certified or stabilized.

    certified, certificate `trace-coset`: the least hyperbolic trace found
    is a minimiser t* of `bounds.trace_coset_minimum`, so the systole is
    L* = 2 acosh(|sigma_0 t*|/2).  Radii below L* are skipped: a hyperbolic
    element displaces the basepoint by at least its translation length, and
    the search starts at the index of the first radius not below L*.  A
    schedule with no such radius is refused before any walk (CapExceeded
    naming L* and that radius).
    stabilized: the certificate does not apply, and the minimal |trace|
    survived two radius increments.

    Each radius first walks only the elements of trace t*: one pinned run of
    the search's `Enumerator` under the block-0 prefixes x0 = t*/2 of the
    minimisers.  An element found there certifies the radius, and the
    result holds that class alone.  Only where none is found does the radius
    also walk the full ball, whose classes then make the result (its
    `visited` counts both runs): they feed the stabilized streak and the
    check that no hyperbolic trace lies below t* (`_coset_realised`).

    `progress(result)` is invoked with the intermediate EnumerationResult
    after each enumerated radius (visited nodes, current minimum, mode so far).
    """
    coset = trace_coset_minimum(order, ideal, cap_nodes)
    start, step = Fraction(schedule.start), Fraction(schedule.step)
    # within one of the first radius not below L*; the enclosure of L* settles it
    first = max(0, math.floor((coset.length.lo - start) / step))
    while first < schedule.count() and \
            coset.length.certainly_gt(schedule.start + first * schedule.step):
        first += 1
    if first >= schedule.count():
        need = max(0, math.ceil((coset.length.hi - start) / step))
        raise CapExceeded(f"radius schedule exhausted below L*={float(coset.length.mid):.6f}: "
                          f"its first radius not below L* is "
                          f"{schedule.start + need * schedule.step!r}")
    enumerator = Enumerator(order, ideal)
    prefixes = enumerator.block0_prefixes(coset.traces)
    best_key = None
    streak = 0
    for k in range(first, schedule.count()):
        radius = schedule.start + k * schedule.step
        cands, visited = enumerate_gamma(order, ideal, radius, cap_nodes,
                                         enumerator=enumerator, prefixes=prefixes)
        realised = _coset_realised(coset, cands)
        if realised is None:
            cands, full = enumerate_gamma(order, ideal, radius, cap_nodes,
                                          enumerator=enumerator)
            visited += full
            realised = _coset_realised(coset, cands)
            if realised is not None:
                raise InvariantViolation(f"the full ball realises {realised.trace} "
                                         f"where the pinned walk did not")
        hyper = [c for c in cands if not c.is_elliptic]
        elliptic = [c for c in cands if c.is_elliptic]
        min_cand = hyper[0] if hyper else None
        mode, certificate = "searching", None
        if realised is not None:
            min_cand, mode, certificate = realised, "certified", "trace-coset"
        key = min_cand.trace.coords if min_cand else None
        if key is not None:
            streak = streak + 1 if key == best_key else 0
            best_key = key
            if mode != "certified" and streak >= 2:
                mode = "stabilized"
        last = EnumerationResult(
            ideal_hnf=str(ideal),
            ideal_norm=ideal.norm,
            radius=radius,
            min_trace=min_cand.trace if min_cand else None,
            min_length=min_cand.length if min_cand else None,
            distinct_traces=len(hyper),
            elliptic_count=len(elliptic),
            visited=visited,
            mode=mode,
            candidates=cands,
            certificate=certificate,
        )
        if progress is not None:
            progress(last)
        if mode in ("certified", "stabilized"):
            return last
    raise CapExceeded(f"radius schedule exhausted; best so far: {last.records()}")


class _IntegerForm:
    """A quadratic form on the walk's integer coordinates, as integer tables.

    coefs maps block pairs (l, l') with l <= l' to field elements; the form
    is q(x) = sum coefs[l, l'] x_l x_l' with x_l = (1/kappa) sum_m
    c[l d + m] theta^m.  So kappa^2 q(x) = sum over i <= j of c_i c_j w_ij
    for field elements w_ij, and with den a common denominator of the w_ij,
    `value(c)` gives den kappa^2 q(x) over the power basis as d integers.
    """

    def __init__(self, field, coefs):
        d = field.degree
        terms = []
        for (l, l2), coef in coefs.items():
            scaled = [FieldElement(field, row, coef.den)
                      for row in field.theta_rows(coef.num, 2 * d - 1)]
            for m, m2 in itertools.product(range(d), repeat=2):
                if l == l2 and m > m2:
                    continue  # a square's cross term c_m c_m2 comes twice, below
                w = scaled[m + m2] * (2 if l == l2 and m < m2 else 1)
                if not w.is_zero():
                    terms.append(((l * d + m, l2 * d + m2), w))
        self.den = math.lcm(*(w.den for _key, w in terms))
        self._pairs = [key for key, _w in terms]
        # column k: coordinate k of den w_ij, term by term
        self._cols = [[w.num[k] * (self.den // w.den) for _key, w in terms] for k in range(d)]

    def value(self, c):
        prods = [c[i] * c[j] for i, j in self._pairs]
        return [sum(map(operator.mul, prods, col)) for col in self._cols]


def _float_less(fx, fy):
    """Whether the value in float enclosure fx is below that in fy, or None if
    they overlap or touch; floats compare exactly."""
    if fx[1] < fy[0]:
        return True
    if fx[0] > fy[1]:
        return False
    return None


def _coset_realised(coset, cands):
    """The candidate whose trace is a coset minimiser t*, or None.

    Raises InvariantViolation for a hyperbolic trace with |sigma_0| below
    |sigma_0 t*| (decided exactly), which the trace-coset lemma forbids.
    """
    realised = None
    for cand in cands:
        if cand.is_elliptic or cand.length.certainly_gt(coset.length):
            continue
        trace = cand.element.reduced_trace()
        if coset.is_minimiser(trace):
            realised = realised or cand
            continue
        if compare_abs(trace, coset.traces[0]) <= 0:
            raise InvariantViolation(
                f"trace {trace} of {cand.element} is not above the coset minimum "
                f"{coset.traces[0]} of 2 + I^2")
    return realised
