"""Per-node coordinate ranges for the enumerator's walk of the congruence lattice.

A block x_l = (1/kappa) sum_m c_m theta^m of a quaternion coefficient is
walked coordinate by coordinate.  Each node asks for every integer c_k that
can still satisfy |sum_m c_m emb_f[s][m]| <= W_s at every place s, given the
block's first k coordinates; this is the per-level bound of Fincke-Pohst
(Math. Comp. 44, 1985) for a box instead of an ellipsoid.  Three rules
answer it over the reals:

* the last coordinate, `slice_range`: intersect the places' intervals;
* the last-but-one, `pair_range`: eliminate the last coordinate
  (Fourier-Motzkin), one condition per pair of places;
* earlier ones, `sum_range`: the inverse embedding matrix.

`WalkRanges.coordinate_range` applies the rule for coordinate k.  Each
rule returns (lo, hi) widened by `nu`, the bound on its own float rounding
from `WalkRanges.tables`.  The widths W_s come from per-place bounds B_s
that `WalkRanges.block_widths` derives from the blocks already fixed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InvariantViolation
from .intervals import RatInterval

_UNIT = Fraction(1, 2 ** 53)


def _gamma(n):
    """n u / (1 - n u): the relative error of n roundings."""
    return n * _UNIT / (1 - n * _UNIT)


@dataclass
class WalkTables:
    """Per-run constants: static boxes, error bounds and rule widenings."""
    mf: float          # float bound of the |u|, |ub| filter, the M of B_s
    m_sq_f: float      # 2 cosh L rounded up
    box_up: list       # box_up[l][s]: static box rounded up
    eps: list          # eps[l][s]: error of a float block value
    delta: list        # delta[l][s]: widening of the per-node bound B_s
    width0: list       # W_s of block 0 (static box)
    nu_slice: list     # nu_*[l]: rounding widening of each rule's endpoints
    nu_pair: list
    nu_sum: list       # nu_sum[l][k]


class WalkRanges:
    """Field data of the per-node ranges for one enumerator.

    `powers[s][m]` encloses theta_s^m, `emb_f` is its float table (the
    walk's block values), `inverse` the certified inverse embedding matrix;
    `a_emb`, `b_emb` and `sqrt_a0` enclose the structure constants.
    """

    def __init__(self, powers, emb_f, inverse, a_emb, b_emb, sqrt_a0, kappa):
        d = len(emb_f)
        self.d, self.kappa, self.emb_f = d, kappa, emb_f
        # the float table as exact rationals, and its distance to theta_s^m
        self.emb_q = [[Fraction(f) for f in row] for row in emb_f]
        self.emb_err = [[max(abs(q - p.lo), abs(q - p.hi)) for q, p in zip(qrow, prow)]
                        for qrow, prow in zip(self.emb_q, powers)]
        self.einv_up = [[_up(max(abs(e.lo), abs(e.hi))) for e in row] for row in inverse]
        lead = [row[d - 1] for row in self.emb_q]
        if any(e == 0 for e in lead):
            raise InvariantViolation("zero leading embedding power")
        self.lead = [row[d - 1] for row in emb_f]
        self.inv_lead = [float(1 / e) for e in lead]
        # eliminating a block's last coordinate leaves, for each pair of places,
        # a slope difference 1/theta_s - 1/theta_t; taken exactly from the
        # rational table, so its sign is certain, and nonzero as the theta_s differ
        self.pairs = []
        self.pair_inv_g = []
        if d >= 2:
            slope = [row[d - 2] / e for row, e in zip(self.emb_q, lead)]
            for s, t in itertools.combinations(range(d), 2):
                g = slope[s] - slope[t]
                if g == 0:
                    raise InvariantViolation("two places share a slope")
                self.pairs.append((s, t, float(1 / g)))
                self.pair_inv_g.append(abs(1 / g))
        # directed float constants of the per-node bounds
        a_abs = [x.abs() for x in a_emb]
        b_abs = [x.abs() for x in b_emb]
        self.a_hi = [x.hi for x in a_abs]
        self.a_lo_f = [_down(x.lo) for x in a_abs]
        self.ra_f = [_up(1 / x.lo) for x in a_abs]
        self.rb_f = [_up(1 / x.lo) for x in b_abs]
        self.ra0_f = _up(1 / sqrt_a0.lo)
        self.cb_f = _up((RatInterval.exact(1) / (b_emb[0] * b_emb[0])).hi + 1)

    def tables(self, boxes, m_sq, mf, box_f, coord_bound) -> WalkTables:
        """Per-run constants for the static boxes and the walk's filter bounds.

        Rounding model: u = 2^-53, gamma_n = n u / (1 - n u) bounds the
        relative error of n roundings, and a float sum of products is within
        gamma_n of its exact value times the sum of the absolute values of its
        terms.  The walk's coordinates obey |c_j| <= coord_bound[j] + 1 (the
        static range's 1e-9 tolerance times an HNF pivot h < 10^9 stays below
        1), so every such sum is bounded by a run constant:

        * eps[l][s] bounds |X - sigma_s(x_l)| for a float block value X of the
          walk (d products, d - 1 additions, one division), counting the table
          error |emb_f - theta_s^m| and one more rounding, which covers
          forming |X| - eps.  A block whose exact or float values lie within
          B_s therefore has |sum_m c_m emb_f[s][m]| <= W_s =
          kappa (B_s + eps[l][s]), and the range rules work with W_s.
        * The per-node bound B_s of block l >= 1 is evaluated from |X| - eps
          (a lower bound of |sigma_s|) and directed constants.  Its argument
          has at most six roundings, so it lies within Delta = gamma_6 times
          its absolute-value counterpart of the exact argument, and
          sqrt(q + Delta) <= sqrt(q) + sqrt(Delta); with 2u for the square
          root and 3u for forming W this gives delta[l][s], and
          W_s = kappa (min(B_s, box) + delta[l][s]) bounds the exact width.
        * Each range rule's endpoint is a fixed expression in the block prefix
          sums and the W_s; nu_* is gamma of its rounding count times its
          absolute-value counterpart, with magnitudes lam = 2 (mag + W) that
          absorb every (1 + O(u)) factor on them (mag[l][s] bounds the sum
          of |c_m emb_f[s][m]| over a block).
        """
        d, kappa = self.d, self.kappa
        emb_q, lead = self.emb_q, [row[d - 1] for row in self.emb_q]
        cbf = [cb + 1 for cb in coord_bound]
        mag = [[sum(cbf[l * d + m] * abs(emb_q[s][m]) for m in range(d)) for s in range(d)]
               for l in range(3)]
        eps = [[(sum(cbf[l * d + m] * self.emb_err[s][m] for m in range(d))
                 + _gamma(d + 2) * mag[l][s]) / kappa for s in range(d)] for l in range(3)]
        ymax = [[Fraction(x) for x in row] for row in box_f[:2]]
        box_up = [[_up(boxes[l][s]) for s in range(d)] for l in range(3)]
        cap = [[Fraction(x) for x in row] for row in box_up]
        m_sq_f = _up(m_sq)

        unit = _UNIT
        beta = [[Fraction(0)] * d for _ in range(3)]
        # block 1, split place: (M - y0) / sqrt(a), two roundings
        beta[1][0] = 3 * unit * (Fraction(mf) + ymax[0][0]) * Fraction(self.ra0_f)
        # block 2, split place: (M^2 - 2 y0^2 - 2 a y1^2) (1 + 1/b^2), six roundings
        beta[2][0] = (_sqrt_up(_gamma(6) * (Fraction(m_sq_f) + 2 * ymax[0][0] ** 2
                                            + 2 * self.a_hi[0] * ymax[1][0] ** 2)
                               * Fraction(self.cb_f)) / 2 + 2 * unit * cap[2][0])
        for s in range(1, d):
            # (1 - y0^2) / |a|, three roundings
            beta[1][s] = (_sqrt_up(_gamma(3) * (1 + ymax[0][s] ** 2) * Fraction(self.ra_f[s]))
                          + 2 * unit * cap[1][s])
            # (1 - y0^2 - |a| y1^2) / |b|, six roundings
            beta[2][s] = (_sqrt_up(_gamma(6) * (1 + ymax[0][s] ** 2
                                                + self.a_hi[s] * ymax[1][s] ** 2)
                                   * Fraction(self.rb_f[s])) + 2 * unit * cap[2][s])
        delta = [[e + b + 3 * unit * (c + e + b) for e, b, c in zip(eps[l], beta[l], cap[l])]
                 for l in range(3)]
        width0 = [kappa * (boxes[0][s] + eps[0][s]) for s in range(d)]
        lam = [[2 * (mag[l][s] + (width0[s] if l == 0 else kappa * (cap[l][s] + delta[l][s])))
                for s in range(d)] for l in range(3)]

        nu_slice = [_up(_gamma(d + 3) * max(lam[l][s] / abs(lead[s]) for s in range(d)))
                    for l in range(3)]
        nu_pair = []
        for l in range(3):
            reach = [lam[l][s] / abs(lead[s]) for s in range(d)]
            nu_pair.append(_up(_gamma(d + 5) * max(
                ((reach[s] + reach[t]) * inv_g
                 for (s, t, _), inv_g in zip(self.pairs, self.pair_inv_g)), default=0)))
        nu_sum = [[_up(_gamma(2 * d + 1) * sum(e * x for e, x in zip(self.einv_up[k], lam[l])))
                   for k in range(d)] for l in range(3)]
        return WalkTables(
            mf=mf, m_sq_f=m_sq_f, box_up=box_up,
            eps=[[_up(x) for x in row] for row in eps],
            delta=[[_up(x) for x in row] for row in delta],
            width0=[_up(x) for x in width0],
            nu_slice=nu_slice, nu_pair=nu_pair, nu_sum=nu_sum)

    def block_widths(self, l, x_places, tabs):
        """Widths W_s = kappa (B_s + delta) of block l >= 1 at the current node.

        B_s bounds |sigma_s(x_l)| for every element that the enumerator's
        existing checks would emit below this node:

        * block 1, place 0: |u|, |ub| <= M gives (M - |x0|)/sqrt(a);
        * block 1, place s >= 1: the unit ball gives sqrt((1 - x0^2)/|a|);
        * block 2, place 0: ||x||_F^2 <= M^2, with v^2 + w^2 >= 4 b^2 x2^2 /
          (1 + b^2) at its minimum over x3, gives
          sqrt((M^2 - u^2 - ub^2)(1 + 1/b^2)) / 2;
        * block 2, place s >= 1: x3^2 >= 0 gives sqrt((1 - x0^2 - |a| x1^2)/|b|).
        """
        d, kappa = self.d, self.kappa
        eps = tabs.eps
        y0 = [max(abs(x) - e, 0.0) for x, e in zip(x_places[0], eps[0])]
        if l == 1:
            bounds = [(tabs.mf - y0[0]) * self.ra0_f]
            for s in range(1, d):
                q = (1.0 - y0[s] * y0[s]) * self.ra_f[s]
                bounds.append(math.sqrt(q) if q > 0 else 0.0)
        else:
            y1 = [max(abs(x) - e, 0.0) for x, e in zip(x_places[1], eps[1])]
            q = ((tabs.m_sq_f - 2 * y0[0] * y0[0] - 2 * self.a_lo_f[0] * (y1[0] * y1[0]))
                 * self.cb_f)
            bounds = [0.5 * math.sqrt(q) if q > 0 else 0.0]
            for s in range(1, d):
                q = (1.0 - y0[s] * y0[s] - self.a_lo_f[s] * (y1[s] * y1[s])) * self.rb_f[s]
                bounds.append(math.sqrt(q) if q > 0 else 0.0)
        return [kappa * (min(b, c) + e)
                for b, c, e in zip(bounds, tabs.box_up[l], tabs.delta[l])]

    def coordinate_range(self, l, k, fixed, widths, tabs):
        """Real range of coordinate k of block l given its first k, `fixed`."""
        d = self.d
        if k < d - 2:
            return sum_range(self.einv_up[k], widths, tabs.nu_sum[l][k])
        prefix = []
        for row in self.emb_f:
            acc = 0.0
            for m in range(k):
                acc += fixed[m] * row[m]
            prefix.append(acc)
        if k == d - 1:
            return slice_range(prefix, self.lead, widths, tabs.nu_slice[l])
        return pair_range(prefix, self.inv_lead, widths, self.pairs, tabs.nu_pair[l])


def sum_range(einv_row, widths, nu):
    """c_k = sum_s E^-1[k][s] kappa sigma_s(x), so |c_k| <= sum_s |E^-1[k][s]| W_s."""
    acc = 0.0
    for e, w in zip(einv_row, widths):
        acc += e * w
    return -acc - nu, acc + nu


def slice_range(prefix, lead, widths, nu):
    """The last coordinate: intersect |A_s + c lead_s| <= W_s over the places.

    prefix[s] = A_s is the float sum over the block's fixed coordinates.
    """
    lo, hi = -math.inf, math.inf
    for a, e, w in zip(prefix, lead, widths):
        x, y = (-w - a) / e, (w - a) / e
        if e < 0:
            x, y = y, x
        if x > lo:
            lo = x
        if y < hi:
            hi = y
    return lo - nu, hi + nu


def pair_range(prefix, inv_lead, widths, pairs, nu):
    """The last-but-one coordinate c, eliminating the last one c'.

    Place s admits the c' of an interval centred at -(A_s + c f_s)/e_s with
    half-width W_s/|e_s|; some c' fits every place iff each pair of these
    intervals meets: |alpha_s - alpha_t + c (f_s/e_s - f_t/e_t)| <=
    W_s/|e_s| + W_t/|e_t| with alpha_s = A_s/e_s.  `pairs` holds
    (s, t, 1/(f_s/e_s - f_t/e_t)).
    """
    alpha = [a * ie for a, ie in zip(prefix, inv_lead)]
    half = [w * abs(ie) for w, ie in zip(widths, inv_lead)]
    lo, hi = -math.inf, math.inf
    for s, t, inv_g in pairs:
        gap = alpha[s] - alpha[t]
        reach = half[s] + half[t]
        x, y = (-reach - gap) * inv_g, (reach - gap) * inv_g
        if inv_g < 0:
            x, y = y, x
        if x > lo:
            lo = x
        if y < hi:
            hi = y
    return lo - nu, hi + nu


def _up(x) -> float:
    """The least float >= x."""
    return RatInterval.exact(x).as_floats()[1]


def _down(x) -> float:
    """The greatest float <= x."""
    return RatInterval.exact(x).as_floats()[0]


def _sqrt_up(x: Fraction) -> float:
    """A float >= sqrt(x), checked exactly."""
    r = math.sqrt(float(x))
    while Fraction(r) ** 2 < x:
        r = math.nextafter(r, math.inf)
    return r
