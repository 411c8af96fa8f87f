"""One lattice walk, and the per-node coordinate ranges it takes.

`walk` lists a coset of an HNF lattice depth first, in increasing coordinate
order, under an exact static range cut by per-node real intervals from its
two callers, `NumberField.box_walk` and `geodesics.Enumerator.run`.

A block x_l = (1/kappa) sum_m c_m theta^m of a quaternion coefficient (a
field element for the box walk) is walked coordinate by coordinate.  Each
node asks for every integer c_k that can still satisfy
|sum_m c_m emb_f[s][m]| <= W_s at every place s, given the block's first k
coordinates; this is the per-level bound of Fincke-Pohst (Math. Comp. 44,
1985) for a box instead of an ellipsoid.  Three rules answer it over the
reals:

* the last coordinate, `slice_range`: intersect the places' intervals;
* the last-but-one, `pair_range`: eliminate the last coordinate
  (Fourier-Motzkin), one condition per pair of places;
* earlier ones, `sum_range`: the inverse embedding matrix.

`PlaceTable.rule_range` applies the rule for coordinate k.  Each rule
returns (lo, hi) widened by nu[k], the bound on its own float rounding
(`PlaceTable.widenings`).  A `PlaceTable` holds what depends on the field
alone; `NumberField.box_walk` runs the rules with the widths of a fixed box
(`PlaceTable.box_ranges`), and `PlaceTable.vs_two` compares |sigma_s x|
with 2 in floats.  For the enumerator, `WalkRanges` adds its algebra's
constants: `WalkRanges.tables` the per-run widenings, and
`WalkRanges.block_widths` the widths W_s from per-place bounds B_s derived
from the blocks already fixed.  At a leaf the last coefficient x3 is
recovered in floats: `WalkRanges.leaf_squares` gives x3^2 at each place with
a derived error bound, and `WalkRanges.leaf_roots` the only integer vectors
kappa x3 those floats leave, x3 = 0 by the integral norm where x3^2 is near 0,
or None where the bounds cannot decide.

One rounding model serves every bound (Higham, Accuracy and Stability of
Numerical Algorithms, 3.1): u = 2^-53, and gamma_n = n u / (1 - n u) bounds
the relative error of n roundings.  A bound evaluated in floats from
non-negative terms on float upper bounds, in n < 100 roundings, is at least
its real value over 1 + gamma_n; times _OWN >= 1 + gamma_100 it is an upper
bound.  Exact inputs are rounded up once, by `_up`.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .errors import InvariantViolation
from .intervals import RatInterval

_U = 2.0 ** -53
_OWN = 1 + 2.0 ** -44  # >= 1 + gamma_100: the rounding model of the module docstring
# every integer of magnitude at most 2^53 is a float
_EXACT_INT = 2 ** 53


def walk(rows, start, bound, node_ranges, on_node=None):
    """start + L in increasing coordinate order, depth first.

    `rows` is upper-triangular with a positive integer diagonal; the walk
    fixes c_j for j < len(rows) and carries any later coordinates along.
    Given the partial vector c (c[:j] fixed, c[j:] the row sums so far), c_j
    runs over the integers c[j] + n rows[j][j] with |c_j| <= bound[j] that lie
    in the real intervals `node_ranges(j, c)` returns: disjoint (lo, hi) in
    increasing order, or None for the static range alone; an endpoint that
    is not finite leaves its side static.  `on_node()`, if given, runs at
    every node before the walk goes below it.  Each full vector is yielded;
    a step of 0 shares its parent's list, so callers must not change it.
    """
    dim = len(rows)
    whole = ((-math.inf, math.inf),)

    def descend(j, vec):
        row = rows[j]
        h, p, b = row[j], vec[j], bound[j]
        lo, hi = -((b + p) // h), (b - p) // h
        spans = node_ranges(j, vec)
        for c_lo, c_hi in whole if spans is None else spans:
            n_lo = max(lo, (math.ceil(c_lo) - p + h - 1) // h) if math.isfinite(c_lo) else lo
            n_hi = min(hi, (math.floor(c_hi) - p) // h) if math.isfinite(c_hi) else hi
            for n in range(n_lo, n_hi + 1):
                if on_node is not None:
                    on_node()
                nxt = [v + n * r for v, r in zip(vec, row)] if n else vec
                if j + 1 == dim:
                    yield nxt
                else:
                    yield from descend(j + 1, nxt)

    yield from descend(0, list(start))


class WalkTables:
    """Per-run constants: static boxes, error bounds and rule widenings.

    A plain class with slots, as the walk reads its fields at every node.
    """

    __slots__ = ("mf", "m_sq_f", "box_up", "eps", "delta", "width0", "nu", "v0_max")

    def __init__(self, mf, m_sq_f, box_up, eps, delta, width0, nu, v0_max):
        self.mf = mf                # M >= |u|, |ub| rounded up, the M of B_s
        self.m_sq_f = m_sq_f        # 2 cosh L rounded up, the upper end of the radius cut
        self.box_up = box_up        # box_up[l][s]: static box rounded up
        self.eps = eps              # eps[l][s]: error of a float block value
        self.delta = delta          # delta[l][s]: widening of the per-node bound B_s
        self.width0 = width0        # W_s of block 0 (static box)
        self.nu = nu                # nu[l][k]: rounding widening of coordinate k's rule endpoints
        self.v0_max = v0_max        # boxes[3][0]^2 rounded up: beyond it x3 fails the radius cut


class PlaceTable:
    """The float table of theta_s^m and the field constants of the range rules.

    `powers[s][m]` encloses theta_s^m and `inverse` is the certified inverse
    embedding matrix.  `emb_f` is the float table of the powers (the sums the
    rules and the walk form) and `emb_err_f` bounds its distance to
    theta_s^m.  `gamma[n]` is gamma_n in floats, within one rounding of it,
    which every rounding count includes.  A field keeps one table for its box
    walks (`NumberField.place_table`); each enumerator's `WalkRanges`
    extends one with the structure constants of its algebra.
    """

    def __init__(self, powers, inverse):
        d = len(powers)
        self.d = d
        self.emb_f = [[float(p.mid) for p in row] for row in powers]
        emb_q = [[Fraction(f) for f in row] for row in self.emb_f]
        self.emb_err_f = [[_up(max(abs(q - p.lo), abs(q - p.hi))) for q, p in zip(qrow, prow)]
                          for qrow, prow in zip(emb_q, powers)]
        self.einv_up = [[_up(max(abs(e.lo), abs(e.hi))) for e in row] for row in inverse]
        self.lead = [row[d - 1] for row in self.emb_f]
        if not all(self.lead):
            raise InvariantViolation("zero leading embedding power")
        self.inv_lead = [1 / e for e in self.lead]
        # eliminating a block's last coordinate leaves, for each pair of places,
        # a slope difference 1/theta_s - 1/theta_t; taken exactly from the
        # rational table, so its sign is certain, and nonzero as the theta_s differ
        self.pairs = []
        self.pair_inv_g = []  # |1/g| rounded up
        if d >= 2:
            slope = [row[d - 2] / row[d - 1] for row in emb_q]
            for s, t in itertools.combinations(range(d), 2):
                g = slope[s] - slope[t]
                if g == 0:
                    raise InvariantViolation("two places share a slope")
                self.pairs.append((s, t, float(1 / g)))
                self.pair_inv_g.append(_up(abs(1 / g)))
        self.einv = [_mid_and_error(row) for row in inverse]
        self.gamma = [n * _U / (1 - n * _U) for n in range(2 * d + 6)]

    def widenings(self, lam):
        """nu[k]: the rounding widening of the rule of coordinate k.

        lam[s] is a float upper bound on every magnitude a rule meets at place
        s (its prefix sums, the widths W_s and their (1 + O(u)) factors); each
        endpoint is a fixed expression in them, so nu is gamma of its rounding
        count times the endpoint's absolute-value counterpart
        (`WalkRanges.tables`), in at most d + 4 roundings of its own.
        """
        d, g = self.d, self.gamma
        reach = [x / abs(e) for x, e in zip(lam, self.lead)]
        nu_slice = g[d + 3] * max(reach) * _OWN
        nu_pair = g[d + 5] * max(((reach[s] + reach[t]) * inv_g
                                  for (s, t, _), inv_g in zip(self.pairs, self.pair_inv_g)),
                                 default=0.0) * _OWN
        nu_sum = [g[2 * d + 1] * sum(e * x for e, x in zip(self.einv_up[k], lam)) * _OWN
                  for k in range(d - 2)]
        return nu_sum + [nu_pair, nu_slice][-d:]

    def rule_range(self, k, fixed, widths, nu):
        """Real range of coordinate k given the first k, `fixed`, with widening nu."""
        d = self.d
        if k < d - 2:
            return sum_range(self.einv_up[k], widths, nu)
        prefix = []
        for row in self.emb_f:
            acc = 0.0
            for m in range(k):
                acc += fixed[m] * row[m]
            prefix.append(acc)
        if k == d - 1:
            return slice_range(prefix, self.lead, widths, nu)
        return pair_range(prefix, self.inv_lead, widths, self.pairs, nu)

    def box_ranges(self, limits, bound):
        """Widths W_s and widenings nu[k] of a walk of the box |sigma_s x| <= limits[s].

        The walk's points x = sum_m c_m theta^m have |c_m| <= bound[m] (its
        static range), so |sum_m c_m emb_f[s][m] - sigma_s x| <= sum_m bound[m]
        emb_err_f[s][m], and W_s = limits[s] plus that sum holds every point of
        the box.  The rules' magnitudes are lam = 2 (mag + W), mag[s] bounding
        sum_m |c_m emb_f[s][m]|, as in `WalkRanges.tables`; W_s and mag take
        d + 2 roundings, lam two more.  Raises OverflowError for a box whose
        constants leave the double range.
        """
        bound = [_up(b) for b in bound]
        widths = [(_up(limit) + sum(b * e for b, e in zip(bound, row))) * _OWN
                  for limit, row in zip(limits, self.emb_err_f)]
        mag = [sum(b * abs(f) for b, f in zip(bound, row)) * _OWN for row in self.emb_f]
        nu = self.widenings([2 * (m + w) * _OWN for m, w in zip(mag, widths)])
        if not all(map(math.isfinite, widths + nu)):
            raise OverflowError("the box's float constants leave the double range")
        return widths, nu

    def vs_two(self, num, s):
        """Sign of |sigma_s x| - 2 for x = sum_m num[m] theta^m, or None if the
        floats cannot decide it.

        X = sum_m num[m] emb_f[s][m] takes d products and d - 1 additions,
        exact in its inputs while every |num[m]| <= 2^53, so |X - sigma_s x| <=
        E = sum_m |num[m]| emb_err_f[s][m] + gamma_d sum_m |num[m] emb_f[s][m]|;
        E is formed from non-negative terms and rounded up by _OWN.  Rounding
        is monotone and 2 is a float, so fl(|X| + E) < 2 proves |sigma_s x| < 2
        and fl(|X| - E) > 2 proves |sigma_s x| > 2.  Never 0: |sigma_s x| = 2
        is left to the exact test.
        """
        acc = mag = tab = 0.0
        for c, f, e in zip(num, self.emb_f[s], self.emb_err_f[s]):
            if abs(c) > _EXACT_INT:
                return None
            acc += c * f
            mag += abs(c * f)
            tab += abs(c) * e
        err = (tab + self.gamma[self.d] * mag) * _OWN
        if abs(acc) + err < 2:
            return -1
        if abs(acc) - err > 2:
            return 1
        return None


class WalkRanges(PlaceTable):
    """Field and algebra data of the per-node ranges for one enumerator.

    `table` is the field's `PlaceTable`, whose data it shares; `a_emb`,
    `b_emb` and `sqrt_a0` enclose the structure constants.  Their exact
    derived constants, read by the enumerator's boxes too (`Enumerator._boxes`),
    are formed here once: `a_abs`, `b_abs`, `inv_sqrt_a0`, `one_plus_inv_b2`.
    """

    def __init__(self, table, a_emb, b_emb, sqrt_a0, kappa):
        vars(self).update(vars(table))
        self.kappa = kappa
        unit = RatInterval.exact(1)
        self.a_abs = [x.abs() for x in a_emb]
        self.b_abs = [x.abs() for x in b_emb]
        self.inv_sqrt_a0 = (unit / sqrt_a0).hi
        self.one_plus_inv_b2 = unit + unit / (b_emb[0] * b_emb[0])
        # directed float constants of the per-node bounds
        self.a_hi_f = [_up(x.hi) for x in self.a_abs]
        self.a_lo_f = [_down(x.lo) for x in self.a_abs]
        self.ra_f = [_up(1 / x.lo) for x in self.a_abs]
        self.rb_f = [_up(1 / x.lo) for x in self.b_abs]
        self.ra0_f = _up(self.inv_sqrt_a0)
        self.cb_f = _up(self.one_plus_inv_b2.hi)
        # leaf recovery: float tables of a and b and their distance to the truth
        self.a_f, self.ea = _mid_and_error(a_emb)
        self.b_f, self.eb = _mid_and_error(b_emb)
        (self.ra0_mid,), (self.ra0_err,) = _mid_and_error([sqrt_a0])
        # D = fl(AB) within E_d = 2u|D| + |A| e_b + |B| e_a + e_a e_b of ab (`leaf_squares`)
        self.ab_f = [a * b for a, b in zip(self.a_f, self.b_f)]
        self.ab_err = [2 * _U * abs(ab) + abs(a) * eb + abs(b) * ea + ea * eb for ab, a, b, ea, eb
                       in zip(self.ab_f, self.a_f, self.b_f, self.ea, self.eb)]
        # whether 4 E_d <= |D| at every place, which `leaf_squares` needs
        self.ab_ok = all(4 * e <= abs(ab) for ab, e in zip(self.ab_f, self.ab_err))

    def tables(self, boxes, m_sq_f, m_val, coord_bound) -> WalkTables:
        """Per-run constants for the static boxes, 2 cosh L <= m_sq_f (a float)
        and the bound M = m_val on |u|, |ub|.

        The walk's coordinates obey |c_j| <= coord_bound[j] (the static range
        is exact), so each float sum of products in it, within gamma_n of its
        absolute-value counterpart, is bounded by a run constant:

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
          There |X| <= ymax = (1 + gamma_{d+2}) mag[l][s] / kappa, where
          mag[l][s] bounds the sum of |c_m emb_f[s][m]| over a block.
        * Each range rule's endpoint is a fixed expression in the block prefix
          sums and the W_s; nu_* is gamma of its rounding count times its
          absolute-value counterpart, with magnitudes lam = 2 (mag + W) that
          absorb every (1 + O(u)) factor on them.

        Each is formed in floats under the module's rounding model, in at most
        these roundings (d <= 12): mag d + 1, eps d + 4, delta 20, width0 3,
        lam 4, nu d + 4 more; gamma_n comes before each square, so nothing
        overflows where the boxes fit.
        """
        d, kappa, g = self.d, self.kappa, self.gamma
        bound = [[_up(b) for b in coord_bound[l * d:(l + 1) * d]] for l in range(3)]
        box_up = [[_up(x) for x in row] for row in boxes[:3]]
        mf = _up(m_val)
        mag = [[sum(b * abs(f) for b, f in zip(blk, row)) * _OWN for row in self.emb_f]
               for blk in bound]
        eps = [[(sum(b * e for b, e in zip(blk, err)) + g[d + 2] * x) / kappa * _OWN
                for x, err in zip(row, self.emb_err_f)] for blk, row in zip(bound, mag)]
        y0, y1 = ([(1 + g[d + 2]) * x / kappa for x in row] for row in mag[:2])
        # beta[l][s]: the widening of B_s beyond eps, block 0 having none
        gc = g[6] * self.cb_f
        beta = [[0.0] * d,
                # block 1, split place: (M - y0) / sqrt(a), two roundings
                [3 * _U * (mf + y0[0]) * self.ra0_f],
                # block 2, split place: (M^2 - 2 y0^2 - 2 a y1^2) (1 + 1/b^2), six roundings
                [0.5 * math.sqrt(gc * m_sq_f + 2 * gc * y0[0] * y0[0]
                                 + 2 * gc * self.a_hi_f[0] * y1[0] * y1[0])
                 + 2 * _U * box_up[2][0]]]
        for s in range(1, d):
            # (1 - y0^2) / |a|, three roundings; (1 - y0^2 - |a| y1^2) / |b|, six
            ga, gb = g[3] * self.ra_f[s], g[6] * self.rb_f[s]
            beta[1].append(math.sqrt(ga + ga * y0[s] * y0[s]) + 2 * _U * box_up[1][s])
            beta[2].append(math.sqrt(gb + gb * y0[s] * y0[s]
                                     + gb * self.a_hi_f[s] * y1[s] * y1[s])
                           + 2 * _U * box_up[2][s])
        delta = [[(e + b + 3 * _U * (c + e + b)) * _OWN
                  for e, b, c in zip(eps[l], beta[l], box_up[l])] for l in range(3)]
        width0 = [kappa * (c + e) * _OWN for c, e in zip(box_up[0], eps[0])]
        lam = [[2 * (m + (w if l == 0 else kappa * (c + e))) * _OWN
                for m, w, c, e in zip(mag[l], width0, box_up[l], delta[l])] for l in range(3)]
        return WalkTables(mf=mf, m_sq_f=m_sq_f, box_up=box_up, eps=eps, delta=delta,
                          width0=width0, nu=[self.widenings(row) for row in lam],
                          v0_max=_up(boxes[3][0] ** 2))

    def block_widths(self, l, x_places, tabs):
        """Widths W_s = kappa (B_s + delta) of block l >= 1 at the current node.

        B_s bounds |sigma_s(x_l)| for every element that the enumerator's
        exact leaf checks would emit below this node:

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

    def leaf_squares(self, x_places, tabs):
        """Float x3^2 = (1 - x0^2 + a x1^2 + b x2^2) / (ab) at each place, with
        a bound on its error: a list of (V_s, Delta_s).

        Inputs at place s: the walk's block values X_l with |X_l - sigma_s(x_l)|
        <= e_l = eps[l][s] (`tables`), and the float tables A, B of a, b, within
        e_a, e_b of sigma_s(a), sigma_s(b).  N = 1 - X0^2 + A X1^2 + B X2^2 is
        evaluated as written: terms of at most two products, three additions,
        so N is within gamma_5 S of its real value, S = 1 + X0^2 + |A| X1^2 +
        |B| X2^2.  That real value is within
        e_0 (2|X0| + e_0) + |A| e_1 (2|X1| + e_1) + e_a (|X1| + e_1)^2 + (same for x2)
        of the exact n, since A X1^2 - a x1^2 = A (X1^2 - x1^2) + (A - a) x1^2;
        the sum with gamma_5 S is E_n.  D = fl(AB) is within E_d of ab
        (`ab_err`), and the enumerator takes a and b at a precision with
        4 E_d <= |D| (`ab_ok`), which keeps |ab| >= |D|/2, so
        |N/D - n/ab| <= E_n/|D| + 2 (|N| + E_n) E_d/|D|^2, and the division adds
        2u|V|.  Delta_s is that sum.
        """
        out = []
        for s in range(self.d):
            x0, x1, x2 = x_places[0][s], x_places[1][s], x_places[2][s]
            e0, e1, e2 = tabs.eps[0][s], tabs.eps[1][s], tabs.eps[2][s]
            a, b, ea, eb = self.a_f[s], self.b_f[s], self.ea[s], self.eb[s]
            den, err_d = self.ab_f[s], self.ab_err[s]
            num = 1 - x0 * x0 + a * x1 * x1 + b * x2 * x2
            v = num / den
            y0, y1, y2, aa, ab_, ad = abs(x0), abs(x1), abs(x2), abs(a), abs(b), abs(den)
            err_n = (e0 * (2 * y0 + e0) + aa * e1 * (2 * y1 + e1) + ea * (y1 + e1) ** 2
                     + ab_ * e2 * (2 * y2 + e2) + eb * (y2 + e2) ** 2
                     + self.gamma[5] * (1 + y0 * y0 + aa * y1 * y1 + ab_ * y2 * y2))
            out.append((v, (err_n / ad + 2 * (abs(num) + err_n) * err_d / (ad * ad)
                            + 2 * _U * abs(v)) * _OWN))
        return out

    def leaf_roots(self, squares, tabs):
        """The integer vectors kappa x3 with x3^2 = v that the floats leave.

        Returns [] when the floats prove there is none, None when they cannot
        decide (some V_s is within Delta_s of 0 and the norm leaves x3 != 0
        open, or a coordinate bound reaches 1/2), and otherwise the candidates:
        [0] * d alone where the norm proves x3 = 0, else one vector per sign
        pattern that the floats admit, followed by its negative, the signs
        fixed positive at place 0 and the other places running through (+, -)
        lexicographically.  A candidate still needs the exact check x3^2 = v.

        Some V_s + Delta_s < 0 means v is negative at s, and V_0 - Delta_0 above
        boxes[3][0]^2 means x3 fails the radius cut (the box bounds |x3| for
        every element within the radius).  Where some V_s is within Delta_s
        of 0, the norm decides: y = kappa x3 lies in Z[theta] = O_K, and y != 0
        has N(y)^2 = prod_s sigma_s(y)^2 >= 1 with sigma_s(y)^2 <= kappa^2
        (V_s + Delta_s).  The product of these non-negative factors in floats
        takes at most 3d + 1 roundings, so times _OWN it bounds the real one,
        and below 1 it leaves x3 = 0 alone.  Otherwise every V_s > Delta_s, so
        v_s >= V_s - Delta_s > 0 and R = fl(sqrt(V)) has
        |R - sqrt(v)| <= |V - v| / (sqrt(V) + sqrt(v)) + u sqrt(V)
                      <= Delta / (sqrt(V) + sqrt(V - Delta)) + 2u R = rho,
        at most min(Delta/sqrt(V), sqrt(Delta)) + 2u R.  The root of a sign
        pattern sg has coordinates c_m = kappa sum_s E^-1[m][s] sg_s sqrt(v_s);
        the float C_m = kappa sum_s F[m][s] sg_s R_s, with F the float table of
        E^-1 within e_F, is within
        beta_m = kappa sum_s (|F| (rho_s + gamma_{d+1} R_s) + e_F (R_s + rho_s))
        of it (d products, d - 1 additions, the factor kappa).  With every
        beta_m < 1/2 at most one integer lies within beta_m of C_m, so a
        pattern with a coordinate farther than beta_m from every integer has
        no root in (1/kappa) Z[theta], and any other has only round(C).
        """
        if any(v + dv < 0 for v, dv in squares):
            return []
        if squares[0][0] - squares[0][1] > tabs.v0_max:
            return []
        if not all(v - dv > 0 for v, dv in squares):
            k2, norm_sq = float(self.kappa * self.kappa), 1.0
            for v, dv in squares:
                norm_sq *= k2 * (v + dv)
            return [[0] * self.d] if norm_sq * _OWN < 1 else None
        roots, rho = [], []
        for v, dv in squares:
            r = math.sqrt(v)
            roots.append(r)
            rho.append((dv / (r + math.sqrt(v - dv)) + 2 * _U * r) * _OWN)
        kappa, gamma = self.kappa, self.gamma[self.d + 1]
        beta = []
        for f_row, e_row in self.einv:
            acc = 0.0
            for f, e, r, p in zip(f_row, e_row, roots, rho):
                acc += abs(f) * (p + gamma * r) + e * (r + p)
            beta.append(kappa * acc * _OWN)
        if any(b >= 0.5 for b in beta):
            return None
        # F[m][s] R_s once per leaf; flipping its sign per pattern is exact
        terms = [[f * r for f, r in zip(f_row, roots)] for f_row, _e in self.einv]
        out = []
        for signs in itertools.product((1.0, -1.0), repeat=self.d - 1):
            cand = []
            for row, b in zip(terms, beta):
                acc = 0.0
                for t, sg in zip(row, (1.0,) + signs):
                    acc += sg * t
                c = kappa * acc
                k = round(c)
                if abs(c - k) > b:
                    break
                cand.append(k)
            else:
                out += [cand, [-k for k in cand]]
        return out

    def split_norm(self, x_places, target, tabs):
        """Floats lo <= ||x||_F^2 <= hi at the split place for the leaf's x.

        x0, x1, x2 are the walk's block values at place 0 (errors e_l =
        eps[l][0]); x3 = target / kappa is formed the same way, with the error
        (sum_m |t_m| |emb_f - theta^m| + gamma_{d+2} sum_m |t_m emb_f|) / kappa.
        Each of u, ub = X0 +- X1 R and v, q = X2 +- X3 R, with R the float of
        sqrt(a) at place 0 (within e_R), is within e_Y + R e_Z + e_R (|Z| + e_Z)
        + gamma_2 (|Y| + |Z R|) of its exact value; w = fl(B q) within |B| e_q +
        e_b (|q| + e_q) + 2u|w|.  A square P^2 is within e_P (2|P| + e_P) of the
        exact one, and the sum of the four squares adds gamma_4 times itself.
        """
        d, kappa, gamma = self.d, self.kappa, self.gamma
        acc = mag = tab = 0.0
        for t, f, e in zip(target, self.emb_f[0], self.emb_err_f[0]):
            acc += t * f
            mag += abs(t * f)
            tab += abs(t) * e
        x3 = acc / kappa
        e3 = (tab + gamma[d + 2] * mag) / kappa * _OWN
        x0, x1, x2 = x_places[0][0], x_places[1][0], x_places[2][0]
        e0, e1, e2 = tabs.eps[0][0], tabs.eps[1][0], tabs.eps[2][0]
        ra, era = self.ra0_mid, self.ra0_err
        parts = []
        for y, ey, z, ez in ((x0, e0, x1, e1), (x0, e0, -x1, e1),
                             (x2, e2, x3, e3), (x2, e2, -x3, e3)):
            p = y + z * ra
            parts.append((p, ey + ra * ez + era * (abs(z) + ez)
                          + gamma[2] * (abs(y) + abs(z * ra))))
        q, eq = parts.pop()
        b, eb = self.b_f[0], self.eb[0]
        w = b * q
        parts.append((w, abs(b) * eq + eb * (abs(q) + eq) + 2 * _U * abs(w)))
        total = 0.0
        err = 0.0
        for p, ep in parts:
            total += p * p
            err += ep * (2 * abs(p) + ep)
        err = (err + gamma[4] * total) * _OWN
        return math.nextafter(total - err, -math.inf), math.nextafter(total + err, math.inf)


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


def _mid_and_error(encl):
    """Float mids of enclosures and upper bounds on their distance to the truth."""
    mids = [float(x.mid) for x in encl]
    return mids, [_up(max(abs(Fraction(m) - x.lo), abs(Fraction(m) - x.hi)))
                  for m, x in zip(mids, encl)]


def _up(x) -> float:
    """The least float >= x."""
    return RatInterval.exact(x).as_floats()[1]


def _down(x) -> float:
    """The greatest float <= x."""
    return RatInterval.exact(x).as_floats()[0]
