"""Torsion certificates for congruence groups via root-of-unity traces.

A non-central torsion element of the norm-one group generates a quadratic
extension by a root of unity x, and forces the square of the congruence
ideal to divide the obstruction ideal <x + 1/x - 2>.  Working only with the
real trace value x + 1/x (never constructing the extension), the certifier:

* finds every cosine trace 2*cos(2*pi*k/n) in K, once per field, by
  Kronecker's theorem: they are exactly the integers of K whose conjugates
  all lie in [-2, 2], which one box walk over Z[theta] lists; the order n
  of each follows exactly from the recurrence for x^k + x^-k;
* forms each obstruction ideal once per field, and for each congruence
  ideal I tests whether I^2 divides it.  The square test holds for every
  field and every I: for gamma = 1 + delta in the level-I group,
  nrd gamma = 1 gives trd delta = -nrd delta, and locally delta lies in
  I*Q_p = pi Q_p, so nrd delta lies in I^2; hence I^2 | (t - 2) for the
  trace t of gamma;
* short-circuits obstruction values that are units.

A "torsion-free" verdict is therefore a certificate that the congruence
group contains no non-central torsion; whether -1 belongs to it is a
separate exact membership query on the orders module.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import InputError
from .numfield import FieldElement, IdealHNF, NumberField, compare_abs
from .orders import OrderLattice
from .realroots import isolate_real_roots, poly_eval


def roots_in_field(field: NumberField, asc_coeffs) -> list:
    """All roots in K of a monic integer polynomial, exactly, by coordinates.

    Such roots are algebraic integers, hence lie in Z[theta], and every
    conjugate of one is a real root of the polynomial.  So they lie in the
    box of `NumberField.box_walk` whose limit at every place is the largest
    |endpoint| of the isolated real roots; exact evaluation keeps each point
    of the box that is a root, so the output carries no numerical doubt.
    """
    real_roots = isolate_real_roots(asc_coeffs)
    if not real_roots:
        return []
    limit = max(max(abs(lo), abs(hi)) for lo, hi in real_roots)
    return [x for x in field.box_walk([limit] * field.degree)
            if poly_eval(asc_coeffs, x) == 0]


def torsion_traces(field: NumberField) -> tuple:
    """(n, t) for every cosine trace t = 2*cos(2*pi*k/n), gcd(k, n) = 1, in K;
    by n, then by coordinates.

    By Kronecker's theorem these are the integers of K with |sigma_s t| <= 2
    at every place, found by `NumberField.box_walk` with limit 2.  The order
    n is the least k >= 1 with s_k = 2, where s_0 = 2, s_1 = t and
    s_(k+1) = t s_k - s_(k-1), so s_k = x^k + x^-k for x + 1/x = t.
    Depends on the field alone, so it is computed once per field and kept on
    it, as are the obstruction ideals `certify_torsion_free` tests against;
    a `PrecisionError` from the walk propagates and neither is kept.
    """
    def build():
        d = field.degree
        found = [(_root_of_unity_order(t), t)
                 for t in field.box_walk([2] * d)
                 if all(compare_abs(t, 2, s) <= 0 for s in range(d))]
        return tuple(sorted(found, key=lambda nt: (nt[0], nt[1].coords)))

    return field.cached("torsion_traces", build)


def _root_of_unity_order(t: FieldElement) -> int:
    prev, cur, k = t.field.from_rational(2), t, 1
    while cur != 2:
        prev, cur, k = cur, t * cur - prev, k + 1
    return k


def candidate_orders(field: NumberField) -> list:
    """All torsion orders n whose cosine trace lies in K."""
    return sorted({n for n, _x in torsion_traces(field)})


class ObstructionRecord(NamedTuple):
    n: int
    trace_value: FieldElement
    unit_shortcircuit: bool
    obstruction_norm: int | None
    blocks: bool


class TorsionCertificate(NamedTuple):
    ideal_norm: int
    records: list
    torsion_free: bool
    blocking_orders: list

    def lines(self):
        # strong_form names the square-divisibility test, which every certificate uses
        out = [f"ideal_norm={self.ideal_norm}", "strong_form=true"]
        for r in self.records:
            tag = "unit" if r.unit_shortcircuit else str(r.obstruction_norm)
            out.append(f"candidate_n={r.n} trace={r.trace_value} obstruction_norm={tag} "
                       f"blocks={str(r.blocks).lower()}")
        verdict = "torsion-free" if self.torsion_free else \
            f"possibly-torsion(n={','.join(map(str, self.blocking_orders))})"
        out.append(f"verdict={verdict}")
        return out


def certify_torsion_free(order: OrderLattice, ideal: IdealHNF) -> TorsionCertificate:
    """Certificate that the level-I congruence group has no non-central torsion.

    A torsion element gamma of order n > 2 has trace t = x + 1/x for a
    primitive n-th root of unity x.  Write gamma = 1 + delta with delta in
    I*Q.  nrd gamma = 1 gives trd delta = -nrd delta.  At each prime p of K,
    I*Q_p = pi Q_p for a local generator pi of I, as I is central and
    locally principal; so nrd delta lies in pi^2 O_K,p, hence in I^2.  Then
    t - 2 = trd delta lies in I^2: I^2 divides <t - 2>, for every field and
    every ideal, and a candidate n blocks only where it does.
    """
    field = order.algebra.field
    if ideal.is_whole_ring():
        raise InputError("the improper ideal defines the full group; certificate undefined")
    divisor = ideal * ideal
    records = []
    for n, trace_value, obstruction in _obstructions(field):
        unit = obstruction is None
        records.append(ObstructionRecord(n, trace_value, unit,
                                         None if unit else obstruction.norm,
                                         not unit and divisor.divides(obstruction)))
    blocking = sorted({r.n for r in records if r.blocks})
    return TorsionCertificate(
        ideal_norm=ideal.norm,
        records=records,
        torsion_free=not blocking,
        blocking_orders=blocking,
    )


def _obstructions(field: NumberField) -> tuple:
    """(n, t, <t - 2>) for each torsion trace of `torsion_traces` with n > 2
    (x = 1 is not torsion, x = -1 is central: reported separately), with
    None for <t - 2> when t - 2 is a unit; kept on the field."""
    def obstruction(c):
        return None if abs(c.norm()) == 1 else IdealHNF.principal(field, c)

    return field.cached("torsion_obstructions", lambda: tuple(
        (n, t, obstruction(t - 2)) for n, t in torsion_traces(field) if n > 2))
