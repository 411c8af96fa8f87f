"""Torsion certificates for congruence groups via root-of-unity traces.

A non-central torsion element of the norm-one group generates a quadratic
extension by a root of unity x, and forces the congruence ideal to divide
the obstruction ideal <x + 1/x - 2>.  Working only with the real trace
value x + 1/x (never constructing the extension), the certifier:

* enumerates every torsion order n whose cosine trace 2*cos(2*pi/n) lies
  in K (all n with phi(n) <= 2d, tested exactly), once per field;
* forms each obstruction ideal and tests the divisibility it would impose;
  in a class-number-one field the stronger square-divisibility test
  applies (any violating ideal would contain a principal one with the
  same obstruction, forcing I^2 to divide it);
* short-circuits obstruction values that are units.

A "torsion-free" verdict is therefore a certificate that the congruence
group contains no non-central torsion; whether -1 belongs to it is a
separate exact membership query on the orders module.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import sympy

from .errors import InputError, PrecisionError
from .intervals import RatInterval
from .numfield import FieldElement, IdealHNF, NumberField
from .orders import OrderLattice
from .realroots import isolate_real_roots, refine_root

_T = sympy.Symbol("t")


def two_cos_minimal_poly(n: int) -> list:
    """Ascending integer coefficients of the minimal polynomial of 2*cos(2*pi/n)."""
    if n < 1:
        raise InputError("n must be positive")
    if n == 1:
        return [-2, 1]
    if n == 2:
        return [2, 1]
    cyc = sympy.Poly(sympy.cyclotomic_poly(n, _T), _T).all_coeffs()
    cyc = [int(c) for c in reversed(cyc)]  # ascending, degree phi(n), palindromic
    phi = len(cyc) - 1
    half = phi // 2
    # write x^k + x^-k as p_k(y), y = x + 1/x:  p_0 = 2, p_1 = y, p_k = y*p_{k-1} - p_{k-2}
    p_prev = [2]
    p_cur = [0, 1]
    out = _scale(cyc[half], [1])
    for k in range(1, half + 1):
        if k == 1:
            pk = p_cur
        else:
            pk = _sub(_shift_mul_y(p_cur), p_prev)
            p_prev, p_cur = p_cur, pk
        out = _add(out, _scale(cyc[half + k], pk))
    return [int(c) for c in out]


def _shift_mul_y(p):
    return [0] + list(p)


def _add(a, b):
    n = max(len(a), len(b))
    a = list(a) + [0] * (n - len(a))
    b = list(b) + [0] * (n - len(b))
    return [x + y for x, y in zip(a, b)]


def _sub(a, b):
    return _add(a, [-x for x in b])


def _scale(c, p):
    return [c * x for x in p]


def roots_in_field(field: NumberField, asc_coeffs) -> list:
    """All roots of a monic integer polynomial that lie in the field, exactly.

    Such roots are algebraic integers, hence have integer coordinates here.
    Every assignment of isolated real roots to the places goes through
    `NumberField.element_from_embeddings`, which proposes the one integer
    vector it admits, if any; exact evaluation of the polynomial verifies
    each proposal, so the output carries no numerical doubt.  Enclosures are
    refined to width 2^-bits for bits = 80, 160, ...; a placement still
    ambiguous at the last attempt raises PrecisionError, never an
    uncertified "no root".
    """
    real_roots = isolate_real_roots(asc_coeffs)
    if not real_roots:
        return []
    bits = 80
    for _ in range(6):
        try:
            found = _place_roots(field, asc_coeffs, real_roots, bits)
        except PrecisionError:
            bits *= 2
            continue
        return sorted(found.values(), key=lambda x: x.coords)
    raise PrecisionError("roots in the field undecided at maximal refinement")


def _place_roots(field, asc_coeffs, root_intervals, bits):
    width = Fraction(1, 2 ** bits)
    root_boxes = [RatInterval(*refine_root(asc_coeffs, lo, hi, width))
                  for lo, hi in root_intervals]
    found = {}
    for assign in itertools.product(root_boxes, repeat=field.degree):
        elem = field.element_from_embeddings(list(assign), 1, bits)
        if elem is not None and _eval_in_field(field, asc_coeffs, elem).is_zero():
            found[elem.coords] = elem
    return found


def _eval_in_field(field, asc_coeffs, x: FieldElement) -> FieldElement:
    acc = field.zero()
    for c in reversed(asc_coeffs):
        acc = acc * x + field.from_rational(c)
    return acc


def torsion_traces(field: NumberField) -> tuple:
    """(n, x) for every torsion order n with phi(n) <= 2d and every root x in K
    of the minimal polynomial of 2*cos(2*pi/n); by n, then by coordinates.

    Depends on the field alone, so it is computed once per field and kept on
    it; a `PrecisionError` from `roots_in_field` propagates and is not kept.
    """
    def build():
        bound = 2 * field.degree
        return tuple((n, x) for n in range(1, 2 * bound * bound + 3)
                     if sympy.totient(n) <= bound
                     for x in roots_in_field(field, two_cos_minimal_poly(n)))

    return field.cached("torsion_traces", build)


def candidate_orders(field: NumberField) -> list:
    """All torsion orders n with phi(n) <= 2d whose cosine trace lies in K."""
    return sorted({n for n, _x in torsion_traces(field)})


@dataclass
class ObstructionRecord:
    n: int
    trace_value: FieldElement
    unit_shortcircuit: bool
    obstruction_norm: int | None
    blocks: bool


@dataclass
class TorsionCertificate:
    ideal_norm: int
    strong_form: bool
    records: list
    torsion_free: bool
    blocking_orders: list

    def lines(self):
        out = [f"ideal_norm={self.ideal_norm}",
               f"strong_form={str(self.strong_form).lower()}"]
        for r in self.records:
            tag = "unit" if r.unit_shortcircuit else str(r.obstruction_norm)
            out.append(f"candidate_n={r.n} trace={r.trace_value} obstruction_norm={tag} "
                       f"blocks={str(r.blocks).lower()}")
        verdict = "torsion-free" if self.torsion_free else \
            f"possibly-torsion(n={','.join(map(str, self.blocking_orders))})"
        out.append(f"verdict={verdict}")
        return out


def certify_torsion_free(order: OrderLattice, ideal: IdealHNF,
                         principal: bool | None = None) -> TorsionCertificate:
    """Certificate that the level-I congruence group has no non-central torsion.

    `principal` overrides the strong (square-divisibility) form; by default
    it follows the field's class-number-one flag.
    """
    field = order.algebra.field
    if ideal.is_whole_ring():
        raise InputError("the improper ideal defines the full group; certificate undefined")
    strong = field.class_number_one if principal is None else bool(principal)
    i_sq = ideal * ideal
    records = []
    blocking = []
    for n, trace_value in torsion_traces(field):
        if n <= 2:
            continue  # x = 1 is not torsion, x = -1 is central: reported separately
        c = trace_value - field.from_rational(2)
        if c.is_zero():
            continue
        if abs(c.norm()) == 1:
            records.append(ObstructionRecord(n, trace_value, True, None, False))
            continue
        obstruction = IdealHNF.principal(field, c)
        if strong:
            blocks = i_sq.divides(obstruction)
        else:
            blocks = ideal.divides(obstruction)
        records.append(ObstructionRecord(n, trace_value, False,
                                         obstruction.norm, blocks))
        if blocks:
            blocking.append(n)
    return TorsionCertificate(
        ideal_norm=ideal.norm,
        strong_form=strong,
        records=records,
        torsion_free=not blocking,
        blocking_orders=sorted(set(blocking)),
    )
