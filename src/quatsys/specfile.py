"""Line-oriented definition files for fields, algebras and orders.

Format (one directive per line, '#' comments allowed):

    name: hurwitz
    minpoly: 1 1 -2 -1            # monic integer coefficients, high to low
    quat: 0 1 0 | 0 1 0           # structure constants a | b over the power basis
    order: hurwitz                # built-in name, or  order: KAPPA | r ; r ; ...
                                  # with 4d rows of 4d integers separated by ';'

Elements print as (r_0, ..., r_{d-1}) with exact rationals; ideals print as
their Hermite-normal-form integer rows.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InputError
from .numfield import FieldElement, NumberField
from .orders import OrderLattice, hurwitz_order, standard_order, unflatten
from .quatalg import QuaternionAlgebra


def parse_spec_text(text: str) -> dict:
    field = None
    name = None
    minpoly = None
    quat_line = None
    order_line = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise InputError(f"malformed line: {raw!r}")
        key, value = (part.strip() for part in line.split(":", 1))
        if key == "name":
            name = value
        elif key == "minpoly":
            try:
                minpoly = [int(tok) for tok in value.split()]
            except ValueError as exc:
                raise InputError(f"bad minpoly coefficients: {value!r}") from exc
        elif key == "quat":
            quat_line = value
        elif key == "order":
            order_line = value
        else:
            raise InputError(f"unknown directive {key!r}")
    if minpoly is None:
        raise InputError("missing 'minpoly:' line")
    field = NumberField(minpoly, name=name)
    out = {"field": field}
    if quat_line is not None:
        out["algebra"] = _parse_quat(field, quat_line)
    if order_line is not None:
        if "algebra" not in out:
            raise InputError("an 'order:' line needs a 'quat:' line")
        out["order"] = _parse_order(out["algebra"], order_line)
    return out


def parse_spec_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    return parse_spec_text(text)


def _parse_quat(field: NumberField, value: str) -> QuaternionAlgebra:
    parts = value.split("|")
    if len(parts) != 2:
        raise InputError("quat line must be 'a_coeffs | b_coeffs'")
    coeffs = []
    for part in parts:
        try:
            vec = [int(tok) for tok in part.split()]
        except ValueError as exc:
            raise InputError(f"bad structure constant {part!r}") from exc
        if len(vec) != field.degree:
            raise InputError(f"structure constant needs {field.degree} coefficients")
        coeffs.append(field.element(vec))
    return QuaternionAlgebra(field, coeffs[0], coeffs[1])


def _parse_order(algebra: QuaternionAlgebra, value: str) -> OrderLattice:
    if value == "standard":
        return standard_order(algebra)
    if value == "hurwitz":
        return hurwitz_order(algebra)
    parts = value.split("|")
    if len(parts) != 2:
        raise InputError("order line is 'standard', 'hurwitz', or 'KAPPA | rows'")
    try:
        kappa = int(parts[0])
    except ValueError as exc:
        raise InputError(f"bad kappa {parts[0]!r}") from exc
    if kappa < 1:
        raise InputError(f"kappa must be a positive integer, got {kappa}")
    dim = 4 * algebra.field.degree
    rows = []
    for chunk in parts[1].split(";"):
        try:
            vec = [int(tok) for tok in chunk.split()]
        except ValueError as exc:
            raise InputError(f"bad order row {chunk.strip()!r}") from exc
        if len(vec) != dim:
            raise InputError(f"order rows need {dim} integers")
        rows.append(vec)
    if len(rows) != dim:
        raise InputError(f"order needs {dim} rows")
    gens = [unflatten(algebra, row, kappa) for row in rows]
    return OrderLattice(algebra, gens, name="custom")


def parse_element(field: NumberField, text: str) -> FieldElement:
    """Parse '(r0, r1, ...)' or a bare rational into a field element."""
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        text = text[1:-1]
    toks = [tok.strip() for tok in text.split(",") if tok.strip()]
    try:
        coords = [Fraction(tok) for tok in toks]
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad element {text!r}") from exc
    if len(coords) == 1:
        return field.from_rational(coords[0])
    if len(coords) != field.degree:
        raise InputError(f"element needs {field.degree} coordinates, got {len(coords)}")
    return field.element(coords)
