"""Exception types shared across the package, and the strict JSON encoder
every writer uses."""

import json


class ShapeError(ValueError):
    """Operand dimensions disagree with what an operation requires."""


class ValidationError(ValueError):
    """A file, record, or configuration violates a documented contract."""


def strict_json(obj, **kwargs) -> str:
    """``json.dumps`` without the non-standard ``NaN``/``Infinity`` literals:
    a non-finite float is a ValidationError instead."""
    try:
        return json.dumps(obj, allow_nan=False, **kwargs)
    except ValueError as exc:
        raise ValidationError(f"cannot write JSON: {exc}") from None
