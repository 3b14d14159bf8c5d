"""Exception types shared across the package, the UTF-8 reader every text
loader uses, and the strict JSON encoder every writer uses."""

import json


class ShapeError(ValueError):
    """Operand dimensions disagree with what an operation requires."""


class ValidationError(ValueError):
    """A file, record, or configuration violates a documented contract."""


def read_text(path, data: bytes | None = None) -> str:
    """The UTF-8 text of the file at ``path``, read in text mode, or of
    ``data`` when its bytes are already read.  Bytes that are not UTF-8 are a
    ValidationError naming the file."""
    try:
        if data is None:
            with open(path, "r", encoding="utf-8") as fh:
                return fh.read()
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8: {exc}") from None


def strict_json(obj, **kwargs) -> str:
    """``json.dumps`` without the non-standard ``NaN``/``Infinity`` literals:
    a non-finite float is a ValidationError instead."""
    try:
        return json.dumps(obj, allow_nan=False, **kwargs)
    except ValueError as exc:
        raise ValidationError(f"cannot write JSON: {exc}") from None
