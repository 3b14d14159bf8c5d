"""Exception types shared across the package, the UTF-8 reader every text
loader uses, the strict JSON encoder every writer uses, and the one codec of
the JSON documents (checkpoints, manifests, reports, histories and stats):
``write_json`` and ``read_json``."""

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


def write_json(obj, path) -> None:
    """Write ``obj`` to ``path`` as strict JSON, one space of indent, and a
    final newline.  The text is encoded before the file opens, so an object
    JSON cannot hold raises ``ValidationError`` and leaves no file."""
    text = strict_json(obj, indent=1) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def read_json(path, fmt: str) -> dict:
    """The JSON object in the file at ``path``, once its ``format`` tag is
    ``fmt``.  Text that is not JSON, or any other document, is a
    ValidationError naming the file."""
    try:
        obj = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(obj, dict) or obj.get("format") != fmt:
        raise ValidationError(f"{path}: not a {fmt} file")
    return obj
