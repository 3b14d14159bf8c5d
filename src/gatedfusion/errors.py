"""Exception types shared across the package, ``is_integer``,
``is_finite_real`` and ``check_fields``, the one value rule (types, ranges
and choices) of the config classes, ``write_json``, the strict encoder of
the JSON documents (checkpoints, manifests, reports, histories and stats),
``read_json``, the one JSON decoder, ``_regular_target``, the one place
that asks whether a save target is a regular file, for JSON documents and
zips alike, ``replacing``, which a bank, score table or prior is saved
through so that it reaches its file whole or not at all, ``_write_zip``
and ``_read_zip``, the one codec of the zip files (banks, score tables of
every space and priors), which reads back only the npy layout it writes and
is the only code that touches ``zipfile``, and ``read_input``, which reads
a bank, score table or prior: a zip, and no other file."""

import contextlib
import dataclasses
import io
import json
import math
import os
import stat
import warnings
import zipfile

import numpy as np


class ShapeError(ValueError):
    """Operand dimensions disagree with what an operation requires."""


class ValidationError(ValueError):
    """A file, record, or configuration violates a documented contract."""


def is_integer(val) -> bool:
    """``val`` is an ``int``, never a bool (numpy integers are not ints)."""
    return isinstance(val, int) and not isinstance(val, bool)


def is_finite_real(val) -> bool:
    """``val`` is an ``int`` or ``float`` (``np.float64`` is one, ``np.float32``
    is not), never a bool, and finite: an int past float range is not."""
    with contextlib.suppress(OverflowError):  # an int past float range
        return isinstance(val, (int, float)) and not isinstance(val, bool) and math.isfinite(val)
    return False


def check_fields(obj, rules: dict) -> None:
    """The value rule of the config dataclass ``obj``: in field order, each
    field annotated ``int`` (the type or its name) holds an integer, each
    ``float`` a finite real number and each ``str`` one of the tuple of
    choices its ``rules`` entry gives; then each other field in ``rules``
    lies in its closed ``(low, high)``, where a high of None is no upper
    bound.  The first fault is a ValidationError naming the field."""
    ranges = dict(rules)
    for f in dataclasses.fields(obj):
        val = getattr(obj, f.name)
        if f.type in (int, "int") and not is_integer(val):
            raise ValidationError(f"{f.name} must be an integer, got {val!r}")
        if f.type in (float, "float") and not is_finite_real(val):
            raise ValidationError(f"{f.name} must be a finite real number, got {val!r}")
        if f.type in (str, "str") and val not in (choices := ranges.pop(f.name)):
            raise ValidationError(f"{f.name} must be one of {choices}, got {val!r}")
    for name, (low, high) in ranges.items():
        val = getattr(obj, name)
        if not (low <= val and (high is None or val <= high)):
            span = f">= {low}" if high is None else f"in [{low}, {high}]"
            raise ValidationError(f"{name} must be {span}, got {val}")


def write_json(obj, path) -> None:
    """Write ``obj`` as strict JSON, one space of indent, and a final newline
    in place at ``path`` once ``_regular_target`` passes it.  The text is
    encoded first, so an object JSON cannot hold (a non-finite float among
    them: no ``NaN`` literal) raises ``ValidationError`` and leaves no file."""
    try:
        text = json.dumps(obj, allow_nan=False, indent=1) + "\n"
    except ValueError as exc:
        raise ValidationError(f"cannot write JSON: {exc}") from None
    _regular_target(path)
    with _open_new(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def read_json(path, fmt: str) -> dict:
    """The JSON object in the file at ``path``, once its ``format`` tag is
    ``fmt``.  Every file it refuses is a ValidationError naming it: bytes
    that are not UTF-8, text that is not JSON (among it nesting deeper than
    the interpreter's recursion limit, or an integer with more digits than
    Python converts), and any other document."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        obj = json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8: {exc}") from None
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise ValidationError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(obj, dict) or obj.get("format") != fmt:
        raise ValidationError(f"{path}: not a {fmt} file")
    return obj


def _regular_target(path) -> None:
    """Refuse a save target before any byte is written: one that exists and
    is not a regular file (a FIFO, a device such as ``/dev/stdout`` on a
    terminal or pipe, a directory), or one that is the same file as this
    process's stdout or stderr (``/dev/stdout`` or the log they are
    redirected to), which a save would overwrite.  Each is a
    ValidationError naming ``path``.  A target that does not exist, or a
    regular file named directly or through a symlink, passes."""
    try:
        st = os.stat(path)
    except FileNotFoundError:
        return
    if not stat.S_ISREG(st.st_mode):
        raise ValidationError(f"{path}: not a regular file")
    for fd, name in ((1, "stdout"), (2, "stderr")):
        try:
            held = os.fstat(fd)
        except OSError:  # a closed stream
            continue
        if os.path.samestat(st, held):
            raise ValidationError(f"{path}: is this process's {name}")


def _open_new(path, mode: str, **kwargs):
    """``open(path, mode)``, once the missing directories of ``path`` are made."""
    try:
        return open(path, mode, **kwargs)
    except FileNotFoundError:
        os.makedirs(os.path.dirname(os.path.realpath(path)), exist_ok=True)
        return open(path, mode, **kwargs)


@contextlib.contextmanager
def replacing(path):
    """A new binary file that reaches ``path`` whole or not at all: once
    ``_regular_target`` passes ``path``, it is written under a temporary
    name in its directory, made if missing, and renamed into place when the
    ``with`` block completes.  Every handle yielded can seek."""
    _regular_target(path)
    target = os.path.realpath(path)  # a symlink keeps naming the saved file
    # A temporary name of fixed length: any name the directory holds can be saved.
    tmp = os.path.join(os.path.dirname(target), f".{os.urandom(6).hex()}.tmp")
    fh = _open_new(tmp, "xb")  # an existing file of that name is not ours to remove
    try:
        with fh:
            yield fh
        os.replace(tmp, target)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


# A zip file of this codec holds one stored ``<name>.npy`` member per name:
# "header", a flat block of int64 header values, then the named blocks in
# their order, then "ids", the UTF-8 bytes of each id followed by "\n",
# which no id holds.  It is the ``np.savez`` layout, so ``np.load`` opens it.
_ZIP_MAGIC = b"PK\x03\x04"
_ZIP_EPOCH = (1980, 1, 1, 0, 0, 0)
# What zipfile and numpy raise on a zip that is truncated or corrupted (CRC,
# headers, unsupported or encrypted members, an offset that seeks before the
# start of the file, a declared size too large to allocate) or on an npy header
# that numpy cannot parse, and, as an error, the warning numpy gives when it
# repairs one (a damaged one here).
_ZIP_READ_ERRORS = (EOFError, ValueError, RuntimeError, NotImplementedError, MemoryError,
                    OSError, zipfile.BadZipFile, UserWarning)


def _write_zip(path, header: list[int], blocks: dict, ids: list[str]) -> None:
    """Write ``header``, the arrays of ``blocks`` in their order and ``ids``
    to ``path`` through ``replacing`` as one zip, each array in C order with
    fixed member timestamps, so equal inputs give equal bytes and a failed
    save leaves the old file."""
    members = {"header": np.array(header, dtype=np.int64), **blocks,
               "ids": np.frombuffer("".join(s + "\n" for s in ids).encode("utf-8"), np.uint8)}
    with replacing(path) as fh, zipfile.ZipFile(fh, "w") as zf:
        for name, array in members.items():
            array = np.asarray(array, order="C")
            info = zipfile.ZipInfo(name + ".npy", date_time=_ZIP_EPOCH)
            with zf.open(info, "w", force_zip64=True) as member:
                # np.lib.format.write_array's bytes; it copies a member of up
                # to 16 MiB whole before writing it, where this writes the
                # array's own buffer.
                np.lib.format.write_array_header_1_0(
                    member, np.lib.format.header_data_from_array_1_0(array))
                member.write(array)


def _read_member(zf, info, what: str, dtype: np.dtype) -> np.ndarray:
    """The array of the member ``info`` of the zip ``zf``, read with one
    ``read`` (zipfile checks its CRC-32) and viewed in place, read-only: what
    ``_write_zip`` writes, an npy 1.0 header of a C-ordered array of ``dtype``
    then exactly its bytes.  Any other member is a ValidationError naming it."""
    data = zf.read(info)
    npy = io.BytesIO(data)  # shares the bytes: no copy
    member = f"{what} member {info.filename}"
    if np.lib.format.read_magic(npy) != (1, 0):
        raise ValidationError(f"{member} is not an npy 1.0 array")
    shape, fortran_order, found = np.lib.format.read_array_header_1_0(npy)
    if found != dtype:
        raise ValidationError(f"{member} must be an array of {dtype}, got {found}")
    if fortran_order:
        raise ValidationError(f"{member} is not in C order")
    count, start = math.prod(shape), npy.tell()
    size, held = count * found.itemsize, len(data) - start
    if held != size:
        raise ValidationError(f"{member} {'has bytes after' if held > size else 'ends before'} "
                              "its array")
    return np.frombuffer(data, found, count, start).reshape(shape)  # a view of bytes: read-only


def _read_zip(path, fh, what: str, header_len: int, blocks, build):
    """``build(header, blocks, ids)`` of the zip ``fh`` read from ``path``:
    exactly the members ``_write_zip`` writes, in order, stored, each an
    array of its dtype with no byte after it, with a flat header of
    ``header_len`` values and ids that end with a newline.  The header is
    read first, and ``blocks(header values)`` gives the names and dtypes of
    the blocks between it and the ids.  Any fault, in the zip or raised by
    ``build``, is a ValidationError naming the file and ``what`` it should
    hold."""
    try:
        with warnings.catch_warnings(), zipfile.ZipFile(fh) as zf:
            warnings.simplefilter("error", UserWarning)
            infos = zf.infolist()
            names = [info.filename for info in infos]
            for info in infos:
                if info.compress_type != zipfile.ZIP_STORED:
                    raise ValidationError(f"{what} member {info.filename} is compressed")
            header = (_read_member(zf, infos[0], what, np.dtype(np.int64))
                      if names[:1] == ["header.npy"] else np.zeros(0, np.int64))
            dtypes = {**blocks(header.ravel().tolist()), "ids": np.dtype(np.uint8)}
            want = ["header.npy", *(name + ".npy" for name in dtypes)]
            if names != want:
                raise ValidationError(f"{what} members are {names}, not {want}")
            members = {name: _read_member(zf, info, what, dtype)
                       for (name, dtype), info in zip(dtypes.items(), infos[1:])}
        ids = members.pop("ids")
        if header.shape != (header_len,) or ids.ndim != 1:
            raise ValidationError(f"{what} header or ids member is not flat")
        ids = ids.tobytes().decode("utf-8").split("\n")
        if ids.pop():
            raise ValidationError(f"{what} ids member does not end with a newline")
        return build(header.tolist(), members, ids)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None
    except _ZIP_READ_ERRORS as exc:  # UnicodeDecodeError is a ValueError
        raise ValidationError(f"{path}: not a readable {what} zip: {exc}") from None


def read_input(path, what: str, header_len: int, blocks, build):
    """The bank, score table or prior in the file at ``path``, opened once
    and read by ``_read_zip``.  A file without the zip magic is a
    ValidationError, ``<path>: not a <what> zip``.  A regular file is read
    where it lies, any other (a pipe) once."""
    with open(path, "rb") as fh:
        src = fh if stat.S_ISREG(os.fstat(fh.fileno()).st_mode) else io.BytesIO(fh.read())
        if src.read(len(_ZIP_MAGIC)) != _ZIP_MAGIC:
            raise ValidationError(f"{path}: not a {what} zip")
        return _read_zip(path, src, what, header_len, blocks, build)
