"""Exception types shared across the package, the UTF-8 reader every text
loader uses, the strict JSON encoder every writer uses, ``parse_json``, the
one JSON decoder every reader uses, the one codec of the JSON documents
(checkpoints, manifests, reports, histories and stats): ``write_json`` and
``read_json``, ``replacing``, which a bank, score table or prior is saved
through so that it reaches any target whole or not at all: the one place
that asks whether a save target is a regular file, and ``_write_zip`` and
``_read_zip``, the one codec of the zip files (banks and score tables of
every space) and the only code that touches ``zipfile``."""

import contextlib
import io
import json
import os
import stat
import sys
import warnings
import zipfile

import numpy as np


class ShapeError(ValueError):
    """Operand dimensions disagree with what an operation requires."""


class ValidationError(ValueError):
    """A file, record, or configuration violates a documented contract."""


def read_text(path, data: bytes | None = None) -> str:
    """The UTF-8 text of ``data``, or of the file at ``path`` read whole when
    ``data`` is None, with CRLF and a lone CR turned into LF, the one line
    end every reader splits at.  Bytes that are not UTF-8 are a
    ValidationError naming the file."""
    if data is None:
        with open(path, "rb") as fh:
            data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8: {exc}") from None
    if "\r" in text:  # most files hold none: skip two passes over the text
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


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


def parse_json(text: str, where: str, what: str = "not valid JSON"):
    """The value of the JSON ``text`` read at ``where`` (``path`` or ``path:
    line N``).  Every text the decoder refuses is a ValidationError that
    starts ``where: what:``: text that is not JSON, nesting deeper than the
    interpreter's recursion limit, or an integer with more digits than
    Python converts."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise ValidationError(f"{where}: {what}: {exc}") from None


def read_json(path, fmt: str) -> dict:
    """The JSON object in the file at ``path``, once its ``format`` tag is
    ``fmt``.  Text that is not JSON, or any other document, is a
    ValidationError naming the file."""
    obj = parse_json(read_text(path), path)
    if not isinstance(obj, dict) or obj.get("format") != fmt:
        raise ValidationError(f"{path}: not a {fmt} file")
    return obj


def _descriptor(path) -> int | None:
    """The descriptor ``N`` of this process that ``path`` names through
    ``/proc/self/fd/N`` (``/dev/stdout``, ``/dev/stderr``, ``/dev/fd/N``, or
    a symlink to one of them), or None for any other path."""
    fd_dir = os.path.realpath("/proc/self/fd")
    path = os.fsdecode(path)
    for _ in range(40):  # the kernel follows no longer chain of symlinks
        head, name = os.path.split(path)
        if name.isdigit() and os.path.realpath(head) == fd_dir:
            return int(name)
        if not os.path.islink(path):
            return None
        path = os.path.join(head, os.readlink(path))
    return None


@contextlib.contextmanager
def replacing(path):
    """A new binary file that reaches ``path`` whole or not at all.  A regular
    file (or none) is written under a temporary name in the same directory and
    renamed into place once the ``with`` block completes, so a failed save
    leaves the old file, or none.  A ``path`` that names a descriptor of this
    process (``/dev/stdout``, ``/dev/stderr``, ``/dev/fd/N``) is that
    descriptor, wherever it is redirected: once the block completes, Python's
    own stream for it is flushed and the bytes are written to it at its
    offset, so a log that stdout appends to keeps what came before and after.
    Any other ``path`` (a FIFO) is opened first, so a FIFO waits for its
    reader and a directory fails at once, and gets the bytes once the block
    completes.  Bytes for a target that is not a regular file are held in
    memory meanwhile.  Every handle yielded can seek."""
    fd = _descriptor(path)
    try:
        regular = fd is None and stat.S_ISREG(os.stat(path).st_mode)
    except FileNotFoundError:
        regular = True
    if not regular:
        with open(path if fd is None else fd, "wb", closefd=fd is None) as fh:
            buf = io.BytesIO()
            yield buf
            for stream in (sys.stdout, sys.stderr):  # what Python holds for fd goes first
                with contextlib.suppress(AttributeError, OSError, ValueError):  # no fileno
                    if stream.fileno() == fd:
                        stream.flush()
            fh.write(buf.getbuffer())
        return
    target = os.path.realpath(path)  # a symlink keeps naming the saved file
    # A temporary name of fixed length: any name the directory holds can be saved.
    tmp = os.path.join(os.path.dirname(target), f".{os.urandom(6).hex()}.tmp")
    fh = open(tmp, "xb")  # an existing file of that name is not ours to remove
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
# start of the file), on a member that holds pickled objects or declares an
# array too large to allocate, and, as an error, the warning numpy gives when
# it repairs a member header (a damaged one here).
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


def _read_zip(path, fh, what: str, header_len: int, dtypes: dict, build):
    """``build(header, blocks, ids)`` of the zip ``fh`` read from ``path``:
    exactly the members ``_write_zip`` writes for blocks of ``dtypes``, in
    order, stored, each an array of its dtype with no byte after it, with a
    flat header of ``header_len`` values and ids that end with a newline.
    Any fault, in the zip or raised by ``build``, is a ValidationError naming
    the file and ``what`` it should hold."""
    dtypes = {"header": np.dtype(np.int64), **dtypes, "ids": np.dtype(np.uint8)}
    try:
        with warnings.catch_warnings(), zipfile.ZipFile(fh) as zf:
            warnings.simplefilter("error", UserWarning)
            want = [name + ".npy" for name in dtypes]
            if zf.namelist() != want:
                raise ValidationError(f"{what} members are {zf.namelist()}, not {want}")
            members = {}
            for (name, dtype), info in zip(dtypes.items(), zf.infolist()):
                if info.compress_type != zipfile.ZIP_STORED:
                    raise ValidationError(f"{what} member {info.filename} is compressed")
                with zf.open(info) as member:
                    members[name] = np.lib.format.read_array(member, allow_pickle=False)
                    if member.read(1):
                        raise ValidationError(f"{what} member {info.filename} has bytes "
                                              f"after its array")
                if members[name].dtype != dtype:
                    raise ValidationError(f"{what} member {info.filename} must be an array of "
                                          f"{dtype}, got {members[name].dtype}")
        header, ids = members.pop("header"), members.pop("ids")
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
