"""Per-segment feature banks: data model, file I/O, aggregation, synthesis.

A bank holds one row per video segment: the clip feature, a list of scored
per-frame detections (each carrying an already-extracted region feature),
and optional verb/noun labels.  In memory it is the flat blocks that the
binary sidecar below stores.  The JSON reader packs each record line
straight into them, the writer writes each line from one record's slices,
and ``FeatureBank.validate`` is the one check of their values.  Rows are
only the input of ``FeatureBank.from_records`` and the output of the
read-only ``FeatureBank.records`` view.

Aggregation turns the detections into a single object feature by keeping
the detections inside a frame window around the clip center, selecting the
top-K by score, and max pooling their features coordinatewise.
``bank_features`` does it for every record at once: each record's
in-window detections form one row of a padded grid, records grouped by the
bit length of their count so that padding at most doubles the cells, and
each row is sorted and its top K pooled rank by rank.  ``context_window``
-> ``select_top_k`` -> ``maxpool_features`` on one record is its
reference.

The on-disk format is line-delimited JSON: a header line declaring the
feature dims and vocabulary sizes, then one record object per line.  Floats
are serialized with full round-trip precision, so save/load is lossless.

Saving also writes a derived binary sidecar, ``<bank>.npz``: the bank's own
blocks, tagged with the SHA-256 of the JSON bytes.  Loading takes the blocks
from the sidecar only when that digest matches the JSON it has just read;
otherwise it parses the JSON.  Deleting the sidecar is always safe.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import zipfile
import zlib
from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError, ValidationError, read_text, strict_json
from .tensor import l2_norm

__all__ = [
    "Detection",
    "SegmentRecord",
    "FeatureBank",
    "AggregationConfig",
    "SynthSpec",
    "context_window",
    "select_top_k",
    "maxpool_features",
    "aggregate_object_feature",
    "bank_features",
    "load_feature_bank",
    "save_feature_bank",
    "synth_generate",
    "bank_stats",
]


@dataclass(frozen=True, eq=False)
class Detection:
    """One detected region: frame index, confidence score, region feature."""

    frame_index: int
    score: float
    feature: np.ndarray


@dataclass(frozen=True, eq=False)
class SegmentRecord:
    """One segment as a row, as ``FeatureBank.from_records`` takes it."""

    segment_id: str
    clip_feature: np.ndarray
    clip_center_frame: int
    detections: list[Detection] = field(default_factory=list)
    verb_label: int | None = None
    noun_label: int | None = None


_HEADER_KEYS = ("dim_v", "dim_o", "verb_vocab_size", "noun_vocab_size")
_LABEL_KEYS = ("verb", "noun")
_NO_LABEL = -1
# The blocks after ``ids`` and their dtypes: per record, then per detection
# in record order.  The packer builds them; validate() checks them.
_BLOCK_DTYPES = {name: np.dtype(dtype) for name, dtype in (
    ("clip", np.float64), ("centers", np.int64), ("labels", np.int64), ("counts", np.int64),
    ("frames", np.int64), ("scores", np.float64), ("features", np.float64))}
_BLOCKS = tuple(_BLOCK_DTYPES)
_INT64 = np.iinfo(np.int64)
_INT, _REAL = (int, np.integer), (int, float, np.integer, np.floating)


def _int64(obj: dict, key: str, where: str = "") -> int:
    """``obj[key]``, an integer (not a bool) that fits the int64 blocks."""
    if key not in obj:
        raise ValidationError(f"{where}missing key {key!r}")
    val = obj[key]
    if not isinstance(val, _INT) or isinstance(val, bool):
        raise ValidationError(f"{where}{key!r} must be an integer, got {val!r}")
    if not _INT64.min <= val <= _INT64.max:
        raise ValidationError(f"{where}{key} {val} does not fit in int64")
    return val


def _check_header(header: dict, where: str = "") -> None:
    for key in _HEADER_KEYS:
        _int64(header, key, where)
    if header["dim_v"] < 1 or header["dim_o"] < 1:
        raise ValidationError(
            f"bank dims must be positive, got dim_v={header['dim_v']}, dim_o={header['dim_o']}")
    if header["verb_vocab_size"] < 1 or header["noun_vocab_size"] < 1:
        raise ValidationError(
            f"vocab sizes must be positive, got verbs={header['verb_vocab_size']}, "
            f"nouns={header['noun_vocab_size']}")


def _vector(val, dim: int, dim_key: str, what: str) -> np.ndarray:
    """``val`` as a flat float64 vector of ``dim`` entries."""
    try:
        vec = np.asarray(val, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):  # OverflowError: an int past float range
        raise ValidationError(f"{what} must be an array of numbers") from None
    if vec.ndim != 1:
        raise ValidationError(f"{what} must be a flat array")
    if len(vec) != dim:
        raise ValidationError(f"{what} has dim {len(vec)}, bank declares {dim_key}={dim}")
    return vec


def _score(val, what: str) -> float:
    with contextlib.suppress(OverflowError):  # an int past float range
        if isinstance(val, _REAL) and not isinstance(val, bool):
            return float(val)
    raise ValidationError(f"{what} score must be a number")


def _pack(rows, header: dict, where: str = "") -> FeatureBank:
    """The validated bank of ``header`` (its faults prefixed by ``where``)
    and ``rows``: (line name or "", record object in the bank file's layout).
    A row is checked only for what the blocks cannot hold (a str id; int64
    centers, frames and labels, none of them an explicit label below 0; real
    scores; flat vectors of the declared dims) and appended to the blocks."""
    _check_header(header, where)
    lines, ids, *columns = ([] for _ in range(2 + len(_BLOCKS)))
    clip, centers, labels, counts, frames, scores, features = columns
    for line, obj in rows:
        seg_id = obj.get("segment_id")
        if not isinstance(seg_id, str):
            raise ValidationError(f"{line}segment_id must be a string")
        where = f"{line}record {seg_id!r}: "
        lines.append(line)
        ids.append(seg_id)
        clip.append(_vector(obj.get("clip_feature"), header["dim_v"], "dim_v",
                            f"{where}clip_feature"))
        centers.append(_int64(obj, "center", where))
        dets = obj.get("detections", [])
        if not isinstance(dets, list):
            raise ValidationError(f"{where}detections must be an array")
        for j, det in enumerate(dets):
            what = f"{where}detection {j}"
            if not isinstance(det, dict):
                raise ValidationError(f"{what} must be an object")
            frames.append(_int64(det, "frame", f"{what}: "))
            scores.append(_score(det.get("score"), what))
            features.append(_vector(det.get("feature"), header["dim_o"], "dim_o",
                                    f"{what} feature"))
        counts.append(len(dets))
        pair = [_int64(obj, key, where) if key in obj else _NO_LABEL for key in _LABEL_KEYS]
        for key, label in zip(_LABEL_KEYS, pair):
            if label < 0 and key in obj:  # -1 stands for "no label"
                raise ValidationError(f"{where}{key} label {label} out of range "
                                      f"[0, {header[key + '_vocab_size']})")
        labels.append(pair)
    blocks = {name: np.array(column, dtype=dtype)
              for (name, dtype), column in zip(_BLOCK_DTYPES.items(), columns)}
    for name, width in (("clip", header["dim_v"]), ("labels", 2), ("features", header["dim_o"])):
        blocks[name] = blocks[name].reshape(-1, width)  # an empty column has no width
    blocks["clip"].flags.writeable = blocks["features"].flags.writeable = False
    bank = FeatureBank(**{key: header[key] for key in _HEADER_KEYS}, ids=ids, **blocks)
    _validate(bank, lines)
    return bank


def _validate(bank: FeatureBank, lines: list[str]) -> None:
    """The bank invariants: the header, each block's dtype and shape, then
    the values (str unique ids, finite features, scores in [0, 1], labels in
    [-1, vocab)).  A value fault names the first offending record, after
    ``lines[i]`` for record ``i``, and in it the first offending field."""
    _check_header({key: getattr(bank, key) for key in _HEADER_KEYS})
    for name, dtype in _BLOCK_DTYPES.items():
        block = getattr(bank, name)
        if not isinstance(block, np.ndarray) or block.dtype != dtype:
            got = block.dtype if isinstance(block, np.ndarray) else type(block).__name__
            raise ValidationError(f"bank block {name!r} must be an array of {dtype}, got {got}")
    n, counts = len(bank.ids), bank.counts
    if counts.shape != (n,) or (counts < 0).any():
        raise ValidationError(f"bank needs {n} detection counts >= 0, one per id")
    ends = np.cumsum(counts)
    d = int(ends[-1]) if n else 0
    for name, shape in (("clip", (n, bank.dim_v)), ("centers", (n,)), ("labels", (n, 2)),
                        ("frames", (d,)), ("scores", (d,)), ("features", (d, bank.dim_o))):
        if getattr(bank, name).shape != shape:
            raise ValidationError(f"bank block {name!r} is not shaped {shape}")
    # Per-record fault masks find the first faulty record; the ids are checked up to it.
    sizes = [bank.verb_vocab_size, bank.noun_vocab_size]
    bad_label = (bank.labels < _NO_LABEL) | (bank.labels >= sizes)
    bad_det = ~(np.isfinite(bank.features).all(axis=1) & (bank.scores >= 0.0)
                & (bank.scores <= 1.0))
    bad = ~np.isfinite(bank.clip).all(axis=1) | bad_label.any(axis=1)
    bad[np.searchsorted(ends, np.flatnonzero(bad_det), side="right")] = True
    first = int(np.argmax(bad)) if bad.any() else n
    seen: set[str] = set()
    for line, seg_id in zip(lines, bank.ids[:first + 1]):
        if not isinstance(seg_id, str):
            raise ValidationError(f"{line}segment_id must be a string, got {seg_id!r}")
        if seg_id in seen:
            raise ValidationError(f"{line}duplicate segment_id {seg_id!r}")
        seen.add(seg_id)
    if first == n:
        return
    where = f"{lines[first]}record {bank.ids[first]!r}"
    if not np.isfinite(bank.clip[first]).all():
        raise ValidationError(f"{where}: clip_feature has non-finite entries")
    start = int(ends[first] - counts[first])
    for j in np.flatnonzero(bad_det[start:ends[first]])[:1].tolist():  # its first bad detection
        fault = ("feature has non-finite entries" if not np.isfinite(bank.features[start + j]).all()
                 else f"score {bank.scores[start + j]} outside [0, 1]")
        raise ValidationError(f"{where}: detection {j} {fault}")
    key = int(np.argmax(bad_label[first]))
    raise ValidationError(f"{where}: {_LABEL_KEYS[key]} label {bank.labels[first, key]} "
                          f"out of range [0, {sizes[key]})")


@dataclass(eq=False)
class FeatureBank:
    """Record ``i`` is ``ids[i]``, ``clip[i]`` (``dim_v`` entries),
    ``centers[i]``, ``labels[i]`` = (verb, noun) with -1 for no label, and
    ``counts[i]`` detections.  The detections of all records, in record
    order, are ``frames``, ``scores`` and ``features`` rows (``dim_o``)."""

    dim_v: int
    dim_o: int
    verb_vocab_size: int
    noun_vocab_size: int
    ids: list[str]
    clip: np.ndarray
    centers: np.ndarray
    labels: np.ndarray
    counts: np.ndarray
    frames: np.ndarray
    scores: np.ndarray
    features: np.ndarray

    @classmethod
    def from_records(cls, records: list[SegmentRecord], dim_v: int, dim_o: int,
                     verb_vocab_size: int, noun_vocab_size: int) -> FeatureBank:
        """The validated bank of ``SegmentRecord`` rows, packed as the
        record lines of a bank file are."""
        rows = (("", {"segment_id": rec.segment_id, "clip_feature": rec.clip_feature,
                      "center": rec.clip_center_frame,
                      "detections": [{"frame": d.frame_index, "score": d.score,
                                      "feature": d.feature} for d in rec.detections],
                      **{key: label for key, label in zip(_LABEL_KEYS, (
                          rec.verb_label, rec.noun_label)) if label is not None}})
                for rec in records)
        return _pack(rows, dict(dim_v=dim_v, dim_o=dim_o, verb_vocab_size=verb_vocab_size,
                                noun_vocab_size=noun_vocab_size))

    @property
    def records(self) -> list[SegmentRecord]:
        """Read-only ``SegmentRecord`` views of the rows.  Each access
        rebuilds every row, so take the list once rather than indexing
        ``bank.records`` in a loop."""
        dets = list(map(Detection, self.frames.tolist(), self.scores.tolist(), self.features))
        ends = np.cumsum(self.counts).tolist()
        labels = [[None if label == _NO_LABEL else label for label in pair]
                  for pair in self.labels.tolist()]
        return [SegmentRecord(seg_id, clip, center, dets[start:end], verb, noun)
                for seg_id, clip, center, start, end, (verb, noun) in zip(
                    self.ids, self.clip, self.centers.tolist(), [0] + ends, ends, labels)]

    def validate(self) -> None:
        """Enforce the bank invariants, naming the first offending record."""
        _validate(self, [""] * len(self.ids))


@dataclass(frozen=True)
class AggregationConfig:
    """Top-K count and (odd) context window width in frames."""

    k: int = 10
    window: int = 5

    def __post_init__(self) -> None:
        # type() also turns away bools, which isinstance(..., int) lets through
        if type(self.k) is not int or self.k < 1:
            raise ValidationError(f"aggregation k must be an integer >= 1, got {self.k!r}")
        if type(self.window) is not int or self.window < 1 or self.window % 2 == 0:
            raise ValidationError(f"window must be a positive odd integer, got {self.window!r}")


def context_window(record: SegmentRecord, cfg: AggregationConfig) -> list[Detection]:
    """Detections within (window-1)/2 frames of the clip center."""
    half = (cfg.window - 1) // 2
    center = record.clip_center_frame
    return [d for d in record.detections if abs(d.frame_index - center) <= half]


def select_top_k(detections: list[Detection], k: int) -> list[Detection]:
    """The k highest-scoring detections, descending by score.  Ties break by
    ascending (frame_index, input position), so the result is deterministic."""
    if k < 1:
        raise ValidationError(f"select_top_k: k must be >= 1, got {k}")
    order = sorted(range(len(detections)),
                   key=lambda i: (-detections[i].score, detections[i].frame_index, i))
    return [detections[i] for i in order[:k]]


def maxpool_features(detections: list[Detection], dim_o: int) -> np.ndarray:
    """Coordinatewise maximum of the detection features; zero vector if empty."""
    if not detections:
        return np.zeros(dim_o)
    out = detections[0].feature.astype(np.float64, copy=True)
    if out.shape != (dim_o,):
        raise ShapeError(f"maxpool: feature dim {out.shape[0]}, expected {dim_o}")
    for det in detections[1:]:
        if det.feature.shape != (dim_o,):
            raise ShapeError(f"maxpool: feature dim {det.feature.shape[0]}, expected {dim_o}")
        np.maximum(out, det.feature, out=out)
    return out


def aggregate_object_feature(record: SegmentRecord, cfg: AggregationConfig,
                             dim_o: int) -> np.ndarray:
    """window -> top-K -> max pool, the full aggregation chain."""
    return maxpool_features(select_top_k(context_window(record, cfg), cfg.k), dim_o)


def bank_features(bank: FeatureBank, cfg: AggregationConfig) -> tuple[np.ndarray, np.ndarray]:
    """Clip features and aggregated object features of every record, as
    ``(records, dim_v)`` and ``(records, dim_o)`` row blocks.  The object
    rows equal ``aggregate_object_feature`` bit for bit: each record's
    in-window detections are one row of a padded grid, sorted stably by
    (-score, frame), and the first k are max-pooled rank by rank with
    ``np.maximum(acc, next)``, the operand order of ``maxpool_features``."""
    n = len(bank.ids)
    owner = np.repeat(np.arange(n), bank.counts)
    # |frame - center| in uint64: flipping the sign bit maps int64 onto
    # uint64 in order, so the difference cannot wrap.
    frame, center = (x.view(np.uint64) ^ np.uint64(1 << 63)
                     for x in (bank.frames, bank.centers[owner]))
    half = np.uint64(min((cfg.window - 1) // 2, np.iinfo(np.uint64).max))
    kept = np.flatnonzero(np.maximum(frame, center) - np.minimum(frame, center) <= half)
    count = np.bincount(owner[kept], minlength=n)
    first = np.cumsum(count) - count  # record i keeps kept[first[i]:first[i] + count[i]]
    O = np.zeros((n, bank.dim_o))
    # One grid per bit length of the count, so no row is padded to twice its
    # count or more; a record with nothing kept stays 0.
    bits = np.frexp(count)[1]
    for b in np.unique(bits[count > 0]):
        rows = np.flatnonzero(bits == b)
        rows = rows[np.argsort(-count[rows])]  # longest first
        m = count[rows]
        cols = np.arange(m[0])
        cells = kept[first[rows, None] + np.minimum(cols, m[:, None] - 1)]
        # A +inf key sorts the pads last; the stable sort breaks ties by input position.
        order = np.lexsort((bank.frames[cells],
                            np.where(cols < m[:, None], -bank.scores[cells], np.inf)), axis=-1)
        top = np.take_along_axis(cells, order[:, :cfg.k], axis=-1)
        acc = bank.features[top[:, 0]]
        for rank in range(1, top.shape[1]):
            live = np.count_nonzero(m > rank)  # the rows that have this rank are a prefix
            np.maximum(acc[:live], bank.features[top[:live, rank]], out=acc[:live])
        O[rows] = acc
    return bank.clip, O


# --- file format --------------------------------------------------------------


# The sidecar members that are not bank blocks: the digest, the header ints,
# and the ids as UTF-32 code points with one length per id, so any str (lone
# surrogates, NULs) round-trips.
_SIDECAR_DTYPES = {"digest": np.dtype(np.uint8), "header": np.dtype(np.int64),
                   "ids": np.dtype("<u4"), "id_lengths": np.dtype(np.int64)}
# Every sidecar member, in file order; "detections" holds the counts block.
_SIDECAR_MEMBERS = ("digest", "header", "clip", "features", "frames", "scores", "detections",
                    "centers", "labels", "ids", "id_lengths")
# What np.load and zipfile raise on a sidecar that is missing, empty, not an
# npz (a bare .npy has no context manager), truncated or corrupted (CRC,
# headers, unsupported or encrypted members), missing a block, holding
# pickled objects, or declaring a block too large to allocate.
_SIDECAR_READ_ERRORS = (OSError, EOFError, KeyError, TypeError, ValueError, RuntimeError,
                        NotImplementedError, MemoryError, zipfile.BadZipFile)
_ZIP_EPOCH = (1980, 1, 1, 0, 0, 0)


def _write_sidecar(bank: FeatureBank, digest: bytes, path) -> None:
    """The sidecar in the ``np.savez`` layout (one stored ``<name>.npy``
    member each) with fixed member timestamps, so equal banks give equal
    bytes."""
    # The ids as the JSON reads back: json.loads joins an escaped surrogate
    # pair into one character.
    ids = [json.loads(json.dumps(seg_id)).encode("utf-32-le", "surrogatepass")
           for seg_id in bank.ids]
    members = {name: np.asarray(value, dtype=_SIDECAR_DTYPES[name]) for name, value in (
        ("digest", list(digest)), ("header", [getattr(bank, k) for k in _HEADER_KEYS]),
        ("ids", np.frombuffer(b"".join(ids), dtype="<u4")),
        ("id_lengths", [len(i) // 4 for i in ids]))}
    members.update({name: getattr(bank, name) for name in _BLOCKS}, detections=bank.counts)
    with zipfile.ZipFile(path, "w") as zf:
        for name in _SIDECAR_MEMBERS:
            info = zipfile.ZipInfo(name + ".npy", date_time=_ZIP_EPOCH)
            with zf.open(info, "w", force_zip64=True) as fh:
                np.lib.format.write_array(fh, members[name], allow_pickle=False)


def _json_lines(bank: FeatureBank):
    """The header line, then each record's line from its slices of the blocks
    (a whole block at once would hold every entry as a Python float)."""
    yield strict_json({k: getattr(bank, k) for k in _HEADER_KEYS}, separators=(",", ":"))
    ends = np.cumsum(bank.counts).tolist()
    for i, (seg_id, center, start, end, pair) in enumerate(zip(
            bank.ids, bank.centers.tolist(), [0] + ends, ends, bank.labels.tolist())):
        dets = zip(bank.frames[start:end].tolist(), bank.scores[start:end].tolist(),
                   bank.features[start:end].tolist())
        yield strict_json({
            "segment_id": seg_id, "clip_feature": bank.clip[i].tolist(), "center": center,
            "detections": [{"frame": frame, "score": score, "feature": feature}
                           for frame, score, feature in dets],
            **{key: label for key, label in zip(_LABEL_KEYS, pair) if label != _NO_LABEL},
        }, separators=(",", ":"))


def save_feature_bank(bank: FeatureBank, path) -> None:
    """Write the JSON-lines bank, then its sidecar tagged with the SHA-256
    of the JSON bytes just written."""
    bank.validate()
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for line in _json_lines(bank):
            data = (line + "\n").encode("utf-8")
            digest.update(data)
            fh.write(data)
    _write_sidecar(bank, digest.digest(), os.fspath(path) + ".npz")


def _load_sidecar(path, digest: bytes) -> FeatureBank | None:
    """The bank in ``path``'s sidecar when the sidecar was written for JSON
    bytes with this digest and its blocks are valid, else None.  The
    sidecar is derived data, so a failure to read it means "not usable" and
    the caller parses the JSON instead."""
    try:
        # np.load leaks the file it opened when a zip fails to open, so it gets a handle
        with open(os.fspath(path) + ".npz", "rb") as fh, np.load(fh, allow_pickle=False) as npz:
            if bytes(npz["digest"]) != digest:
                return None
            members = {name: npz[name] for name in _SIDECAR_MEMBERS}
    except _SIDECAR_READ_ERRORS:
        return None
    header, id_lengths = members["header"], members["id_lengths"]
    if not (all(isinstance(members[name], np.ndarray) and members[name].dtype == dtype
                for name, dtype in _SIDECAR_DTYPES.items())
            and header.shape == (len(_HEADER_KEYS),) and id_lengths.ndim == 1
            and (id_lengths >= 0).all() and members["ids"].shape == (int(id_lengths.sum()),)):
        return None
    ends = np.cumsum(id_lengths).tolist()
    members["counts"] = members["detections"]
    try:  # a bank that fails validation here fails the same way from its JSON
        text = members["ids"].tobytes().decode("utf-32-le", "surrogatepass")
        bank = FeatureBank(**dict(zip(_HEADER_KEYS, header.tolist())),
                           ids=[text[start:end] for start, end in zip([0] + ends, ends)],
                           **{name: members[name] for name in _BLOCKS})
        bank.validate()
    except (UnicodeDecodeError, ValidationError):
        return None
    bank.clip.flags.writeable = bank.features.flags.writeable = False  # as from_records
    return bank


def load_feature_bank(path) -> FeatureBank:
    """Load a bank file, rejecting invariant violations with line/record
    diagnostics.  The blocks come from the sidecar when its digest matches
    the JSON bytes read here and they validate, else from parsing the JSON."""
    with open(path, "rb") as fh:
        data = fh.read()
    bank = _load_sidecar(path, hashlib.sha256(data).digest())
    return bank if bank is not None else _parse_bank(path, data)


def _parse_bank(path, data: bytes) -> FeatureBank:
    """The bank in the JSON bytes of ``path``: each record line goes
    straight to the packer, and every fault names its line."""
    lines = read_text(path, data).splitlines()
    if not lines or not lines[0].strip():
        raise ValidationError(f"{path}: missing header line")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: line 1: header is not valid JSON: {exc}") from None
    if not isinstance(header, dict):
        raise ValidationError(f"{path}: line 1: header must be an object")

    def rows():
        for lineno, line in enumerate(lines[1:], start=2):
            if not line.strip():
                continue
            where = f"{path}: line {lineno}"
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValidationError(f"{where}: not valid JSON: {exc}") from None
            if not isinstance(obj, dict):
                raise ValidationError(f"{where}: record must be an object")
            yield f"{where}: ", obj

    return _pack(rows(), header, f"{path}: line 1: ")


# --- synthetic banks ----------------------------------------------------------

@dataclass(frozen=True)
class SynthSpec:
    """Generator parameters for desk-scale synthetic banks.

    Verb identity is written into the clip features and noun identity into
    the object features, so clip-only models can learn verbs but not nouns.
    Class prototypes are nonnegative unit vectors (the statistics of pooled
    post-ReLU activations).  Every object feature is multiplied by
    ``mismatch``, which widens the amplitude gap between the two modalities.

    Besides ``signal_detections`` informative boxes inside the window, each
    record gets low-score in-window distractors and high-score boxes placed
    outside the window; the latter pollute the aggregate only if windowing
    is skipped or too wide.

    ``amplitude_jitter`` spreads the per-record object amplitude over
    ``10**uniform(-j, j)`` around ``mismatch``.  A fixed mismatch can be
    undone by one global rescale; per-record jitter is what only the
    amplitude-matching scale mode repairs.

    ``noun_in_clip`` adds that multiple of a per-noun prototype to the clip
    feature, so part of the noun evidence sits in the weak-amplitude
    modality; a fusion that cannot hear the clip feature past a mismatched
    object feature is capped at the object-only ceiling.

    ``pairs_per_verb`` restricts each verb to that many nouns (0 keeps the
    labels independent).  Sparse co-occurrence is what makes the action
    prior informative instead of pure sampling noise.  The support map
    depends only on the seed, so train/val splits agree on it.

    ``synth_generate`` draws every record in one fixed order of
    ``Generator`` calls and then computes the features once per bank on
    whole blocks; its bank is byte-identical to computing each record as
    it is drawn.
    """

    n_segments: int
    dim_v: int = 16
    dim_o: int = 16
    verb_vocab: int = 10
    noun_vocab: int = 20
    signal_detections: int = 12
    distractors: int = 4
    decoys: int = 2
    noise: float = 0.05
    mismatch: float = 1.0
    amplitude_jitter: float = 0.0
    noun_in_clip: float = 0.0
    pairs_per_verb: int = 0
    window: int = 5

    def __post_init__(self) -> None:
        if self.n_segments < 1:
            raise ValidationError(f"n_segments must be >= 1, got {self.n_segments}")
        if self.dim_v < 1 or self.dim_o < 1:
            raise ValidationError("feature dims must be positive")
        if self.verb_vocab < 1 or self.noun_vocab < 1:
            raise ValidationError("vocab sizes must be positive")
        if self.signal_detections < 1:
            raise ValidationError("need at least one signal detection per segment")
        if self.distractors < 0 or self.decoys < 0:
            raise ValidationError("distractor/decoy counts must be >= 0")
        if self.noise < 0:
            raise ValidationError(f"noise must be >= 0, got {self.noise}")
        if not self.mismatch > 0:
            raise ValidationError(f"mismatch factor must be positive, got {self.mismatch}")
        if not 0 <= self.amplitude_jitter <= 308:  # 10.0 ** jitter must be finite
            raise ValidationError(
                f"amplitude jitter must be in [0, 308] decades, got {self.amplitude_jitter}")
        if self.noun_in_clip < 0:
            raise ValidationError(
                f"noun_in_clip must be >= 0, got {self.noun_in_clip}")
        if not 0 <= self.pairs_per_verb <= self.noun_vocab:
            raise ValidationError(
                f"pairs_per_verb must be in [0, {self.noun_vocab}], "
                f"got {self.pairs_per_verb}")
        if not 1 <= self.window <= _INT64.max or self.window % 2 == 0:  # frames are int64
            raise ValidationError(
                f"window must be a positive odd integer up to 2**63 - 1, got {self.window}")


def _unit_rows(block: np.ndarray) -> np.ndarray:
    """``block`` with each row replaced, in place, by its absolute values
    scaled to unit length (a zero row stays zero)."""
    np.abs(block, out=block)
    norms = np.linalg.norm(block, axis=1, keepdims=True)
    np.maximum(norms, 1e-12, out=norms)
    block /= norms
    return block


def synth_generate(spec: SynthSpec, seed: int, split: str = "train") -> FeatureBank:
    """Deterministic synthetic bank.  Prototypes depend only on ``seed`` (and
    the dims/vocabs), so banks generated with the same seed but different
    ``split`` names share the same underlying task.

    The loop only draws: per record it makes one fixed sequence of
    ``Generator`` calls (labels, center, clip noise, jitter, then each
    detection's frame, score, prototype and noise) into preallocated
    blocks.  The arithmetic then runs once on whole blocks, in place, with
    each sum and product grouped as one record's would be (IEEE + and * are
    commutative), so the bank is byte for byte the one that computing each
    record as it is drawn gives (the reference the tests keep).  Raises
    ``ValidationError`` before any draw when the blocks are too large to
    allocate."""
    S, n_proto = spec.signal_detections, spec.distractors + spec.decoys
    per, n = S + n_proto, spec.n_segments
    try:
        clip = np.empty((n, spec.dim_v))
        features = np.empty((n * per, spec.dim_o))
        protos = np.empty((n * n_proto, spec.dim_o))
        offsets = np.empty(n * per, dtype=np.int64)
        scores = np.empty(n * per)
        labels = np.empty((n, 2), dtype=np.int64)
        centers = np.empty(n, dtype=np.int64)
        amps = np.ones(n)
        sides = np.empty(n * spec.decoys)
    except (MemoryError, ValueError, OverflowError):  # numpy: cannot allocate / array is too big
        raise ValidationError(
            f"a synthetic bank of {n} segments x {per} detections, dims "
            f"{spec.dim_v}/{spec.dim_o}, is too large to generate") from None

    proto_rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    verb_protos = _unit_rows(proto_rng.normal(size=(spec.verb_vocab, spec.dim_v)))
    noun_protos = _unit_rows(proto_rng.normal(size=(spec.noun_vocab, spec.dim_o)))
    noun_clip_protos = _unit_rows(proto_rng.normal(size=(spec.noun_vocab, spec.dim_v)))
    allowed_nouns = None
    if spec.pairs_per_verb > 0:
        allowed_nouns = np.array([sorted(proto_rng.choice(spec.noun_vocab,
                                                          size=spec.pairs_per_verb,
                                                          replace=False).tolist())
                                  for _ in range(spec.verb_vocab)], dtype=np.int64)
    noun_draw = spec.noun_vocab if allowed_nouns is None else spec.pairs_per_verb

    rng = np.random.default_rng(np.random.SeedSequence(
        [seed, 1, zlib.crc32(split.encode("utf-8"))]))
    integers, uniform, normal = rng.integers, rng.uniform, rng.normal
    half, j = (spec.window - 1) // 2, spec.amplitude_jitter
    if j > 0:
        # Normalized so the mean amplitude factor stays at `mismatch`.
        mean_factor = (10.0 ** j - 10.0 ** -j) / (2.0 * j * np.log(10.0))
    row = proto = decoy = 0
    for i in range(n):
        labels[i, 0] = integers(spec.verb_vocab)
        labels[i, 1] = integers(noun_draw)
        centers[i] = integers(100, 10_000)
        clip[i] = normal(size=spec.dim_v)
        if j > 0:
            # A Python-float power: numpy's vectorised power may round differently.
            amps[i] = 10.0 ** uniform(-j, j) / mean_factor
        for _ in range(S):
            offsets[row] = integers(-half, half + 1)
            scores[row] = uniform(0.6, 1.0)
            features[row] = normal(size=spec.dim_o)
            row += 1
        for _ in range(spec.distractors):
            offsets[row] = integers(-half, half + 1)
            scores[row] = uniform(0.0, 0.4)
            protos[proto] = normal(size=(1, spec.dim_o))
            features[row] = normal(size=spec.dim_o)
            row, proto = row + 1, proto + 1
        for _ in range(spec.decoys):
            # High score but outside the window: punishes skipped windowing.
            offsets[row] = integers(0, 10)
            sides[decoy] = uniform()
            scores[row] = uniform(0.8, 1.0)
            protos[proto] = normal(size=(1, spec.dim_o))
            features[row] = normal(size=spec.dim_o)
            row, proto, decoy = row + 1, proto + 1, decoy + 1

    if allowed_nouns is not None:
        labels[:, 1] = allowed_nouns[labels[:, 0], labels[:, 1]]
    # |offset| <= 2**62 + 9 (SynthSpec.window) and centers are below 10,000,
    # so the int64 frames cannot wrap.
    offsets = offsets.reshape(n, per)
    offsets[:, per - spec.decoys:] += half + 1
    offsets[:, per - spec.decoys:] *= np.where(sides < 0.5, 1, -1).reshape(n, spec.decoys)
    offsets += centers[:, None]
    # An overflow leaves a non-finite entry, which validate() reports by record.
    with np.errstate(over="ignore", invalid="ignore"):
        clip *= spec.noise
        clip += verb_protos[labels[:, 0]]
        if spec.noun_in_clip > 0:
            nic = noun_clip_protos[labels[:, 1]]
            nic *= spec.noun_in_clip
            clip += nic
        amps *= spec.mismatch
        _unit_rows(protos)
        features *= spec.noise
        blocks = features.reshape(n, per, spec.dim_o)
        blocks[:, :S] += noun_protos[labels[:, 1], None]
        blocks[:, S:] += protos.reshape(n, n_proto, spec.dim_o)
        blocks *= amps[:, None, None]
    clip.flags.writeable = features.flags.writeable = False  # as from_records
    bank = FeatureBank(dim_v=spec.dim_v, dim_o=spec.dim_o, verb_vocab_size=spec.verb_vocab,
                       noun_vocab_size=spec.noun_vocab,
                       ids=[f"{split}-{i:05d}" for i in range(n)], clip=clip,
                       centers=centers, labels=labels, counts=np.full(n, per, dtype=np.int64),
                       frames=offsets.ravel(), scores=scores, features=features)
    bank.validate()
    return bank


def bank_stats(bank: FeatureBank, cfg: AggregationConfig,
               pair_threshold: int = 50) -> dict:
    """Summary statistics, including the clip/object amplitude ratio under the
    given aggregation and verb-noun co-occurrence counts."""
    V, O = bank_features(bank, cfg)
    n = len(bank.ids)
    labeled = bank.labels >= 0
    _, pair_counts = np.unique(bank.labels[labeled.all(axis=1)], axis=0, return_counts=True)
    mean_clip = float(np.mean(l2_norm(V))) if n else 0.0
    mean_obj = float(np.mean(l2_norm(O))) if n else 0.0
    return {
        "records": n,
        **{key: getattr(bank, key) for key in _HEADER_KEYS},
        "verb_labeled": int(labeled[:, 0].sum()),
        "noun_labeled": int(labeled[:, 1].sum()),
        "detections_per_record_mean": float(np.mean(bank.counts)) if n else 0.0,
        "aggregation": {"k": cfg.k, "window": cfg.window},
        "mean_clip_amplitude": mean_clip,
        "mean_object_amplitude": mean_obj,
        "amplitude_ratio": (mean_obj / mean_clip) if mean_clip > 0 else None,
        "labeled_pairs": int(pair_counts.sum()),
        "distinct_pairs": len(pair_counts),
        "pair_count_threshold": pair_threshold,
        "pairs_above_threshold": int(np.count_nonzero(pair_counts > pair_threshold)),
    }
