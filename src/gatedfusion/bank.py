"""Per-segment feature banks: data model, file I/O, aggregation, synthesis.

A bank holds one row per video segment: the clip feature, a list of scored
per-frame detections (each carrying an already-extracted region feature),
and optional verb/noun labels.  In memory it is the flat blocks that the
binary sidecar below stores; ``FeatureBank.from_records`` packs
``SegmentRecord`` rows into them and ``FeatureBank.records`` views them as
read-only rows.

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

import hashlib
import itertools
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
    "banks_equal",
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
_NO_LABEL = -1
# The blocks after ``ids``: per record, then per detection in record order.
_BLOCKS = ("clip", "centers", "labels", "counts", "frames", "scores", "features")
_INT64 = np.iinfo(np.int64)
_INT, _REAL = (int, np.integer), (int, float, np.integer, np.floating)


def _all_of(types: tuple, values: list) -> bool:
    """Every value is an instance of ``types`` and none is a bool."""
    kinds = set(map(type, values))
    return bool not in kinds and all(issubclass(kind, types) for kind in kinds)


def _check_int64(val, what: str) -> None:
    """An integer (not a bool) that fits the int64 blocks."""
    if not _all_of(_INT, [val]):
        raise ValidationError(f"{what} must be an integer, got {val!r}")
    if not _INT64.min <= val <= _INT64.max:
        raise ValidationError(f"{what} {val} does not fit in int64")


def _check_header(header: dict) -> None:
    if header["dim_v"] < 1 or header["dim_o"] < 1:
        raise ValidationError(
            f"bank dims must be positive, got dim_v={header['dim_v']}, dim_o={header['dim_o']}")
    if header["verb_vocab_size"] < 1 or header["noun_vocab_size"] < 1:
        raise ValidationError(
            f"vocab sizes must be positive, got verbs={header['verb_vocab_size']}, "
            f"nouns={header['noun_vocab_size']}")
    for key, val in header.items():
        _check_int64(val, key)


def _check_records(records, header: dict) -> None:
    """The bank invariants one record at a time: raises ValidationError
    naming the first offending record."""
    seen: set[str] = set()
    for rec in records:
        if not isinstance(rec.segment_id, str):
            raise ValidationError(f"segment_id must be a string, got {rec.segment_id!r}")
        where = f"record {rec.segment_id!r}"
        if rec.segment_id in seen:
            raise ValidationError(f"duplicate segment_id {rec.segment_id!r}")
        seen.add(rec.segment_id)
        _check_int64(rec.clip_center_frame, f"{where}: center")
        if rec.clip_feature.shape != (header["dim_v"],):
            raise ValidationError(
                f"{where}: clip_feature has dim {rec.clip_feature.shape[0]}, "
                f"bank declares dim_v={header['dim_v']}")
        if not np.all(np.isfinite(rec.clip_feature)):
            raise ValidationError(f"{where}: clip_feature has non-finite entries")
        for j, det in enumerate(rec.detections):
            _check_int64(det.frame_index, f"{where}: detection {j} frame")
            if det.feature.shape != (header["dim_o"],):
                raise ValidationError(
                    f"{where}: detection {j} feature has dim {det.feature.shape[0]}, "
                    f"bank declares dim_o={header['dim_o']}")
            if not np.all(np.isfinite(det.feature)):
                raise ValidationError(f"{where}: detection {j} feature has non-finite entries")
            if not _all_of(_REAL, [det.score]):
                raise ValidationError(f"{where}: detection {j} score must be a number")
            if not 0.0 <= det.score <= 1.0:
                raise ValidationError(f"{where}: detection {j} score {det.score} outside [0, 1]")
        for space, label, size in (("verb", rec.verb_label, header["verb_vocab_size"]),
                                   ("noun", rec.noun_label, header["noun_vocab_size"])):
            if label is None:
                continue
            _check_int64(label, f"{where}: {space} label")
            if not 0 <= label < size:
                raise ValidationError(f"{where}: {space} label {label} out of range [0, {size})")


def _rows(vectors: list, dim: int) -> np.ndarray:
    """1-D vectors of ``dim`` entries stacked into a read-only float64 block."""
    block = np.array(vectors, dtype=np.float64) if vectors else np.zeros((0, dim))
    if block.shape != (len(vectors), dim):
        raise ValueError(f"rows of shape {block.shape[1:]}, expected ({dim},)")
    block.flags.writeable = False
    return block


def _pack(records: list[SegmentRecord], dim_v: int, dim_o: int) -> dict:
    """The ids and blocks of ``records``; raises when they cannot hold a field as given."""
    dets = [d for rec in records for d in rec.detections]
    centers, frames = [rec.clip_center_frame for rec in records], [d.frame_index for d in dets]
    labels = [(rec.verb_label, rec.noun_label) for rec in records]
    given = [label for pair in labels for label in pair if label is not None]
    scores = [d.score for d in dets]
    if not (_all_of(_INT, centers + frames + given) and _all_of(_REAL, scores)
            and min(given, default=0) >= 0):
        raise ValueError("a center, frame, label or score that the blocks cannot hold")
    return {"ids": [rec.segment_id for rec in records],
            "clip": _rows([rec.clip_feature for rec in records], dim_v),
            "centers": np.array(centers, dtype=np.int64),
            "labels": np.array([[_NO_LABEL if label is None else label for label in pair]
                                for pair in labels], dtype=np.int64).reshape(-1, 2),
            "counts": np.array([len(rec.detections) for rec in records], dtype=np.int64),
            "frames": np.array(frames, dtype=np.int64),
            "scores": np.array(scores, dtype=np.float64),
            "features": _rows([d.feature for d in dets], dim_o)}


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
        """The validated bank of ``SegmentRecord`` rows."""
        header = dict(dim_v=dim_v, dim_o=dim_o, verb_vocab_size=verb_vocab_size,
                      noun_vocab_size=noun_vocab_size)
        _check_header(header)
        try:
            bank = cls(**header, **_pack(records, dim_v, dim_o))
        except (TypeError, ValueError, OverflowError):
            _check_records(records, header)
            raise
        bank.validate()
        return bank

    @property
    def records(self) -> list[SegmentRecord]:
        """Read-only ``SegmentRecord`` views of the rows, built on each access."""
        dets = list(map(Detection, self.frames.tolist(), self.scores.tolist(), self.features))
        ends = np.cumsum(self.counts).tolist()
        labels = [[None if label == _NO_LABEL else label for label in pair]
                  for pair in self.labels.tolist()]
        return [SegmentRecord(seg_id, clip, center, dets[start:end], verb, noun)
                for seg_id, clip, center, start, end, (verb, noun) in zip(
                    self.ids, self.clip, self.centers.tolist(), [0] + ends, ends, labels)]

    def validate(self) -> None:
        """Enforce the bank invariants on whole blocks; when one fails, the
        per-record checks walk the rows and name the first offending record."""
        header = {key: getattr(self, key) for key in _HEADER_KEYS}
        _check_header(header)
        n, counts = len(self.ids), self.counts
        if counts.shape != (n,) or (counts < 0).any():
            raise ValidationError(f"bank needs {n} detection counts >= 0, one per id")
        d = int(counts.sum())
        for name, shape in (("clip", (n, self.dim_v)), ("centers", (n,)), ("labels", (n, 2)),
                            ("frames", (d,)), ("scores", (d,)), ("features", (d, self.dim_o))):
            if getattr(self, name).shape != shape:
                raise ValidationError(f"bank block {name!r} is not shaped {shape}")
        if not (all(isinstance(seg_id, str) for seg_id in self.ids)
                and len(set(self.ids)) == len(self.ids)
                and np.isfinite(self.clip).all() and np.isfinite(self.features).all()
                and ((self.scores >= 0.0) & (self.scores <= 1.0)).all()
                and (self.labels >= _NO_LABEL).all()
                and (self.labels < [self.verb_vocab_size, self.noun_vocab_size]).all()):
            _check_records(self.records, header)


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


def _record_to_json(rec: SegmentRecord) -> str:
    obj: dict = {
        "segment_id": rec.segment_id,
        "clip_feature": rec.clip_feature.tolist(),
        "center": rec.clip_center_frame,
        "detections": [
            {"frame": d.frame_index, "score": float(d.score), "feature": d.feature.tolist()}
            for d in rec.detections
        ],
    }
    if rec.verb_label is not None:
        obj["verb"] = rec.verb_label
    if rec.noun_label is not None:
        obj["noun"] = rec.noun_label
    return strict_json(obj, separators=(",", ":"))


# Sidecar members and their dtypes: the digest, the header ints, the bank's
# blocks ("detections" holds the counts), and the ids as UTF-32 code points
# with one length per id, so any str (lone surrogates, NULs) round-trips.
_SIDECAR_DTYPES = {
    "digest": np.dtype(np.uint8),
    "header": np.dtype(np.int64),
    "clip": np.dtype(np.float64),
    "features": np.dtype(np.float64),
    "frames": np.dtype(np.int64),
    "scores": np.dtype(np.float64),
    "detections": np.dtype(np.int64),
    "centers": np.dtype(np.int64),
    "labels": np.dtype(np.int64),
    "ids": np.dtype("<u4"),
    "id_lengths": np.dtype(np.int64),
}
# What np.load and zipfile raise on a sidecar that is missing, empty, not an
# npz (a bare .npy has no context manager), truncated or corrupted (CRC,
# headers, unsupported or encrypted members), missing a block, holding
# pickled objects, or declaring a block too large to allocate.
_SIDECAR_READ_ERRORS = (OSError, EOFError, KeyError, TypeError, ValueError, RuntimeError,
                        NotImplementedError, MemoryError, zipfile.BadZipFile)
_ZIP_EPOCH = (1980, 1, 1, 0, 0, 0)


def _sidecar_path(path) -> str:
    return os.fspath(path) + ".npz"


def _sidecar_blocks(bank: FeatureBank, digest: bytes) -> dict[str, np.ndarray]:
    # The ids as the JSON reads back: json.loads joins an escaped surrogate
    # pair into one character.
    ids = [json.loads(json.dumps(seg_id)).encode("utf-32-le", "surrogatepass")
           for seg_id in bank.ids]
    blocks = {name: getattr(bank, name) for name in _BLOCKS}
    blocks.update({
        "digest": np.frombuffer(digest, dtype=np.uint8),
        "header": [getattr(bank, k) for k in _HEADER_KEYS],
        "detections": bank.counts,
        "ids": np.frombuffer(b"".join(ids), dtype="<u4"),
        "id_lengths": [len(i) // 4 for i in ids],
    })
    return {name: np.asarray(blocks[name], dtype=dtype) for name, dtype in _SIDECAR_DTYPES.items()}


def _write_sidecar(blocks: dict[str, np.ndarray], path) -> None:
    """The ``np.savez`` layout (one stored ``<name>.npy`` member per block)
    with fixed member timestamps, so equal banks give equal bytes."""
    with zipfile.ZipFile(path, "w") as zf:
        for name, arr in blocks.items():
            info = zipfile.ZipInfo(name + ".npy", date_time=_ZIP_EPOCH)
            with zf.open(info, "w", force_zip64=True) as fh:
                np.lib.format.write_array(fh, arr, allow_pickle=False)


def save_feature_bank(bank: FeatureBank, path) -> None:
    """Write the JSON-lines bank, then its sidecar tagged with the SHA-256
    of the JSON bytes just written."""
    bank.validate()
    header = strict_json({k: getattr(bank, k) for k in _HEADER_KEYS}, separators=(",", ":"))
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for line in itertools.chain([header], map(_record_to_json, bank.records)):
            data = (line + "\n").encode("utf-8")
            digest.update(data)
            fh.write(data)
    _write_sidecar(_sidecar_blocks(bank, digest.digest()), _sidecar_path(path))


def _parse_int(obj: dict, key: str, where: str, optional: bool = False) -> int | None:
    if key not in obj:
        if optional:
            return None
        raise ValidationError(f"{where}: missing key {key!r}")
    val = obj[key]
    if not isinstance(val, int) or isinstance(val, bool):
        raise ValidationError(f"{where}: {key!r} must be an integer, got {val!r}")
    return val


def _load_sidecar(path, digest: bytes) -> FeatureBank | None:
    """The bank in ``path``'s sidecar when the sidecar was written for JSON
    bytes with this digest and its blocks are valid, else None.  The
    sidecar is derived data, so a failure to read it means "not usable" and
    the caller parses the JSON instead."""
    try:
        # np.load leaks the file it opened when a zip fails to open, so it gets a handle
        with open(_sidecar_path(path), "rb") as fh, np.load(fh, allow_pickle=False) as npz:
            if bytes(npz["digest"]) != digest:
                return None
            blocks = {name: npz[name] for name in _SIDECAR_DTYPES}
    except _SIDECAR_READ_ERRORS:
        return None
    if not all(isinstance(blocks[name], np.ndarray) and blocks[name].dtype == dtype
               for name, dtype in _SIDECAR_DTYPES.items()):
        return None
    header, id_lengths = blocks["header"], blocks["id_lengths"]
    if (header.shape != (len(_HEADER_KEYS),) or id_lengths.ndim != 1 or (id_lengths < 0).any()
            or blocks["ids"].shape != (int(id_lengths.sum()),)):
        return None
    ends = np.cumsum(id_lengths).tolist()
    blocks["counts"] = blocks["detections"]
    try:  # a bank that fails validation here fails the same way from its JSON
        text = blocks["ids"].tobytes().decode("utf-32-le", "surrogatepass")
        bank = FeatureBank(**dict(zip(_HEADER_KEYS, header.tolist())),
                           ids=[text[start:end] for start, end in zip([0] + ends, ends)],
                           **{name: blocks[name] for name in _BLOCKS})
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
    """The bank in the JSON bytes of ``path``, with line diagnostics."""
    lines = read_text(path, data).splitlines()
    if not lines or not lines[0].strip():
        raise ValidationError(f"{path}: missing header line")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: line 1: header is not valid JSON: {exc}") from None
    if not isinstance(header, dict):
        raise ValidationError(f"{path}: line 1: header must be an object")
    for key in _HEADER_KEYS:
        _parse_int(header, key, f"{path}: line 1")

    records: list[SegmentRecord] = []
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
        seg_id = obj.get("segment_id")
        if not isinstance(seg_id, str):
            raise ValidationError(f"{where}: segment_id must be a string")
        where = f"{where} (record {seg_id!r})"
        try:
            clip = np.array(obj.get("clip_feature", None), dtype=np.float64)
        except (TypeError, ValueError, OverflowError):  # OverflowError: an int past float range
            raise ValidationError(f"{where}: clip_feature must be an array of numbers") from None
        if clip.ndim != 1:
            raise ValidationError(f"{where}: clip_feature must be a flat array")
        center = _parse_int(obj, "center", where)
        dets_raw = obj.get("detections", [])
        if not isinstance(dets_raw, list):
            raise ValidationError(f"{where}: detections must be an array")
        detections = []
        for j, d in enumerate(dets_raw):
            if not isinstance(d, dict):
                raise ValidationError(f"{where}: detection {j} must be an object")
            frame = _parse_int(d, "frame", f"{where}: detection {j}")
            score = d.get("score")
            if not isinstance(score, (int, float)) or isinstance(score, bool):
                raise ValidationError(f"{where}: detection {j} score must be a number")
            try:
                feat = np.array(d.get("feature", None), dtype=np.float64)
            except (TypeError, ValueError, OverflowError):
                raise ValidationError(f"{where}: detection {j} feature must be an array of numbers") from None
            if feat.ndim != 1:
                raise ValidationError(f"{where}: detection {j} feature must be a flat array")
            detections.append(Detection(frame_index=frame, score=score, feature=feat))
        records.append(SegmentRecord(
            segment_id=seg_id,
            clip_feature=clip,
            clip_center_frame=center,
            detections=detections,
            verb_label=_parse_int(obj, "verb", where, optional=True),
            noun_label=_parse_int(obj, "noun", where, optional=True),
        ))

    return FeatureBank.from_records(records, **{k: header[k] for k in _HEADER_KEYS})


def banks_equal(a: FeatureBank, b: FeatureBank) -> bool:
    """Exact equality of two banks: header, ids and every block."""
    return ([getattr(a, k) for k in _HEADER_KEYS] == [getattr(b, k) for k in _HEADER_KEYS]
            and a.ids == b.ids
            and all(np.array_equal(getattr(a, name), getattr(b, name)) for name in _BLOCKS))


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


def _unit_prototypes(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    protos = np.abs(rng.normal(size=(count, dim)))
    norms = np.maximum(np.linalg.norm(protos, axis=1, keepdims=True), 1e-12)
    return protos / norms


def synth_generate(spec: SynthSpec, seed: int, split: str = "train") -> FeatureBank:
    """Deterministic synthetic bank.  Prototypes depend only on ``seed`` (and
    the dims/vocabs), so banks generated with the same seed but different
    ``split`` names share the same underlying task."""
    proto_rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    verb_protos = _unit_prototypes(proto_rng, spec.verb_vocab, spec.dim_v)
    noun_protos = _unit_prototypes(proto_rng, spec.noun_vocab, spec.dim_o)
    noun_clip_protos = _unit_prototypes(proto_rng, spec.noun_vocab, spec.dim_v)
    allowed_nouns = None
    if spec.pairs_per_verb > 0:
        allowed_nouns = [sorted(proto_rng.choice(spec.noun_vocab,
                                                 size=spec.pairs_per_verb,
                                                 replace=False).tolist())
                         for _ in range(spec.verb_vocab)]

    rng = np.random.default_rng(np.random.SeedSequence(
        [seed, 1, zlib.crc32(split.encode("utf-8"))]))

    half = (spec.window - 1) // 2
    records: list[SegmentRecord] = []
    for i in range(spec.n_segments):
        verb = int(rng.integers(spec.verb_vocab))
        if allowed_nouns is None:
            noun = int(rng.integers(spec.noun_vocab))
        else:
            noun = allowed_nouns[verb][int(rng.integers(spec.pairs_per_verb))]
        center = int(rng.integers(100, 10_000))
        clip = verb_protos[verb] + spec.noise * rng.normal(size=spec.dim_v)
        if spec.noun_in_clip > 0:
            clip = clip + spec.noun_in_clip * noun_clip_protos[noun]

        amp = spec.mismatch
        if spec.amplitude_jitter > 0:
            j = spec.amplitude_jitter
            # Normalized so the mean amplitude factor stays at `mismatch`.
            mean_factor = (10.0 ** j - 10.0 ** -j) / (2.0 * j * np.log(10.0))
            amp *= 10.0 ** rng.uniform(-j, j) / mean_factor
        detections: list[Detection] = []
        for _ in range(spec.signal_detections):
            frame = center + int(rng.integers(-half, half + 1))
            score = float(rng.uniform(0.6, 1.0))
            feat = amp * (noun_protos[noun] + spec.noise * rng.normal(size=spec.dim_o))
            detections.append(Detection(frame, score, feat))
        for _ in range(spec.distractors):
            frame = center + int(rng.integers(-half, half + 1))
            score = float(rng.uniform(0.0, 0.4))
            feat = amp * (_unit_prototypes(rng, 1, spec.dim_o)[0]
                          + spec.noise * rng.normal(size=spec.dim_o))
            detections.append(Detection(frame, score, feat))
        for _ in range(spec.decoys):
            # High score but outside the window: punishes skipped windowing.
            offset = half + 1 + int(rng.integers(0, 10))
            side = 1 if rng.uniform() < 0.5 else -1
            score = float(rng.uniform(0.8, 1.0))
            feat = amp * (_unit_prototypes(rng, 1, spec.dim_o)[0]
                          + spec.noise * rng.normal(size=spec.dim_o))
            detections.append(Detection(center + side * offset, score, feat))

        records.append(SegmentRecord(
            segment_id=f"{split}-{i:05d}",
            clip_feature=clip,
            clip_center_frame=center,
            detections=detections,
            verb_label=verb,
            noun_label=noun,
        ))

    return FeatureBank.from_records(records, dim_v=spec.dim_v, dim_o=spec.dim_o,
                                    verb_vocab_size=spec.verb_vocab,
                                    noun_vocab_size=spec.noun_vocab)


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
