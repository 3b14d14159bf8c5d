"""Per-segment feature banks: data model, file I/O, aggregation, synthesis.

A bank holds one record per video segment: the clip feature, a list of
scored per-frame detections (each carrying an already-extracted region
feature), and optional verb/noun labels.  Aggregation turns the detections
into a single object feature by keeping the detections inside a frame
window around the clip center, selecting the top-K by score, and max
pooling their features coordinatewise.

The on-disk format is line-delimited JSON: a header line declaring the
feature dims and vocabulary sizes, then one record object per line.  Floats
are serialized with full round-trip precision, so save/load is lossless.

Saving also writes a derived binary sidecar, ``<bank>.npz``: the same
records as flat blocks, tagged with the SHA-256 of the JSON bytes.  Loading
reads the records from the sidecar only when that digest matches the JSON
it has just read; otherwise it parses the JSON.  Deleting the sidecar is
always safe.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import zipfile
import zlib
from collections import Counter
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


@dataclass(eq=False)
class SegmentRecord:
    segment_id: str
    clip_feature: np.ndarray
    clip_center_frame: int
    detections: list[Detection] = field(default_factory=list)
    verb_label: int | None = None
    noun_label: int | None = None


_INT64 = np.iinfo(np.int64)


def _check_int64(val, what: str) -> None:
    """An integer (not a bool) that fits the sidecar's int64 blocks."""
    if isinstance(val, bool) or not isinstance(val, (int, np.integer)):
        raise ValidationError(f"{what} must be an integer, got {val!r}")
    if not _INT64.min <= val <= _INT64.max:
        raise ValidationError(f"{what} {val} does not fit in int64")


_FINITE_CHUNK = 4096  # arrays joined per check: a few MB of temporaries, not a bank copy


def _all_finite(arrays: list[np.ndarray]) -> bool:
    """True when every entry of every array is finite; False also when the
    arrays cannot be joined into one block (e.g. mixed ranks)."""
    try:
        return all(np.isfinite(np.concatenate(arrays[i:i + _FINITE_CHUNK])).all()
                   for i in range(0, len(arrays), _FINITE_CHUNK))
    except (TypeError, ValueError):
        return False


@dataclass(eq=False)
class FeatureBank:
    records: list[SegmentRecord]
    dim_v: int
    dim_o: int
    verb_vocab_size: int
    noun_vocab_size: int

    def validate(self) -> None:
        """Enforce the bank invariants; raises ValidationError naming the
        first offending record."""
        if self.dim_v < 1 or self.dim_o < 1:
            raise ValidationError(f"bank dims must be positive, got dim_v={self.dim_v}, dim_o={self.dim_o}")
        if self.verb_vocab_size < 1 or self.noun_vocab_size < 1:
            raise ValidationError(
                f"vocab sizes must be positive, got verbs={self.verb_vocab_size}, nouns={self.noun_vocab_size}")
        for key in _HEADER_KEYS:
            _check_int64(getattr(self, key), key)
        # Finiteness is checked once per block; the scan below repeats it
        # per feature only when a block fails, to name the first offender.
        scan_finite = not (
            _all_finite([r.clip_feature for r in self.records])
            and _all_finite([d.feature for r in self.records for d in r.detections]))
        seen: set[str] = set()
        for rec in self.records:
            if not isinstance(rec.segment_id, str):
                raise ValidationError(f"segment_id must be a string, got {rec.segment_id!r}")
            where = f"record {rec.segment_id!r}"
            if rec.segment_id in seen:
                raise ValidationError(f"duplicate segment_id {rec.segment_id!r}")
            seen.add(rec.segment_id)
            _check_int64(rec.clip_center_frame, f"{where}: center")
            if rec.clip_feature.shape != (self.dim_v,):
                raise ValidationError(
                    f"{where}: clip_feature has dim {rec.clip_feature.shape[0]}, bank declares dim_v={self.dim_v}")
            if scan_finite and not np.all(np.isfinite(rec.clip_feature)):
                raise ValidationError(f"{where}: clip_feature has non-finite entries")
            for j, det in enumerate(rec.detections):
                _check_int64(det.frame_index, f"{where}: detection {j} frame")
                if det.feature.shape != (self.dim_o,):
                    raise ValidationError(
                        f"{where}: detection {j} feature has dim {det.feature.shape[0]}, "
                        f"bank declares dim_o={self.dim_o}")
                if scan_finite and not np.all(np.isfinite(det.feature)):
                    raise ValidationError(f"{where}: detection {j} feature has non-finite entries")
                if not 0.0 <= det.score <= 1.0:
                    raise ValidationError(
                        f"{where}: detection {j} score {det.score} outside [0, 1]")
            for space, label, size in (("verb", rec.verb_label, self.verb_vocab_size),
                                       ("noun", rec.noun_label, self.noun_vocab_size)):
                if label is None:
                    continue
                _check_int64(label, f"{where}: {space} label")
                if not 0 <= label < size:
                    raise ValidationError(
                        f"{where}: {space} label {label} out of range [0, {size})")


@dataclass(frozen=True)
class AggregationConfig:
    """Top-K count and (odd) context window width in frames."""

    k: int = 10
    window: int = 5

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValidationError(f"aggregation k must be >= 1, got {self.k}")
        if self.window < 1 or self.window % 2 == 0:
            raise ValidationError(f"window must be a positive odd integer, got {self.window}")


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
    ``(records, dim_v)`` and ``(records, dim_o)`` row blocks."""
    n = len(bank.records)
    V = np.array([r.clip_feature for r in bank.records], dtype=np.float64).reshape(n, bank.dim_v)
    O = np.array([aggregate_object_feature(r, cfg, bank.dim_o) for r in bank.records],
                 dtype=np.float64).reshape(n, bank.dim_o)
    return V, O


# --- file format --------------------------------------------------------------

_HEADER_KEYS = ("dim_v", "dim_o", "verb_vocab_size", "noun_vocab_size")


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


# Sidecar blocks and their dtypes.  Per record: clip features, detection
# count, center, (verb, noun) labels with -1 for none, id length; per
# detection: feature, frame, score.  Segment ids are stored as UTF-32 code
# points, so any str (lone surrogates, NULs) round-trips.
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
_NO_LABEL = -1
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
    recs = bank.records
    dets = [d for r in recs for d in r.detections]
    # The ids as the JSON reads back: json.loads joins an escaped surrogate
    # pair into one character.
    ids = [json.loads(json.dumps(r.segment_id)).encode("utf-32-le", "surrogatepass")
           for r in recs]
    labels = [[_NO_LABEL if label is None else label for label in (r.verb_label, r.noun_label)]
              for r in recs]
    blocks = {
        "digest": np.frombuffer(digest, dtype=np.uint8),
        "header": [getattr(bank, k) for k in _HEADER_KEYS],
        "clip": np.array([r.clip_feature for r in recs]).reshape(len(recs), bank.dim_v),
        "features": np.array([d.feature for d in dets]).reshape(len(dets), bank.dim_o),
        "frames": [d.frame_index for d in dets],
        "scores": [d.score for d in dets],
        "detections": [len(r.detections) for r in recs],
        "centers": [r.clip_center_frame for r in recs],
        "labels": np.array(labels, dtype=np.int64).reshape(len(recs), 2),
        "ids": np.frombuffer(b"".join(ids), dtype="<u4"),
        "id_lengths": [len(i) // 4 for i in ids],
    }
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
    bytes with this digest and its blocks are consistent, else None.  The
    sidecar is derived data, so a failure to read it means "not usable" and
    the caller parses the JSON instead."""
    try:
        with np.load(_sidecar_path(path), allow_pickle=False) as npz:
            if bytes(npz["digest"]) != digest:
                return None
            blocks = {name: npz[name] for name in _SIDECAR_DTYPES}
    except _SIDECAR_READ_ERRORS:
        return None
    if not all(isinstance(blocks[name], np.ndarray) and blocks[name].dtype == dtype
               for name, dtype in _SIDECAR_DTYPES.items()):
        return None
    header = blocks["header"]
    counts, id_lengths = blocks["detections"], blocks["id_lengths"]
    if (header.shape != (len(_HEADER_KEYS),) or counts.ndim != 1 or (counts < 0).any()
            or (id_lengths < 0).any()):
        return None
    dims = dict(zip(_HEADER_KEYS, header.tolist()))
    n, d = len(counts), int(counts.sum())
    shapes = {"clip": (n, dims["dim_v"]), "features": (d, dims["dim_o"]), "frames": (d,),
              "scores": (d,), "centers": (n,), "labels": (n, 2), "id_lengths": (n,),
              "ids": (int(id_lengths.sum()),)}
    if any(blocks[name].shape != shape for name, shape in shapes.items()):
        return None
    try:
        text = blocks["ids"].tobytes().decode("utf-32-le", "surrogatepass")
    except UnicodeDecodeError:
        return None

    # Features stay read-only, as on the JSON path; rows are views.
    for name in ("clip", "features"):
        blocks[name].flags.writeable = False
    detections = list(map(Detection, blocks["frames"].tolist(), blocks["scores"].tolist(),
                          blocks["features"]))
    id_ends, det_ends = np.cumsum(id_lengths).tolist(), np.cumsum(counts).tolist()
    ids = [text[start:end] for start, end in zip([0] + id_ends, id_ends)]
    dets = [detections[start:end] for start, end in zip([0] + det_ends, det_ends)]
    records = [SegmentRecord(segment_id=seg_id, clip_feature=clip, clip_center_frame=center,
                             detections=rec_dets,
                             verb_label=None if verb == _NO_LABEL else verb,
                             noun_label=None if noun == _NO_LABEL else noun)
               for seg_id, clip, center, rec_dets, (verb, noun) in zip(
                   ids, blocks["clip"], blocks["centers"].tolist(), dets,
                   blocks["labels"].tolist())]
    return FeatureBank(records=records, **dims)


def load_feature_bank(path) -> FeatureBank:
    """Load a bank file, rejecting invariant violations with line/record
    diagnostics.  The records come from the sidecar when its digest matches
    the JSON bytes read here, else from parsing the JSON; both paths end in
    the same validation."""
    with open(path, "rb") as fh:
        data = fh.read()
    bank = _load_sidecar(path, hashlib.sha256(data).digest())
    if bank is None:
        bank = _parse_bank(path, data)
    bank.validate()
    return bank


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
        except (TypeError, ValueError):
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
            except (TypeError, ValueError):
                raise ValidationError(f"{where}: detection {j} feature must be an array of numbers") from None
            if feat.ndim != 1:
                raise ValidationError(f"{where}: detection {j} feature must be a flat array")
            feat.flags.writeable = False
            detections.append(Detection(frame_index=frame, score=float(score), feature=feat))
        clip.flags.writeable = False
        records.append(SegmentRecord(
            segment_id=seg_id,
            clip_feature=clip,
            clip_center_frame=center,
            detections=detections,
            verb_label=_parse_int(obj, "verb", where, optional=True),
            noun_label=_parse_int(obj, "noun", where, optional=True),
        ))

    return FeatureBank(records=records, **{k: header[k] for k in _HEADER_KEYS})


def banks_equal(a: FeatureBank, b: FeatureBank) -> bool:
    """Exact (bitwise) equality of two banks."""
    if (a.dim_v, a.dim_o, a.verb_vocab_size, a.noun_vocab_size) != \
            (b.dim_v, b.dim_o, b.verb_vocab_size, b.noun_vocab_size):
        return False
    if len(a.records) != len(b.records):
        return False
    for ra, rb in zip(a.records, b.records):
        if (ra.segment_id, ra.clip_center_frame, ra.verb_label, ra.noun_label) != \
                (rb.segment_id, rb.clip_center_frame, rb.verb_label, rb.noun_label):
            return False
        if not np.array_equal(ra.clip_feature, rb.clip_feature):
            return False
        if len(ra.detections) != len(rb.detections):
            return False
        for da, db in zip(ra.detections, rb.detections):
            if (da.frame_index, da.score) != (db.frame_index, db.score):
                return False
            if not np.array_equal(da.feature, db.feature):
                return False
    return True


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
        if self.amplitude_jitter < 0:
            raise ValidationError(
                f"amplitude jitter must be >= 0, got {self.amplitude_jitter}")
        if self.noun_in_clip < 0:
            raise ValidationError(
                f"noun_in_clip must be >= 0, got {self.noun_in_clip}")
        if not 0 <= self.pairs_per_verb <= self.noun_vocab:
            raise ValidationError(
                f"pairs_per_verb must be in [0, {self.noun_vocab}], "
                f"got {self.pairs_per_verb}")
        if self.window < 1 or self.window % 2 == 0:
            raise ValidationError(f"window must be a positive odd integer, got {self.window}")


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

    bank = FeatureBank(records=records, dim_v=spec.dim_v, dim_o=spec.dim_o,
                       verb_vocab_size=spec.verb_vocab, noun_vocab_size=spec.noun_vocab)
    bank.validate()
    return bank


def bank_stats(bank: FeatureBank, cfg: AggregationConfig,
               pair_threshold: int = 50) -> dict:
    """Summary statistics, including the clip/object amplitude ratio under the
    given aggregation and verb-noun co-occurrence counts."""
    V, O = bank_features(bank, cfg)
    mean_clip = float(np.mean(l2_norm(V))) if bank.records else 0.0
    mean_obj = float(np.mean(l2_norm(O))) if bank.records else 0.0
    stats = {
        "records": len(bank.records),
        "dim_v": bank.dim_v,
        "dim_o": bank.dim_o,
        "verb_vocab_size": bank.verb_vocab_size,
        "noun_vocab_size": bank.noun_vocab_size,
        "verb_labeled": sum(1 for r in bank.records if r.verb_label is not None),
        "noun_labeled": sum(1 for r in bank.records if r.noun_label is not None),
        "detections_per_record_mean": float(np.mean([len(r.detections) for r in bank.records]))
        if bank.records else 0.0,
        "aggregation": {"k": cfg.k, "window": cfg.window},
        "mean_clip_amplitude": mean_clip,
        "mean_object_amplitude": mean_obj,
        "amplitude_ratio": (mean_obj / mean_clip) if mean_clip > 0 else None,
    }
    pairs = Counter((r.verb_label, r.noun_label) for r in bank.records
                    if r.verb_label is not None and r.noun_label is not None)
    stats["labeled_pairs"] = sum(pairs.values())
    stats["distinct_pairs"] = len(pairs)
    stats["pair_count_threshold"] = pair_threshold
    stats["pairs_above_threshold"] = sum(1 for c in pairs.values() if c > pair_threshold)
    return stats
