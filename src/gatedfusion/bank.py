"""Per-segment feature banks: data model, file I/O, aggregation, synthesis.

A bank holds one row per video segment: the clip feature, a list of scored
per-frame detections (each carrying an already-extracted region feature),
and optional verb/noun labels.  A segment id is a non-empty ``str`` with
no character for which ``str.isspace()`` is true (so no line end, which
ends each id in a zip's ``ids`` member) and no lone surrogate.  In
memory a bank is the flat blocks that its file stores.  ``_validate`` is the
one check of their values, ids included: every ``FeatureBank`` runs it once,
as it is built, and then holds tuple ids and read-only blocks, so a changed
bank is built with ``dataclasses.replace``, which checks it again.  Rows are
only the input of ``FeatureBank.from_records``, which packs them straight
into the blocks, and the output of ``records`` views.

Aggregation turns the detections into a single object feature by keeping
the detections inside a frame window around the clip center, selecting the
top-K by score, and max pooling their features coordinatewise.
``bank_features``, the one aggregator, does it for every record at once:
each record's in-window detections form one row of a padded grid, records
grouped by the bit length of their count so that padding at most doubles
the cells, and each row is sorted and its top K pooled rank by rank.  The
tests keep the record-by-record chain as its reference.

A bank file is a zip of the blocks, one stored ``.npy`` member each, with
the header ints and the ids as UTF-8 lines, written and read by the zip
codec in ``errors`` that score tables share: ``save_feature_bank``
writes it byte-identically for equal banks, whole or not at all, and the
loader takes exactly that layout and no other.  Detections from elsewhere
enter as ``SegmentRecord`` rows through ``FeatureBank.from_records`` and
are saved with ``save_feature_bank``.
"""

from __future__ import annotations

import contextlib
import math
import re
import zlib
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ValidationError, _write_zip, read_input
from .tensor import l2_norm

__all__ = [
    "Detection",
    "SegmentRecord",
    "FeatureBank",
    "AggregationConfig",
    "SynthSpec",
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
PAIR_COUNT_THRESHOLD = 50  # bank_stats and scoring.prior_stats count pairs seen more often
# The blocks after ``ids`` and their dtypes: per record, then per detection
# in record order.  The packer builds them; _validate checks them.
_BLOCK_DTYPES = {name: np.dtype(dtype) for name, dtype in (
    ("clip", np.float64), ("centers", np.int64), ("labels", np.int64), ("counts", np.int64),
    ("frames", np.int64), ("scores", np.float64), ("features", np.float64))}
_BLOCKS = tuple(_BLOCK_DTYPES)
_INT64 = np.iinfo(np.int64)
_INT, _REAL = (int, np.integer), (int, float, np.integer, np.floating)
# No id holds a character for which str.isspace() is true (re's \s), line
# ends among them, or a lone surrogate, which UTF-8 cannot encode.
_NOT_IN_AN_ID = re.compile(r"[\s\ud800-\udfff]")


def segment_id_fault(seg_id) -> str | None:
    """Why ``seg_id`` cannot be a bank or score-table id, or None if it can."""
    if not (isinstance(seg_id, str) and seg_id and not _NOT_IN_AN_ID.search(seg_id)):
        return f"segment_id {seg_id!r} must be a non-empty str with no whitespace or lone surrogate"


def _id_fault(ids) -> tuple[int, str] | None:
    """The index and fault of the first of ``ids`` that breaks the id rule
    or repeats an earlier one, or None if every id can key a bank or table
    row.  All ids are checked at once; they are walked one by one only to
    name the first fault."""
    try:
        clean = not _NOT_IN_AN_ID.search("".join(ids)) and all(ids) and len(set(ids)) == len(ids)
    except TypeError:  # an id that is not a str
        clean = False
    if clean:
        return None
    seen: set[str] = set()
    for i, seg_id in enumerate(ids):
        if fault := segment_id_fault(seg_id):
            return i, fault
        if seg_id in seen:
            return i, f"duplicate segment_id {seg_id!r}"
        seen.add(seg_id)
    return None


def _int64(val, key: str, where: str = "") -> int:
    """``val``, the ``key`` field, an integer (not a bool) that fits the
    int64 blocks."""
    if not isinstance(val, _INT) or isinstance(val, bool):
        raise ValidationError(f"{where}{key!r} must be an integer, got {val!r}")
    if not _INT64.min <= val <= _INT64.max:
        raise ValidationError(f"{where}{key} {val} does not fit in int64")
    return val


def _check_header(header: dict) -> None:
    for key in _HEADER_KEYS:
        _int64(header[key], key)
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


def _finite_real(val) -> bool:
    """``val`` is a real number, not a bool, and finite as a float."""
    with contextlib.suppress(OverflowError):  # an int past float range
        return isinstance(val, _REAL) and not isinstance(val, bool) and math.isfinite(val)
    return False


def _score(val, what: str) -> float:
    with contextlib.suppress(OverflowError):  # an int past float range
        if isinstance(val, _REAL) and not isinstance(val, bool):
            return float(val)
    raise ValidationError(f"{what} score must be a number")


def _validate(bank: FeatureBank) -> None:
    """The bank invariants: the header, each block's dtype and shape, then
    the values (unique valid ids, finite features, scores in [0, 1], labels in
    [-1, vocab)).  A value fault names the first offending record, and in it
    the first offending field."""
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
    # Whole blocks are checked first.  Only a bank that fails them builds the
    # per-record fault masks, which find the first faulty record; the ids are
    # checked up to it.
    sizes = [bank.verb_vocab_size, bank.noun_vocab_size]
    bad_label = (bank.labels < _NO_LABEL) | (bank.labels >= sizes)
    score_ok = (bank.scores >= 0.0) & (bank.scores <= 1.0)
    first = n
    if not (np.isfinite(bank.features).all() and np.isfinite(bank.clip).all()
            and score_ok.all() and not bad_label.any()):
        bad_det = ~(np.isfinite(bank.features).all(axis=1) & score_ok)
        bad = ~np.isfinite(bank.clip).all(axis=1) | bad_label.any(axis=1)
        bad[np.searchsorted(ends, np.flatnonzero(bad_det), side="right")] = True
        first = int(np.argmax(bad))
    if id_fault := _id_fault(bank.ids[:first + 1]):
        raise ValidationError(id_fault[1])
    if first == n:
        return
    where = f"record {bank.ids[first]!r}"
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


@dataclass(frozen=True, eq=False)
class FeatureBank:
    """Record ``i`` is ``ids[i]``, ``clip[i]`` (``dim_v`` entries),
    ``centers[i]``, ``labels[i]`` = (verb, noun) with -1 for no label, and
    ``counts[i]`` detections.  The detections of all records, in record
    order, are ``frames``, ``scores`` and ``features`` rows (``dim_o``).
    Building a bank checks it and makes ``ids`` a tuple and every block
    read-only; ``dataclasses.replace`` builds a changed one."""

    dim_v: int
    dim_o: int
    verb_vocab_size: int
    noun_vocab_size: int
    ids: tuple[str, ...]
    clip: np.ndarray
    centers: np.ndarray
    labels: np.ndarray
    counts: np.ndarray
    frames: np.ndarray
    scores: np.ndarray
    features: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "ids", tuple(self.ids))  # frozen: set as the dataclass init does
        _validate(self)
        for name in _BLOCKS:
            getattr(self, name).flags.writeable = False

    @classmethod
    def from_records(cls, records: list[SegmentRecord], dim_v: int, dim_o: int,
                     verb_vocab_size: int, noun_vocab_size: int) -> FeatureBank:
        """The validated bank of ``SegmentRecord`` rows, each appended to
        the blocks in turn.  A row is checked here only for what the blocks
        cannot hold (the id rule, so the first faulty row is named; int64
        centers, frames and labels, none of them an explicit label below 0;
        real scores; flat vectors of the declared dims), and the bank built
        from the blocks checks the rest."""
        header = dict(dim_v=dim_v, dim_o=dim_o, verb_vocab_size=verb_vocab_size,
                      noun_vocab_size=noun_vocab_size)
        _check_header(header)
        ids, *columns = ([] for _ in range(1 + len(_BLOCKS)))
        clip, centers, labels, counts, frames, scores, features = columns
        for rec in records:
            if fault := segment_id_fault(rec.segment_id):
                raise ValidationError(fault)
            where = f"record {rec.segment_id!r}: "
            ids.append(rec.segment_id)
            clip.append(_vector(rec.clip_feature, dim_v, "dim_v", f"{where}clip_feature"))
            centers.append(_int64(rec.clip_center_frame, "center", where))
            start = len(frames)
            for j, det in enumerate(rec.detections):
                what = f"{where}detection {j}"
                frames.append(_int64(det.frame_index, "frame", f"{what}: "))
                scores.append(_score(det.score, what))
                features.append(_vector(det.feature, dim_o, "dim_o", f"{what} feature"))
            counts.append(len(frames) - start)
            pair = (rec.verb_label, rec.noun_label)
            labels.append([_NO_LABEL if label is None else _int64(label, key, where)
                           for key, label in zip(_LABEL_KEYS, pair)])
            for key, label in zip(_LABEL_KEYS, pair):
                if label is not None and label < 0:  # -1 stands for "no label" only as None
                    raise ValidationError(f"{where}{key} label {label} out of range "
                                          f"[0, {header[key + '_vocab_size']})")
        blocks = {name: np.array(column, dtype=dtype)
                  for (name, dtype), column in zip(_BLOCK_DTYPES.items(), columns)}
        for name, width in (("clip", dim_v), ("labels", 2), ("features", dim_o)):
            blocks[name] = blocks[name].reshape(-1, width)  # an empty column has no width
        return cls(**header, ids=ids, **blocks)

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


def bank_features(bank: FeatureBank, cfg: AggregationConfig) -> tuple[np.ndarray, np.ndarray]:
    """Clip features and aggregated object features of every record, as
    ``(records, dim_v)`` and ``(records, dim_o)`` row blocks.  A record's
    object row is the coordinatewise maximum of the features of its k
    highest-scoring detections within (window - 1) / 2 frames of its center,
    ties broken by frame, then by input position; with none it is zero.
    Each record's in-window detections are one row of a padded grid, sorted
    stably by (-score, frame), and the first k are max-pooled rank by rank
    with ``np.maximum(acc, next)``, so a tie between signed zeros resolves
    in score order."""
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
        buf = np.empty_like(acc)  # one gather buffer for every rank
        for rank in range(1, top.shape[1]):
            live = np.count_nonzero(m > rank)  # the rows that have this rank are a prefix
            # The indices are built above, so they are in range; "clip" lets take
            # write straight into out, where the default "raise" buffers.
            np.take(bank.features, top[:live, rank], axis=0, out=buf[:live], mode="clip")
            np.maximum(acc[:live], buf[:live], out=acc[:live])
        O[rows] = acc
    return bank.clip, O


# --- file format --------------------------------------------------------------


# A bank file is a zip of ``errors._write_zip``: the header ints, then one
# member per block in this order, named as here ("detections" holds the
# counts block), then the ids.
_ZIP_BLOCKS = {"clip": "clip", "features": "features", "frames": "frames", "scores": "scores",
               "detections": "counts", "centers": "centers", "labels": "labels"}
_ZIP_DTYPES = {name: _BLOCK_DTYPES[block] for name, block in _ZIP_BLOCKS.items()}


def save_feature_bank(bank: FeatureBank, path) -> None:
    """Write ``bank`` to ``path`` through ``errors.replacing`` as one zip:
    the header ints, ``_ZIP_BLOCKS`` and the ids in the ``np.savez`` layout,
    with fixed member timestamps, so equal banks give equal bytes and a
    failed save leaves the old file."""
    _write_zip(path, [getattr(bank, k) for k in _HEADER_KEYS],
               {name: getattr(bank, block) for name, block in _ZIP_BLOCKS.items()}, bank.ids)


def _bank_of(header: list[int], blocks: dict, ids: list[str]) -> FeatureBank:
    """The bank that the members of a bank zip hold."""
    return FeatureBank(**dict(zip(_HEADER_KEYS, header)), ids=ids,
                       **{block: blocks[name] for name, block in _ZIP_BLOCKS.items()})


def load_feature_bank(path) -> FeatureBank:
    """Load the zip ``save_feature_bank`` writes.  Any other file, and every
    fault, is a ValidationError naming the file."""
    return read_input(path, "bank", len(_HEADER_KEYS), lambda header: _ZIP_DTYPES, _bank_of)


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

    ``synth_generate`` draws every record in one fixed order through
    ``integers``, ``random`` and ``standard_normal`` and then computes the
    features once per bank on whole blocks; its bank is byte-identical to
    drawing each record through ``integers``, ``uniform`` and ``normal`` and
    computing it as it is drawn.
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
        for f in fields(self):  # annotations are strings here
            val = getattr(self, f.name)
            if f.type == "int" and type(val) is not int:  # type() also turns away bools
                raise ValidationError(f"{f.name} must be an integer, got {val!r}")
            if f.type == "float" and not _finite_real(val):
                raise ValidationError(f"{f.name} must be a finite real number, got {val!r}")
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
    blocks.  ``uniform(lo, hi)`` is drawn as ``lo + (hi - lo) * random()``,
    numpy's own formula on the same draw, and ``normal(size=d)`` as
    ``standard_normal(out=row)``, the same draws up to the sign of a zero,
    which the non-negative prototype added to each noise row or
    ``_unit_rows``' ``abs`` drops.  The arithmetic then runs once on whole
    blocks, in place, with each sum and product grouped as one record's
    would be (IEEE + and * are commutative), so the bank is byte for byte
    the one that computing each record as it is drawn gives (the reference
    the tests keep).  Raises
    ``ValidationError`` before any draw when the split name makes ids that
    break the id rule, or the blocks or the class prototype tables are too
    large to allocate."""
    if fault := segment_id_fault(f"{split}-00000"):  # each id is the split, "-" and digits
        raise ValidationError(f"split {split!r}: {fault}")
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
        verb_protos = np.empty((spec.verb_vocab, spec.dim_v))
        noun_protos = np.empty((spec.noun_vocab, spec.dim_o))
        noun_clip_protos = np.empty((spec.noun_vocab, spec.dim_v))
    except (MemoryError, ValueError, OverflowError):  # numpy: cannot allocate / array is too big
        raise ValidationError(
            f"a synthetic bank of {n} segments x {per} detections, dims "
            f"{spec.dim_v}/{spec.dim_o}, vocab {spec.verb_vocab}x{spec.noun_vocab}, "
            f"is too large to generate") from None

    # A standard normal draw is the N(0, 1) one up to the sign of a zero,
    # which _unit_rows drops.
    proto_rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    for protos_block in (verb_protos, noun_protos, noun_clip_protos):
        _unit_rows(proto_rng.standard_normal(out=protos_block))
    allowed_nouns = None
    if spec.pairs_per_verb > 0:
        allowed_nouns = np.array([sorted(proto_rng.choice(spec.noun_vocab,
                                                          size=spec.pairs_per_verb,
                                                          replace=False).tolist())
                                  for _ in range(spec.verb_vocab)], dtype=np.int64)
    noun_draw = spec.noun_vocab if allowed_nouns is None else spec.pairs_per_verb

    rng = np.random.default_rng(np.random.SeedSequence(
        [seed, 1, zlib.crc32(split.encode("utf-8"))]))
    # uniform and normal cost more per call than these (see the docstring).
    integers, random, standard_normal = rng.integers, rng.random, rng.standard_normal
    half, j = (spec.window - 1) // 2, spec.amplitude_jitter
    j_low = -float(j)  # uniform(-j, j) converts its bounds to float (j may be a numpy scalar)
    j_range = float(j) - j_low
    row = proto = decoy = 0
    for i in range(n):
        labels[i, 0] = integers(spec.verb_vocab)
        labels[i, 1] = integers(noun_draw)
        centers[i] = integers(100, 10_000)
        standard_normal(out=clip[i])
        if j > 0:
            # A Python-float power: numpy's vectorised power may round differently.
            amps[i] = 10.0 ** (j_low + j_range * random())
        for _ in range(S):
            offsets[row] = integers(-half, half + 1)
            scores[row] = 0.6 + (1.0 - 0.6) * random()
            standard_normal(out=features[row])
            row += 1
        for _ in range(spec.distractors):
            offsets[row] = integers(-half, half + 1)
            scores[row] = 0.0 + (0.4 - 0.0) * random()
            standard_normal(out=protos[proto])
            standard_normal(out=features[row])
            row, proto = row + 1, proto + 1
        for _ in range(spec.decoys):
            # High score but outside the window: punishes skipped windowing.
            offsets[row] = integers(0, 10)
            sides[decoy] = random()
            scores[row] = 0.8 + (1.0 - 0.8) * random()
            standard_normal(out=protos[proto])
            standard_normal(out=features[row])
            row, proto, decoy = row + 1, proto + 1, decoy + 1

    if allowed_nouns is not None:
        labels[:, 1] = allowed_nouns[labels[:, 0], labels[:, 1]]
    # |offset| <= 2**62 + 9 (SynthSpec.window) and centers are below 10,000,
    # so the int64 frames cannot wrap.
    offsets = offsets.reshape(n, per)
    offsets[:, per - spec.decoys:] += half + 1
    offsets[:, per - spec.decoys:] *= np.where(sides < 0.5, 1, -1).reshape(n, spec.decoys)
    offsets += centers[:, None]
    # An overflow, or a jitter so small that its mean factor is 0, leaves a
    # non-finite entry, which building the bank reports by record.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        clip *= spec.noise
        clip += verb_protos[labels[:, 0]]
        if spec.noun_in_clip > 0:
            nic = noun_clip_protos[labels[:, 1]]
            nic *= spec.noun_in_clip
            clip += nic
        if j > 0:  # normalized so the mean amplitude factor stays at `mismatch`
            amps /= (10.0 ** j - 10.0 ** -j) / (2.0 * j * np.log(10.0))
        amps *= spec.mismatch
        _unit_rows(protos)
        features *= spec.noise
        blocks = features.reshape(n, per, spec.dim_o)
        blocks[:, :S] += noun_protos[labels[:, 1], None]
        blocks[:, S:] += protos.reshape(n, n_proto, spec.dim_o)
        blocks *= amps[:, None, None]
    return FeatureBank(dim_v=spec.dim_v, dim_o=spec.dim_o, verb_vocab_size=spec.verb_vocab,
                       noun_vocab_size=spec.noun_vocab,
                       ids=[f"{split}-{i:05d}" for i in range(n)], clip=clip,
                       centers=centers, labels=labels, counts=np.full(n, per, dtype=np.int64),
                       frames=offsets.ravel(), scores=scores, features=features)


def bank_stats(bank: FeatureBank, cfg: AggregationConfig) -> dict:
    """Summary statistics under the given aggregation, with verb-noun
    co-occurrence counts against ``PAIR_COUNT_THRESHOLD``, as in
    ``scoring.prior_stats``.  ``amplitude_ratio`` is mean |o| / mean |v|
    over the aggregated features, the matching ``scalar`` divisor: given as
    ``--scale-divisor``, it brings the mean object amplitude to the mean
    clip one.  It is None when every clip feature is zero."""
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
        "pair_count_threshold": PAIR_COUNT_THRESHOLD,
        "pairs_above_threshold": int(np.count_nonzero(pair_counts > PAIR_COUNT_THRESHOLD)),
    }
