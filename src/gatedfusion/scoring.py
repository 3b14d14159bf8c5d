"""Verb-noun action scoring: co-occurrence prior, re-weighting, top-k
accuracy and score tables.

An action is a (verb, noun) pair.  The plain action score is the product of
the verb and noun probabilities; re-weighting multiplies in a prior mu(v, n)
built from training-set co-occurrence frequencies, so pairs never seen in
training score exactly zero and implausible combinations drop out of the
ranking.

Every accuracy counts from one ranking rule: ``label_ranks`` ranks each
row's true label once, and ``topk_report`` gives every k of a report from
those ranks.

A ``ScoreTable`` holds only ids that keep the bank's id rule and never
repeat, and finite scores, in every space, checked once as it is built, so
no table can be saved that would not load.
``save_score_table`` writes a table of every space as a zip of the bank's
codec (``errors._write_zip`` and ``errors._read_zip``).  A verb or noun
table may also be text, the format a user's own model can write, and
``load_score_table`` tells the two apart by the zip magic.
"""

from __future__ import annotations

import io
from dataclasses import InitVar, dataclass

import numpy as np

from .bank import PAIR_COUNT_THRESHOLD, FeatureBank, _id_fault
from .errors import (_ZIP_MAGIC, ValidationError, _read_zip, _write_zip, parse_json, read_text,
                     replacing)

__all__ = [
    "ActionPrior",
    "ScoreTable",
    "compute_prior",
    "prior_stats",
    "reweight_actions",
    "label_ranks",
    "topk_report",
    "table_labels",
    "score_actions_for_bank",
    "save_prior",
    "load_prior",
    "save_score_table",
    "load_score_table",
]

SCORE_SPACES = ("verb", "noun", "action")
_TOPK = (1, 5)  # the k of every top-k accuracy a report gives


@dataclass
class ActionPrior:
    """Dense verb x noun co-occurrence prior.  ``mu[v, n]`` is the relative
    frequency of the pair, 0 for pairs never observed; the vocab sizes are
    its shape.  ``counts`` keeps the raw tallies for reporting when the
    prior was counted from a bank.  ``mu`` is a 2-D float64 array, finite
    and >= 0, with a positive entry, and ``counts`` None or an int64 array
    of its shape: every prior that builds saves and loads back equal."""

    mu: np.ndarray
    counts: np.ndarray | None = None

    def __post_init__(self) -> None:
        mu, counts = self.mu, self.counts
        if not (isinstance(mu, np.ndarray) and mu.dtype == np.float64 and mu.ndim == 2
                and ((mu >= 0) & (mu < np.inf)).all() and mu.any()):  # NaN fails >= and <
            raise ValidationError("prior mu must be a 2-D float64 array, finite and >= 0, with "
                                  "a positive entry")
        if counts is not None and not (isinstance(counts, np.ndarray)
                                       and counts.dtype == np.int64 and counts.shape == mu.shape):
            raise ValidationError(f"prior counts must be None or an int64 array shaped {mu.shape}")


@dataclass
class ScoreTable:
    """Per-segment class scores: one aligned row per segment id.  The ids
    keep the bank's id rule and never repeat, as in a bank, and every score
    is finite: the one check of a table's rows.  A loader passes ``lines``,
    each row's file line (not stored), so a fault names its line."""

    segment_ids: list[str]
    scores: np.ndarray
    space: str
    verb_classes: int | None = None
    noun_classes: int | None = None
    lines: InitVar[list[int] | None] = None

    def __post_init__(self, lines: list[int] | None) -> None:
        if self.space not in SCORE_SPACES:
            raise ValidationError(f"score space {self.space!r} not one of {SCORE_SPACES}")
        if id_fault := _id_fault(self.segment_ids):
            i, fault, earlier = id_fault
            if lines is not None:
                fault = f"line {lines[i]}: " + (fault if earlier is None else (
                    f"segment id {self.segment_ids[i]!r} repeats line {lines[earlier]}"))
            raise ValidationError(fault)
        if self.scores.ndim != 2 or self.scores.shape[0] != len(self.segment_ids):
            raise ValidationError(
                f"score table: {len(self.segment_ids)} ids but scores shaped {self.scores.shape}")
        bad = ~np.isfinite(self.scores).all(axis=1)
        if bad.any():
            raise ValidationError("score table contains non-finite entries" if lines is None
                                  else f"line {lines[bad.argmax()]}: non-finite score")
        if self.space == "action":
            if self.verb_classes is None or self.noun_classes is None:
                raise ValidationError("action tables must declare verb_classes and noun_classes")
            for name in ("verb_classes", "noun_classes"):
                if getattr(self, name) < 1:
                    raise ValidationError(
                        f"action table: {name} must be >= 1, got {getattr(self, name)}")
            if self.verb_classes * self.noun_classes != self.scores.shape[1]:
                raise ValidationError(
                    f"action table: {self.verb_classes}x{self.noun_classes} pairs but "
                    f"{self.scores.shape[1]} columns")

    @property
    def classes(self) -> int:
        return self.scores.shape[1]


def _prior_matrix(verbs: int, nouns: int, dtype=np.float64) -> np.ndarray:
    """A zero (verbs x nouns) matrix: the one allocation of a dense prior.
    A vocab too large to allocate is a ValidationError naming it."""
    try:
        return np.zeros((verbs, nouns), dtype)
    except (MemoryError, ValueError):  # numpy: cannot allocate / array is too big
        raise ValidationError(
            f"vocab {verbs}x{nouns} is too large for a dense prior") from None


def compute_prior(bank: FeatureBank) -> ActionPrior:
    """Relative frequency of each (verb, noun) pair among fully labeled
    segments; unseen pairs have mu = 0."""
    pairs = bank.labels[(bank.labels >= 0).all(axis=1)]
    if not len(pairs):
        raise ValidationError("compute_prior: no segment carries both verb and noun labels")
    counts = _prior_matrix(bank.verb_vocab_size, bank.noun_vocab_size, np.int64)
    np.add.at(counts, (pairs[:, 0], pairs[:, 1]), 1)
    return ActionPrior(mu=counts / len(pairs), counts=counts)


def prior_stats(prior: ActionPrior) -> dict:
    counts = prior.counts if prior.counts is not None else np.zeros(prior.mu.shape, np.int64)
    return {
        "labeled_segments": int(counts.sum()),
        "distinct_pairs": int(np.count_nonzero(prior.mu)),
        "count_threshold": PAIR_COUNT_THRESHOLD,
        "pairs_above_threshold": int(np.count_nonzero(counts > PAIR_COUNT_THRESHOLD)),
    }


def reweight_actions(pv: np.ndarray, pn: np.ndarray, prior: ActionPrior) -> np.ndarray:
    """Action scores mu(v, n) * pv[v] * pn[n] over the last axis: a dense
    (verbs x nouns) matrix for one verb and one noun distribution, or a
    (B, verbs, nouns) stack for (B, verbs) and (B, nouns) row blocks.  Pairs
    outside the prior's support are exactly zero."""
    pv = np.asarray(pv, dtype=np.float64)
    pn = np.asarray(pn, dtype=np.float64)
    verbs, nouns = prior.mu.shape
    if pv.shape[-1:] != (verbs,):
        raise ValidationError(f"verb probabilities shaped {pv.shape}, prior expects {verbs} verbs")
    if pn.shape[-1:] != (nouns,):
        raise ValidationError(f"noun probabilities shaped {pn.shape}, prior expects {nouns} nouns")
    if pv.shape[:-1] != pn.shape[:-1]:
        raise ValidationError(
            f"verb and noun probabilities have {pv.shape[:-1]} vs {pn.shape[:-1]} rows")
    # The same two products, in the same order, as mu * pv * pn; the second
    # runs in place, so a block allocates one (B, verbs, nouns) array, not two.
    scores = prior.mu * pv[..., :, None]
    scores *= pn[..., None, :]
    return scores


def _check_aligned(ids: list[str], other: list[str], what: str) -> None:
    """Reject tables whose rows are not the same segments in the same order,
    naming the first differing row, else both lengths."""
    if ids == other:
        return
    for i, (a, b) in enumerate(zip(ids, other)):
        if a != b:
            raise ValidationError(f"{what} misaligned at row {i}: {a!r} vs {b!r}")
    raise ValidationError(f"{what} have {len(ids)} vs {len(other)} segments")


def label_ranks(scores: np.ndarray, labels) -> np.ndarray:
    """Per row of a (rows, classes) score block, the number of classes
    ranked ahead of the row's true label.

    Ranking is by descending score with ties broken by ascending class
    index, which is pessimistic for the true label: a label is in the top k
    when its rank is below k, so one tied at the k-th boundary counts only
    if its index wins the tie."""
    labels = np.asarray(labels, dtype=np.int64)
    rows, classes = scores.shape
    if labels.shape != (rows,):
        raise ValidationError(f"labels shaped {labels.shape} for {rows} rows")
    if labels.size and (labels.min() < 0 or labels.max() >= classes):
        bad = labels[(labels < 0) | (labels >= classes)][0]
        raise ValidationError(f"label {bad} out of range for {classes} classes")
    true = scores[np.arange(rows), labels][:, None]
    ahead = (scores > true) | ((scores == true) & (np.arange(classes) < labels[:, None]))
    return np.count_nonzero(ahead, axis=1)


def topk_report(scores: np.ndarray, labels) -> dict:
    """``{"top<k>": accuracy}`` of a (rows, classes) score block for every
    k a report gives, from one ranking of the true labels.  A block with no
    rows has no accuracy, and its report is empty."""
    ranks = label_ranks(scores, labels)
    if not len(ranks):
        return {}
    return {f"top{k}": np.count_nonzero(ranks < k) / len(ranks) for k in _TOPK}


def table_labels(table: ScoreTable, bank: FeatureBank) -> np.ndarray:
    """The (verb, noun) labels of the bank record with each row's segment
    id, as a (rows, 2) block.  The first row in table order whose segment is
    not in ``bank``, or lacks a label, is a ValidationError naming it."""
    rows = dict(zip(bank.ids, range(len(bank.ids))))
    index = np.array([rows.get(seg_id, -1) for seg_id in table.segment_ids], dtype=np.int64)
    # index -1 picks the appended unlabelled row, so a missing segment is faulty too
    labels = np.concatenate([bank.labels, np.full((1, 2), -1, np.int64)])[index]
    faulty = np.flatnonzero((labels < 0).any(axis=1))
    if faulty.size:
        row = faulty[0]
        fault = "not present in the bank" if index[row] < 0 else "lacks verb/noun labels"
        raise ValidationError(f"segment {table.segment_ids[row]!r} {fault}")
    return labels


def score_actions_for_bank(verb_table: ScoreTable, noun_table: ScoreTable, prior: ActionPrior,
                           bank: FeatureBank) -> tuple[ScoreTable, dict, np.ndarray]:
    """Per-segment action scores over the flattened verb x noun space,
    top-k accuracy with the prior and with mu replaced by all-ones (the
    plain ``pv * pn`` product), and the (rows, 2) verb and noun labels of
    the rows, joined from ``bank`` once."""
    if verb_table.space != "verb" or noun_table.space != "noun":
        raise ValidationError(
            f"expected a verb and a noun table, got {verb_table.space!r} and {noun_table.space!r}")
    _check_aligned(verb_table.segment_ids, noun_table.segment_ids, "verb/noun tables")
    verbs, nouns = prior.mu.shape
    if (verb_table.classes, noun_table.classes) != (verbs, nouns):
        raise ValidationError(
            f"tables are {verb_table.classes}x{noun_table.classes} classes but prior is "
            f"{verbs}x{nouns}")
    if (bank.verb_vocab_size, bank.noun_vocab_size) != (verbs, nouns):
        raise ValidationError(
            f"bank vocab {bank.verb_vocab_size}x{bank.noun_vocab_size} does not match prior "
            f"{verbs}x{nouns}")

    shape = (len(verb_table.segment_ids), verbs * nouns)
    pv, pn = (t.scores.astype(np.float64, copy=False) for t in (verb_table, noun_table))
    labels = table_labels(verb_table, bank)
    actions = labels[:, 0] * nouns + labels[:, 1]  # the verb-major action index
    # mu = 1 scales exactly, so this is the all-ones re-weighting, bit for bit.
    # It is ranked before the re-weighted block exists: one block at a time.
    plain = topk_report((pv[:, :, None] * pn[:, None, :]).reshape(shape), actions)
    reweighted_table = ScoreTable(scores=reweight_actions(pv, pn, prior).reshape(shape),
                                  segment_ids=list(verb_table.segment_ids), space="action",
                                  verb_classes=verbs, noun_classes=nouns)
    return reweighted_table, {"reweighted": topk_report(reweighted_table.scores, actions),
                              "plain": plain}, labels


# --- file formats ---------------------------------------------------------------

def save_prior(prior: ActionPrior, path) -> None:
    """One ``verb_id noun_id frequency`` line per nonzero entry of mu, in
    row-major order, written through ``errors.replacing``, so a failed save
    leaves the old file.  An ``ActionPrior``'s mu is finite, >= 0 and not all
    zero, so ``load_prior`` reads every file this writes back as an equal mu."""
    text ="".join(f"{v} {n} {float(prior.mu[v, n])!r}\n"
                   for v, n in np.argwhere(prior.mu).tolist())
    with replacing(path) as fh:
        fh.write(text.encode("utf-8"))


def load_prior(path, verb_vocab_size: int, noun_vocab_size: int) -> ActionPrior:
    """Parse a prior file into a dense prior over the given vocab, with each
    listed frequency at its pair and 0 elsewhere.  A negative or
    out-of-vocab id, a duplicate pair, or a frequency that is not finite and
    positive is rejected with its line.  The matrix is allocated only once
    every line has parsed, so a bad line is reported before a vocab too
    large for a dense prior.  A file listing every pair at 1.0 re-weights to
    the plain product."""
    freq: dict[tuple[int, int], float] = {}
    for lineno, line in enumerate(read_text(path).split("\n"), start=1):
        if not line.strip():
            continue
        where = f"{path}: line {lineno}"
        parts = line.split()
        if len(parts) != 3:
            raise ValidationError(
                f"{where}: expected 'verb noun frequency', got {line.strip()!r}")
        try:
            v, n, f = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError:
            raise ValidationError(f"{where}: malformed numbers") from None
        if (v, n) in freq:
            raise ValidationError(f"{where}: duplicate pair ({v}, {n})")
        if not 0 < f < np.inf:
            raise ValidationError(f"{where}: frequency {f!r} is not finite and positive")
        if v < 0 or n < 0:
            raise ValidationError(f"{where}: negative id in pair ({v}, {n})")
        if v >= verb_vocab_size or n >= noun_vocab_size:
            raise ValidationError(
                f"{where}: pair ({v}, {n}) out of range for vocab "
                f"{verb_vocab_size}x{noun_vocab_size}")
        freq[(v, n)] = f
    if not freq:
        raise ValidationError(f"{path}: prior file holds no pairs")
    mu = _prior_matrix(verb_vocab_size, noun_vocab_size)
    for (v, n), f in freq.items():
        mu[v, n] = f
    return ActionPrior(mu=mu)


def save_score_table(table: ScoreTable, path) -> None:
    """Save ``table`` as the zip of ``errors._write_zip``, through
    ``errors.replacing``, so a failed save leaves the old file: the header
    ``[verb_classes, noun_classes]``, where ``-1`` marks the axis a verb or
    noun table lacks, the float64 ``scores`` and the ids.  Equal tables give
    equal bytes, and a ``ScoreTable`` holds only ids that load, so every
    file this writes loads back as an equal table."""
    header = {"verb": [table.classes, -1], "noun": [-1, table.classes],
              "action": [table.verb_classes, table.noun_classes]}[table.space]
    _write_zip(path, header, {"scores": table.scores.astype(np.float64, copy=False)},
               table.segment_ids)


def _zip_table(header: list[int], blocks: dict, ids: list[str]) -> ScoreTable:
    """The table of a score-table zip's header, blocks and ids: ``[C, -1]``
    is a verb table and ``[-1, C]`` a noun table of ``C >= 0`` classes, and
    any other header an action table, which ``ScoreTable`` checks."""
    verbs, nouns = header
    scores = blocks["scores"]
    if nouns == -1 and verbs >= 0:
        space, classes = "verb", verbs
    elif verbs == -1 and nouns >= 0:
        space, classes = "noun", nouns
    else:
        return ScoreTable(ids, scores, "action", verbs, nouns)
    if scores.shape[1:] != (classes,):
        raise ValidationError(f"{space} table: header says {classes} classes but scores "
                              f"shaped {scores.shape}")
    return ScoreTable(ids, scores, space)


def _header_count(val) -> int:
    """A class count from a score table header: a JSON integer, never a
    float, string or bool."""
    if not isinstance(val, int) or isinstance(val, bool):
        raise TypeError(f"class count {val!r} is not an integer")
    return val


def load_score_table(path) -> ScoreTable:
    """Load a score table: a file that starts with the zip magic is exactly
    the zip of ``save_score_table``, and any fault in it is a ValidationError
    naming the file.  Any other file is a verb or noun table in text, each
    fault named with its line: a header line ``{"space": ..., "classes":
    C}``, then one ``segment_id score...`` line per row.  Reading finds what a
    line can get wrong: a malformed header, a header of the action space
    (an earlier build's text action table), a row of the wrong width or a
    score that is not a number.  ``ScoreTable`` then finds a repeated
    segment id, then a score that is not finite."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data.startswith(_ZIP_MAGIC):
        return _read_zip(path, io.BytesIO(data), "score table", 2,
                         {"scores": np.dtype(np.float64)}, _zip_table)
    lines = read_text(path, data).split("\n")
    if lines == [""]:
        raise ValidationError(f"{path}: empty score table file")
    try:
        header = parse_json(lines[0], f"{path}: line 1")
        space = header["space"]
        classes = _header_count(header["classes"])
        np.zeros((0, classes))  # a negative or oversized count raises here
    except (KeyError, TypeError, ValueError, OverflowError):  # a ValidationError is a ValueError
        raise ValidationError(f"{path}: line 1: malformed score table header") from None
    if space == "action":
        raise ValidationError(f"{path}: line 1: action tables are zips; a text table is "
                              "verb or noun")
    ids: list[str] = []
    row_lines: list[int] = []  # each row's line, in file order
    flat: list[float] = []  # every row's scores, in file order
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != classes + 1:
            raise ValidationError(
                f"{path}: line {lineno}: expected id plus {classes} scores, got {len(parts) - 1}")
        try:
            flat.extend(map(float, parts[1:]))
        except ValueError:
            raise ValidationError(f"{path}: line {lineno}: malformed score") from None
        ids.append(parts[0])
        row_lines.append(lineno)
    try:
        return ScoreTable(ids, np.array(flat, dtype=np.float64).reshape(len(ids), classes), space,
                          lines=row_lines)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None
