"""Verb-noun action scoring: co-occurrence prior, re-weighting and top-k
accuracy.

An action is a (verb, noun) pair.  The plain action score is the product of
the verb and noun probabilities; re-weighting multiplies in a prior mu(v, n)
built from training-set co-occurrence frequencies, so pairs never seen in
training score exactly zero and implausible combinations drop out of the
ranking.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .bank import FeatureBank
from .errors import ValidationError, read_text, strict_json

__all__ = [
    "ActionPrior",
    "ScoreTable",
    "compute_prior",
    "prior_from_pairs",
    "uniform_prior",
    "prior_stats",
    "reweight_actions",
    "topk_accuracy",
    "score_actions_for_bank",
    "action_index",
    "save_prior",
    "load_prior",
    "save_score_table",
    "load_score_table",
]

SCORE_SPACES = ("verb", "noun", "action")
_TOPK = (1, 5)  # the k of every top-k accuracy a report gives
_PAIR_COUNT_THRESHOLD = 50  # prior_stats counts the pairs seen more often than this


@dataclass
class ActionPrior:
    """Dense verb x noun co-occurrence prior.  ``mu[v, n]`` is the relative
    frequency of the pair, 0 for pairs never observed; the vocab sizes are
    its shape.  ``counts`` keeps the raw tallies for reporting when the
    prior was counted from a bank."""

    mu: np.ndarray
    counts: np.ndarray | None = None


@dataclass
class ScoreTable:
    """Per-segment class scores: one aligned row per segment id."""

    segment_ids: list[str]
    scores: np.ndarray
    space: str
    verb_classes: int | None = None
    noun_classes: int | None = None

    def __post_init__(self) -> None:
        if self.space not in SCORE_SPACES:
            raise ValidationError(f"score space {self.space!r} not one of {SCORE_SPACES}")
        if self.scores.ndim != 2 or self.scores.shape[0] != len(self.segment_ids):
            raise ValidationError(
                f"score table: {len(self.segment_ids)} ids but scores shaped {self.scores.shape}")
        if not np.all(np.isfinite(self.scores)):
            raise ValidationError("score table contains non-finite entries")
        if self.space == "action":
            if self.verb_classes is None or self.noun_classes is None:
                raise ValidationError("action tables must declare verb_classes and noun_classes")
            if self.verb_classes * self.noun_classes != self.scores.shape[1]:
                raise ValidationError(
                    f"action table: {self.verb_classes}x{self.noun_classes} pairs but "
                    f"{self.scores.shape[1]} columns")

    @property
    def classes(self) -> int:
        return self.scores.shape[1]


def action_index(verb: int, noun: int, noun_vocab_size: int) -> int:
    """Flatten a (verb, noun) pair into the verb-major action space."""
    return verb * noun_vocab_size + noun


def _prior_matrix(make, verbs: int, nouns: int, dtype=np.float64) -> np.ndarray:
    """``make((verbs, nouns), dtype)``: the one allocation of a dense prior.
    A vocab too large to allocate is a ValidationError naming it."""
    try:
        return make((verbs, nouns), dtype)
    except (MemoryError, ValueError):  # numpy: cannot allocate / array is too big
        raise ValidationError(
            f"vocab {verbs}x{nouns} is too large for a dense prior") from None


def compute_prior(bank: FeatureBank) -> ActionPrior:
    """Relative frequency of each (verb, noun) pair among fully labeled
    segments; unseen pairs have mu = 0."""
    pairs = bank.labels[(bank.labels >= 0).all(axis=1)]
    if not len(pairs):
        raise ValidationError("compute_prior: no segment carries both verb and noun labels")
    counts = _prior_matrix(np.zeros, bank.verb_vocab_size, bank.noun_vocab_size, np.int64)
    np.add.at(counts, (pairs[:, 0], pairs[:, 1]), 1)
    return ActionPrior(mu=counts / len(pairs), counts=counts)


def prior_from_pairs(freq: dict[tuple[int, int], float], verb_vocab_size: int,
                     noun_vocab_size: int) -> ActionPrior:
    """Dense prior with ``freq[(v, n)]`` at each listed pair and 0 elsewhere.
    The ids must lie inside the vocab; ``load_prior`` checks them."""
    mu = _prior_matrix(np.zeros, verb_vocab_size, noun_vocab_size)
    for (v, n), f in freq.items():
        mu[v, n] = f
    return ActionPrior(mu=mu)


def uniform_prior(verb_vocab_size: int, noun_vocab_size: int) -> ActionPrior:
    """mu = 1 on every pair: re-weighting with it reproduces the plain
    product ranking."""
    return ActionPrior(mu=_prior_matrix(np.ones, verb_vocab_size, noun_vocab_size))


def prior_stats(prior: ActionPrior) -> dict:
    counts = prior.counts if prior.counts is not None else np.zeros(prior.mu.shape, np.int64)
    return {
        "labeled_segments": int(counts.sum()),
        "distinct_pairs": int(np.count_nonzero(prior.mu)),
        "count_threshold": _PAIR_COUNT_THRESHOLD,
        "pairs_above_threshold": int(np.count_nonzero(counts > _PAIR_COUNT_THRESHOLD)),
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
    return prior.mu * pv[..., :, None] * pn[..., None, :]


def _check_aligned(ids: list[str], other: list[str], what: str) -> None:
    """Reject tables whose rows are not the same segments in the same order,
    naming the first differing row, else both lengths."""
    if ids == other:
        return
    for i, (a, b) in enumerate(zip(ids, other)):
        if a != b:
            raise ValidationError(f"{what} misaligned at row {i}: {a!r} vs {b!r}")
    raise ValidationError(f"{what} have {len(ids)} vs {len(other)} segments")


def topk_accuracy(table: ScoreTable, labels, k: int) -> float:
    """Fraction of rows whose true label ranks inside the top k.

    Ranking is by descending score with ties broken by ascending class
    index, which is pessimistic for the true label: a label tied at the
    k-th boundary counts only if its index wins the tie."""
    if k < 1:
        raise ValidationError(f"topk_accuracy: k must be >= 1, got {k}")
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (table.scores.shape[0],):
        raise ValidationError(
            f"topk_accuracy: labels shaped {labels.shape} for {table.scores.shape[0]} rows")
    classes = table.classes
    if labels.size and (labels.min() < 0 or labels.max() >= classes):
        bad = labels[(labels < 0) | (labels >= classes)][0]
        raise ValidationError(f"topk_accuracy: label {bad} out of range for {classes} classes")
    scores = table.scores
    true = scores[np.arange(len(labels)), labels][:, None]
    ahead = (scores > true) | ((scores == true) & (np.arange(classes) < labels[:, None]))
    hits = np.count_nonzero(ahead.sum(axis=1) < k)
    return hits / len(labels) if len(labels) else 0.0


def _aligned_action_labels(table: ScoreTable, bank: FeatureBank) -> np.ndarray:
    pairs = dict(zip(bank.ids, bank.labels.tolist()))
    labels = []
    for seg_id in table.segment_ids:
        pair = pairs.get(seg_id)
        if pair is None:
            raise ValidationError(f"segment {seg_id!r} not present in the bank")
        if min(pair) < 0:
            raise ValidationError(f"segment {seg_id!r} lacks verb/noun labels")
        labels.append(action_index(*pair, bank.noun_vocab_size))
    return np.array(labels, dtype=np.int64)


def score_actions_for_bank(verb_table: ScoreTable, noun_table: ScoreTable,
                           prior: ActionPrior, bank: FeatureBank) -> tuple[ScoreTable, dict]:
    """Per-segment action scores over the flattened verb x noun space, plus
    top-k accuracy with the prior and with mu replaced by all-ones."""
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
    pv, pn = verb_table.scores, noun_table.scores
    table_kwargs = dict(segment_ids=list(verb_table.segment_ids), space="action",
                        verb_classes=verbs, noun_classes=nouns)
    reweighted_table = ScoreTable(scores=reweight_actions(pv, pn, prior).reshape(shape),
                                  **table_kwargs)
    plain_table = ScoreTable(
        scores=reweight_actions(pv, pn, uniform_prior(verbs, nouns)).reshape(shape),
        **table_kwargs)

    labels = _aligned_action_labels(reweighted_table, bank)
    metrics = {
        "reweighted": {f"top{k}": topk_accuracy(reweighted_table, labels, k) for k in _TOPK},
        "plain": {f"top{k}": topk_accuracy(plain_table, labels, k) for k in _TOPK},
    }
    return reweighted_table, metrics


# --- file formats ---------------------------------------------------------------

def save_prior(prior: ActionPrior, path) -> None:
    """One ``verb_id noun_id frequency`` line per nonzero entry of mu, in
    row-major order."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for v, n in np.argwhere(prior.mu).tolist():
            fh.write(f"{v} {n} {float(prior.mu[v, n])!r}\n")


def load_prior(path, verb_vocab_size: int, noun_vocab_size: int) -> ActionPrior:
    """Parse a prior file into a dense prior over the given vocab.  A
    negative or out-of-vocab id, a duplicate pair, or a frequency that is
    not finite and positive is rejected with its line."""
    freq: dict[tuple[int, int], float] = {}
    # Text mode leaves "\n" as the only line end, so these are the file's lines.
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
    return prior_from_pairs(freq, verb_vocab_size, noun_vocab_size)


def save_score_table(table: ScoreTable, path) -> None:
    """Header line with the space tag and class counts, then one
    ``segment_id score...`` line per row at full precision."""
    header: dict = {"space": table.space, "classes": table.classes}
    if table.space == "action":
        header["verb_classes"] = table.verb_classes
        header["noun_classes"] = table.noun_classes
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(strict_json(header, separators=(",", ":")) + "\n")
        for seg_id, row in zip(table.segment_ids,
                               table.scores.astype(np.float64, copy=False).tolist()):
            if any(ch.isspace() for ch in seg_id):
                raise ValidationError(
                    f"segment id {seg_id!r} contains whitespace; not representable")
            fh.write(seg_id + " " + " ".join(map(repr, row)) + "\n")


def _header_count(val) -> int:
    """A class count from a score table header: a JSON integer, never a
    float, string or bool."""
    if not isinstance(val, int) or isinstance(val, bool):
        raise TypeError(f"class count {val!r} is not an integer")
    return val


def load_score_table(path) -> ScoreTable:
    lines = read_text(path).splitlines()
    if not lines:
        raise ValidationError(f"{path}: empty score table file")
    try:
        header = json.loads(lines[0])
        space = header["space"]
        classes = _header_count(header["classes"])
        verb_classes, noun_classes = (
            None if header.get(key) is None else _header_count(header[key])
            for key in ("verb_classes", "noun_classes"))
        no_rows = np.zeros((0, classes))  # rejects a negative or oversized count
    except (json.JSONDecodeError, KeyError, TypeError, ValueError, OverflowError):
        raise ValidationError(f"{path}: line 1: malformed score table header") from None
    segment_ids: list[str] = []
    rows: list[np.ndarray] = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != classes + 1:
            raise ValidationError(
                f"{path}: line {lineno}: expected id plus {classes} scores, got {len(parts) - 1}")
        segment_ids.append(parts[0])
        try:
            rows.append(np.array([float(x) for x in parts[1:]], dtype=np.float64))
        except ValueError:
            raise ValidationError(f"{path}: line {lineno}: malformed score") from None
    scores = np.stack(rows) if rows else no_rows
    return ScoreTable(segment_ids=segment_ids, scores=scores, space=space,
                      verb_classes=verb_classes, noun_classes=noun_classes)
