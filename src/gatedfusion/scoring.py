"""Verb-noun action scoring: co-occurrence prior, re-weighting, top-k
accuracy and score tables.

An action is a (verb, noun) pair.  Verb and noun tables hold
log-probabilities; the plain action score is their sum, and re-weighting
adds the log of a prior mu(v, n) built from training-set co-occurrence
frequencies, so pairs never seen in training score -inf and implausible
combinations drop out of the ranking.

Every accuracy counts from one ranking rule: ``label_ranks`` ranks each
row's true label once, and ``topk_report`` gives every k of a report from
those ranks.  ``score_actions_for_bank`` follows the same rule without a
(rows, verbs * nouns) block.  It scores the prior's support, widened by the
action indices below ``_ACTION_WIDTH`` when the support is narrower than
that, keeps each row's first ``_ACTION_WIDTH`` pairs in that order in one
selection, and reads the re-weighted rank off them; it ranks the plain sum
from each row's top verbs x top nouns.

A ``ScoreTable`` holds only ids that keep the bank's id rule and never
repeat, a 2-D float64 block of scores, finite but for an action table's
-inf, and, for an action table only, its integer class counts and the
action index of each kept score, in every space, checked once as it is
built and unchangeable after, so no table can be saved that would not load.
``save_score_table`` writes a table of every space, and ``save_prior`` a
prior, as a zip of the bank's codec in ``errors``, the one file format of
each; a user's own model builds a ``ScoreTable`` or an ``ActionPrior`` and
saves it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bank import _LABEL_KEYS, FeatureBank, _id_fault
from .errors import ValidationError, _write_zip, check_fields, is_integer, read_input

__all__ = [
    "ActionPrior",
    "ScoreTable",
    "compute_prior",
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

SCORE_SPACES = (*_LABEL_KEYS, "action")  # a bank's label columns, then their pairs
_TOPK = (1, 5)  # the k of every top-k accuracy a report gives
_ACTION_WIDTH = 100  # the most (verb, noun) pairs an action table keeps per row
_DENSE_ENTRIES = 1 << 20  # the entries of one dense block the plain-rank fallback ranks


@dataclass(frozen=True, eq=False)
class ActionPrior:
    """Dense verb x noun co-occurrence prior.  ``mu[v, n]`` is the relative
    frequency of the pair, 0 for pairs never observed; the vocab sizes are
    its shape.  ``mu`` is 2-D float64, finite, >= 0 and not all zero, and
    read-only, so a prior counted from a bank and one loaded from its file
    are the same value; ``dataclasses.replace`` builds a changed one."""

    mu: np.ndarray

    def __post_init__(self) -> None:
        mu = self.mu
        if not (isinstance(mu, np.ndarray) and mu.dtype == np.float64 and mu.ndim == 2
                and ((mu >= 0) & (mu < np.inf)).all() and mu.any()):  # NaN fails >= and <
            raise ValidationError("prior mu must be a 2-D float64 array, finite and >= 0, with "
                                  "a positive entry")
        mu.flags.writeable = False


@dataclass(frozen=True, eq=False)
class ScoreTable:
    """Per-segment class scores: one aligned row per segment id.  The ids
    keep the bank's id rule and never repeat, and ``scores`` is a 2-D
    float64 array of finite scores, but for an action table's -inf, the
    score of a pair outside the prior's support.  An action table, only,
    declares integer ``verb_classes`` and ``noun_classes`` of at least 1
    and holds ``actions``: each row's kept (verb, noun) pairs as verb-major
    action indices, an int64 array shaped like ``scores``, each row strictly
    ascending within ``[0, verb_classes * noun_classes)``, of width
    ``min(_ACTION_WIDTH, verb_classes * noun_classes)``.  ``scores[r, j]`` is
    the score of pair ``actions[r, j]``.  The ids are a tuple and the arrays
    read-only, and ``dataclasses.replace`` builds a changed table."""

    segment_ids: tuple[str, ...]
    scores: np.ndarray
    space: str
    verb_classes: int | None = None
    noun_classes: int | None = None
    actions: np.ndarray | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "segment_ids", tuple(self.segment_ids))  # frozen
        check_fields(self, {"space": SCORE_SPACES})
        if id_fault := _id_fault(self.segment_ids):
            raise ValidationError(id_fault[1])
        scores, counts, actions = self.scores, (self.verb_classes, self.noun_classes), self.actions
        if not (isinstance(scores, np.ndarray) and scores.dtype == np.float64):
            raise ValidationError("score table: scores must be a float64 array")
        if scores.ndim != 2 or scores.shape[0] != len(self.segment_ids):
            raise ValidationError(
                f"score table: {len(self.segment_ids)} ids but scores shaped {scores.shape}")
        finite = np.isfinite(scores) | (scores == -np.inf) & (self.space == "action")
        if not finite.all():
            raise ValidationError("score table contains non-finite entries")
        if self.space != "action":
            if any(count is not None for count in counts):
                raise ValidationError(f"{self.space} tables declare no verb_classes or "
                                      "noun_classes")
            if actions is not None:
                raise ValidationError(f"{self.space} tables hold no actions")
        else:
            if any(count is None for count in counts):
                raise ValidationError("action tables must declare verb_classes and noun_classes")
            for name, count in zip(("verb_classes", "noun_classes"), counts):
                if not is_integer(count):
                    raise ValidationError(f"action table: {name} must be an integer, got {count!r}")
                if count < 1:
                    raise ValidationError(f"action table: {name} must be >= 1, got {count}")
            pairs = self.verb_classes * self.noun_classes
            if scores.shape[1] != min(_ACTION_WIDTH, pairs):
                raise ValidationError(
                    f"action table: {self.verb_classes}x{self.noun_classes} pairs keep "
                    f"{min(_ACTION_WIDTH, pairs)} per row, but scores have {scores.shape[1]} "
                    "columns")
            if not (isinstance(actions, np.ndarray) and actions.dtype == np.int64
                    and actions.shape == scores.shape):
                raise ValidationError(f"action table: actions must be an int64 array shaped "
                                      f"{scores.shape}")
            if actions.size and not ((actions[:, 0] >= 0).all() and (actions[:, -1] < pairs).all()
                                     and (actions[:, 1:] > actions[:, :-1]).all()):
                raise ValidationError(f"action table: each actions row must be strictly "
                                      f"ascending within [0, {pairs})")
            actions.flags.writeable = False
        scores.flags.writeable = False

    @property
    def classes(self) -> int:
        return self.scores.shape[1]


def compute_prior(bank: FeatureBank) -> ActionPrior:
    """Relative frequency of each (verb, noun) pair among fully labeled
    segments; unseen pairs have mu = 0.  A vocab too large to allocate is a
    ValidationError naming it."""
    pairs = bank.labels[(bank.labels >= 0).all(axis=1)]
    if not len(pairs):
        raise ValidationError("compute_prior: no segment carries both verb and noun labels")
    verbs, nouns = bank.verb_vocab_size, bank.noun_vocab_size
    try:
        counts = np.zeros((verbs, nouns), np.int64)
    except (MemoryError, ValueError):  # numpy: cannot allocate / array is too big
        raise ValidationError(f"vocab {verbs}x{nouns} is too large for a dense prior") from None
    np.add.at(counts, (pairs[:, 0], pairs[:, 1]), 1)
    return ActionPrior(mu=counts / len(pairs))


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


def _check_aligned(ids: tuple[str, ...], other: tuple[str, ...], what: str) -> None:
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
    return _ranks_report(label_ranks(scores, labels))


def _ranks_report(ranks: np.ndarray) -> dict:
    """``topk_report``'s accuracies from the ranks of the true labels."""
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


@np.errstate(divide="ignore", over="ignore")  # log 0, and a sum past -1.8e308, is -inf
def score_actions_for_bank(verb_table: ScoreTable, noun_table: ScoreTable, prior: ActionPrior,
                           bank: FeatureBank, names=("verb table", "noun table")
                           ) -> tuple[ScoreTable, dict, np.ndarray]:
    """Per-segment re-weighted action scores ``(log pv + log mu) + log pn``
    as an action table of each row's top ``min(_ACTION_WIDTH, verbs *
    nouns)`` pairs, top-k accuracy with the prior and with mu replaced by
    all-ones (the plain ``log pv + log pn``), and the (rows, 2) verb and noun
    labels of the rows, joined from ``bank`` once.  A table of the wrong
    space, or with a positive score (verb and noun tables hold
    log-probabilities, as ``eval`` writes them), is a ValidationError that
    starts with its entry of ``names``, the verb slot first.

    Every ranking follows ``label_ranks``, and no (rows, verbs * nouns)
    block is built.  Every pair outside the prior's support scores -inf, so
    the candidates are the support, plus the pairs below the width when the
    support is narrower than the width or a sum overflows to -inf.  A row
    keeps its first width candidates in ``label_ranks``' order, which are
    its first width pairs of all, so the kept pairs ahead of the true pair
    are its re-weighted rank, exact below the width."""
    for table, space, name in zip((verb_table, noun_table), ("verb", "noun"), names):
        if table.space != space:
            raise ValidationError(f"{name}: space is {table.space!r}, expected {space!r}")
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
    for table, name in zip((verb_table, noun_table), names):
        positive = np.flatnonzero((table.scores > 0).any(axis=1))
        if positive.size:
            raise ValidationError(f"{name}: segment {table.segment_ids[positive[0]]!r} has a "
                                  f"positive score; actions takes log-probabilities <= 0")

    pv, pn = verb_table.scores, noun_table.scores  # log-probabilities
    labels = table_labels(verb_table, bank)
    true = labels[:, 0] * nouns + labels[:, 1]  # the verb-major action index
    plain = _plain_ranks(pv, pn, labels)
    width = min(_ACTION_WIDTH, verbs * nouns)
    log_mu = np.log(prior.mu)

    # Every pair outside the support scores -inf, as does a sum over it that
    # overflows past -1.8e308.  A row of fewer than width finite scores keeps
    # -inf pairs, lowest index first, so they all lie below width.
    support = np.flatnonzero(prior.mu)
    for pairs in (support, np.union1d(support, np.arange(width))):
        v, n = np.divmod(pairs, nouns)
        scores = pv[:, v]
        scores += log_mu[v, n]
        scores += pn[:, n]
        if len(pairs) >= width and not np.isneginf(scores).any():
            break  # every row has at least width finite scores on the support
    # A row keeps every score above its width-th best, `last`, then as many
    # tied with it as fit, lowest index first: its first width pairs in
    # label_ranks' order.
    kth = len(pairs) - width
    last = np.partition(scores, kth, axis=1)[:, kth, None] if kth else -np.inf
    keep, tied = scores > last, scores == last
    room = width - np.count_nonzero(keep, axis=1)
    over = np.flatnonzero(np.count_nonzero(tied, axis=1) > room)
    tied[over] &= np.cumsum(tied[over], axis=1) <= room[over, None]
    keep |= tied
    actions = np.broadcast_to(pairs, keep.shape)[keep].reshape(-1, width)
    kept = scores[keep].reshape(-1, width)

    # The kept pairs ahead of the true pair: its rank below width, else width.
    rows = np.arange(len(true))
    t = ((pv[rows, labels[:, 0]] + log_mu[labels[:, 0], labels[:, 1]])
         + pn[rows, labels[:, 1]])[:, None]
    reweighted = np.count_nonzero((kept > t) | ((kept == t) & (actions < true[:, None])), axis=1)
    table = ScoreTable(verb_table.segment_ids, kept, "action", verbs, nouns, actions)
    return table, {"reweighted": _ranks_report(reweighted), "plain": _ranks_report(plain)}, labels


def _plain_ranks(pv: np.ndarray, pn: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """``label_ranks`` of the plain sums ``pv[r, v] + pn[r, n]`` at each
    row's true (verb, noun) pair, exact below ``k = max(_TOPK)`` and at
    least ``k`` otherwise.

    Each row counts the pairs ahead of its true pair among its top-k verbs
    x top-k nouns.  A pair outside that block has a verb or a noun no better
    than the (k+1)-th, and rounding is monotone, if not strictly, so its
    sum is at most ``B = max(pv_(k+1) + pn_(1), pv_(1) + pn_(k+1))``.  A
    row whose true sum beats ``B`` thus has its exact rank in the block,
    and one with k pairs ahead ranks at least k.  Any other row, where the
    true sum ties with or falls below ``B``, is ranked densely, a bounded
    chunk of rows at a time."""
    k, nouns = max(_TOPK), pn.shape[1]
    rows = np.arange(len(labels))[:, None]
    true = labels[:, 0] * nouns + labels[:, 1]
    t = (pv[rows[:, 0], labels[:, 0]] + pn[rows[:, 0], labels[:, 1]])[:, None, None]
    bound = np.full(len(labels), -np.inf)
    top = []
    for p, other in ((pv, pn), (pn, pv)):
        classes = p.shape[1]
        if classes <= k:  # every class is a candidate, and the axis adds no bound
            top.append(np.broadcast_to(np.arange(classes), p.shape))
            continue
        order = np.argpartition(p, classes - k - 1, axis=1)
        top.append(order[:, classes - k:])
        bound = np.maximum(bound, p[rows[:, 0], order[:, classes - k - 1]] + other.max(axis=1))
    sums = pv[rows, top[0]][:, :, None] + pn[rows, top[1]][:, None, :]
    index = top[0][:, :, None] * nouns + top[1][:, None, :]
    ranks = np.count_nonzero((sums > t) | ((sums == t) & (index < true[:, None, None])),
                             axis=(1, 2))
    dense = np.flatnonzero((ranks < k) & ~(t[:, 0, 0] > bound))
    step = max(1, _DENSE_ENTRIES // (pv.shape[1] * nouns))
    for chunk in (dense[i:i + step] for i in range(0, len(dense), step)):
        block = (pv[chunk, :, None] + pn[chunk, None, :]).reshape(len(chunk), -1)
        ranks[chunk] = label_ranks(block, true[chunk])
    return ranks


# --- file formats ---------------------------------------------------------------

def save_prior(prior: ActionPrior, path) -> None:
    """Save ``prior`` as the zip of ``errors._write_zip``, through
    ``errors.replacing``, so a failed save leaves the old file: the header
    ``[verbs, nouns]``, the float64 ``mu`` and no ids.  Equal priors give
    equal bytes, and an ``ActionPrior`` holds only a ``mu`` that loads, so
    every file this writes loads back with an equal ``mu``."""
    _write_zip(path, list(prior.mu.shape), {"mu": prior.mu}, [])


def load_prior(path, verb_vocab_size: int, noun_vocab_size: int) -> ActionPrior:
    """Load a prior over the given vocab: exactly the zip of ``save_prior``,
    whose header and ``mu`` must both be ``verb_vocab_size x
    noun_vocab_size``.  Any other file, or any fault in the zip, is a
    ValidationError naming it.  An all-ones ``mu`` re-weights to the plain
    product."""
    vocab = (verb_vocab_size, noun_vocab_size)

    def build(header: list[int], blocks: dict, ids: list[str]) -> ActionPrior:
        if ids:
            raise ValidationError("prior ids member must be empty")
        if tuple(header) != vocab or blocks["mu"].shape != vocab:
            raise ValidationError(f"prior header {header} with mu shaped {blocks['mu'].shape} "
                                  f"is not vocab {verb_vocab_size}x{noun_vocab_size}")
        return ActionPrior(mu=blocks["mu"])

    return read_input(path, "prior", 2, lambda header: {"mu": np.dtype(np.float64)}, build)


def save_score_table(table: ScoreTable, path) -> None:
    """Save ``table`` as the zip of ``errors._write_zip``, through
    ``errors.replacing``, so a failed save leaves the old file: the header
    ``[verb_classes, noun_classes]``, where ``-1`` marks the axis a verb or
    noun table lacks, the float64 ``scores``, an action table's int64
    ``actions`` and the ids.  Equal tables give equal bytes, and a
    ``ScoreTable`` holds only ids that load, so every file this writes loads
    back as an equal table."""
    header = {"verb": [table.classes, -1], "noun": [-1, table.classes],
              "action": [table.verb_classes, table.noun_classes]}[table.space]
    blocks = {"scores": table.scores}
    if table.actions is not None:
        blocks["actions"] = table.actions
    _write_zip(path, header, blocks, table.segment_ids)


def _table_blocks(header: list[int]) -> dict:
    """The blocks between a score-table zip's header and ids: an action
    table, whose header holds two counts >= 1, keeps its actions after its
    scores."""
    blocks = {"scores": np.dtype(np.float64)}
    if len(header) == 2 and min(header) >= 1:
        blocks["actions"] = np.dtype(np.int64)
    return blocks


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
        return ScoreTable(ids, scores, "action", verbs, nouns, blocks.get("actions"))
    if scores.shape[1:] != (classes,):
        raise ValidationError(f"{space} table: header says {classes} classes but scores "
                              f"shaped {scores.shape}")
    return ScoreTable(ids, scores, space)


def load_score_table(path) -> ScoreTable:
    """Load a score table: exactly the zip of ``save_score_table``.  Any
    other file, or any fault in the zip, is a ValidationError naming it."""
    return read_input(path, "score table", 2, _table_blocks, _zip_table)
