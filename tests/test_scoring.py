import ast
import dataclasses
import operator
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, reject, settings, strategies as st
from hypothesis.extra import numpy as hnp

from conftest import ZIP_DAMAGE, damage_zip, dense_action_oracle, dense_prior, reference_zip

from gatedfusion import scoring
from gatedfusion.bank import FeatureBank, SegmentRecord, SynthSpec, synth_generate
from gatedfusion.errors import ValidationError
from gatedfusion.scoring import (SCORE_SPACES, ActionPrior, ScoreTable, compute_prior, load_prior,
                                 load_score_table, prior_stats,
                                 label_ranks, reweight_actions, save_prior,
                                 save_score_table, score_actions_for_bank,
                                 table_labels, topk_report)


def labeled_bank(pairs, verb_vocab=4, noun_vocab=4):
    records = [SegmentRecord(segment_id=f"s{i}", clip_feature=np.zeros(2),
                             clip_center_frame=0, detections=[],
                             verb_label=v, noun_label=n)
               for i, (v, n) in enumerate(pairs)]
    return FeatureBank.from_records(records, dim_v=2, dim_o=2,
                                    verb_vocab_size=verb_vocab, noun_vocab_size=noun_vocab)


def table(rows, space="verb", ids=None, **kw):
    scores = np.array(rows, dtype=np.float64)
    ids = ids if ids is not None else [f"s{i}" for i in range(scores.shape[0])]
    return ScoreTable(segment_ids=ids, scores=scores, space=space, **kw)


def every_pair(rows: int, pairs: int) -> np.ndarray:
    """The ``actions`` block of an action table of at most 100 pairs, which
    keeps every pair in every row."""
    return np.tile(np.arange(pairs, dtype=np.int64), (rows, 1))


class TestComputePrior:
    def test_counting(self):
        prior = compute_prior(labeled_bank([(0, 0), (0, 0), (1, 2), (0, 1)]))
        assert prior.mu[0, 0] == 0.5
        assert prior.mu[1, 2] == 0.25
        assert prior.mu[0, 1] == 0.25
        assert prior.mu[3, 3] == 0.0
        assert [3, 3] not in np.argwhere(prior.mu).tolist()

    def test_single_segment(self):
        prior = compute_prior(labeled_bank([(2, 3)]))
        assert prior.mu[2, 3] == 1.0

    def test_frequencies_sum_to_one(self):
        rng = np.random.default_rng(0)
        pairs = [(int(rng.integers(4)), int(rng.integers(4))) for _ in range(57)]
        prior = compute_prior(labeled_bank(pairs))
        assert abs(prior.mu.sum() - 1.0) < 1e-12

    def test_partially_labeled_segments_excluded(self):
        bank = dataclasses.replace(labeled_bank([(0, 0), (1, 1)]),
                                   labels=np.array([[0, 0], [1, -1]]))
        prior = compute_prior(bank)
        assert prior.mu[0, 0] == 1.0

    @pytest.mark.parametrize("verbs,nouns", [(10**9, 10**9), (10**12 + 1, 1)])
    def test_vocab_too_large_for_a_dense_prior(self, verbs, nouns):
        # 8 EB and 7.28 TiB of counts: a ValidationError, not a MemoryError
        bank = labeled_bank([(0, 0)], verb_vocab=verbs, noun_vocab=nouns)
        with pytest.raises(ValidationError,
                           match=f"^vocab {verbs}x{nouns} is too large for a dense prior$"):
            compute_prior(bank)

    def test_no_labels_error(self):
        bank = dataclasses.replace(labeled_bank([(0, 0)]), labels=np.array([[-1, 0]]))
        with pytest.raises(ValidationError):
            compute_prior(bank)

    def test_stats(self):
        prior = compute_prior(labeled_bank([(0, 0)] * 60 + [(1, 1)] * 3))
        stats = prior_stats(prior)
        assert stats["count_threshold"] == 50
        assert stats["labeled_segments"] == 63
        assert stats["distinct_pairs"] == 2
        assert stats["pairs_above_threshold"] == 1


class TestReweightActions:
    def test_support_restriction(self):
        prior = dense_prior({(1, 1): 1.0}, 3, 3)
        pv = np.array([0.5, 0.3, 0.2])
        pn = np.array([0.1, 0.2, 0.7])
        out = reweight_actions(pv, pn, prior)
        assert np.unravel_index(np.argmax(out), out.shape) == (1, 1)
        mask = np.zeros((3, 3), dtype=bool)
        mask[1, 1] = True
        assert np.all(out[~mask] == 0.0)

    def test_uniform_prior_keeps_product_ranking(self):
        rng = np.random.default_rng(1)
        prior = ActionPrior(mu=np.ones((3, 4)))
        pv = rng.dirichlet(np.ones(3))
        pn = rng.dirichlet(np.ones(4))
        out = reweight_actions(pv, pn, prior)
        assert np.array_equal(np.argsort(out.ravel()), np.argsort(np.outer(pv, pn).ravel()))

    def test_three_by_three_brute_force(self):
        freq = {(0, 0): 0.4, (0, 2): 0.1, (1, 1): 0.3, (2, 2): 0.2}
        prior = dense_prior(freq, 3, 3)
        pv = np.array([0.2, 0.5, 0.3])
        pn = np.array([0.6, 0.3, 0.1])
        out = reweight_actions(pv, pn, prior)
        for v in range(3):
            for n in range(3):
                assert out[v, n] == freq.get((v, n), 0.0) * pv[v] * pn[n]

    def test_vocab_mismatch(self):
        prior = ActionPrior(mu=np.ones((2, 2)))
        with pytest.raises(ValidationError):
            reweight_actions(np.ones(3) / 3, np.ones(2) / 2, prior)

    def test_row_blocks_equal_stacked_rows(self):
        rng = np.random.default_rng(9)
        pairs = [(int(rng.integers(4)), int(rng.integers(5))) for _ in range(30)]
        prior = compute_prior(labeled_bank(pairs, verb_vocab=4, noun_vocab=5))
        pv = rng.dirichlet(np.ones(4), size=7)
        pn = rng.dirichlet(np.ones(5), size=7)
        pv[3] = 0.0  # an all-zero row gives an all-zero matrix
        block = reweight_actions(pv, pn, prior)
        rows = np.stack([reweight_actions(a, b, prior) for a, b in zip(pv, pn)])
        assert block.shape == (7, 4, 5)
        assert block.tobytes() == rows.tobytes()
        # the in-place second product gives the bits of mu * pv * pn
        assert block.tobytes() == (prior.mu * pv[:, :, None] * pn[:, None, :]).tobytes()

    def test_row_count_mismatch(self):
        with pytest.raises(ValidationError, match="rows"):
            reweight_actions(np.ones((3, 2)) / 2, np.ones((2, 2)) / 2,
                             ActionPrior(mu=np.ones((2, 2))))

    def test_positive_scaling_of_mu_preserves_argmax(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            pairs = {(int(rng.integers(3)), int(rng.integers(3))): float(rng.uniform(0.1, 1))
                     for _ in range(5)}
            prior = dense_prior(pairs, 3, 3)
            scaled = dense_prior({k: 7.3 * f for k, f in pairs.items()}, 3, 3)
            pv = rng.dirichlet(np.ones(3))
            pn = rng.dirichlet(np.ones(3))
            a = reweight_actions(pv, pn, prior)
            b = reweight_actions(pv, pn, scaled)
            assert np.argmax(a) == np.argmax(b)


class TestTopkReport:
    def test_k_past_the_classes_saturates(self):
        assert topk_report(np.array([[0.2, 0.8], [0.9, 0.1]]), [0, 1]) == {"top1": 0.0,
                                                                            "top5": 1.0}

    def test_direct_definition(self):
        scores = np.array([[0.1, 0.9, 0.0, 0.0, 0.0, 0.0], [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]])
        assert topk_report(scores, [1, 0]) == {"top1": 0.5, "top5": 0.5}

    def test_pessimistic_tie_break(self):
        scores = np.array([[0.5, 0.5]])
        assert topk_report(scores, [0])["top1"] == 1.0  # index 0 survives the tie
        assert topk_report(scores, [1])["top1"] == 0.0  # index 1 loses it
        tied = np.zeros((1, 7))  # at the k = 5 boundary too
        assert topk_report(tied, [4])["top5"] == 1.0
        assert topk_report(tied, [5])["top5"] == 0.0

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(3)
        scores = rng.uniform(size=(100, 12))
        scores[::7, 3] = scores[::7, 8]  # exact ties
        labels = rng.integers(0, 12, size=100)
        report = topk_report(scores, labels)
        for k in (1, 5):
            expected = 0
            for row, label in zip(scores, labels):
                order = sorted(range(12), key=lambda j: (-row[j], j))
                expected += int(label in order[:k])
            assert report[f"top{k}"] == expected / 100
        assert report["top5"] >= report["top1"]

    def test_zero_rows_give_an_empty_report(self):
        assert topk_report(np.zeros((0, 3)), []) == {}

    def test_label_out_of_range(self):
        with pytest.raises(ValidationError):
            topk_report(np.array([[0.5, 0.5]]), [2])

    def test_scalar_label_rejected(self):
        with pytest.raises(ValidationError, match=r"labels shaped \(\) for 1 rows"):
            topk_report(np.array([[0.5, 0.5]]), 1)


class TestLabelRanks:
    def test_brute_force_oracle_with_ties(self):
        rng = np.random.default_rng(9)
        scores = rng.integers(0, 4, size=(60, 7)).astype(np.float64)  # many ties
        labels = rng.integers(0, 7, size=60)
        expected = [sorted(range(7), key=lambda j: (-row[j], j)).index(label)
                    for row, label in zip(scores, labels)]
        assert label_ranks(scores, labels).tolist() == expected

    def test_report_ranks_once_for_every_k(self):
        rng = np.random.default_rng(10)
        scores = rng.uniform(size=(40, 9))
        labels = rng.integers(0, 9, size=40)
        with mock.patch.object(scoring, "label_ranks", wraps=label_ranks) as ranks:
            report = topk_report(scores, labels)
        assert ranks.call_count == 1
        rank = label_ranks(scores, labels)
        assert report == {"top1": np.mean(rank < 1), "top5": np.mean(rank < 5)}


class TestScoreActionsForBank:
    def test_all_ones_prior_matches_plain(self):
        rng = np.random.default_rng(5)
        bank = labeled_bank([(0, 1), (1, 0), (2, 3)])
        vt = table([rng.dirichlet(np.ones(4)) for _ in range(3)], space="verb")
        nt = table([rng.dirichlet(np.ones(4)) for _ in range(3)], space="noun")
        prior = ActionPrior(mu=np.ones((4, 4)))
        _, metrics, _ = score_actions_for_bank(vt, nt, prior, bank)
        assert metrics["reweighted"] == metrics["plain"]

    def test_returns_the_label_block_of_its_one_join(self):
        bank = labeled_bank([(0, 1), (1, 0), (2, 3)])
        vt = table(np.full((2, 4), 0.25), space="verb", ids=["s2", "s0"])
        nt = table(np.full((2, 4), 0.25), space="noun", ids=["s2", "s0"])
        _, _, labels = score_actions_for_bank(vt, nt, ActionPrior(mu=np.ones((4, 4))), bank)
        assert labels.tolist() == [[2, 3], [0, 1]]

    def test_single_supported_pair_per_verb(self):
        # exactly one noun per verb in the prior, pairs equally frequent, and
        # flat noun rows: the re-weighted action argmax then reduces to the
        # verb argmax, so action accuracy equals verb accuracy
        pairs = [(0, 0), (1, 1), (2, 2), (0, 0), (1, 1), (2, 2)]
        bank = labeled_bank(pairs, verb_vocab=3, noun_vocab=3)
        prior = compute_prior(bank)
        rng = np.random.default_rng(6)
        verb_rows = [rng.dirichlet(np.ones(3) * 0.5) for _ in pairs]
        noun_rows = [np.full(3, 1.0 / 3.0) for _ in pairs]
        ids = [f"s{i}" for i in range(len(pairs))]
        vt = table(verb_rows, space="verb", ids=ids)
        nt = table(noun_rows, space="noun", ids=ids)
        _, metrics, _ = score_actions_for_bank(vt, nt, prior, bank)
        verb_top1 = topk_report(vt.scores, [p[0] for p in pairs])["top1"]
        assert metrics["reweighted"]["top1"] == verb_top1
        assert 0.0 < verb_top1 < 1.0  # non-degenerate instance

    def test_confusion_on_unsupported_pairs_is_repaired(self):
        # noun confusion mass sits on pairs absent from training
        bank = labeled_bank([(0, 0), (1, 1)], verb_vocab=2, noun_vocab=3)
        prior = compute_prior(bank)
        vt = table([[0.9, 0.1], [0.1, 0.9]], space="verb")
        # true noun gets 0.4, an unsupported-for-this-verb noun gets 0.5
        nt = table([[0.4, 0.1, 0.5], [0.1, 0.4, 0.5]], space="noun")
        _, metrics, _ = score_actions_for_bank(vt, nt, prior, bank)
        assert metrics["plain"]["top1"] == 0.0
        assert metrics["reweighted"]["top1"] == 1.0

    def test_misaligned_tables(self):
        bank = labeled_bank([(0, 0)])
        vt = table([[1.0, 0.0, 0.0, 0.0]], space="verb", ids=["s0"])
        nt = table([[1.0, 0.0, 0.0, 0.0]], space="noun", ids=["zz"])
        with pytest.raises(ValidationError, match="misaligned"):
            score_actions_for_bank(vt, nt, ActionPrior(mu=np.ones((4, 4))), bank)

    def test_segment_missing_from_bank(self):
        bank = labeled_bank([(0, 0)])
        vt = table([[1.0, 0.0, 0.0, 0.0]], space="verb", ids=["nope"])
        nt = table([[1.0, 0.0, 0.0, 0.0]], space="noun", ids=["nope"])
        with pytest.raises(ValidationError, match="nope"):
            score_actions_for_bank(vt, nt, ActionPrior(mu=np.ones((4, 4))), bank)

    @pytest.mark.parametrize("spaces, message", [
        (("noun", "verb"), "verb table: space is 'noun', expected 'verb'"),  # verb slot first
        (("verb", "verb"), "noun table: space is 'verb', expected 'noun'"),
    ])
    def test_a_table_of_the_other_space_is_named_by_its_slot(self, spaces, message):
        bank = labeled_bank([(0, 0)])
        vt, nt = (table([[1.0, 0.0, 0.0, 0.0]], space=space) for space in spaces)
        with pytest.raises(ValidationError) as exc:
            score_actions_for_bank(vt, nt, ActionPrior(mu=np.ones((4, 4))), bank)
        assert str(exc.value) == message


_ORACLE_KINDS = ("random", "true-pair-outside-support", "underflow", "ties-at-100", "zero-fill",
                 "eye", "small-vocab", "support-is-width")


def _oracle_case(kind: str, seed: int):
    """Verb and noun tables, a prior and labels of one kind of action input."""
    rng = np.random.default_rng(seed)
    verbs, nouns, rows = (4, 5, 20) if kind == "small-vocab" else (12, 15, 25)
    mu = np.where(rng.uniform(size=(verbs, nouns)) < 0.6, rng.uniform(size=(verbs, nouns)), 0.0)
    pv, pn = rng.dirichlet(np.ones(verbs), rows), rng.dirichlet(np.ones(nouns), rows)
    labels = np.stack([rng.integers(verbs, size=rows), rng.integers(nouns, size=rows)], axis=1)
    if kind == "true-pair-outside-support":
        mu[labels[:, 0], labels[:, 1]] = 0.0
    elif kind == "underflow":  # support products of 1e-340 and below are exactly 0
        pv[::2] *= 1e-170
        pn[::3] *= 1e-170
    elif kind == "ties-at-100":  # quarter steps: many exact ties, at the 100th place too
        mu[mu > 0] = 0.5
        pv, pn = rng.integers(1, 4, (rows, verbs)) / 4, rng.integers(1, 4, (rows, nouns)) / 4
    elif kind == "zero-fill":  # 20 supported pairs: each row keeps 80 zero-score pairs too
        mu = np.zeros((verbs, nouns))
        mu.flat[rng.choice(verbs * nouns, 20, replace=False)] = 0.05
    elif kind == "eye":
        pv, pn = np.eye(verbs)[labels[:, 0]], np.eye(nouns)[rng.integers(nouns, size=rows)]
    elif kind == "support-is-width":  # 100 supported pairs, positive in every row
        mu = np.zeros((verbs, nouns))
        support = np.r_[0, rng.choice(np.arange(1, verbs * nouns), 99, replace=False)]
        mu.flat[support] = rng.uniform(0.1, 1.0, 100)
    mu.flat[0] = max(mu.flat[0], 0.1)  # a prior has a positive entry
    return pv, pn, ActionPrior(mu), labels


class TestActionsAgainstTheDenseOracle:
    """``actions`` scores the prior's support, ranks the plain product from
    a candidate block and keeps each row's top 100: every result equals the
    dense blocks' of ``reweight_actions`` and ``label_ranks``."""

    @staticmethod
    def _check(pv, pn, prior, labels, tmp_path):
        bank = labeled_bank(labels.tolist(), *prior.mu.shape)
        ids = [f"s{i}" for i in range(len(labels))]
        t, metrics, _ = score_actions_for_bank(table(pv, "verb", ids), table(pn, "noun", ids),
                                               prior, bank)
        want, kept, scores = dense_action_oracle(pv, pn, prior, labels)
        assert metrics == want
        save_score_table(t, tmp_path / "action_scores.npz")
        loaded = load_score_table(tmp_path / "action_scores.npz")
        for got in (t, loaded):
            assert np.array_equal(got.actions, kept)
            assert got.scores.tobytes() == scores.tobytes()  # bit for bit, signed zeros too
        return metrics

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("kind", _ORACLE_KINDS)
    def test_every_result_equals_the_dense_oracle(self, kind, seed, tmp_path):
        self._check(*_oracle_case(kind, seed), tmp_path)

    @pytest.mark.parametrize("kind", _ORACLE_KINDS)
    def test_a_rank_read_off_the_kept_pairs_is_exact_below_the_width(self, kind, tmp_path,
                                                                     monkeypatch):
        monkeypatch.setattr(scoring, "_TOPK", (1, 5, 100))
        metrics = self._check(*_oracle_case(kind, 0), tmp_path)
        assert set(metrics["reweighted"]) == {"top1", "top5", "top100"}

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_the_support_is_width_case_neither_partitions_nor_fills(self, seed):
        # Every row has exactly 100 positive scores, all on the support: the
        # traffic of the score workload, whose support is 100 pairs.
        pv, pn, prior, _ = _oracle_case("support-is-width", seed)
        assert np.count_nonzero(prior.mu) == 100
        positive = np.count_nonzero(reweight_actions(pv, pn, prior) > 0, axis=(1, 2))
        assert (positive == 100).all()

    def test_a_rounding_tie_outside_the_candidate_block_is_ranked_densely(self, tmp_path):
        # Six verbs whose scores differ in the 12th digit, times one subnormal
        # noun score: every product rounds to the same subnormal.  Verb 0 has
        # the lowest score, so it lies outside the top-5 verbs, yet its pair
        # ties with the true pair (1, 0) and wins on index: the true rank is 1,
        # while the candidate block alone counts 0 pairs ahead.
        pv = np.array([[1.0 + i * 1e-12 for i in range(6)]])
        pn = np.array([[1e-320]])
        assert len(set((pv[0] * pn[0, 0]).tolist())) == 1
        labels = np.array([[1, 0]])
        with mock.patch.object(scoring, "label_ranks", wraps=label_ranks) as ranks:
            metrics = self._check(pv, pn, ActionPrior(mu=np.ones((6, 1))), labels, tmp_path)
        assert ranks.call_count >= 1  # the dense fallback ran
        assert metrics["plain"] == {"top1": 0.0, "top5": 1.0}

    def test_the_challenge_vocabulary_allocates_no_dense_block(self):
        # 125 x 352 pairs, 20 nouns per verb, 500 rows: one dense float64
        # block is 176 MB.  The peak stays below a quarter of it.
        verbs, nouns, rows = 125, 352, 500
        rng = np.random.default_rng(13)
        mu = np.zeros((verbs, nouns))
        for v in range(verbs):
            mu[v, rng.choice(nouns, 20, replace=False)] = 1 / (20 * verbs)
        labels = np.stack([rng.integers(verbs, size=rows), rng.integers(nouns, size=rows)], 1)
        bank = labeled_bank(labels.tolist(), verbs, nouns)
        vt = table(rng.dirichlet(np.ones(verbs), rows), "verb")
        nt = table(rng.dirichlet(np.ones(nouns), rows), "noun")
        tracemalloc.start()
        try:
            t, _, _ = score_actions_for_bank(vt, nt, ActionPrior(mu), bank)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert t.actions.shape == (rows, 100)
        assert peak < rows * verbs * nouns * 8 / 4, peak


class TestActionIndex:
    def test_roundtrip(self):
        # the action space is verb-major: pair (v, n) is action v * nouns + n,
        # in the action table and in the labels its accuracy is scored against
        pairs = [(v, n) for v in range(3) for n in range(5)]
        bank = labeled_bank(pairs, verb_vocab=3, noun_vocab=5)
        vt = table(np.eye(3)[[v for v, _ in pairs]], space="verb")
        nt = table(np.eye(5)[[n for _, n in pairs]], space="noun")
        actions, metrics, _ = score_actions_for_bank(vt, nt, ActionPrior(mu=np.ones((3, 5))), bank)
        for row, scores, pair in zip(actions.actions, actions.scores, pairs):
            assert divmod(int(row[np.argmax(scores)]), 5) == pair
        assert metrics["plain"]["top1"] == 1.0


class TestTableLabels:
    def test_rows_follow_the_table_not_the_bank(self):
        bank = labeled_bank([(0, 1), (2, 3), (1, 0)])
        labels = table_labels(table(np.ones((3, 4)), ids=["s2", "s0", "s1"]), bank)
        assert labels.tolist() == [[1, 0], [0, 1], [2, 3]]
        assert table_labels(table(np.ones((0, 4))), bank).shape == (0, 2)

    def test_empty_bank_is_not_present(self):
        with pytest.raises(ValidationError, match="segment 's0' not present in the bank"):
            table_labels(table(np.ones((1, 4))), labeled_bank([]))

    @pytest.mark.parametrize("ids,message", [
        (["s0", "zz", "s1"], "segment 'zz' not present in the bank"),
        (["s0", "s1", "zz"], "segment 's1' lacks verb/noun labels"),
    ])
    def test_first_faulty_row_in_table_order(self, ids, message):
        bank = labeled_bank([(0, 0), (1, None)])
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            table_labels(table(np.ones((3, 4)), ids=ids), bank)


class TestFileFormats:
    def test_prior_roundtrip(self, tmp_path):
        prior = compute_prior(labeled_bank([(0, 0), (0, 0), (1, 2), (0, 1)]))
        path = tmp_path / "prior.npz"
        save_prior(prior, path)
        loaded = load_prior(path, 4, 4)
        assert np.array_equal(loaded.mu, prior.mu)

    def test_a_prior_zip_is_the_codec_layout_and_np_load_opens_it(self, tmp_path):
        mu = np.array([[0.0, 0.25, 0.0, 0.25], [0.0, 0.0, 0.0, 0.0], [0.5, 0.0, 0.0, 0.0]])
        path = tmp_path / "prior.npz"
        save_prior(ActionPrior(mu), path)
        assert path.read_bytes() == reference_zip({
            "header": np.array([3, 4], dtype=np.int64), "mu": mu,
            "ids": np.zeros(0, dtype=np.uint8)})
        with np.load(path, allow_pickle=False) as npz:
            assert npz.files == ["header", "mu", "ids"]
            assert npz["mu"].tobytes() == mu.tobytes()
        copy = tmp_path / "copy.npz"
        save_prior(ActionPrior(mu.copy()), copy)
        assert copy.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("header,shape,vocab", [
        ([4, 4], (4, 4), (4, 5)), ([4, 5], (4, 4), (4, 4)), ([4, 4], (4, 5), (4, 4)),
        ([4, 4], (4, 4), (10**9, 10**9)),
    ], ids=["another vocab", "header of another vocab", "mu of another shape", "huge vocab"])
    def test_a_prior_of_another_vocab_is_rejected_naming_the_file(self, tmp_path, header,
                                                                   shape, vocab):
        # The one comparison that replaced the text format's per-line id,
        # range and duplicate checks; no dense mu is allocated first.
        path = tmp_path / "prior.npz"
        path.write_bytes(reference_zip({"header": np.array(header, dtype=np.int64),
                                        "mu": np.full(shape, 0.05),
                                        "ids": np.zeros(0, dtype=np.uint8)}))
        with pytest.raises(ValidationError) as exc:
            load_prior(path, *vocab)
        assert str(exc.value) == (f"{path}: prior header {header} with mu shaped {shape} is "
                                  f"not vocab {vocab[0]}x{vocab[1]}")

    @pytest.mark.parametrize("value", [np.nan, np.inf, -0.5, 0.0])
    def test_a_mu_the_prior_rejects_is_an_error_naming_the_file(self, tmp_path, value):
        # ActionPrior's check is the only value check of a loaded prior.
        mu = np.zeros((2, 3)) if value == 0.0 else np.array([[0.5, value, 0], [0, 0, 0.5]])
        path = tmp_path / "prior.npz"
        path.write_bytes(reference_zip({"header": np.array([2, 3], dtype=np.int64), "mu": mu,
                                        "ids": np.zeros(0, dtype=np.uint8)}))
        with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}: prior mu must be "):
            load_prior(path, 2, 3)

    @pytest.mark.parametrize("data", [b"0 0 0.5\n0 1 0.5\n", b"", b"0 0 0.5\xff\n"],
                             ids=["text prior", "empty", "not utf-8"])
    def test_an_earlier_builds_text_prior_is_rejected(self, tmp_path, data):
        path = tmp_path / "prior.txt"
        path.write_bytes(data)
        with pytest.raises(ValidationError) as exc:
            load_prior(path, 2, 2)
        assert str(exc.value) == f"{path}: not a prior zip"

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs resource limits in a child")
    def test_a_cut_prior_save_leaves_the_old_file(self, tmp_path):
        # A cut zip fails to load, and the save leaves the old file whole.
        path = tmp_path / "prior.npz"
        save_prior(dense_prior({(0, 1): 1.0}, 20, 40), path)
        old = path.read_bytes()
        child = subprocess.run([sys.executable, "-c", """if True:
            import resource, sys
            import numpy as np
            from gatedfusion.scoring import ActionPrior, save_prior
            prior = ActionPrior(mu=np.full((20, 40), 1 / 3))
            resource.setrlimit(resource.RLIMIT_FSIZE, (4096, 4096))
            try:
                save_prior(prior, sys.argv[1])
            except OSError:
                sys.exit(3)
            """, str(path)], env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
            timeout=60)
        assert child.returncode == 3
        assert path.read_bytes() == old
        assert os.listdir(tmp_path) == ["prior.npz"]
        assert np.array_equal(load_prior(path, 20, 40).mu, dense_prior({(0, 1): 1.0}, 20, 40).mu)

    def test_score_table_roundtrip(self, tmp_path):
        rng = np.random.default_rng(8)
        t = ScoreTable(segment_ids=["a", "b"], scores=rng.normal(size=(2, 6)) * 1e-7,
                       space="action", verb_classes=2, noun_classes=3, actions=every_pair(2, 6))
        path = tmp_path / "scores.txt"
        save_score_table(t, path)
        loaded = load_score_table(path)
        assert loaded.segment_ids == t.segment_ids
        assert loaded.scores.tobytes() == t.scores.tobytes()
        assert loaded.actions.tobytes() == t.actions.tobytes()
        assert loaded.space == "action"
        assert (loaded.verb_classes, loaded.noun_classes) == (2, 3)

    @settings(max_examples=200, deadline=None)
    @given(ids=st.lists(st.text(st.characters(exclude_categories=()), max_size=3)
                        | st.sampled_from(["", "a b", "\ud800", "\udfff", "\x00", "é",
                                           "\U0001f600", "\x1c", "\u2028", "\x85"]),
                        max_size=4, unique=True))
    def test_an_id_a_bank_accepts_round_trips_through_a_table(self, ids):
        # One id rule: a table holds exactly the ids that a bank takes, and
        # rejects the others with the bank's message.
        records = [SegmentRecord(seg_id, np.zeros(1), 0) for seg_id in ids]
        try:
            FeatureBank.from_records(records, dim_v=1, dim_o=1, verb_vocab_size=1,
                                     noun_vocab_size=1)
        except ValidationError as exc:
            with pytest.raises(ValidationError, match=f"^{re.escape(str(exc))}$"):
                ScoreTable(segment_ids=ids, scores=np.zeros((len(ids), 2)), space="verb")
            return
        t = ScoreTable(segment_ids=ids, scores=np.arange(2.0 * len(ids)).reshape(-1, 2) / 3,
                       space="verb")
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "scores.txt"
            save_score_table(t, path)
            loaded = load_score_table(path)
        assert loaded.segment_ids == tuple(ids)
        assert loaded.scores.tobytes() == t.scores.tobytes()

    @pytest.mark.parametrize("score", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_score_in_a_zip_is_rejected_naming_the_file(self, tmp_path, score):
        path = tmp_path / "scores.npz"
        path.write_bytes(reference_zip({
            "header": np.array([2, -1], dtype=np.int64),
            "scores": np.array([[0.5, 0.5], [0.5, score]]),
            "ids": np.frombuffer(b"a\nb\n", dtype=np.uint8)}))
        with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}: score table "
                                                  f"contains non-finite entries$"):
            load_score_table(path)


class TestActionPriorContract:
    @pytest.mark.parametrize("mu,counts", [
        (np.array([[np.nan, 0.5]]), None),
        (np.array([[-0.5, 0.5]]), None),
        (np.array([[np.inf, 0.5]]), None),
        (np.zeros((2, 3)), None),
        (np.zeros((0, 3)), None),
        (np.array([0.5, 0.5]), None),
        (np.array([[1, 0]]), None),
        ([[0.5, 0.5]], None),
        (np.array([[0.5, 0.5]]), np.array([[1.0, 1.0]])),
        (np.array([[0.5, 0.5]]), np.array([1, 1])),
    ], ids=["nan", "negative", "inf", "all zero", "no rows", "1-D", "int64 mu", "list mu",
            "float counts", "counts of another shape"])
    def test_a_prior_that_would_not_load_fails_to_build(self, mu, counts):
        with pytest.raises(ValidationError, match="^prior (mu|counts) must be"):
            ActionPrior(mu=mu, counts=counts)

    @settings(max_examples=200, deadline=None)
    @given(mu=hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=4),
                         elements=st.just(-0.0) | st.floats(min_value=0.0, allow_nan=False,
                                                            allow_infinity=False)))
    def test_every_prior_that_builds_saves_and_loads_back(self, mu):
        # Zeros of either sign, subnormals and the largest floats included.
        try:
            prior = ActionPrior(mu=mu)
        except ValidationError:
            assert not mu.any()
            reject()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "prior.npz"
            save_prior(prior, path)
            loaded = load_prior(path, *mu.shape)
        assert loaded.mu.tobytes() == prior.mu.tobytes()


def _score_columns(draw, rows: int, elements) -> list[float]:
    """One column of ``rows`` scores: +0.0 in every row, -0.0 in every row,
    zeros of both signs, zero in only some rows, or free values."""
    kind = draw(st.sampled_from(["+0", "-0", "+-0", "some zeros", "free"]))
    if kind == "+0":
        return [0.0] * rows
    if kind == "-0":
        return [-0.0] * rows
    if kind == "+-0":
        return draw(st.lists(st.sampled_from([0.0, -0.0]), min_size=rows, max_size=rows))
    if kind == "some zeros":
        return draw(st.lists(st.one_of(st.just(0.0), elements), min_size=rows, max_size=rows))
    return draw(st.lists(elements, min_size=rows, max_size=rows))


_EDGE_FLOATS = [5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, 1e-300, 1e300,
                1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1.0, 1e16, 1e-5]


# Ids are drawn from these characters, of one to four UTF-8 bytes, and one
# id of a row may be replaced by one that breaks the id rule or repeats.
_ID_CHARS = "ab\x00é\U0001f600"
_RULE_BREAKING_IDS = ["", "a b", "\x1c", "\u2028", "\x85", "\ud800"]


@st.composite
def score_tables(draw) -> dict:
    """The arguments of a ``ScoreTable``, which may not build: any space (an
    action table with a drawn verb x noun split, keeping every pair), ids
    that may break the id rule or repeat, and float32 or float64 scores."""
    float32 = draw(st.booleans())
    if float32:
        elements = st.floats(width=32, allow_nan=False, allow_infinity=False)
    else:
        elements = st.one_of(st.sampled_from(_EDGE_FLOATS),
                             st.floats(allow_nan=False, allow_infinity=False))
    space, rows = draw(st.sampled_from(SCORE_SPACES)), draw(st.integers(0, 5))
    split = {}
    if space == "action":
        split = {"verb_classes": draw(st.integers(0, 3)), "noun_classes": draw(st.integers(0, 3))}
        cols = split["verb_classes"] * split["noun_classes"]
        split["actions"] = every_pair(rows, cols)  # at most 9 pairs: a table keeps them all
    else:
        cols = draw(st.integers(0, 9))
    scores = np.zeros((rows, cols), dtype=np.float32 if float32 else np.float64)
    for j in range(cols):
        scores[:, j] = _score_columns(draw, rows, elements)
    if draw(st.booleans()):
        scores = np.asfortranarray(scores)
    ids = draw(st.lists(st.text(st.sampled_from(_ID_CHARS), min_size=1, max_size=2),
                        min_size=rows, max_size=rows))
    if rows and draw(st.booleans()):
        ids[draw(st.integers(0, rows - 1))] = draw(st.sampled_from(_RULE_BREAKING_IDS + ids))
    return {"segment_ids": ids, "scores": scores, "space": space, **split}


class TestScoreTableWriter:
    """Every table saves as one zip layout, which loads back bit for bit."""

    @pytest.mark.parametrize("space,header", [("verb", [0, -1]), ("noun", [-1, 0])])
    def test_a_zero_class_zip_keeps_its_space(self, space, header, tmp_path):
        # -1, not 0, marks the axis a table lacks: a 0-class table keeps its space.
        t = ScoreTable(segment_ids=["a", "b"], scores=np.zeros((2, 0)), space=space)
        path = tmp_path / "scores.txt"
        save_score_table(t, path)
        with np.load(path, allow_pickle=False) as npz:
            assert npz["header"].tolist() == header
        loaded = load_score_table(path)
        assert (loaded.space, loaded.segment_ids, loaded.scores.shape) == (space, ("a", "b"),
                                                                            (2, 0))

    @settings(max_examples=200, deadline=None)
    @given(score_tables())
    def test_a_table_that_builds_loads_back_bit_for_bit(self, args):
        # One contract: a table of any space either fails to build, or every
        # save of it loads back.
        try:
            t = ScoreTable(**args)
        except ValidationError:
            return
        assert args["scores"].dtype == np.float64  # a float32 block never builds
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "table"
            save_score_table(t, path)
            loaded = load_score_table(path)
        assert loaded.segment_ids == t.segment_ids and loaded.space == t.space
        assert ((loaded.classes, loaded.verb_classes, loaded.noun_classes)
                == (t.classes, t.verb_classes, t.noun_classes))
        assert loaded.scores.dtype == np.float64
        assert loaded.scores.tobytes() == t.scores.tobytes()
        if t.space == "action":
            assert loaded.actions.tobytes() == t.actions.tobytes()
        else:
            assert loaded.actions is None


# What each ``damage_zip`` kind makes the score-table loader say after "<path>: ".
_ACTION_ZIP_FAULTS = {
    "truncated": "not a readable score table zip: File is not a zip file",
    "flipped": "not a readable score table zip: Bad CRC-32 for file 'scores.npy'",
    "missing": "score table members are ['header.npy', 'actions.npy', 'ids.npy'], not [",
    "extra": "score table members are [",
    "renamed": "score table members are ['header.npy', 'counts.npy', 'actions.npy', "
               "'ids.npy'], not [",
    "out-of-order": "score table members are ['header.npy', 'actions.npy', 'scores.npy', "
                    "'ids.npy'], not [",
    "deflated": "score table member header.npy is compressed",
    "object": "not a readable score table zip: Object arrays cannot be loaded when "
              "allow_pickle=False",
    "huge-shape": "not a readable score table zip: ",
    "wrong-dtype": "score table member scores.npy must be an array of float64, got float32",
    "big-endian": "score table member scores.npy must be an array of float64, got >f8",
    "trailing-bytes": "score table member scores.npy has bytes after its array",
    "short-block": "score table: 3 ids but scores shaped (2, 6)",
    "rule-breaking-id": "segment_id 'a b' must be a non-empty str with no whitespace",
    "repeated-id": "duplicate segment_id 'é'",
    "ids-without-newline": "score table ids member does not end with a newline",
    "header-shape": "score table header or ids member is not flat",
    "python-2-header": "not a readable score table zip: Reading `.npy` or `.npz` file "
                       "required additional header parsing",
}


def _sparse_action_table():
    """30 rows of re-weighted scores, where pairs outside the prior's support
    are +0.0 in every row."""
    rng = np.random.default_rng(11)
    pairs = [(v, n) for v in range(4) for n in rng.choice(6, size=2, replace=False)]
    prior = compute_prior(labeled_bank(pairs, verb_vocab=4, noun_vocab=6))
    scores = reweight_actions(rng.dirichlet(np.ones(4), 30), rng.dirichlet(np.ones(6), 30),
                              prior).reshape(30, 24)
    assert (scores == 0).all(axis=0).sum() == 16
    return table(scores, space="action", verb_classes=4, noun_classes=6,
                 actions=every_pair(30, 24))


def _edge_action_table():
    """Signed zeros, the least subnormal and ids of one to four UTF-8 bytes."""
    return table([[-0.0, 5e-324, 0.0, -5e-324, 1e30, 0.1],
                  [0.0, -0.0, 2.5, 1 / 3, -1e-300, 7.0],
                  [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]],
                 space="action", ids=["é", "\U0001f600", "a\x00b"], verb_classes=2,
                 noun_classes=3, actions=every_pair(3, 6))


def _top_action_table():
    """Two rows of a 12 x 10 vocab, which keep 100 of its 120 pairs each."""
    rng = np.random.default_rng(12)
    actions = np.sort(np.stack([rng.choice(120, 100, replace=False) for _ in range(2)]), axis=1)
    return table(rng.uniform(size=(2, 100)), space="action", ids=["a", "b"], verb_classes=12,
                 noun_classes=10, actions=actions)


class TestActionZip:
    """An action table is saved as the zip of the bank's codec, as verb and
    noun tables are, and any fault in it is a ValidationError naming the
    file."""

    @pytest.mark.parametrize("make", [_edge_action_table, _sparse_action_table,
                                      _top_action_table], ids=["edges", "sparse", "top-100"])
    def test_load_score_table_and_np_load_return_the_table(self, tmp_path, make):
        t = make()
        path = tmp_path / "action_scores.npz"
        save_score_table(t, path)
        assert path.read_bytes().startswith(b"PK\x03\x04")
        loaded = load_score_table(path)
        assert loaded.space == "action" and loaded.segment_ids == t.segment_ids
        assert (loaded.verb_classes, loaded.noun_classes) == (t.verb_classes, t.noun_classes)
        assert loaded.scores.dtype == np.float64 and loaded.actions.dtype == np.int64
        assert loaded.scores.tobytes() == t.scores.tobytes()
        assert loaded.actions.tobytes() == t.actions.tobytes()
        with np.load(path, allow_pickle=False) as npz:
            assert npz.files == ["header", "scores", "actions", "ids"]
            assert npz["header"].tolist() == [t.verb_classes, t.noun_classes]
            assert npz["scores"].tobytes() == t.scores.tobytes()
            assert npz["actions"].tobytes() == t.actions.tobytes()
            assert npz["ids"].tobytes().decode("utf-8") == "".join(
                seg_id + "\n" for seg_id in t.segment_ids)

    def test_equal_tables_give_equal_bytes(self, tmp_path):
        t = _edge_action_table()
        save_score_table(t, tmp_path / "a.npz")
        save_score_table(t, tmp_path / "b.npz")
        fortran = table(np.asfortranarray(t.scores), space="action", ids=t.segment_ids,
                        verb_classes=2, noun_classes=3, actions=np.asfortranarray(t.actions))
        save_score_table(fortran, tmp_path / "c.npz")
        first = (tmp_path / "a.npz").read_bytes()
        assert (tmp_path / "b.npz").read_bytes() == first
        assert (tmp_path / "c.npz").read_bytes() == first
        ids = "".join(seg_id + "\n" for seg_id in t.segment_ids).encode("utf-8")
        assert first == reference_zip({"header": np.array([2, 3], dtype=np.int64),
                                       "scores": t.scores, "actions": t.actions,
                                       "ids": np.frombuffer(ids, dtype=np.uint8)})

    def test_an_earlier_builds_dense_action_zip_is_rejected(self, tmp_path):
        # No shim: the dense zip of every pair, with no actions member, is
        # refused as checkpoint v1 and text action tables are.
        path = tmp_path / "action_scores.npz"
        path.write_bytes(reference_zip({"header": np.array([2, 3], dtype=np.int64),
                                        "scores": np.full((1, 6), 1 / 6),
                                        "ids": np.frombuffer(b"a\n", dtype=np.uint8)}))
        with pytest.raises(ValidationError, match=re.escape(
                f"{path}: score table members are ['header.npy', 'scores.npy', 'ids.npy'], "
                f"not ['header.npy', 'scores.npy', 'actions.npy', 'ids.npy']")):
            load_score_table(path)

    @pytest.mark.parametrize("actions,message", [
        (np.array([[0, 1, 2, 3, 4, 5]], dtype=np.int32),
         "score table member actions.npy must be an array of int64, got int32"),
        (np.array([[0, 1, 2, 3, 5, 4]]), "action table: each actions row must be strictly "
                                         "ascending within [0, 6)"),
        (np.array([[0, 1, 2, 3, 4, 6]]), "action table: each actions row must be strictly "
                                         "ascending within [0, 6)"),
        (np.array([[-1, 1, 2, 3, 4, 5]]), "action table: each actions row must be strictly "
                                          "ascending within [0, 6)"),
        (np.array([[0, 1, 1, 3, 4, 5]]), "action table: each actions row must be strictly "
                                         "ascending within [0, 6)"),
        (np.arange(5).reshape(1, 5), "action table: actions must be an int64 array shaped "
                                     "(1, 6)"),
    ], ids=["int32", "descending", "past-the-vocab", "negative", "repeated", "short"])
    def test_an_actions_block_that_breaks_the_contract_is_rejected(self, tmp_path, actions,
                                                                  message):
        path = tmp_path / "action_scores.npz"
        path.write_bytes(reference_zip({"header": np.array([2, 3], dtype=np.int64),
                                        "scores": np.full((1, 6), 1 / 6), "actions": actions,
                                        "ids": np.frombuffer(b"a\n", dtype=np.uint8)}))
        with pytest.raises(ValidationError, match=f"^{re.escape(f'{path}: {message}')}$"):
            load_score_table(path)

    @pytest.mark.parametrize("tail", [b"", b"\xff\n"], ids=["utf-8", "not utf-8"])
    def test_an_earlier_builds_text_action_table_is_rejected(self, tmp_path, tail):
        path = tmp_path / "action_scores.txt"
        path.write_bytes(b'{"space":"action","classes":6,"verb_classes":2,"noun_classes":3}\n'
                         b'a 0.5 0.0 0.0 0.0 0.0 0.5\n' + tail)
        with pytest.raises(ValidationError,
                           match=f"^{re.escape(str(path))}: not a score table zip$"):
            load_score_table(path)

    @pytest.mark.parametrize("kind", ZIP_DAMAGE)
    def test_unusable_zip_is_a_fault_naming_the_file(self, tmp_path, kind):
        path = tmp_path / "action_scores.npz"
        save_score_table(_edge_action_table(), path)
        damage_zip(path, kind)
        with pytest.raises(ValidationError) as exc:
            load_score_table(path)
        assert str(exc.value).startswith(f"{path}: {_ACTION_ZIP_FAULTS[kind]}")


class TestScoreTableInvariants:
    def test_space_validation(self):
        with pytest.raises(ValidationError):
            ScoreTable(segment_ids=["a"], scores=np.zeros((1, 2)), space="thing")

    def test_action_tables_declare_vocab_split(self):
        with pytest.raises(ValidationError):
            ScoreTable(segment_ids=["a"], scores=np.zeros((1, 6)), space="action")
        with pytest.raises(ValidationError):
            ScoreTable(segment_ids=["a"], scores=np.zeros((1, 6)), space="action",
                       verb_classes=2, noun_classes=2)

    @pytest.mark.parametrize("verbs,nouns", [(-2, -3), (0, 0), (2, 0)])
    def test_action_vocab_split_is_positive(self, verbs, nouns):
        # (-2) x (-3) matches 6 columns, so only this check stops the writer
        with pytest.raises(ValidationError, match="must be >= 1"):
            ScoreTable(segment_ids=["a"], scores=np.zeros((1, verbs * nouns)), space="action",
                       verb_classes=verbs, noun_classes=nouns)

    def test_row_alignment(self):
        with pytest.raises(ValidationError):
            ScoreTable(segment_ids=["a", "b"], scores=np.zeros((1, 2)), space="verb")

    @pytest.mark.parametrize("space", ["verb", "noun"])
    def test_a_verb_or_noun_table_holds_no_actions(self, space):
        with pytest.raises(ValidationError, match=f"^{space} tables hold no actions$"):
            ScoreTable(["a"], np.zeros((1, 6)), space, actions=every_pair(1, 6))

    @pytest.mark.parametrize("verbs,nouns,width", [(2, 3, 6), (10, 10, 100), (12, 10, 100),
                                                   (1, 101, 100)])
    def test_an_action_table_keeps_at_most_100_pairs_per_row(self, verbs, nouns, width):
        actions = every_pair(2, width)
        t = ScoreTable(["a", "b"], np.zeros((2, width)), "action", verbs, nouns, actions)
        assert t.actions is actions and not actions.flags.writeable  # no copy
        with pytest.raises(ValidationError, match=re.escape(
                f"action table: {verbs}x{nouns} pairs keep {width} per row, but scores have "
                f"{width + 1} columns")):
            ScoreTable(["a", "b"], np.zeros((2, width + 1)), "action", verbs, nouns,
                       every_pair(2, width + 1))

    @pytest.mark.parametrize("actions", [
        None, every_pair(1, 6).astype(np.int32), every_pair(1, 6).astype(np.float64),
        every_pair(1, 6).tolist(), every_pair(2, 6), np.arange(6)],
        ids=["none", "int32", "float64", "list", "two-rows", "1-D"])
    def test_an_action_table_needs_an_int64_actions_block_shaped_like_its_scores(self,
                                                                                 actions):
        with pytest.raises(ValidationError, match=re.escape(
                "action table: actions must be an int64 array shaped (1, 6)")):
            ScoreTable(["a"], np.zeros((1, 6)), "action", 2, 3, actions)

    @pytest.mark.parametrize("row", [[0, 1, 2, 3, 5, 4], [0, 0, 2, 3, 4, 5],
                                     [-1, 1, 2, 3, 4, 5], [0, 1, 2, 3, 4, 6]],
                             ids=["descending", "repeated", "negative", "past-the-vocab"])
    def test_each_actions_row_is_strictly_ascending_within_the_vocab(self, row):
        with pytest.raises(ValidationError, match=re.escape(
                "action table: each actions row must be strictly ascending within [0, 6)")):
            ScoreTable(["a", "b"], np.zeros((2, 6)), "action", 2, 3,
                       np.array([list(range(6)), row], dtype=np.int64))

    @pytest.mark.parametrize("scores", [
        np.array([[1 + 2j, 0.5]]), np.array([[1, 0]]), np.array([[0.5, 0.5]], dtype=np.float32),
        np.array([[0.5, 0.5]], dtype=object), [[0.5, 0.5]],
    ], ids=["complex", "int64", "float32", "object", "list"])
    def test_scores_other_than_a_float64_array_fail_to_build(self, scores):
        # Each once built and saved a cast that loaded back unequal, or raised
        # numpy's raw TypeError (object) or an AttributeError (list).
        with pytest.raises(ValidationError,
                           match=r"^score table: scores must be a float64 array$"):
            ScoreTable(["a"], scores, "verb")

    @pytest.mark.parametrize("space,counts,message", [
        ("action", (1.5, 4), "action tables must declare verb_classes and noun_classes"),
        ("action", (2, 3.0), "action tables must declare verb_classes and noun_classes"),
        ("action", (True, 6), "action tables must declare verb_classes and noun_classes"),
        ("verb", (6, None), "verb tables declare no verb_classes or noun_classes"),
        ("verb", (None, 7), "verb tables declare no verb_classes or noun_classes"),
        ("noun", (1, 6), "noun tables declare no verb_classes or noun_classes"),
    ], ids=["action-1.5x4", "action-2x3.0", "action-True", "verb-6", "verb-7-nouns", "noun-1x6"])
    def test_class_counts_that_would_not_load_back_fail_to_build(self, space, counts, message):
        # 1.5 x 4 == 6 once built and saved a [1, 4] header that did not
        # load, True once loaded back as 1, and a verb or noun table's counts
        # once loaded back as None.
        with pytest.raises(ValidationError, match=f"^{message}$"):
            ScoreTable(["a"], np.zeros((1, 6)), space, *counts)

    @pytest.mark.parametrize("ids,message", [
        (["a b"], "segment_id 'a b' must be a non-empty str with no whitespace or lone surrogate"),
        (["a", "b", "a"], "duplicate segment_id 'a'")])
    @pytest.mark.parametrize("space,classes", [("verb", 2), ("noun", 2), ("action", 4)])
    def test_a_bad_id_fails_to_build(self, ids, message, space, classes):
        split = {"verb_classes": 2, "noun_classes": 2} if space == "action" else {}
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            ScoreTable(segment_ids=ids, scores=np.zeros((len(ids), classes)), space=space,
                       **split)

    def test_ids_are_checked_only_by_the_bank_and_score_table(self):
        # One id rule: segment_id_fault is used in bank.py alone, and the
        # check of a whole id list by bank._validate and ScoreTable alone.
        uses = {"segment_id_fault": set(), "_id_fault": set()}

        def visit(node, module, scope):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                scope = f"{scope}.{node.name}" if scope else node.name
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute) else None)
            if name in uses:
                uses[name].add((module, scope))
            for child in ast.iter_child_nodes(node):
                visit(child, module, scope)

        for path in sorted(Path(scoring.__file__).parent.glob("*.py")):
            visit(ast.parse(path.read_text(encoding="utf-8")), path.name, None)
        assert {module for module, _ in uses["segment_id_fault"]} == {"bank.py"}
        assert uses["_id_fault"] == {("bank.py", "_validate"),
                                     ("scoring.py", "ScoreTable.__post_init__")}


def _table_built(how: str, tmp_path) -> ScoreTable:
    """A two-row verb table built ``how``, from an id list and a writable block."""
    ids, scores = ["a", "b"], np.array([[0.25, 0.75], [0.5, 0.5]])
    if how == "constructor":
        built = ScoreTable(ids, scores, "verb")
        assert built.scores is scores  # no copy
        return built
    if how == "replace":
        return dataclasses.replace(table([[1.0, 0.0]] * 2), segment_ids=ids, scores=scores)
    path = tmp_path / "scores.npz"
    save_score_table(ScoreTable(ids, scores, "verb"), path)
    return load_score_table(path)


def _prior_built(how: str, tmp_path) -> ActionPrior:
    """A prior built ``how``: with counts when counted from a bank."""
    if how == "compute_prior":
        return compute_prior(labeled_bank([(0, 0), (1, 2)]))
    mu = np.array([[0.5, 0.0], [0.0, 0.5]])
    if how == "constructor":
        built = ActionPrior(mu, np.array([[1, 0], [0, 1]]))
        assert built.mu is mu  # no copy
        return built
    if how == "replace":
        return dataclasses.replace(compute_prior(labeled_bank([(0, 0)])), mu=mu,
                                   counts=np.array([[1, 0], [0, 1]]))
    path = tmp_path / "prior.npz"
    save_prior(ActionPrior(mu), path)
    return load_prior(path, 2, 2)


class TestFrozenValues:
    @pytest.mark.parametrize("how", ["constructor", "replace", "zip"])
    def test_a_table_cannot_change_however_it_is_built(self, tmp_path, how):
        t = _table_built(how, tmp_path)
        assert t.segment_ids == ("a", "b") and not t.scores.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            t.scores[0, 0] = 1.0
        with pytest.raises(TypeError):
            t.segment_ids[0] = "c"
        for f in dataclasses.fields(t):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(t, f.name, getattr(t, f.name))

    def test_an_action_tables_actions_cannot_change(self, tmp_path):
        t = _edge_action_table()
        path = tmp_path / "action_scores.npz"
        save_score_table(t, path)
        for built in (t, load_score_table(path)):
            with pytest.raises(ValueError, match="read-only"):
                built.actions[0, 0] = 1

    @pytest.mark.parametrize("how", ["constructor", "replace", "compute_prior", "load_prior"])
    def test_a_prior_cannot_change_however_it_is_built(self, tmp_path, how):
        prior = _prior_built(how, tmp_path)
        for array in (a for a in (prior.mu, prior.counts) if a is not None):
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 1
        for f in dataclasses.fields(prior):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(prior, f.name, getattr(prior, f.name))

    @pytest.mark.parametrize("value,index,item,error", [
        (lambda: synth_generate(SynthSpec(n_segments=5), 1).labels, (0, 0), 99, ValueError),
        (lambda: table([[0.5, 0.5]] * 2).scores, (0, 0), np.nan, ValueError),
        (lambda: table([[0.5, 0.5]] * 2).segment_ids, 1, "s0", TypeError),
        (lambda: dense_prior({(0, 0): 1.0}, 2, 2).mu, (0, 0), -1.0, ValueError),
    ], ids=["bank-label-99", "table-nan-score", "table-repeated-id", "prior-negative-mu"])
    def test_an_edit_that_broke_a_checked_value_raises_at_the_edit(self, value, index, item,
                                                                    error):
        # Each once went through: the bank reached compute_prior, which raised
        # a raw IndexError, and the table and prior saved files that did not load.
        target = value()
        with pytest.raises(error):
            operator.setitem(target, index, item)
