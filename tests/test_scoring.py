import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gatedfusion.bank import FeatureBank, SegmentRecord
from gatedfusion.errors import ValidationError
from gatedfusion.scoring import (ScoreTable, action_index, compute_prior, load_prior,
                                 load_score_table, prior_from_pairs, prior_stats,
                                 reweight_actions, save_prior,
                                 save_score_table, score_actions_for_bank,
                                 topk_accuracy, uniform_prior)


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
        bank = labeled_bank([(0, 0), (1, 1)])
        bank.labels[1, 1] = -1
        prior = compute_prior(bank)
        assert prior.mu[0, 0] == 1.0

    @pytest.mark.parametrize("make", [
        lambda: compute_prior(labeled_bank([(0, 0)], verb_vocab=10**9, noun_vocab=10**9)),
        lambda: uniform_prior(10**9, 10**9),
        lambda: prior_from_pairs({(0, 0): 1.0}, 10**9, 10**9),
    ], ids=["compute_prior", "uniform_prior", "prior_from_pairs"])
    def test_vocab_too_large_for_a_dense_prior(self, make):
        # 8 EB of mu: numpy refuses it without touching memory
        with pytest.raises(ValidationError,
                           match="vocab 1000000000x1000000000 is too large for a dense prior"):
            make()

    def test_no_labels_error(self):
        bank = labeled_bank([(0, 0)])
        bank.labels[0, 0] = -1
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
        prior = prior_from_pairs({(1, 1): 1.0}, 3, 3)
        pv = np.array([0.5, 0.3, 0.2])
        pn = np.array([0.1, 0.2, 0.7])
        out = reweight_actions(pv, pn, prior)
        assert np.unravel_index(np.argmax(out), out.shape) == (1, 1)
        mask = np.zeros((3, 3), dtype=bool)
        mask[1, 1] = True
        assert np.all(out[~mask] == 0.0)

    def test_uniform_prior_keeps_product_ranking(self):
        rng = np.random.default_rng(1)
        prior = uniform_prior(3, 4)
        pv = rng.dirichlet(np.ones(3))
        pn = rng.dirichlet(np.ones(4))
        out = reweight_actions(pv, pn, prior)
        assert np.array_equal(np.argsort(out.ravel()), np.argsort(np.outer(pv, pn).ravel()))

    def test_three_by_three_brute_force(self):
        freq = {(0, 0): 0.4, (0, 2): 0.1, (1, 1): 0.3, (2, 2): 0.2}
        prior = prior_from_pairs(freq, 3, 3)
        pv = np.array([0.2, 0.5, 0.3])
        pn = np.array([0.6, 0.3, 0.1])
        out = reweight_actions(pv, pn, prior)
        for v in range(3):
            for n in range(3):
                assert out[v, n] == freq.get((v, n), 0.0) * pv[v] * pn[n]

    def test_vocab_mismatch(self):
        prior = uniform_prior(2, 2)
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

    def test_row_count_mismatch(self):
        with pytest.raises(ValidationError, match="rows"):
            reweight_actions(np.ones((3, 2)) / 2, np.ones((2, 2)) / 2, uniform_prior(2, 2))

    def test_positive_scaling_of_mu_preserves_argmax(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            pairs = {(int(rng.integers(3)), int(rng.integers(3))): float(rng.uniform(0.1, 1))
                     for _ in range(5)}
            prior = prior_from_pairs(pairs, 3, 3)
            scaled = prior_from_pairs({k: 7.3 * f for k, f in pairs.items()}, 3, 3)
            pv = rng.dirichlet(np.ones(3))
            pn = rng.dirichlet(np.ones(3))
            a = reweight_actions(pv, pn, prior)
            b = reweight_actions(pv, pn, scaled)
            assert np.argmax(a) == np.argmax(b)


class TestTopkAccuracy:
    def test_k_equals_vocab_saturates(self):
        t = table([[0.2, 0.8], [0.9, 0.1]])
        assert topk_accuracy(t, [0, 1], k=2) == 1.0

    def test_direct_definition(self):
        t = table([[0.1, 0.9]])
        assert topk_accuracy(t, [0], k=1) == 0.0
        assert topk_accuracy(t, [0], k=2) == 1.0

    def test_pessimistic_tie_break(self):
        t = table([[0.5, 0.5]])
        assert topk_accuracy(t, [0], k=1) == 1.0  # index 0 survives the tie
        assert topk_accuracy(t, [1], k=1) == 0.0  # index 1 loses it

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(3)
        scores = rng.uniform(size=(100, 12))
        labels = rng.integers(0, 12, size=100)
        t = table(scores.tolist(), ids=[f"s{i}" for i in range(100)])
        for k in (1, 5):
            expected = 0
            for row, label in zip(scores, labels):
                order = sorted(range(12), key=lambda j: (-row[j], j))
                expected += int(label in order[:k])
            assert topk_accuracy(t, labels, k) == expected / 100

    @given(st.integers(min_value=1, max_value=12))
    def test_monotone_in_k(self, k):
        rng = np.random.default_rng(4)
        scores = rng.uniform(size=(30, 12))
        labels = rng.integers(0, 12, size=30)
        t = table(scores.tolist(), ids=[f"s{i}" for i in range(30)])
        if k < 12:
            assert topk_accuracy(t, labels, k) <= topk_accuracy(t, labels, k + 1)

    def test_label_out_of_range(self):
        with pytest.raises(ValidationError):
            topk_accuracy(table([[0.5, 0.5]]), [2], k=1)

    def test_k_validation(self):
        with pytest.raises(ValidationError):
            topk_accuracy(table([[0.5, 0.5]]), [0], k=0)

    def test_scalar_label_rejected(self):
        with pytest.raises(ValidationError, match=r"labels shaped \(\) for 1 rows"):
            topk_accuracy(table([[0.5, 0.5]]), 1, k=1)


class TestScoreActionsForBank:
    def test_all_ones_prior_matches_plain(self):
        rng = np.random.default_rng(5)
        bank = labeled_bank([(0, 1), (1, 0), (2, 3)])
        vt = table([rng.dirichlet(np.ones(4)) for _ in range(3)], space="verb")
        nt = table([rng.dirichlet(np.ones(4)) for _ in range(3)], space="noun")
        prior = uniform_prior(4, 4)
        _, metrics = score_actions_for_bank(vt, nt, prior, bank)
        assert metrics["reweighted"] == metrics["plain"]

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
        _, metrics = score_actions_for_bank(vt, nt, prior, bank)
        verb_top1 = topk_accuracy(vt, [p[0] for p in pairs], 1)
        assert metrics["reweighted"]["top1"] == verb_top1
        assert 0.0 < verb_top1 < 1.0  # non-degenerate instance

    def test_confusion_on_unsupported_pairs_is_repaired(self):
        # noun confusion mass sits on pairs absent from training
        bank = labeled_bank([(0, 0), (1, 1)], verb_vocab=2, noun_vocab=3)
        prior = compute_prior(bank)
        vt = table([[0.9, 0.1], [0.1, 0.9]], space="verb")
        # true noun gets 0.4, an unsupported-for-this-verb noun gets 0.5
        nt = table([[0.4, 0.1, 0.5], [0.1, 0.4, 0.5]], space="noun")
        _, metrics = score_actions_for_bank(vt, nt, prior, bank)
        assert metrics["plain"]["top1"] == 0.0
        assert metrics["reweighted"]["top1"] == 1.0

    def test_misaligned_tables(self):
        bank = labeled_bank([(0, 0)])
        vt = table([[1.0, 0.0, 0.0, 0.0]], space="verb", ids=["s0"])
        nt = table([[1.0, 0.0, 0.0, 0.0]], space="noun", ids=["zz"])
        with pytest.raises(ValidationError, match="misaligned"):
            score_actions_for_bank(vt, nt, uniform_prior(4, 4), bank)

    def test_segment_missing_from_bank(self):
        bank = labeled_bank([(0, 0)])
        vt = table([[1.0, 0.0, 0.0, 0.0]], space="verb", ids=["nope"])
        nt = table([[1.0, 0.0, 0.0, 0.0]], space="noun", ids=["nope"])
        with pytest.raises(ValidationError, match="nope"):
            score_actions_for_bank(vt, nt, uniform_prior(4, 4), bank)


class TestActionIndex:
    def test_roundtrip(self):
        for v in range(3):
            for n in range(5):
                idx = action_index(v, n, 5)
                assert divmod(idx, 5) == (v, n)


class TestFileFormats:
    def test_prior_roundtrip(self, tmp_path):
        prior = compute_prior(labeled_bank([(0, 0), (0, 0), (1, 2), (0, 1)]))
        path = tmp_path / "prior.txt"
        save_prior(prior, path)
        loaded = load_prior(path, 4, 4)
        assert np.array_equal(loaded.mu, prior.mu)

    def test_prior_duplicate_pair(self, tmp_path):
        path = tmp_path / "prior.txt"
        path.write_text("0 0 0.5\n0 0 0.5\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="duplicate"):
            load_prior(path, 4, 4)

    def test_prior_malformed_line(self, tmp_path):
        path = tmp_path / "prior.txt"
        path.write_text("0 0\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="line 1"):
            load_prior(path, 4, 4)

    @pytest.mark.parametrize("freq", ["inf", "nan"])
    def test_prior_nonfinite_frequency_rejected(self, tmp_path, freq):
        path = tmp_path / "prior.txt"
        path.write_text(f"0 1 0.5\n0 0 {freq}\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="line 2: frequency"):
            load_prior(path, 4, 4)

    @pytest.mark.parametrize("freq", ["0", "-0.5"])
    def test_prior_nonpositive_frequency_rejected(self, tmp_path, freq):
        path = tmp_path / "prior.txt"
        path.write_text(f"0 1 0.5\n0 0 {freq}\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="line 2: frequency"):
            load_prior(path, 4, 4)

    def test_prior_negative_id_rejected(self, tmp_path):
        # a negative index into the dense matrix would wrap around silently
        path = tmp_path / "prior.txt"
        path.write_text("0 1 0.5\n-1 0 0.5\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="line 2: negative id"):
            load_prior(path, 4, 4)

    def test_prior_id_outside_vocab_rejected(self, tmp_path):
        path = tmp_path / "prior.txt"
        path.write_text("0 1 0.5\n0 4 0.5\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="line 2: pair \\(0, 4\\) out of range"):
            load_prior(path, 4, 4)

    @pytest.mark.parametrize("nouns", [1, 1001])
    def test_prior_vocab_too_large_rejected(self, tmp_path, nouns):
        # 7.28 TiB and 7.11 PiB of dense mu: a ValidationError, not a MemoryError
        path = tmp_path / "prior.txt"
        path.write_text(f"1000000000000 {nouns - 1} 0.5\n", encoding="utf-8")
        with pytest.raises(ValidationError, match=f"vocab 1000000000001x{nouns} is too large"):
            load_prior(path, 10**12 + 1, nouns)

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"])
    def test_prior_line_numbers_count_every_line_end(self, tmp_path, newline):
        path = tmp_path / "prior.txt"
        path.write_bytes(newline.join([b"0 1 0.5", b"", b"0 0 nan", b""]))
        with pytest.raises(ValidationError, match="line 3: frequency"):
            load_prior(path, 4, 4)

    def test_prior_rows_written_in_row_major_order(self, tmp_path):
        path = tmp_path / "prior.txt"
        save_prior(prior_from_pairs({(2, 0): 0.5, (0, 3): 0.25, (0, 1): 0.25}, 3, 4), path)
        assert path.read_text(encoding="utf-8") == "0 1 0.25\n0 3 0.25\n2 0 0.5\n"

    def test_score_table_roundtrip(self, tmp_path):
        rng = np.random.default_rng(8)
        t = ScoreTable(segment_ids=["a", "b"], scores=rng.normal(size=(2, 6)) * 1e-7,
                       space="action", verb_classes=2, noun_classes=3)
        path = tmp_path / "scores.txt"
        save_score_table(t, path)
        loaded = load_score_table(path)
        assert loaded.segment_ids == t.segment_ids
        assert loaded.scores.tobytes() == t.scores.tobytes()
        assert loaded.space == "action"
        assert (loaded.verb_classes, loaded.noun_classes) == (2, 3)

    def test_whitespace_id_rejected(self, tmp_path):
        t = ScoreTable(segment_ids=["a b"], scores=np.zeros((1, 2)), space="verb")
        with pytest.raises(ValidationError, match="whitespace"):
            save_score_table(t, tmp_path / "x.txt")

    @pytest.mark.parametrize("key,value", [
        ("classes", 2.9), ("classes", 2.0), ("classes", "2"), ("classes", True),
        ("verb_classes", 1.0), ("noun_classes", "2"), ("noun_classes", False)])
    def test_header_counts_must_be_integers(self, tmp_path, key, value):
        header = {"space": "action", "classes": 2, "verb_classes": 1, "noun_classes": 2}
        header[key] = value
        path = tmp_path / "scores.txt"
        path.write_text(json.dumps(header) + "\na 0.5 0.5\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="line 1: malformed score table header"):
            load_score_table(path)

    def test_wrong_column_count(self, tmp_path):
        path = tmp_path / "scores.txt"
        path.write_text('{"space":"verb","classes":3}\na 0.5 0.5\n', encoding="utf-8")
        with pytest.raises(ValidationError, match="line 2"):
            load_score_table(path)


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

    def test_row_alignment(self):
        with pytest.raises(ValidationError):
            ScoreTable(segment_ids=["a", "b"], scores=np.zeros((1, 2)), space="verb")
