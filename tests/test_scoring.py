import ast
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, reject, settings, strategies as st
from hypothesis.extra import numpy as hnp

from conftest import (ZIP_DAMAGE, damage_zip, dense_prior, reference_save_score_table,
                      reference_zip)

from gatedfusion import scoring
from gatedfusion.bank import FeatureBank, SegmentRecord
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
        lambda path: compute_prior(labeled_bank([(0, 0)], verb_vocab=10**9, noun_vocab=10**9)),
        lambda path: load_prior(path, 10**9, 10**9),
    ], ids=["compute_prior", "load_prior"])
    def test_vocab_too_large_for_a_dense_prior(self, tmp_path, make):
        # 8 EB of mu: numpy refuses it without touching memory
        path = tmp_path / "prior.txt"
        path.write_text("0 0 1.0\n", encoding="utf-8")
        with pytest.raises(ValidationError,
                           match="vocab 1000000000x1000000000 is too large for a dense prior"):
            make(path)

    def test_bad_prior_line_is_reported_before_an_oversized_vocab(self, tmp_path):
        path = tmp_path / "prior.txt"
        path.write_text("0 0 1.0\n0 1 x\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="line 2: malformed numbers"):
            load_prior(path, 10**9, 10**9)

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


class TestActionIndex:
    def test_roundtrip(self):
        # the action space is verb-major: pair (v, n) is column v * nouns + n,
        # in the action table and in the labels its accuracy is scored against
        pairs = [(v, n) for v in range(3) for n in range(5)]
        bank = labeled_bank(pairs, verb_vocab=3, noun_vocab=5)
        vt = table(np.eye(3)[[v for v, _ in pairs]], space="verb")
        nt = table(np.eye(5)[[n for _, n in pairs]], space="noun")
        actions, metrics, _ = score_actions_for_bank(vt, nt, ActionPrior(mu=np.ones((3, 5))), bank)
        for row, pair in zip(actions.scores, pairs):
            assert divmod(int(np.argmax(row)), 5) == pair
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

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs resource limits in a child")
    def test_a_cut_prior_save_leaves_the_old_file(self, tmp_path):
        # Written in place, the cut file loaded as a prior of fewer pairs.
        path = tmp_path / "prior.txt"
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
        assert os.listdir(tmp_path) == ["prior.txt"]

    def test_prior_rows_written_in_row_major_order(self, tmp_path):
        path = tmp_path / "prior.txt"
        save_prior(dense_prior({(2, 0): 0.5, (0, 3): 0.25, (0, 1): 0.25}, 3, 4), path)
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

    def test_table_lines_end_at_newline_only(self, tmp_path):
        path = tmp_path / "scores.txt"
        path.write_text('{"space":"verb","classes":2}\nab\u2028c 0.5 0.5\n', encoding="utf-8")
        with pytest.raises(ValidationError,
                           match=re.escape(f"{path}: line 2: expected id plus 2 scores, got 3")):
            load_score_table(path)

    def test_crlf_table_loads(self, tmp_path):
        t = ScoreTable(segment_ids=["a", "b"], scores=np.array([[0.25, -0.0], [1e-7, 3.0]]),
                       space="verb")
        path = tmp_path / "scores.txt"
        reference_save_score_table(t, path)
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        loaded = load_score_table(path)
        assert loaded.segment_ids == t.segment_ids
        assert loaded.scores.tobytes() == t.scores.tobytes()

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
        assert loaded.segment_ids == ids
        assert loaded.scores.tobytes() == t.scores.tobytes()

    @pytest.mark.parametrize("value", [2.9, 2.0, "2", True])
    def test_header_count_must_be_an_integer(self, tmp_path, value):
        path = tmp_path / "scores.txt"
        path.write_text(json.dumps({"space": "noun", "classes": value}) + "\na 0.5 0.5\n",
                        encoding="utf-8")
        with pytest.raises(ValidationError, match="line 1: malformed score table header"):
            load_score_table(path)

    def test_wrong_column_count(self, tmp_path):
        path = tmp_path / "scores.txt"
        path.write_text('{"space":"verb","classes":3}\na 0.5 0.5\n', encoding="utf-8")
        with pytest.raises(ValidationError, match="line 2"):
            load_score_table(path)

    def test_repeated_segment_id_rejected_with_its_line(self, tmp_path):
        # the blank line still counts toward the line numbers
        path = tmp_path / "scores.txt"
        path.write_text('{"space":"verb","classes":1}\na 0.5\nb 0.5\n\na 0.25\n',
                        encoding="utf-8")
        with pytest.raises(ValidationError, match=re.escape(
                f"{path}: line 5: segment id 'a' repeats line 2")):
            load_score_table(path)

    @pytest.mark.parametrize("score", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_score_rejected_with_its_line(self, tmp_path, score):
        # the blank line still counts toward the line numbers
        path = tmp_path / "scores.txt"
        path.write_text(f'{{"space":"verb","classes":2}}\na 0.5 0.5\n\nb 0.5 {score}\n'
                        f'c {score} 0.5\n', encoding="utf-8")
        with pytest.raises(ValidationError, match=re.escape(f"{path}: line 4: non-finite score")):
            load_score_table(path)

    def test_a_line_fault_is_found_before_a_repeated_id(self, tmp_path):
        # Lines are read whole first; ScoreTable checks the rows they give.
        path = tmp_path / "scores.txt"
        rows = ["a 0.5 0.5", "a 0.5 0.5"] + [f"s{i} 0.5 0.5" for i in range(5)] + ["b 0.5"]
        path.write_text('{"space":"verb","classes":2}\n' + "\n".join(rows) + "\n",
                        encoding="utf-8")
        with pytest.raises(ValidationError, match=re.escape(
                f"{path}: line 9: expected id plus 2 scores, got 1")):
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
            path = Path(tmp) / "prior.txt"
            save_prior(prior, path)
            loaded = load_prior(path, *mu.shape)
        assert np.array_equal(loaded.mu, prior.mu)


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
    action table with a drawn verb x noun split), ids that may break the id
    rule or repeat, and float32 or float64 scores."""
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
    """Every table saves as one zip layout, and a verb or noun table written
    as text, one ``repr`` per float, loads back too."""

    @settings(deadline=None)
    @given(score_tables())
    def test_a_text_table_loads_back_bit_for_bit(self, args):
        # The text an earlier build's eval wrote, and a user's own model may.
        if args["space"] == "action":
            reject()
        try:
            t = ScoreTable(**args)
        except ValidationError:
            reject()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "scores.txt"
            reference_save_score_table(t, path)
            loaded = load_score_table(path)
        assert loaded.segment_ids == t.segment_ids and loaded.space == t.space
        assert loaded.scores.shape == t.scores.shape
        assert loaded.scores.tobytes() == t.scores.astype(np.float64).tobytes()

    @pytest.mark.parametrize("space,header", [("verb", [0, -1]), ("noun", [-1, 0])])
    def test_a_zero_class_zip_keeps_its_space(self, space, header, tmp_path):
        # -1, not 0, marks the axis a table lacks: a 0-class table keeps its space.
        t = ScoreTable(segment_ids=["a", "b"], scores=np.zeros((2, 0)), space=space)
        path = tmp_path / "scores.txt"
        save_score_table(t, path)
        with np.load(path, allow_pickle=False) as npz:
            assert npz["header"].tolist() == header
        loaded = load_score_table(path)
        assert (loaded.space, loaded.segment_ids, loaded.scores.shape) == (space, ["a", "b"],
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
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "table"
            save_score_table(t, path)
            loaded = load_score_table(path)
        assert loaded.segment_ids == t.segment_ids and loaded.space == t.space
        assert ((loaded.classes, loaded.verb_classes, loaded.noun_classes)
                == (t.classes, t.verb_classes, t.noun_classes))
        assert loaded.scores.dtype == np.float64
        assert loaded.scores.tobytes() == t.scores.astype(np.float64).tobytes()


# What each ``damage_zip`` kind makes the score-table loader say after "<path>: ".
_ACTION_ZIP_FAULTS = {
    "truncated": "not a readable score table zip: File is not a zip file",
    "flipped": "not a readable score table zip: Bad CRC-32 for file 'scores.npy'",
    "missing": "score table members are ['header.npy', 'ids.npy'], not [",
    "extra": "score table members are [",
    "renamed": "score table members are ['header.npy', 'counts.npy', 'ids.npy'], not [",
    "out-of-order": "score table members are ['header.npy', 'ids.npy', 'scores.npy'], not [",
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
    return table(scores, space="action", verb_classes=4, noun_classes=6)


def _edge_action_table():
    """Signed zeros, the least subnormal and ids of one to four UTF-8 bytes."""
    return table([[-0.0, 5e-324, 0.0, -5e-324, 1e30, 0.1],
                  [0.0, -0.0, 2.5, 1 / 3, -1e-300, 7.0],
                  [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]],
                 space="action", ids=["é", "\U0001f600", "a\x00b"], verb_classes=2,
                 noun_classes=3)


class TestActionZip:
    """An action table is saved as the zip of the bank's codec, as verb and
    noun tables are, and any fault in it is a ValidationError naming the
    file."""

    @pytest.mark.parametrize("make", [_edge_action_table, _sparse_action_table],
                             ids=["edges", "sparse"])
    def test_load_score_table_and_np_load_return_the_table(self, tmp_path, make):
        t = make()
        path = tmp_path / "action_scores.npz"
        save_score_table(t, path)
        assert path.read_bytes().startswith(b"PK\x03\x04")
        loaded = load_score_table(path)
        assert loaded.space == "action" and loaded.segment_ids == t.segment_ids
        assert (loaded.verb_classes, loaded.noun_classes) == (t.verb_classes, t.noun_classes)
        assert loaded.scores.dtype == np.float64
        assert loaded.scores.tobytes() == t.scores.tobytes()
        with np.load(path, allow_pickle=False) as npz:
            assert npz.files == ["header", "scores", "ids"]
            assert npz["header"].tolist() == [t.verb_classes, t.noun_classes]
            assert npz["scores"].tobytes() == t.scores.tobytes()
            assert npz["ids"].tobytes().decode("utf-8") == "".join(
                seg_id + "\n" for seg_id in t.segment_ids)

    def test_equal_tables_give_equal_bytes(self, tmp_path):
        t = _edge_action_table()
        save_score_table(t, tmp_path / "a.npz")
        save_score_table(t, tmp_path / "b.npz")
        fortran = table(np.asfortranarray(t.scores), space="action", ids=t.segment_ids,
                        verb_classes=2, noun_classes=3)
        save_score_table(fortran, tmp_path / "c.npz")
        first = (tmp_path / "a.npz").read_bytes()
        assert (tmp_path / "b.npz").read_bytes() == first
        assert (tmp_path / "c.npz").read_bytes() == first
        ids = "".join(seg_id + "\n" for seg_id in t.segment_ids).encode("utf-8")
        assert first == reference_zip({"header": np.array([2, 3], dtype=np.int64),
                                       "scores": t.scores,
                                       "ids": np.frombuffer(ids, dtype=np.uint8)})

    def test_an_earlier_builds_text_action_table_is_rejected(self, tmp_path):
        path = tmp_path / "action_scores.txt"
        reference_save_score_table(_sparse_action_table(), path)
        with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}: line 1: "
                                                  f"action tables are zips; a text table is "
                                                  f"verb or noun$"):
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
