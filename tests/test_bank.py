import ast
import dataclasses
import json
import os
import re
import subprocess
import sys
import tempfile
import time
import tracemalloc
import zipfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gatedfusion import bank as bank_module
from gatedfusion.bank import (PAIR_COUNT_THRESHOLD, AggregationConfig, Detection, FeatureBank,
                              SegmentRecord, SynthSpec, bank_features, bank_stats,
                              load_feature_bank, save_feature_bank, synth_generate)
from gatedfusion.errors import _ZIP_MAGIC, ValidationError, read_json, write_json
from gatedfusion.scoring import ScoreTable, load_score_table, save_score_table
from gatedfusion.training import ModelSpec, TrainConfig, train

from conftest import (OLD_JSON_LINES_BANK, ZIP_DAMAGE, aggregate_object_feature, banks_equal,
                      damage_zip, reference_synth_generate, reference_zip, replace_zip_ids,
                      write_old_sidecar)


def det(frame, score, *feat):
    return Detection(frame_index=frame, score=score,
                     feature=np.array(feat, dtype=np.float64))


def record(dets, center=100, seg_id="s0", dim_v=2):
    return SegmentRecord(segment_id=seg_id, clip_feature=np.zeros(dim_v),
                         clip_center_frame=center, detections=list(dets))


class TestAggregationConfig:
    def test_defaults(self):
        cfg = AggregationConfig()
        assert cfg.k == 10 and cfg.window == 5

    def test_invalid(self):
        with pytest.raises(ValidationError):
            AggregationConfig(k=0)
        with pytest.raises(ValidationError):
            AggregationConfig(window=4)
        with pytest.raises(ValidationError):
            AggregationConfig(window=-1)

    @pytest.mark.parametrize("field,value", [("k", 1.5), ("k", True), ("window", float("nan")),
                                             ("window", float("inf")), ("window", "5")])
    def test_non_integers_rejected(self, field, value):
        with pytest.raises(ValidationError,
                           match=f"^{re.escape(f'{field} must be an integer, got {value!r}')}$"):
            AggregationConfig(**{field: value})


def pooled(dets, cfg=AggregationConfig(), center=100, dim_o=None):
    """The object row ``bank_features`` gives a one-record bank holding ``dets``."""
    bank = FeatureBank.from_records([record(dets, center=center)], dim_v=2,
                                    dim_o=dim_o or len(dets[0].feature), verb_vocab_size=1,
                                    noun_vocab_size=1)
    return bank_features(bank, cfg)[1][0]


def one_hot(i, dim):
    return tuple(np.eye(dim)[i])


class TestContextWindow:
    def test_interval_membership(self):
        # window 5 keeps frames 98..102: both edges are in, 97 and 103 are out
        dets = [det(f, 0.5, *one_hot(i, 5)) for i, f in enumerate((97, 98, 100, 102, 103))]
        out = pooled(dets, AggregationConfig(k=10, window=5), center=100)
        assert np.array_equal(out, [0.0, 1.0, 1.0, 1.0, 0.0])

    def test_degenerate_window(self):
        dets = [det(99, 0.5, 1.0, 0.0, 0.0), det(100, 0.5, 0.0, 1.0, 0.0),
                det(101, 0.5, 0.0, 0.0, 1.0)]
        out = pooled(dets, AggregationConfig(window=1), center=100)
        assert np.array_equal(out, [0.0, 1.0, 0.0])

    def test_empty(self):
        assert np.array_equal(pooled([], center=7, dim_o=3), np.zeros(3))


class TestSelectTopK:
    def test_highest_scores(self):
        dets = [det(100, 0.9, 1.0, 0.0, 0.0), det(100, 0.3, 0.0, 1.0, 0.0),
                det(100, 0.8, 0.0, 0.0, 1.0)]
        assert np.array_equal(pooled(dets, AggregationConfig(k=2)), [1.0, 0.0, 1.0])

    def test_saturates(self):
        # k larger than the count pools every kept detection
        dets = [det(100, 0.9, 1.0, 0.0), det(100, 0.3, 0.0, 1.0)]
        assert np.array_equal(pooled(dets, AggregationConfig(k=5)), [1.0, 1.0])

    def test_tie_breaks_by_frame_then_position(self):
        # equal scores: frame 3 first, then the first of the two frame-5 rows
        a, b, c = det(5, 0.5, 1.0, 0.0, 0.0), det(3, 0.5, 0.0, 1.0, 0.0), det(5, 0.5, 0.0, 0.0, 1.0)
        out = pooled([a, b, c], AggregationConfig(k=2, window=3), center=4)
        assert np.array_equal(out, [1.0, 1.0, 0.0])

    def test_equal_everything_is_input_order_stable(self):
        a, b, c = det(1, 0.5, 1.0, 0.0, 0.0), det(1, 0.5, 0.0, 1.0, 0.0), det(1, 0.5, 0.0, 0.0, 1.0)
        out = pooled([a, b, c], AggregationConfig(k=2), center=1)
        assert np.array_equal(out, [1.0, 1.0, 0.0])

    @given(st.permutations(list(range(8))))
    def test_permutation_insensitive_for_distinct_keys(self, perm):
        base = [det(i, round(0.1 + 0.1 * i, 3), *one_hot(i, 8)) for i in range(8)]
        out = pooled([base[i] for i in perm], AggregationConfig(k=3, window=9), center=4)
        assert np.flatnonzero(out).tolist() == [5, 6, 7]


class TestMaxpool:
    def test_coordinatewise_max(self):
        out = pooled([det(100, 1.0, 1.0, 5.0), det(101, 1.0, 3.0, 2.0)])
        assert np.array_equal(out, [3.0, 5.0])

    def test_single(self):
        assert np.array_equal(pooled([det(100, 1.0, 4.0, -1.0)]), [4.0, -1.0])

    def test_dim_mismatch(self):
        # a bank never holds a detection of the wrong dim, so pooling never sees one
        with pytest.raises(ValidationError, match="feature has dim 2, bank declares dim_o=3"):
            pooled([det(100, 1.0, 1.0, 2.0)], dim_o=3)


def _random_record(rng, i, dim_o=3):
    n = int(rng.integers(0, 12))
    center = int(rng.integers(50, 60))
    dets = [Detection(frame_index=int(rng.integers(center - 5, center + 6)),
                      score=float(rng.uniform()),
                      feature=rng.normal(size=dim_o)) for _ in range(n)]
    return SegmentRecord(segment_id=f"r{i}", clip_feature=rng.normal(size=2),
                         clip_center_frame=center, detections=dets)


class TestAggregate:
    def test_no_detections(self):
        # an empty record between two others gets a zero row
        recs = [record([det(100, 1.0, 1.0, 2.0)], seg_id="a"), record([], seg_id="b"),
                record([det(100, 1.0, -3.0, -4.0)], seg_id="c")]
        bank = FeatureBank.from_records(recs, dim_v=2, dim_o=2, verb_vocab_size=1,
                                        noun_vocab_size=1)
        O = bank_features(bank, AggregationConfig())[1]
        assert np.array_equal(O, [[1.0, 2.0], [0.0, 0.0], [-3.0, -4.0]])

    def test_degenerate_config_picks_best_center_box(self):
        dets = [det(100, 0.9, 1.0, 0.0), det(100, 0.95, 0.0, 2.0),
                det(101, 0.99, 9.0, 9.0)]
        out = pooled(dets, AggregationConfig(k=1, window=1), center=100)
        assert np.array_equal(out, [0.0, 2.0])

    def test_monotone_in_k(self):
        rng = np.random.default_rng(5)
        bank = FeatureBank.from_records([_random_record(rng, i) for i in range(10)], dim_v=2,
                                        dim_o=3, verb_vocab_size=1, noun_vocab_size=1)
        prev = bank_features(bank, AggregationConfig(k=1))[1]
        for k in range(2, 8):
            cur = bank_features(bank, AggregationConfig(k=k))[1]
            assert np.all(cur >= prev)
            prev = cur


_EXTREME_INTS = [-2**63, -2**63 + 1, -2, -1, 0, 1, 2, 2**63 - 2, 2**63 - 1]
# Odd widths whose half-width is small, 2**63 - 1, 2**64 - 1 or past uint64.
_WINDOWS = [1, 3, 5, 2**64 - 1, 2**65 - 1, 2**65 + 1]


@st.composite
def _aggregation_cases(draw):
    """Records with score ties, signed zeros and int64-extreme frames and
    centers, and an aggregation config with k and window up to huge."""
    dim_o = draw(st.integers(1, 3))
    ints = st.sampled_from(_EXTREME_INTS) | st.integers(-3, 3)
    entries = st.sampled_from([0.0, -0.0, 1.0, -1.0]) | _FLOATS
    records = [SegmentRecord(
        segment_id=f"r{i}", clip_feature=np.zeros(1), clip_center_frame=draw(ints),
        detections=[Detection(draw(ints), draw(st.sampled_from([0.0, 0.5, 1.0])
                                                | st.floats(0.0, 1.0)),
                              np.array(draw(st.lists(entries, min_size=dim_o, max_size=dim_o))))
                    for _ in range(draw(st.integers(0, 24)))])
        for i in range(draw(st.integers(0, 4)))]
    cfg = AggregationConfig(k=draw(st.sampled_from([1, 2, 3, 9, 10, 10**30])),
                            window=draw(st.sampled_from(_WINDOWS)))
    return records, dim_o, cfg


class TestBankFeatures:
    @settings(max_examples=200, deadline=None)
    @given(case=_aggregation_cases())
    def test_equal_to_the_per_record_chain_bitwise(self, case):
        records, dim_o, cfg = case
        bank = FeatureBank.from_records(records, dim_v=1, dim_o=dim_o, verb_vocab_size=1,
                                        noun_vocab_size=1)
        V, O = bank_features(bank, cfg)
        chain = np.zeros((0, dim_o)) if not records else np.stack(
            [aggregate_object_feature(rec, cfg, dim_o) for rec in records])
        assert O.shape == chain.shape and O.tobytes() == chain.tobytes()
        assert V.shape == (len(records), 1) and not V.any()

    def test_signed_zero_pooled_in_score_order(self):
        # Nine kept rows: np.maximum returns its second operand on a tie, so
        # only pooling in score order gives the chain's +0.0.
        feats = [-1.0, -0.0, -0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]
        rec = record([det(100, 1.0 - i / 16, f) for i, f in enumerate(feats)], dim_v=1)
        bank = FeatureBank.from_records([rec], dim_v=1, dim_o=1, verb_vocab_size=1,
                                        noun_vocab_size=1)
        chain = aggregate_object_feature(rec, AggregationConfig(), 1)
        assert chain.tobytes() == np.zeros(1).tobytes()
        assert bank_features(bank, AggregationConfig())[1].tobytes() == chain.tobytes()

    def test_skewed_bank_is_exact_and_small(self):
        # One record with 20,000 kept detections among 1000 with one: a grid
        # padded to the longest row would hold about 20M cells.
        rng = np.random.default_rng(0)
        sizes = [1] * 1000 + [20_000]
        records = [SegmentRecord(f"r{i}", np.zeros(1), 100, [
            Detection(int(f), float(sc), np.array([x]))
            for f, sc, x in zip(rng.integers(98, 103, n), rng.choice([0.25, 0.5, 0.75], n),
                                rng.choice([-1.0, -0.0, 0.0, 1.0], n))])
                   for i, n in enumerate(sizes)]
        bank = FeatureBank.from_records(records, dim_v=1, dim_o=1, verb_vocab_size=1,
                                        noun_vocab_size=1)
        cfg = AggregationConfig(k=10**30)
        tracemalloc.start()
        try:
            O = bank_features(bank, cfg)[1]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        chain = np.stack([aggregate_object_feature(rec, cfg, 1) for rec in records])
        assert O.tobytes() == chain.tobytes()
        assert peak < 32 * 2**20


_SMALL_HEADER = {"dim_v": 2, "dim_o": 2, "verb_vocab_size": 3, "noun_vocab_size": 4}


def _small_records():
    """Records 'a', 'b' and 'c' of a small bank of ``_SMALL_HEADER``."""
    return [
        SegmentRecord("a", np.array([1.0, 2.0]), 10, [det(10, 0.5, 0.1, 0.2)], 0, 1),
        SegmentRecord("b", np.array([0.5, -1.0]), 20, [], 2, 3),
        SegmentRecord("c", np.array([0.0, 0.0]), 30, [det(29, 1.0, 5.0, 6.0),
                                                     det(31, 0.0, 7.0, 8.0)]),
    ]


def _small_bank(records=None) -> FeatureBank:
    return FeatureBank.from_records(_small_records() if records is None else records,
                                    **_SMALL_HEADER)


class TestLoader:
    def test_well_formed(self, tmp_path):
        bank = load_feature_bank(_saved(tmp_path))
        assert len(bank.records) == 3
        assert bank.records[0].verb_label == 0
        assert bank.records[2].noun_label is None
        assert np.array_equal(bank.records[1].clip_feature, [0.5, -1.0])

    def test_label_out_of_range_names_record(self):
        recs = _small_records()
        recs[0] = dataclasses.replace(recs[0], noun_label=9)
        with pytest.raises(ValidationError, match="'a'.*noun label 9"):
            _small_bank(recs)

    def test_mixed_object_dims_rejected(self):
        recs = _small_records()
        recs[2].detections[0] = det(29, 1.0, 1.0, 2.0, 3.0)
        with pytest.raises(ValidationError, match="dim_o=2"):
            _small_bank(recs)

    def test_duplicate_segment_id(self):
        recs = _small_records()
        with pytest.raises(ValidationError, match="duplicate segment_id"):
            _small_bank(recs + recs[:1])

    def test_json_bytes_that_are_not_utf8_name_the_file(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_bytes(b'{"format": "x", "a": "b\xff"}\n')
        with pytest.raises(ValidationError, match=re.escape(f"{path}: not UTF-8: ")):
            read_json(path, "x")

    def test_score_out_of_range(self):
        recs = _small_records()
        recs[0].detections[0] = det(10, 1.5, 0.1, 0.2)
        with pytest.raises(ValidationError, match="score"):
            _small_bank(recs)

    def test_roundtrip_equal_and_stable_bytes(self, tmp_path):
        bank = load_feature_bank(_saved(tmp_path))
        out1 = tmp_path / "out1.bank"
        save_feature_bank(bank, out1)
        bank2 = load_feature_bank(out1)
        assert banks_equal(bank, bank2)
        out2 = tmp_path / "out2.bank"
        save_feature_bank(bank2, out2)
        assert out1.read_bytes() == out2.read_bytes()

    def test_full_precision_roundtrip(self, tmp_path):
        rng = np.random.default_rng(6)
        recs = [SegmentRecord(segment_id="x", clip_feature=rng.normal(size=3) * 1e-7,
                              clip_center_frame=0,
                              detections=[Detection(0, 0.875, rng.normal(size=2) * 1e9)])]
        bank = FeatureBank.from_records(recs, dim_v=3, dim_o=2,
                                        verb_vocab_size=1, noun_vocab_size=1)
        path = tmp_path / "prec.bank"
        save_feature_bank(bank, path)
        assert banks_equal(bank, load_feature_bank(path))


def assert_same_bank_bytes(a, b, tmp_path=None):
    """Equal headers, ids and blocks (dtype, shape, write flag and bytes, so
    signed zeros count), and with ``tmp_path`` equal saved bytes."""
    assert ([getattr(a, k) for k in bank_module._HEADER_KEYS]
            == [getattr(b, k) for k in bank_module._HEADER_KEYS])
    assert a.ids == b.ids
    for name in bank_module._BLOCKS:
        x, y = getattr(a, name), getattr(b, name)
        assert (x.dtype, x.shape, x.flags.writeable) == (y.dtype, y.shape, y.flags.writeable)
        assert x.view(np.uint8).tobytes() == y.view(np.uint8).tobytes(), name
    if tmp_path is None:
        return
    paths = [tmp_path / "a.bank", tmp_path / "b.bank"]
    for bank, path in zip((a, b), paths):
        save_feature_bank(bank, path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


BENCHMARK_SPEC = SynthSpec(n_segments=2000, dim_v=64, dim_o=64, verb_vocab=20, noun_vocab=40,
                           pairs_per_verb=5)
_REFERENCE_SPECS = {
    "benchmark": BENCHMARK_SPEC,
    "defaults": SynthSpec(n_segments=40),
    "jitter": SynthSpec(n_segments=40, amplitude_jitter=2.0, pairs_per_verb=3),
    "noun-in-clip": SynthSpec(n_segments=40, noun_in_clip=0.7),
    "mismatch": SynthSpec(n_segments=40, mismatch=1e3, amplitude_jitter=0.5, noise=0.0),
    "no-distractors": SynthSpec(n_segments=30, distractors=0),
    "no-decoys": SynthSpec(n_segments=30, decoys=0),
    "signal-only": SynthSpec(n_segments=30, distractors=0, decoys=0, pairs_per_verb=20),
    "dims-of-1": SynthSpec(n_segments=30, dim_v=1, dim_o=1),
    "one-segment": SynthSpec(n_segments=1),
    "window-near-2**63": SynthSpec(n_segments=20, window=2**63 - 1),
}


@st.composite
def _small_specs(draw):
    nouns = draw(st.integers(1, 6))
    big = st.floats(0.0, 1e308)
    return SynthSpec(
        n_segments=draw(st.integers(1, 5)), dim_v=draw(st.integers(1, 4)),
        dim_o=draw(st.integers(1, 4)), verb_vocab=draw(st.integers(1, 4)), noun_vocab=nouns,
        signal_detections=draw(st.integers(1, 3)), distractors=draw(st.integers(0, 3)),
        decoys=draw(st.integers(0, 3)),
        noise=draw(st.sampled_from([0.0, 0.05]) | big),
        mismatch=draw(st.sampled_from([1.0, 1e3]) | st.floats(5e-324, 1e308)),
        amplitude_jitter=draw(st.sampled_from([0.0, 1.5]) | st.floats(0.0, 308.0)),
        noun_in_clip=draw(st.sampled_from([0.0, 0.5]) | big),
        pairs_per_verb=draw(st.integers(0, nouns)),
        window=2 * draw(st.integers(0, 4) | st.integers(0, 2**62 - 1)) + 1)


def _synth_outcome(generate, spec, seed, split):
    """The bank, or the message of the ValidationError raised instead."""
    try:
        with np.errstate(all="ignore"):  # an overflow is what the error reports
            return generate(spec, seed, split)
    except ValidationError as exc:
        return str(exc)


class TestSynth:
    def test_same_seed_bit_identical(self, tmp_path):
        spec = SynthSpec(n_segments=20)
        a = synth_generate(spec, 7, "train")
        b = synth_generate(spec, 7, "train")
        assert banks_equal(a, b)
        pa, pb = tmp_path / "a.bank", tmp_path / "b.bank"
        save_feature_bank(a, pa)
        save_feature_bank(b, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_different_seeds_differ(self):
        spec = SynthSpec(n_segments=20)
        assert not banks_equal(synth_generate(spec, 7), synth_generate(spec, 8))

    def test_splits_differ_but_share_prototypes(self):
        spec = SynthSpec(n_segments=30, noise=0.0)
        tr = synth_generate(spec, 3, "train")
        va = synth_generate(spec, 3, "val")
        assert not banks_equal(tr, va)
        cfg = AggregationConfig()
        by_noun_tr = dict(zip(tr.labels[:, 1].tolist(), bank_features(tr, cfg)[1]))
        for noun, o in zip(va.labels[:, 1].tolist(), bank_features(va, cfg)[1]):
            if noun in by_noun_tr:
                assert np.allclose(o, by_noun_tr[noun], rtol=1e-12)

    def test_mismatch_amplitude_ratio(self):
        bank = synth_generate(SynthSpec(n_segments=300, mismatch=1e3), 11)
        stats = bank_stats(bank, AggregationConfig())
        assert 3e2 <= stats["amplitude_ratio"] <= 3e3

    def test_noise_zero_linear_probe_recovers_nouns(self):
        bank = synth_generate(SynthSpec(n_segments=150, noise=0.0), 9)
        feats = bank_features(bank, AggregationConfig())[1]
        labels = bank.labels[:, 1]
        # nearest-centroid probe, a linear classifier
        cents = np.stack([feats[labels == c].mean(axis=0)
                          if np.any(labels == c) else np.zeros(bank.dim_o)
                          for c in range(bank.noun_vocab_size)])
        scores = feats @ cents.T - 0.5 * np.sum(cents * cents, axis=1)
        assert np.mean(np.argmax(scores, axis=1) == labels) == 1.0

    def test_decoys_sit_outside_window(self):
        spec = SynthSpec(n_segments=10, signal_detections=3, distractors=0,
                         decoys=5, window=5)
        bank = synth_generate(spec, 2)
        half = 2
        for rec in bank.records:
            outside = [d for d in rec.detections
                       if abs(d.frame_index - rec.clip_center_frame) > half]
            assert len(outside) == 5
            assert all(d.score >= 0.8 for d in outside)

    def test_sparse_pair_support_is_split_stable(self):
        spec = SynthSpec(n_segments=200, verb_vocab=5, noun_vocab=12,
                         pairs_per_verb=3)
        tr = synth_generate(spec, 4, "train")
        va = synth_generate(spec, 4, "val")
        support_tr = {(r.verb_label, r.noun_label) for r in tr.records}
        support_va = {(r.verb_label, r.noun_label) for r in va.records}
        assert support_va <= support_tr  # val pairs come from the same map
        per_verb = {}
        for v, n in support_tr:
            per_verb.setdefault(v, set()).add(n)
        assert all(len(nouns) <= 3 for nouns in per_verb.values())

    @pytest.mark.parametrize("value", [2.0, True, "3"])
    @pytest.mark.parametrize("name", ["n_segments", "dim_v", "dim_o", "verb_vocab",
                                      "noun_vocab", "signal_detections", "distractors",
                                      "decoys", "pairs_per_verb", "window"])
    def test_integer_fields_reject_non_integers_by_name(self, name, value):
        with pytest.raises(ValidationError, match=f"{name} must be an integer, got {value!r}"):
            SynthSpec(**{"n_segments": 3, name: value})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), 10**400,
                                       True, "0.1", None],
                             ids=["nan", "inf", "-inf", "10**400", "True", "str", "None"])
    @pytest.mark.parametrize("name", ["noise", "mismatch", "amplitude_jitter", "noun_in_clip"])
    def test_float_fields_reject_non_finite_reals_by_name(self, name, value):
        # raised by the spec, so before synth_generate draws anything
        with pytest.raises(ValidationError, match=re.escape(
                f"{name} must be a finite real number, got {value!r}")):
            SynthSpec(**{"n_segments": 3, name: value})

    def test_first_non_integer_field_is_named(self):
        with pytest.raises(ValidationError, match="n_segments must be an integer, got True"):
            SynthSpec(n_segments=True, dim_v=True)

    def test_invalid_spec(self):
        with pytest.raises(ValidationError):
            SynthSpec(n_segments=0)
        with pytest.raises(ValidationError):
            SynthSpec(n_segments=1, mismatch=0.0)
        with pytest.raises(ValidationError):
            SynthSpec(n_segments=1, window=2)
        with pytest.raises(ValidationError):
            SynthSpec(n_segments=1, noun_vocab=4, pairs_per_verb=5)

    @pytest.mark.parametrize("field,value,message", [
        ("window", 2**63 + 1, f"window must be in [1, {2**63 - 1}], got {2**63 + 1}"),
        ("amplitude_jitter", 309.0, "amplitude_jitter must be in [0, 308], got 309.0")])
    def test_spec_that_cannot_be_generated_rejected(self, field, value, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            SynthSpec(n_segments=1, **{field: value})

    # Each entry of the spec's bounds table, just past each of its ends.
    @pytest.mark.parametrize("field,value,message", [
        ("n_segments", 0, "n_segments must be >= 1, got 0"),
        ("dim_v", 0, "dim_v must be >= 1, got 0"),
        ("dim_o", 0, "dim_o must be >= 1, got 0"),
        ("verb_vocab", 0, "verb_vocab must be >= 1, got 0"),
        ("noun_vocab", 0, "noun_vocab must be >= 1, got 0"),
        ("signal_detections", 0, "signal_detections must be >= 1, got 0"),
        ("distractors", -1, "distractors must be >= 0, got -1"),
        ("decoys", -1, "decoys must be >= 0, got -1"),
        ("noise", -5e-324, "noise must be >= 0, got -5e-324"),
        ("amplitude_jitter", -5e-324, "amplitude_jitter must be in [0, 308], got -5e-324"),
        ("amplitude_jitter", np.nextafter(308.0, np.inf).item(),
         "amplitude_jitter must be in [0, 308], got 308.00000000000006"),
        ("noun_in_clip", -5e-324, "noun_in_clip must be >= 0, got -5e-324"),
        ("pairs_per_verb", -1, "pairs_per_verb must be in [0, 20], got -1"),
        ("pairs_per_verb", 21, "pairs_per_verb must be in [0, 20], got 21"),
        ("window", 0, f"window must be in [1, {2**63 - 1}], got 0"),
        ("window", 2**63, f"window must be in [1, {2**63 - 1}], got {2**63}"),
    ])
    def test_each_bound_refuses_the_value_just_past_it(self, field, value, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            SynthSpec(**{"n_segments": 1, field: value})

    @pytest.mark.parametrize("name", list(_REFERENCE_SPECS))
    def test_matches_record_by_record_reference(self, name, tmp_path):
        # A saved bank is a function of the blocks, so the largest spec skips
        # the slow JSON writes.
        spec = _REFERENCE_SPECS[name]
        saved = None if spec is BENCHMARK_SPEC else tmp_path
        assert_same_bank_bytes(synth_generate(spec, 7, "train"),
                               reference_synth_generate(spec, 7, "train"), saved)
        assert_same_bank_bytes(synth_generate(spec, 3, "val"),
                               reference_synth_generate(spec, 3, "val"))

    @settings(max_examples=150, deadline=None)
    @given(spec=_small_specs(), seed=st.integers(0, 2**64), split=st.sampled_from(["train", "v"]))
    def test_matches_reference_or_fails_the_same_way(self, spec, seed, split):
        got = _synth_outcome(synth_generate, spec, seed, split)
        want = _synth_outcome(reference_synth_generate, spec, seed, split)
        if isinstance(want, str):
            assert got == want
        else:
            assert not isinstance(got, str), got
            with tempfile.TemporaryDirectory() as tmp:
                assert_same_bank_bytes(got, want, Path(tmp))

    def test_non_finite_features_name_the_record(self):
        with np.errstate(over="raise"), pytest.raises(
                ValidationError, match="record 'train-00000': detection 0 feature"):
            synth_generate(SynthSpec(n_segments=2, mismatch=1e308, noise=10.0), 0)

    @pytest.mark.parametrize("field", ["n_segments", "dim_v", "dim_o", "signal_detections",
                                       "distractors", "decoys", "verb_vocab", "noun_vocab"])
    def test_oversized_spec_rejected_before_any_draw(self, field):
        # 2**62 rows or columns of float64 is past the int64 byte range, so
        # nothing is allocated.
        spec = dataclasses.replace(SynthSpec(n_segments=1), **{field: 2**62})
        start = time.perf_counter()
        with mock.patch.object(np.random, "default_rng", side_effect=AssertionError), \
                pytest.raises(ValidationError, match="is too large to generate"):
            synth_generate(spec, 0)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("split", ["my split", "a\ud800"])
    def test_split_that_breaks_the_id_rule_rejected_before_any_draw(self, split):
        with mock.patch.object(np.random, "default_rng", side_effect=AssertionError), \
                pytest.raises(ValidationError, match=re.escape(
                    f"split {split!r}: {_id_fault(split + '-00000')}")):
            synth_generate(SynthSpec(n_segments=2), 0, split)

    def test_peak_memory_is_a_small_multiple_of_the_blocks(self):
        # The blocks are computed in place: one block-sized temporary more
        # (an out-of-place product or sum on the features) passes 2x.
        spec = dataclasses.replace(BENCHMARK_SPEC, n_segments=500)
        tracemalloc.start()
        try:
            bank = synth_generate(spec, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        blocks = sum(getattr(bank, name).nbytes for name in bank_module._BLOCKS)
        assert blocks > 4 * 2**20
        assert peak < 2.0 * blocks

    def test_stats_fields(self):
        bank = synth_generate(SynthSpec(n_segments=40), 1)
        stats = bank_stats(bank, AggregationConfig())
        assert stats["records"] == 40
        assert stats["pair_count_threshold"] == PAIR_COUNT_THRESHOLD
        assert stats["verb_labeled"] == 40
        assert stats["labeled_pairs"] == 40
        assert stats["distinct_pairs"] >= 1
        assert stats["pairs_above_threshold"] <= stats["distinct_pairs"]


class _NoUniformOrNormal:
    """A Generator whose ``uniform`` and ``normal`` raise; every other
    attribute is the wrapped generator's."""

    def __init__(self, rng):
        self._rng = rng

    def __getattr__(self, name):
        return getattr(self._rng, name)

    def uniform(self, *args, **kwargs):
        raise AssertionError("synth_generate called Generator.uniform")

    def normal(self, *args, **kwargs):
        raise AssertionError("synth_generate called Generator.normal")


class TestSynthDraws:
    """The numpy identities that let synth_generate's loop draw through
    ``random`` and ``standard_normal`` and still write the bank that
    ``uniform`` and ``normal`` draw (the reference's calls)."""

    @pytest.mark.parametrize("lo,hi", [(0.6, 1.0), (0.0, 0.4), (0.8, 1.0), (0.0, 1.0),
                                       *((-j, j) for j in (1e-3, 0.5, 1.5, 2.0, 37.3, 308.0))])
    def test_uniform_is_low_plus_range_times_random(self, lo, hi):
        want, got = np.random.default_rng(24), np.random.default_rng(24)
        draws = want.uniform(lo, hi, size=100_000)
        formula = lo + (hi - lo) * got.random(100_000)
        assert draws.tobytes() == formula.tobytes(), (
            f"Generator.uniform({lo}, {hi}) is no longer lo + (hi - lo) * random()")
        scalars = [want.uniform(lo, hi) for _ in range(2000)]
        assert scalars == [lo + (hi - lo) * got.random() for _ in range(2000)], (
            f"scalar Generator.uniform({lo}, {hi}) is no longer lo + (hi - lo) * random()")
        assert want.integers(2**63) == got.integers(2**63), "the two consume different bits"

    def test_normal_is_standard_normal_up_to_the_sign_of_a_zero(self):
        want, got = np.random.default_rng(24), np.random.default_rng(24)
        draws = want.normal(size=100_000)
        in_place = np.empty((2, 50_000))
        for row in in_place:
            got.standard_normal(out=row)
        assert np.array_equal(draws, in_place.ravel()), (
            "Generator.normal(size=n) no longer draws standard_normal(n)")
        assert want.integers(2**63) == got.integers(2**63), "the two consume different bits"

    def test_loop_calls_neither_uniform_nor_normal(self):
        spec = SynthSpec(n_segments=30, amplitude_jitter=1.5, pairs_per_verb=3)
        rng = np.random.default_rng
        with mock.patch.object(np.random, "default_rng",
                               side_effect=lambda seed: _NoUniformOrNormal(rng(seed))):
            got = synth_generate(spec, 5, "train")
        assert_same_bank_bytes(got, reference_synth_generate(spec, 5, "train"))


class TestBankValidate:
    def test_catches_bad_labels(self):
        rec = SegmentRecord(segment_id="z", clip_feature=np.zeros(2),
                            clip_center_frame=0, detections=[], verb_label=5)
        with pytest.raises(ValidationError, match="verb label 5"):
            FeatureBank.from_records([rec], dim_v=2, dim_o=2,
                                     verb_vocab_size=3, noun_vocab_size=3)

    def test_catches_clip_dim(self):
        rec = SegmentRecord(segment_id="z", clip_feature=np.zeros(3),
                            clip_center_frame=0, detections=[])
        with pytest.raises(ValidationError, match="dim_v=2"):
            FeatureBank.from_records([rec], dim_v=2, dim_o=2,
                                     verb_vocab_size=3, noun_vocab_size=3)

    def test_first_offender_named_when_a_block_is_not_finite(self):
        ok = det(0, 0.5, 1.0, 2.0)

        def bank_with(first_dets):
            recs = [SegmentRecord(segment_id="a", clip_feature=np.zeros(2), clip_center_frame=0,
                                  detections=first_dets),
                    SegmentRecord(segment_id="b", clip_feature=np.array([np.nan, 0.0]),
                                  clip_center_frame=0, detections=[ok])]
            return FeatureBank.from_records(recs, dim_v=2, dim_o=2,
                                            verb_vocab_size=1, noun_vocab_size=1)

        with pytest.raises(ValidationError, match="record 'a': detection 1 feature has non-finite"):
            bank_with([ok, det(0, 0.5, 1.0, np.inf)])
        # The clip block fails, but record 'a' comes first and its bad score wins.
        with pytest.raises(ValidationError, match="record 'a': detection 1 score 1.5"):
            bank_with([ok, det(0, 1.5, 1.0, 2.0)])
        with pytest.raises(ValidationError, match="record 'b': clip_feature has non-finite"):
            bank_with([ok])

    @pytest.mark.parametrize("space", ["verb", "noun"])
    def test_explicit_label_minus_one_rejected_from_records(self, space):
        rec = SegmentRecord(segment_id="z", clip_feature=np.zeros(2), clip_center_frame=0,
                            detections=[], **{f"{space}_label": -1})
        with pytest.raises(ValidationError,
                           match=rf"record 'z': {space} label -1 out of range \[0, 3\)"):
            FeatureBank.from_records([rec], dim_v=2, dim_o=2,
                                     verb_vocab_size=3, noun_vocab_size=3)

    @pytest.mark.parametrize("score", ["0.5", True, None])
    def test_score_that_is_not_a_number_rejected_from_records(self, score):
        rec = record([det(100, 0.5, 1.0, 2.0), Detection(100, score, np.zeros(2))])
        with pytest.raises(ValidationError,
                           match="record 's0': detection 1 score must be a number"):
            FeatureBank.from_records([rec], dim_v=2, dim_o=2, verb_vocab_size=1,
                                     noun_vocab_size=1)

    @pytest.mark.parametrize("field", ["center", "frame"])
    def test_integer_outside_int64_rejected(self, field):
        recs = _small_records()
        if field == "center":
            recs[0] = dataclasses.replace(recs[0], clip_center_frame=10**30)
        else:
            recs[0].detections[0] = Detection(-10**30, 0.5, np.array([0.1, 0.2]))
        with pytest.raises(ValidationError, match=f"record 'a': .*{field} .* does not fit in int64"):
            _small_bank(recs)

    @pytest.mark.parametrize("name,kind", [
        *[(name, np.float64) for name in ("frames", "centers", "labels", "counts")],
        *[(name, kind) for name in ("clip", "scores", "features")
          for kind in (np.float32, np.int64)],
        *[(name, list) for name in bank_module._BLOCKS]])
    def test_block_of_wrong_dtype_rejected(self, name, kind):
        # float frames and labels (0.5 too) used to validate, and
        # bank_features then read the float bits as integers
        bank = _small_bank()
        block = getattr(bank, name)
        bad = block.tolist() if kind is list else block.astype(kind)
        with pytest.raises(ValidationError, match=f"bank block '{name}' must be an array of"):
            dataclasses.replace(bank, **{name: bad})

    @pytest.mark.parametrize("name,fault,message", [
        ("labels", lambda b: np.where([[True, False], [False] * 2, [False] * 2], 99, b.labels),
         "record 'a': verb label 99 out of range [0, 3)"),
        ("counts", lambda b: b.counts[:-1], "bank needs 3 detection counts >= 0, one per id"),
        ("clip", lambda b: np.where([[False] * 2, [True, False], [False] * 2], np.nan, b.clip),
         "record 'b': clip_feature has non-finite entries"),
        ("ids", lambda b: ["a", "b", "a"], "duplicate segment_id 'a'"),
        ("frames", lambda b: b.frames.astype(np.float64),
         "bank block 'frames' must be an array of int64, got float64"),
    ], ids=["label-99", "counts-short", "clip-nan", "repeated-id", "float-frames"])
    def test_a_bank_that_does_not_validate_cannot_be_built(self, name, fault, message):
        # Such a bank once reached compute_prior, train and bank_stats, which
        # failed on it with numpy's errors or reported NaN.
        bank = _small_bank()
        with pytest.raises(ValidationError) as from_replace:
            dataclasses.replace(bank, **{name: fault(bank)})
        assert str(from_replace.value) == message

    @pytest.mark.parametrize("how", ["from_records", "replace"])
    def test_a_numpy_integer_header_is_kept_as_an_int(self, tmp_path, how):
        # Such a bank once kept its np.int64 dims, which train refused and
        # bank_stats' JSON could not write.
        base = synth_generate(SynthSpec(n_segments=20), 1)
        header = {key: np.int64(getattr(base, key)) for key in bank_module._HEADER_KEYS}
        bank = (FeatureBank.from_records(base.records, **header) if how == "from_records"
                else dataclasses.replace(base, **header))
        assert all(type(getattr(bank, key)) is int for key in header)
        train(bank, "noun", ModelSpec("concat"), TrainConfig(epochs=1))
        write_json(bank_stats(bank, AggregationConfig()), tmp_path / "stats.json")
        stats = json.loads((tmp_path / "stats.json").read_text(encoding="utf-8"))
        assert all(stats[key] == getattr(base, key) for key in header)


def _bank_built(how: str, tmp_path) -> FeatureBank:
    """The ``_small_records`` bank (a synthetic one for ``synth_generate``),
    built ``how``; the constructor and ``replace`` are given writable blocks
    and an id list."""
    src = _small_bank()
    fresh = {name: getattr(src, name).copy() for name in bank_module._BLOCKS}
    if how == "synth_generate":
        return synth_generate(SynthSpec(n_segments=5), 1)
    if how == "from_records":
        return src
    if how == "zip":
        return load_feature_bank(_saved(tmp_path, src))
    if how == "constructor":
        bank = FeatureBank(dim_v=2, dim_o=2, verb_vocab_size=3, noun_vocab_size=4,
                           ids=list(src.ids), **fresh)
        assert all(getattr(bank, name) is block for name, block in fresh.items())  # no copy
        return bank
    return dataclasses.replace(src, ids=list(src.ids), **fresh)


class TestBankIsFrozen:
    @pytest.mark.parametrize("how", ["synth_generate", "from_records", "zip", "constructor",
                                     "replace"])
    def test_a_bank_cannot_change_however_it_is_built(self, tmp_path, how):
        bank = _bank_built(how, tmp_path)
        assert type(bank.ids) is tuple and _read_only(bank)
        for name in bank_module._BLOCKS:
            with pytest.raises(ValueError, match="read-only"):
                getattr(bank, name)[...] = 0
        for f in dataclasses.fields(bank):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(bank, f.name, getattr(bank, f.name))

    def test_a_bank_is_checked_once_where_it_is_built(self):
        # Nothing can change a built bank, so nothing re-checks one.
        tree = ast.parse(Path(bank_module.__file__).read_text(encoding="utf-8"))
        callers = {scope.name for scope in ast.walk(tree) if isinstance(scope, ast.FunctionDef)
                   for node in ast.walk(scope) if isinstance(node, ast.Call)
                   and getattr(node.func, "id", None) == "_validate"}
        assert callers == {"__post_init__"}
        assert not hasattr(FeatureBank, "validate")


# --- segment ids ----------------------------------------------------------------

# Every character for which str.isspace() is true (29 on Python 3.11), then
# both ends of the lone-surrogate range.
_ID_BREAKERS = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()] + [
    "\ud800", "\udfff"]


def _id_fault(seg_id) -> str:
    return f"segment_id {seg_id!r} must be a non-empty str with no whitespace or lone surrogate"


class TestSegmentIdRule:
    @pytest.mark.parametrize("seg_id", ["", *(f"a{c}b" for c in _ID_BREAKERS)],
                             ids=["empty", *(f"U+{ord(c):04X}" for c in _ID_BREAKERS)])
    def test_rejected_where_the_bank_enters(self, tmp_path, seg_id):
        with pytest.raises(ValidationError) as from_records:
            FeatureBank.from_records([record([]), record([], seg_id=seg_id)], dim_v=2, dim_o=2,
                                     verb_vocab_size=1, noun_vocab_size=1)
        assert str(from_records.value) == _id_fault(seg_id)
        path = _saved(tmp_path)
        replace_zip_ids(path, ["a", seg_id, "c"])
        with pytest.raises(ValidationError) as from_file:
            load_feature_bank(path)
        # "\n" ends an id in the zip, and UTF-8 cannot hold a lone surrogate.
        if seg_id == "a\nb":
            assert str(from_file.value) == f"{path}: bank needs 4 detection counts >= 0, one per id"
        elif "\ud800" <= seg_id[1:2] <= "\udfff":
            assert str(from_file.value).startswith(
                f"{path}: not a readable bank zip: 'utf-8' codec can't decode")
        else:
            assert str(from_file.value) == f"{path}: {_id_fault(seg_id)}"
        with pytest.raises(ValidationError) as from_replace:
            dataclasses.replace(_small_bank(), ids=["a", seg_id, "c"])
        assert str(from_replace.value) == _id_fault(seg_id)

    def test_bad_id_is_named_before_a_fault_on_a_later_row(self):
        recs = _small_records()
        recs[0] = dataclasses.replace(recs[0], segment_id="a b")
        recs[2] = dataclasses.replace(recs[2], clip_feature=np.array([1.0]))
        with pytest.raises(ValidationError) as from_records:
            _small_bank(recs)
        bank = _small_bank()
        with pytest.raises(ValidationError) as from_replace:
            dataclasses.replace(bank, ids=["a b", "b", "c"],
                                clip=np.where([[False] * 2, [False] * 2, [True, False]], np.nan,
                                              bank.clip))
        assert str(from_records.value) == str(from_replace.value) == _id_fault("a b")

    def test_nul_non_ascii_and_astral_ids_are_stored_as_utf8_lines(self, tmp_path):
        ids = ["\x00", "é", "\U0001f600", '"\\']
        bank = FeatureBank.from_records([record([], seg_id=seg_id) for seg_id in ids],
                                        dim_v=2, dim_o=2, verb_vocab_size=1, noun_vocab_size=1)
        path = _saved(tmp_path, bank)
        with np.load(path, allow_pickle=False) as npz:
            assert "id_lengths.npy" not in npz.zip.namelist()
            assert npz["ids"].tobytes() == "".join(i + "\n" for i in ids).encode("utf-8")
        assert load_feature_bank(path).ids == tuple(ids)


# --- zip banks ------------------------------------------------------------------

# Ids the rule admits that a codec could still get wrong: NULs, non-ASCII and
# astral characters, and JSON's quote and backslash.
_ODD_IDS = ["\x00", "a\x00", "\x00\x00", "é", "\U0001f600", "x\U0001f600\x00", '"', "\\",
            '"\\"']
_ID_CHARS = st.characters(exclude_categories=("Cs",)).filter(lambda c: not c.isspace())
_INT64S = st.integers(-2**63, 2**63 - 1)
_FLOATS = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _banks(draw):
    dim_v, dim_o = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    verbs, nouns = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    ids = draw(st.lists(st.sampled_from(_ODD_IDS) | st.text(_ID_CHARS, min_size=1, max_size=4),
                        max_size=4, unique=True))

    def vector(dim):
        return np.array(draw(st.lists(_FLOATS, min_size=dim, max_size=dim)), dtype=np.float64)

    records = [SegmentRecord(
        segment_id=seg_id, clip_feature=vector(dim_v), clip_center_frame=draw(_INT64S),
        detections=[Detection(draw(_INT64S), draw(st.floats(0.0, 1.0)), vector(dim_o))
                    for _ in range(draw(st.integers(0, 3)))],
        verb_label=draw(st.none() | st.integers(0, verbs - 1)),
        noun_label=draw(st.none() | st.integers(0, nouns - 1))) for seg_id in ids]
    return FeatureBank.from_records(records, dim_v=dim_v, dim_o=dim_o,
                                    verb_vocab_size=verbs, noun_vocab_size=nouns)


def _same_bits(a: FeatureBank, b: FeatureBank) -> bool:
    """banks_equal, plus the float bits (banks_equal cannot tell 0.0 from -0.0)."""
    def bits(bank):
        return [(r.clip_feature.tobytes(), [(repr(d.score), d.feature.tobytes())
                                            for d in r.detections]) for r in bank.records]
    return banks_equal(a, b) and bits(a) == bits(b)


def _read_only(bank: FeatureBank) -> bool:
    """Every block of ``bank`` is read-only, and so is every row view of its records."""
    return not any(getattr(bank, name).flags.writeable for name in bank_module._BLOCKS) and \
        not any(r.clip_feature.flags.writeable
                or any(d.feature.flags.writeable for d in r.detections) for r in bank.records)


def _saved(tmp_path, bank=None):
    """Save ``bank`` (default: the ``_small_records`` bank) and return its path."""
    path = tmp_path / "b.bank"
    save_feature_bank(_small_bank() if bank is None else bank, path)
    return path


def _multibyte_id_bank():
    """Four one-detection records whose ids are two, three and four UTF-8 bytes long."""
    return FeatureBank.from_records(
        [record([det(100, 0.5, 1.0, 2.0)], seg_id=seg_id) for seg_id in ("é", "\U0001f600",
                                                                         "a\x00b", "c")],
        dim_v=2, dim_o=2, verb_vocab_size=1, noun_vocab_size=1)


# What each ``damage_zip`` kind makes the loader say after "<path>: ".
_ZIP_FAULTS = {
    "truncated": "not a readable bank zip: File is not a zip file",
    "flipped": "not a readable bank zip: Bad CRC-32 for file 'features.npy'",
    "missing": "bank members are ['header.npy', 'clip.npy', 'features.npy', 'frames.npy', "
               "'scores.npy', 'detections.npy', 'centers.npy', 'ids.npy'], not [",
    "extra": "bank members are [",
    "renamed": "bank members are [",
    "out-of-order": "bank members are ['header.npy', 'features.npy', 'clip.npy',",
    "deflated": "bank member header.npy is compressed",
    "object": "bank member clip.npy must be an array of float64, got object",
    "huge-shape": "bank member features.npy ends before its array",
    "wrong-dtype": "bank member scores.npy must be an array of float64, got float32",
    "big-endian": "bank member scores.npy must be an array of float64, got >f8",
    "fortran": "bank member clip.npy is not in C order",
    "npy-2.0": "bank member clip.npy is not an npy 1.0 array",
    "trailing-bytes": "bank member scores.npy has bytes after its array",
    "short-block": "bank block 'frames' is not shaped (3,)",
    "rule-breaking-id": "segment_id 'a b' must be a non-empty str with no whitespace",
    "repeated-id": "duplicate segment_id ",
    "ids-without-newline": "bank ids member does not end with a newline",
    "header-shape": "bank header or ids member is not flat",
    "python-2-header": "not a readable bank zip: Reading `.npy` or `.npz` file required "
                       "additional header parsing",
}


class TestBankZip:
    @settings(max_examples=150, deadline=None)
    @given(bank=_banks())
    def test_zip_loads_the_bits_it_saved(self, bank):
        with tempfile.TemporaryDirectory() as tmp:
            from_zip = load_feature_bank(_saved(Path(tmp), bank))
        assert _same_bits(from_zip, bank) and _read_only(from_zip)

    def test_empty_blocks_round_trip(self, tmp_path):
        bank = FeatureBank.from_records([], dim_v=3, dim_o=2, verb_vocab_size=1,
                                        noun_vocab_size=1)
        path = _saved(tmp_path, bank)
        with np.load(path, allow_pickle=False) as npz:
            assert npz["clip"].shape == (0, 3) and npz["features"].shape == (0, 2)
        assert _same_bits(load_feature_bank(path), bank)
        bank = FeatureBank.from_records(
            [SegmentRecord(segment_id="z", clip_feature=np.ones(3), clip_center_frame=4,
                           detections=[])], dim_v=3, dim_o=2, verb_vocab_size=1,
            noun_vocab_size=1)
        path = _saved(tmp_path, bank)
        with np.load(path, allow_pickle=False) as npz:
            assert npz["clip"].shape == (1, 3) and npz["features"].shape == (0, 2)
            assert npz["labels"].tolist() == [[-1, -1]]
        assert _same_bits(load_feature_bank(path), bank)

    def test_a_leftover_sidecar_beside_the_bank_is_never_opened(self, tmp_path):
        # The sidecar an earlier build wrote holds other blocks: only the
        # named file is read.
        bank = _small_bank()
        path = _saved(tmp_path, bank)
        write_old_sidecar(dataclasses.replace(bank, clip=bank.clip + 1.0), Path(f"{path}.npz"))
        with mock.patch("builtins.open", wraps=open) as opened:
            loaded = load_feature_bank(path)
        assert [call.args[0] for call in opened.call_args_list] == [path]
        assert _same_bits(loaded, bank)

    @pytest.mark.parametrize("kind", ZIP_DAMAGE)
    def test_unusable_zip_is_a_fault_naming_the_file(self, tmp_path, kind):
        path = _saved(tmp_path)
        damage_zip(path, kind)
        with pytest.raises(ValidationError) as exc:
            load_feature_bank(path)
        assert str(exc.value).startswith(f"{path}: {_ZIP_FAULTS[kind]}")

    def test_a_member_of_a_later_npy_version_is_a_fault_naming_the_file(self, tmp_path):
        path = _saved(tmp_path)
        with zipfile.ZipFile(path) as zf:
            members = {info.filename: zf.read(info) for info in zf.infolist()}
        members["clip.npy"] = members["clip.npy"][:6] + bytes([3, 0]) + members["clip.npy"][8:]
        with zipfile.ZipFile(path, "w") as zf:
            for name, raw in members.items():
                zf.writestr(name, raw)
        with pytest.raises(ValidationError) as exc:
            load_feature_bank(path)
        assert str(exc.value) == f"{path}: bank member clip.npy is not an npy 1.0 array"

    @pytest.mark.parametrize("kind", ["empty", "junk after the magic", "bare npy",
                                      "earlier json lines"])
    def test_a_file_that_is_no_zip_is_a_fault_naming_the_file(self, tmp_path, kind):
        path = tmp_path / "b.bank"
        if kind == "bare npy":
            with open(path, "wb") as fh:
                np.save(fh, np.zeros(3), allow_pickle=False)
        else:
            path.write_bytes({"empty": b"", "earlier json lines": OLD_JSON_LINES_BANK,
                              "junk after the magic": _ZIP_MAGIC + b"junk" * 50}[kind])
        with pytest.raises(ValidationError) as exc:
            load_feature_bank(path)
        if kind == "junk after the magic":
            assert str(exc.value).startswith(f"{path}: not a readable bank zip: ")
        else:  # no zip magic
            assert str(exc.value) == f"{path}: not a bank zip"

    @settings(max_examples=150, deadline=None)
    @given(cut=st.none() | st.integers(0, 10**6),
           flips=st.lists(st.tuples(st.integers(0, 10**6), st.integers(1, 255)), max_size=3))
    @example(cut=None, flips=[(242494, 1)])  # the central directory's offset: a bare OSError
    def test_damaged_zip_bytes_load_whole_or_fail_naming_the_file(self, cut, flips):
        with tempfile.TemporaryDirectory() as tmp:
            path = _saved(Path(tmp))
            expected = load_feature_bank(path)
            data = bytearray(path.read_bytes())
            for pos, mask in flips:
                data[pos % len(data)] ^= mask
            path.write_bytes(bytes(data[:cut]))
            try:
                loaded = load_feature_bank(path)
            except ValidationError as exc:
                assert str(exc).startswith(f"{path}: ")
            else:  # only bytes the loader never reads were flipped
                assert cut is None or cut >= len(data)
                assert _same_bits(loaded, expected)

    def test_each_flip_of_the_last_bytes_loads_whole_or_fails_naming_the_file(self, tmp_path):
        # The end-of-central-directory records: a flipped offset there makes
        # zipfile seek before the start of the file.
        path = _saved(tmp_path)
        expected, data = load_feature_bank(path), path.read_bytes()
        for pos in range(len(data) - 64, len(data)):
            for mask in (1, 64, 128, 255):
                flipped = bytearray(data)
                flipped[pos] ^= mask
                path.write_bytes(bytes(flipped))
                try:
                    loaded = load_feature_bank(path)
                except ValidationError as exc:
                    assert str(exc).startswith(f"{path}: "), (pos, mask)
                else:
                    assert _same_bits(loaded, expected), (pos, mask)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_a_flipped_central_directory_offset_through_a_pipe_names_it(self, tmp_path):
        # The offset is the 4 bytes that end 2 before the file does.
        path = _saved(tmp_path)
        flipped = bytearray(path.read_bytes())
        flipped[-6] ^= 1
        path.write_bytes(bytes(flipped))
        fifo = tmp_path / "fifo.bank"
        os.mkfifo(fifo)
        writer = subprocess.Popen([sys.executable, "-c",
                                   "import sys; open(sys.argv[2], 'wb').write("
                                   "open(sys.argv[1], 'rb').read())",
                                   str(path), str(fifo)])
        try:
            with pytest.raises(ValidationError) as exc:
                load_feature_bank(fifo)
            assert writer.wait(timeout=60) == 0
        finally:  # a writer left blocked on the pipe ends with the test
            writer.kill()
            writer.wait()
        assert str(exc.value).startswith(f"{fifo}: not a readable bank zip: ")

    @pytest.mark.parametrize("ids", ["utf-8 lines", "utf-32 with lengths"])
    def test_old_sidecar_passed_as_the_bank_is_a_fault_naming_the_file(self, tmp_path, ids):
        # Both layouts of the sidecar that earlier builds wrote beside a
        # JSON-lines bank, tagged with its digest: ids as UTF-8 lines, or as
        # UTF-32 code points with one count per id in "id_lengths".
        bank = _multibyte_id_bank()
        sidecar = tmp_path / "b.bank.npz"
        write_old_sidecar(bank, sidecar)
        if ids == "utf-32 with lengths":
            with np.load(sidecar, allow_pickle=False) as npz:
                members = {name: npz[name] for name in npz.files}
            utf32 = [seg_id.encode("utf-32-le") for seg_id in bank.ids]
            members["ids"] = np.frombuffer(b"".join(utf32), dtype="<u4")
            members["id_lengths"] = np.array([len(i) // 4 for i in utf32], dtype=np.int64)
            with open(sidecar, "wb") as fh:
                np.savez(fh, **members)
        with pytest.raises(ValidationError) as exc:
            load_feature_bank(sidecar)
        assert str(exc.value).startswith(f"{sidecar}: bank members are ['digest.npy', ")

    @pytest.mark.parametrize("member", ["header", *bank_module._ZIP_BLOCKS, "ids"])
    def test_zip_missing_a_member_is_a_fault_naming_the_file(self, tmp_path, member):
        path = _saved(tmp_path, _multibyte_id_bank())
        with zipfile.ZipFile(path) as zf:
            kept = {info.filename: zf.read(info) for info in zf.infolist()
                    if info.filename != f"{member}.npy"}
        with zipfile.ZipFile(path, "w") as zf:
            for name, raw in kept.items():
                zf.writestr(name, raw)
        with pytest.raises(ValidationError) as exc:
            load_feature_bank(path)
        assert str(exc.value).startswith(f"{path}: bank members are {list(kept)}, not [")

    @pytest.mark.parametrize("make", [
        lambda: synth_generate(SynthSpec(n_segments=20), 3), _multibyte_id_bank,
        lambda: FeatureBank.from_records([], dim_v=3, dim_o=2, verb_vocab_size=1,
                                         noun_vocab_size=1)], ids=["synth", "multibyte ids", "empty"])
    def test_bytes_are_those_of_write_array_members(self, tmp_path, make):
        bank = make()
        members = {"header": np.array([bank.dim_v, bank.dim_o, bank.verb_vocab_size,
                                       bank.noun_vocab_size], dtype=np.int64),
                   "clip": bank.clip, "features": bank.features, "frames": bank.frames,
                   "scores": bank.scores, "detections": bank.counts, "centers": bank.centers,
                   "labels": bank.labels, "ids": np.frombuffer(
                       "".join(seg_id + "\n" for seg_id in bank.ids).encode("utf-8"), np.uint8)}
        assert _saved(tmp_path, bank).read_bytes() == reference_zip(members)

    def test_saving_twice_gives_identical_bytes(self, tmp_path):
        bank = synth_generate(SynthSpec(n_segments=5), 3)
        first = tmp_path / "first.bank"
        save_feature_bank(bank, first)
        path = _saved(tmp_path, bank)
        assert path.read_bytes() == first.read_bytes()
        save_feature_bank(bank, path)
        assert path.read_bytes() == first.read_bytes()

    def test_zip_load_peak_memory_is_below_twice_the_blocks(self, tmp_path):
        # Each member is read into its block: holding the whole file, or a
        # member's bytes, besides the blocks peaks near twice their bytes.
        bank = synth_generate(dataclasses.replace(BENCHMARK_SPEC, n_segments=500), 3)
        blocks = sum(getattr(bank, name).nbytes for name in bank_module._BLOCKS)
        path = _saved(tmp_path, bank)
        tracemalloc.start()
        try:
            loaded = load_feature_bank(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert _same_bits(loaded, bank)
        assert blocks > 4 * 2**20
        assert peak < 2.0 * blocks

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    @pytest.mark.parametrize("form", ["zip", "earlier json lines", "score table zip"])
    def test_a_pipe_loads_from_its_one_read(self, tmp_path, form):
        # Banks and score tables share one reader, so a pipe of either loads,
        # and a pipe of anything but a zip is refused after its one read.
        bank = synth_generate(SynthSpec(n_segments=20), 3)
        table = ScoreTable(list(bank.ids), bank.clip, "verb")
        path = tmp_path / "src"
        {"zip": lambda: save_feature_bank(bank, path),
         "earlier json lines": lambda: path.write_bytes(OLD_JSON_LINES_BANK),
         "score table zip": lambda: save_score_table(table, path)}[form]()
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        writer = subprocess.Popen([sys.executable, "-c",
                                   "import sys; open(sys.argv[2], 'wb').write("
                                   "open(sys.argv[1], 'rb').read())",
                                   str(path), str(fifo)])
        try:
            try:
                loaded = (load_score_table if form.startswith("score") else load_feature_bank)(fifo)
            except ValidationError as exc:
                loaded = exc
            assert writer.wait(timeout=60) == 0
        finally:  # a writer left blocked on the pipe ends with the test
            writer.kill()
            writer.wait()
        if form == "earlier json lines":
            assert str(loaded) == f"{fifo}: not a bank zip"
        elif form.startswith("score"):
            assert (loaded.segment_ids, loaded.space) == (table.segment_ids, table.space)
            assert loaded.scores.tobytes() == table.scores.tobytes()
        else:
            assert _same_bits(loaded, bank)


# The banks whose zips must load to the bits saved: the README
# walkthrough's (seed 7), criterion 4's (seed 42) and the benchmark's.
_WALKTHROUGH_SPEC = SynthSpec(n_segments=400, verb_vocab=5, noun_vocab=12, pairs_per_verb=3,
                              noise=0.25)
_CRITERION_4_SPEC = SynthSpec(n_segments=500, mismatch=1e3, noise=0.35, amplitude_jitter=1.5,
                              noun_in_clip=1.0)
_ROUND_TRIP_BANKS = {
    "walkthrough": (7, [(_WALKTHROUGH_SPEC, "train"),
                        (dataclasses.replace(_WALKTHROUGH_SPEC, n_segments=150), "val")]),
    "criterion-4": (42, [(_CRITERION_4_SPEC, "train"),
                         (dataclasses.replace(_CRITERION_4_SPEC, n_segments=200), "val")]),
    "benchmark": (933, [(BENCHMARK_SPEC, "train")]),
}


class TestRoundTripBanks:
    @pytest.mark.parametrize("name", _ROUND_TRIP_BANKS)
    def test_zip_loads_the_bits_synth_generate_built(self, tmp_path, name):
        seed, banks = _ROUND_TRIP_BANKS[name]
        for spec, split in banks:
            bank = synth_generate(spec, seed, split)
            save_feature_bank(bank, tmp_path / f"{split}.bank")
            assert _same_bits(load_feature_bank(tmp_path / f"{split}.bank"), bank), split

    def test_walkthrough_spec_is_the_readme_synth(self, tmp_path):
        from gatedfusion.cli import main
        assert main(["synth", "--seed", "7", "--out-dir", str(tmp_path), "--train-segments",
                     "400", "--val-segments", "150", "--verbs", "5", "--nouns", "12",
                     "--pairs-per-verb", "3", "--noise", "0.25"]) == 0
        save_feature_bank(synth_generate(_WALKTHROUGH_SPEC, 7, "train"), tmp_path / "lib.bank")
        assert (tmp_path / "train.bank").read_bytes() == (tmp_path / "lib.bank").read_bytes()


# --- one codec: rows, files and blocks -------------------------------------------


def _row_x(center=10, score=0.5, clip=(1.0, 2.0), feature=(0.1, 0.2), verb=0, noun=1):
    """Record 'x' as a ``SegmentRecord``."""
    return SegmentRecord("x", np.array(clip), center, [Detection(10, score, np.array(feature))],
                         verb, noun)


class TestBlockCodec:
    @pytest.mark.parametrize("fault,message", [
        ({"center": "7"}, "'center' must be an integer, got '7'"),
        ({"center": True}, "'center' must be an integer, got True"),
        ({"center": 10**30}, f"center {10**30} does not fit in int64"),
        ({"score": "0.5"}, "detection 0 score must be a number"),
        ({"score": True}, "detection 0 score must be a number"),
        ({"score": 10**400}, "detection 0 score must be a number"),
        ({"clip": (1.0, 2.0, 3.0)}, "clip_feature has dim 3, bank declares dim_v=2"),
        ({"clip": (10**400, 2.0)}, "clip_feature must be an array of numbers"),
        ({"clip": ((1.0, 2.0),)}, "clip_feature must be a flat array"),
        ({"feature": (float("nan"), 0.0)}, "detection 0 feature has non-finite entries"),
        ({"feature": (10**400, 0.0)}, "detection 0 feature must be an array of numbers"),
        ({"verb": -1}, "verb label -1 out of range [0, 3)"),
        ({"noun": 4}, "noun label 4 out of range [0, 4)"),
    ], ids=["center-str", "center-bool", "center-10**30", "score-str", "score-bool",
            "score-10**400", "clip-dim", "clip-10**400", "clip-2d", "feature-nan",
            "feature-10**400", "label--1", "label-past-vocab"])
    def test_a_faulty_record_is_named_with_its_field(self, fault, message):
        good = _small_records()
        with pytest.raises(ValidationError) as from_records:
            _small_bank(good[:1] + [_row_x(**fault)] + good[1:])
        assert str(from_records.value) == f"record 'x': {message}"

    @pytest.mark.parametrize("header,message", [
        ({"dim_v": 0}, "dim_v must be >= 1, got 0"),
        ({"verb_vocab_size": 0}, "verb_vocab_size must be >= 1, got 0"),
    ], ids=["dim_v-0", "verbs-0"])
    def test_a_header_of_no_width_is_refused(self, header, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            FeatureBank.from_records(_small_records(), **{**_SMALL_HEADER, **header})

    def test_signed_zeros_and_subnormals_load_bit_for_bit(self, tmp_path):
        bank = FeatureBank.from_records([
            SegmentRecord("\u00e9-1", np.array([-0.0, 5e-324]), 7,
                          [Detection(6, 0.25, np.array([1.5, -2.0])),
                           Detection(9, 1.0, np.array([0.1, 1e300]))], 1, 0),
            SegmentRecord("b", np.array([1.0, 2.0]), -3,
                          [Detection(-3, 0.0, np.array([-0.0, 5e-324]))]),
            SegmentRecord("c", np.array([0.5, -0.25]), 0, [], None, 2),
        ], dim_v=2, dim_o=2, verb_vocab_size=2, noun_vocab_size=3)
        assert_same_bank_bytes(load_feature_bank(_saved(tmp_path, bank)), bank)

    def test_load_and_save_build_no_rows(self, tmp_path):
        src = _saved(tmp_path)
        with mock.patch.object(bank_module, "Detection", side_effect=AssertionError), \
                mock.patch.object(bank_module, "SegmentRecord", side_effect=AssertionError):
            bank = load_feature_bank(src)
            save_feature_bank(bank, tmp_path / "again.bank")
            assert_same_bank_bytes(load_feature_bank(tmp_path / "again.bank"), bank)

    def test_save_peak_memory_is_below_the_blocks(self, tmp_path):
        # Each member is written from its block: building the whole zip in
        # memory first peaks near twice the block bytes.
        bank = synth_generate(dataclasses.replace(BENCHMARK_SPEC, n_segments=500), 3)
        blocks = sum(getattr(bank, name).nbytes for name in bank_module._BLOCKS)
        tracemalloc.start()
        try:
            save_feature_bank(bank, tmp_path / "m.bank")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert blocks > 4 * 2**20
        assert peak < 1.5 * blocks
