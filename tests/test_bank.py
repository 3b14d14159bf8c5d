import dataclasses
import json
import tempfile
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gatedfusion import bank as bank_module
from gatedfusion.bank import (AggregationConfig, Detection, FeatureBank,
                              SegmentRecord, SynthSpec,
                              aggregate_object_feature, bank_features, bank_stats,
                              context_window, load_feature_bank,
                              maxpool_features, save_feature_bank,
                              select_top_k, synth_generate)
from gatedfusion.errors import ShapeError, ValidationError

from conftest import banks_equal, reference_synth_generate


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
        message = {"k": "aggregation k must be an integer",
                   "window": "window must be a positive odd integer"}
        with pytest.raises(ValidationError, match=message[field]):
            AggregationConfig(**{field: value})


class TestContextWindow:
    def test_interval_membership(self):
        dets = [det(f, 0.5, 1.0) for f in (97, 98, 100, 103)]
        cfg = AggregationConfig(k=10, window=5)
        out = context_window(record(dets, center=100), cfg)
        assert [d.frame_index for d in out] == [98, 100]

    def test_degenerate_window(self):
        dets = [det(99, 0.5, 1.0), det(100, 0.5, 2.0), det(101, 0.5, 3.0)]
        out = context_window(record(dets, center=100), AggregationConfig(window=1))
        assert [d.frame_index for d in out] == [100]

    def test_empty(self):
        assert context_window(record([], center=7), AggregationConfig()) == []


class TestSelectTopK:
    def test_highest_scores(self):
        dets = [det(0, 0.9, 1.0), det(1, 0.3, 2.0), det(2, 0.8, 3.0)]
        out = select_top_k(dets, 2)
        assert [d.score for d in out] == [0.9, 0.8]

    def test_saturates(self):
        dets = [det(0, 0.9, 1.0), det(1, 0.3, 2.0)]
        assert select_top_k(dets, 5) == dets

    def test_tie_breaks_by_frame_then_position(self):
        a, b, c = det(5, 0.5, 1.0), det(3, 0.5, 2.0), det(5, 0.5, 3.0)
        out = select_top_k([a, b, c], 2)
        assert out == [b, a]

    def test_equal_everything_is_input_order_stable(self):
        a, b, c = det(1, 0.5, 1.0), det(1, 0.5, 2.0), det(1, 0.5, 3.0)
        assert select_top_k([a, b, c], 2) == [a, b]

    def test_k_validation(self):
        with pytest.raises(ValidationError):
            select_top_k([], 0)

    @given(st.permutations(list(range(8))))
    def test_permutation_insensitive_for_distinct_keys(self, perm):
        base = [det(i, round(0.1 + 0.1 * i, 3), float(i)) for i in range(8)]
        shuffled = [base[i] for i in perm]
        out = select_top_k(shuffled, 3)
        assert [d.feature[0] for d in out] == [7.0, 6.0, 5.0]


class TestMaxpool:
    def test_coordinatewise_max(self):
        out = maxpool_features([det(0, 1.0, 1.0, 5.0), det(1, 1.0, 3.0, 2.0)], 2)
        assert np.array_equal(out, [3.0, 5.0])

    def test_single(self):
        out = maxpool_features([det(0, 1.0, 4.0, -1.0)], 2)
        assert np.array_equal(out, [4.0, -1.0])

    def test_empty_is_zero(self):
        assert np.array_equal(maxpool_features([], 3), np.zeros(3))

    def test_dim_mismatch(self):
        with pytest.raises(ShapeError):
            maxpool_features([det(0, 1.0, 1.0, 2.0)], 3)


def _random_record(rng, i, dim_o=3):
    n = int(rng.integers(0, 12))
    center = int(rng.integers(50, 60))
    dets = [Detection(frame_index=int(rng.integers(center - 5, center + 6)),
                      score=float(rng.uniform()),
                      feature=rng.normal(size=dim_o)) for _ in range(n)]
    return SegmentRecord(segment_id=f"r{i}", clip_feature=rng.normal(size=2),
                         clip_center_frame=center, detections=dets)


class TestAggregate:
    def test_composition_equals_steps(self):
        rng = np.random.default_rng(4)
        cfg = AggregationConfig(k=4, window=3)
        for i in range(20):
            rec = _random_record(rng, i)
            expected = maxpool_features(
                select_top_k(context_window(rec, cfg), cfg.k), 3)
            assert np.array_equal(aggregate_object_feature(rec, cfg, 3), expected)

    def test_no_detections(self):
        out = aggregate_object_feature(record([]), AggregationConfig(), 4)
        assert np.array_equal(out, np.zeros(4))

    def test_degenerate_config_picks_best_center_box(self):
        dets = [det(100, 0.9, 1.0, 0.0), det(100, 0.95, 0.0, 2.0),
                det(101, 0.99, 9.0, 9.0)]
        cfg = AggregationConfig(k=1, window=1)
        out = aggregate_object_feature(record(dets, center=100), cfg, 2)
        assert np.array_equal(out, [0.0, 2.0])

    def test_monotone_in_k(self):
        rng = np.random.default_rng(5)
        for i in range(10):
            rec = _random_record(rng, i)
            prev = None
            for k in range(1, 8):
                cur = aggregate_object_feature(rec, AggregationConfig(k=k), 3)
                if prev is not None and rec.detections:
                    assert np.all(cur >= prev - 1e-15)
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


def _bank_file_lines():
    header = {"dim_v": 2, "dim_o": 2, "verb_vocab_size": 3, "noun_vocab_size": 4}
    recs = [
        {"segment_id": "a", "clip_feature": [1.0, 2.0], "center": 10,
         "detections": [{"frame": 10, "score": 0.5, "feature": [0.1, 0.2]}],
         "verb": 0, "noun": 1},
        {"segment_id": "b", "clip_feature": [0.5, -1.0], "center": 20,
         "detections": [], "verb": 2, "noun": 3},
        {"segment_id": "c", "clip_feature": [0.0, 0.0], "center": 30,
         "detections": [{"frame": 29, "score": 1.0, "feature": [5.0, 6.0]},
                        {"frame": 31, "score": 0.0, "feature": [7.0, 8.0]}]},
    ]
    return [json.dumps(header)] + [json.dumps(r) for r in recs]


class TestLoader:
    def test_well_formed(self, tmp_path):
        path = tmp_path / "ok.bank"
        path.write_text("\n".join(_bank_file_lines()) + "\n", encoding="utf-8")
        bank = load_feature_bank(path)
        assert len(bank.records) == 3
        assert bank.records[0].verb_label == 0
        assert bank.records[2].noun_label is None
        assert np.array_equal(bank.records[1].clip_feature, [0.5, -1.0])

    def test_label_out_of_range_names_record(self, tmp_path):
        lines = _bank_file_lines()
        rec = json.loads(lines[1])
        rec["noun"] = 9
        lines[1] = json.dumps(rec)
        path = tmp_path / "bad.bank"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="'a'.*noun label 9"):
            load_feature_bank(path)

    def test_mixed_object_dims_rejected(self, tmp_path):
        lines = _bank_file_lines()
        rec = json.loads(lines[3])
        rec["detections"][0]["feature"] = [1.0, 2.0, 3.0]
        lines[3] = json.dumps(rec)
        path = tmp_path / "bad.bank"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="dim_o=2"):
            load_feature_bank(path)

    def test_duplicate_segment_id(self, tmp_path):
        lines = _bank_file_lines()
        lines.append(lines[1])
        path = tmp_path / "dup.bank"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="duplicate segment_id"):
            load_feature_bank(path)

    def test_parse_error_reports_line(self, tmp_path):
        lines = _bank_file_lines()
        lines[2] = "{not json"
        path = tmp_path / "parse.bank"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="line 3"):
            load_feature_bank(path)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "empty.bank"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ValidationError, match="header"):
            load_feature_bank(path)

    def test_score_out_of_range(self, tmp_path):
        lines = _bank_file_lines()
        rec = json.loads(lines[1])
        rec["detections"][0]["score"] = 1.5
        lines[1] = json.dumps(rec)
        path = tmp_path / "score.bank"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="score"):
            load_feature_bank(path)

    def test_roundtrip_equal_and_stable_bytes(self, tmp_path):
        src = tmp_path / "src.bank"
        src.write_text("\n".join(_bank_file_lines()) + "\n", encoding="utf-8")
        bank = load_feature_bank(src)
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
    signed zeros count), and with ``tmp_path`` equal saved bank and sidecar
    bytes."""
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
    for suffix in ("", ".npz"):
        assert (Path(f"{paths[0]}{suffix}").read_bytes()
                == Path(f"{paths[1]}{suffix}").read_bytes())


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
        by_noun_tr = {r.noun_label: aggregate_object_feature(r, cfg, tr.dim_o)
                      for r in tr.records}
        for r in va.records:
            if r.noun_label in by_noun_tr:
                assert np.allclose(
                    aggregate_object_feature(r, cfg, va.dim_o),
                    by_noun_tr[r.noun_label], rtol=1e-12)

    def test_mismatch_amplitude_ratio(self):
        bank = synth_generate(SynthSpec(n_segments=300, mismatch=1e3), 11)
        stats = bank_stats(bank, AggregationConfig())
        assert 3e2 <= stats["amplitude_ratio"] <= 3e3

    def test_noise_zero_linear_probe_recovers_nouns(self):
        bank = synth_generate(SynthSpec(n_segments=150, noise=0.0), 9)
        cfg = AggregationConfig()
        feats = np.stack([aggregate_object_feature(r, cfg, bank.dim_o)
                          for r in bank.records])
        labels = np.array([r.noun_label for r in bank.records])
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

    def test_invalid_spec(self):
        with pytest.raises(ValidationError):
            SynthSpec(n_segments=0)
        with pytest.raises(ValidationError):
            SynthSpec(n_segments=1, mismatch=0.0)
        with pytest.raises(ValidationError):
            SynthSpec(n_segments=1, window=2)
        with pytest.raises(ValidationError):
            SynthSpec(n_segments=1, noun_vocab=4, pairs_per_verb=5)

    @pytest.mark.parametrize("field,value", [("window", 2**63 + 1), ("amplitude_jitter", 309.0)])
    def test_spec_that_cannot_be_generated_rejected(self, field, value):
        with pytest.raises(ValidationError, match=field.replace("_", " ")):
            SynthSpec(n_segments=1, **{field: value})

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
                                       "distractors", "decoys"])
    def test_oversized_spec_rejected_before_any_draw(self, field):
        # 2**62 rows or columns of float64 is past the int64 byte range, so
        # nothing is allocated.
        spec = dataclasses.replace(SynthSpec(n_segments=1), **{field: 2**62})
        start = time.perf_counter()
        with mock.patch.object(np.random, "default_rng", side_effect=AssertionError), \
                pytest.raises(ValidationError, match="is too large to generate"):
            synth_generate(spec, 0)
        assert time.perf_counter() - start < 1.0

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
        stats = bank_stats(bank, AggregationConfig(), pair_threshold=1)
        assert stats["records"] == 40
        assert stats["verb_labeled"] == 40
        assert stats["labeled_pairs"] == 40
        assert stats["distinct_pairs"] >= 1
        assert stats["pairs_above_threshold"] <= stats["distinct_pairs"]


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

    @pytest.mark.parametrize("space,size", [("verb", 3), ("noun", 4)])
    def test_explicit_label_minus_one_rejected_in_a_bank_file(self, tmp_path, space, size):
        lines = _bank_file_lines()
        rec = json.loads(lines[1])
        rec[space] = -1
        lines[1] = json.dumps(rec)
        path = tmp_path / "neg.bank"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ValidationError,
                           match=rf"record 'a': {space} label -1 out of range \[0, {size}\)"):
            load_feature_bank(path)

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
    def test_integer_outside_int64_rejected(self, tmp_path, field):
        lines = _bank_file_lines()
        rec = json.loads(lines[1])
        if field == "center":
            rec["center"] = 10**30
        else:
            rec["detections"][0]["frame"] = -10**30
        lines[1] = json.dumps(rec)
        path = tmp_path / "big.bank"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ValidationError, match=f"record 'a': .*{field} .* does not fit in int64"):
            load_feature_bank(path)

    @pytest.mark.parametrize("name,kind", [
        *[(name, np.float64) for name in ("frames", "centers", "labels", "counts")],
        *[(name, kind) for name in ("clip", "scores", "features")
          for kind in (np.float32, np.int64)],
        *[(name, list) for name in bank_module._BLOCKS]])
    def test_block_of_wrong_dtype_rejected(self, tmp_path, name, kind):
        # float frames and labels (0.5 too) used to validate, and
        # bank_features then read the float bits as integers
        bank = load_feature_bank(_write_lines(tmp_path / "ok.bank"))
        block = getattr(bank, name)
        bank = dataclasses.replace(bank, **{name: block.tolist() if kind is list
                                            else block.astype(kind)})
        with pytest.raises(ValidationError, match=f"bank block '{name}' must be an array of"):
            bank.validate()
        with pytest.raises(ValidationError, match=f"bank block '{name}' must be an array of"):
            save_feature_bank(bank, tmp_path / "out.bank")


# --- binary sidecar -------------------------------------------------------------

_ODD_IDS = ["", "\x00", "a\x00", "\x00\x00", "\ud800", "x\udfff\x00", "\ud83d\ude00",
            "\U0001f600", "é", '"\\\n\t', "\u2028"]
_INT64S = st.integers(-2**63, 2**63 - 1)
_FLOATS = st.floats(allow_nan=False, allow_infinity=False)


def _json_id(seg_id: str) -> str:
    """What a saved id reads back as: JSON joins an escaped surrogate pair."""
    return json.loads(json.dumps(seg_id))


@st.composite
def _banks(draw):
    dim_v, dim_o = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    verbs, nouns = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    ids = draw(st.lists(st.sampled_from(_ODD_IDS)
                        | st.text(st.characters(exclude_categories=()), max_size=4),
                        max_size=4, unique_by=_json_id))

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
    return not any(r.clip_feature.flags.writeable
                   or any(d.feature.flags.writeable for d in r.detections)
                   for r in bank.records)


def _json_parse_forbidden():
    return mock.patch.object(bank_module, "_parse_bank",
                             side_effect=AssertionError("JSON parsed despite a valid sidecar"))


def _json_parse_spy():
    return mock.patch.object(bank_module, "_parse_bank", wraps=bank_module._parse_bank)


def _saved(tmp_path, bank=None):
    """Save ``bank`` (default: the ``_bank_file_lines`` bank); returns the
    bank path and its sidecar path."""
    if bank is None:
        bank = load_feature_bank(_write_lines(tmp_path / "src.bank"))
    path = tmp_path / "b.bank"
    save_feature_bank(bank, path)
    return path, Path(f"{path}.npz")


def _write_lines(path, lines=None):
    path.write_text("\n".join(lines or _bank_file_lines()) + "\n", encoding="utf-8")
    return path


class TestSidecar:
    @settings(max_examples=150, deadline=None)
    @given(bank=_banks())
    def test_sidecar_and_json_paths_agree(self, bank):
        with tempfile.TemporaryDirectory() as tmp:
            path, sidecar = _saved(Path(tmp), bank)
            with _json_parse_forbidden():
                from_sidecar = load_feature_bank(path)
            sidecar.unlink()
            from_json = load_feature_bank(path)
        bank = dataclasses.replace(bank, ids=[_json_id(seg_id) for seg_id in bank.ids])
        assert _same_bits(from_sidecar, bank) and _same_bits(from_json, bank)
        assert _read_only(from_sidecar) and _read_only(from_json)

    def test_empty_blocks_round_trip(self, tmp_path):
        bank = FeatureBank.from_records([], dim_v=3, dim_o=2, verb_vocab_size=1,
                                        noun_vocab_size=1)
        path, sidecar = _saved(tmp_path, bank)
        with np.load(sidecar, allow_pickle=False) as npz:
            assert npz["clip"].shape == (0, 3) and npz["features"].shape == (0, 2)
        with _json_parse_forbidden():
            assert _same_bits(load_feature_bank(path), bank)
        bank = FeatureBank.from_records(
            [SegmentRecord(segment_id="z", clip_feature=np.ones(3), clip_center_frame=4,
                           detections=[])], dim_v=3, dim_o=2, verb_vocab_size=1,
            noun_vocab_size=1)
        path, sidecar = _saved(tmp_path, bank)
        with np.load(sidecar, allow_pickle=False) as npz:
            assert npz["clip"].shape == (1, 3) and npz["features"].shape == (0, 2)
            assert npz["labels"].tolist() == [[-1, -1]]
        with _json_parse_forbidden():
            assert _same_bits(load_feature_bank(path), bank)

    def test_edited_bank_loads_edited_content(self, tmp_path):
        path, _ = _saved(tmp_path)
        lines = path.read_text(encoding="utf-8").splitlines()
        rec = json.loads(lines[1])
        rec["verb"], rec["clip_feature"] = 2, [7.0, 8.0]
        lines[1] = json.dumps(rec)
        _write_lines(path, lines)
        with _json_parse_spy() as spy:
            bank = load_feature_bank(path)
        assert spy.call_count == 1
        assert bank.records[0].verb_label == 2
        assert np.array_equal(bank.records[0].clip_feature, [7.0, 8.0])

    @pytest.mark.parametrize("kind", ["garbage", "empty", "truncated", "object-array",
                                      "short-block", "wrong-dtype", "not-a-zip-npy"])
    def test_unusable_sidecar_falls_back_to_json(self, tmp_path, kind):
        path, sidecar = _saved(tmp_path)
        expected = load_feature_bank(path)
        with np.load(sidecar, allow_pickle=False) as npz:
            blocks = {name: npz[name] for name in npz.files}
        if kind == "garbage":
            sidecar.write_bytes(b"\x80\x04junk" * 50)
        elif kind == "empty":
            sidecar.write_bytes(b"")
        elif kind == "truncated":
            sidecar.write_bytes(sidecar.read_bytes()[:-200])
        elif kind == "not-a-zip-npy":
            with open(sidecar, "wb") as fh:
                np.save(fh, blocks["clip"])
        else:
            if kind == "object-array":
                blocks["clip"] = np.array([object()] * 3)
            elif kind == "short-block":
                blocks["frames"] = blocks["frames"][:-1]
            else:
                blocks["scores"] = blocks["scores"].astype(np.float32)
            with open(sidecar, "wb") as fh:
                np.savez(fh, **blocks)
        with _json_parse_spy() as spy:
            bank = load_feature_bank(path)
        assert spy.call_count == 1
        assert _same_bits(bank, expected)

    @settings(max_examples=150, deadline=None)
    @given(cut=st.none() | st.integers(0, 10**6),
           flips=st.lists(st.tuples(st.integers(0, 10**6), st.integers(1, 255)), max_size=3))
    def test_corrupted_sidecar_bytes_never_fail_a_load(self, cut, flips):
        with tempfile.TemporaryDirectory() as tmp:
            path, sidecar = _saved(Path(tmp))
            expected = load_feature_bank(path)
            data = bytearray(sidecar.read_bytes())
            for pos, mask in flips:
                data[pos % len(data)] ^= mask
            sidecar.write_bytes(bytes(data[:cut]))
            assert _same_bits(load_feature_bank(path), expected)

    def test_deleted_sidecar_still_loads(self, tmp_path):
        path, sidecar = _saved(tmp_path)
        with _json_parse_forbidden():
            expected = load_feature_bank(path)
        sidecar.unlink()
        assert _same_bits(load_feature_bank(path), expected)

    def test_saving_twice_gives_identical_sidecars(self, tmp_path):
        bank = synth_generate(SynthSpec(n_segments=5), 3)
        first = tmp_path / "first.bank"
        save_feature_bank(bank, first)
        path, sidecar = _saved(tmp_path, bank)
        assert sidecar.read_bytes() == Path(str(first) + ".npz").read_bytes()
        before = sidecar.read_bytes()
        save_feature_bank(bank, path)
        assert sidecar.read_bytes() == before


# --- one codec: rows, files and blocks -------------------------------------------


def _row_x(center=10, score=0.5, clip=(1.0, 2.0), feature=(0.1, 0.2), verb=0, noun=1):
    """Record 'x' as a ``SegmentRecord`` and as a bank file line."""
    rec = SegmentRecord("x", np.array(clip), center, [Detection(10, score, np.array(feature))],
                        verb, noun)
    line = json.dumps({"segment_id": "x", "clip_feature": list(clip), "center": center,
                       "detections": [{"frame": 10, "score": score, "feature": list(feature)}],
                       "verb": verb, "noun": noun})
    return rec, line


_PINNED_BANK_TEXT = (
    '{"dim_v":2,"dim_o":2,"verb_vocab_size":2,"noun_vocab_size":3}\n'
    '{"segment_id":"\\u00e9-1","clip_feature":[-0.0,5e-324],"center":7,"detections":['
    '{"frame":6,"score":0.25,"feature":[1.5,-2.0]},'
    '{"frame":9,"score":1.0,"feature":[0.1,1e+300]}],"verb":1,"noun":0}\n'
    '{"segment_id":"b","clip_feature":[1.0,2.0],"center":-3,"detections":['
    '{"frame":-3,"score":0.0,"feature":[-0.0,5e-324]}]}\n'
    '{"segment_id":"c","clip_feature":[0.5,-0.25],"center":0,"detections":[],"noun":2}\n')


class TestBlockCodec:
    @pytest.mark.parametrize("fault,message", [
        ({"center": "7"}, "'center' must be an integer, got '7'"),
        ({"center": True}, "'center' must be an integer, got True"),
        ({"center": 10**30}, f"center {10**30} does not fit in int64"),
        ({"score": "0.5"}, "detection 0 score must be a number"),
        ({"score": True}, "detection 0 score must be a number"),
        ({"score": 10**400}, "detection 0 score must be a number"),
        ({"clip": (1.0, 2.0, 3.0)}, "clip_feature has dim 3, bank declares dim_v=2"),
        ({"feature": (float("nan"), 0.0)}, "detection 0 feature has non-finite entries"),
        ({"verb": -1}, "verb label -1 out of range [0, 3)"),
        ({"noun": 4}, "noun label 4 out of range [0, 4)"),
    ], ids=["center-str", "center-bool", "center-10**30", "score-str", "score-bool",
            "score-10**400", "clip-dim", "feature-nan", "label--1", "label-past-vocab"])
    def test_records_and_bank_files_fail_alike(self, tmp_path, fault, message):
        rec, line = _row_x(**fault)
        good = load_feature_bank(_write_lines(tmp_path / "ok.bank")).records
        with pytest.raises(ValidationError) as from_records:
            FeatureBank.from_records(good[:1] + [rec] + good[1:], dim_v=2, dim_o=2,
                                     verb_vocab_size=3, noun_vocab_size=4)
        lines = _bank_file_lines()
        lines.insert(2, line)
        path = _write_lines(tmp_path / "x.bank", lines)
        with pytest.raises(ValidationError) as from_file:
            load_feature_bank(path)
        assert str(from_records.value) == f"record 'x': {message}"
        assert str(from_file.value) == f"{path}: line 3: record 'x': {message}"

    def test_saved_text_is_pinned_and_reloads_bit_for_bit(self, tmp_path):
        bank = FeatureBank.from_records([
            SegmentRecord("\u00e9-1", np.array([-0.0, 5e-324]), 7,
                          [Detection(6, 0.25, np.array([1.5, -2.0])),
                           Detection(9, 1.0, np.array([0.1, 1e300]))], 1, 0),
            SegmentRecord("b", np.array([1.0, 2.0]), -3,
                          [Detection(-3, 0.0, np.array([-0.0, 5e-324]))]),
            SegmentRecord("c", np.array([0.5, -0.25]), 0, [], None, 2),
        ], dim_v=2, dim_o=2, verb_vocab_size=2, noun_vocab_size=3)
        path, sidecar = _saved(tmp_path, bank)
        assert path.read_text(encoding="utf-8") == _PINNED_BANK_TEXT
        with _json_parse_forbidden():
            assert_same_bank_bytes(load_feature_bank(path), bank)
        sidecar.unlink()
        assert_same_bank_bytes(load_feature_bank(path), bank)

    def test_load_save_and_validate_build_no_rows(self, tmp_path):
        src = _write_lines(tmp_path / "src.bank")
        with mock.patch.object(bank_module, "Detection", side_effect=AssertionError), \
                mock.patch.object(bank_module, "SegmentRecord", side_effect=AssertionError):
            bank = load_feature_bank(src)
            bank.validate()
            path, _ = _saved(tmp_path, bank)
            assert_same_bank_bytes(load_feature_bank(path), bank)

    def test_save_peak_memory_is_below_the_blocks(self, tmp_path):
        # Each line is written from its record's slices; converting a whole
        # block to Python floats at once peaks near 4x the block bytes.
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
