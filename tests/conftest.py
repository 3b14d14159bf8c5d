"""Shared test helpers: an independent central-difference gradient oracle,
exact bank equality and the record-by-record synthetic bank generator."""

import zlib
from dataclasses import fields

import numpy as np

from gatedfusion.bank import Detection, FeatureBank, SegmentRecord, SynthSpec


def central_diff(f, x, step=1e-5):
    """Gradient of scalar ``f`` at array ``x`` by central differences.

    Test-side oracle, deliberately independent of the package's analytic
    backward passes and of its own grad-check utility.
    """
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    gflat = grad.ravel()
    for j in range(x.size):
        xp = x.copy()
        xp.ravel()[j] += step
        xm = x.copy()
        xm.ravel()[j] -= step
        gflat[j] = (f(xp) - f(xm)) / (2.0 * step)
    return grad


def rel_err(a, b, floor=1e-8):
    """Max elementwise relative error with denominator max(|a|, |b|, floor)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.size == 0:
        return 0.0
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom))


def banks_equal(a: FeatureBank, b: FeatureBank) -> bool:
    """Exact equality of two banks: header, ids and every block."""
    def same(x, y):
        return np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y
    return all(same(getattr(a, f.name), getattr(b, f.name)) for f in fields(FeatureBank))


def _unit_prototypes(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    protos = np.abs(rng.normal(size=(count, dim)))
    norms = np.maximum(np.linalg.norm(protos, axis=1, keepdims=True), 1e-12)
    return protos / norms


def reference_synth_generate(spec: SynthSpec, seed: int, split: str = "train") -> FeatureBank:
    """Test-side oracle for ``bank.synth_generate``: the same draws, with
    each record's features computed as they are drawn and the bank packed
    from ``SegmentRecord`` rows."""
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

    return FeatureBank.from_records(records, dim_v=spec.dim_v, dim_o=spec.dim_o,
                                    verb_vocab_size=spec.verb_vocab,
                                    noun_vocab_size=spec.noun_vocab)
