"""Acceptance suite: one test per criterion, printing a PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
complete.
"""

import time

import numpy as np
import pytest

from gatedfusion.bank import (AggregationConfig, Detection, FeatureBank,
                              SegmentRecord, SynthSpec, bank_features,
                              synth_generate)
from gatedfusion.cli import main
from gatedfusion.gfa import Affine, ScaleMode, scale_object_feature
from gatedfusion.scoring import (ActionPrior, ScoreTable, compute_prior,
                                 reweight_actions, score_actions_for_bank,
                                 topk_report)
from gatedfusion.training import (Model, ModelSpec, TrainConfig, forward_model,
                                  init_model, loss_and_grads, param_groups, train)

from conftest import (aggregate_object_feature, context_window, dense_prior,
                      five_point_diff, logsumexp_nll, maxpool_features, rel_err,
                      select_top_k)


def _report(number, description, ok):
    print(f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {number} failed: {description}"


# --- 1: gradient fidelity -------------------------------------------------------

_FUSIONS = [
    ("clip-only", ScaleMode()),
    ("concat", ScaleMode()),
    ("gfa-a", ScaleMode("scalar", s=2.0)),
    ("gfa-a", ScaleMode("norm")),
    ("gfa-b", ScaleMode()),
]


def _instance_grads(fusion, scale, seed):
    """Analytic and test-oracle gradients for one seeded random instance."""
    rng = np.random.default_rng(seed)
    dim_v = int(rng.integers(2, 17))
    dim_o = int(rng.integers(2, 17))
    classes = int(rng.integers(2, 9))
    model = init_model(fusion, dim_v, dim_o, classes, scale=scale, rng=rng)
    v = rng.uniform(-2, 2, dim_v)
    o = rng.uniform(-2, 2, dim_o)
    while float(np.linalg.norm(o)) <= 0.1:
        o = rng.uniform(-2, 2, dim_o)
    label = int(rng.integers(classes))

    _, analytic = loss_and_grads(model, v, o, label)
    base = param_groups(model)

    def loss_at(vv, oo):
        scores, _ = forward_model(model, vv, oo)
        return float(logsumexp_nll(scores, label))

    def loss_with(name, x):
        """The loss with parameter group ``name`` set to ``x`` in place."""
        saved = base[name].copy()
        base[name][...] = x
        try:
            return loss_at(v, o)
        finally:
            base[name][...] = saved

    pairs = []
    for name in list(base) + ["v", "o"]:
        if name == "v":
            numeric = five_point_diff(lambda x: loss_at(x, o), v)
        elif name == "o":
            numeric = five_point_diff(lambda x: loss_at(v, x), o)
        else:
            numeric = five_point_diff(lambda x, name=name: loss_with(name, x), base[name])
        pairs.append((analytic[name], numeric))
    return pairs


def test_criterion_01_gradient_fidelity():
    start = time.monotonic()
    for fusion, scale in _FUSIONS:
        for seed in range(10_000, 10_020):
            for analytic, numeric in _instance_grads(fusion, scale, seed):
                err = rel_err(analytic, numeric)
                assert err < 1e-5, (fusion, scale.kind, seed, err)
    elapsed = time.monotonic() - start
    _report(1, f"end-to-end gradients match finite differences "
               f"(<1e-5, {elapsed:.1f}s < 10s)", elapsed < 10.0)


# --- 2: structural checks -------------------------------------------------------

def test_criterion_02_gate_structure():
    rng = np.random.default_rng(77)
    checked = 0
    for _ in range(50):
        dim_v = int(rng.integers(2, 9))
        dim_o = int(rng.integers(2, 9))
        ma = init_model("gfa-a", dim_v, dim_o, 1, ScaleMode("norm"), rng)
        mb = init_model("gfa-b", dim_v, dim_o, 1, ScaleMode(), rng)
        for _ in range(10):
            v = rng.uniform(-3, 3, dim_v)
            o = rng.uniform(-3, 3, dim_o)
            ca = forward_model(ma, v, o)[1]
            cb = forward_model(mb, v, o)[1]
            assert np.all(ca.gfa_cache.gate > 0.0) and np.all(ca.gfa_cache.gate < 1.0)
            assert np.all(cb.gfa_cache.gate > 0.0) and np.all(cb.gfa_cache.gate < 1.0)
            assert ca.feature.shape == (dim_v + dim_o,)
            assert cb.feature.shape == (dim_v,)
            checked += 2
    assert checked == 1000

    # W = 0, b = 0 halves the gated input exactly
    v, o = np.array([1.5, -2.0, 0.25]), np.array([4.0, -8.0])
    for fusion, (width, fan_in), gated in (("gfa-a", (5, 5), np.concatenate([v, o])),
                                           ("gfa-b", (3, 2), v)):
        gate = Affine(W=np.zeros((width, fan_in)), b=np.zeros(width))
        model = Model(fusion_kind=fusion, head=Affine(np.zeros((1, width)), np.zeros(1)),
                      gfa=gate)
        cache = forward_model(model, v, o)[1]
        assert np.array_equal(cache.gfa_cache.y, gated)
        assert np.array_equal(cache.feature, 0.5 * gated)
    _report(2, "gates in (0,1) on 1000 inputs; output dims; zero-params halving", True)


# --- 3: scaling contract --------------------------------------------------------

def test_criterion_03_scaling_contract():
    rng = np.random.default_rng(78)
    mode = ScaleMode("norm")
    for _ in range(200):
        dim = int(rng.integers(1, 17))
        direction = rng.normal(size=dim)
        direction /= np.linalg.norm(direction)
        norm_o = float(10.0 ** rng.uniform(-6, 1))  # spans down to 1e-6
        o = direction * norm_o
        v = rng.uniform(-2, 2, int(rng.integers(1, 17)))
        out = scale_object_feature(o, v, mode)
        nv, nout = float(np.linalg.norm(v)), float(np.linalg.norm(out))
        assert abs(nout - nv) <= 1e-9 * max(nv, 1e-300)
        if nout > 0:
            cos = float(np.dot(o, out)) / (norm_o * nout)
            assert abs(cos - 1.0) <= 1e-12

    o = rng.normal(size=8) * np.array([1e-300, 1e300, 1.0, -0.0, 1e-8, 2.0, -3.0, 5e-4])
    out = scale_object_feature(o, rng.normal(size=3), ScaleMode("scalar", s=1.0))
    assert out.tobytes() == o.tobytes()
    _report(3, "norm scaling preserves direction and matches |v|; "
               "scalar(1) is bitwise identity", True)


# --- 4: stability analog --------------------------------------------------------

def test_criterion_04_amplitude_mismatch_stability():
    start = time.monotonic()
    kw = dict(mismatch=1e3, noise=0.35, amplitude_jitter=1.5, noun_in_clip=1.0)
    train_bank = synth_generate(SynthSpec(n_segments=500, **kw), 42, "train")
    val_bank = synth_generate(SynthSpec(n_segments=200, **kw), 42, "val")
    assert train_bank.verb_vocab_size == 10 and train_bank.noun_vocab_size == 20
    cfg = TrainConfig(learning_rate=0.1, momentum=0.9, epochs=80,
                      batch_size=32, seed=7)
    _, hist_concat = train(train_bank, "noun", ModelSpec(fusion="concat"),
                           cfg, val_bank)
    _, hist_gfa = train(train_bank, "noun",
                        ModelSpec(fusion="gfa-a", scale=ScaleMode("norm")),
                        cfg, val_bank)
    elapsed = time.monotonic() - start

    ratio = hist_concat[0]["mean_grad_norm"] / hist_gfa[0]["mean_grad_norm"]
    concat_top1 = hist_concat[-1]["val_top1"]
    gfa_top1 = hist_gfa[-1]["val_top1"]
    ok = ratio >= 100.0 and gfa_top1 > concat_top1 and elapsed < 120.0
    _report(4, f"concat/gfa-a grad-norm ratio {ratio:.0f} >= 100; val top-1 "
               f"{gfa_top1:.3f} > {concat_top1:.3f}; {elapsed:.0f}s < 120s", ok)


# --- 5: fusion benefit analog ---------------------------------------------------

def test_criterion_05_object_features_lift_nouns():
    start = time.monotonic()
    spec = dict(noise=0.03)
    train_bank = synth_generate(SynthSpec(n_segments=800, **spec), 42, "train")
    val_bank = synth_generate(SynthSpec(n_segments=200, **spec), 42, "val")
    assert train_bank.noun_vocab_size == 20
    cfg = TrainConfig(learning_rate=1.0, momentum=0.9, epochs=120,
                      batch_size=32, seed=7)
    _, hist_gfa = train(train_bank, "noun", ModelSpec(fusion="gfa-b"), cfg, val_bank)
    _, hist_clip = train(train_bank, "noun", ModelSpec(fusion="clip-only"),
                         cfg, val_bank)
    elapsed = time.monotonic() - start
    gfa_top1 = hist_gfa[-1]["val_top1"]
    clip_top1 = hist_clip[-1]["val_top1"]
    ok = gfa_top1 >= 0.95 and clip_top1 <= 1.0 / 20.0 + 0.10 and elapsed < 120.0
    _report(5, f"gfa-b val noun top-1 {gfa_top1:.3f} >= 0.95; clip-only "
               f"{clip_top1:.3f} <= 0.15; {elapsed:.0f}s < 120s", ok)


# --- 6: re-weighting correctness ------------------------------------------------

def test_criterion_06_reweighting_matches_brute_force():
    freq = {(0, 1): 0.25, (1, 0): 0.5, (2, 2): 0.25}
    prior = dense_prior(freq, 3, 3)
    pv = np.array([0.2, 0.5, 0.3])
    pn = np.array([0.6, 0.3, 0.1])
    out = reweight_actions(pv, pn, prior)
    for v in range(3):
        for n in range(3):
            expected = freq.get((v, n), 0.0) * pv[v] * pn[n]
            assert out[v, n] == expected
            if (v, n) not in freq:
                assert out[v, n] == 0.0

    rng = np.random.default_rng(79)
    uniform = ActionPrior(mu=np.ones((3, 3)))
    for _ in range(100):
        pv = rng.dirichlet(np.ones(3))
        pn = rng.dirichlet(np.ones(3))
        assert np.array_equal(
            np.argsort(reweight_actions(pv, pn, uniform).ravel()),
            np.argsort(np.outer(pv, pn).ravel()))

        pairs = {(int(rng.integers(3)), int(rng.integers(3))): float(rng.uniform(0.1, 1.0))
                 for _ in range(4)}
        base = dense_prior(pairs, 3, 3)
        c = float(rng.uniform(0.01, 100.0))
        scaled = dense_prior({k: c * f for k, f in pairs.items()}, 3, 3)
        assert np.argmax(reweight_actions(pv, pn, base)) == \
            np.argmax(reweight_actions(pv, pn, scaled))
    _report(6, "3x3 brute force exact; zero-support exact zeros; all-ones and "
               "positive rescaling invariances", True)


# --- 7: re-weighting benefit ----------------------------------------------------

def _confusion_instance(seed, segments=40, verbs=5, nouns=8):
    """Sparse prior support; noun confusion mass lands on unsupported pairs."""
    rng = np.random.default_rng(seed)
    support = {v: sorted(rng.choice(nouns, size=2, replace=False).tolist())
               for v in range(verbs)}
    train_pairs = []
    for v, nlist in support.items():
        for n in nlist:
            train_pairs.extend([(v, n)] * int(rng.integers(1, 4)))
    train_records = [
        SegmentRecord(segment_id=f"t{i}", clip_feature=np.zeros(2),
                      clip_center_frame=0, detections=[],
                      verb_label=v, noun_label=n)
        for i, (v, n) in enumerate(train_pairs)]
    train_bank = FeatureBank.from_records(train_records, dim_v=2, dim_o=2,
                                          verb_vocab_size=verbs, noun_vocab_size=nouns)
    prior = compute_prior(train_bank)

    ids, verb_rows, noun_rows, test_records = [], [], [], []
    for i in range(segments):
        v = int(rng.integers(verbs))
        n = int(rng.choice(support[v]))
        unsupported = [m for m in range(nouns) if m not in support[v]]
        m = int(rng.choice(unsupported))
        pv = np.full(verbs, 0.18 / (verbs - 1))
        pv[v] = 0.82
        pn = np.full(nouns, 0.1 / (nouns - 2))
        confused = i == 0 or rng.uniform() < 0.5
        if confused:
            pn[m], pn[n] = 0.5, 0.4
        else:
            pn[n], pn[m] = 0.6, 0.3
        ids.append(f"s{i}")
        verb_rows.append(pv)
        noun_rows.append(pn)
        test_records.append(SegmentRecord(
            segment_id=f"s{i}", clip_feature=np.zeros(2), clip_center_frame=0,
            detections=[], verb_label=v, noun_label=n))
    test_bank = FeatureBank.from_records(test_records, dim_v=2, dim_o=2,
                                         verb_vocab_size=verbs, noun_vocab_size=nouns)
    vt = ScoreTable(segment_ids=ids, scores=np.log(verb_rows), space="verb")
    nt = ScoreTable(segment_ids=ids, scores=np.log(noun_rows), space="noun")
    _, metrics, _ = score_actions_for_bank(vt, nt, prior, test_bank)
    return metrics["reweighted"]["top1"], metrics["plain"]["top1"]


def test_criterion_07_reweighting_benefit():
    strictly_better = 0
    for seed in range(5):
        reweighted, plain = _confusion_instance(300 + seed)
        assert reweighted >= plain, (seed, reweighted, plain)
        if reweighted > plain:
            strictly_better += 1
    _report(7, f"re-weighted top-1 >= plain on all 5 instances, strictly "
               f"greater on {strictly_better}", strictly_better >= 1)


# --- 8: metric oracle -----------------------------------------------------------

def test_criterion_08_topk_metric_oracle():
    rng = np.random.default_rng(80)
    classes = 11
    scores = rng.uniform(size=(100, classes))
    # inject exact ties to exercise the boundary rule
    scores[::7, 3] = scores[::7, 8]
    labels = rng.integers(0, classes, size=100)
    t = ScoreTable(segment_ids=[f"s{i}" for i in range(100)], scores=scores,
                   space="noun")
    for k in (1, 5):
        brute = 0
        for row, label in zip(scores, labels):
            order = sorted(range(classes), key=lambda j: (-row[j], j))
            brute += int(label in order[:k])
        assert topk_report(t.scores, labels)[f"top{k}"] == brute / 100
    for _ in range(20):
        sub = rng.uniform(size=(10, classes))
        sub_labels = rng.integers(0, classes, size=10)
        st_ = ScoreTable(segment_ids=[f"q{i}" for i in range(10)], scores=sub,
                         space="noun")
        report = topk_report(st_.scores, sub_labels)
        assert report["top5"] >= report["top1"]
    _report(8, "topk_report equals brute-force oracle at k in {1,5}; "
               "top-5 >= top-1", True)


# --- 9: aggregation oracle ------------------------------------------------------

def test_criterion_09_aggregation_oracle():
    rng = np.random.default_rng(81)
    cfg = AggregationConfig(k=4, window=5)
    dim_o = 3
    records = []
    for i in range(50):
        n_dets = int(rng.integers(0, 14))
        center = int(rng.integers(100, 110))
        dets = [Detection(frame_index=int(rng.integers(center - 4, center + 5)),
                          score=float(np.round(rng.uniform(), 2)),  # forces ties
                          feature=rng.normal(size=dim_o))
                for _ in range(n_dets)]
        rec = SegmentRecord(segment_id=f"r{i}", clip_feature=np.zeros(2),
                            clip_center_frame=center, detections=dets)
        expected = maxpool_features(
            select_top_k(context_window(rec, cfg), cfg.k), dim_o)
        assert np.array_equal(aggregate_object_feature(rec, cfg, dim_o), expected)
        records.append(rec)
    # the block aggregator over the same records equals the chain bit for bit
    bank = FeatureBank.from_records(records, dim_v=2, dim_o=dim_o, verb_vocab_size=1,
                                    noun_vocab_size=1)
    chain = np.stack([aggregate_object_feature(rec, cfg, dim_o) for rec in records])
    assert bank_features(bank, cfg)[1].tobytes() == chain.tobytes()

    # tie-break: equal scores resolve by frame index, then input position
    f = lambda *x: np.array(x, dtype=np.float64)
    a = Detection(frame_index=102, score=0.5, feature=f(1.0))
    b = Detection(frame_index=101, score=0.5, feature=f(2.0))
    c = Detection(frame_index=102, score=0.5, feature=f(3.0))
    picked = select_top_k([a, b, c], 2)
    assert picked == [b, a]
    # empty chain yields the zero vector
    empty = SegmentRecord(segment_id="e", clip_feature=np.zeros(2),
                          clip_center_frame=0, detections=[])
    assert np.array_equal(aggregate_object_feature(empty, cfg, dim_o),
                          np.zeros(dim_o))
    _report(9, "window -> top-K -> max-pool composition, tie and empty "
               "conventions exact on 50 random records, and bank_features "
               "equal to the chain", True)


# --- 10: manifest reproducibility -----------------------------------------------

def test_criterion_10_manifest_reproducibility(tmp_path):
    def run(*argv):
        rc = main([str(a) for a in argv])
        assert rc == 0, argv
        return rc

    d = tmp_path
    run("synth", "--seed", 19, "--out-dir", d / "synth1",
        "--train-segments", 40, "--val-segments", 15, "--mismatch", 30)
    run("synth", "--config", d / "synth1/synth.manifest.json",
        "--out-dir", d / "synth2")
    same_synth = all(
        (d / "synth1" / name).read_bytes() == (d / "synth2" / name).read_bytes()
        for name in ("train.bank", "val.bank"))

    run("train", "--bank", d / "synth1/train.bank",
        "--val-bank", d / "synth1/val.bank", "--target", "noun",
        "--fusion", "gfa-a", "--scale", "norm", "--lr", 0.2, "--epochs", 6,
        "--seed", 3, "--out-dir", d / "train1")
    run("train", "--config", d / "train1/train.manifest.json",
        "--out-dir", d / "train2")
    same_train = all(
        (d / "train1" / name).read_bytes() == (d / "train2" / name).read_bytes()
        for name in ("checkpoint.json", "history.json"))

    run("eval", "--checkpoint", d / "train1/checkpoint.json",
        "--bank", d / "synth1/val.bank", "--out-dir", d / "eval1")
    run("eval", "--config", d / "eval1/eval.manifest.json",
        "--out-dir", d / "eval2")
    same_eval = all(
        (d / "eval1" / name).read_bytes() == (d / "eval2" / name).read_bytes()
        for name in ("scores.txt", "eval_report.json"))

    _report(10, "synth/train/eval reruns from manifests are bit-identical",
            same_synth and same_train and same_eval)
