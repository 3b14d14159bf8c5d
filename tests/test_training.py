import gc
import importlib.util
import json
import re
import warnings
import weakref
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import numpy as np
import pytest

from gatedfusion import training
from gatedfusion.bank import AggregationConfig, SynthSpec, bank_features, synth_generate
from gatedfusion.errors import ShapeError, ValidationError
from gatedfusion.gfa import Affine, ScaleMode, scale_object_feature
from gatedfusion.scoring import ScoreTable, topk_report
from gatedfusion.training import (Checkpoint, Model, ModelSpec,
                                  TrainConfig, bank_inputs, forward_model,
                                  grad_check, init_model, load_checkpoint,
                                  loss_and_grads, param_groups, save_checkpoint,
                                  log_softmax, sgd_momentum_step, softmax_nll,
                                  target_labels, train)

from conftest import central_diff, logsumexp_nll, reference_train, rel_err


class TestLogSoftmax:
    def test_an_entry_far_below_its_row_maximum_keeps_its_margin(self):
        # exp underflows past about -745, and the log-probability does not
        logp = log_softmax(np.array([[0.0, -744.0, -746.0, -1e4]]))
        assert np.isfinite(logp).all() and (logp <= 0).all()
        assert logp[0, 0] == 0.0 and logp[0, 2] == -746.0 and logp[0, 3] == -1e4
        assert (np.exp(logp[0, 2:]) == 0).all()
        assert np.exp(logp).sum() == 1.0

    def test_symmetric(self):
        assert np.array_equal(log_softmax(np.array([0.0, 0.0])), [-np.log(2.0)] * 2)

    def test_large_scores_stable(self):
        with np.errstate(over="raise"):
            out = log_softmax(np.array([1000.0, 0.0]))
        assert np.array_equal(out, [0.0, -1000.0])

    def test_closed_form(self):
        out = log_softmax(np.array([np.log(1.0), np.log(3.0)]))
        assert np.allclose(out, np.log([0.25, 0.75]), rtol=1e-14)

    def test_exps_sum_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            out = log_softmax(rng.uniform(-50, 50, int(rng.integers(1, 20))))
            assert abs(float(np.sum(np.exp(out))) - 1.0) < 1e-12
            assert np.isfinite(out).all() and np.all(out <= 0)

    def test_shift_invariance(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(-5, 5, 8)
        a, b = log_softmax(x), log_softmax(x + 123.456)
        assert np.abs(a - b).max() < 1e-12

    def test_rows_of_a_block(self):
        rng = np.random.default_rng(2)
        X = rng.uniform(-50, 50, (4, 6))
        out = log_softmax(X)
        for row, x in zip(out, X):
            assert np.array_equal(row, log_softmax(x))

    def test_the_softmax_is_its_exp(self):
        scores = np.random.default_rng(3).uniform(-30, 30, (5, 7))
        assert rel_err(np.exp(log_softmax(scores)), softmax_nll(scores, np.zeros(5, int))[0],
                       floor=1e-300) < 1e-13


class TestSoftmaxNll:
    def test_uniform(self):
        assert softmax_nll(np.zeros(4), 2)[1] == np.log(4.0)

    def test_certainty(self):
        assert softmax_nll(np.array([-1000.0, 0.0]), 1)[1] == 0.0

    def test_closed_form(self):
        assert softmax_nll(np.log([1.0, 3.0]), 1)[1] == pytest.approx(-np.log(0.75), rel=1e-14)

    def test_a_saturated_label_costs_its_exact_margin(self):
        # the label's probability underflows to 0, and the loss is still exact
        scores = np.array([0.0, 1000.0])
        assert softmax_nll(scores, 0)[1] == 1000.0
        assert softmax_nll(scores, 1)[1] == 0.0

    def test_label_out_of_range(self):
        with pytest.raises(ValidationError):
            softmax_nll(np.zeros(2), 2)

    def test_non_negative_on_random_scores(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            scores = rng.uniform(-30, 30, int(rng.integers(2, 10)))
            assert softmax_nll(scores, int(rng.integers(scores.shape[0])))[1] >= 0.0

    def test_block_is_rows_of_the_independent_reference(self):
        scores = np.random.default_rng(8).uniform(-3, 3, (5, 4))
        labels = np.array([0, 3, 1, 1, 2])
        nll = softmax_nll(scores, labels)[1]
        rows = [softmax_nll(s, int(l))[1] for s, l in zip(scores, labels)]
        assert np.array_equal(nll, rows)
        assert rel_err(nll, logsumexp_nll(scores, labels)) < 1e-14

    def test_label_shape_mismatch(self):
        with pytest.raises(ShapeError):
            softmax_nll(np.zeros((3, 2)), np.array([0, 1]))

    def test_keeps_the_label_shape_and_the_softmax_bits(self):
        scores = np.random.default_rng(9).uniform(-3, 3, (2, 3, 4))
        labels = np.array([[0, 3, 1], [1, 2, 0]])
        probs, nll = softmax_nll(scores, labels)
        assert nll.shape == (2, 3)
        assert nll[1, 2] == pytest.approx(logsumexp_nll(scores[1, 2], 0), rel=1e-14)
        assert softmax_nll(scores[0, 0], 0)[1].shape == ()
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        assert np.array_equal(probs, e / e.sum(axis=-1, keepdims=True))

    def test_batch_loss_is_the_sum_of_row_losses_over_rows(self):
        # the same pairwise sum of the same values, so the same bits
        rng = np.random.default_rng(10)
        model = init_model("clip-only", 3, 2, 5, rng=rng)
        V, labels = rng.uniform(-3, 3, (37, 3)), rng.integers(5, size=37)
        nll = softmax_nll(forward_model(model, V, np.empty((37, 0)))[0], labels)[1]
        loss, _ = loss_and_grads(model, V, np.empty((37, 0)), labels)
        assert loss == float(np.sum(nll) / 37)


class TestForwardModel:
    def test_clip_only_ignores_object_feature(self):
        rng = np.random.default_rng(2)
        model = init_model("clip-only", 4, 3, 5, rng=rng)
        v = rng.normal(size=4)
        s1, _ = forward_model(model, v, rng.normal(size=3))
        s2, _ = forward_model(model, v, rng.normal(size=3))
        assert np.array_equal(s1, s2)

    def test_gfa_b_zero_params_equals_halved_clip_head(self):
        rng = np.random.default_rng(3)
        H = rng.normal(size=(5, 4))
        b = rng.normal(size=5)
        gfa = Affine(W=np.zeros((4, 3)), b=np.zeros(4))
        gated = Model(fusion_kind="gfa-b", head=Affine(W=H, b=b), gfa=gfa)
        halved = Model(fusion_kind="clip-only", head=Affine(W=0.5 * H, b=b))
        v, o = rng.normal(size=4), rng.normal(size=3)
        s1, _ = forward_model(gated, v, o)
        s2, _ = forward_model(halved, v, o)
        assert np.allclose(s1, s2, rtol=1e-15)

    def test_output_dim_is_classes_for_every_kind(self):
        rng = np.random.default_rng(4)
        for kind in ("clip-only", "concat", "gfa-a", "gfa-b"):
            model = init_model(kind, 4, 3, 7, rng=rng)
            s, _ = forward_model(model, rng.normal(size=4), rng.normal(size=3))
            assert s.shape == (7,)

    @pytest.mark.parametrize("kind", ["concat", "gfa-a", "gfa-b"])
    def test_scale_runs_once_before_fusion(self, kind):
        # a scaled model scores exactly as the same weights on the scaled o
        rng = np.random.default_rng(5)
        model = init_model(kind, 4, 3, 5, scale=ScaleMode("scalar", s=100.0), rng=rng)
        plain = Model(kind, model.head, model.gfa)
        V, O = rng.normal(size=(6, 4)), rng.normal(size=(6, 3))
        assert np.array_equal(forward_model(model, V, O)[0], forward_model(plain, V, O / 100.0)[0])

    @pytest.mark.parametrize("kind", ["clip-only", "concat", "gfa-a", "gfa-b"])
    def test_unscaled_and_parameter_only_passes_never_scale(self, monkeypatch, kind):
        def never(*args):
            raise AssertionError("scaling called")

        monkeypatch.setattr(training, "scale_vjp", never)
        rng = np.random.default_rng(6)
        V, O, labels = rng.normal(size=(6, 4)), rng.normal(size=(6, 3)), np.arange(6) % 5
        if kind != "clip-only":  # training's backward pass, inputs=False, skips the input path
            scaled = init_model(kind, 4, 3, 5, scale=ScaleMode("norm"), rng=rng)
            loss_and_grads(scaled, V, O, labels, inputs=False)
        monkeypatch.setattr(training, "scale_object_feature", never)
        loss_and_grads(init_model(kind, 4, 3, 5, rng=rng), V, O, labels)

    def test_shape_error(self):
        model = init_model("concat", 4, 3, 2, rng=np.random.default_rng(0))
        with pytest.raises(ShapeError):
            forward_model(model, np.zeros(4), np.zeros(5))

    def test_misaligned_rows_rejected(self):
        model = init_model("gfa-b", 4, 3, 2, rng=np.random.default_rng(0))
        with pytest.raises(ShapeError):
            forward_model(model, np.zeros((5, 4)), np.zeros((4, 3)))


_KINDS = [
    ("clip-only", ScaleMode()),
    ("concat", ScaleMode()),
    ("concat", ScaleMode("norm")),
    ("gfa-a", ScaleMode()),
    ("gfa-a", ScaleMode("scalar", s=2.0)),
    ("gfa-a", ScaleMode("norm")),
    ("gfa-a", ScaleMode("norm-scalar", s=2.0)),
    ("gfa-b", ScaleMode()),
    ("gfa-b", ScaleMode("norm-scalar", s=2.0)),
]
_KIND_IDS = [f"{kind}-{scale.kind}" for kind, scale in _KINDS]


def _block(kind, scale, seed, rows=6, dim_v=5, dim_o=4, classes=3):
    rng = np.random.default_rng(seed)
    model = init_model(kind, dim_v, dim_o, classes, scale=scale, rng=rng)
    V = rng.uniform(-2, 2, (rows, dim_v))
    O = rng.uniform(-2, 2, (rows, dim_o))
    labels = rng.integers(0, classes, rows)
    return model, V, O, labels


class TestBatchedCore:
    @pytest.mark.parametrize("kind,scale", _KINDS, ids=_KIND_IDS)
    def test_block_matches_stacked_rows(self, kind, scale):
        model, V, O, labels = _block(kind, scale, seed=61)
        V[1] = 0.0
        O[3] = 0.0
        rows = V.shape[0]
        with np.errstate(all="raise"):
            scores, _ = forward_model(model, V, O)
            loss, grads = loss_and_grads(model, V, O, labels)
            per_row = [loss_and_grads(model, V[i], O[i], int(labels[i]))
                       for i in range(rows)]
            row_scores = np.stack([forward_model(model, V[i], O[i])[0]
                                   for i in range(rows)])
        assert rel_err(scores, row_scores, floor=1e-300) < 1e-12
        assert loss == pytest.approx(np.mean([l for l, _ in per_row]), rel=1e-12)
        for name, g in grads.items():
            stacked = [row_grads[name] for _, row_grads in per_row]
            if name in ("v", "o"):
                expected = np.stack(stacked) / rows
            else:
                expected = np.mean(stacked, axis=0)
            assert g.shape == expected.shape, name
            assert np.allclose(g, expected, rtol=1e-12, atol=1e-15), name

    @pytest.mark.parametrize("kind,scale", _KINDS, ids=_KIND_IDS)
    def test_block_grads_match_central_differences(self, kind, scale):
        model, V, O, labels = _block(kind, scale, seed=62)
        _, analytic = loss_and_grads(model, V, O, labels)
        base = param_groups(model)

        def mean_loss(VV, OO):
            scores, _ = forward_model(model, VV, OO)
            return float(np.mean(logsumexp_nll(scores, labels)))

        def mean_loss_with(name, x):
            """The loss with parameter group ``name`` set to ``x`` in place."""
            saved = base[name].copy()
            base[name][...] = x
            try:
                return mean_loss(V, O)
            finally:
                base[name][...] = saved

        numeric = {"v": central_diff(lambda x: mean_loss(x, O), V),
                   "o": central_diff(lambda x: mean_loss(V, x), O)}
        for name in base:
            numeric[name] = central_diff(lambda x, name=name: mean_loss_with(name, x),
                                         base[name])
        assert set(analytic) == set(numeric)
        for name, num in numeric.items():
            assert rel_err(analytic[name], num, floor=1e-6) < 1e-5, name

    @pytest.mark.parametrize("kind,scale", _KINDS, ids=_KIND_IDS)
    def test_parameter_only_backward_is_bitwise_the_same(self, kind, scale):
        model, V, O, labels = _block(kind, scale, seed=63)
        loss, grads = loss_and_grads(model, V, O, labels)
        loss_p, params_only = loss_and_grads(model, V, O, labels, inputs=False)
        assert loss_p == loss
        assert list(params_only) == list(param_groups(model))
        for name, g in params_only.items():
            assert g.tobytes() == grads[name].tobytes(), name


class TestSgdMomentumStep:
    # The step updates params and velocity in place and returns nothing.
    def test_zero_momentum_is_plain_sgd(self):
        p, g, vel = np.array([1.0, 2.0]), np.array([0.5, -1.0]), np.zeros(2)
        p0 = p.copy()
        assert sgd_momentum_step(p, g, vel, lr=0.1, momentum=0.0) is None
        assert np.array_equal(p, p0 - 0.1 * g)
        assert np.array_equal(vel, g)

    def test_fixed_point(self):
        p, vel = np.array([3.0]), np.zeros(1)
        sgd_momentum_step(p, np.zeros(1), vel, 0.5, 0.9)
        assert np.array_equal(p, np.array([3.0])) and np.array_equal(vel, np.zeros(1))

    def test_second_step_amplifies_by_momentum(self):
        p, g, vel = np.array([0.0]), np.array([1.0]), np.zeros(1)
        sgd_momentum_step(p, g, vel, lr=0.1, momentum=0.9)
        p1 = p.copy()
        sgd_momentum_step(p, g, vel, lr=0.1, momentum=0.9)
        assert (p1 - p)[0] == pytest.approx(0.1 * 1.9, rel=1e-15)

    def test_shape_error(self):
        with pytest.raises(ShapeError):
            sgd_momentum_step(np.zeros(2), np.zeros(3), np.zeros(2), 0.1, 0.9)


class TestTrain:
    def test_zero_learning_rate_leaves_params_at_init(self):
        bank = synth_generate(SynthSpec(n_segments=30), 5)
        cfg = TrainConfig(learning_rate=0.0, epochs=3, seed=9)
        model, _ = train(bank, "noun", ModelSpec(fusion="gfa-b"), cfg)
        init = init_model("gfa-b", bank.dim_v, bank.dim_o, bank.noun_vocab_size,
                          scale=ScaleMode(), rng=np.random.default_rng(9))
        for name, arr in param_groups(model).items():
            assert np.array_equal(arr, param_groups(init)[name]), name

    def test_same_seed_is_bitwise_deterministic(self):
        bank = synth_generate(SynthSpec(n_segments=40), 6)
        cfg = TrainConfig(learning_rate=0.05, epochs=4, seed=3)
        spec = ModelSpec(fusion="gfa-a", scale=ScaleMode("norm"))
        m1, h1 = train(bank, "noun", spec, cfg)
        m2, h2 = train(bank, "noun", spec, cfg)
        for name, arr in param_groups(m1).items():
            assert arr.tobytes() == param_groups(m2)[name].tobytes(), name
        assert h1 == h2

    def test_noise_free_noun_task_fits_within_50_epochs(self):
        spec = SynthSpec(n_segments=96, noise=0.0, verb_vocab=4, noun_vocab=6)
        bank = synth_generate(spec, 5, "train")
        cfg = TrainConfig(learning_rate=1.0, momentum=0.9, epochs=50,
                          batch_size=16, seed=1)
        model, history = train(bank, "noun", ModelSpec(fusion="gfa-b"), cfg)
        scores, _ = forward_model(model, *bank_features(bank, AggregationConfig()))
        assert np.array_equal(np.argmax(scores, axis=1), bank.labels[:, 1])

    def test_history_shape_and_val_metric(self):
        tb = synth_generate(SynthSpec(n_segments=30), 8, "train")
        vb = synth_generate(SynthSpec(n_segments=10), 8, "val")
        cfg = TrainConfig(epochs=2, seed=0)
        _, history = train(tb, "verb", ModelSpec(fusion="clip-only"), cfg, vb)
        assert len(history) == 2
        for entry in history:
            assert set(entry) == {"epoch", "mean_loss", "mean_grad_norm", "val_top1"}
            assert entry["mean_loss"] >= 0.0
            assert 0.0 <= entry["val_top1"] <= 1.0

    def test_val_top1_is_the_eval_top1(self):
        # one ranking rule: val_top1 is the top1 of topk_report on the val scores
        tb = synth_generate(SynthSpec(n_segments=30), 8, "train")
        vb = synth_generate(SynthSpec(n_segments=10), 8, "val")
        spec = ModelSpec(fusion="gfa-a", scale=ScaleMode("norm"))
        model, history = train(tb, "noun", spec, TrainConfig(epochs=1, seed=0), vb)
        scores, _ = forward_model(model, *bank_features(vb, spec.aggregation))
        assert history[-1]["val_top1"] == topk_report(scores, vb.labels[:, 1])["top1"]

    def test_missing_labels_error(self):
        bank = synth_generate(SynthSpec(n_segments=5), 0)
        labels = bank.labels.copy()
        labels[:, 1] = -1
        bank = replace(bank, labels=labels)
        with pytest.raises(ValidationError, match="no noun label"):
            train(bank, "noun", ModelSpec(fusion="clip-only"), TrainConfig(epochs=1))

    def test_empty_bank_error(self):
        from gatedfusion.bank import FeatureBank
        bank = FeatureBank.from_records([], dim_v=2, dim_o=2,
                                        verb_vocab_size=2, noun_vocab_size=2)
        with pytest.raises(ValidationError, match="empty"):
            train(bank, "noun", ModelSpec(fusion="clip-only"), TrainConfig(epochs=1))

    def test_empty_val_bank_error(self):
        from gatedfusion.bank import FeatureBank
        bank = synth_generate(SynthSpec(n_segments=5), 0)
        empty = FeatureBank.from_records([], dim_v=bank.dim_v, dim_o=bank.dim_o,
                                         verb_vocab_size=bank.verb_vocab_size,
                                         noun_vocab_size=bank.noun_vocab_size)
        with pytest.raises(ValidationError, match="cannot validate on an empty bank"):
            train(bank, "noun", ModelSpec(fusion="clip-only"), TrainConfig(epochs=1), empty)

    def test_divergence_names_epoch_and_batch(self):
        bank = synth_generate(SynthSpec(n_segments=40), 2)
        bank = replace(bank, clip=bank.clip * 1e170)
        with pytest.raises(ValidationError, match=r"epoch \d+, batch \d+"):
            train(bank, "noun", ModelSpec(fusion="clip-only"),
                  TrainConfig(learning_rate=0.5, epochs=2, seed=0))

    def test_divergence_check_raises_no_warning(self):
        bank = synth_generate(SynthSpec(n_segments=40), 2)
        bank = replace(bank, clip=bank.clip * 1e170)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValidationError, match=r"epoch \d+, batch \d+"):
                train(bank, "noun", ModelSpec(fusion="clip-only"),
                      TrainConfig(learning_rate=0.5, epochs=2, seed=0))

    def test_bad_target(self):
        bank = synth_generate(SynthSpec(n_segments=5), 0)
        with pytest.raises(ValidationError):
            train(bank, "action", ModelSpec(fusion="clip-only"), TrainConfig(epochs=1))

    @pytest.mark.parametrize("val_spec,message", [
        (SynthSpec(n_segments=10, noun_vocab=40), "bank noun vocab is 40, training bank expects 20"),
        (SynthSpec(n_segments=10, noun_vocab=20, dim_o=9),
         "bank dims (16, 9) do not match training bank (16, 16)"),
    ], ids=["vocab", "dims"])
    def test_val_bank_that_does_not_fit_is_rejected_before_any_work(self, monkeypatch,
                                                                     val_spec, message):
        bank = synth_generate(SynthSpec(n_segments=20, noun_vocab=20), 0, "train")
        val_bank = synth_generate(val_spec, 0, "val")
        assert bank.dim_v == 16 and bank.dim_o == 16

        def no_work(*args, **kwargs):
            raise AssertionError("features aggregated before the fit check")
        monkeypatch.setattr("gatedfusion.training.bank_features", no_work)
        with pytest.raises(ValidationError, match=re.escape(message)):
            train(bank, "noun", ModelSpec(fusion="gfa-a"), TrainConfig(epochs=1), val_bank)


def _input_banks(seed=3):
    """A small train and val bank with mismatched, jittered object amplitudes."""
    spec = SynthSpec(n_segments=37, dim_v=6, dim_o=5, verb_vocab=4, noun_vocab=5,
                     mismatch=3.0, amplitude_jitter=0.5)
    return (synth_generate(spec, seed, "train"),
            synth_generate(replace(spec, n_segments=11), seed, "val"))


class TestBankInputs:
    @pytest.mark.parametrize("momentum", [0.0, 0.9])
    @pytest.mark.parametrize("val", [False, True], ids=["no-val", "val"])
    @pytest.mark.parametrize("kind,scale", _KINDS, ids=_KIND_IDS)
    def test_train_matches_the_per_batch_loop_bit_for_bit(self, kind, scale, val, momentum):
        bank, val_bank = _input_banks()
        spec = ModelSpec(fusion=kind, scale=scale, aggregation=AggregationConfig(k=2))
        cfg = TrainConfig(learning_rate=0.05, momentum=momentum, epochs=3, batch_size=8, seed=4)
        model, history = train(bank, "noun", spec, cfg, val_bank if val else None)
        ref_model, ref_history = reference_train(bank, "noun", spec, cfg,
                                                 val_bank if val else None)
        assert history == ref_history
        assert all(np.isfinite(entry["mean_loss"]) for entry in history)
        assert model.scale == scale
        for name, arr in param_groups(model).items():
            assert arr.tobytes() == param_groups(ref_model)[name].tobytes(), name

    @pytest.mark.parametrize("kind,scale", _KINDS, ids=_KIND_IDS)
    def test_core_scores_are_the_model_scores(self, kind, scale):
        bank, _ = _input_banks()
        agg = AggregationConfig(k=2)
        model = init_model(kind, bank.dim_v, bank.dim_o, bank.noun_vocab_size, scale=scale,
                           rng=np.random.default_rng(8))
        core, V, O = bank_inputs(model, bank, agg)
        assert core.head is model.head and core.gfa is model.gfa
        assert core.scale == ScaleMode()
        assert forward_model(core, V, O)[0].tobytes() == \
            forward_model(model, *bank_features(bank, agg))[0].tobytes()

    @pytest.mark.parametrize("val", [False, True], ids=["no-val", "val"])
    def test_scale_stage_runs_once_per_bank(self, monkeypatch, val):
        bank, val_bank = _input_banks()
        calls = []
        real_scale = training.scale_object_feature
        monkeypatch.setattr(training, "scale_object_feature",
                            lambda *args: calls.append(args[0].shape) or real_scale(*args))
        spec = ModelSpec(fusion="gfa-a", scale=ScaleMode("norm"))
        train(bank, "noun", spec, TrainConfig(epochs=3, batch_size=8),
              val_bank if val else None)
        assert calls == [(37, 5), (11, 5)][:1 + val]

    def test_a_bank_is_aggregated_and_scaled_once_per_key(self, monkeypatch):
        bank, _ = _input_banks()
        aggregated = []
        real = training.bank_features
        monkeypatch.setattr(training, "bank_features",
                            lambda *args: aggregated.append(args) or real(*args))
        model = init_model("gfa-a", bank.dim_v, bank.dim_o, bank.noun_vocab_size,
                           scale=ScaleMode("norm"), rng=np.random.default_rng(8))
        agg = AggregationConfig(k=2)
        O = bank_inputs(model, bank, agg)[2]
        assert bank_inputs(model, bank, agg)[2] is O
        # a model of another kind with the same scale reads the same block
        other = init_model("concat", bank.dim_v, bank.dim_o, bank.noun_vocab_size,
                           scale=ScaleMode("norm"), rng=np.random.default_rng(9))
        assert bank_inputs(other, bank, AggregationConfig(k=2))[2] is O
        with pytest.raises(ValueError, match="read-only"):
            O[0, 0] = 1.0
        # another scale, or none, on the same bank and aggregation scales the
        # block aggregated for the first call, and aggregates nothing again
        blocks = {ScaleMode("norm"): O}
        for scale, owner in ((ScaleMode("norm-scalar", s=2.0), model), (ScaleMode(), other)):
            blocks[scale] = bank_inputs(replace(owner, scale=scale), bank, agg)[2]
        assert len(aggregated) == 1
        for scale, block in blocks.items():
            assert not block.flags.writeable
            assert block.tobytes() == \
                scale_object_feature(bank_features(bank, agg)[1], bank.clip, scale).tobytes()
        fresh = [bank_inputs(model, bank, AggregationConfig(k=3))[2],
                 blocks[ScaleMode("norm-scalar", s=2.0)],
                 bank_inputs(model, replace(bank), agg)[2]]
        for block in fresh:
            assert block is not O and not np.shares_memory(block, O)
        assert len(aggregated) == 3  # another aggregation, and a copied bank
        assert fresh[2].tobytes() == O.tobytes()  # a copied bank has the same rows

    def test_the_block_dies_with_its_bank(self):
        bank, _ = _input_banks()
        model = init_model("concat", bank.dim_v, bank.dim_o, bank.noun_vocab_size,
                           rng=np.random.default_rng(8))
        block = weakref.ref(bank_inputs(model, bank, AggregationConfig())[2])
        gc.collect()  # banks of earlier tests that only a cycle kept go first
        entries = len(training._OBJECT_BLOCKS)
        assert block() is not None
        del bank
        gc.collect()
        assert block() is None
        assert len(training._OBJECT_BLOCKS) == entries - 1

    @pytest.mark.parametrize("kind,scale", _KINDS, ids=_KIND_IDS)
    def test_training_twice_on_the_same_banks_is_bitwise_the_oracle(self, monkeypatch,
                                                                      kind, scale):
        bank, val_bank = _input_banks()
        spec = ModelSpec(fusion=kind, scale=scale, aggregation=AggregationConfig(k=2))
        cfg = TrainConfig(learning_rate=0.05, epochs=3, batch_size=8, seed=4)
        first = train(bank, "noun", spec, cfg, val_bank)
        aggregated = []
        real = training.bank_features
        monkeypatch.setattr(training, "bank_features",
                            lambda *args: aggregated.append(args) or real(*args))
        second = train(bank, "noun", spec, cfg, val_bank)
        assert aggregated == []  # the blocks of the first call are read again
        ref_model, ref_history = reference_train(bank, "noun", spec, cfg, val_bank)
        assert first[1] == second[1] == ref_history
        for name, arr in param_groups(ref_model).items():
            for model, _ in (first, second):
                assert param_groups(model)[name].tobytes() == arr.tobytes(), name

    def test_clip_only_never_aggregates(self, monkeypatch, tmp_path):
        from gatedfusion import cli
        from gatedfusion.bank import save_feature_bank
        from gatedfusion.scoring import load_score_table

        def never(*args):
            raise AssertionError("features aggregated for clip-only")

        bank, val_bank = _input_banks()
        save_feature_bank(val_bank, tmp_path / "val.bank")
        monkeypatch.setattr(training, "bank_features", never)
        cfg = TrainConfig(epochs=2, batch_size=8)
        model, _ = train(bank, "verb", ModelSpec(fusion="clip-only"), cfg, val_bank)
        save_checkpoint(Checkpoint(model=model, target="verb", dim_v=6, dim_o=5, classes=4,
                                   aggregation=AggregationConfig(), train_config=cfg),
                        tmp_path / "ckpt.json")
        assert cli.main(["eval", "--checkpoint", str(tmp_path / "ckpt.json"),
                         "--bank", str(tmp_path / "val.bank"),
                         "--out-dir", str(tmp_path / "eval")]) == 0
        scores = log_softmax(forward_model(model, val_bank.clip, np.zeros((11, 5)))[0])
        assert load_score_table(tmp_path / "eval/scores.txt").scores.tobytes() == \
            scores.tobytes()


class TestTrainConfig:
    def test_momentum_range(self):
        with pytest.raises(ValidationError):
            TrainConfig(momentum=1.0)
        with pytest.raises(ValidationError):
            TrainConfig(momentum=-0.1)

    def test_negative_lr_rejected(self):
        with pytest.raises(ValidationError):
            TrainConfig(learning_rate=-0.1)


class TestValueRule:
    @pytest.mark.parametrize("build,message", [
        (lambda: SynthSpec(n_segments=1, noise=np.float32(0.1)),
         f"noise must be a finite real number, got {np.float32(0.1)!r}"),
        (lambda: TrainConfig(epochs=np.int64(3)), f"epochs must be an integer, got {np.int64(3)!r}"),
        (lambda: AggregationConfig(k=np.int64(3)), f"k must be an integer, got {np.int64(3)!r}"),
    ], ids=["float32 noise", "int64 epochs", "int64 k"])
    def test_numpy_scalars_are_refused(self, build, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            build()

    def test_float64_is_a_float(self):
        assert SynthSpec(n_segments=1, noise=np.float64(0.1)).noise == 0.1
        assert TrainConfig(learning_rate=np.float64(0.1)).learning_rate == 0.1

    @pytest.mark.parametrize("value", [2.5, "3", True, np.int64(3)],
                             ids=["float", "str", "bool", "int64"])
    @pytest.mark.parametrize("size", ["dim_v", "dim_o", "classes"])
    def test_init_model_refuses_a_size_that_is_not_an_integer(self, size, value):
        sizes = {"dim_v": 2, "dim_o": 3, "classes": 4, size: value}
        with pytest.raises(ValidationError,
                           match=f"^{re.escape(f'{size} must be an integer, got {value!r}')}$"):
            init_model("concat", **sizes)

    @pytest.mark.parametrize("build,message", [
        (lambda: ScaleMode(kind="bogus"),
         "kind must be one of ('none', 'scalar', 'norm', 'norm-scalar'), got 'bogus'"),
        (lambda: ScoreTable(("s0",), np.zeros((1, 2)), space="x"),
         "space must be one of ('verb', 'noun', 'action'), got 'x'"),
        (lambda: Checkpoint(
            model=init_model("concat", 4, 3, 2), target="action", dim_v=4, dim_o=3, classes=2,
            aggregation=AggregationConfig(), train_config=TrainConfig()),
         "target must be one of ('verb', 'noun'), got 'action'"),
        (lambda: target_labels(synth_generate(SynthSpec(n_segments=2), seed=0), "action"),
         "target must be one of ('verb', 'noun'), got 'action'"),
        (lambda: ModelSpec(fusion="x"),
         "fusion must be one of ('clip-only', 'concat', 'gfa-a', 'gfa-b'), got 'x'"),
        (lambda: Model(fusion_kind="x", head=Affine(W=np.zeros((2, 4)), b=np.zeros(2))),
         "fusion must be one of ('clip-only', 'concat', 'gfa-a', 'gfa-b'), got 'x'"),
        (lambda: init_model("x", 4, 3, 2),
         "fusion must be one of ('clip-only', 'concat', 'gfa-a', 'gfa-b'), got 'x'"),
    ], ids=["scale-kind", "score-space", "checkpoint-target", "target-labels",
            "model-spec-fusion", "model-fusion", "init-model-fusion"])
    def test_a_value_outside_its_choices_is_refused_in_one_form(self, build, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            build()


class TestGradCheck:
    def test_gfa_a_model(self):
        rng = np.random.default_rng(103)
        model = init_model("gfa-a", 6, 4, 3, scale=ScaleMode("norm"), rng=rng)
        v = rng.uniform(-2, 2, 6)
        o = rng.uniform(-2, 2, 4)
        max_err, per_group, _ = grad_check(model, v, o, label=1)
        assert set(per_group) == {"head.W", "head.b", "gfa.W", "gfa.b", "v", "o"}
        assert max_err < 1e-5

    @pytest.mark.parametrize("fusion,scale", [
        ("clip-only", ScaleMode()), ("concat", ScaleMode()), ("gfa-b", ScaleMode()),
        *[("gfa-a", ScaleMode(kind, s=2.0)) for kind in ("none", "scalar", "norm", "norm-scalar")]])
    def test_the_oracle_checks_exactly_the_groups_training_updates(self, fusion, scale):
        rng = np.random.default_rng(107)
        model = init_model(fusion, 5, 3, 4, scale=scale, rng=rng)
        _, per_group, _ = grad_check(model, rng.uniform(-2, 2, 5), rng.uniform(-2, 2, 3), label=2)
        assert set(per_group) == set(param_groups(model)) | {"v", "o"}

    def test_clip_only_model(self):
        rng = np.random.default_rng(104)
        model = init_model("clip-only", 5, 3, 4, rng=rng)
        max_err, _, _ = grad_check(model, rng.uniform(-2, 2, 5),
                                   rng.uniform(-2, 2, 3), label=2)
        assert max_err < 1e-7

    def test_truncation_error_ordering(self):
        # At a step of 1e-1 the stencil's O(h^4) truncation dominates; at the
        # default it is far below the roundoff of the loss differences.
        rng = np.random.default_rng(105)
        model = init_model("gfa-b", 5, 4, 3, rng=rng)
        v, o = rng.uniform(-2, 2, 5), rng.uniform(-2, 2, 4)
        coarse, _, _ = grad_check(model, v, o, label=0, step=1e-1)
        fine, _, _ = grad_check(model, v, o, label=0)
        assert coarse > fine

    def test_matches_independent_oracle(self):
        rng = np.random.default_rng(106)
        model = init_model("concat", 4, 3, 3, rng=rng)
        v, o = rng.uniform(-2, 2, 4), rng.uniform(-2, 2, 3)
        _, analytic = loss_and_grads(model, v, o, 1)

        def loss_of_v(vv):
            return float(logsumexp_nll(forward_model(model, vv, o)[0], 1))

        assert rel_err(analytic["v"], central_diff(loss_of_v, v)) < 1e-6

    def test_a_saturated_label_is_checked_on_its_exact_loss(self):
        # `gradcheck --fusion concat --scale scalar --scale-divisor 0.001
        # --dim-v 8 --dim-o 8 --classes 5`: the label's probability is far
        # below any floor a loss on probabilities could take
        rng = np.random.default_rng(0)
        model = init_model("concat", 8, 8, 5, scale=ScaleMode("scalar", s=0.001), rng=rng)
        v, o, label = rng.uniform(-2, 2, 8), rng.uniform(-2, 2, 8), int(rng.integers(5))
        assert log_softmax(forward_model(model, v, o)[0])[label] < np.log(1e-30)
        max_err, per_group, empty = grad_check(model, v, o, label)
        assert max_err < 1e-5 and not empty, per_group

    @pytest.mark.parametrize("fusion,classes,scale", [
        ("gfa-b", 1, ScaleMode()), ("gfa-a", 4, ScaleMode("norm-scalar", s=0.001))],
        ids=["one-class", "tiny-divisor"])
    def test_gradients_all_below_the_floor_make_an_empty_check(self, fusion, classes, scale):
        # `gradcheck --fusion gfa-b --classes 1` read 0 and `--fusion gfa-a
        # --scale norm-scalar --scale-divisor 0.001` read 3.8e-114, and both
        # passed: every gradient entry is below the 1e-8 floor, so the
        # relative errors compare nothing
        rng = np.random.default_rng(0)
        model = init_model(fusion, 8, 6, classes, scale=scale, rng=rng)
        v, o = rng.uniform(-2, 2, 8), rng.uniform(-2, 2, 6)
        max_err, per_group, empty = grad_check(model, v, o, int(rng.integers(classes)))
        assert empty and max_err < 1e-5, per_group

    def test_step_validation(self):
        model = init_model("clip-only", 2, 2, 2, rng=np.random.default_rng(0))
        with pytest.raises(ValidationError):
            grad_check(model, np.zeros(2), np.zeros(2), 0, step=0.0)

    def test_non_finite_gradients_fail(self):
        # dividing by a subnormal divisor overflows: the loss and every
        # gradient entry are NaN, which must not read as agreement
        rng = np.random.default_rng(107)
        model = init_model("gfa-a", 5, 4, 3, scale=ScaleMode(kind="scalar", s=6e-309), rng=rng)
        with np.errstate(all="ignore"):
            max_err, per_group, empty = grad_check(model, rng.uniform(-2, 2, 5),
                                                   rng.uniform(-2, 2, 4), label=0)
        assert max_err == np.inf
        assert per_group["gfa.W"] == np.inf
        assert not empty  # a NaN entry is not below the floor

    def test_one_segment_only(self):
        model = init_model("clip-only", 2, 2, 2, rng=np.random.default_rng(0))
        with pytest.raises(ShapeError, match="one segment"):
            grad_check(model, np.zeros((3, 2)), np.zeros((3, 2)), 0)

    def test_an_input_the_loss_ignores_reads_exactly_zero(self):
        # clip-only never reads o: every moved-o row scores bit for bit the
        # same, and the differences taken first keep that zero exact
        for seed in range(50):
            rng = np.random.default_rng(seed)
            model = init_model("clip-only", 8, 6, 4, rng=rng)
            _, per_group, empty = grad_check(model, rng.uniform(-2, 2, 8),
                                             rng.uniform(-2, 2, 6), int(rng.integers(4)))
            assert per_group["o"] == 0.0, seed
            assert not empty, seed  # the head's groups are checked

    @pytest.mark.parametrize("kind", ["concat", "gfa-a", "gfa-b"])
    @pytest.mark.parametrize("scale", [ScaleMode("scalar", s=2.0), ScaleMode("norm"),
                                       ScaleMode("norm-scalar", s=3.0)],
                             ids=["scalar", "norm", "norm-scalar"])
    def test_scaled_model_matches_finite_differences(self, kind, scale):
        # the scaling's VJP, on the input path of every kind that reads o
        for seed in (21, 22, 23):
            rng = np.random.default_rng(seed)
            model = init_model(kind, 6, 4, 3, scale=scale, rng=rng)
            v, o = rng.uniform(-2, 2, 6), rng.uniform(-2, 2, 4)
            max_err, per_group, _ = grad_check(model, v, o, label=int(rng.integers(3)))
            assert max_err < 1e-5, (seed, per_group)

    @pytest.mark.parametrize("fusion,scale", [("gfa-a", ScaleMode("norm")),
                                              ("gfa-a", ScaleMode()),
                                              ("gfa-b", ScaleMode())])
    def test_planted_gate_bug_is_caught(self, request, fusion, scale):
        rng = np.random.default_rng(108)
        model = init_model(fusion, 8, 6, 4, scale=scale, rng=rng)
        v, o = rng.uniform(-2, 2, 8), rng.uniform(-2, 2, 6)
        clean, _, _ = grad_check(model, v, o, label=1)
        request.getfixturevalue("planted_gate_bug")
        _, per_group, _ = grad_check(model, v, o, label=1)
        assert clean < 1e-5
        assert per_group["gfa.W"] >= 1e-5


class TestCheckpoint:
    def _checkpoint(self, fusion="gfa-a", scale=None):
        rng = np.random.default_rng(7)
        scale = scale or ScaleMode("norm-scalar", s=2.5)
        model = init_model(fusion, 4, 3, 5, scale=scale if fusion != "clip-only" else None,
                           rng=rng)
        return Checkpoint(model=model, target="noun", dim_v=4, dim_o=3,
                          classes=5, aggregation=AggregationConfig(k=3, window=3),
                          train_config=TrainConfig(epochs=2, seed=7))

    def test_roundtrip(self, tmp_path):
        ckpt = self._checkpoint()
        path = tmp_path / "ckpt.json"
        save_checkpoint(ckpt, path)
        loaded = load_checkpoint(path)
        assert loaded.target == "noun"
        assert loaded.aggregation == ckpt.aggregation
        assert loaded.train_config == ckpt.train_config
        assert loaded.model.fusion_kind == "gfa-a"
        assert np.array_equal(loaded.model.head.W, ckpt.model.head.W)
        assert np.array_equal(loaded.model.gfa.W, ckpt.model.gfa.W)
        assert loaded.model.scale == ckpt.model.scale

    def test_roundtrip_clip_only(self, tmp_path):
        ckpt = self._checkpoint(fusion="clip-only")
        path = tmp_path / "ckpt.json"
        save_checkpoint(ckpt, path)
        loaded = load_checkpoint(path)
        assert loaded.model.gfa is None

    def test_shape_tampering_rejected(self, tmp_path):
        ckpt = self._checkpoint()
        path = tmp_path / "ckpt.json"
        save_checkpoint(ckpt, path)
        obj = json.loads(path.read_text())
        obj["head"]["W"]["rows"] = 9
        path.write_text(json.dumps(obj))
        with pytest.raises(ValidationError):
            load_checkpoint(path)

    def test_not_a_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{}")
        with pytest.raises(ValidationError):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit,message", [
        (lambda obj: obj["aggregation"].update(k=0), "k must be >= 1, got 0"),
        (lambda obj: obj["scale"].update(kind="bogus"),
         "kind must be one of ('none', 'scalar', 'norm', 'norm-scalar'), got 'bogus'"),
        (lambda obj: obj["train_config"].update(epochs=0), "epochs must be >= 1, got 0"),
    ], ids=["k", "scale-kind", "epochs"])
    def test_config_errors_keep_their_message(self, tmp_path, edit, message):
        path = tmp_path / "ckpt.json"
        save_checkpoint(self._checkpoint(), path)
        obj = json.loads(path.read_text())
        edit(obj)
        path.write_text(json.dumps(obj))
        with pytest.raises(ValidationError, match=f"^{re.escape(f'{path}: {message}')}$"):
            load_checkpoint(path)

    @pytest.mark.parametrize("fusion", ["clip-only", "concat", "gfa-a", "gfa-b"])
    def test_save_load_save_is_byte_identical(self, tmp_path, fusion):
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        save_checkpoint(self._checkpoint(fusion=fusion), first)
        save_checkpoint(load_checkpoint(first), second)
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("edit,message", [
        ({"classes": 6}, "head.W has shape (5, 7), expected (6, 7) for fusion 'gfa-a', dims 4/3"),
        ({"dim_v": 5}, "head.W has shape (5, 7), expected (5, 8) for fusion 'gfa-a', dims 5/3"),
        ({"target": "action"}, "target must be one of ('verb', 'noun'), got 'action'"),
    ], ids=["classes", "dim_v", "target"])
    def test_save_rejects_what_load_rejects(self, tmp_path, edit, message):
        # What load rejects cannot be built, so it never reaches a save.
        path = tmp_path / "ckpt.json"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            save_checkpoint(replace(self._checkpoint(), **edit), path)
        assert not path.exists()

    @pytest.mark.parametrize("field,value,message", [
        ("model", None, "checkpoint model must be of type Model, got NoneType"),
        ("aggregation", None,
         "checkpoint aggregation must be of type AggregationConfig, got NoneType"),
        ("aggregation", {"k": 3, "window": 3},
         "checkpoint aggregation must be of type AggregationConfig, got dict"),
        ("train_config", ModelSpec(),
         "checkpoint train_config must be of type TrainConfig, got ModelSpec"),
    ], ids=["model-none", "aggregation-none", "aggregation-dict", "train-config-spec"])
    def test_a_field_of_another_type_fails_to_build(self, field, value, message):
        # Each once built, and save_checkpoint then raised a raw TypeError.
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            replace(self._checkpoint(), **{field: value})

    @pytest.mark.parametrize("group,value", [
        ("head.W", lambda W: W.astype(np.float32)), ("head.W", lambda W: W + 0j),
        ("head.W", lambda W: W.astype(object)), ("head.b", lambda b: b.astype(np.int64)),
        ("gfa.W", lambda W: W.astype(np.float16)),
    ], ids=["float32", "complex", "object", "int64-bias", "float16-gate"])
    def test_weights_other_than_float64_arrays_fail_to_build(self, group, value):
        # float32 once built and loaded back as float64, complex built and then
        # save_checkpoint raised a raw TypeError, and object raised numpy's.
        # The head or gate refuses them as it is built, before any checkpoint.
        ckpt = self._checkpoint(fusion="gfa-b" if group.startswith("gfa") else "clip-only")
        part, name = group.split(".")
        old = getattr(ckpt.model, part)
        with pytest.raises(ValidationError, match=f"^{name} must be a float64 array$"):
            replace(old, **{name: value(getattr(old, name))})

    @pytest.mark.parametrize("fusion,head,gfa,message", [
        ("clip-only", None, None, "model head must be of type Affine, got NoneType"),
        ("clip-only", {"W": np.zeros((5, 4)), "b": np.zeros(5)}, None,
         "model head must be of type Affine, got dict"),
        ("gfa-b", Affine(np.zeros((5, 4)), np.zeros(5)),
         type("Gate", (), {"W": np.zeros((4, 3)), "b": np.zeros(4)})(),
         "model gfa must be None or of type Affine, got Gate"),
        ("gfa-b", Affine(np.zeros((5, 4)), np.zeros(5)), {"W": np.zeros((4, 3))},
         "model gfa must be None or of type Affine, got dict"),
    ], ids=["head-none", "head-dict", "gfa-duck", "gfa-dict"])
    def test_a_model_part_of_another_type_fails_to_build(self, fusion, head, gfa, message):
        # Model("clip-only", None) once built, and a checkpoint of it raised a
        # raw AttributeError from param_groups; a dict gate raised one on
        # .variant as the model was built.
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            Model(fusion, head, gfa)

    @pytest.mark.parametrize("part", ["head", "gfa"])
    @pytest.mark.parametrize("fault,error,message", [
        (lambda W, b: (W.tolist(), b), ValidationError, "W must be a float64 array"),
        (lambda W, b: (W, b.tolist()), ValidationError, "b must be a float64 array"),
        (lambda W, b: (W.astype(np.float32), b), ValidationError, "W must be a float64 array"),
        (lambda W, b: (W, b.astype(np.float32)), ValidationError, "b must be a float64 array"),
        (lambda W, b: (W.ravel(), b), ShapeError, "W must be 2-D and b 1-D"),
        (lambda W, b: (W, np.zeros(b.size + 1)), ShapeError, "W has {rows} rows but b has dim "
                                                             "{dim}"),
    ], ids=["list-W", "list-b", "float32-W", "float32-b", "1-D-W", "rows-and-bias"])
    def test_an_affine_layer_refuses_arrays_it_cannot_hold(self, part, fault, error, message):
        # One class for the head (5x4 here) and the gate (4x3): a list once
        # raised a raw AttributeError on .ndim, and a float32 head built.
        layer = getattr(init_model("gfa-b", 4, 3, 5, rng=np.random.default_rng(0)), part)
        W, b = fault(layer.W, layer.b)
        message = message.format(rows=layer.W.shape[0], dim=layer.W.shape[0] + 1)
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            Affine(W, b)

    @staticmethod
    def _built(how: str, tmp_path) -> Checkpoint:
        """A gfa-b checkpoint built from ``train``'s model, or loaded."""
        bank = synth_generate(SynthSpec(n_segments=8, dim_v=3, dim_o=2, verb_vocab=2,
                                        noun_vocab=3), 0)
        spec, cfg = ModelSpec(fusion="gfa-b"), TrainConfig(epochs=1, batch_size=4)
        model, _ = train(bank, "noun", spec, cfg)
        ckpt = Checkpoint(model=model, target="noun", dim_v=3, dim_o=2, classes=3,
                          aggregation=spec.aggregation, train_config=cfg)
        if how == "train":
            return ckpt
        save_checkpoint(ckpt, tmp_path / "ckpt.json")
        return load_checkpoint(tmp_path / "ckpt.json")

    @pytest.mark.parametrize("how", ["train", "load_checkpoint"])
    def test_a_checkpoint_cannot_change_however_it_is_built(self, tmp_path, how):
        ckpt = self._built(how, tmp_path)
        for value in (ckpt, ckpt.model, ckpt.model.head, ckpt.model.gfa):
            for f in fields(value):
                with pytest.raises(FrozenInstanceError):
                    setattr(value, f.name, getattr(value, f.name))
        groups = param_groups(ckpt.model)
        assert set(groups) == {"head.W", "head.b", "gfa.W", "gfa.b"}
        for name, arr in groups.items():
            with pytest.raises(ValueError, match="read-only"):
                arr[(0,) * arr.ndim] = 1.0

    def test_weights_are_made_read_only_without_a_copy(self):
        model = init_model("gfa-a", 4, 3, 5, rng=np.random.default_rng(0))
        before = param_groups(model)
        ckpt = Checkpoint(model=model, target="noun", dim_v=4, dim_o=3, classes=5,
                          aggregation=AggregationConfig(), train_config=TrainConfig())
        assert ckpt.model is model
        assert all(arr is before[name] and not arr.flags.writeable
                   for name, arr in param_groups(ckpt.model).items())

    def test_missing_weights_rejected(self, tmp_path):
        path = tmp_path / "ckpt.json"
        save_checkpoint(self._checkpoint(), path)
        for group in ("head", "gfa"):
            obj = json.loads(path.read_text())
            del obj[group]["W"]
            broken = tmp_path / f"no-{group}-W.json"
            broken.write_text(json.dumps(obj))
            with pytest.raises(ValidationError, match="missing checkpoint fields"):
                load_checkpoint(broken)

    @pytest.mark.parametrize("name,change", [
        ("scale", {"extra": 1}), ("aggregation", {"extra": 1}), ("train_config", {"extra": 1}),
        ("scale", {"s": None}), ("train_config", {"momentum": None})],
        ids=["extra scale key", "extra aggregation key", "extra train_config key", "no s",
             "no momentum"])
    def test_config_objects_hold_exactly_the_saved_keys(self, tmp_path, name, change):
        # Once, an extra scale key read as missing fields, a missing s took
        # its default, and an extra aggregation or train_config key was ignored.
        path = tmp_path / "ckpt.json"
        save_checkpoint(self._checkpoint(), path)
        obj = json.loads(path.read_text())
        keys = list(obj[name])
        for key, val in change.items():
            if val is None:
                del obj[name][key]
            else:
                obj[name][key] = val
        path.write_text(json.dumps(obj))
        with pytest.raises(ValidationError) as exc:
            load_checkpoint(path)
        assert str(exc.value) == f"{path}: checkpoint {name} must hold exactly the keys {keys}"


class TestModelInvariants:
    # Only clip-only, which never reads o, refuses a scale.
    @pytest.mark.parametrize("scale", ["scalar", "norm", "norm-scalar"])
    @pytest.mark.parametrize("fusion", ["clip-only", "concat", "gfa-b"])
    def test_init_model_checks_the_scale_rule(self, fusion, scale):
        mode = ScaleMode(kind=scale, s=2.0)
        if fusion != "clip-only":
            assert init_model(fusion, 4, 3, 2, scale=mode).scale == mode
            return
        with pytest.raises(ValidationError,
                           match=f"fusion kind '{fusion}' takes scale 'none', got '{scale}'"):
            init_model(fusion, 4, 3, 2, scale=mode, rng=np.random.default_rng(0))

    @pytest.mark.parametrize("scale", ["scalar", "norm", "norm-scalar"])
    @pytest.mark.parametrize("fusion", ["clip-only", "concat", "gfa-b"])
    def test_model_spec_checks_the_scale_rule(self, fusion, scale):
        mode = ScaleMode(kind=scale, s=2.0)
        if fusion != "clip-only":
            assert ModelSpec(fusion=fusion, scale=mode).scale == mode
            return
        with pytest.raises(ValidationError,
                           match=f"fusion kind '{fusion}' takes scale 'none', got '{scale}'"):
            ModelSpec(fusion=fusion, scale=mode)

    def test_scaled_clip_only_model_is_neither_built_nor_saved(self, tmp_path):
        path = tmp_path / "checkpoint.json"
        with pytest.raises(ValidationError,
                           match="fusion kind 'clip-only' takes scale 'none', got 'norm'"):
            save_checkpoint(Checkpoint(
                model=Model("clip-only", Affine(W=np.zeros((2, 4)), b=np.zeros(2)),
                            scale=ScaleMode("norm")),
                target="noun", dim_v=4, dim_o=3, classes=2, aggregation=AggregationConfig(),
                train_config=TrainConfig()), path)
        assert not path.exists()

    def test_fusion_kind_gfa_consistency(self):
        # A kind has gate params exactly when its _FUSIONS row has a gate.
        head = Affine(W=np.zeros((2, 2)), b=np.zeros(2))
        with pytest.raises(ValidationError, match="^fusion kind 'gfa-a' needs gfa params$"):
            Model(fusion_kind="gfa-a", head=head, gfa=None)
        gfa = Affine(W=np.zeros((2, 2)), b=np.zeros(2))
        with pytest.raises(ValidationError,
                           match="^fusion kind 'clip-only' takes no gfa params$"):
            Model(fusion_kind="clip-only", head=head, gfa=gfa)


def _load_perfbench_spans():
    """perfbench's tracer, imported from its file without changing it."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans_under_test", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBenchmarkSpans:
    def test_every_traced_function_is_found_and_called(self, tmp_path):
        # The tracer records a function it cannot find as absent instead of
        # failing, so a rename would blank a per-layer benchmark metric.
        from gatedfusion import cli, training
        from gatedfusion.bank import save_feature_bank
        from gatedfusion.scoring import ScoreTable, save_score_table
        bank = synth_generate(SynthSpec(n_segments=12, dim_v=3, dim_o=3, verb_vocab=2,
                                        noun_vocab=3), 0)
        save_feature_bank(bank, tmp_path / "bank.bank")
        tracer = _load_perfbench_spans().Tracer()
        with tracer.installed():
            spec = ModelSpec(fusion="gfa-a", scale=ScaleMode("norm"))
            cfg = TrainConfig(epochs=1, batch_size=4, seed=0)
            model, _ = training.train(bank, "noun", spec, cfg)
            training.save_checkpoint(Checkpoint(model=model, target="noun", dim_v=3, dim_o=3,
                                                classes=3, aggregation=spec.aggregation,
                                                train_config=cfg), tmp_path / "ckpt.json")
            assert cli.main(["eval", "--checkpoint", str(tmp_path / "ckpt.json"),
                             "--bank", str(tmp_path / "bank.bank"),
                             "--out-dir", str(tmp_path / "eval")]) == 0
            save_score_table(ScoreTable(bank.ids, np.full((12, 2), np.log(0.5)), "verb"),
                             tmp_path / "verb.npz")
            assert cli.main(["actions", "--verb-table", str(tmp_path / "verb.npz"),
                             "--noun-table", str(tmp_path / "eval/scores.txt"),
                             "--bank", str(tmp_path / "bank.bank"),
                             "--train-bank", str(tmp_path / "bank.bank"),
                             "--out-dir", str(tmp_path / "act")]) == 0
        # Four span targets name functions that the library no longer has;
        # they stay absent until perfbench retargets its spans (ROADMAP item 1).
        assert tracer.absent == {"bank.aggregate (bank.aggregate_object_feature)",
                                 "gfa.forward (gfa.gfa_a_forward)",
                                 "gfa.forward (gfa.gfa_b_forward)",
                                 "scoring.topk (scoring.topk_accuracy)"}
        calls = {name: row["calls"] for name, row in tracer.summary().items()}
        for name in ("training.forward", "training.backward", "training.checkpoint_save",
                     "training.checkpoint_load", "gfa.forward", "gfa.backward", "bank.load",
                     "scoring.table_save", "scoring.prior", "scoring.score_actions",
                     "scoring.table_load", "training.train", "training.sgd"):
            assert calls.get(name, 0) >= 1, name
        # the per-layer counter reads every public tensor op, so it must not go blank
        assert tracer.counts["tensor.calls"] > 0
