import importlib.util
import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from gatedfusion.bank import AggregationConfig, SynthSpec, aggregate_object_feature, synth_generate
from gatedfusion.errors import ShapeError, ValidationError
from gatedfusion.gfa import GfaParams, ScaleMode
from gatedfusion.training import (Checkpoint, Head, Model, ModelSpec,
                                  TrainConfig, cross_entropy, forward_model,
                                  grad_check, init_model, load_checkpoint,
                                  loss_and_grads, param_groups,
                                  save_checkpoint, sgd_momentum_step, softmax,
                                  train)

from conftest import central_diff, rel_err


class TestSoftmax:
    def test_symmetric(self):
        assert np.array_equal(softmax(np.array([0.0, 0.0])), [0.5, 0.5])

    def test_large_scores_stable(self):
        with np.errstate(over="raise"):
            out = softmax(np.array([1000.0, 0.0]))
        assert out[0] == pytest.approx(1.0, abs=1e-300)
        assert out[1] == pytest.approx(0.0, abs=1e-300)

    def test_closed_form(self):
        out = softmax(np.array([np.log(1.0), np.log(3.0)]))
        assert np.allclose(out, [0.25, 0.75], rtol=1e-14)

    def test_sums_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            out = softmax(rng.uniform(-50, 50, int(rng.integers(1, 20))))
            assert abs(float(np.sum(out)) - 1.0) < 1e-12
            assert np.all(out > 0)

    def test_shift_invariance(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(-5, 5, 8)
        a, b = softmax(x), softmax(x + 123.456)
        assert rel_err(a, b, floor=1e-300) < 1e-12

    def test_rows_of_a_block(self):
        rng = np.random.default_rng(2)
        X = rng.uniform(-50, 50, (4, 6))
        out = softmax(X)
        for row, x in zip(out, X):
            assert rel_err(row, softmax(x), floor=1e-300) < 1e-15


class TestCrossEntropy:
    def test_uniform(self):
        probs = np.full(4, 0.25)
        assert cross_entropy(probs, 2) == pytest.approx(np.log(4.0), rel=1e-14)

    def test_certainty(self):
        assert cross_entropy(np.array([0.0, 1.0]), 1) == 0.0

    def test_closed_form(self):
        assert cross_entropy(np.array([0.25, 0.75]), 1) == pytest.approx(
            -np.log(0.75), rel=1e-14)

    def test_floor_keeps_loss_finite(self):
        assert np.isfinite(cross_entropy(np.array([0.0, 1.0]), 0))

    def test_label_out_of_range(self):
        with pytest.raises(ValidationError):
            cross_entropy(np.array([0.5, 0.5]), 2)

    def test_non_negative_on_softmax_outputs(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            probs = softmax(rng.uniform(-30, 30, int(rng.integers(2, 10))))
            assert cross_entropy(probs, int(rng.integers(probs.shape[0]))) >= 0.0

    def test_block_is_mean_of_rows(self):
        probs = softmax(np.random.default_rng(8).uniform(-3, 3, (5, 4)))
        labels = np.array([0, 3, 1, 1, 2])
        rows = [cross_entropy(p, int(l)) for p, l in zip(probs, labels)]
        assert cross_entropy(probs, labels) == pytest.approx(np.mean(rows), rel=1e-14)

    def test_label_shape_mismatch(self):
        with pytest.raises(ShapeError):
            cross_entropy(np.full((3, 2), 0.5), np.array([0, 1]))


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
        gfa = GfaParams(variant="b", W=np.zeros((4, 3)), b=np.zeros(4))
        gated = Model(fusion_kind="gfa-b", head=Head(W=H, b=b), gfa=gfa)
        halved = Model(fusion_kind="clip-only", head=Head(W=0.5 * H, b=b))
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

    def test_shape_error(self):
        model = init_model("concat", 4, 3, 2, rng=np.random.default_rng(0))
        with pytest.raises(ShapeError):
            forward_model(model, np.zeros(4), np.zeros(5))

    def test_misaligned_rows_rejected(self):
        model = init_model("gfa-b", 4, 3, 2, rng=np.random.default_rng(0))
        with pytest.raises(ShapeError):
            forward_model(model, np.zeros((5, 4)), np.zeros((4, 3)))


_KINDS = [
    ("clip-only", ScaleMode.none()),
    ("concat", ScaleMode.none()),
    ("gfa-a", ScaleMode.none()),
    ("gfa-a", ScaleMode.scalar(2.0)),
    ("gfa-a", ScaleMode.norm()),
    ("gfa-a", ScaleMode.norm_scalar(2.0)),
    ("gfa-b", ScaleMode.none()),
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
            return cross_entropy(softmax(scores), labels)

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
    def test_zero_momentum_is_plain_sgd(self):
        p, g, vel = np.array([1.0, 2.0]), np.array([0.5, -1.0]), np.zeros(2)
        p2, v2 = sgd_momentum_step(p, g, vel, lr=0.1, momentum=0.0)
        assert np.array_equal(p2, p - 0.1 * g)
        assert np.array_equal(v2, g)

    def test_fixed_point(self):
        p = np.array([3.0])
        p2, v2 = sgd_momentum_step(p, np.zeros(1), np.zeros(1), 0.5, 0.9)
        assert np.array_equal(p2, p) and np.array_equal(v2, np.zeros(1))

    def test_second_step_amplifies_by_momentum(self):
        p, g = np.array([0.0]), np.array([1.0])
        p1, v1 = sgd_momentum_step(p, g, np.zeros(1), lr=0.1, momentum=0.9)
        p2, v2 = sgd_momentum_step(p1, g, v1, lr=0.1, momentum=0.9)
        assert (p1 - p2)[0] == pytest.approx(0.1 * 1.9, rel=1e-15)

    def test_shape_error(self):
        with pytest.raises(ShapeError):
            sgd_momentum_step(np.zeros(2), np.zeros(3), np.zeros(2), 0.1, 0.9)


class TestTrain:
    def test_zero_learning_rate_leaves_params_at_init(self):
        bank = synth_generate(SynthSpec(n_segments=30), 5)
        cfg = TrainConfig(learning_rate=0.0, epochs=3, seed=9)
        model, _ = train(bank, "noun", ModelSpec(fusion="gfa-b"), cfg)
        init = init_model("gfa-b", bank.dim_v, bank.dim_o, bank.noun_vocab_size,
                          scale=ScaleMode.none(), rng=np.random.default_rng(9))
        for name, arr in param_groups(model).items():
            assert np.array_equal(arr, param_groups(init)[name]), name

    def test_same_seed_is_bitwise_deterministic(self):
        bank = synth_generate(SynthSpec(n_segments=40), 6)
        cfg = TrainConfig(learning_rate=0.05, epochs=4, seed=3)
        spec = ModelSpec(fusion="gfa-a", scale=ScaleMode.norm())
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
        agg = AggregationConfig()
        hits = 0
        for rec in bank.records:
            o = aggregate_object_feature(rec, agg, bank.dim_o)
            s, _ = forward_model(model, rec.clip_feature, o)
            hits += int(np.argmax(s) == rec.noun_label)
        assert hits == len(bank.records)

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

    def test_missing_labels_error(self):
        bank = synth_generate(SynthSpec(n_segments=5), 0)
        bank.labels[:, 1] = -1
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
        bank.clip = bank.clip * 1e170
        with pytest.raises(ValidationError, match=r"epoch \d+, batch \d+"):
            train(bank, "noun", ModelSpec(fusion="clip-only"),
                  TrainConfig(learning_rate=0.5, epochs=2, seed=0))

    def test_divergence_check_raises_no_warning(self):
        bank = synth_generate(SynthSpec(n_segments=40), 2)
        bank.clip = bank.clip * 1e170
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


class TestTrainConfig:
    def test_momentum_range(self):
        with pytest.raises(ValidationError):
            TrainConfig(momentum=1.0)
        with pytest.raises(ValidationError):
            TrainConfig(momentum=-0.1)

    def test_negative_lr_rejected(self):
        with pytest.raises(ValidationError):
            TrainConfig(learning_rate=-0.1)


class TestGradCheck:
    def test_gfa_a_model(self):
        rng = np.random.default_rng(103)
        model = init_model("gfa-a", 6, 4, 3, scale=ScaleMode.norm(), rng=rng)
        v = rng.uniform(-2, 2, 6)
        o = rng.uniform(-2, 2, 4)
        max_err, per_group = grad_check(model, v, o, label=1)
        assert set(per_group) == {"head.W", "head.b", "gfa.W", "gfa.b", "v", "o"}
        assert max_err < 1e-5

    def test_clip_only_model(self):
        rng = np.random.default_rng(104)
        model = init_model("clip-only", 5, 3, 4, rng=rng)
        max_err, _ = grad_check(model, rng.uniform(-2, 2, 5),
                                rng.uniform(-2, 2, 3), label=2)
        assert max_err < 1e-7

    def test_truncation_error_ordering(self):
        rng = np.random.default_rng(105)
        model = init_model("gfa-b", 5, 4, 3, rng=rng)
        v, o = rng.uniform(-2, 2, 5), rng.uniform(-2, 2, 4)
        coarse, _ = grad_check(model, v, o, label=0, step=1e-2)
        fine, _ = grad_check(model, v, o, label=0, step=1e-5)
        assert coarse > fine

    def test_matches_independent_oracle(self):
        rng = np.random.default_rng(106)
        model = init_model("concat", 4, 3, 3, rng=rng)
        v, o = rng.uniform(-2, 2, 4), rng.uniform(-2, 2, 3)
        _, analytic = loss_and_grads(model, v, o, 1)

        def loss_of_v(vv):
            s, _ = forward_model(model, vv, o)
            return cross_entropy(softmax(s), 1)

        assert rel_err(analytic["v"], central_diff(loss_of_v, v)) < 1e-6

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
            max_err, per_group = grad_check(model, rng.uniform(-2, 2, 5),
                                            rng.uniform(-2, 2, 4), label=0)
        assert max_err == np.inf
        assert per_group["gfa.W"] == np.inf


class TestCheckpoint:
    def _checkpoint(self, fusion="gfa-a", scale=None):
        rng = np.random.default_rng(7)
        scale = scale or ScaleMode.norm_scalar(2.5)
        model = init_model(fusion, 4, 3, 5,
                           scale=scale if fusion.startswith("gfa") else None,
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
        assert loaded.model.gfa.scale == ckpt.model.gfa.scale

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
        (lambda obj: obj["aggregation"].update(k=0), "aggregation k must be an integer >= 1"),
        (lambda obj: obj["gfa"]["scale"].update(kind="bogus"), "scale kind 'bogus'"),
        (lambda obj: obj["train_config"].update(epochs=0), "epochs must be >= 1"),
    ], ids=["k", "scale-kind", "epochs"])
    def test_config_errors_keep_their_message(self, tmp_path, edit, message):
        path = tmp_path / "ckpt.json"
        save_checkpoint(self._checkpoint(), path)
        obj = json.loads(path.read_text())
        edit(obj)
        path.write_text(json.dumps(obj))
        with pytest.raises(ValidationError, match="^" + re.escape(f"{path}: {message}")):
            load_checkpoint(path)

    @pytest.mark.parametrize("fusion", ["clip-only", "concat", "gfa-a", "gfa-b"])
    def test_save_load_save_is_byte_identical(self, tmp_path, fusion):
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        # only gfa-a scales; the helper's default scale would be rejected for gfa-b
        scale = ScaleMode.none() if fusion == "gfa-b" else None
        save_checkpoint(self._checkpoint(fusion=fusion, scale=scale), first)
        save_checkpoint(load_checkpoint(first), second)
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("edit,message", [
        (lambda ckpt: setattr(ckpt, "classes", 6), "head.W has shape (5, 7), expected (6, 7)"),
        (lambda ckpt: setattr(ckpt, "dim_v", 5), "head.W has shape (5, 7), expected (5, 8)"),
        (lambda ckpt: setattr(ckpt, "target", "action"),
         "target must be 'verb' or 'noun', got 'action'"),
    ], ids=["classes", "dim_v", "target"])
    def test_save_rejects_what_load_rejects(self, tmp_path, edit, message):
        ckpt = self._checkpoint()
        edit(ckpt)
        path = tmp_path / "ckpt.json"
        with pytest.raises(ValidationError, match=re.escape(message)):
            save_checkpoint(ckpt, path)
        assert not path.exists()

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


class TestModelInvariants:
    @pytest.mark.parametrize("scale", ["scalar", "norm", "norm-scalar"])
    @pytest.mark.parametrize("fusion", ["clip-only", "concat", "gfa-b"])
    def test_scale_is_for_gfa_a_only(self, fusion, scale):
        with pytest.raises(ValidationError,
                           match=f"fusion kind '{fusion}' takes scale 'none', got '{scale}'"):
            init_model(fusion, 4, 3, 2, scale=ScaleMode(kind=scale, s=2.0),
                       rng=np.random.default_rng(0))

    @pytest.mark.parametrize("scale", ["scalar", "norm", "norm-scalar"])
    @pytest.mark.parametrize("fusion", ["clip-only", "concat", "gfa-b"])
    def test_model_spec_checks_the_scale_rule(self, fusion, scale):
        with pytest.raises(ValidationError,
                           match=f"fusion kind '{fusion}' takes scale 'none', got '{scale}'"):
            ModelSpec(fusion=fusion, scale=ScaleMode(kind=scale, s=2.0))

    def test_scaled_gfa_b_gate_is_neither_built_nor_saved(self, tmp_path):
        # gfa-b's forward pass never reads a scale, so a model that carries one is refused
        path = tmp_path / "checkpoint.json"
        gate = GfaParams(variant="b", W=np.zeros((4, 3)), b=np.zeros(4), scale=ScaleMode.norm())
        with pytest.raises(ValidationError,
                           match="fusion kind 'gfa-b' takes scale 'none', got 'norm'"):
            save_checkpoint(Checkpoint(
                model=Model("gfa-b", Head(W=np.zeros((2, 4)), b=np.zeros(2)), gate),
                target="noun", dim_v=4, dim_o=3, classes=2, aggregation=AggregationConfig(),
                train_config=TrainConfig()), path)
        assert not path.exists()

    def test_fusion_kind_gfa_consistency(self):
        head = Head(W=np.zeros((2, 2)), b=np.zeros(2))
        with pytest.raises(ValidationError):
            Model(fusion_kind="gfa-a", head=head, gfa=None)
        gfa = GfaParams(variant="b", W=np.zeros((2, 2)), b=np.zeros(2))
        with pytest.raises(ValidationError):
            Model(fusion_kind="clip-only", head=head, gfa=gfa)
        with pytest.raises(ValidationError):
            Model(fusion_kind="gfa-a", head=head, gfa=gfa)


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
        bank = synth_generate(SynthSpec(n_segments=12, dim_v=3, dim_o=3, verb_vocab=2,
                                        noun_vocab=3), 0)
        save_feature_bank(bank, tmp_path / "bank.bank")
        tracer = _load_perfbench_spans().Tracer()
        with tracer.installed():
            spec = ModelSpec(fusion="gfa-a", scale=ScaleMode.norm())
            cfg = TrainConfig(epochs=1, batch_size=4, seed=0)
            model, _ = training.train(bank, "noun", spec, cfg)
            training.save_checkpoint(Checkpoint(model=model, target="noun", dim_v=3, dim_o=3,
                                                classes=3, aggregation=spec.aggregation,
                                                train_config=cfg), tmp_path / "ckpt.json")
            assert cli.main(["eval", "--checkpoint", str(tmp_path / "ckpt.json"),
                             "--bank", str(tmp_path / "bank.bank"),
                             "--out-dir", str(tmp_path / "eval")]) == 0
        assert tracer.absent == set()
        calls = {name: row["calls"] for name, row in tracer.summary().items()}
        for name in ("training.forward", "training.backward", "training.checkpoint_save",
                     "training.checkpoint_load", "gfa.forward", "gfa.backward"):
            assert calls.get(name, 0) >= 1, name
