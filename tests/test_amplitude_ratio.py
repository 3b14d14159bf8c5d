"""The amplitude match is a choice of target ratio |o| / |v|, and at a large
one the gate needs a smaller step.

``norm`` brings each record's aggregated object feature to its clip
feature's norm, a ratio of 1; ``norm-scalar`` with divisor 0.25 brings it to
4 times that norm.  On the benchmark's bank shape at noise 0.25, where the
clip carries no noun evidence, concat at ratio 4 learns nouns well above
concat at ratio 1, while gfa-a at ratio 4 collapses below concat at the
same ratio and learning rate.  The collapse is the gate closing for good on
the object block, not a step past the loss's curvature edge: at seed 1
the first epoch drives half of the o-block gate dims below 0.01 on nearly
every row, where the sigmoid passes under 1% of its gradient, so they get
almost no signal to reopen.  At lr 0.15 no dim closes, and gfa-a at ratio
4 trains as well as concat does at lr 0.5.

Margins from val noun top-1 at synth seeds 1-3 (lr 0.5, momentum 0.9, 20
epochs, batch 32, training seed 1): concat ``norm`` read 0.766, 0.782 and
0.756, concat at ratio 4 read 0.906, 0.906 and 0.914, and gfa-a at ratio 4
read 0.446, 0.552 and 0.470; gfa-a at ratio 4 and lr 0.15 read 0.892,
0.916 and 0.902.  After training at lr 0.5, gfa-a at ratio 4 had 45, 39
and 44 of its 128 gate dims closed (below 0.01 on more than 99% of training
rows), 1, 1 and 2 of them on the clip block, and none at lr 0.15.
The gradient oracle still passes at ratio 4 for both kinds (4.2e-8 for
concat and 9.4e-8 for gfa-a at ``gradcheck``'s defaults), so these runs
train on gradients that are right.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

from gatedfusion.bank import AggregationConfig, SynthSpec, synth_generate
from gatedfusion.cli import main
from gatedfusion.gfa import ScaleMode
from gatedfusion.training import ModelSpec, TrainConfig, bank_inputs, forward_model, train

_BANK = dict(dim_v=64, dim_o=64, verb_vocab=20, noun_vocab=40, pairs_per_verb=5, noise=0.25)
_CFG = TrainConfig(learning_rate=0.5, momentum=0.9, epochs=20, batch_size=32, seed=1)
_RATIO_1, _RATIO_4 = ScaleMode("norm"), ScaleMode("norm-scalar", 0.25)


@pytest.fixture(scope="module", params=[1, 2])
def table_a(request):
    """The training bank of synth seed ``request.param`` at Table A's
    settings, and ``run(fusion, scale, lr)``: the model trained on it and
    its val noun top-1.  Each run trains once per module."""
    train_bank = synth_generate(SynthSpec(n_segments=2000, **_BANK), request.param, "train")
    val_bank = synth_generate(SynthSpec(n_segments=500, **_BANK), request.param, "val")
    runs = {}

    def run(fusion: str, scale: ScaleMode, lr: float = 0.5):
        if (fusion, scale, lr) not in runs:
            cfg = replace(_CFG, learning_rate=lr)
            model, history = train(train_bank, "noun", ModelSpec(fusion=fusion, scale=scale),
                                   cfg, val_bank)
            runs[fusion, scale, lr] = model, history[-1]["val_top1"]
        return runs[fusion, scale, lr]

    return train_bank, run


@pytest.fixture
def val_top1(table_a):
    """Val noun top-1 of ``table_a``'s run, by fusion, scale and learning rate."""
    return lambda *args, **kwargs: table_a[1](*args, **kwargs)[1]


def test_ratio_four_helps_concat_and_breaks_the_gate(val_top1):
    concat_1 = val_top1("concat", _RATIO_1)
    concat_4 = val_top1("concat", _RATIO_4)
    gate_4 = val_top1("gfa-a", _RATIO_4)
    assert concat_4 >= concat_1 + 0.08, (concat_4, concat_1)
    assert gate_4 <= concat_4 - 0.25, (gate_4, concat_4)


def test_the_gate_at_ratio_four_trains_at_a_smaller_step(val_top1):
    gate_4_small_step = val_top1("gfa-a", _RATIO_4, lr=0.15)
    concat_4 = val_top1("concat", _RATIO_4)
    gate_4 = val_top1("gfa-a", _RATIO_4)
    assert abs(gate_4_small_step - concat_4) <= 0.03, (gate_4_small_step, concat_4)
    assert gate_4_small_step >= gate_4 + 0.2, (gate_4_small_step, gate_4)


@pytest.mark.parametrize("fusion", ["concat", "gfa-a"])
def test_the_gradient_oracle_passes_at_ratio_four(tmp_path, fusion):
    assert main(["gradcheck", "--fusion", fusion, "--scale", "norm-scalar",
                 "--scale-divisor", "0.25", "--out-dir", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "gradcheck_report.json").read_text(encoding="utf-8"))
    assert report["passed"] and report["max_rel_err"] < 1e-5


def test_a_large_step_closes_the_gate_on_the_object_block_for_good(table_a):
    train_bank, run = table_a

    def closed_dims(lr: float) -> tuple[int, int]:
        """Gate dims below 0.01 on more than 99% of training rows, as
        (clip block, object block)."""
        model = run("gfa-a", _RATIO_4, lr=lr)[0]
        gate = forward_model(*bank_inputs(model, train_bank, AggregationConfig()))[1] \
            .gfa_cache.gate
        assert gate.shape == (len(train_bank.ids), 128)
        closed = np.mean(gate < 0.01, axis=0) > 0.99
        return int(np.count_nonzero(closed[:64])), int(np.count_nonzero(closed[64:]))

    v_closed, o_closed = closed_dims(0.5)
    assert v_closed + o_closed >= 30 and v_closed <= 1, (v_closed, o_closed)
    assert closed_dims(0.15) == (0, 0)
