"""The amplitude match is a choice of target ratio |o| / |v|, and at a large
one the gate needs a smaller step.

``norm`` brings each record's aggregated object feature to its clip
feature's norm, a ratio of 1; ``norm-scalar`` with divisor 0.25 brings it to
4 times that norm.  On the benchmark's bank shape at noise 0.25, where the
clip carries no noun evidence, concat at ratio 4 learns nouns well above
concat at ratio 1, while gfa-a at ratio 4 collapses below concat at the
same ratio and learning rate.  The collapse is a step-size edge: at lr 0.15
gfa-a at ratio 4 trains as well as concat does at lr 0.5.

Margins from val noun top-1 at synth seeds 1-3 (lr 0.5, momentum 0.9, 20
epochs, batch 32, training seed 1): concat ``norm`` read 0.766, 0.782 and
0.756, concat at ratio 4 read 0.906, 0.906 and 0.914, and gfa-a at ratio 4
read 0.446, 0.552 and 0.470; gfa-a at ratio 4 and lr 0.15 read 0.892,
0.916 and 0.902.  The gradient oracle still passes at ratio 4 for both
kinds (4.2e-8 for concat and 9.4e-8 for gfa-a at ``gradcheck``'s
defaults), so these runs train on gradients that are right.
"""

import json
from dataclasses import replace

import pytest

from gatedfusion.bank import SynthSpec, synth_generate
from gatedfusion.cli import main
from gatedfusion.gfa import ScaleMode
from gatedfusion.training import ModelSpec, TrainConfig, train

_BANK = dict(dim_v=64, dim_o=64, verb_vocab=20, noun_vocab=40, pairs_per_verb=5, noise=0.25)
_CFG = TrainConfig(learning_rate=0.5, momentum=0.9, epochs=20, batch_size=32, seed=1)
_RATIO_1, _RATIO_4 = ScaleMode("norm"), ScaleMode("norm-scalar", 0.25)


@pytest.fixture(scope="module", params=[1, 2])
def val_top1(request):
    """Val noun top-1 at Table A's settings on the banks of synth seed
    ``request.param``, by fusion, scale and learning rate; each run trains
    once per module."""
    train_bank = synth_generate(SynthSpec(n_segments=2000, **_BANK), request.param, "train")
    val_bank = synth_generate(SynthSpec(n_segments=500, **_BANK), request.param, "val")
    runs = {}

    def top1(fusion: str, scale: ScaleMode, lr: float = 0.5) -> float:
        if (fusion, scale, lr) not in runs:
            cfg = replace(_CFG, learning_rate=lr)
            history = train(train_bank, "noun", ModelSpec(fusion=fusion, scale=scale), cfg,
                            val_bank)[1]
            runs[fusion, scale, lr] = history[-1]["val_top1"]
        return runs[fusion, scale, lr]

    return top1


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
