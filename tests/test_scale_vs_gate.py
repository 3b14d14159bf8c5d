"""Which part of gated feature aggregation carries the stability result: the
amplitude scale or the gate.

At acceptance criterion 4's settings (an object feature 1e3 times the clip
feature's amplitude, spread over three decades), plain concatenation with the
object feature scaled to the clip feature's norm trains as well as the
amplitude-matched gate, with a first-epoch gradient norm of the same order.
Unscaled concat's exact loss never settles, and its history shows that:
its last epoch's mean loss is in the tens of thousands, where scaled
concat's is below 1.  Without the scale, the gate of gfa-b does not help:
it trails clip-only, and scaled it beats clip-only.

Margins from a sweep over synth seeds 42 and 1-11: the gradient-norm ratio
of scaled concat to gfa-a ``norm`` was 1.77-1.98 (raw concat: 7,458-9,856),
the val top-1 gap -0.020 to +0.030, and scaled gfa-b led clip-only by
0.080-0.160, while unscaled gfa-b (0.060-0.195) trailed it (0.225-0.350).
At seeds 42 and 1-3, unscaled concat's last mean loss read 23,395-99,301
and scaled concat's 0.357-0.423.
"""

import pytest

from gatedfusion.bank import SynthSpec, synth_generate
from gatedfusion.gfa import ScaleMode
from gatedfusion.training import ModelSpec, TrainConfig, train

_MISMATCH = dict(mismatch=1e3, noise=0.35, amplitude_jitter=1.5, noun_in_clip=1.0)
_CFG = TrainConfig(learning_rate=0.1, momentum=0.9, epochs=80, batch_size=32, seed=7)


def _runs(seed: int) -> dict[tuple[str, str], list[dict]]:
    train_bank = synth_generate(SynthSpec(n_segments=500, **_MISMATCH), seed, "train")
    val_bank = synth_generate(SynthSpec(n_segments=200, **_MISMATCH), seed, "val")
    return {(fusion, scale): train(train_bank, "noun",
                                   ModelSpec(fusion=fusion, scale=ScaleMode(scale)),
                                   _CFG, val_bank)[1]
            for fusion, scale in (("gfa-a", "norm"), ("concat", "norm"), ("concat", "none"),
                                  ("gfa-b", "norm"), ("gfa-b", "none"), ("clip-only", "none"))}


@pytest.mark.parametrize("seed", [42, 1])
def test_the_scale_not_the_gate_removes_the_blow_up(seed):
    runs = _runs(seed)
    gate, concat = runs["gfa-a", "norm"], runs["concat", "norm"]
    ratio = concat[0]["mean_grad_norm"] / gate[0]["mean_grad_norm"]
    assert 0.1 < ratio < 10.0, ratio
    assert abs(concat[-1]["val_top1"] - gate[-1]["val_top1"]) <= 0.05
    # the history records the blow-up at its size: the loss is exact
    assert runs["concat", "none"][-1]["mean_loss"] > 1e3
    assert concat[-1]["mean_loss"] < 1.0

    clip_top1 = runs["clip-only", "none"][-1]["val_top1"]
    assert runs["gfa-b", "none"][-1]["val_top1"] < clip_top1
    assert runs["gfa-b", "norm"][-1]["val_top1"] > clip_top1
