"""At the challenge's vocabulary the amplitude match costs nouns, and the
gfa-b noun head stays at chance.

At EPIC-Kitchens' 125 verbs x 352 nouns (20 nouns per verb, noise 0.25,
mismatch 1, no noun evidence in the clip), concat with its object feature
left as is learns nouns well above concat ``norm``, which matches each
object feature to its clip feature's norm.  gfa-b's noun head reads only
the gated clip feature ``sigmoid(W o + b) * v``, and ``v`` carries no noun
evidence here, so it stays near chance (1/352, about 0.003).

Margins from val noun top-1 at synth seeds 5-8 (lr 0.5, momentum 0.9, 20
epochs, batch 32, training seed 1): concat ``none`` read 0.297, 0.302,
0.296 and 0.295, concat ``norm`` 0.124, 0.104, 0.111 and 0.103, and gfa-b
``none`` 0.007, 0.010, 0.009 and 0.010.
"""

import pytest

from gatedfusion.bank import SynthSpec, synth_generate
from gatedfusion.gfa import ScaleMode
from gatedfusion.training import ModelSpec, TrainConfig, train

_BANK = dict(dim_v=64, dim_o=64, verb_vocab=125, noun_vocab=352, pairs_per_verb=20,
             noise=0.25, mismatch=1.0)
_CFG = TrainConfig(learning_rate=0.5, momentum=0.9, epochs=20, batch_size=32, seed=1)


def _val_top1(train_bank, val_bank, fusion: str, scale: str) -> float:
    spec = ModelSpec(fusion=fusion, scale=ScaleMode(scale))
    return train(train_bank, "noun", spec, _CFG, val_bank)[1][-1]["val_top1"]


@pytest.mark.parametrize("seed", [5, 6])
def test_norm_costs_concat_its_nouns_and_gfa_b_stays_at_chance(seed):
    train_bank = synth_generate(SynthSpec(n_segments=4000, **_BANK), seed, "train")
    val_bank = synth_generate(SynthSpec(n_segments=1000, **_BANK), seed, "val")
    concat_none = _val_top1(train_bank, val_bank, "concat", "none")
    concat_norm = _val_top1(train_bank, val_bank, "concat", "norm")
    gate_b = _val_top1(train_bank, val_bank, "gfa-b", "none")
    assert concat_none >= concat_norm + 0.15, (concat_none, concat_norm)
    assert concat_none >= 0.25, concat_none
    assert gate_b <= 0.02, gate_b
