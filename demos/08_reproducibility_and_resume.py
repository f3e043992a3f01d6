"""Determinism, checkpoint/resume equivalence, and manifest replay.

Every random stream in a run derives from the single config seed, the
checkpoint stores optimizer state and the training RNG stream, and the
run manifest stores the config as a config file states it, with every
key spelled out (the derived dataset seed too; ``show-config`` prints
the same JSON), so:

  * the same config always produces bit-identical metrics,
  * training 2 epochs, then resuming for 2 more, equals training 4
    epochs straight,
  * a run can be replayed exactly from its manifest alone, and a
    manifest key the config schema does not have is refused, not
    silently dropped.
"""

import json
import os
import tempfile

from corrcolor.config import ConfigError, config_from_dict
from corrcolor.data import SparseDenseSpec
from corrcolor.losses import LossConfig
from corrcolor.networks import EncoderSpec, ProjectorSpec
from corrcolor.training import ExperimentConfig, TargetConfig, pretrain


def make_config(epochs):
    return ExperimentConfig(
        dataset=SparseDenseSpec(num_samples=128, num_classes=4, sparse_dim=6,
                                dense_dim=26, signal=2.0, seed=11),
        encoder=EncoderSpec(widths=(32, 24, 16), tap_index=2),
        coloring_head=ProjectorSpec((16, 16, 8)),
        whitening_head=ProjectorSpec((16, 16, 8)),
        loss=LossConfig(lam=0.05),
        target=TargetConfig(source="identity"),
        batch_size=32, epochs=epochs, seed=5)


def rows(run):
    return [(m.epoch, round(m.loss_total, 12), round(m.variance, 12)) for m in run.metrics]


with tempfile.TemporaryDirectory() as tmp:
    straight = pretrain(make_config(4), run_dir=os.path.join(tmp, "straight"))
    again = pretrain(make_config(4), run_dir=os.path.join(tmp, "again"))
    print("same config twice, identical metrics:", rows(straight) == rows(again))

    first = pretrain(make_config(2), run_dir=os.path.join(tmp, "first"))
    resumed = pretrain(make_config(4), run_dir=os.path.join(tmp, "resumed"),
                       resume=first.checkpoint_path)
    print("2 + 2 epochs equals straight 4:",
          rows(first) + rows(resumed) == rows(straight))

    manifest = json.load(open(os.path.join(tmp, "straight", "manifest.json")))
    replay = pretrain(config_from_dict(manifest["config"]),
                      run_dir=os.path.join(tmp, "replay"))
    print("manifest replay identical:", rows(replay) == rows(straight))
    manifest["config"]["loss"]["lamda"] = 0.7  # a misspelling of "lambda"
    try:
        config_from_dict(manifest["config"])
    except ConfigError as exc:
        print("misspelled manifest key refused:", exc)

    print("\nloss trajectory:", [r[1] for r in rows(straight)])
