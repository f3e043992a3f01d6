import dataclasses
import json
import os
import re

import pytest

from corrcolor.config import (ConfigError, apply_overrides, config_from_dict, DEFAULTS,
                              parse_config)
from corrcolor.data import SparseDenseSpec
from corrcolor.training import ExperimentConfig

SHIPPED = os.path.join(os.path.dirname(__file__), "..", "configs", "synthetic_small.json")


def write_config(tmp_path, payload):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return path


class TestParseConfig:
    def test_minimal_config_gets_paper_defaults(self, tmp_path):
        path = write_config(tmp_path, {"seed": 3, "dataset": {"kind": "synthetic"}})
        config, resolved = parse_config(path)
        assert config.loss.lam == 0.05
        assert config.loss.alpha == 0.01
        assert config.optimizer.weight_decay == 5e-6
        assert config.seed == 3
        assert resolved["loss"]["lambda"] == 0.05

    def test_unknown_key_suggests_nearest(self, tmp_path):
        path = write_config(tmp_path, {"lose": {"lambda": 0.1}})
        with pytest.raises(ConfigError, match="unknown config key 'lose'.*'loss'"):
            parse_config(path)

    def test_nested_unknown_key(self, tmp_path):
        path = write_config(tmp_path, {"loss": {"lambada": 0.1}})
        with pytest.raises(ConfigError, match="loss.lambada.*loss.lambda"):
            parse_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            parse_config(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            parse_config(path)

    def test_dataset_seed_derived_from_master(self, tmp_path):
        a, _ = parse_config(write_config(tmp_path, {"seed": 1}))
        b, _ = parse_config(write_config(tmp_path, {"seed": 2}))
        assert isinstance(a.dataset, SparseDenseSpec)
        assert a.dataset.seed != b.dataset.seed

    def test_explicit_dataset_seed_respected(self, tmp_path):
        path = write_config(tmp_path, {"dataset": {"kind": "synthetic", "seed": 77}})
        config, _ = parse_config(path)
        assert config.dataset.seed == 77

    def test_unknown_dataset_kind_names_the_known_kinds(self, tmp_path):
        path = write_config(tmp_path, {"dataset": {"kind": "image"}})
        with pytest.raises(ConfigError, match=re.escape("unknown dataset kind 'image' (synthetic)")):
            parse_config(path)

    def test_bad_tap_index_fails_at_parse_time(self, tmp_path):
        path = write_config(tmp_path, {"encoder": {"widths": [16, 8], "tap_index": 5}})
        with pytest.raises(ConfigError, match="tap"):
            parse_config(path)

    def test_invalid_variant_cites_constraint(self, tmp_path):
        path = write_config(tmp_path, {"loss": {"variant": "sideways"}})
        with pytest.raises(ConfigError, match="variant"):
            parse_config(path)

    # each out-of-range value is refused at parse time, by its own key
    @pytest.mark.parametrize("override, message", [
        ("optimizer.betas=[2,3]", "optimizer.betas must be each in [0, 1), got (2.0, 3.0)"),
        ("optimizer.betas=[0.9,1]", "optimizer.betas must be each in [0, 1), got (0.9, 1.0)"),
        ("optimizer.betas=[-0.1,0.999]",
         "optimizer.betas must be each in [0, 1), got (-0.1, 0.999)"),
        ("optimizer.weight_decay=-1", "optimizer.weight_decay must be >= 0, got -1.0"),
        ("vae_train.beta_kl=-1e6", "vae_train.beta_kl must be >= 0, got -1000000.0"),
        ("loss.lambda=-1", "loss.lambda must be non-negative, got -1.0"),
        ("loss.alpha=-1", "loss.alpha must be non-negative, got -1.0"),
        ("loss.lambda_block_epochs=0", "loss.lambda_block_epochs must be >= 1, got 0"),
    ])
    def test_out_of_range_value_names_its_key(self, override, message):
        with pytest.raises(ConfigError) as info:
            parse_config(SHIPPED, [override])
        assert str(info.value) == message

    def test_edge_values_are_accepted(self):
        config, _ = parse_config(SHIPPED, [
            "optimizer.betas=[0,0.5]", "optimizer.weight_decay=0", "vae_train.beta_kl=0",
            "loss.alpha=0", "loss.lambda=0", "loss.lambda_block_epochs=1"])
        assert config.optimizer.betas == (0.0, 0.5) and config.loss.lam_block_epochs == 1


class TestOverrides:
    def test_lambda_override(self, tmp_path):
        path = write_config(tmp_path, {})
        config, _ = parse_config(path, ["loss.lambda=0"])
        assert config.loss.lam == 0.0

    def test_list_and_bool_overrides(self, tmp_path):
        path = write_config(tmp_path, {})
        config, _ = parse_config(path, ["encoder.widths=[32, 16]",
                                        "encoder.tap_index=1",
                                        "share_heads=false", "epochs=7"])
        assert config.encoder.widths == (32, 16)
        assert config.share_heads is False
        assert config.epochs == 7

    def test_values_that_keep_their_meaning_are_converted(self, tmp_path):
        path = write_config(tmp_path, {"share_heads": "false", "epochs": 3.0,
                                       "optimizer": {"lr": 1}})
        config, _ = parse_config(path)
        assert config.share_heads is False
        assert config.epochs == 3 and type(config.epochs) is int
        assert config.optimizer.lr == 1.0 and type(config.optimizer.lr) is float

    @pytest.mark.parametrize("given, message", [
        ({"share_heads": "no"}, "'share_heads' must be true or false, got 'no'"),
        ({"epochs": 2.5}, "'epochs' must be an integer, got 2.5"),
        ({"batch_size": True}, "'batch_size' must be an integer, got True"),
        ({"encoder": {"tap_index": "abc"}}, "'encoder.tap_index' must be an integer"),
        ({"loss": {"lambda": "0.1"}}, "'loss.lambda' must be a number"),
        # str(None) would be a directory named 'None', str(3) the path '3'
        ({"output_dir": None}, "'output_dir' must be a string, got None"),
        ({"target": {"path": 3}}, "'target.path' must be a string, got 3"),
        # NaN fails every range check, so it would pass them all
        ({"loss": {"lambda": float("nan")}}, "'loss.lambda' must be finite, got nan"),
        ({"loss": {"lambda_schedule": [float("nan")]}},
         "'loss.lambda_schedule' must be finite, got nan"),
        ({"optimizer": {"betas": [float("nan"), 0.999]}},
         "'optimizer.betas' must be finite, got nan"),
        ({"eval": {"lr_end": float("inf")}}, "'eval.lr_end' must be finite, got inf"),
        ({"dataset": {"signal": float("-inf")}}, "'dataset.signal' must be finite, got -inf"),
    ])
    def test_values_that_would_change_meaning_are_refused(self, tmp_path, given, message):
        with pytest.raises(ConfigError) as info:
            parse_config(write_config(tmp_path, given))
        assert message in str(info.value)

    def test_string_override_without_quotes(self, tmp_path):
        path = write_config(tmp_path, {})
        config, _ = parse_config(path, ["loss.variant=auto"])
        assert config.loss.variant == "auto"

    def test_null_only_for_an_optional_string(self, tmp_path):
        path = write_config(tmp_path, {"target": {"path": "t.bin"}})
        config, _ = parse_config(path, ["target.path=null", 'output_dir="3"'])
        assert config.target.path is None and config.output_dir == "3"
        for override, key in (("output_dir=null", "output_dir"), ("target.path=3", "target.path")):
            with pytest.raises(ConfigError, match=f"'{key}' must be a string"):
                parse_config(path, [override])

    def test_unknown_override_key_suggests(self):
        with pytest.raises(ConfigError, match="unknown config key 'loss.lambd'.*'loss.lambda'"):
            apply_overrides(DEFAULTS, ["loss.lambd=0.1"])

    def test_malformed_override(self):
        with pytest.raises(ConfigError, match="key=value"):
            apply_overrides(DEFAULTS, ["loss.lambda"])

    def test_scalar_path_cannot_be_descended(self):
        with pytest.raises(ConfigError, match="unknown config key 'seed.inner'"):
            apply_overrides(DEFAULTS, ["seed.inner=1"])

    def test_dict_override_merges_into_its_section(self):
        config, resolved = parse_config(SHIPPED, ['augment={"dense_noise_scale": 2}'])
        assert config.augment.dense_noise_scale == 2.0
        # the keys the override leaves out keep the file's values
        assert config.augment.dense_dropout_prob == 0.3
        assert config.augment.scale_jitter == (0.95, 1.05)
        assert resolved["augment"]["dense_dropout_prob"] == 0.3

    def test_dict_override_keys_are_checked(self):
        with pytest.raises(ConfigError, match="unknown config key 'augment.dense_nosie_scale'; "
                                              "nearest valid key is 'augment.dense_noise_scale'"):
            parse_config(SHIPPED, ['augment={"dense_nosie_scale": 2}'])


class TestManifestRoundTrip:
    def test_resolved_to_config_to_manifest_and_back(self, tmp_path):
        cases = [
            ({"seed": 5, "epochs": 3, "loss": {"lambda": 0.1},
              "encoder": {"widths": [24, 16, 12]}}, []),
            ({"dataset": {"kind": "synthetic", "seed": 77}}, []),
            ({}, ["loss.lambda=0"]),
        ]
        for payload, overrides in cases:
            config, _ = parse_config(write_config(tmp_path, payload), overrides)
            # a manifest stores the config as JSON: tuples come back as lists
            manifest = json.loads(json.dumps(config.to_dict(), default=str))
            rebuilt = config_from_dict(manifest)
            assert rebuilt == config
            assert rebuilt.digest() == config.digest()

        # an int override is coerced, so it is the same config as its float spelling
        as_int, _ = parse_config(write_config(tmp_path, {}), ["loss.lambda=0"])
        as_float, _ = parse_config(write_config(tmp_path, {}), ["loss.lambda=0.0"])
        assert isinstance(as_int.loss.lam, float) and as_int.loss.lam == 0.0
        assert as_int.digest() == as_float.digest()

    def test_schedule_survives_roundtrip(self, tmp_path):
        path = write_config(tmp_path, {
            "loss": {"lambda_schedule": [0.08, 0.07, 0.06, 0.05, 0.04],
                     "lambda_block_epochs": 50}})
        config, _ = parse_config(path)
        rebuilt = config_from_dict(config.to_dict())
        assert rebuilt.loss.lam_schedule == (0.08, 0.07, 0.06, 0.05, 0.04)
        assert rebuilt == config


class TestOneSchema:
    def test_parse_config_returns_the_config_file_form(self, tmp_path):
        config, written = parse_config(write_config(tmp_path, {"seed": 4}))
        assert written == config.to_dict()
        assert written["dataset"]["kind"] == "synthetic"
        # the derived dataset seed is spelled out
        assert config.dataset.seed is not None
        assert written["dataset"]["seed"] == config.dataset.seed
        assert written["loss"]["lambda"] == 0.05 and "lam" not in written["loss"]

    @pytest.mark.parametrize("loss, key", [({"lam": 0.2}, "loss.lam"),
                                           ({"lamda": 0.7}, "loss.lamda")])
    def test_manifest_key_outside_the_schema_is_refused(self, loss, key):
        manifest = json.loads(json.dumps(ExperimentConfig().to_dict()))
        manifest["loss"].update(loss)
        with pytest.raises(ConfigError, match=re.escape(
                f"unknown config key '{key}'; nearest valid key is 'loss.lambda'")):
            config_from_dict(manifest)

    # keys that earlier manifests held and the schema has dropped
    @pytest.mark.parametrize("key, value, nearest", [
        ("loss.sigma", 1.0, "loss.alpha"),
        ("augment.mirror_prob", 0.5, "augment.dense_dropout_prob"),
        ("encoder.allow_tap_at_final", False, "encoder.tap_index")])
    def test_dropped_manifest_key_names_the_nearest_key(self, key, value, nearest):
        manifest = json.loads(json.dumps(ExperimentConfig().to_dict()))
        section, name = key.split(".")
        manifest[section][name] = value
        with pytest.raises(ConfigError, match=re.escape(
                f"unknown config key '{key}'; nearest valid key is '{nearest}'")):
            config_from_dict(manifest)

    def test_every_dropped_manifest_key_is_named_in_one_error(self):
        manifest = json.loads(json.dumps(ExperimentConfig().to_dict()))
        manifest["loss"]["sigma"] = 1.0
        manifest["augment"]["mirror_prob"] = 0.5
        with pytest.raises(ConfigError) as info:
            config_from_dict(manifest)
        assert str(info.value) == (
            "unknown config key 'augment.mirror_prob'; nearest valid key is "
            "'augment.dense_dropout_prob'; "
            "unknown config key 'loss.sigma'; nearest valid key is 'loss.alpha'")

    def test_dataclass_field_block_is_refused(self):
        # the field-name form earlier manifests held is not a config file
        with pytest.raises(ConfigError, match="'loss.lam'.*'loss.lambda'"):
            config_from_dict(dataclasses.asdict(ExperimentConfig()))


class TestDigestPins:
    # run manifests record config_digest; these values must not drift
    def test_default_config_digest(self):
        assert ExperimentConfig().digest() == "4c7d94e32ee42458"

    def test_shipped_config_digest(self):
        config, _ = parse_config(SHIPPED)
        assert config.digest() == "4e9d84c9b9cb2252"

    def test_locations_are_not_hashed(self):
        # the same numbers computed in two directories get one digest
        config = ExperimentConfig()
        moved = dataclasses.replace(config, output_dir="elsewhere",
                                    target=dataclasses.replace(config.target, path="t.bin"))
        assert moved.digest() == config.digest()
        assert moved.to_dict()["target"]["path"] == "t.bin"
        assert dataclasses.replace(config, seed=1).digest() != config.digest()
