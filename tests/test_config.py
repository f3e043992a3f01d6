import json

import pytest

from corrcolor.config import (ConfigError, apply_overrides, config_from_dict, DEFAULTS,
                              parse_config)
from corrcolor.data import SparseDenseSpec


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

    def test_image_dataset_requires_path(self, tmp_path):
        path = write_config(tmp_path, {"dataset": {"kind": "image"}})
        with pytest.raises(ConfigError, match="dataset.path"):
            parse_config(path)

    def test_bad_tap_index_fails_at_parse_time(self, tmp_path):
        path = write_config(tmp_path, {"encoder": {"widths": [16, 8], "tap_index": 5}})
        with pytest.raises(ConfigError, match="tap"):
            parse_config(path)

    def test_invalid_variant_cites_constraint(self, tmp_path):
        path = write_config(tmp_path, {"loss": {"variant": "sideways"}})
        with pytest.raises(ConfigError, match="variant"):
            parse_config(path)


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

    def test_string_override_without_quotes(self, tmp_path):
        path = write_config(tmp_path, {})
        config, _ = parse_config(path, ["loss.variant=auto"])
        assert config.loss.variant == "auto"

    def test_unknown_override_key_suggests(self):
        with pytest.raises(ConfigError, match="unknown override key.*lambda"):
            apply_overrides(DEFAULTS, ["loss.lambd=0.1"])

    def test_malformed_override(self):
        with pytest.raises(ConfigError, match="key=value"):
            apply_overrides(DEFAULTS, ["loss.lambda"])

    def test_scalar_path_cannot_be_descended(self):
        with pytest.raises(ConfigError, match="unknown override key"):
            apply_overrides(DEFAULTS, ["seed.inner=1"])


class TestManifestRoundTrip:
    def test_resolved_to_config_to_manifest_and_back(self, tmp_path):
        cases = [
            ({"seed": 5, "epochs": 3, "loss": {"lambda": 0.1},
              "encoder": {"widths": [24, 16, 12]}}, []),
            ({"dataset": {"kind": "image", "path": "x.rim"}}, []),
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
