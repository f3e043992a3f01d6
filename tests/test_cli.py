"""End-to-end command-line tests driven through cli.main."""

import dataclasses
import json
import os
import warnings

import numpy as np
import pytest

from corrcolor import autograd, cli, data
from corrcolor.checkpoint import load_arrays, save_arrays
from corrcolor.cli import main
from corrcolor.config import parse_config
from corrcolor.data import DataError
from corrcolor.diagnostics import METRICS_COLUMNS, read_rows
from corrcolor.evaluation import EvalResult
from corrcolor.optim import OptimizerError
from corrcolor.target import identity_target, save_target
from corrcolor.training import TrainingError, pretrain

SHIPPED = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "synthetic_small.json")

SMALL_CONFIG = {
    "seed": 5,
    "batch_size": 16,
    "epochs": 2,
    "dataset": {"kind": "synthetic", "num_samples": 48, "sparse_dim": 4,
                "dense_dim": 12},
    "encoder": {"widths": [24, 16, 12], "tap_index": 2},
    "coloring_head": {"widths": [16, 16, 8]},
    "whitening_head": {"widths": [16, 16, 8]},
    "vae_train": {"epochs": 2, "batch_size": 16},
    "eval": {"probe_epochs": 5},
}

# every layer of a step reaches autograd.QUEUE_MACS, so backward passes
# queue their parameter gradients on the loop's worker
LARGE_CONFIG = {
    "seed": 0,
    "batch_size": 256,
    "epochs": 2,
    "dataset": {"kind": "synthetic", "num_samples": 512, "sparse_dim": 8, "dense_dim": 56},
    "encoder": {"widths": [64, 64, 64], "tap_index": 2},
    "coloring_head": {"widths": [64, 64, 64]},
    "whitening_head": {"widths": [64, 64, 64]},
}


# every sample and every view the zero vector: the first step collapses
COLLAPSING = ["--set", "dataset.signal=0", "--set", "dataset.sparse_noise=0",
              "--set", "dataset.dense_noise=0", "--set", "augment.dense_noise_scale=0",
              "--set", "augment.dense_dropout_prob=0", "--set", "augment.scale_jitter=[1,1]"]


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    payload = dict(SMALL_CONFIG)
    payload["output_dir"] = str(tmp_path / "run")
    path.write_text(json.dumps(payload))
    return str(path)


def files(directory) -> dict:
    """Every file of ``directory`` by name, with its bytes."""
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def manifest(directory) -> dict:
    return json.loads((directory / "manifest.json").read_text())


class TestShowConfig:
    def test_prints_resolved_json(self, config_path, capsys):
        assert main(["show-config", "--config", config_path]) == 0
        resolved = json.loads(capsys.readouterr().out)
        assert resolved["loss"]["lambda"] == 0.05
        assert resolved["seed"] == 5

    def test_override_reflected(self, config_path, capsys):
        assert main(["show-config", "--config", config_path,
                     "--set", "loss.lambda=0"]) == 0
        assert json.loads(capsys.readouterr().out)["loss"]["lambda"] == 0

    def test_prints_what_the_manifest_records(self, config_path, tmp_path, capsys):
        args = ["--config", config_path, "--set", "target.source=identity",
                "--set", "loss.lambda=0.1"]
        assert main(["show-config"] + args) == 0
        shown = json.loads(capsys.readouterr().out)
        out = tmp_path / "run"
        assert main(["pretrain", "--out", str(out)] + args) == 0
        assert shown == json.loads((out / "manifest.json").read_text())["config"]

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"lose": 1}')
        assert main(["show-config", "--config", str(bad)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"


class TestEarlyValueChecks:
    # each bad value must stop the command at parse time: exit 2, no output dir
    @pytest.mark.parametrize("command, override", [
        ("pretrain", "optimizer.lr=0"),
        ("compute-target", "vae_train.lr=0"),
        ("compute-target", "vae_train.epochs=0"),
        ("compute-target", "vae_train.batch_size=0"),
        ("compute-target", "target.draws=0"),
        ("eval", "eval.lr_start=0"),
        ("eval", "eval.lr_end=-1e-6"),
        ("eval", "eval.batch_size=0"),
        ("eval", "eval.probe_epochs=0"),
        ("eval", "eval.train_fraction=1.0"),
        ("pretrain", "encoder.widths=[0,0,0]"),
        ("pretrain", "encoder.widths=[]"),
        ("pretrain", "whitening_head.widths=[32,32,0]"),
        ("pretrain", "coloring_head.widths=[32,32,0]"),
        ("pretrain", "dataset.dense_dim=-1"),
        ("compute-target", "dataset.sparse_dim=1"),
        ("compute-target", "augment.dense_dropout_prob=1.5"),
        ("compute-target", "augment.scale_jitter=[1.1,0.9]"),
        ("compute-target", "augment.scale_jitter=[1]"),
        ("compute-target", "augment.dense_noise_scale=-1"),
        ("pretrain", "dataset.num_classes=1"),
        ("pretrain", "encoder.widths=5"),
        # a value of the wrong type is refused, not converted
        ("pretrain", "share_heads=no"),
        ("pretrain", "share_heads=1"),
        ("pretrain", "epochs=2.5"),
        ("pretrain", "batch_size=true"),
        ("pretrain", "encoder.tap_index=abc"),
        ("pretrain", "encoder.widths=[48,true,32]"),
        ("compute-target", "vae_train.epochs=2.5"),
        ("pretrain", "loss.lambda=abc"),
        ("pretrain", "optimizer.lr=true"),
        ("pretrain", "seed=1.5"),
        ("pretrain", "dataset.seed=x"),
        ("pretrain", "output_dir=null"),
        ("compute-target", "target.path=3"),
        # a float that is not finite is refused by name
        ("pretrain", "loss.lambda=NaN"),
        ("pretrain", "loss.lambda_schedule=[NaN]"),
        ("pretrain", "loss.alpha=NaN"),
        ("pretrain", "loss.lambda=Infinity"),
        ("pretrain", "optimizer.weight_decay=NaN"),
        ("pretrain", "optimizer.betas=[NaN,0.999]"),
        ("pretrain", "optimizer.lr=Infinity"),
        ("compute-target", "vae_train.beta_kl=NaN"),
        ("compute-target", "vae_train.lr=Infinity"),
        ("compute-target", "dataset.signal=NaN"),
        ("eval", "eval.lr_end=Infinity"),
        ("pretrain", "dataset.seed=-1"),
    ])
    def test_rejected_before_any_work(self, config_path, tmp_path, capsys, command, override):
        out = tmp_path / "run"
        assert main([command, "--config", config_path, "--out", str(out),
                     "--set", override]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config" and override.split("=")[0] in err["message"]
        assert not out.exists()

    # inputs of the image modality, loss.sigma, the autoencoder source (now
    # vae_train.beta_kl=0) and the final-layer tap flag, which are gone: in
    # an override, in a config file and in an old manifest's config block
    @pytest.mark.parametrize("given, message", [
        ('dataset.kind="image"', "unknown dataset kind 'image' (synthetic)"),
        ("augment.mirror_prob=0.5", "unknown config key 'augment.mirror_prob'; "
                                    "nearest valid key is 'augment.dense_dropout_prob'"),
        ("loss.sigma=1.0", "unknown config key 'loss.sigma'; nearest valid key is 'loss.alpha'"),
        ('target.source="autoencoder"', "target.source must be one of "
                                        "('vae', 'identity', 'file'), got 'autoencoder'"),
        ("encoder.allow_tap_at_final=false", "unknown config key 'encoder.allow_tap_at_final'; "
                                             "nearest valid key is 'encoder.tap_index'"),
    ], ids=["kind", "mirror_prob", "sigma", "autoencoder", "allow_tap_at_final"])
    @pytest.mark.parametrize("source", ["override", "config_file", "manifest"])
    def test_removed_input_rejected_before_any_work(self, config_path, tmp_path, capsys, source,
                                                    given, message):
        dotted, value = given.split("=")
        section, key = dotted.split(".")
        if source == "manifest":
            assert main(["show-config", "--config", config_path]) == 0
            payload = json.loads(capsys.readouterr().out)  # what a manifest records
        else:
            with open(config_path) as fh:
                payload = json.load(fh)
        config = tmp_path / f"{source}.json"
        if source != "override":
            payload.setdefault(section, {})[key] = json.loads(value)
        config.write_text(json.dumps(payload))
        out = tmp_path / "run"
        assert main(["pretrain", "--config", str(config), "--out", str(out),
                     *(["--set", given] if source == "override" else [])]) == 2
        assert json.loads(capsys.readouterr().err) == {"error": "config", "message": message}
        assert not out.exists()

    @pytest.mark.parametrize("values", ["abc", "[]", "{\"a\": 1}"])
    def test_sweep_values_rejected_before_any_work(self, config_path, tmp_path, capsys, values):
        out = tmp_path / "run"
        assert main(["sweep", "--config", config_path, "--out", str(out),
                     "--axis", "lambda", "--values", values]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config" and "--values" in err["message"]
        assert not out.exists()

    def test_optimizer_error_is_a_config_error(self, config_path, tmp_path, capsys,
                                               monkeypatch):
        def refuse(*args, **kwargs):
            raise OptimizerError("learning rate must be positive, got 0.0")

        monkeypatch.setattr(cli, "pretrain", refuse)
        assert main(["pretrain", "--config", config_path, "--out", str(tmp_path / "run"),
                     "--set", "target.source=identity"]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "config"


class TestPipeline:
    def test_compute_target_pretrain_eval_diagnose(self, config_path, tmp_path, capsys):
        out = str(tmp_path / "run")
        assert main(["compute-target", "--config", config_path, "--out", out]) == 0
        assert os.path.exists(os.path.join(out, "target.bin"))

        assert main(["pretrain", "--config", config_path, "--out", out]) == 0
        assert os.path.exists(os.path.join(out, "checkpoint.bin"))
        assert os.path.exists(os.path.join(out, "metrics.csv"))
        assert os.path.exists(os.path.join(out, "manifest.json"))
        assert len(read_rows(os.path.join(out, "metrics.csv"))) == 2

        assert main(["eval", "--config", config_path, "--out", out]) == 0
        assert os.path.exists(os.path.join(out, "eval.csv"))

        assert main(["diagnose", "--config", config_path, "--out", out, "--svg"]) == 0
        assert os.path.exists(os.path.join(out, "diagnostics.csv"))
        assert os.path.exists(os.path.join(out, "diagnostics.svg"))
        output = capsys.readouterr().out
        assert "accuracy=" in output

    def test_diagnose_charts_the_spectrum_where_no_metrics_are(self, config_path, tmp_path):
        run, out = tmp_path / "run", tmp_path / "diagnosed"
        assert main(["pretrain", "--config", config_path, "--out", str(run),
                     "--set", "target.source=identity"]) == 0
        assert main(["diagnose", "--config", config_path, "--out", str(out),
                     "--checkpoint", str(run / "checkpoint.bin"), "--svg"]) == 0
        assert not (out / "metrics.csv").exists()
        assert ">covariance spectrum</text>" in (out / "diagnostics.svg").read_text()

    def test_diagnose_takes_any_master_seed(self, config_path, tmp_path):
        # diagnose draws its batch from a sub-seed, as every other stage does
        args = ["--config", config_path, "--out", str(tmp_path / "run"),
                "--set", "target.source=identity"]
        assert main(["pretrain", *args]) == 0
        assert main(["diagnose", *args, "--set", "seed=-1"]) == 0

    def test_every_csv_reads_back_in_one_dialect(self, config_path, tmp_path):
        run, sweep = tmp_path / "run", tmp_path / "sweep"
        for args in (["pretrain", "--out", str(run)], ["eval", "--out", str(run)],
                     ["diagnose", "--out", str(run)],
                     ["sweep", "--out", str(sweep), "--axis", "loss.lambda", "--values", "[0]"]):
            assert main([*args, "--config", config_path, "--set", "target.source=identity"]) == 0
        headers = {run / "metrics.csv": METRICS_COLUMNS, run / "diagnostics.csv": METRICS_COLUMNS,
                   run / "eval.csv": tuple(f.name for f in dataclasses.fields(EvalResult)),
                   sweep / "sweep.csv": ("axis", "value", "seed", "accuracy", "status", "error")}
        for path, header in headers.items():
            rows = read_rows(path, header)
            assert tuple(rows[0]) == header
            raw = path.read_bytes()  # the csv module's default dialect ends lines with CRLF
            assert raw.count(b"\n") == raw.count(b"\r\n") == len(rows) + 1

    def test_one_config_digest_per_run(self, config_path, tmp_path):
        out = tmp_path / "run"
        for command in ("compute-target", "pretrain", "eval"):
            assert main([command, "--config", config_path, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        _, meta = load_arrays(out / "checkpoint.bin", keep=lambda name: False)
        evaluated = (out / "eval.csv").read_text().splitlines()[1].split(",")[2]
        assert manifest["config_digest"] == meta["config_digest"] == evaluated
        assert manifest["config"]["target"]["path"] is None

    def test_eval_names_the_checkpoints_run(self, config_path, tmp_path):
        # an edit that keeps every model record probes the same encoder,
        # so its row carries the digest the run trained with
        out = tmp_path / "run"
        for command in ("compute-target", "pretrain"):
            assert main([command, "--config", config_path, "--out", str(out)]) == 0
        assert main(["eval", "--config", config_path, "--out", str(out),
                     "--set", "loss.lambda=1"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        edited, _ = parse_config(config_path, ["loss.lambda=1"])
        assert edited.digest() != manifest["config_digest"]
        assert read_rows(out / "eval.csv")[0]["config_digest"] == manifest["config_digest"]

    def test_library_pretrain_reads_the_cli_target(self, config_path, tmp_path):
        out = str(tmp_path / "run")
        assert main(["compute-target", "--config", config_path, "--out", out]) == 0
        config, _ = parse_config(config_path)
        assert config.target.source == "vae" and config.target.path is None
        assert pretrain(config, run_dir=out).status == "completed"

    @pytest.mark.parametrize("command", ["compute-target", "pretrain"])
    def test_file_source_without_a_file_names_where_it_looked(self, config_path, tmp_path,
                                                              capsys, command):
        out = tmp_path / "run"
        assert main([command, "--config", config_path, "--out", str(out),
                     "--set", "target.source=file"]) == 3
        message = json.loads(capsys.readouterr().err)["message"]
        # compute-target reads the file it would write, so only target.path names it
        where = "'target.path'" if command == "compute-target" else str(out / "target.bin")
        assert where in message and "None" not in message

    def test_pretrain_without_target_is_prerequisite_error(self, config_path,
                                                           tmp_path, capsys):
        out = str(tmp_path / "fresh")
        code = main(["pretrain", "--config", config_path, "--out", out])
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "prerequisite"
        assert "compute-target" in err["message"]

    def test_eval_without_checkpoint_is_prerequisite_error(self, config_path,
                                                           tmp_path, capsys):
        out = str(tmp_path / "fresh")
        assert main(["eval", "--config", config_path, "--out", out]) == 3

    def test_identity_target_skips_compute_step(self, config_path, tmp_path):
        out = str(tmp_path / "idrun")
        assert main(["pretrain", "--config", config_path, "--out", out,
                     "--set", "target.source=identity"]) == 0

    def test_resume_flag(self, config_path, tmp_path):
        out = str(tmp_path / "run")
        assert main(["compute-target", "--config", config_path, "--out", out]) == 0
        assert main(["pretrain", "--config", config_path, "--out", out]) == 0
        out2 = str(tmp_path / "resumed")
        assert main(["pretrain", "--config", config_path, "--out", out2,
                     "--set", "epochs=4", "--set",
                     f'target.path={os.path.join(out, "target.bin")}',
                     "--resume", os.path.join(out, "checkpoint.bin")]) == 0
        rows = read_rows(os.path.join(out2, "metrics.csv"))
        assert [int(r["epoch"]) for r in rows] == [2, 3]

    def test_fresh_run_replaces_a_previous_runs_records(self, config_path, tmp_path):
        out = tmp_path / "run"
        args = ["pretrain", "--config", config_path, "--out", str(out),
                "--set", "target.source=identity"]
        assert main(args) == 0
        assert main(args + COLLAPSING) == 4
        assert [int(r["epoch"]) for r in read_rows(out / "metrics.csv")] == [0]
        assert manifest(out)["abort"]["epoch"] == 0
        assert main(args) == 0
        assert [int(r["epoch"]) for r in read_rows(out / "metrics.csv")] == [0, 1]
        assert manifest(out)["abort"] is None
        # a resumed run appends to its own records
        assert main(args + ["--set", "epochs=4", "--resume", str(out / "checkpoint.bin")]) == 0
        assert [int(r["epoch"]) for r in read_rows(out / "metrics.csv")] == [0, 1, 2, 3]

    def test_empty_resume_path_is_a_missing_checkpoint(self, config_path, tmp_path, capsys):
        # an unset shell variable must not start a fresh run over the old one
        out = tmp_path / "run"
        args = ["pretrain", "--config", config_path, "--out", str(out),
                "--set", "target.source=identity"]
        assert main(args) == 0
        before = files(out)
        assert {"metrics.csv", "checkpoint.bin"} <= set(before)
        capsys.readouterr()
        assert main(args + ["--set", "epochs=4", "--resume", ""]) == 3
        assert json.loads(capsys.readouterr().err)["error"] == "prerequisite"
        assert files(out) == before

    def test_collapse_exit_code(self, config_path, tmp_path, capsys):
        out = tmp_path / "collapse_run"
        code = main(["pretrain", "--config", config_path, "--out", str(out),
                     "--set", "target.source=identity", *COLLAPSING])
        assert code == 4
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "numerical"
        # the manifest says where and why the run stopped
        recorded = manifest(out)
        assert recorded["status"] == "collapsed"
        abort = recorded["abort"]
        assert abort["epoch"] == 0 and abort["columns"]
        assert err["message"] == f"collapse at epoch 0, batch {abort['batch']}: {abort['cause']}"
        assert sorted(files(out)) == ["manifest.json", "metrics.csv"]

    def test_overflow_reports_one_json_line(self, tmp_path, capsys, monkeypatch):
        # the first non-finite node is the report: numpy warns of nothing,
        # neither on this thread nor in the worker's gradient jobs (queued
        # on the large config)
        monkeypatch.setattr(autograd, "_spare_core", lambda: True)
        large = tmp_path / "large.json"
        large.write_text(json.dumps(LARGE_CONFIG))
        for i, config in enumerate((SHIPPED, large)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = main(["pretrain", "--config", str(config), "--out", str(tmp_path / str(i)),
                             "--set", "target.source=identity", "--set", "optimizer.lr=1e200"])
            assert code == 4
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and json.loads(err[0])["error"] == "numerical"

    def test_draw_overflow_reports_one_json_line(self, tmp_path, capsys):
        # the view-pair worker draws under the command's numpy error state
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["pretrain", "--config", SHIPPED, "--out", str(tmp_path),
                         "--set", "target.source=identity",
                         "--set", "augment.dense_noise_scale=1e308"])
        assert code == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and json.loads(err[0])["error"] == "numerical"

    def test_augmentation_error_in_the_draw_is_a_config_error(self, config_path, tmp_path,
                                                            capsys, monkeypatch):
        # the first view-pair draw fails on the stream's worker
        def failing(*args):
            raise DataError("view-pair draw failed")

        monkeypatch.setattr(data, "draw_views", failing)
        code = main(["pretrain", "--config", config_path, "--out", str(tmp_path / "run"),
                     "--set", "target.source=identity"])
        assert code == 2
        failure = json.loads(capsys.readouterr().err)
        assert failure == {"error": "config", "message": "view-pair draw failed"}


class TestRefusedRun:
    # a run refused for its inputs writes nothing: a finished run in its
    # directory keeps its records, manifest and checkpoint byte for byte
    SHORT = ["--set", "epochs=1", "--set", "vae_train.epochs=1"]

    @pytest.fixture
    def finished(self, tmp_path):
        out = tmp_path / "run"
        for command in ("compute-target", "pretrain"):
            assert main([command, "--config", SHIPPED, "--out", str(out), *self.SHORT]) == 0
        assert {"target.bin", "manifest.json", "metrics.csv", "checkpoint.bin"} <= set(files(out))
        return out

    @pytest.mark.parametrize("override, message", [
        ("loss.variant=auto", "loss.variant 'auto' needs a target of kind 'auto', "
                              "got kind 'target'"),
        ("batch_size=1024", "dataset of 512 samples smaller than batch size 1024"),
        ("coloring_head.widths=[32,32,8]", "target dimension 16 != coloring head output 8"),
    ], ids=["kind", "batch", "width"])
    def test_refused_pretrain_writes_nothing(self, finished, capsys, override, message):
        before = files(finished)
        capsys.readouterr()
        assert main(["pretrain", "--config", SHIPPED, "--out", str(finished), *self.SHORT,
                     "--set", override]) == 2
        assert json.loads(capsys.readouterr().err) == {"error": "config", "message": message}
        assert files(finished) == before

    def test_refused_library_run_writes_nothing(self, finished):
        config, _ = parse_config(SHIPPED, self.SHORT[1::2])
        before = files(finished)
        with pytest.raises(TrainingError, match="needs a target of kind 'target'"):
            pretrain(config, target=identity_target(16, "auto"), run_dir=str(finished))
        assert files(finished) == before


class TestOutsideInputRefusals:
    # each refused input exits 2, and stderr names the key or file at fault
    # (the config values refused at parse time are TestEarlyValueChecks')
    @pytest.mark.parametrize("case", [
        "resume_other_variant", "checkpoint_version", "checkpoint_is_a_target",
        "target_metadata_corrupt", "target_is_a_checkpoint", "target_of_the_other_kind",
        "target_of_a_removed_source", "config_root_a_list"])
    def test_refused_with_exit_2(self, config_path, tmp_path, capsys, case):
        run, bad = tmp_path / "run", tmp_path / "bad.bin"
        checkpoint = run / "checkpoint.bin"
        identity = ["--set", "target.source=identity"]
        if case in ("resume_other_variant", "target_is_a_checkpoint"):
            assert main(["pretrain", "--config", config_path, "--out", str(run), *identity]) == 0
        if case == "checkpoint_version":
            save_arrays(bad, {}, {"version": 99})
        if case in ("checkpoint_is_a_target", "target_metadata_corrupt"):
            save_target(identity_target(8), bad)
        if case == "target_metadata_corrupt":
            blob = bytearray(bad.read_bytes())
            blob[16:17] = b"["  # the metadata JSON's opening brace
            bad.write_bytes(bytes(blob))
        if case == "target_of_the_other_kind":
            save_target(identity_target(8, "auto"), bad)
        if case == "target_of_a_removed_source":  # written before beta_kl=0 replaced it
            save_arrays(bad, {"values": np.eye(8)}, {
                "kind": "target", "source": "autoencoder",
                "provenance": {"vae_spec_digest": "0", "dataset_digest": "0", "epochs": 1,
                               "seed": 0}})
        if case == "config_root_a_list":
            (tmp_path / "list.json").write_text("[]")
        from_file = ["--set", "target.source=file", "--set", f"target.path={bad}"]
        args, named = {
            "resume_other_variant": (["pretrain", *identity, "--set", "loss.variant=auto",
                                      "--set", "epochs=4", "--resume", str(checkpoint)],
                                     "checkpoint variant 'cross' != config variant 'auto'"),
            "checkpoint_version": (["eval", "--checkpoint", str(bad)],
                                   f"{bad}: unsupported checkpoint version 99"),
            "checkpoint_is_a_target": (["pretrain", *identity, "--resume", str(bad)],
                                       f"{bad}: unsupported checkpoint version None"),
            "target_metadata_corrupt": (["pretrain", *from_file],
                                        f"{bad}: corrupt metadata at byte offset 16"),
            "target_is_a_checkpoint": (["pretrain", "--set", "target.source=file",
                                        "--set", f"target.path={checkpoint}"],
                                       f"{checkpoint} holds no target matrix"),
            "target_of_the_other_kind": (["compute-target", *from_file], "loss.variant 'cross'"),
            "target_of_a_removed_source": (["pretrain", *from_file],
                                           "unknown target source 'autoencoder'"),
            "config_root_a_list": (["pretrain", "--config", str(tmp_path / "list.json")],
                                   "config root must be a JSON object"),
        }[case]
        capsys.readouterr()
        # a case's own --config comes last, so it wins
        assert main([args[0], "--config", config_path, "--out", str(run), *args[1:]]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        failure = json.loads(err[0])
        assert failure["error"] == "config" and named in failure["message"]


class TestCheckpointFit:
    # a checkpoint fits a config when its model records are exactly the
    # config's model's, each with the same shape: eval, diagnose and a
    # resumed pretrain refuse any other with exit 2, naming the file and
    # the first record that differs, and write nothing
    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("fit")
        config = root / "config.json"
        config.write_text(json.dumps(SMALL_CONFIG))
        for shared in ("true", "false"):
            assert main(["pretrain", "--config", str(config), "--out", str(root / shared),
                         "--set", "target.source=identity", "--set", f"share_heads={shared}"]) == 0
        return config, root

    @pytest.mark.parametrize("command", ["eval", "diagnose", "resume"])
    @pytest.mark.parametrize("shared, override, record", [
        ("true", "encoder.batch_norm=false",
         "record 'backbone.bn1.gamma': (24,) in the checkpoint, absent in the model"),
        ("true", "coloring_head.batch_norm=false",
         "record 'coloring.bn1.gamma': (16,) in the checkpoint, absent in the model"),
        ("true", "share_heads=false",
         "record 'coloring_b.l1.weight': absent in the checkpoint, (16, 16) in the model"),
        ("false", "share_heads=true",
         "record 'coloring_b.l1.weight': (16, 16) in the checkpoint, absent in the model"),
        ("true", "coloring_head.widths=[16,16,4]",
         "record 'coloring.l3.weight': (16, 8) in the checkpoint, (16, 4) in the model"),
    ], ids=["encoder_batch_norm", "head_batch_norm", "unshare", "share", "narrower"])
    def test_refused_with_exit_2(self, runs, capsys, command, shared, override, record):
        config, root = runs
        run = root / shared
        checkpoint = run / "checkpoint.bin"
        args = ["--config", str(config), "--out", str(run), "--set", "target.source=identity",
                "--set", f"share_heads={shared}", "--set", override]
        args = {"eval": ["eval", *args], "diagnose": ["diagnose", *args],
                "resume": ["pretrain", *args, "--set", "epochs=4",
                           "--resume", str(checkpoint)]}[command]
        before = files(run)
        capsys.readouterr()
        assert main(args) == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "config", "message": f"{checkpoint} does not fit the config: {record}"}
        assert files(run) == before

    def test_edits_that_keep_every_record_fit(self, config_path, tmp_path):
        run = tmp_path / "run"
        identity = ["--config", config_path, "--out", str(run), "--set", "target.source=identity"]
        assert main(["pretrain", *identity]) == 0
        assert main(["eval", *identity, "--set", "loss.variant=auto"]) == 0
        assert main(["pretrain", *identity, "--set", "loss.lambda=0", "--set", "epochs=3",
                     "--resume", str(run / "checkpoint.bin")]) == 0


class TestUnreadableInputs:
    # a path that exists but cannot be read as what it should be, an
    # output path that is a file, or a metrics file cut short: exit 2, one
    # JSON line naming the path
    @pytest.mark.parametrize("case", ["config_dir", "checkpoint_dir", "checkpoint_truncated",
                                      "target_dir", "out_is_a_file", "metrics_empty",
                                      "metrics_cut_short"])
    def test_config_error_names_the_path(self, config_path, tmp_path, capsys, case):
        folder = tmp_path / "folder"
        folder.mkdir()
        truncated = tmp_path / "truncated.bin"
        save_arrays(truncated, {"w": np.ones(16)}, {"version": 1})
        truncated.write_bytes(truncated.read_bytes()[:-100])
        run = tmp_path / "run"
        metrics = run / "metrics.csv"
        if case.startswith("metrics"):
            assert main(["pretrain", "--config", config_path, "--set", "target.source=identity",
                         "--out", str(run)]) == 0
            # empty, or its header cut off by a killed run
            metrics.write_text("" if case == "metrics_empty" else "epoch,lambda,loss_total,vari")
        args, path = {
            "config_dir": (["pretrain", "--config", str(folder)], folder),
            "checkpoint_dir": (["eval", "--config", config_path, "--checkpoint", str(folder)],
                               folder),
            "checkpoint_truncated": (["eval", "--config", config_path,
                                      "--checkpoint", str(truncated)], truncated),
            "target_dir": (["pretrain", "--config", config_path, "--set", "target.source=file",
                            "--set", f"target.path={folder}"], folder),
            "out_is_a_file": (["compute-target", "--config", config_path,
                               "--out", str(truncated)], truncated),
            "metrics_empty": (["diagnose", "--config", config_path, "--svg"], metrics),
            "metrics_cut_short": (["diagnose", "--config", config_path, "--svg"], metrics),
        }[case]
        capsys.readouterr()
        # a case's own --out comes last, so it wins
        assert main([args[0], "--out", str(run), *args[1:]]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        failure = json.loads(err[0])
        assert failure["error"] == "config" and str(path) in failure["message"]


class TestSweep:
    def test_lambda_sweep_writes_csv(self, config_path, tmp_path, capsys):
        out = str(tmp_path / "sweep")
        assert main(["sweep", "--config", config_path, "--out", out,
                     "--set", "target.source=identity",
                     "--axis", "loss.lambda", "--values", "[0, 0.05]"]) == 0
        assert os.path.exists(os.path.join(out, "sweep.csv"))
        lines = open(os.path.join(out, "sweep.csv")).read().strip().split("\n")
        assert len(lines) == 3  # header + 2 rows
        for i in range(2):
            assert os.path.exists(os.path.join(out, f"v{i}", "checkpoint.bin"))

    def test_rerun_removes_the_earlier_sweeps_runs(self, config_path, tmp_path):
        out = tmp_path / "sweep"
        args = ["sweep", "--config", config_path, "--out", str(out),
                "--set", "target.source=identity", "--set", "epochs=1", "--axis", "loss.lambda"]
        assert main(args + ["--values", "[0, 0.05, 0.1]"]) == 0
        for name in ("v", "v1x"):
            (out / name).mkdir()
        (out / "notes.txt").write_text("kept")
        assert main(args + ["--values", "[0.2]"]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["notes.txt", "sweep.csv", "v", "v0",
                                                         "v1x"]
        assert len((out / "sweep.csv").read_text().splitlines()) == 2

    def test_unknown_axis_key_rejected_before_any_work(self, config_path, tmp_path, capsys):
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", config_path, "--out", str(out),
                     "--axis", "loss.lambd", "--values", "[0]"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"
        assert "nearest valid key is 'loss.lambda'" in err["message"]
        assert not out.exists()

    def test_bad_values_config_error(self, config_path, capsys):
        assert main(["sweep", "--config", config_path, "--axis", "lambda",
                     "--values", "[]"]) == 2
