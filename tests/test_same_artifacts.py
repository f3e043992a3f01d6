"""The comparison of tools/same_artifacts.py on hand-made work directories."""

import importlib.util
import json
import os
import sys

import numpy as np

from corrcolor.checkpoint import load_arrays, save_arrays
from corrcolor.diagnostics import append_row

_SPEC = importlib.util.spec_from_file_location(
    "same_artifacts", os.path.join(os.path.dirname(__file__), os.pardir, "tools",
                                   "same_artifacts.py"))
same_artifacts = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(same_artifacts)


def write_side(root, weight: float, digest: str, wall_ms: float, extra: bool = False):
    run = root / "run"
    run.mkdir(parents=True)
    meta = {"config_digest": digest, "provenance": {"seed": 1, "draws": 1}}
    save_arrays(run / "checkpoint.bin", {"w": np.array([1.0, weight]), "b": np.zeros(2)}, meta)
    append_row(run / "metrics.csv", {"epoch": 0, "loss_total": 0.5, "wall_ms": wall_ms})
    append_row(run / "eval.csv", {"accuracy": 0.75, "config_digest": digest})
    (run / "manifest.json").write_text(json.dumps(
        {"config_digest": digest, "resumed_from": str(run / "checkpoint.bin")}))
    if extra:
        (run / "notes.txt").write_text("x")


def test_only_the_differences_are_reported_by_file_and_key(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    write_side(parent, 2.0, "aaaa", wall_ms=10.0)
    write_side(change, 2.0 + 1e-15, "bbbb", wall_ms=11.0, extra=True)
    logs = {"parent": {"pretrain": (0, "done <out>")}, "change": {"pretrain": (0, "done <out>")}}
    diffs = same_artifacts.compare(str(parent), str(change), logs, load_arrays)
    # wall_ms and the manifest's own paths are no difference
    assert diffs == [
        "run/notes.txt: only in change",
        "run/checkpoint.bin meta config_digest: 'aaaa' != 'bbbb'",
        "run/checkpoint.bin record w: not bit-identical",
        "run/eval.csv row 1 config_digest: 'aaaa' != 'bbbb'",
        "run/manifest.json config_digest: 'aaaa' != 'bbbb'",
    ]


def test_identical_sides_and_differing_exit_codes(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    write_side(parent, 2.0, "aaaa", wall_ms=10.0)
    write_side(change, 2.0, "aaaa", wall_ms=12.0)
    same = {"eval": (0, "accuracy=0.75")}
    assert same_artifacts.compare(str(parent), str(change), {"parent": same, "change": same},
                                  load_arrays) == []
    logs = {"parent": same, "change": {"eval": (2, "error")}}
    assert same_artifacts.compare(str(parent), str(change), logs,
                                  load_arrays) == ["eval: exit 0 != 2"]


def test_csv_header_and_row_differences():
    csv = same_artifacts.csv_differences
    assert csv("e.csv", b"a,b\n1,2\n", b"a,c\n1,2\n") == ["e.csv header: ['a', 'b'] != ['a', 'c']"]
    assert csv("e.csv", b"a,b\n1,2\n3,4\n", b"a,b\n1,5\n") == [
        "e.csv: 2 rows != 1 rows", "e.csv row 1 b: '2' != '5'"]
    # the skipped column may differ, and may even be missing on one side
    assert csv("m.csv", b"a,wall_ms\n1,9\n", b"a\n1\n", skip=("wall_ms",)) == []


def test_csv_that_differs_in_its_bytes_alone():
    csv = same_artifacts.csv_differences
    assert csv("e.csv", b"a,b\r\n1,2\r\n", b"a,b\n1,2\n") == ["e.csv: bytes differ"]
    assert csv("e.csv", b"", b"") == []
    assert csv("e.csv", b"", b"a\n") == ["e.csv: bytes differ"]


def test_container_records_compared_by_name_and_shape(tmp_path):
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    save_arrays(a, {"w": np.zeros(2), "v": np.zeros(3)}, {"seed": 1})
    save_arrays(b, {"w": np.zeros((1, 2)), "u": np.zeros(3)}, {"seed": 1, "n": 2})
    assert same_artifacts.container_differences("x.bin", str(a), str(b), load_arrays) == [
        "x.bin meta n: (absent) != 2",
        "x.bin record names: ['w', 'v'] != ['w', 'u']",
        "x.bin record w: not bit-identical",
    ]


def test_show_config_compared_key_by_key(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    # a key the change drops from the schema is reported as absent there
    shown_a = {"epochs": 2, "loss": {"lambda": 0.05, "sigma": 1.0}}
    shown_b = {"epochs": 2, "loss": {"lambda": 0.05}}
    logs = {"parent": {"show-config": (0, json.dumps(shown_a))},
            "change": {"show-config": (0, json.dumps(shown_b))}}
    assert same_artifacts.compare(str(parent), str(change), logs, load_arrays) == [
        "show-config loss.sigma: 1.0 != (absent)"]


def test_flat_keys_spell_nested_keys_dotted():
    assert same_artifacts.flat_keys({"a": {"b": {"c": 1}, "d": [2]}, "e": None}) == {
        "a.b.c": 1, "a.d": [2], "e": None}
    assert same_artifacts.flat_keys(3) == {"": 3}


def test_each_side_sweeps_the_seed_and_its_successor(tmp_path, monkeypatch):
    calls = []

    def run_cli(tree, out, args):
        calls.append(args)
        return 0, json.dumps({"epochs": 1, "seed": 7}) if args[0] == "show-config" else ""

    monkeypatch.setattr(same_artifacts, "run_cli", run_cli)
    logs = same_artifacts.run_side("tree", str(tmp_path), "c.json", ["epochs=1"])
    assert list(logs) == ["show-config", "compute-target", "pretrain", "eval", "diagnose",
                          "pretrain diverged", "sweep"]
    assert calls[-1] == ["sweep", "--config", "c.json", "--set", "epochs=1",
                         "--out", str(tmp_path / "sweep"), "--axis", "seed", "--values", "[7, 8]"]
    # the sweep's table and run directories are compared as every other file
    parent, change = tmp_path / "parent", tmp_path / "change"
    for side, accuracy in ((parent, 0.5), (change, 0.25)):
        (side / "sweep" / "v0").mkdir(parents=True)
        append_row(side / "sweep" / "sweep.csv", {"value": 7, "accuracy": accuracy})
        append_row(side / "sweep" / "v0" / "metrics.csv", {"epoch": 0, "wall_ms": accuracy})
    diffs = same_artifacts.compare(str(parent), str(change), {"parent": {}, "change": {}},
                                   load_arrays)
    assert diffs == ["sweep/sweep.csv row 1 accuracy: '0.5' != '0.25'"]


def test_each_side_runs_a_diverging_pretrain(tmp_path, monkeypatch):
    calls = []

    def run_cli(tree, out, args):
        calls.append(args)
        return 0, json.dumps({"epochs": 2, "seed": 0}) if args[0] == "show-config" else ""

    monkeypatch.setattr(same_artifacts, "run_cli", run_cli)
    logs = same_artifacts.run_side("tree", str(tmp_path), "c.json", [])
    assert list(logs) == ["show-config", "compute-target", "pretrain", "eval", "diagnose",
                          "pretrain split", "pretrain --resume", "pretrain diverged", "sweep"]
    assert calls[-2] == ["pretrain", "--config", "c.json", "--out", str(tmp_path / "diverged"),
                         "--set", "target.source=identity", "--set", "optimizer.lr=1e200"]
    # its exit code and its manifest's abort record are compared key by key
    parent, change = tmp_path / "parent", tmp_path / "change"
    for side, batch in ((parent, 0), (change, 1)):
        (side / "diverged").mkdir(parents=True)
        (side / "diverged" / "manifest.json").write_text(json.dumps(
            {"status": "diverged", "abort": {"epoch": 0, "batch": batch, "cause": "inf"}}))
    logs = {"parent": {"pretrain diverged": (4, "numerical")},
            "change": {"pretrain diverged": (0, "")}}
    assert same_artifacts.compare(str(parent), str(change), logs, load_arrays) == [
        "pretrain diverged: exit 4 != 0", "diverged/manifest.json abort.batch: 0 != 1"]


def test_both_sides_run_in_the_callers_environment(tmp_path, monkeypatch):
    # a CHANGE checkout whose package, like corrcolor, pins BLAS in
    # os.environ as it is imported
    package = tmp_path / "change" / "src" / "corrcolor"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(
        "import os\nos.environ.update(dict.fromkeys(('OPENBLAS_NUM_THREADS', 'GOTO_NUM_THREADS',"
        " 'OMP_NUM_THREADS', 'MKL_NUM_THREADS'), '1'))\n")
    (package / "checkpoint.py").write_text("def load_arrays(path):\n    raise AssertionError\n")
    for name in [m for m in sys.modules if m == "corrcolor" or m.startswith("corrcolor.")]:
        monkeypatch.delitem(sys.modules, name)
    monkeypatch.setattr(sys, "path", list(sys.path))
    caller = {key: value for key, value in os.environ.items() if not key.endswith("_NUM_THREADS")}
    monkeypatch.setattr(os, "environ", dict(caller))
    seen = []

    def run_cli(tree, out, args):
        seen.append((tree, dict(os.environ)))
        return 0, json.dumps({"epochs": 1, "seed": 0}) if args[0] == "show-config" else ""

    monkeypatch.setattr(same_artifacts, "run_cli", run_cli)
    change = str(tmp_path / "change")
    assert same_artifacts.main(["parent", change, "--config", "c.json"]) == 0
    assert [tree for tree, _ in seen] == ["parent"] * 7 + [change] * 7
    assert all(env == caller for _, env in seen)
    assert os.environ["OPENBLAS_NUM_THREADS"] == "1"  # the reader was imported after
