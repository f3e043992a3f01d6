"""Artifact identity between two checkouts of corrcolor.

    python3 tools/same_artifacts.py PARENT CHANGE --config CONFIG [--set KEY=VALUE ...]

Runs the same command sequence of ``corrcolor.cli`` with each checkout's
``src``, on CONFIG and every ``--set`` given, each side in its own
temporary work directory:

    show-config
    compute-target, pretrain, eval, diagnose --svg      into run/
    pretrain with epochs=E//2, pretrain --resume        into split/
    pretrain with target.source=identity and
        optimizer.lr=1e200 (a run that diverges)        into diverged/
    sweep --axis seed --values '[S, S+1]'               into sweep/

where E and S are the config's ``epochs`` and ``seed`` (split/ starts
from a copy of run/target.bin, and is skipped when E is 1; diverged/
holds the manifest of a run that exits 4, with its ``abort`` record;
sweep/ holds ``sweep.csv`` and a run directory ``v<i>/`` per value).  Then it
compares the two sides: every command's exit code and output (each side's work directory
read as ``<out>``), ``show-config``'s JSON key by key, every checkpoint
container (``*.bin``: ``target.bin``, ``checkpoint.bin``) record by
record and its metadata key by key, ``manifest.json`` key by key,
``metrics.csv`` row by row without ``wall_ms``, and every other file
byte for byte (a CSV that differs is reported cell by cell).  Nested
keys print dotted.  It prints each difference by file and key and exits
1 on any difference, else 0.  The containers are read with the CHANGE
checkout's ``corrcolor.checkpoint``, imported only after both sides ran:
the package pins BLAS to one thread in ``os.environ`` as it is imported,
and each side runs in the environment the tool was given.  Set
``OPENBLAS_NUM_THREADS=1`` only when one side is a checkout older than
that pin, whose bits depend on the host's BLAS threads.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile

# metrics.csv's wall-clock column, the one value a rerun may change
WALL_CLOCK = "wall_ms"


def run_cli(tree: str, out: str, args: list[str]) -> tuple[int, str]:
    """``corrcolor.cli`` of ``tree`` on ``args``: its exit code and its
    stdout and stderr, with ``out`` read as ``<out>``."""
    env = {**os.environ, "PYTHONPATH": os.path.join(os.path.abspath(tree), "src")}
    proc = subprocess.run([sys.executable, "-m", "corrcolor.cli", *args], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    return proc.returncode, proc.stdout.replace(out, "<out>")


def run_side(tree: str, out: str, config: str, sets: list[str]) -> dict:
    """The command sequence in ``tree``, writing under ``out``: each
    command's exit code and output, by command."""
    common = ["--config", config, *(arg for s in sets for arg in ("--set", s))]
    run, split = os.path.join(out, "run"), os.path.join(out, "split")
    logs = {"show-config": run_cli(tree, out, ["show-config", *common])}
    shown = (json.loads(logs["show-config"][1]) if logs["show-config"][0] == 0
             else {"epochs": 1, "seed": 0})
    epochs, seed = shown["epochs"], shown["seed"]
    for command in ("compute-target", "pretrain", "eval"):
        logs[command] = run_cli(tree, out, [command, *common, "--out", run])
    logs["diagnose"] = run_cli(tree, out, ["diagnose", *common, "--out", run, "--svg"])
    if epochs > 1:
        os.makedirs(split)
        if os.path.exists(os.path.join(run, "target.bin")):
            shutil.copy(os.path.join(run, "target.bin"), split)
        logs["pretrain split"] = run_cli(
            tree, out, ["pretrain", *common, "--out", split, "--set", f"epochs={epochs // 2}"])
        logs["pretrain --resume"] = run_cli(
            tree, out, ["pretrain", *common, "--out", split,
                        "--resume", os.path.join(split, "checkpoint.bin")])
    logs["pretrain diverged"] = run_cli(
        tree, out, ["pretrain", *common, "--out", os.path.join(out, "diverged"),
                    "--set", "target.source=identity", "--set", "optimizer.lr=1e200"])
    logs["sweep"] = run_cli(tree, out, ["sweep", *common, "--out", os.path.join(out, "sweep"),
                                        "--axis", "seed", "--values", json.dumps([seed, seed + 1])])
    return logs


def flat_keys(value, prefix: str = "") -> dict:
    """``value`` with nested dicts spelled out as dotted keys."""
    if not isinstance(value, dict):
        return {prefix: value}
    out = {}
    for key, item in value.items():
        out.update(flat_keys(item, f"{prefix}.{key}" if prefix else str(key)))
    return out


def keyed_differences(where: str, a: dict, b: dict) -> list[str]:
    """The keys of ``a`` and ``b`` whose values differ (by ``repr``, so NaN
    equals NaN), dotted, with both values."""
    fa, fb = flat_keys(a), flat_keys(b)
    diffs = []
    for key in sorted(fa.keys() | fb.keys()):
        va, vb = (repr(f[key]) if key in f else "(absent)" for f in (fa, fb))
        if va != vb:
            diffs.append(f"{where} {key}: {va} != {vb}")
    return diffs


def container_differences(where: str, a: str, b: str, load_arrays) -> list[str]:
    (ra, ma), (rb, mb) = load_arrays(a), load_arrays(b)
    diffs = keyed_differences(f"{where} meta", ma, mb)
    if list(ra) != list(rb):
        diffs.append(f"{where} record names: {list(ra)} != {list(rb)}")
    for name in ra.keys() & rb.keys():
        x, y = ra[name], rb[name]
        if (x.dtype, x.shape) != (y.dtype, y.shape) or x.tobytes() != y.tobytes():
            diffs.append(f"{where} record {name}: not bit-identical")
    return diffs


def csv_differences(where: str, a: bytes, b: bytes, skip: tuple = ()) -> list[str]:
    """Cell-by-cell differences of two CSV files, the ``skip`` columns left
    out; a difference in their bytes alone is one difference."""
    ta, tb = (list(csv.reader(io.StringIO(raw.decode()))) for raw in (a, b))
    if not ta or not tb:
        return [] if a == b else [f"{where}: bytes differ"]
    keep = [c for c in ta[0] if c not in skip]
    if keep != [c for c in tb[0] if c not in skip]:
        return [f"{where} header: {ta[0]} != {tb[0]}"]
    diffs = [f"{where}: {len(ta) - 1} rows != {len(tb) - 1} rows"] if len(ta) != len(tb) else []
    for i, (row_a, row_b) in enumerate(zip(ta[1:], tb[1:]), 1):
        da, db = dict(zip(ta[0], row_a)), dict(zip(tb[0], row_b))
        diffs += [f"{where} row {i} {c}: {da.get(c)!r} != {db.get(c)!r}"
                  for c in keep if da.get(c) != db.get(c)]
    if not diffs and not skip and a != b:
        diffs.append(f"{where}: bytes differ")
    return diffs


def file_differences(rel: str, parent: str, change: str, load_arrays) -> list[str]:
    """The differences of file ``rel`` between the work directories."""
    name = os.path.basename(rel)
    a, b = os.path.join(parent, rel), os.path.join(change, rel)
    if name.endswith(".bin"):
        return container_differences(rel, a, b, load_arrays)
    with open(a, "rb") as fa, open(b, "rb") as fb:
        raw_a, raw_b = fa.read(), fb.read()
    if name == "manifest.json":  # it records the resumed checkpoint's path
        return keyed_differences(rel, *(json.loads(raw.decode().replace(root, "<out>"))
                                        for raw, root in ((raw_a, parent), (raw_b, change))))
    if name == "metrics.csv":
        return csv_differences(rel, raw_a, raw_b, skip=(WALL_CLOCK,))
    if raw_a == raw_b:
        return []
    return csv_differences(rel, raw_a, raw_b) if name.endswith(".csv") else [f"{rel}: bytes differ"]


def side_files(root: str) -> set[str]:
    return {os.path.relpath(os.path.join(d, f), root)
            for d, _, files in os.walk(root) for f in files}


def compare(parent: str, change: str, logs: dict, load_arrays) -> list[str]:
    """Every difference between the work directories ``parent`` and
    ``change`` and their command logs, as lines."""
    diffs = []
    for command in dict.fromkeys([*logs["parent"], *logs["change"]]):
        (code_a, out_a), (code_b, out_b) = (logs[s].get(command, (None, "")) for s in logs)
        if code_a != code_b:
            diffs.append(f"{command}: exit {code_a} != {code_b}")
        elif command == "show-config" and code_a == 0:
            diffs += keyed_differences(command, json.loads(out_a), json.loads(out_b))
        elif out_a != out_b:
            diffs.append(f"{command} output: {out_a!r} != {out_b!r}")
    files_a, files_b = side_files(parent), side_files(change)
    diffs += [f"{rel}: only in {side}" for side, only in (("parent", files_a - files_b),
                                                        ("change", files_b - files_a))
              for rel in sorted(only)]
    for rel in sorted(files_a & files_b):
        diffs += file_differences(rel, parent, change, load_arrays)
    return diffs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--config", required=True)
    parser.add_argument("--set", dest="sets", action="append", default=[], metavar="KEY=VALUE",
                        help="config override passed to every command")
    args = parser.parse_args(argv)
    config = os.path.abspath(args.config)
    with tempfile.TemporaryDirectory(prefix="same_artifacts-") as work:
        roots = {side: os.path.join(work, side) for side in ("parent", "change")}
        logs = {}
        for side, root in roots.items():
            os.makedirs(root)
            logs[side] = run_side(getattr(args, side), root, config, args.sets)
        sys.path.insert(0, os.path.join(os.path.abspath(args.change), "src"))
        from corrcolor.checkpoint import load_arrays
        diffs = compare(roots["parent"], roots["change"], logs, load_arrays)
    for line in diffs:
        print(line)
    print(f"{len(diffs)} difference(s)" if diffs else "identical")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
