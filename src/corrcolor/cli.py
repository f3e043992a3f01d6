"""Command-line surface tying the pipeline stages together.

Subcommands: compute-target, pretrain, eval, diagnose, sweep,
show-config.  Every command takes a JSON config (--config) plus
optional dotted-key overrides (--set a.b=value) and writes only under
its output directory; no command rewrites the config.  ``compute-target``
writes the target file where ``pretrain`` reads it: ``target.path``,
else ``<out>/target.bin`` (``training.target_path``).  ``sweep --axis
a.b --values '[v1, v2]'`` runs one pretrain + eval per value, merged
exactly as ``--set a.b=v1`` is (with no --axis, each value is a
whole-config fragment).  A sweep runs its values on ``min(values,
max(1, usable cores // BLAS threads))`` processes, so BLAS is never
oversubscribed: with OpenBLAS's thread settings unset (a thread per
core) it runs them one after the other in its own process, since two
unpinned processes on 2 cores ran 4-6x slower side by side than the
same two jobs one after the other; with ``OPENBLAS_NUM_THREADS=1`` on 2
cores it runs them on two spawned workers.  A run's bits depend on the
BLAS thread count, so bit-identity (resume included) holds only at one
BLAS setting; at one setting the number of processes changes no bit.

Exit codes: 0 success, 2 configuration error or unwritable output, 3
missing prerequisite artifact, 4 numerical failure (collapse or
non-finite values).  On failure a one-line JSON summary goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict

import numpy as np

from .config import ConfigError, parse_config
from .checkpoint import CheckpointError
from .data import DataError, draw_views
from .diagnostics import (DiagnosticsError, append_row, compute_report, read_rows,
                          write_line_chart_svg)
from .evaluation import EvalError, ablation_sweep, linear_eval
from .networks import NetworkError
from .optim import OptimizerError
from .seeding import derive_seed
from .training import (PrerequisiteError, RunAbort, TrainingError, build_dataset, load_model,
                       map_views, prepare_target, pretrain, target_path)
from .target import TargetError, TrainingDivergedError, save_target
from .losses import CollapseError, LossError
from .autograd import NonFiniteError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PREREQUISITE = 3
EXIT_NUMERICAL = 4


def _fail(code: int, kind: str, message: str) -> int:
    print(json.dumps({"error": kind, "message": message}), file=sys.stderr)
    return code


def _out_dir(config, args) -> str:
    out = args.out or config.output_dir
    os.makedirs(out, exist_ok=True)
    return out


def cmd_show_config(config, args) -> int:
    print(json.dumps(config.to_dict(), indent=2, sort_keys=True))
    return EXIT_OK


def cmd_compute_target(config, args) -> int:
    out = _out_dir(config, args)
    artifact = prepare_target(config)
    path = target_path(config, out)
    save_target(artifact, path)
    print(f"target written to {path} (dim={artifact.dim}, source={artifact.source}, "
          f"kind={artifact.matrix.kind})")
    return EXIT_OK


def cmd_pretrain(config, args) -> int:
    out = _out_dir(config, args)
    run = pretrain(config, run_dir=out, resume=args.resume)
    last = run.metrics[-1]
    print(f"pretrain {run.status}: {run.epochs_completed} epochs, "
          f"loss={last.loss_total:.6f}, variance={last.variance:.4f}, "
          f"effective_rank={last.effective_rank:.2f} -> {run.checkpoint_path}")
    return EXIT_OK


def cmd_eval(config, args) -> int:
    out = _out_dir(config, args)
    checkpoint = args.checkpoint or os.path.join(out, "checkpoint.bin")
    result = linear_eval(config, checkpoint)
    print(f"eval accuracy={result.accuracy:.4f} probe_epochs={result.probe_epochs} "
          f"seed={result.probe_seed}")
    append_row(os.path.join(out, "eval.csv"), asdict(result))
    return EXIT_OK


def cmd_diagnose(config, args) -> int:
    out = _out_dir(config, args)
    checkpoint = args.checkpoint or os.path.join(out, "checkpoint.bin")
    dataset = build_dataset(config)
    model, meta = load_model(config, dataset.flat_dim(), checkpoint)
    rng = np.random.default_rng(derive_seed(config.seed, "diagnose"))
    m = min(config.batch_size, len(dataset))
    idx = rng.permutation(len(dataset))[:m]
    views = draw_views(dataset, config.augment, idx[None], rng, 2)
    # inference-mode batch norm is row-wise: stacking the views changes no number
    _, fin = model.backbone.forward(views, training=False)
    z1, z2 = map_views(model.whitening, fin)
    report = compute_report(int(meta.get("epochs_completed", 0)), 0.0,
                            (float("nan"), float("nan"), float("nan")), z1, z2)
    csv_path = os.path.join(out, "diagnostics.csv")
    append_row(csv_path, report.record())
    print(f"diagnose: variance={report.variance:.4f} "
          f"effective_rank={report.effective_rank:.2f} alignment={report.alignment:.4f} "
          f"-> {csv_path}")
    if args.svg:
        metrics_csv = os.path.join(out, "metrics.csv")
        if os.path.exists(metrics_csv):
            columns = ("variance", "effective_rank", "loss_total")
            rows = read_rows(metrics_csv, columns)
            series = {key: [float(r[key]) for r in rows] for key in columns}
            title = "training diagnostics"
        else:
            series, title = {"eigenvalue": list(report.eigenvalues)}, "covariance spectrum"
        svg_path = os.path.join(out, "diagnostics.svg")
        write_line_chart_svg(svg_path, series, title=title)
        print(f"chart -> {svg_path}")
    return EXIT_OK


def cmd_sweep(config, args) -> int:
    try:
        values = json.loads(args.values)
    except json.JSONDecodeError:
        values = None
    if not isinstance(values, list) or not values:
        raise ConfigError(f"--values must be a non-empty JSON list, got {args.values!r}")
    rows = ablation_sweep(config, args.axis, values, out_dir=args.out or config.output_dir)
    key = f"{args.axis}=" if args.axis else ""
    for i, row in enumerate(rows):
        print(f"sweep v{i} {key}{row['value']} seed={row['seed']} "
              f"accuracy={row['accuracy']} status={row['status']}")
    return EXIT_OK


COMMANDS = {
    "compute-target": cmd_compute_target,
    "pretrain": cmd_pretrain,
    "eval": cmd_eval,
    "diagnose": cmd_diagnose,
    "sweep": cmd_sweep,
    "show-config": cmd_show_config,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corrcolor",
        description="correlation-coloring pretraining testbed")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to JSON config")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="dotted-key config override")
        p.add_argument("--out", default=None, help="output directory (default: config output_dir)")
        if name in ("eval", "diagnose"):
            p.add_argument("--checkpoint", default=None, help="checkpoint file")
        if name == "diagnose":
            p.add_argument("--svg", action="store_true", help="emit an SVG line chart")
        if name == "pretrain":
            p.add_argument("--resume", default=None, metavar="CHECKPOINT",
                           help="resume training from this checkpoint")
        if name == "sweep":
            p.add_argument("--axis", default=None, metavar="DOTTED.KEY",
                           help="config key each value is merged at, as by --set "
                                "(default: each value is a whole-config fragment)")
            p.add_argument("--values", required=True,
                           help="JSON list of values, e.g. '[0, 0.05, 1.0]'")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config, _ = parse_config(args.config, args.overrides)
        # every graph node checks its output and names the first non-finite
        # one, so numpy's own overflow warnings would only repeat it
        with np.errstate(all="ignore"):
            return COMMANDS[args.command](config, args)
    except PrerequisiteError as exc:
        return _fail(EXIT_PREREQUISITE, "prerequisite", str(exc))
    except (RunAbort, CollapseError, NonFiniteError, TrainingDivergedError) as exc:
        return _fail(EXIT_NUMERICAL, "numerical", str(exc))
    # every input file's read raises its module's error, so an OSError is
    # an output path's (an --out that is a file, say); its message names it
    except (ConfigError, TrainingError, EvalError, DataError, NetworkError, LossError,
            TargetError, CheckpointError, OptimizerError, DiagnosticsError, OSError) as exc:
        return _fail(EXIT_CONFIG, "config", str(exc))


if __name__ == "__main__":
    sys.exit(main())
