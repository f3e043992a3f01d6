"""Command-line surface tying the pipeline stages together.

Subcommands: compute-target, pretrain, eval, diagnose, sweep,
show-config.  Every command takes a JSON config (--config) plus
optional dotted-key overrides (--set a.b=value) and writes only under
its output directory.

Exit codes: 0 success, 2 configuration error, 3 missing prerequisite
artifact, 4 numerical failure (collapse or non-finite values).  On
failure a one-line JSON error summary goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .config import ConfigError, parse_config
from .checkpoint import CheckpointError
from .data import DataError, augment_batch_pair
from .diagnostics import (compute_report, append_metrics, read_metrics,
                          write_line_chart_svg)
from .evaluation import EvalError, ablation_sweep, linear_eval
from .networks import NetworkError
from .training import (CollapseAbort, NumericalAbort, PrerequisiteError, TrainingError,
                       build_dataset, load_model, prepare_target, pretrain, resume_from)
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


def _target_path(config, out_dir: str) -> str:
    return config.target.path or os.path.join(out_dir, "target.bin")


def cmd_show_config(config, resolved, args) -> int:
    print(json.dumps(resolved, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_compute_target(config, resolved, args) -> int:
    out = _out_dir(config, args)
    artifact = prepare_target(config)
    path = _target_path(config, out)
    save_target(artifact, path)
    print(f"target written to {path} (dim={artifact.dim}, source={artifact.source}, "
          f"kind={artifact.matrix.kind})")
    return EXIT_OK


def cmd_pretrain(config, resolved, args) -> int:
    out = _out_dir(config, args)
    if config.target.source in ("vae", "autoencoder") and config.target.path is None:
        from dataclasses import replace
        config = replace(config, target=replace(config.target,
                                                path=os.path.join(out, "target.bin")))
    if args.resume:
        run = resume_from(args.resume, config, run_dir=out)
    else:
        run = pretrain(config, run_dir=out)
    last = run.metrics[-1]
    print(f"pretrain {run.status}: {run.epochs_completed} epochs, "
          f"loss={last.loss_total:.6f}, variance={last.variance:.4f}, "
          f"effective_rank={last.effective_rank:.2f} -> {run.checkpoint_path}")
    return EXIT_OK


def cmd_eval(config, resolved, args) -> int:
    out = _out_dir(config, args)
    checkpoint = args.checkpoint or os.path.join(out, "checkpoint.bin")
    result = linear_eval(config, checkpoint)
    line = (f"eval accuracy={result.accuracy:.4f} probe_epochs={result.probe_epochs} "
            f"seed={result.probe_seed}")
    print(line)
    with open(os.path.join(out, "eval.csv"), "a") as fh:
        if fh.tell() == 0:
            fh.write("accuracy,probe_epochs,config_digest,probe_seed\n")
        fh.write(f"{result.accuracy!r},{result.probe_epochs},"
                 f"{result.config_digest},{result.probe_seed}\n")
    return EXIT_OK


def cmd_diagnose(config, resolved, args) -> int:
    out = _out_dir(config, args)
    checkpoint = args.checkpoint or os.path.join(out, "checkpoint.bin")
    dataset = build_dataset(config)
    model, _, meta = load_model(config, dataset.flat_dim(), checkpoint)
    protocol = config.augment.protocol_for(dataset)
    rng = np.random.default_rng(config.seed)
    m = min(config.batch_size, len(dataset))
    idx = rng.permutation(len(dataset))[:m]
    v1, v2 = augment_batch_pair(dataset.features[idx], protocol, rng)
    _, fin1 = model.backbone.forward(v1.reshape(m, -1), training=False)
    _, fin2 = model.backbone.forward(v2.reshape(m, -1), training=False)
    z1 = model.whitening(fin1, training=False).data
    z2 = (model.whitening_b or model.whitening)(fin2, training=False).data
    report = compute_report(int(meta.get("epochs_completed", 0)), 0.0,
                            (float("nan"), float("nan"), float("nan")), z1, z2)
    csv_path = os.path.join(out, "diagnostics.csv")
    append_metrics(csv_path, report)
    print(f"diagnose: variance={report.variance:.4f} "
          f"effective_rank={report.effective_rank:.2f} alignment={report.alignment:.4f} "
          f"-> {csv_path}")
    if args.svg:
        metrics_csv = os.path.join(out, "metrics.csv")
        if os.path.exists(metrics_csv):
            rows = read_metrics(metrics_csv)
            series = {key: [float(r[key]) for r in rows]
                      for key in ("variance", "effective_rank", "loss_total")}
            svg_path = os.path.join(out, "diagnostics.svg")
            write_line_chart_svg(svg_path, series, title="training diagnostics")
            print(f"chart -> {svg_path}")
        else:
            eig = report.eigenvalues
            svg_path = os.path.join(out, "diagnostics.svg")
            write_line_chart_svg(svg_path, {"eigenvalue": list(eig)},
                                 title="covariance spectrum")
            print(f"chart -> {svg_path}")
    return EXIT_OK


def cmd_sweep(config, resolved, args) -> int:
    out = _out_dir(config, args)
    values = json.loads(args.values)
    if not isinstance(values, list) or not values:
        raise ConfigError(f"--values must be a non-empty JSON list, got {args.values!r}")
    rows = ablation_sweep(config, args.axis, values, seeds=None, out_dir=out)
    for row in rows:
        print(f"sweep {row['axis']}={row['value']} seed={row['seed']} "
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
            p.add_argument("--axis", required=True,
                           choices=("lambda", "projectorDim", "tapIndex", "targetSource"))
            p.add_argument("--values", required=True,
                           help="JSON list of axis values, e.g. '[0, 0.05, 1.0]'")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config, resolved = parse_config(args.config, args.overrides)
    except ConfigError as exc:
        return _fail(EXIT_CONFIG, "config", str(exc))
    try:
        return COMMANDS[args.command](config, resolved, args)
    except ConfigError as exc:
        return _fail(EXIT_CONFIG, "config", str(exc))
    except PrerequisiteError as exc:
        return _fail(EXIT_PREREQUISITE, "prerequisite", str(exc))
    except (CollapseAbort, NumericalAbort, CollapseError, NonFiniteError,
            TrainingDivergedError) as exc:
        return _fail(EXIT_NUMERICAL, "numerical", str(exc))
    except (TrainingError, EvalError, DataError, NetworkError, LossError, TargetError,
            CheckpointError) as exc:
        return _fail(EXIT_CONFIG, "config", str(exc))


if __name__ == "__main__":
    sys.exit(main())
