"""One fresh benchmark process: set up, then run pipeline jobs.

A job is what a user's batch run does with a config: build the VAE
target, pretrain, then probe the frozen encoder.  Jobs run one after
another (a closed loop with one caller) until about ``--seconds`` have
passed, at least once.  The raw timings, outputs and, with ``--trace``,
the per-layer totals go to the ``--result`` JSON file; ``run.py`` turns
them into checks and metrics.

    python3 perfbench/worker.py --config CFG --out DIR --result FILE
                                [--seconds S] [--trace] [--setup-only]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from instrument import OPS, Counters, LapClock, install_tracing  # noqa: E402
from tracer import Tracer, layer_table  # noqa: E402

# linear_eval is the shortest stage; it runs this many times per job so
# that each of its laps has enough samples in a run for a steady fastest
EVAL_REPEATS = 3
# per-layer totals compared inside pretrain for the profile check
PRETRAIN_REGIONS = ("autograd.finite_check", "autograd.zero_fill", "diagnostics.report",
                    "data.augment", "losses.cross_corr", "losses.auto_corr")


def _totals_snapshot(tracer) -> dict:
    return {name: list(entry) for name, entry in tracer.totals.items()}


def _totals_delta(after: dict, before: dict) -> dict:
    zero = (0, 0.0, 0.0)
    return {name: [a - b for a, b in zip(entry, before.get(name, zero))]
            for name, entry in after.items()}


def run_job(np, training, evaluation, config, dataset, run_dir, clock, tracer) -> dict:
    """One target -> pretrain -> eval pass; stage laps and checked outputs."""
    job = {"error": None, "stage": "target"}
    try:
        target, job["target_laps"] = clock.time(lambda: training.prepare_target(config, dataset))
        job["target_s"] = sum(job["target_laps"])
        values = target.matrix.values
        job["target"] = {"finite": bool(np.isfinite(values).all()),
                         "max_abs": float(np.abs(values).max()),
                         "norm": float(np.linalg.norm(values))}

        job["stage"] = "pretrain"
        before = _totals_snapshot(tracer) if tracer else None
        run, job["pretrain_laps"] = clock.time(
            lambda: training.pretrain(config, target=target, run_dir=run_dir))
        job["pretrain_s"] = sum(job["pretrain_laps"])
        # pretrain calls no latent_means, so its inner laps are the steps
        job["steps"] = len(job["pretrain_laps"]) - 1
        job["node_deltas"] = clock.node_deltas()
        if tracer:
            delta = _totals_delta(_totals_snapshot(tracer), before)
            job["pretrain_region_s"] = {name: delta.get(name, [0, 0.0])[1]
                                        for name in PRETRAIN_REGIONS}
        losses = [r.loss_total for r in run.metrics]
        last = run.metrics[-1]
        job["pretrain"] = {"status": run.status,
                           "losses_finite": bool(np.all(np.isfinite(losses))),
                           "final_loss": float(losses[-1]),
                           "final_variance": float(run.final_variance),
                           "final_effective_rank": float(last.effective_rank),
                           "macs_per_step": int(run.macs_per_step)}

        job["stage"] = "eval"
        job["eval_laps"], job["eval_accuracies"] = [], []
        for _ in range(EVAL_REPEATS):
            result, laps = clock.time(
                lambda: evaluation.linear_eval(config, run.checkpoint_path, dataset=dataset))
            job["eval_laps"].append(laps)
            job["eval_accuracies"].append(float(result.accuracy))
        job["eval_s"] = sum(sum(laps) for laps in job["eval_laps"])
        job["accuracy"] = job["eval_accuracies"][0]
        job["stage"] = None
    except Exception as exc:  # a failed stage is counted, not fatal
        job["error"] = f"{type(exc).__name__}: {exc}"
    return job


def layer_metrics(counters, setup_totals, job_totals, jobs, config, training) -> dict:
    """Per-layer metrics of a traced run: per-job totals and exact counts."""
    ok = [j for j in jobs if j["error"] is None]
    n = max(len(ok), 1)

    def count(name):
        return job_totals.get(name, (0, 0.0, 0.0))[0] / n

    def ms(name, index=1):
        return job_totals.get(name, (0, 0.0, 0.0))[index] * 1000.0 / n

    deltas = [d for j in ok for d in j["node_deltas"]]
    steps = statistics.median(j["steps"] for j in ok) if ok else 0
    corr_s = statistics.median(j["pretrain_region_s"]["losses.cross_corr"]
                               + j["pretrain_region_s"]["losses.auto_corr"]
                               for j in ok) if ok else 0.0
    d_c = config.coloring_head.output_dim
    d_w = config.whitening_head.output_dim
    modelled = training.correlation_stage_macs(config.loss.variant, config.batch_size, d_c, d_w,
                                               config.loss.coloring_active())
    m = {"autograd.nodes_per_step": (statistics.median_low(deltas) if deltas else 0, "count")}
    for op in OPS.values():
        m[f"autograd.fwd_ms.{op}"] = (ms(f"autograd.fwd.{op}", 2), "ms")
        m[f"autograd.bwd_ms.{op}"] = (ms(f"autograd.bwd.{op}", 2), "ms")
        m[f"autograd.calls.{op}"] = (count(f"autograd.fwd.{op}"), "count")
    m.update({
        "autograd.finite_check_ms": (ms("autograd.finite_check"), "ms"),
        "autograd.backward_self_ms": (ms("autograd.backward", 2) + ms("autograd.zero_fill"),
                                      "ms"),
        "autograd.zero_fill_ms": (ms("autograd.zero_fill"), "ms"),
        "optim.step_ms": (ms("optim.step"), "ms"),
        "optim.zero_grad_ms": (ms("optim.zero_grad"), "ms"),
        "networks.backbone_ms": (ms("networks.backbone"), "ms"),
        "networks.projector_ms": (ms("networks.projector"), "ms"),
        "networks.batchnorm_ms": (ms("networks.batchnorm"), "ms"),
        "networks.vae_forward_ms": (ms("networks.vae_forward"), "ms"),
        "networks.vae_latent_calls": (counters.vae_latent_calls / n, "count"),
        "losses.normalize_ms": (ms("losses.normalize"), "ms"),
        "losses.cross_corr_ms": (ms("losses.cross_corr"), "ms"),
        "losses.auto_corr_ms": (ms("losses.auto_corr"), "ms"),
        "losses.coloring_ms": (ms("losses.coloring"), "ms"),
        "losses.whitening_ms": (ms("losses.whitening"), "ms"),
        "losses.corr_ms_per_step": (corr_s * 1000.0 / steps if steps else 0.0, "ms"),
        "losses.modelled_macs": (modelled, "MAC"),
        "data.augment_ms": (ms("data.augment"), "ms"),
        "data.view_use_ratio": (counters.vae_rows / counters.augmented_rows
                                if counters.augmented_rows else 0.0, "ratio"),
        "target.vae_train_ms": (ms("target.vae_train"), "ms"),
        "target.matrix_ms": (ms("target.matrix"), "ms"),
        "diagnostics.report_ms": (ms("diagnostics.report"), "ms"),
        "linalg.eigvals_ms": (ms("linalg.eigvals"), "ms"),
        "checkpoint.save_ms": (ms("checkpoint.save"), "ms"),
        "checkpoint.load_ms": (ms("checkpoint.load"), "ms"),
        "checkpoint.bytes": (counters.checkpoint_bytes / n, "B"),
        "evaluation.features_ms": (ms("evaluation.features"), "ms"),
        "evaluation.probe_ms": (ms("evaluation.probe"), "ms"),
        "training.loop_self_ms": (ms("training.pretrain", 2), "ms"),
        "training.macs_per_step": (ok[0]["pretrain"]["macs_per_step"] if ok else 0, "MAC"),
        "config.parse_ms": (setup_totals.get("config.parse", (0, 0.0))[1] * 1000.0, "ms"),
    })
    return {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}


def environment(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    tracer = Tracer() if args.trace else None
    counters = Counters()
    import numpy as np
    from corrcolor import config as cc_config, evaluation, networks, optim, training

    # setup: config, dataset generation and the first BLAS call
    if tracer:
        install_tracing(tracer, counters)
        tracer.enter("bench.setup")
    config, _ = cc_config.parse_config(args.config)
    dataset = training.build_dataset(config)
    flat = dataset.features.reshape(len(dataset), -1)
    gram = flat.T @ flat
    if tracer:
        tracer.exit()
    if args.setup_only:
        # the parent times set-up from spawn to here on the same system-wide clock
        with open(args.result, "w") as fh:
            json.dump({"setup_end": time.clock_gettime(time.CLOCK_MONOTONIC),
                       "gram_finite": bool(np.isfinite(gram).all())}, fh)
        return 0

    setup_totals = _totals_snapshot(tracer) if tracer else {}
    clock = LapClock((lambda: tracer.calls("autograd.finite_check")) if tracer else None)
    clock.install(optim.Adam, networks.VAE)
    run_dir = os.path.join(args.out, "run")
    jobs: list[dict] = []
    begin = time.perf_counter()
    while True:
        shutil.rmtree(run_dir, ignore_errors=True)
        if tracer:
            tracer.run_id = f"job{len(jobs)}"
            tracer.enter("bench.job")
        jobs.append(run_job(np, training, evaluation, config, dataset, run_dir, clock, tracer))
        if tracer:
            tracer.exit()
        elapsed = time.perf_counter() - begin
        # start another job only if it should end closer to --seconds than stopping now
        if jobs[-1]["error"] is not None or elapsed + 0.5 * elapsed / len(jobs) >= args.seconds:
            break

    result = {"jobs": jobs, "environment": environment(np),
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "batch_size": config.batch_size}
    if tracer:
        job_totals = _totals_delta(_totals_snapshot(tracer), setup_totals)
        ok = max(sum(j["error"] is None for j in jobs), 1)
        result["layer_metrics"] = layer_metrics(counters, setup_totals, job_totals, jobs, config,
                                                training)
        result["layer_self_ms"] = {layer: s * 1000.0 / ok
                                   for layer, s in layer_table(job_totals).items()}
        result["job_ms"] = job_totals["bench.job"][1] * 1000.0 / ok
        tracer.write_spans(os.path.join(args.out, "spans.jsonl"))
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
