"""Benchmark of the corrcolor target -> pretrain -> eval pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The working directory does not matter; the program is imported from
the ``src`` of the checkout that holds this file.  The workload seed generates a corrcolor config (see
``workloads.py``); the program only receives that config file.  Each
run starts fresh processes with OpenBLAS pinned to ``BLAS_THREADS``:

* ``SETUP_REPEATS`` set-up-only processes, split between the start and
  the end of the run, whose median wall time from spawn to the end of
  set-up is ``setup_s``;
* one worker that repeats the pipeline job for about ``--seconds``;
  stage times sum the fastest time of each lap (see ``end_to_end``).

With ``--trace 1`` a single untraced job runs first in its own process,
then a traced worker; the per-layer metrics come from the traced one,
and the gap between the two job times is the tracing overhead.

Outputs are checked in every job.  Human-readable lines go first; the
last line of standard output is the JSON result.  Spans, the per-layer
self-time table and the full result with its environment are written
to ``.perfbench-out/<workload>-s<seed>-t<trace>/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from instrument import fastest_laps  # noqa: E402

BLAS_THREADS = 1          # steadiest on a shared machine; 2 threads were no faster
SETUP_REPEATS = 9
RUN_TIMEOUT_S = 170      # every process of a run ends within this
# a final pretrain state below these is a collapsed run
VARIANCE_FLOOR = 0.05
RANK_FLOOR = 1.5

END_TO_END_UNITS = {"setup_s": "s", "target_s": "s", "pretrain_s": "s",
                    "step_ms_p50": "ms", "step_ms_p95": "ms", "train_pairs_per_s": "1/s",
                    "eval_s": "s", "total_s": "s", "peak_rss_mb": "MB"}


class Checks:
    """Stage calls and output checks, each counted as attempted or failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def check_jobs(checks: Checks, jobs: list[dict], label: str, reference: dict | None) -> None:
    for k, job in enumerate(jobs):
        where = f"{label} job {k}"
        for stage in ("target", "pretrain", "eval"):
            checks.check(job["stage"] != stage, f"{where}: {stage} raised {job['error']}")
            if job["stage"] == stage:
                break
        if "target" in job:
            t = job["target"]
            checks.check(t["finite"] and t["max_abs"] <= 1.0,
                         f"{where}: target matrix not finite or outside [-1, 1]")
        if "pretrain" in job:
            p = job["pretrain"]
            checks.check(p["losses_finite"], f"{where}: non-finite pretrain loss")
            checks.check(p["status"] == "completed" and p["final_variance"] >= VARIANCE_FLOOR
                         and p["final_effective_rank"] >= RANK_FLOOR,
                         f"{where}: collapsed (status {p['status']}, variance "
                         f"{p['final_variance']:.4g}, effective rank "
                         f"{p['final_effective_rank']:.3g})")
        if job["error"] is None:
            # stage times compare laps across calls, so every call must split alike
            first = next(j for j in jobs if j["error"] is None)
            for stage in ("target", "pretrain"):
                checks.check(len(job[f"{stage}_laps"]) == len(first[f"{stage}_laps"]),
                             f"{where}: {stage} split into another number of laps")
            checks.check({len(laps) for laps in job["eval_laps"]}
                         == {len(first["eval_laps"][0])},
                         f"{where}: linear_eval split into another number of laps")
            checks.check(len(set(job["eval_accuracies"])) == 1,
                         f"{where}: repeated linear_eval gave accuracies {job['eval_accuracies']}")
            if reference is not None:
                checks.check(
                    _close(job["pretrain"]["final_loss"], reference["final_loss"],
                           workloads.REL_TOL)
                    and abs(job["accuracy"] - reference["accuracy"]) <= workloads.ACC_TOL
                    and _close(job["target"]["norm"], reference["target_norm"],
                               workloads.REL_TOL),
                    f"{where}: outputs {outputs(job)} differ from the recorded {reference}")
            elif k > 0 and jobs[0]["error"] is None:
                checks.check(outputs(job) == outputs(jobs[0]),
                             f"{where}: outputs differ from job 0 of the same run")


def outputs(job: dict) -> dict:
    return {"final_loss": job["pretrain"]["final_loss"], "accuracy": job["accuracy"],
            "target_norm": job["target"]["norm"]}


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(setup: list[float], result: dict) -> tuple[dict, dict]:
    """Metrics of an untraced worker, and the sample count behind each.

    Every call of a stage does identical work, split into the same laps
    (``instrument.LapClock``).  A stage time is the sum over its laps of
    the fastest time of that lap in the run; the step percentiles are
    taken over the fastest pretrain step at each position.  On a shared
    host other tenants slow the process by up to about 1.7x for seconds
    to minutes.  Medians follow that drift from run to run, and so does
    the fastest whole call; the fastest of each short lap follows it only
    when a whole run passes without an uncontended moment.
    """
    ok = [j for j in result["jobs"] if j["error"] is None]
    if not ok:
        return {}, {}
    calls = {"target_s": [j["target_laps"] for j in ok],
             "pretrain_s": [j["pretrain_laps"] for j in ok],
             "eval_s": [laps for j in ok for laps in j["eval_laps"]]}
    fastest = {name: fastest_laps(c) for name, c in calls.items()}
    values = {name: sum(laps) for name, laps in fastest.items()}
    step_ms = [1000.0 * lap for lap in fastest["pretrain_s"][1:-1]]
    values.update(
        setup_s=statistics.median(setup),
        step_ms_p50=percentile(step_ms, 50),
        step_ms_p95=percentile(step_ms, 95),
        train_pairs_per_s=ok[0]["steps"] * result["batch_size"] / values["pretrain_s"],
        total_s=statistics.median(setup) + sum(values[name] for name in calls),
        peak_rss_mb=result["peak_rss_mb"],
    )
    samples = {name: len(c) for name, c in calls.items()}
    samples.update(setup_s=len(setup), step_ms_p50=len(step_ms), step_ms_p95=len(step_ms),
                   train_pairs_per_s=len(ok), total_s=len(ok), peak_rss_mb=1)
    return {name: values[name] for name in END_TO_END_UNITS}, samples


def profile_check(result: dict, untraced_pretrain_s: float) -> list[str]:
    """Compare small_pipeline's traced profile with the shares the ROADMAP
    lists; each share is of the untraced pretrain time."""
    jobs = [j for j in result["jobs"] if j["error"] is None]
    region = {name: statistics.median(j["pretrain_region_s"][name] for j in jobs)
              for name in jobs[0]["pretrain_region_s"]}
    nodes = result["layer_metrics"]["autograd.nodes_per_step"]["value"]
    share = {name: 100.0 * s / untraced_pretrain_s for name, s in region.items()}
    expected = (
        ("nodes per step", nodes, "about 184", 184 * 0.9 <= nodes <= 184 * 1.1),
        ("finite check % of pretrain", share["autograd.finite_check"], "about 25",
         15.0 <= share["autograd.finite_check"] <= 35.0),
        ("zero-fill % of pretrain", share["autograd.zero_fill"], "about 10",
         5.0 <= share["autograd.zero_fill"] <= 15.0),
        ("diagnostics % of pretrain", share["diagnostics.report"], "under 4",
         share["diagnostics.report"] < 4.0),
        ("augmentation % of pretrain", share["data.augment"], "under 2",
         share["data.augment"] < 2.0),
    )
    return [f"{what}: {value:.4g} (ROADMAP: {claim}) {'ok' if ok else 'MISMATCH'}"
            for what, value, claim, ok in expected]


def host_environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    describe = None
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=10)
        if top.returncode == 0 and os.path.samefile(top.stdout.strip(), ROOT):
            describe = subprocess.run(["git", "-C", ROOT, "describe", "--always", "--dirty"],
                                      capture_output=True, text=True,
                                      timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "git_describe": describe}


def spawn(args: list[str], env: dict, deadline: float) -> None:
    """Run one worker process to completion, killing it at ``deadline``."""
    subprocess.run([sys.executable, os.path.join(HERE, "worker.py")] + args, env=env,
                   stdout=sys.stderr, check=True,
                   timeout=max(deadline - time.monotonic(), 1.0))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="corrcolor pipeline benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_TIMEOUT_S

    if not os.path.isfile(os.path.join(ROOT, "src", "corrcolor", "__init__.py")):
        print(f"error: no corrcolor sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    out = os.path.join(ROOT, ".perfbench-out", f"{args.workload}-s{args.seed}-t{args.trace}")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    config_path = os.path.join(out, "config.json")
    with open(config_path, "w") as fh:
        json.dump(workloads.config_for(args.workload, args.seed), fh, indent=2)
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    common = ["--config", config_path, "--out", out]
    checks = Checks()

    def worker(name: str, extra: list[str]) -> dict:
        path = os.path.join(out, f"{name}.json")
        spawn(common + ["--result", path] + extra, env, deadline)
        with open(path) as fh:
            return json.load(fh)

    def setup_probes(count: int) -> list[float]:
        times = []
        for _ in range(count):
            start = time.clock_gettime(time.CLOCK_MONOTONIC)
            probe = worker("setup", ["--setup-only"])
            checks.check(probe["gram_finite"], "set-up BLAS call gave non-finite values")
            times.append(probe["setup_end"] - start)
        return times

    # an untraced run starts half its set-up processes after the worker, so
    # that the median samples the host at both ends of the run; setup_s is
    # not a metric of a traced run
    setup = setup_probes(SETUP_REPEATS - SETUP_REPEATS // 2)
    reference = (workloads.REFERENCE.get(args.workload)
                 if args.seed == workloads.DEFAULT_SEED else None)
    lines = []
    if args.trace:
        untraced = worker("untraced", ["--seconds", "0"])
        traced = worker("traced", ["--seconds", str(args.seconds), "--trace"])
        check_jobs(checks, untraced["jobs"], "untraced", reference)
        check_jobs(checks, traced["jobs"], "traced", reference)
        main_result = traced
        if untraced["jobs"][0]["error"] is None and traced["jobs"][0]["error"] is None:
            checks.check(outputs(traced["jobs"][0]) == outputs(untraced["jobs"][0]),
                         "tracing changed the outputs")
        metrics = dict(traced["layer_metrics"])
        u = untraced["jobs"][0]
        if u["error"] is None:
            untraced_ms = 1000.0 * (u["target_s"] + u["pretrain_s"] + u["eval_s"])
            metrics["tracing.overhead_pct"] = {
                "value": 100.0 * (traced["job_ms"] / untraced_ms - 1.0), "unit": "%"}
            lines.append("per-layer self time, ms per job (traced):")
            lines += [f"  {layer:<12} {ms:10.1f}  {100.0 * ms / traced['job_ms']:5.1f}%"
                      for layer, ms in traced["layer_self_ms"].items()]
            if args.workload == "small_pipeline":
                lines.append("profile check against the ROADMAP (shares of untraced pretrain):")
                lines += ["  " + line for line in profile_check(traced, u["pretrain_s"])]
        samples = {name: len(traced["jobs"]) for name in metrics}
    else:
        main_result = worker("untraced", ["--seconds", str(args.seconds)])
        setup += setup_probes(SETUP_REPEATS // 2)
        check_jobs(checks, main_result["jobs"], "untraced", reference)
        values, samples = end_to_end(setup, main_result)
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in values.items()}

    failed = len(checks.failures)
    ok_jobs = [j for j in main_result["jobs"] if j["error"] is None]
    environment = dict(host_environment(), **main_result["environment"])
    summary = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "jobs": len(main_result["jobs"]),
        "failed_frac": failed / checks.attempted, "failures": checks.failures,
        "outputs": [outputs(j) for j in ok_jobs], "samples": samples, "setup_s": setup,
        "environment": environment, "metrics": metrics,
    }
    with open(os.path.join(out, "result.json"), "w") as fh:
        json.dump(summary, fh, indent=2)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(main_result['jobs'])} job(s) in one process, closed loop, one caller")
    print("environment: " + json.dumps(environment))
    for name, metric in metrics.items():
        print(f"  {name:<40} {metric['value']:>14.6g} {metric['unit']:<6} "
              f"n={samples.get(name, 1)}")
    print(f"  {'failed_frac':<40} {failed / checks.attempted:>14.6g} ratio  "
          f"n={checks.attempted}")
    if ok_jobs:
        print("outputs of job 0: " + json.dumps(outputs(ok_jobs[0])))
    for line in lines + [f"FAILED: {f}" for f in checks.failures]:
        print(line)
    clean = {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()
             if isinstance(m["value"], (int, float)) and math.isfinite(m["value"])}
    print(json.dumps({"correct": failed == 0 and len(clean) == len(metrics),
                      "attempted": checks.attempted, "failed": failed, "metrics": clean}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
