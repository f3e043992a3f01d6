"""The package's one BLAS thread per process: a run's bits do not depend
on the BLAS settings of the environment it starts in, and ``BLAS_PINNED``
tells whether this process's BLAS loaded under the pin."""

import json
import os
import subprocess
import sys
from dataclasses import replace

import pytest

from corrcolor import autograd as ag

from test_acceptance import benchmark_config

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BLAS_SETTINGS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS",
                 "MKL_NUM_THREADS")

# the criterion-6 benchmark config (cross variant, unshared 64-wide heads,
# 2000 samples in batches of 256) at 2 pretrain and 2 VAE epochs: its
# products are large enough that a second OpenBLAS thread changes bits
_C6 = benchmark_config(0.05, 0)
C6_CROSS = replace(_C6, epochs=2, vae_train=replace(_C6.vae_train, epochs=2))


def blas_env(threads: str | None) -> dict:
    """This process's environment with every BLAS thread setting set to
    ``threads`` (or unset), and the package's sources importable."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_SETTINGS}
    env.update(dict.fromkeys(BLAS_SETTINGS, threads) if threads else {})
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def test_run_bits_do_not_depend_on_the_blas_settings(tmp_path):
    config = tmp_path / "c6_cross.json"
    config.write_text(json.dumps(C6_CROSS.to_dict()))
    runs = {}
    for threads in (None, "2", "1"):
        out = tmp_path / f"threads-{threads}"
        for command in ("compute-target", "pretrain"):
            proc = subprocess.run(
                [sys.executable, "-m", "corrcolor.cli", command, "--config", str(config),
                 "--out", str(out)], env=blas_env(threads), capture_output=True, text=True,
                timeout=300)
            assert proc.returncode == 0, proc.stderr[-2000:]
        runs[threads] = [(out / name).read_bytes() for name in ("target.bin", "checkpoint.bin")]
    assert runs[None] == runs["2"] == runs["1"]


# numpy first, then the package: the pin comes too late to set BLAS's threads
_NUMPY_FIRST = """
import json, numpy, corrcolor
from corrcolor import autograd
print(json.dumps([corrcolor.BLAS_PINNED, autograd._spare_core()]))
"""


@pytest.mark.parametrize("threads, pinned", [
    (None, False),  # OpenBLAS loaded with a thread per core
    ("1", True)])   # as the benchmark's worker starts
def test_numpy_loaded_first_is_pinned_only_at_one_thread(threads, pinned):
    env = blas_env(None)
    if threads:
        env["OPENBLAS_NUM_THREADS"] = threads
    proc = subprocess.run([sys.executable, "-c", _NUMPY_FIRST], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]
    # the worker queues only with the pin and a second usable core
    assert json.loads(proc.stdout) == [pinned, pinned and ag.usable_cores() > 1]
