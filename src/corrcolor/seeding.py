"""Deterministic seed derivation.

Every stage of a run draws its randomness from a sub-seed derived from
the single master seed in the configuration:

    sub_seed = first 8 bytes (little-endian) of sha256("{seed}:{stage}")

Stage names used by the package: "dataset", "target", "init-backbone",
"init-coloring", "init-coloring-b", "init-whitening", "init-whitening-b",
"pretrain", "eval-split", "eval-probe", "diagnose" (the batch the
``diagnose`` command draws); the target stage fans out again into
"vae1-init", "vae2-init", "vae1-noise", "vae2-noise", "views",
"target-views".  Changing one stage's consumption never perturbs another.
A sub-seed is a non-negative integer whatever the master seed.
"""

from __future__ import annotations

import hashlib


def derive_seed(seed: int, stage: str) -> int:
    digest = hashlib.sha256(f"{seed}:{stage}".encode()).digest()
    return int.from_bytes(digest[:8], "little")
