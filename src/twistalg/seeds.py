"""Deterministic named-stream randomness.

Every random draw in the package flows from a single root seed through
named substreams, so adding a new consumer never perturbs the draws of an
existing one and identical (input, seed) pairs reproduce bit-for-bit.
"""

from __future__ import annotations

import hashlib

import numpy as np

DEFAULT_SEED = 42


def child_seed(seed: int, *names: str) -> int:
    tag = str(int(seed)) + "".join("|" + n for n in names)
    digest = hashlib.sha256(tag.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def substream(seed: int, *names: str) -> np.random.Generator:
    """A generator for the substream identified by `names` under `seed`."""
    return np.random.default_rng(child_seed(seed, *names))
