"""Deterministic seed derivation on top of numpy's counter-based Philox.

All randomness in the package flows from a single 64-bit master seed.  Derived
streams are obtained by folding string/int tags into the second Philox key
word, so independent subsystems (rounding trials, per-set generation, hash
partitioning) get independent streams that are reproducible bit-for-bit and
safe to draw from concurrently.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


def _mix(h: int, value: int) -> int:
    # splitmix64 finalizer; cheap and avalanches well enough for tag folding
    h = (h + value) & _MASK64
    h = ((h ^ (h >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    h = ((h ^ (h >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (h ^ (h >> 31)) & _MASK64


def fold_tags(*tags: int | str) -> int:
    """Fold a tag path into one 64-bit word."""
    h = 0x9E3779B97F4A7C15
    for tag in tags:
        if isinstance(tag, str):
            h = _mix(h, len(tag))
            for b in tag.encode("utf-8"):
                h = _mix(h, b)
        else:
            h = _mix(h, int(tag) & _MASK64)
    return h


def derive_seed(seed: int, *tags: int | str) -> int:
    """A 64-bit sub-seed for handing to APIs that take a plain seed."""
    return fold_tags(int(seed) & _MASK64, *tags)


def generator(seed: int, *tags: int | str) -> np.random.Generator:
    """Philox generator keyed by (seed, folded tag path)."""
    key = np.array(
        [int(seed) & _MASK64, fold_tags(*tags) if tags else 0],
        dtype=np.uint64,
    )
    return np.random.Generator(np.random.Philox(key=key))
