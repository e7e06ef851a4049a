"""Deterministic seed derivation on top of numpy's counter-based Philox.

All randomness in the package flows from a single 64-bit master seed.  Derived
streams are obtained by folding string/int tags into the second Philox key
word, so independent subsystems (rounding trials, per-set generation, hash
partitioning) get independent streams that are reproducible bit-for-bit and
safe to draw from concurrently.

`uniform_rows` computes the first draws of many such streams in one array
pass: Philox is counter-based, so the i-th block of a stream is a pure
function of its key and of i.
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


_U64 = np.uint64
_LO32 = _U64(0xFFFFFFFF)
_PHILOX_M = (_U64(0xD2E7470EE14C6C93), _U64(0xCA5A826395121157))
_PHILOX_W = (_U64(0x9E3779B97F4A7C15), _U64(0xBB67AE8584CAA73B))


def _mix_array(h: np.uint64, values: np.ndarray) -> np.ndarray:
    # _mix(h, value) for each of `values`, on uint64 arrays (which wrap mod 2^64)
    h = h + values
    h = (h ^ (h >> _U64(30))) * _U64(0xBF58476D1CE4E5B9)
    h = (h ^ (h >> _U64(27))) * _U64(0x94D049BB133111EB)
    return h ^ (h >> _U64(31))


def _mulhilo(a: np.uint64, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit products a * b, from 32-bit halves."""
    a_lo, a_hi = a & _LO32, a >> _U64(32)
    b_lo, b_hi = b & _LO32, b >> _U64(32)
    lo_lo = a_lo * b_lo
    hi_lo = a_hi * b_lo
    mid = (lo_lo >> _U64(32)) + (hi_lo & _LO32) + a_lo * b_hi  # < 2^64
    hi = a_hi * b_hi + (hi_lo >> _U64(32)) + (mid >> _U64(32))
    return hi, (mid << _U64(32)) | (lo_lo & _LO32)


def uniform_rows(seed: int, tag: int | str, ts: range, k: int) -> np.ndarray:
    """generator(seed, tag, t).random(k) for every t of `ts`, as one
    (len(ts), k) array.

    Philox4x64-10 is evaluated directly: stream t has key (seed, fold_tags(tag,
    t)) and its j-th block of four words comes from counter j (1, 2, ...), as
    numpy's Philox increments its counter before each block; a word u gives
    the double (u >> 11) * 2^-53, as Generator.random does.
    """
    t = np.arange(ts.start, ts.stop, ts.step, dtype=np.int64).astype(_U64)  # = t & _MASK64
    k1 = _mix_array(_U64(fold_tags(tag)), t)[:, None]
    k0 = np.full_like(k1, int(seed) & _MASK64)
    blocks = -(-k // 4)
    c0 = np.broadcast_to(np.arange(1, blocks + 1, dtype=_U64), (len(t), blocks))
    c1 = c2 = c3 = np.zeros_like(c0)
    for r in range(10):
        if r:
            k0, k1 = k0 + _PHILOX_W[0], k1 + _PHILOX_W[1]
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    words = np.stack([c0, c1, c2, c3], axis=-1).reshape(len(t), 4 * blocks)[:, :k]
    return (words >> _U64(11)).astype(np.float64) * (1.0 / 9007199254740992.0)
