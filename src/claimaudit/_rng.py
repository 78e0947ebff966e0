"""Portable deterministic hashing and pseudo-randomness.

Everything that must be byte-reproducible across platforms (the mock
auditor, the flawed-audit simulator, the hash embedder, the mock LLM)
draws from these primitives instead of Python's or numpy's RNG streams.
All arithmetic is exact 64-bit integer math (in numpy, on uint64 arrays
only), so the outputs depend only on the input bytes, never on
interpreter or library versions.

FNV-1a over a long input is a walk over the hash's low byte plus one dot
product, with the values of the byte-at-a-time loop. XOR with a byte
only touches bits 0-7, so `h ^ b == h + d` with `d = (l ^ b) - l` and
`l = h & 0xFF`. Multiplication mod 2^64 distributes over that sum, so
after n bytes `h_n = h_0*P^n + sum(d_i * P^(n-i))`. The low byte evolves
on its own, `l_(i+1) = ((l_i ^ b_i) * P) & 0xFF`: one table lookup per
byte in Python, and the rest in numpy.

numpy is imported by the first long hash, not by this module: the
short-input loop, the streams and the prime-power table are pure Python,
so a command that never hashes 100 bytes or more never loads numpy.
"""

from __future__ import annotations

import struct
from itertools import accumulate, repeat
from typing import Iterable, Sequence, TypeVar

_MASK64 = 0xFFFFFFFFFFFFFFFF

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3

# Below this many bytes the plain loop beats numpy's per-call overhead.
_SHORT_INPUT = 100
# The low byte after multiplying a low byte x by the prime.
_NEXT_LOW = tuple((x * _FNV_PRIME) & 0xFF for x in range(256))
# P^B, ..., P^2, P^1 (mod 2^64) as little-endian uint64 bytes: the weights
# of one block's byte deltas. Bytes are immutable, and so is a numpy view of them.
_BLOCK = 4096
_POWERS = struct.pack(
    f"<{_BLOCK}Q", *reversed(list(accumulate(repeat(_FNV_PRIME, _BLOCK), lambda p, q: p * q & _MASK64)))
)

T = TypeVar("T")


def fnv1a64(data: bytes | str) -> int:
    """64-bit FNV-1a hash over UTF-8 bytes."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    if len(data) < _SHORT_INPUT:
        h = _FNV_OFFSET
        for byte in data:
            h ^= byte
            h = (h * _FNV_PRIME) & _MASK64
        return h
    import numpy as np

    low = _FNV_OFFSET & 0xFF
    walk = bytearray((low,))
    walk += bytearray([low := _NEXT_LOW[low ^ byte] for byte in data])
    lows = np.frombuffer(walk, np.uint8, len(data))
    # Both operands of every product stay uint64: mixing in int64 would promote to float64.
    deltas = (lows ^ np.frombuffer(data, np.uint8)).astype(np.uint64) - lows
    table = np.frombuffer(_POWERS, "<u8")
    h = _FNV_OFFSET
    for start in range(0, len(data), _BLOCK):
        block = deltas[start : start + _BLOCK]
        powers = table[_BLOCK - len(block) :]
        h = (h * int(powers[0]) + int(block @ powers)) & _MASK64
    return h


def _splitmix64(state: int) -> tuple[int, int]:
    # Sebastiano Vigna's splitmix64; one step returns (new_state, output).
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


class DeterministicStream:
    """A seedable stream of portable pseudo-random draws.

    Seeded from any mix of integers and strings; strings are folded in
    through FNV-1a so (seed, claim text, paper id) tuples produce stable
    streams regardless of platform.
    """

    def __init__(self, *seeds: int | str) -> None:
        state = _FNV_OFFSET
        for seed in seeds:
            part = seed & _MASK64 if isinstance(seed, int) else fnv1a64(seed)
            # Fold each part in with one mixing round so order matters.
            state, out = _splitmix64(state ^ part)
            state ^= out
        self._state = state

    def next_u64(self) -> int:
        self._state, out = _splitmix64(self._state)
        return out

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in the inclusive range [lo, hi]."""
        if hi < lo:
            raise ValueError(f"empty range [{lo}, {hi}]")
        span = hi - lo + 1
        # Rejection sampling to avoid modulo bias.
        limit = (_MASK64 + 1) - ((_MASK64 + 1) % span)
        while True:
            draw = self.next_u64()
            if draw < limit:
                return lo + (draw % span)

    def choice(self, items: Sequence[T]) -> T:
        if not items:
            raise ValueError("cannot choose from an empty sequence")
        return items[self.randint(0, len(items) - 1)]

    def sample(self, items: Sequence[T], k: int) -> list[T]:
        """k distinct items via a partial Fisher-Yates shuffle."""
        if k > len(items):
            raise ValueError(f"sample size {k} exceeds population {len(items)}")
        pool = list(items)
        for i in range(k):
            j = self.randint(i, len(pool) - 1)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:k]

    def weighted_choice(self, items: Iterable[tuple[T, float]]) -> T:
        pairs = list(items)
        total = sum(weight for _, weight in pairs)
        if total <= 0:
            raise ValueError("weights must sum to a positive value")
        point = self.random() * total
        acc = 0.0
        for item, weight in pairs:
            acc += weight
            if point < acc:
                return item
        return pairs[-1][0]
