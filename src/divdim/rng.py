"""Seeded, portable randomness for reproducible constructions.

SplitMix64 is the one generator used wherever a construction is
randomized.  It is tiny, well known, and identical on every platform,
so a recorded seed replays byte for byte.  Streams are split
deterministically: ``child_seed(seed, k)`` is the (k+1)-th output of a
SplitMix64 started at ``seed``, which lets retries and per-zone draws
be re-derived independently from one master seed.
"""

from __future__ import annotations

import struct
import sys
from array import array
from typing import Iterator

from .base import DomainError

MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

# _lanes computes up to LANES outputs at once, lane k of one Python int
# being bits [128k, 128k + 128).  Values stay below 2^64 between steps,
# so a 64-bit multiply fills at most its own lane and never carries out.
# The lanes are written out little-endian and read back as the host's
# 64-bit words, swapped on a big-endian host, so the stream does not
# depend on the host's byte order.
LANES = 1024

_ONES = int.from_bytes(b"\x01".ljust(16, b"\0") * LANES, "little")  # 1 in every lane
_LOW = _ONES * MASK64
_STEPS = _GAMMA * int.from_bytes(
    struct.pack("<" + "Q8x" * LANES, *range(1, LANES + 1)), "little"
)  # (k+1)*gamma


def check_seed(seed: int) -> None:
    """Reject a seed that SplitMix64 would alias by masking it to 64 bits."""
    if not 0 <= seed <= MASK64:
        raise DomainError(f"seed {seed} is outside 0..2^64-1")


def accept_limit(bound: int) -> int:
    """randbelow(bound) keeps a 64-bit output exactly when it is below this."""
    if not 1 <= bound <= MASK64 + 1:
        raise ValueError(f"bound {bound} is outside 1..2^64")
    return (MASK64 + 1) - (MASK64 + 1) % bound


def _lanes(state: int, count: int) -> bytes:
    """mix(state + k * gamma) for k = 1 .. count, count <= LANES, as lanes.

    They are computed in one int and returned as its little-endian bytes:
    16 per lane, the output in the first 8.
    """
    ones, steps, low = _ONES, _STEPS, _LOW
    if count < LANES:
        bits = (1 << 128 * count) - 1
        ones, steps, low = ones & bits, steps & bits, low & bits
    z = (state * ones + steps) & low
    z = ((z ^ (z >> 30)) & low) * 0xBF58476D1CE4E5B9 & low
    z = ((z ^ (z >> 27)) & low) * 0x94D049BB133111EB & low
    z ^= z >> 31  # what this spills into the high halves is never read
    return z.to_bytes(16 * count, "little")


class SplitMix64:
    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def next_block(self, count: int):
        """The next ``count`` outputs as one numpy uint64 array.

        The generator is counter-based: output k is mix(state + k * gamma),
        so a block is computed elementwise and equals ``count`` calls of
        ``next_u64``; the state advances past the block.
        """
        if count < 0:
            raise ValueError("count must be nonnegative")
        import numpy as np

        z = np.arange(1, count + 1, dtype=np.uint64)
        z *= np.uint64(_GAMMA)
        z += np.uint64(self.state)
        z ^= z >> np.uint64(30)
        z *= np.uint64(0xBF58476D1CE4E5B9)
        z ^= z >> np.uint64(27)
        z *= np.uint64(0x94D049BB133111EB)
        z ^= z >> np.uint64(31)
        self.state = (self.state + count * _GAMMA) & MASK64
        return z

    def next_words(self, count: int) -> list[int]:
        """The next ``count`` outputs as a list, without numpy.

        The list twin of ``next_block``: it equals ``count`` calls of
        ``next_u64``, computed up to LANES at a time, and the state advances
        past it.  The lanes go into one array of 64-bit words, whose
        even words are the outputs, so the list is made once.
        """
        if count < 0:
            raise ValueError("count must be nonnegative")
        words = array("Q")
        for done in range(0, count, LANES):
            start = (self.state + done * _GAMMA) & MASK64
            words.frombytes(_lanes(start, min(LANES, count - done)))
        if sys.byteorder == "big":
            words.byteswap()
        self.state = (self.state + count * _GAMMA) & MASK64
        return words[::2].tolist()

    def randbelow(self, bound: int) -> int:
        """Uniform draw from range(bound), unbiased via rejection."""
        limit = accept_limit(bound)
        while True:
            v = self.next_u64()
            if v < limit:
                return v % bound

    def draws_below(self, bound: int) -> Iterator[int]:
        """Iterator of the values that repeated ``randbelow(bound)`` calls return.

        It reads ``next_words(LANES)`` at a time and keeps the outputs that
        ``randbelow`` would, so unlike ``randbelow``, ``state`` moves LANES
        outputs at a time, ahead of the values taken so far.
        """
        limit = accept_limit(bound)
        while True:
            yield from [v % bound for v in self.next_words(LANES) if v < limit]

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle driven by this stream."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randbelow(i + 1)
            items[i], items[j] = items[j], items[i]


def child_seed(seed: int, index: int) -> int:
    """Deterministic child stream seed: the (index+1)-th SplitMix64 output.

    The generator is counter-based, so that output is mix(seed + (index+1)
    * gamma): one step from a generator started index steps ahead.
    """
    if index < 0:
        raise ValueError("index must be nonnegative")
    return SplitMix64((seed + index * _GAMMA) & MASK64).next_u64()
