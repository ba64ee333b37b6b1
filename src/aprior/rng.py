"""splitmix64 streams for cross-run reproducible randomness.

All randomness flows from a single 64-bit master seed through named
substreams (channel, selection, scenario, ...), so components can be
re-seeded independently. Bounded uniform integers use rejection
sampling to avoid modulo bias. Every stream mixes its words BLOCK at a
time (words) and keeps the block it draws from.
"""
from __future__ import annotations

import struct
from collections.abc import Callable, Iterator
from functools import cache
from itertools import chain

from .digest import fnv1a_64

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15  # added to the state once per word
# most words one int of lanes mixes: 512 lanes of 128 bits are 8 KiB
BLOCK = 512


class SplitMix64:
    """Deterministic 64-bit PRNG (splitmix64).

    Its words come from words(state), and the iterator stays on the stream
    as its tail, keyed by the state it stopped at: a draw on a stream still
    there goes on from it, and one anywhere else (after a state write) mixes
    afresh. draws() clears the tail before a run's first word and moved()
    sets it on return only, so a run that raises leaves none. A copy or
    pickle drops it, sharing no iterator.
    """

    _tail = None

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def __reduce__(self):
        return type(self), (self.state,)

    def draws(self) -> Callable[[], int]:
        """The next word's draw function: the kept tail's if it is at state."""
        tail, self._tail = self._tail, None
        if tail is not None and tail[0] == self.state:
            return tail[1]
        return words(self.state).__next__

    def moved(self, draw: Callable[[], int], count: int) -> None:
        """Move state past count words drawn from draw, and keep draw as the tail."""
        self.state = end = (self.state + count * GAMMA) & MASK64
        self._tail = end, draw

    def next_u64(self) -> int:
        draw = self.draws()
        self.moved(draw, 1)
        return draw()

    def next_float(self) -> float:
        # 53-bit mantissa, uniform on [0, 1)
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def randbelow(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection sampling."""
        if n <= 0:
            raise ValueError("randbelow requires n >= 1")
        limit = ((1 << 64) // n) * n
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n


@cache
def _lanes():
    """Block constants: a 1 in each 128-bit lane, (k+1)·GAMMA mod 2**64 in
    lane k, the low 64 bits of each lane, a little-endian decoder of those
    low halves, the block's bytes and its step to the next block."""
    ones = sum(1 << 128 * k for k in range(BLOCK))
    steps = sum(((k + 1) * GAMMA & MASK64) << 128 * k for k in range(BLOCK))
    unpack = struct.Struct("<" + "Q8x" * BLOCK).unpack
    return ones, steps, ones * MASK64, unpack, 16 * BLOCK, BLOCK * GAMMA


def _blocks(state: int) -> Iterator[tuple[int, ...]]:
    """Consecutive blocks of BLOCK words from state on, without end.

    Lane k of a block's int starts as the state k+1 words on, and each
    xor-shift and multiply runs on the whole int, masked back to 64 bits
    per lane: a shift then brings nothing in from the next lane, and a
    64-bit lane times a 64-bit multiplier fits in its 128 bits. The last
    shift's spill lands in the high halves, which decode skips.
    """
    ones, steps, low, decode, nbytes, stride = _lanes()
    while True:
        z = (state * ones + steps) & low
        z = ((z ^ (z >> 30)) & low) * 0xBF58476D1CE4E5B9 & low
        z = ((z ^ (z >> 27)) & low) * 0x94D049BB133111EB & low
        yield decode((z ^ (z >> 31)).to_bytes(nbytes, "little"))
        state = (state + stride) & MASK64


def words(state: int) -> Iterator[int]:
    """The splitmix64 words from 64-bit state on, without end, mixed BLOCK at
    a time. The caller moves its stream past the words it used."""
    return chain.from_iterable(_blocks(state))


def substream(master_seed: int, name: str) -> SplitMix64:
    """Derive an independent named stream from the master seed."""
    return SplitMix64((master_seed & MASK64) ^ fnv1a_64(name.encode("utf-8")))
