"""splitmix64 streams for cross-run reproducible randomness.

All randomness flows from a single 64-bit master seed through named
substreams (channel, selection, scenario, ...), so components can be
re-seeded independently. Bounded uniform integers use rejection
sampling to avoid modulo bias.
"""
from __future__ import annotations

from .digest import fnv1a_64

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15  # added to the state once per word
# the two mixing multipliers; next_u64 spells them as literals, which load
# faster than module names
MIX1 = 0xBF58476D1CE4E5B9
MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """Deterministic 64-bit PRNG (splitmix64)."""

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next_u64(self) -> int:
        self.state = (self.state + GAMMA) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

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


def substream(master_seed: int, name: str) -> SplitMix64:
    """Derive an independent named stream from the master seed."""
    return SplitMix64((master_seed & MASK64) ^ fnv1a_64(name.encode("utf-8")))
