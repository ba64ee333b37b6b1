"""Receptor pipeline: noisy channel, repeated measurement, recognition.

A stimulus vector passes through a memoryless symbol-corruption channel
n times; the repetitions are folded per feature by majority vote (ties
to the lowest symbol) and the folded vector is identified by greedy
descent of the recognition tree.
"""
from __future__ import annotations

from dataclasses import dataclass

from .kb import ROOT, KnowledgeBase
from .rng import SplitMix64

FULL = "full"
PARTIAL = "partial"
UNRECOGNIZED = "unrecognized"


class InvalidCount(ValueError):
    pass


@dataclass(frozen=True)
class ChannelParams:
    """Per-feature corruption probability over a fixed alphabet."""

    epsilon: float
    alphabet: int
    dim: int

    def __post_init__(self):
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError("epsilon must be in [0, 1]")
        if self.alphabet < 2:
            raise ValueError("alphabet must be >= 2")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")


@dataclass(frozen=True)
class RecognitionOutcome:
    node: int
    depth: int
    status: str  # full | partial | unrecognized


@dataclass(frozen=True)
class MeasurementResult:
    denoised: tuple[int, ...]
    outcome: RecognitionOutcome
    agreement: float  # fraction of raw observations identifying to outcome.node
    n: int


def check_vector(v: tuple[int, ...], dim: int, alphabet: int) -> None:
    if len(v) != dim:
        raise ValueError(f"vector length {len(v)} != {dim}")
    if any(not 0 <= s < alphabet for s in v):
        raise ValueError(f"vector {v} has symbols outside [0, {alphabet})")


def identify(kb: KnowledgeBase, v: tuple[int, ...]) -> RecognitionOutcome:
    """Greedy descent: at each node, enter the unique matching child.

    Sibling exclusivity (enforced at build time) makes the descent
    deterministic; at most one child can match.
    """
    node = ROOT
    depth = 0
    while True:
        nxt = None
        for child in kb.children(node):
            if kb.objects[child].predicate.matches(v):
                nxt = child
                break
        if nxt is None:
            break
        node = nxt
        depth += 1
    if node == ROOT:
        return RecognitionOutcome(ROOT, 0, UNRECOGNIZED)
    status = FULL if kb.is_leaf(node) else PARTIAL
    return RecognitionOutcome(node, depth, status)


def corrupt_symbol(symbol: int, params: ChannelParams, rng: SplitMix64) -> int:
    """One channel use: keep with prob 1-eps, else a uniform other symbol."""
    threshold = int(params.epsilon * (1 << 64))
    if rng.next_u64() >= threshold:
        return symbol
    j = rng.randbelow(params.alphabet - 1)
    return j if j < symbol else j + 1


def corrupt(v: tuple[int, ...], params: ChannelParams, rng: SplitMix64) -> tuple[int, ...]:
    return tuple(corrupt_symbol(s, params, rng) for s in v)


def majority_fold(observations) -> tuple[int, ...]:
    """Per-feature modal symbol; ties broken by lowest symbol value."""
    if not observations:
        raise InvalidCount("need at least one observation")
    dim = len(observations[0])
    folded = []
    for i in range(dim):
        counts: dict[int, int] = {}
        for obs in observations:
            counts[obs[i]] = counts.get(obs[i], 0) + 1
        best = max(counts.items(), key=lambda kv: (kv[1], -kv[0]))
        folded.append(best[0])
    return tuple(folded)


def measure(
    kb: KnowledgeBase,
    x: tuple[int, ...],
    n: int,
    params: ChannelParams,
    rng: SplitMix64,
) -> MeasurementResult:
    """Observe x through the channel n times, fold, and identify.

    agreement is the fraction of the n raw observations whose own
    identification lands on the folded outcome's node.
    """
    if n < 1:
        raise InvalidCount("n must be >= 1")
    check_vector(x, params.dim, params.alphabet)
    observations = [corrupt(x, params, rng) for _ in range(n)]
    denoised = majority_fold(observations)
    outcome = identify(kb, denoised)
    hits = sum(1 for obs in observations if identify(kb, obs).node == outcome.node)
    return MeasurementResult(denoised, outcome, hits / n, n)
