"""Receptor pipeline: noisy channel, repeated measurement, recognition.

A stimulus vector passes through a memoryless symbol-corruption channel
n times, as n * dim channel uses; the repetitions are folded per feature
by majority vote (ties to the lowest symbol) and the folded vector is
identified by greedy descent of the recognition tree. One channel call
takes any number of uses, a whole episode's included, and returns them
flat. It draws its words through the stream's kept block
(SplitMix64.draws), as many, in the same order, as one next_u64 call per
word would.
Identification is a fixed function of the sealed KB, so each distinct
vector is identified once per KB and kept in its recognition table; where
the KB's alphabet ** (dim * n) sets of n observations number at most
OBSERVED_MAX, each distinct set is likewise folded, identified and
counted once per KB, in its observation table.
"""
from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable
from operator import attrgetter

from .kb import ROOT, Frozen, KnowledgeBase, finite_number
from .rng import SplitMix64

FULL = "full"
PARTIAL = "partial"
UNRECOGNIZED = "unrecognized"
# the largest key space, alphabet ** (dim * n), a KB's observation table may cover
OBSERVED_MAX = 4096


class InvalidCount(ValueError):
    pass


class ChannelParams(namedtuple("ChannelParams", "epsilon alphabet dim")):
    """Per-feature corruption probability over a fixed alphabet."""

    __slots__ = ()

    def __new__(cls, epsilon: float, alphabet: int, dim: int):
        # a bool is an int, and 3.0 == 3 would pass AgentState's KB check
        if not (finite_number(epsilon) and 0.0 <= epsilon <= 1.0):
            raise ValueError(f"epsilon must be an int or float in [0, 1], got {epsilon!r}")
        if type(alphabet) is not int or alphabet < 2:
            raise ValueError(f"alphabet must be an int >= 2, got {alphabet!r}")
        if type(dim) is not int or dim < 1:
            raise ValueError(f"dim must be an int >= 1, got {dim!r}")
        return super().__new__(cls, epsilon, alphabet, dim)


class RecognitionOutcome(Frozen):
    """The node a vector is identified to, its depth and its status (full | partial |
    unrecognized); it compares and hashes by value. A __slots__ record, not a tuple: the
    trial loop reads its node and status."""

    __slots__ = ("node", "depth", "status")

    def __init__(self, node: int, depth: int, status: str):
        self._seal(node, depth, status)

    def __eq__(self, other):
        if type(other) is not RecognitionOutcome:
            return NotImplemented
        return _outcome_key(self) == _outcome_key(other)

    def __hash__(self) -> int:
        return hash(_outcome_key(self))

    def __repr__(self) -> str:
        return "RecognitionOutcome(node=%r, depth=%r, status=%r)" % _outcome_key(self)


_outcome_key = attrgetter(*RecognitionOutcome.__slots__)


def check_vector(v: tuple[int, ...], dim: int, alphabet: int) -> None:
    if len(v) != dim:
        raise ValueError(f"vector length {len(v)} != {dim}")
    # 1.0 and True equal 1 as keys, so only ints stand for symbols
    if any(type(s) is not int or not 0 <= s < alphabet for s in v):
        raise ValueError(f"vector {v} has symbols that are not ints in [0, {alphabet})")


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


def channel(xs: Iterable[int], params: ChannelParams, rng: SplitMix64) -> tuple[int, ...]:
    """One output symbol per symbol of xs, in order; xs is not checked.

    Each channel use keeps its symbol with prob 1-eps, else replaces it
    by a uniform other symbol. It draws one word, and a corrupted use then
    draws rng.randbelow(alphabet - 1) by rejection. The words come from
    rng.draws(), and rng.moved() moves the stream past the words used, so
    they are those next_u64 and randbelow would return, in the same order,
    and a call that raises leaves the stream where it was. n observations
    of x are channel(x * n, ...), one after another.
    """
    threshold = int(params.epsilon * (1 << 64))  # a use corrupts when its word is below this
    others = params.alphabet - 1
    limit = (1 << 64) // others * others  # randbelow's rejection bound
    draw = rng.draws()
    replacements = 0  # words drawn after a use's own
    out = []
    for sym in xs:
        if draw() < threshold:
            u = limit
            while u >= limit:
                u = draw()
                replacements += 1
            j = u % others
            sym = j if j < sym else j + 1
        out.append(sym)
    rng.moved(draw, len(out) + replacements)
    return tuple(out)


def corrupt(v: tuple[int, ...], params: ChannelParams, rng: SplitMix64) -> tuple[int, ...]:
    """One observation of v through the channel."""
    return channel(v, params, rng)


def majority_fold(observations) -> tuple[int, ...]:
    """Per-feature modal symbol; ties broken by lowest symbol value."""
    if not observations:
        raise InvalidCount("need at least one observation")
    half = len(observations) // 2
    # a strict majority is the only mode; otherwise max keeps the first of
    # equal counts, and the candidates ascend
    return tuple(col[0] if col.count(col[0]) > half else max(sorted(set(col)), key=col.count)
                 for col in zip(*observations))


def observed(
    kb: KnowledgeBase, uses: tuple[int, ...], n: int
) -> tuple[tuple[int, ...], RecognitionOutcome, int]:
    """The trial kernel's input step: (folded vector, its outcome, agreeing observations)
    of n observations, given as their n * kb.dim channel uses in one flat tuple.

    A vector missing from kb._recognition, which only this function writes,
    is checked (ValueError unless it is kb.dim int symbols in [0, kb.alphabet))
    and identified once per KB. The three are kept in kb._observed[n], keyed
    by the uses, once every vector in them is in that table; kb._observed[n]
    is False, decided once per KB and n, when alphabet ** (dim * n) exceeds
    OBSERVED_MAX, and every call then folds afresh.
    """
    memo = kb._observed.get(n)
    if memo is None:
        e = kb.dim * n
        # alphabet >= 2, so a key space within the bound has e below its bit length
        small = e < OBSERVED_MAX.bit_length() and kb.alphabet ** e <= OBSERVED_MAX
        memo = kb._observed[n] = {} if small else False
    if memo is not False:
        seen = memo.get(uses)
        if seen is not None:
            return seen
    d = kb.dim
    observations = [uses[i:i + d] for i in range(0, n * d, d)]
    denoised = majority_fold(observations)
    table = kb._recognition
    for v in (denoised, *observations):
        if v not in table:
            check_vector(v, kb.dim, kb.alphabet)
            table[v] = identify(kb, v)
    outcome = table[denoised]
    node = outcome.node
    seen = denoised, outcome, sum(1 for obs in observations if table[obs].node == node)
    if memo is not False:
        memo[uses] = seen
    return seen


def measure(
    kb: KnowledgeBase,
    x: tuple[int, ...],
    n: int,
    params: ChannelParams,
    rng: SplitMix64,
) -> tuple[tuple[int, ...], RecognitionOutcome, int]:
    """observed of n observations of x through the channel, after checking n and x:
    (folded vector, its outcome, agreeing observations).

    The last counts the n raw observations whose own identification lands on
    the folded outcome's node.
    """
    if n < 1:
        raise InvalidCount("n must be >= 1")
    check_vector(x, params.dim, params.alphabet)
    return observed(kb, channel(x * n, params, rng), n)
