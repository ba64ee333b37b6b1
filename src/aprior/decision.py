"""Quality functionals and measurement-count optimization.

Two functionals live here. The measurement functional
phi(n) = V * (1 - Perr(n)) - c * n trades recognition accuracy against
measurement cost and can peak at an interior n. The program functional
phi = U * agreement - c * n scores candidate behavior programs from the
agent's own observations at decision time.
"""
from __future__ import annotations

import functools
import math
from collections import namedtuple
from collections.abc import Sequence

from .kb import KnowledgeBase, Program, finite_number
from .perception import ChannelParams, InvalidCount, channel, majority_fold
from .rng import SplitMix64

EXACT = "exact"
MONTE_CARLO = "mc"
AUTO = "auto"

# above this many channel sequences, auto mode falls back to Monte Carlo
EXACT_LIMIT = 10 ** 6
MC_SAMPLES = 10 ** 5
# samples per channel call, which bounds the draws held at once
MC_BATCH = 1000


class NotLeaf(ValueError):
    pass


class UnderconstrainedLeaf(ValueError):
    pass


class MeasurementEconomy(namedtuple("MeasurementEconomy", "value cost phi0 n_max")):
    """value: payoff of acting on a correct recognition; cost: per measurement;
    phi0: DoWhile threshold (strict); n_max: the largest n a sweep tries."""

    __slots__ = ()

    def __new__(cls, value: float, cost: float, phi0: float, n_max: int):
        if type(n_max) is not int or n_max < 1:  # a bool is no count
            raise ValueError(f"n_max must be an int >= 1, got {n_max!r}")
        # NaN is neither < 0 nor < 1, so the checks below would let it through
        if not all(map(finite_number, (value, cost, phi0, n_max))):
            raise ValueError("value, cost, phi0 and n_max must be finite numbers")
        if value < 0 or cost < 0:
            raise ValueError("value and cost must be >= 0")
        # every sweep phi lies within value + cost * n_max
        if not math.isfinite(value + cost * n_max):
            raise ValueError("value + cost * n_max overflows a float")
        return super().__new__(cls, value, cost, phi0, n_max)


def resolve_mode(n: int, params: ChannelParams, mode: str = AUTO) -> str:
    if mode == AUTO:
        return EXACT if params.alphabet ** n <= EXACT_LIMIT else MONTE_CARLO
    if mode in (EXACT, MONTE_CARLO):
        return mode
    raise ValueError(f"unknown mode {mode!r}")


@functools.lru_cache(maxsize=4096)
def _exact_feature_accuracy(n: int, eps: float, a: int, true_symbol: int) -> float:
    # sum over count vectors (c_0..c_{a-1}) of n observations, in lexicographic
    # order; equivalent to enumerating all a^n sequences but polynomial in n
    powers = [[(eps / (a - 1)) ** c for c in range(n + 1)]] * a
    powers[true_symbol] = [(1.0 - eps) ** c for c in range(n + 1)]
    fact = [math.factorial(c) for c in range(n + 1)]
    counts = [0] * (a - 1) + [n]
    top = a - 1  # the last symbol with a nonzero count
    total = 0.0
    while True:
        if counts.index(max(counts)) == true_symbol:  # lowest-symbol tie-break
            ways = fact[n]
            for c in counts:
                ways //= fact[c]
            weight = float(ways)
            for power, c in zip(powers, counts):
                weight *= power[c]
            total += weight
        if top == 0:  # (n, 0, ..., 0) is the last vector
            return total
        # the lexicographic successor: the symbol before top gains one count,
        # and top's other counts move to the last symbol
        rest = counts[top] - 1
        counts[top] = 0
        counts[top - 1] += 1
        counts[-1] = rest
        top = a - 1 if rest else top - 1


def _mc_feature_accuracy(
    n: int, params: ChannelParams, true_symbol: int, rng: SplitMix64, samples: int
) -> float:
    # each sample is n uses of true_symbol, one after another, so use j of
    # every sample in a batch is uses[j::n]; any batch size draws the same words
    hits = 0
    for start in range(0, samples, MC_BATCH):
        uses = channel((true_symbol,) * (n * min(MC_BATCH, samples - start)), params, rng)
        hits += majority_fold([uses[j::n] for j in range(n)]).count(true_symbol)
    return hits / samples


def feature_accuracy(
    n: int,
    params: ChannelParams,
    true_symbol: int,
    mode: str = AUTO,
    rng: SplitMix64 | None = None,
) -> float:
    """P(majority-folded feature equals the true symbol) after n draws."""
    if n < 1:
        raise InvalidCount("n must be >= 1")
    if not 0 <= true_symbol < params.alphabet:
        raise ValueError("true_symbol outside alphabet")
    if params.epsilon == 0.0:
        return 1.0
    used = resolve_mode(n, params, mode)
    if used == EXACT:
        return _exact_feature_accuracy(n, params.epsilon, params.alphabet, true_symbol)
    if rng is None:
        raise ValueError("Monte Carlo mode requires an rng")
    return _mc_feature_accuracy(n, params, true_symbol, rng, MC_SAMPLES)


def recognition_error(
    kb: KnowledgeBase,
    node: int,
    n: int,
    params: ChannelParams,
    mode: str = AUTO,
    rng: SplitMix64 | None = None,
) -> float:
    """Perr(n) = 1 - prod over features of that feature's accuracy.

    Requires a leaf whose predicate pins every feature, so the true
    symbol per feature is known.
    """
    if node not in kb.objects or not kb.is_leaf(node):
        raise NotLeaf(f"object {node} is not a leaf")
    constraints = kb.objects[node].predicate.as_dict()
    if len(constraints) != kb.dim:
        raise UnderconstrainedLeaf(f"leaf {node} does not constrain every feature")
    p_ok = 1.0
    for i in range(kb.dim):
        p_ok *= feature_accuracy(n, params, constraints[i], mode=mode, rng=rng)
    return 1.0 - p_ok


def phi_measure(n: int, perr_n: float, econ: MeasurementEconomy) -> float:
    if not 0.0 <= perr_n <= 1.0:
        raise ValueError("perr must be a probability")
    return econ.value * (1.0 - perr_n) - econ.cost * n


def optimal_n(
    kb: KnowledgeBase,
    node: int,
    params: ChannelParams,
    econ: MeasurementEconomy,
    mode: str = AUTO,
    rng: SplitMix64 | None = None,
    return_sweep: bool = False,
):
    """Argmax of phi_measure over n in [1, n_max]; ties to the smallest n."""
    rows = []
    for n in range(1, econ.n_max + 1):
        perr = recognition_error(kb, node, n, params, mode=mode, rng=rng)
        rows.append((n, perr, phi_measure(n, perr, econ)))
    best_n, _, best_phi = max(rows, key=lambda row: row[2])  # max keeps the first
    if return_sweep:
        from .sweep_row import SweepRow  # imported by a returned sweep only
        sweep = [SweepRow(n, perr, phi, n == best_n) for n, perr, phi in rows]
        return (best_n, best_phi), sweep
    return best_n, best_phi


def phi_program(
    program: Program, agreement: float, n: int, econ: MeasurementEconomy
) -> float:
    if not 0.0 <= agreement <= 1.0:
        raise ValueError("agreement must be in [0, 1]")
    return program.base_utility * agreement - econ.cost * n


def order_and_filter(pairs: list[list], phi0: float) -> list[list]:
    """The [id, phi] pairs with phi strictly above phi0, by descending phi then ascending id."""
    return sorted((q for q in pairs if q[1] > phi0), key=lambda q: (-q[1], q[0]))


def select_random(items: Sequence, rng: SplitMix64):
    """A uniform pick from any list by one randbelow(len) word; None, drawing none, if empty."""
    if not items:
        return None
    return items[rng.randbelow(len(items))]
