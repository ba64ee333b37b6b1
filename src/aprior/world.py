"""Environment scenarios: stimulus schedules and action scoring.

Scenarios supply ground-truth stimuli (pre-noise) on three kinds of
schedule: a fixed cycling list, an i.i.d. weighted categorical draw, or
a reflex schedule that repeats each entry r times before switching. A
fixed schedule is the reflex schedule with r = 1.
Unknown patterns are declared with the omega truth marker and verified
against the knowledge base at load time.
"""
from __future__ import annotations

import json
from bisect import bisect_right
from collections import namedtuple
from itertools import accumulate

from .kb import KnowledgeBase, finite_number
from .perception import FULL, check_vector, identify
from .rng import SplitMix64

OMEGA = "omega"

FIXED = "fixed"
CATEGORICAL = "categorical"
REFLEX = "reflex"


class ScenarioError(ValueError):
    pass


class TruthMismatch(ValueError):
    pass


# a vector and its truth, an object id or OMEGA; a tuple, so it hashes in C as a memo key
Stimulus = namedtuple("Stimulus", "vector truth")
# a checked schedule: its kind, its Stimulus entries, the reflex repeat, the scoring map
# from (action tag, truth) to payoff, the weights' sum (the scale of a categorical draw)
# and the running weight sums less the last, from which bisect_right picks
Scenario = namedtuple("Scenario", "kind entries repeat scoring total_weight cumulative")


def _truth(value, where: str) -> int | str:
    if value != OMEGA and type(value) is not int:
        raise ScenarioError(f"{where}: truth must be an object id or {OMEGA!r}, got {value!r}")
    return value


def _check_stimulus(kb: KnowledgeBase, entry) -> Stimulus:
    if not isinstance(entry, dict):
        raise ScenarioError(f"entries must be objects, got {entry!r}")
    vector = entry.get("vector")
    if not isinstance(vector, list):
        raise ScenarioError(f"bad stimulus vector {vector!r}")
    vector = tuple(vector)
    try:
        check_vector(vector, kb.dim, kb.alphabet)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc
    truth = _truth(entry.get("truth"), f"stimulus {vector}")
    if truth == OMEGA:
        outcome = identify(kb, vector)
        if outcome.status == FULL:
            raise TruthMismatch(
                f"stimulus {vector} declared {OMEGA} but matches leaf {outcome.node}")
        return Stimulus(vector, OMEGA)
    if truth not in kb.objects:
        raise TruthMismatch(f"unknown truth object {truth!r}")
    if not kb.objects[truth].predicate.matches(vector):
        raise TruthMismatch(f"stimulus {vector} does not satisfy object {truth}")
    return Stimulus(vector, truth)


def load_scenario(doc: dict, kb: KnowledgeBase) -> Scenario:
    """Validate a scenario document against the sealed KB."""
    if not isinstance(doc.get("name"), str):
        raise ScenarioError("scenario needs a string name")
    kind = doc.get("kind")
    if kind not in (FIXED, CATEGORICAL, REFLEX):
        raise ScenarioError(f"unknown schedule kind {kind!r}")

    raw_entries = doc.get("entries")
    if not isinstance(raw_entries, list) or not raw_entries:
        raise ScenarioError("entries must be a non-empty list")
    entries = tuple(_check_stimulus(kb, entry) for entry in raw_entries)

    weights: tuple[float, ...] = ()
    if kind == CATEGORICAL:
        raw_weights = doc.get("weights")
        if not isinstance(raw_weights, list) or len(raw_weights) != len(entries):
            raise ScenarioError("weights must match entries")
        for w in raw_weights:
            if not (finite_number(w) and w > 0):
                raise ScenarioError(f"weights must be positive and finite, got {w!r}")
        weights = tuple(float(w) for w in raw_weights)
        if not finite_number(sum(weights)):  # else every draw returns the last entry
            raise ScenarioError(f"weights must have a finite sum, got {sum(weights)!r}")

    repeat = 1
    if kind == REFLEX:
        repeat = doc.get("repeat")
        if type(repeat) is not int or repeat < 1:
            raise ScenarioError("reflex schedule needs repeat >= 1")

    raw_scoring = doc.get("scoring", [])
    if not isinstance(raw_scoring, list):
        raise ScenarioError("scoring must be a list")
    scoring: dict[tuple[str, int | str], float] = {}
    for row in raw_scoring:
        if not isinstance(row, dict):
            raise ScenarioError(f"scoring rows must be objects, got {row!r}")
        tag = row.get("action")
        value = row.get("value")
        if not isinstance(tag, str) or not finite_number(value):
            raise ScenarioError(f"bad scoring row {row!r}")
        scoring[(tag, _truth(row.get("truth"), f"scoring row {row!r}"))] = float(value)

    return Scenario(kind, entries, repeat, scoring, sum(weights), tuple(accumulate(weights[:-1])))


def stimuli(scenario: Scenario, first: int, count: int, rng: SplitMix64) -> list[Stimulus]:
    """Stimuli of trials first to first + count - 1. A categorical one draws a word, all
    through one rng.draws() run: u is its top 53 bits scaled to [0, total_weight), and
    the entry is the first whose running weight sum exceeds u, else the last."""
    if first < 0:
        raise ValueError("t must be >= 0")
    entries = scenario.entries
    if scenario.kind != CATEGORICAL:  # fixed is reflex with repeat 1
        repeat, size = scenario.repeat, len(entries)
        return [entries[(t // repeat) % size] for t in range(first, first + count)]
    bounds, total = scenario.cumulative, scenario.total_weight
    draw = rng.draws()
    shown = [entries[bisect_right(bounds, (draw() >> 11) * 2.0 ** -53 * total)]
             for _ in range(count)]
    rng.moved(draw, len(shown))
    return shown


def next_stimulus(scenario: Scenario, t: int, rng: SplitMix64) -> Stimulus:
    """Stimulus for trial t: stimuli's one-trial case."""
    return stimuli(scenario, t, 1, rng)[0]


def score(scenario: Scenario, action_tag: str, truth) -> float:
    """Realized payoff of an action against the ground truth; default 0."""
    return scenario.scoring.get((action_tag, truth), 0.0)


def load_scenario_file(path, kb: KnowledgeBase) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ScenarioError("scenario document must be a JSON object")
    return load_scenario(doc, kb)
