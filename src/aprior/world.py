"""Environment scenarios: stimulus schedules and action scoring.

Scenarios supply ground-truth stimuli (pre-noise) on three kinds of
schedule: a fixed cycling list, an i.i.d. weighted categorical draw, or
a reflex schedule that repeats each entry r times before switching.
Unknown patterns are declared with the omega truth marker and verified
against the knowledge base at load time.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

from .kb import KnowledgeBase
from .perception import check_vector
from .rng import SplitMix64

OMEGA = "omega"

FIXED = "fixed"
CATEGORICAL = "categorical"
REFLEX = "reflex"


class SchemaError(ValueError):
    pass


class TruthMismatch(ValueError):
    pass


@dataclass(frozen=True)
class Stimulus:
    vector: tuple[int, ...]
    truth: int | str  # object id or OMEGA


@dataclass(frozen=True)
class Scenario:
    name: str
    kind: str
    entries: tuple[Stimulus, ...]
    weights: tuple[float, ...]
    repeat: int
    scoring: dict[tuple[str, int | str], float]


def _check_stimulus(kb: KnowledgeBase, vector: tuple[int, ...], truth) -> Stimulus:
    check_vector(vector, kb.dim, kb.alphabet)
    if truth == OMEGA:
        for oid, obj in kb.objects.items():
            if kb.is_leaf(oid) and obj.predicate.matches(vector):
                raise TruthMismatch(
                    f"stimulus {vector} declared {OMEGA} but matches leaf {oid}"
                )
        return Stimulus(vector, OMEGA)
    if truth not in kb.objects:
        raise TruthMismatch(f"unknown truth object {truth!r}")
    if not kb.objects[truth].predicate.matches(vector):
        raise TruthMismatch(f"stimulus {vector} does not satisfy object {truth}")
    return Stimulus(vector, truth)


def load_scenario(doc: dict, kb: KnowledgeBase) -> Scenario:
    """Validate a scenario document against the sealed KB."""
    name = doc.get("name")
    if not isinstance(name, str):
        raise SchemaError("scenario needs a string name")
    kind = doc.get("kind")
    if kind not in (FIXED, CATEGORICAL, REFLEX):
        raise SchemaError(f"unknown schedule kind {kind!r}")

    raw_entries = doc.get("entries")
    if not isinstance(raw_entries, list) or not raw_entries:
        raise SchemaError("entries must be a non-empty list")
    entries = []
    for entry in raw_entries:
        vector = entry.get("vector")
        if not isinstance(vector, list):
            raise SchemaError(f"bad stimulus vector {vector!r}")
        entries.append(_check_stimulus(kb, tuple(vector), entry.get("truth")))

    weights: tuple[float, ...] = ()
    if kind == CATEGORICAL:
        raw_weights = doc.get("weights")
        if not isinstance(raw_weights, list) or len(raw_weights) != len(entries):
            raise SchemaError("weights must match entries")
        for w in raw_weights:
            if not isinstance(w, (int, float)) or not w > 0 or w != w or w == float("inf"):
                raise SchemaError(f"weights must be positive and finite, got {w!r}")
        weights = tuple(float(w) for w in raw_weights)

    repeat = 1
    if kind == REFLEX:
        repeat = doc.get("repeat")
        if not isinstance(repeat, int) or repeat < 1:
            raise SchemaError("reflex schedule needs repeat >= 1")

    scoring: dict[tuple[str, int | str], float] = {}
    for row in doc.get("scoring", []):
        tag = row.get("action")
        truth = row.get("truth")
        value = row.get("value")
        if not isinstance(tag, str) or not isinstance(value, (int, float)):
            raise SchemaError(f"bad scoring row {row!r}")
        scoring[(tag, truth)] = float(value)

    return Scenario(name, kind, tuple(entries), weights, repeat, scoring)


def next_stimulus(scenario: Scenario, t: int, rng: SplitMix64) -> Stimulus:
    """Stimulus for trial t; consumes rng only on categorical schedules."""
    if t < 0:
        raise ValueError("t must be >= 0")
    if scenario.kind == FIXED:
        return scenario.entries[t % len(scenario.entries)]
    if scenario.kind == REFLEX:
        return scenario.entries[(t // scenario.repeat) % len(scenario.entries)]
    # categorical: one weighted draw
    total = sum(scenario.weights)
    u = rng.next_float() * total
    acc = 0.0
    for stim, w in zip(scenario.entries, scenario.weights):
        acc += w
        if u < acc:
            return stim
    return scenario.entries[-1]


def score(scenario: Scenario, action_tag: str | None, truth) -> float:
    """Realized payoff of an action against the ground truth; default 0."""
    if action_tag is None:
        return 0.0
    return scenario.scoring.get((action_tag, truth), 0.0)


def load_scenario_file(path, kb: KnowledgeBase) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise SchemaError("scenario document must be a JSON object")
    return load_scenario(doc, kb)
