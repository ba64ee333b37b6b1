"""Behavior loop: measure, count, gate, order, pick at random, act.

Each trial runs Measure -> Memory -> reflex gate -> DoWhile filter ->
Random -> Do, in that fixed order. The agent's memory is a trial counter
and one recurrence counter per recognized object, nothing per trial. The
recurrence counter feeding the reflex gate includes the current trial,
so a threshold-k program first becomes eligible on the k-th recognition
of its trigger and stays eligible afterwards. The knowledge base is
never written.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from . import world as world_mod
from .decision import (
    EXACT,
    MeasurementEconomy,
    optimal_n,
    order_and_filter,
    phi_program,
    select_random,
)
from .kb import KnowledgeBase, Program, enumerate_tasks, finite_number, kb_digest
from .perception import (
    UNRECOGNIZED,
    ChannelParams,
    RecognitionOutcome,
    measure,
)
from .rng import SplitMix64, substream


class IneligibleProgram(ValueError):
    pass


@dataclass
class AgentState:
    kb: KnowledgeBase
    params: ChannelParams
    econ: MeasurementEconomy
    seed: int
    fixed_n: int | None = None
    trials: int = field(default=0, init=False)
    # recognized object id -> recognitions so far, the current trial included
    recurrence: dict[int, int] = field(default_factory=dict, init=False)
    # vector -> its outcome on kb, filled by measure as vectors occur
    recognition: dict[tuple[int, ...], RecognitionOutcome] = field(
        default_factory=dict, init=False)
    channel_rng: SplitMix64 = field(init=False)
    selection_rng: SplitMix64 = field(init=False)
    _planned_n: int | None = field(default=None, init=False)

    def __post_init__(self):
        self.channel_rng = substream(self.seed, "channel")
        self.selection_rng = substream(self.seed, "selection")
        # a program's phi = U * agreement - c * n lies within max |U| + c * n
        n = planned_n(self)
        bound = max((abs(p.base_utility) for p in self.kb.programs.values()), default=0.0)
        if not (finite_number(n) and math.isfinite(bound + self.econ.cost * n)):
            raise ValueError(f"max |U| + c * n = {bound} + {self.econ.cost} * {n} overflows")


def planned_n(state: AgentState) -> int:
    """Measurement count for each trial, chosen from congenital knowledge.

    Optimizes phi(n) exactly, for any n_max, for the reference leaf
    (smallest-id leaf that pins every feature); falls back to 1 when no
    such leaf exists. Constant across an episode, so computed once.
    """
    if state.fixed_n is not None:
        return state.fixed_n
    if state._planned_n is None:
        ref = None
        for oid in state.kb.objects:
            obj = state.kb.objects[oid]
            if state.kb.is_leaf(oid) and len(obj.predicate.constraints) == state.kb.dim:
                ref = oid
                break
        if ref is None:
            state._planned_n = 1
        else:
            n_star, _ = optimal_n(state.kb, ref, state.params, state.econ, mode=EXACT)
            state._planned_n = n_star
    return state._planned_n


def record(state: AgentState, outcome: RecognitionOutcome) -> int:
    """Count one trial and, if recognized, its node's recurrence; returns its index."""
    t = state.trials
    state.trials = t + 1
    if outcome.status != UNRECOGNIZED:
        state.recurrence[outcome.node] = state.recurrence.get(outcome.node, 0) + 1
    return t


def eligible_programs(state: AgentState, outcome: RecognitionOutcome) -> list[Program]:
    """Programs triggered by exactly the recognized node whose reflex gate is open."""
    if outcome.status == UNRECOGNIZED:
        return []
    count = state.recurrence.get(outcome.node, 0)
    return [
        p for p in state.kb.programs_for(outcome.node)
        if p.reflex_threshold <= count
    ]


def do_action(state: AgentState, program: Program, outcome: RecognitionOutcome) -> Program:
    """The sealed program if eligible_programs lists this one; else IneligibleProgram."""
    if program not in eligible_programs(state, outcome):
        raise IneligibleProgram(f"program {program.id} not eligible on {outcome.node}")
    return state.kb.programs[program.id]


def step(state: AgentState, stimulus: tuple[int, ...]) -> dict:
    """One full trial; returns the trial log as a plain dict."""
    n = planned_n(state)
    result = measure(state.kb, stimulus, n, state.params, state.channel_rng,
                     state.recognition)
    t = record(state, result.outcome)

    candidates = eligible_programs(state, result.outcome)
    qualities = [phi_program(p, result.agreement, n, state.econ) for p in candidates]
    ordered = order_and_filter(qualities, state.econ.phi0)
    chosen = select_random(ordered, state.selection_rng)

    action = None
    if chosen is not None:
        program = do_action(state, state.kb.programs[chosen.program_id], result.outcome)
        action = {"program": program.id, "tags": list(state.kb.tags[program.id]),
                  "trigger": program.trigger}

    return {
        "t": t,
        "stimulus": list(stimulus),
        "n": n,
        "denoised": list(result.denoised),
        "node": result.outcome.node,
        "depth": result.outcome.depth,
        "status": result.outcome.status,
        "agreement": result.agreement,
        "candidates": [[q.program_id, q.phi] for q in qualities],
        "eligible": [q.program_id for q in ordered],
        "chosen": None if chosen is None else chosen.program_id,
        "phi_chosen": None if chosen is None else chosen.phi,
        "action": action,
    }


_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


@dataclass
class EpisodeLog:
    header: dict
    trials: list[dict]

    def to_jsonl(self) -> str:
        lines = [_ENCODER.encode(self.header)]
        lines += [_ENCODER.encode(trial) for trial in self.trials]
        return "\n".join(lines) + "\n"


def run_episode(
    state: AgentState,
    scenario,
    trials: int,
    config: dict | None = None,
    strict: bool = False,
) -> EpisodeLog:
    """Run T sequential trials against a scenario and log everything.

    With strict=True the closure and no-effector-on-unrecognized
    invariants are asserted inline after every trial instead of only
    post hoc by the auditor. Closure compares the KB's canonical bytes
    with those captured at episode start, which catches every change the
    digest catches.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    scenario_rng = substream(state.seed, "scenario")

    canonical_before = state.kb.canonical
    digest_before = kb_digest(state.kb)
    tasks_before = enumerate_tasks(state.kb)

    trial_logs = []
    for t in range(trials):
        stim = world_mod.next_stimulus(scenario, t, scenario_rng)
        log = step(state, stim.vector)
        log["truth"] = stim.truth
        if log["action"]:
            log["score"] = sum(
                world_mod.score(scenario, tag, stim.truth)
                for tag in log["action"]["tags"]
            )
        else:
            log["score"] = 0.0
        if strict:
            if state.kb.canonical != canonical_before:
                raise AssertionError(f"trial {t}: knowledge base canonical bytes changed")
            if log["status"] == UNRECOGNIZED and log["action"] is not None:
                raise AssertionError(f"trial {t}: action on unrecognized stimulus")
        trial_logs.append(log)

    header = {
        "seed": state.seed,
        "trials": trials,
        "config": config or {},
        "digest_before": digest_before,
        "digest_after": kb_digest(state.kb),
        "tasks_before": tasks_before,
        "tasks_after": enumerate_tasks(state.kb),
    }
    return EpisodeLog(header, trial_logs)
