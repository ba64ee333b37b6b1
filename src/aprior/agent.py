"""Behavior loop: measure, count, gate, order, pick at random, act.

Each trial runs Measure -> Memory -> reflex gate -> DoWhile filter ->
Random -> Do, in that fixed order. The agent's memory is a trial counter
and one recurrence counter per recognized object, nothing per trial. The
recurrence counter feeding the reflex gate includes the current trial,
so a threshold-k program first becomes eligible on the k-th recognition
of its trigger and stays eligible afterwards. The knowledge base is
never written.

`step` and `run_episode` share one trial kernel, `_trials`, over the
n * dim channel uses of a run of trials, whose picks come from one
selection draw: `run_episode` draws as many trials' stimuli as
CHANNEL_USES allows, then all their uses, with one call each (the named
streams draw the same words in the same order either way). Gate, phi and
order depend only on the folded vector, the count of agreeing
observations and the gate state min(recurrence, largest k among its
node's programs), given n and the economy's phi0 and cost. The log
members they determine are kept, as one pick per program that may fire,
in a decision table keyed by folded vector and then by (count, gate
state), which the kernel reads and fills. A sealed KB holds one such
table, for the (n, phi0, cost with its sign) of the latest state built
on it, and every state built with the same four shares it; a state keeps
its table when a later state's economy replaces the KB's.
"""
from __future__ import annotations

import json
import math
from contextlib import closing
from itertools import chain

from . import world as world_mod
from .decision import (
    EXACT,
    MeasurementEconomy,
    optimal_n,
    order_and_filter,
    phi_program,
)
from .kb import KnowledgeBase, Program, enumerate_tasks, finite_number, kb_digest
from .perception import (
    UNRECOGNIZED,
    ChannelParams,
    RecognitionOutcome,
    channel,
    check_vector,
    observed,
)
from .rng import SplitMix64, substream


# the most channel uses one channel call in run_episode draws, unless one trial has
# more: a whole C1 or deep-KB episode, yet a buffer of at most 512 KiB whatever n is
CHANNEL_USES = 1 << 16


class IneligibleProgram(ValueError):
    pass


_Pick = tuple[int | None, str]  # (sealed program id or None, text): see _entry
_Entry = tuple[list[_Pick], _Pick | None]  # (picks, idle)


class AgentState:
    """An agent's state on a sealed KB, built from kb, params, econ, seed and fixed_n only.

    n: measurements per trial, planned once; trials: trials run so far;
    recurrence: recognized object id -> recognitions so far, the current
    trial included; decisions: folded vector -> (largest k among its node's
    programs, {(hits, gate state): _Entry}), shared with every state on kb
    with this state's n and economy; channel_rng and selection_rng: its two
    agent streams.
    """

    __slots__ = ("kb", "params", "econ", "seed", "fixed_n", "n", "trials", "recurrence",
                 "decisions", "channel_rng", "selection_rng")

    def __init__(self, kb: KnowledgeBase, params: ChannelParams, econ: MeasurementEconomy,
                 seed: int, fixed_n: int | None = None):
        self.kb, self.params, self.econ, self.seed, self.fixed_n = kb, params, econ, seed, fixed_n
        self.trials = 0
        self.recurrence = {}
        if type(self.seed) is not int:
            raise ValueError(f"seed must be an int, got {self.seed!r}")
        if self.fixed_n is not None and (type(self.fixed_n) is not int or self.fixed_n < 1):
            raise ValueError(f"fixed_n must be None or an int >= 1, got {self.fixed_n!r}")
        if (self.params.alphabet, self.params.dim) != (self.kb.alphabet, self.kb.dim):
            raise ValueError(f"channel alphabet {self.params.alphabet} and dim {self.params.dim} "
                             f"differ from the KB's {self.kb.alphabet} and {self.kb.dim}")
        self.channel_rng = substream(self.seed, "channel")
        self.selection_rng = substream(self.seed, "selection")
        # a program's phi = U * agreement - c * n lies within max |U| + c * n
        n = self.n = planned_n(self)
        bound = max((abs(p.base_utility) for p in self.kb.programs.values()), default=0.0)
        if not (finite_number(n) and math.isfinite(bound + self.econ.cost * n)):
            raise ValueError(f"max |U| + c * n = {bound} + {self.econ.cost} * {n} overflows")
        # 0.0 == -0.0, but a zero cost's sign reaches the logged phis
        cost = self.econ.cost
        key = (n, self.econ.phi0, cost, math.copysign(1.0, cost))
        tables = self.kb._decisions
        if key not in tables:  # the KB keeps the latest economy's table only
            tables.clear()
            tables[key] = {}
        self.decisions = tables[key]


def planned_n(state: AgentState) -> int:
    """Measurement count for each trial, chosen from congenital knowledge.

    Optimizes phi(n) exactly, for any n_max, for the reference leaf
    (smallest-id leaf that pins every feature); falls back to 1 when no
    such leaf exists. AgentState plans it once, as its n.
    """
    if state.fixed_n is not None:
        return state.fixed_n
    kb = state.kb
    for oid, obj in kb.objects.items():
        if kb.is_leaf(oid) and len(obj.predicate.constraints) == kb.dim:
            return optimal_n(kb, oid, state.params, state.econ, mode=EXACT)[0]
    return 1


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


_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _members(**fields) -> str:
    """The fields as JSON object members in sorted key order, each followed by a comma."""
    return _ENCODER.encode(fields)[1:-1] + ","


def _entry(state: AgentState, denoised: tuple, outcome: RecognitionOutcome, hits: int) -> _Entry:
    """A decision table entry from eligible_programs, phi_program and order_and_filter.

    It is (picks, idle): one pick per program order_and_filter keeps, in
    its order, and idle, the no-action pick, when it keeps none (else
    None). A pick is (sealed program id or None, text): text opens the log
    line and holds its members from "action" through "phi_chosen", in the
    log's sorted key order.
    """
    agreement = hits / state.n
    candidates = [[p.id, phi_program(p, agreement, state.n, state.econ)]
                  for p in eligible_programs(state, outcome)]
    ordered = order_and_filter(candidates, state.econ.phi0)
    eligible = [pid for pid, _ in ordered]
    kb = state.kb

    def pick(pid=None, phi=None) -> _Pick:
        action = None if pid is None else {"program": pid, "tags": list(kb.tags[pid]),
                                           "trigger": kb.programs[pid].trigger}
        return pid, "{" + _members(
            action=action, agreement=agreement, candidates=candidates, chosen=pid,
            denoised=list(denoised), depth=outcome.depth, eligible=eligible, n=state.n,
            node=outcome.node, phi_chosen=phi)

    picks = [pick(pid, phi) for pid, phi in ordered]
    return picks, None if picks else pick()


def _trials(state: AgentState, uses: tuple[int, ...]):
    """The trial kernel: fold, count, gate, order and pick each trial of a run from its
    n * dim slice of uses, yielding (t, outcome, pick). Every pick comes from one
    selection_rng.draws() run, by randbelow's rejection, and the stream moves past
    their words when the run ends or is closed."""
    kb, n, rng = state.kb, state.n, state.selection_rng
    decisions, recurrence = state.decisions, state.recurrence
    width = n * kb.dim
    draw = rng.draws()
    drawn = 0
    try:
        for at in range(0, len(uses), width):
            denoised, outcome, hits = observed(kb, uses[at:at + width], n)
            t = record(state, outcome)
            node = outcome.node
            table = decisions.get(denoised)
            if table is None:
                k_max = max((p.reflex_threshold for p in kb.programs_for(node)), default=0)
                table = decisions[denoised] = (k_max, {})
            k_max, entries = table
            # counts past the largest k open no further gate, so they share one entry
            key = (hits, min(recurrence.get(node, 0), k_max))
            entry = entries.get(key)
            if entry is None:  # a miss builds it from the gate rule
                entry = entries[key] = _entry(state, denoised, outcome, hits)
            picks, pick = entry  # pick: the idle one
            if picks:
                size = len(picks)
                u = limit = (1 << 64) // size * size
                while u >= limit:
                    u = draw()
                    drawn += 1
                pick = picks[u % size]
            yield t, outcome, pick
    finally:
        rng.moved(draw, drawn)


def step(state: AgentState, stimulus: tuple[int, ...]) -> dict:
    """One full trial; returns its log line, less truth and score, parsed.

    ValueError, before any draw, unless the stimulus is params.dim int
    symbols in [0, params.alphabet).
    """
    check_vector(stimulus, state.params.dim, state.params.alphabet)
    uses = channel(stimulus * state.n, state.params, state.channel_rng)
    [(t, outcome, (_, text))] = _trials(state, uses)
    return json.loads(f'{text}{_members(status=outcome.status, stimulus=list(stimulus))}"t":{t}}}')


class EpisodeLog:
    """An episode's header, its trials' JSON lines (step's dict with truth and score), the
    counts of trials whose stimulus was recognized and of trials that ran a program, and
    the trials' scores summed in trial order."""

    __slots__ = ("header", "lines", "recognized", "actions", "score")

    def __init__(self, header: dict, lines: list[str], recognized: int, actions: int,
                 score: float):
        self.header, self.lines, self.recognized, self.actions, self.score = (
            header, lines, recognized, actions, score)

    def to_jsonl(self) -> str:
        return "\n".join([_ENCODER.encode(self.header), *self.lines]) + "\n"


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
    if type(trials) is not int or trials < 1:
        raise ValueError(f"trials must be an int >= 1, got {trials!r}")

    canonical_before = state.kb.canonical
    digest_before = kb_digest(state.kb)
    tasks_before = enumerate_tasks(state.kb)

    # (program, status, stimulus) -> (score, the log line from "score" through '"t":',
    # the rest after t); scores depend on the scenario, so the memo is the episode's
    memo: dict[tuple[int | None, str, world_mod.Stimulus], tuple[float, str, str]] = {}
    lines = []
    recognized = actions = total = 0
    # a run of as many trials as CHANNEL_USES allows (one at least): world.stimuli alone
    # draws from the scenario stream and channel alone from the channel stream, and no
    # stimulus depends on the agent, so each stream draws the words a call per trial would
    scenario_rng = substream(state.seed, "scenario")
    n = state.n
    run = max(1, CHANNEL_USES // (n * state.kb.dim))
    for first in range(0, trials, run):
        shown = world_mod.stimuli(scenario, first, min(run, trials - first), scenario_rng)
        uses = channel(chain.from_iterable(stim.vector * n for stim in shown), state.params,
                       state.channel_rng)
        # closing moves the selection stream past the picks of a run cut short
        with closing(_trials(state, uses)) as kernel:
            for (t, outcome, (program_id, text)), stim in zip(kernel, shown):
                key = (program_id, outcome.status, stim)
                rest = memo.get(key)
                if rest is None:
                    tags = () if program_id is None else state.kb.tags[program_id]
                    score = sum((world_mod.score(scenario, tag, stim.truth) for tag in tags), 0.0)
                    rest = memo[key] = (score, _members(
                        score=score, status=outcome.status, stimulus=list(stim.vector)) + '"t":',
                        "," + _members(truth=stim.truth)[:-1] + "}")
                recognized += outcome.status != UNRECOGNIZED
                actions += program_id is not None
                total += rest[0]
                if strict:
                    if state.kb.canonical != canonical_before:
                        raise AssertionError(
                            f"trial {len(lines)}: knowledge base canonical bytes changed")
                    if outcome.status == UNRECOGNIZED and program_id is not None:
                        raise AssertionError(f"trial {len(lines)}: action on unrecognized stimulus")
                lines.append(f"{text}{rest[1]}{t}{rest[2]}")

    header = {
        "seed": state.seed,
        "trials": trials,
        "config": config or {},
        "digest_before": digest_before,
        "digest_after": kb_digest(state.kb),
        "tasks_before": tasks_before,
        "tasks_after": enumerate_tasks(state.kb),
    }
    return EpisodeLog(header, lines, recognized, actions, total)
