"""The three workloads: their inputs, one unit of work each, and its checks.

Each workload builds its inputs from the workload seed and exposes
`unit(i)`, which runs the i-th unit of work through the library API that
`aprior run | sweep | audit` calls, times its stages with perf_counter, and
checks its outputs. Units are deterministic: unit i of a seed always does
the same work and produces the same bytes.

- c1_mixed: the C1 corpus (reference 3-node KB, categorical mixed scenario,
  eps=0.3, c=0.02, fixed n=3, plain). Time goes to perception, rng and agent
  per trial; kb lookups, the digest and decision numerics do almost nothing.
- reflex_deep_strict: a seeded a=3, d=4 tree (76 objects, 152 programs,
  ~20 KB canonical), reflex schedule, eps=0.2, c=0.01, auto n (n*=8). Each
  unit runs plain, then strict on the same seed; the logs must match byte
  for byte. Deeper identify, n+1 identify calls at n=8, a 152-program scan
  per trial and a 20 KB digest per strict trial.
- sweep_n15: the auto-mode phi(n) sweep on leaf 11 of the reference KB up
  to n=15; decision numerics only (rows 13-15 are Monte Carlo today).
"""
from __future__ import annotations

import copy
import time
from dataclasses import dataclass, field

import aprior.cli  # noqa: F401  (imports every layer, as `aprior` does)
# library entry points are called through their modules, so that a traced
# run sees the benchmark's own calls into each layer
from aprior import agent, audit, decision
from aprior.agent import AgentState
from aprior.decision import AUTO, EXACT, MC_SAMPLES, MeasurementEconomy
from aprior.kb import build_kb
from aprior.perception import UNRECOGNIZED, ChannelParams
from aprior.rng import substream
from aprior.world import load_scenario

import deepkb
import gates

# episode i of workload seed s runs with agent seed s * SEED_STRIDE + i, so
# seed 0 of c1_mixed is the seeds 0..99 corpus of the C1 acceptance test
SEED_STRIDE = 100_000

# copies of the tests' `three_node_doc()` and `mixed_scenario`; perfbench's
# own tests check that they still agree
REFERENCE_KB = {
    "d": 2,
    "alphabet": 3,
    "objects": [
        {"id": 1, "parent": None, "predicate": [[0, 0]]},
        {"id": 11, "parent": 1, "predicate": [[0, 0], [1, 0]]},
        {"id": 12, "parent": 1, "predicate": [[0, 0], [1, 1]]},
        {"id": 2, "parent": None, "predicate": [[0, 1]]},
    ],
    "operations": [
        {"id": 1, "action_tag": "pull", "task": 1, "applicable_objects": [11]},
        {"id": 2, "action_tag": "orient", "task": 1, "applicable_objects": [11, 12]},
        {"id": 3, "action_tag": "approach", "task": 2, "applicable_objects": [12, 2]},
    ],
    "tasks": [
        {"id": 1, "pairs": [[11, 1], [12, 2]]},
        {"id": 2, "pairs": [[2, 3]]},
    ],
    "programs": [
        {"id": 1, "trigger": 11, "operations": [1], "k": 1, "utility": 1.0},
        {"id": 2, "trigger": 12, "operations": [2, 3], "k": 1, "utility": 0.8},
        {"id": 3, "trigger": 2, "operations": [3], "k": 3, "utility": 0.5},
    ],
}

MIXED_SCENARIO = {
    "name": "mixed", "kind": "categorical",
    "entries": [
        {"vector": [0, 0], "truth": 11},
        {"vector": [0, 1], "truth": 12},
        {"vector": [1, 2], "truth": 2},
        {"vector": [0, 2], "truth": 1},
        {"vector": [2, 0], "truth": "omega"},
        {"vector": [2, 2], "truth": "omega"},
    ],
    "weights": [2.0, 2.0, 2.0, 1.5, 1.0, 1.0],
    "scoring": [{"action": "pull", "truth": 11, "value": 1.0}],
}


@dataclass
class Unit:
    """One unit of work: its timed operation, stage times and checks."""

    op_s: float  # the operation the end-to-end latency metrics report
    stages: dict[str, float]  # stage name -> seconds
    failures: list[str]
    texts: list[str] = field(default_factory=list)  # plain logs, the golden-hashed output
    trials: int = 0  # plain trials run
    strict_trials: int = 0
    records: int = 0  # log records parsed and audited
    log_bytes: int = 0
    recognized: int = 0
    actions: int = 0
    ref_s: float = 0.0  # reference-loop time measured around the unit (calib.py)


def _episode_config(econ: MeasurementEconomy, params: ChannelParams, fixed_n) -> dict:
    # what `aprior run` writes into the header, with the file arguments fixed
    return {"kb": "kb.json", "scenario": "scenario.json", "value": econ.value,
            "cost": econ.cost, "phi0": econ.phi0, "n_max": econ.n_max,
            "epsilon": params.epsilon, "fixed_n": fixed_n, "format": "jsonl"}


class _EpisodeWorkload:
    """Shared parts of the two episode workloads."""

    preflight: list = []
    fixed_texts: list = []
    trace_layers = ("rng", "kb", "perception", "decision", "agent", "world", "audit")

    trials: int
    fixed_n: int | None
    epsilon: float
    econ: MeasurementEconomy

    def __init__(self, seed: int, kb_doc: dict, scenario_doc: dict):
        self.seed = seed
        self.kb_doc = kb_doc
        self.scenario_doc = scenario_doc
        self.kb = build_kb(copy.deepcopy(kb_doc))
        self.scenario = load_scenario(copy.deepcopy(scenario_doc), self.kb)
        self.params = ChannelParams(epsilon=self.epsilon, alphabet=self.kb.alphabet,
                                    dim=self.kb.dim)
        self.config = _episode_config(self.econ, self.params, self.fixed_n)
        self.digest = gates.kb_digest_oracle(kb_doc)

    def probe_config(self) -> dict:
        return {"epsilon": self.epsilon, "value": self.econ.value, "cost": self.econ.cost,
                "phi0": self.econ.phi0, "n_max": self.econ.n_max, "fixed_n": self.fixed_n,
                "seed": self.seed * SEED_STRIDE}

    def _state(self, i: int) -> AgentState:
        return AgentState(kb=self.kb, params=self.params, econ=self.econ,
                          seed=self.seed * SEED_STRIDE + i, fixed_n=self.fixed_n)

    def episode(self, i: int, strict: bool) -> tuple[str, float]:
        state = self._state(i)
        t0 = time.perf_counter()
        text = agent.run_episode(state, self.scenario, self.trials, config=self.config,
                           strict=strict).to_jsonl()
        return text, time.perf_counter() - t0

    def _audit(self, text: str):
        t0 = time.perf_counter()
        header, records = audit.parse_log(text)
        report = audit.audit_log(header, records, self.kb)
        return header, records, report, time.perf_counter() - t0

    @staticmethod
    def _counts(unit: Unit, records) -> None:
        unit.records += len(records)
        unit.recognized += sum(1 for r in records if r["status"] != UNRECOGNIZED)
        unit.actions += sum(1 for r in records if r["action"] is not None)


class C1Mixed(_EpisodeWorkload):
    name = "c1_mixed"
    min_units = 100  # the whole corpus is always run
    golden_units = 5
    trace_units = 5
    trials = 1000
    fixed_n = 3
    epsilon = 0.3
    econ = MeasurementEconomy(value=1.0, cost=0.02, phi0=0.0, n_max=9)
    op_name = "plain episode (1000 trials): run_episode + to_jsonl"

    def __init__(self, seed: int):
        super().__init__(seed, REFERENCE_KB, MIXED_SCENARIO)

    def unit(self, i: int) -> Unit:
        text, run_s = self.episode(i, strict=False)
        header, records, report, audit_s = self._audit(text)
        unit = Unit(op_s=run_s, stages={"run": run_s, "audit": audit_s},
                    failures=gates.episode_failures(header, records, report, text,
                                                    trials=self.trials, digest=self.digest),
                    texts=[text], trials=self.trials, log_bytes=len(text.encode("utf-8")))
        self._counts(unit, records)
        return unit


class ReflexDeepStrict(_EpisodeWorkload):
    name = "reflex_deep_strict"
    min_units = 5
    golden_units = 1
    trace_units = 2
    trials = 144  # two passes over the 18-entry schedule at repeat 4
    fixed_n = None
    epsilon = 0.2
    econ = MeasurementEconomy(value=1.0, cost=0.01, phi0=0.0, n_max=9)
    op_name = "strict episode (144 trials): run_episode(strict=True) + to_jsonl"

    def __init__(self, seed: int):
        kb_doc, scenario_doc = deepkb.generate(seed)
        super().__init__(seed, kb_doc, scenario_doc)

    def unit(self, i: int) -> Unit:
        plain, plain_s = self.episode(i, strict=False)
        strict, strict_s = self.episode(i, strict=True)
        unit = Unit(op_s=strict_s, stages={"run": plain_s, "strict_run": strict_s, "audit": 0.0},
                    failures=[], texts=[plain], trials=self.trials, strict_trials=self.trials,
                    log_bytes=len(plain.encode("utf-8")))
        for text, other in ((plain, strict), (strict, None)):
            header, records, report, audit_s = self._audit(text)
            unit.stages["audit"] += audit_s
            unit.failures += gates.episode_failures(header, records, report, text,
                                                    trials=self.trials, digest=self.digest,
                                                    strict_text=other)
            self._counts(unit, records)
        return unit


class SweepN15:
    name = "sweep_n15"
    min_units = 1
    golden_units = 0  # the golden hash covers the seed-independent exact CSV
    trace_units = 1
    node = 11
    params = ChannelParams(epsilon=0.3, alphabet=3, dim=2)
    econ = MeasurementEconomy(value=1.0, cost=0.02, phi0=0.0, n_max=15)
    op_name = "auto-mode sweep n=1..15 on leaf 11: optimal_n + CSV"
    # rng is left unwrapped: Monte Carlo rows draw millions of words per sweep
    trace_layers = ("kb", "decision")

    def __init__(self, seed: int):
        self.seed = seed
        self.kb_doc = REFERENCE_KB
        self.scenario_doc = None
        self.kb = build_kb(copy.deepcopy(REFERENCE_KB))
        symbols = [s for _, s in self.kb.objects[self.node].predicate.constraints]
        clear_decision_caches()
        _, self.exact_rows = decision.optimal_n(self.kb, self.node, self.params, self.econ,
                                                mode=EXACT, return_sweep=True)
        self.exact_csv = gates.sweep_csv(self.exact_rows, digits=12)
        oracle_failures = gates.exact_sweep_failures(
            self.exact_rows, symbols, self.params.epsilon, self.params.alphabet,
            self.econ.value, self.econ.cost)
        self.feature_acc = {
            n: [decision.feature_accuracy(n, self.params, s, mode=EXACT) for s in symbols]
            for n in range(1, self.econ.n_max + 1)
        }
        self.samples = MC_SAMPLES
        self.preflight = [("exact sweep vs brute-force enumeration", oracle_failures)]
        self.fixed_texts = [self.exact_csv]

    def unit(self, i: int) -> Unit:
        # every `aprior sweep` is a fresh process, so each unit starts cold
        clear_decision_caches()
        rng = substream(self.seed, "sweep")
        t0 = time.perf_counter()
        _, rows = decision.optimal_n(self.kb, self.node, self.params, self.econ, mode=AUTO,
                                     rng=rng, return_sweep=True)
        csv = gates.sweep_csv(rows)
        op_s = time.perf_counter() - t0
        failures = gates.auto_sweep_failures(rows, self.exact_rows, self.feature_acc,
                                             self.samples, self.econ.value, self.econ.cost)
        return Unit(op_s=op_s, stages={"sweep": op_s}, failures=failures,
                    log_bytes=len(csv.encode("utf-8")))


def clear_decision_caches() -> None:
    for fn in list(vars(decision).values()):
        clear = getattr(fn, "cache_clear", None)
        if callable(clear):
            clear()


WORKLOADS = {w.name: w for w in (C1Mixed, ReflexDeepStrict, SweepN15)}

