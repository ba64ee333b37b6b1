"""Post-hoc verification of episode logs.

The auditor works only on a serialized log and the sealed KB the log
claims to run on, which it needs for the id and reflex checks; it never
touches live agent state, so it cannot mask a violation by re-deriving
state. Checks: knowledge-base closure, no effector on unrecognized
trials, trigger locality, id containment, and reflex gating.
"""
from __future__ import annotations

import json
from collections.abc import Hashable
from dataclasses import dataclass

from .kb import KnowledgeBase
from .perception import UNRECOGNIZED


class MalformedLog(ValueError):
    pass


class UnknownProgram(KeyError):
    pass


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    violating_trial: int | None = None
    detail: str = ""


@dataclass(frozen=True)
class AuditReport:
    checks: tuple[CheckResult, ...]
    digest_before: int
    digest_after: int
    trials: int
    unrecognized_trials: int
    actions: int

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> str:
        return json.dumps(
            {
                "passed": self.passed,
                "checks": [
                    {
                        "name": c.name,
                        "passed": c.passed,
                        "violating_trial": c.violating_trial,
                        "detail": c.detail,
                    }
                    for c in self.checks
                ],
                "digest_before": self.digest_before,
                "digest_after": self.digest_after,
                "totals": {
                    "trials": self.trials,
                    "unrecognized_trials": self.unrecognized_trials,
                    "actions": self.actions,
                },
            },
            sort_keys=True,
            indent=2,
        )


_HEADER_KEYS = {"seed", "trials", "digest_before", "digest_after", "tasks_before", "tasks_after"}
_TRIAL_KEYS = {"t", "n", "node", "status", "action"}


def parse_log(text: str) -> tuple[dict, list[dict]]:
    """Parse a JSON-lines episode log into (header, trials)."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise MalformedLog("empty log")
    try:
        header = json.loads(lines[0])
        trials = [json.loads(line) for line in lines[1:]]
    except ValueError as exc:  # JSONDecodeError, or an integer over the digit limit
        raise MalformedLog(f"bad JSON: {exc}") from exc
    if not isinstance(header, dict) or not _HEADER_KEYS <= header.keys():
        raise MalformedLog("header missing required keys")
    if not trials:
        raise MalformedLog("log has no trials")
    for trial in trials:
        if not isinstance(trial, dict) or not _TRIAL_KEYS <= trial.keys():
            raise MalformedLog("trial record missing required keys")
        if trial["action"] is not None and not isinstance(trial["action"], dict):
            raise MalformedLog("trial action is neither null nor an object")
    return header, trials


def load_log_file(path) -> tuple[dict, list[dict]]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_log(fh.read())


def assert_closure(header: dict, trials: list[dict]) -> CheckResult:
    """Knowledge base unchanged: digests and task enumerations identical."""
    if header["digest_before"] != header["digest_after"]:
        return CheckResult(
            "closure", False, None,
            f"digest changed: {header['digest_before']} -> {header['digest_after']}",
        )
    if header["tasks_before"] != header["tasks_after"]:
        return CheckResult("closure", False, None, "task enumeration changed")
    return CheckResult("closure", True)


def assert_statement1(header: dict, trials: list[dict], kb: KnowledgeBase) -> CheckResult:
    """No effector on unrecognized trials; trigger locality; sealed ids only."""
    known_tasks = {tid for tid, _ in
                   ((row[0], row[1]) for row in header["tasks_before"])}
    for trial in trials:
        action = trial.get("action")
        if trial["status"] == UNRECOGNIZED and action is not None:
            return CheckResult(
                "statement1", False, trial["t"], "action on unrecognized trial"
            )
        if action is not None:
            if action.get("trigger") != trial["node"]:
                return CheckResult(
                    "statement1", False, trial["t"],
                    f"trigger {action.get('trigger')} != recognized node {trial['node']}",
                )
            prog = kb.programs.get(action.get("program"))
            if prog is None:
                return CheckResult(
                    "statement1", False, trial["t"],
                    f"program {action.get('program')} outside sealed KB",
                )
            sealed_tags = {kb.operations[pid].action_tag for pid in prog.operations}
            if any(tag not in sealed_tags for tag in action.get("tags", [])):
                return CheckResult(
                    "statement1", False, trial["t"], "action tag outside sealed KB"
                )
            if kb.operations[prog.operations[0]].task not in known_tasks:
                return CheckResult(
                    "statement1", False, trial["t"], "task outside sealed set"
                )
        if trial["status"] != UNRECOGNIZED and trial["node"] not in kb.objects:
            return CheckResult(
                "statement1", False, trial["t"],
                f"recognized node {trial['node']} outside sealed KB",
            )
    return CheckResult("statement1", True)


def assert_reflex(trials: list[dict], program) -> CheckResult:
    """The program never fires before the k-th recognition of its trigger.

    The recurrence count includes the current trial, so the earliest
    legal fire is the trial of the k-th recognition itself.
    """
    return _reflex_checks(trials, (program,))[0]


def _reflex_checks(trials: list[dict], programs) -> list[CheckResult]:
    """`assert_reflex` for every program, in one walk over the trials."""
    by_id = {p.id: p for p in programs}
    recognitions: dict = {}  # node -> recognitions so far
    early: dict[int, CheckResult] = {}  # program id -> its first fire below k
    for trial in trials:
        # an unhashable node or program id equals no sealed (integer) id
        if trial["status"] != UNRECOGNIZED and isinstance(node := trial["node"], Hashable):
            recognitions[node] = recognitions.get(node, 0) + 1
        action = trial.get("action")
        if action is None:
            continue
        pid = action.get("program")
        program = by_id.get(pid) if isinstance(pid, Hashable) else None
        if program is None or program.id in early:
            continue
        count = recognitions.get(program.trigger, 0)
        if count < program.reflex_threshold:
            early[program.id] = CheckResult(
                f"reflex[{program.id}]", False, trial["t"],
                f"fired at recognition {count} < threshold {program.reflex_threshold}",
            )
    return [early.get(p.id) or CheckResult(f"reflex[{p.id}]", True) for p in programs]


def audit_log(header: dict, trials: list[dict], kb: KnowledgeBase) -> AuditReport:
    """Run every check; reflex gating is checked for each KB program."""
    checks = [assert_closure(header, trials), assert_statement1(header, trials, kb),
              *_reflex_checks(trials, kb.programs.values())]
    return AuditReport(
        checks=tuple(checks),
        digest_before=header["digest_before"],
        digest_after=header["digest_after"],
        trials=len(trials),
        unrecognized_trials=sum(1 for t in trials if t["status"] == UNRECOGNIZED),
        actions=sum(1 for t in trials if t.get("action") is not None),
    )
