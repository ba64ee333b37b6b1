"""Post-hoc verification of episode logs against the sealed KB.

`parse_log` alone decides whether a log is well formed, so the checks
trust its records. The auditor reads only the log and the sealed KB,
never live agent state. Checks: closure; the log names the sealed KB;
each trial's node, depth and status re-derived from its denoised vector,
no effector on unrecognized trials, trigger locality (judged by the
sealed program's trigger), sealed ids and tags, a pick that agrees with
its own record; reflex gating.
"""
from __future__ import annotations

import json
import re
from collections import namedtuple
from operator import is_, itemgetter

from .kb import KnowledgeBase, enumerate_tasks, finite_number, kb_digest
from .perception import FULL, PARTIAL, UNRECOGNIZED, check_vector, identify


class MalformedLog(ValueError):
    pass


CheckResult = namedtuple("CheckResult", "name passed violating_trial detail",
                         defaults=(None, ""))


class AuditReport(namedtuple("AuditReport", "checks digest_before digest_after trials "
                                            "unrecognized_trials actions")):
    __slots__ = ()

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> str:
        return json.dumps(
            {
                "passed": self.passed,
                "checks": [c._asdict() for c in self.checks],
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


_HEADER_TYPES = {"seed": int, "trials": int, "digest_before": int, "digest_after": int,
                 "tasks_before": list, "tasks_after": list}
_STATUSES = (FULL, PARTIAL, UNRECOGNIZED)
# every trial member but t: the one list _malformed checks, _disagreement reads, the skip compares
_MEMBERS = itemgetter("action", "agreement", "candidates", "chosen", "denoised", "depth",
                      "eligible", "n", "node", "phi_chosen", "status")
# What may follow a stored line's top-level t digits: a last "truth" member, then the one
# closing brace, which leaves no room for a nested object.
_T_TAIL = re.compile(r'(?:,"truth":(?:-?(?:0|[1-9][0-9]*)|"omega"))?\}')


def _malformed(trial, t: int) -> str:
    """Why record t is not a trial with t = t and every `_MEMBERS` member well typed, or "".

    candidates are [id, phi] pairs, eligible ids, chosen an id or null, phi_chosen a phi or null.
    """
    try:
        own, (action, agreement, candidates, chosen, denoised, depth, eligible, n, node, phi,
              status) = trial["t"], _MEMBERS(trial)
    except (KeyError, TypeError):  # a member missing, or not a dict
        return "trial record missing required keys"
    if type(own) is not int or own != t:
        return f"record {t} has t={own!r}"
    if type(node) is not int or type(depth) is not int:
        return f"trial {t}: node or depth is not an integer"
    if type(n) is not int or n < 1 or not (finite_number(agreement) and 0 <= agreement <= 1):
        return (f"trial {t}: n {n!r} is not an integer >= 1 "
                f"or agreement {agreement!r} not a number in [0, 1]")
    if type(denoised) is not list or not {int}.issuperset(map(type, denoised)):
        return f"trial {t}: denoised is not a list of integers"
    if status not in _STATUSES:  # a tuple: an unhashable status is just absent
        return f"trial {t}: unknown status {status!r}"
    if action is not None and not (
            type(action) is dict and type(action.get("program")) is int
            and type(action.get("trigger")) is int and type(action.get("tags")) is list
            and {str}.issuperset(map(type, action["tags"]))):  # json.loads types are exact
        return f"trial {t}: action is neither null nor a well-typed object"
    if not (type(candidates) is list
            and all(type(c) is list and len(c) == 2 and type(c[0]) is int
                    and finite_number(c[1]) for c in candidates)
            and type(eligible) is list and {int}.issuperset(map(type, eligible))
            and (chosen is None or type(chosen) is int)
            and (phi is None or finite_number(phi))):
        return f"trial {t}: ill-typed candidates, eligible, chosen or phi_chosen"
    return ""


def parse_log(text: str) -> tuple[dict, list[dict]]:
    """Parse a JSON-lines episode log into (header, trials), rejecting ill-formed records.

    A log repeats few distinct records, so each is parsed and type-checked
    once, in one pass. A trial line whose last `,"t":` is followed by its
    own index and then only a `"truth"` member and the closing brace is
    keyed by the pair of texts around those digits; a later line whose own
    index gives the same key takes a shallow copy of the first one's record
    with its own `t`, and needs no check. Every other line is parsed in
    full, and its `t` and `_MEMBERS` checked as it is read. A line that is
    not JSON raises at once; the first faulty record is raised after the
    header's checks. Records parsed from lines that differ only in `t`
    therefore share their nested lists and dicts; copy one deeply before
    editing inside it.
    """
    # not splitlines: JSON strings may hold U+2028, U+2029 and U+0085 raw
    lines = [line for line in text.split("\n") if line.strip()]
    if not lines:
        raise MalformedLog("empty log")
    seen: dict[tuple[str, str], dict] = {}  # (text before the cut, text after t) -> record
    trials, fault = [], ""  # fault: the first parsed record's, raised after the header's
    try:
        header = json.loads(lines[0])
        for t, line in enumerate(lines[1:]):
            cut, digits = line.rfind(',"t":'), str(t)  # `,"` cannot occur inside a JSON string
            end, key = cut + 5 + len(digits), None
            if cut > 0 and line.startswith(digits, cut + 5):  # kept tails start `,` or `}`
                key = line[:cut], line[end:]
            first = seen.get(key)
            if first is not None:  # a copy: its first record is earlier and was checked
                trial = first.copy()
                trial["t"] = t
            else:
                trial = json.loads(line)  # a bad line is never a copy: it raises here
                fault = fault or _malformed(trial, t)
                if key and _T_TAIL.fullmatch(line, end):
                    seen[key] = trial
            trials.append(trial)
    except (ValueError, RecursionError) as exc:  # also the digit limit and deep nesting
        raise MalformedLog(f"bad JSON: {exc}") from exc
    if not isinstance(header, dict) or not _HEADER_TYPES.keys() <= header.keys():
        raise MalformedLog("header missing required keys")
    for key, kind in _HEADER_TYPES.items():
        if type(header[key]) is not kind:  # not isinstance: a bool is no count
            raise MalformedLog(f"header {key} {header[key]!r} is not of type {kind.__name__}")
    if not trials:
        raise MalformedLog("log has no trials")
    if header["trials"] != len(trials):
        raise MalformedLog(f"header names {header['trials']!r} trials, log has {len(trials)}")
    if fault:
        raise MalformedLog(fault)
    return header, trials


def load_log_file(path) -> tuple[dict, list[dict]]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_log(fh.read())


def assert_closure(header: dict) -> CheckResult:
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
    """The log names the sealed KB (digest, tasks) and no trial disagrees with it.

    The first trial in order that `_disagreement` finds fault with fails the check. It skips a
    record only if its `_MEMBERS` items, the ones that rule reads, are the very objects an
    earlier agreeing record holds. Each distinct denoised vector is identified once per audit,
    from the sealed tree itself, never from a table the run wrote.
    """
    digest = kb_digest(kb)
    if header["digest_before"] != digest:
        return CheckResult("statement1", False, None,
                           f"log names digest {header['digest_before']}, sealed KB has {digest}")
    if header["tasks_before"] != [[tid, [list(p) for p in pairs]]
                                  for tid, pairs in enumerate_tasks(kb)]:
        return CheckResult("statement1", False, None, "task enumeration differs from sealed KB")
    agreed: dict[int, tuple] = {}  # id of a candidates list -> an agreeing record's members
    outcomes: dict = {}  # a checked vector -> its identify outcome
    for trial in trials:
        members, key = _MEMBERS(trial), id(trial["candidates"])
        like = agreed.get(key)
        if like is not None and all(map(is_, members, like)):
            continue  # the very objects _disagreement passed: it would pass them again
        why = _disagreement(trial, kb, outcomes)
        if why:
            return CheckResult("statement1", False, trial["t"], why)
        agreed[key] = members
    return CheckResult("statement1", True)


def _disagreement(trial: dict, kb: KnowledgeBase, outcomes: dict) -> str:
    """Why a trial breaks statement 1 against the sealed KB, or "".

    Its denoised vector must be kb.dim int symbols in [0, kb.alphabet), and its node, depth
    and status that vector's identify outcome, kept in the caller's outcomes (vector ->
    outcome) for later records. An action needs a recognized trial, a trigger equal to the
    node, and a sealed program whose own trigger is the node and whose operation tags it names.
    The pick must agree with its own record: chosen is null exactly when action is, chosen is
    the action's program, chosen is in eligible, eligible lies within the candidate ids, and
    phi_chosen is the chosen candidate's phi (null with no pick).
    """
    (action, _, candidates, chosen, denoised, depth, eligible, _, node, phi_chosen,
     status) = _MEMBERS(trial)
    v = tuple(denoised)
    # 0.0 and False equal 0 as keys, so only a vector of int symbols is looked up
    out = outcomes.get(v) if {int}.issuperset(map(type, v)) else None
    if out is None:
        try:
            check_vector(v, kb.dim, kb.alphabet)
        except ValueError as exc:  # not one of the KB's vectors
            return f"denoised {denoised}: {exc}"
        out = outcomes[v] = identify(kb, v)
    if (node, depth, status) != (out.node, out.depth, out.status):
        return (f"node {node}, depth {depth}, status {status} != "
                f"denoised {denoised}'s node {out.node}, depth {out.depth}, "
                f"status {out.status}")
    if action is not None:
        if status == UNRECOGNIZED:
            return "action on unrecognized trial"
        if action["trigger"] != node:
            return f"trigger {action['trigger']} != recognized node {node}"
        prog = kb.programs.get(action["program"])
        if prog is None:
            return f"program {action['program']} outside sealed KB"
        if prog.trigger != node:
            return f"program {prog.id}'s sealed trigger {prog.trigger} != recognized node {node}"
        if tuple(action["tags"]) != kb.tags[prog.id]:
            return f"action tags differ from program {prog.id}'s operation tags"
    phi = dict(candidates)  # candidate id -> its phi
    if not phi.keys() >= set(eligible):
        return f"eligible {eligible} not within the candidate ids"
    if chosen is None:
        if action is not None:
            return "action with no chosen program"
        if phi_chosen is not None:
            return f"phi_chosen {phi_chosen} with no chosen program"
        return ""
    if action is None:
        return f"chosen {chosen} with no action"
    if chosen != action["program"]:
        return f"chosen {chosen} != action program {action['program']}"
    if chosen not in eligible:
        return f"chosen {chosen} not in eligible {eligible}"
    if phi_chosen != phi[chosen]:
        return f"phi_chosen {phi_chosen} != candidate {chosen}'s phi {phi[chosen]}"
    return ""


def assert_reflex(trials: list[dict], programs) -> list[CheckResult]:
    """Each program never fires before the k-th recognition of its trigger.

    One result per program, in the order given, from one walk over the
    trials. The recurrence count includes the current trial, so the
    earliest legal fire is the trial of the k-th recognition itself.
    """
    by_id = {p.id: p for p in programs}
    recognitions: dict = {}  # node -> recognitions so far
    early: dict[int, CheckResult] = {}  # program id -> its first fire below k
    for trial in trials:
        if trial["status"] != UNRECOGNIZED:
            recognitions[trial["node"]] = recognitions.get(trial["node"], 0) + 1
        action = trial["action"]
        if action is None:
            continue
        program = by_id.get(action["program"])
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
    checks = [assert_closure(header), assert_statement1(header, trials, kb),
              *assert_reflex(trials, kb.programs.values())]
    unrecognized = actions = 0
    for trial in trials:
        if trial["status"] == UNRECOGNIZED:
            unrecognized += 1
        if trial["action"] is not None:
            actions += 1
    return AuditReport(
        checks=tuple(checks),
        digest_before=header["digest_before"],
        digest_after=header["digest_after"],
        trials=len(trials),
        unrecognized_trials=unrecognized,
        actions=actions,
    )
