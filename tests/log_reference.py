"""The log parser and statement 1 check without grouping: every record on its own.

`aprior.audit.parse_log` parses each distinct record once, and
`assert_statement1` runs `_disagreement` once per distinct record; these
are the per-record loops they must agree with, record for record and
message for message. They live apart from oracles.py, which the
benchmark imports on every run. The parser states the record rules
itself and takes only the exception from the module under test; the
check takes the per-record rule, `_disagreement`, whose grouping is what
is under test.
"""
import json

from aprior.audit import CheckResult, MalformedLog, _disagreement
from aprior.kb import enumerate_tasks, finite_number, kb_digest

# header key -> its type, in the order the first wrong one is reported
HEADER_TYPES = {"seed": int, "trials": int, "digest_before": int, "digest_after": int,
                "tasks_before": list, "tasks_after": list}
TRIAL_KEYS = {"t", "n", "denoised", "node", "depth", "status", "action", "agreement",
              "candidates", "eligible", "chosen", "phi_chosen"}
STATUSES = ("full", "partial", "unrecognized")


def well_typed_action(action) -> bool:
    """A dict whose program and trigger are ints and whose tags are a list of strings."""
    if not isinstance(action, dict):
        return False
    tags = action.get("tags")
    return (type(action.get("program")) is int and type(action.get("trigger")) is int
            and isinstance(tags, list) and all(isinstance(tag, str) for tag in tags))


def well_typed_decision(trial: dict) -> bool:
    """candidates are [id, phi] pairs, eligible ids, chosen an id or null, phi_chosen a phi
    or null."""
    candidates, eligible = trial["candidates"], trial["eligible"]
    if type(candidates) is not list or type(eligible) is not list:
        return False
    for pair in candidates:
        if type(pair) is not list or len(pair) != 2:
            return False
        if type(pair[0]) is not int or not finite_number(pair[1]):
            return False
    if any(type(pid) is not int for pid in eligible):
        return False
    if trial["chosen"] is not None and type(trial["chosen"]) is not int:
        return False
    return trial["phi_chosen"] is None or finite_number(trial["phi_chosen"])


def reference_parse_log(text: str) -> tuple[dict, list[dict]]:
    lines = [line for line in text.split("\n") if line.strip()]
    if not lines:
        raise MalformedLog("empty log")
    try:
        header = json.loads(lines[0])
        trials = [json.loads(line) for line in lines[1:]]
    except (ValueError, RecursionError) as exc:
        raise MalformedLog(f"bad JSON: {exc}") from exc
    if not isinstance(header, dict) or not HEADER_TYPES.keys() <= header.keys():
        raise MalformedLog("header missing required keys")
    for key, kind in HEADER_TYPES.items():
        if type(header[key]) is not kind:
            raise MalformedLog(f"header {key} {header[key]!r} is not of type {kind.__name__}")
    if not trials:
        raise MalformedLog("log has no trials")
    if header["trials"] != len(trials):
        raise MalformedLog(f"header names {header['trials']!r} trials, log has {len(trials)}")
    for t, trial in enumerate(trials):
        if not isinstance(trial, dict) or not TRIAL_KEYS <= trial.keys():
            raise MalformedLog("trial record missing required keys")
        if type(trial["t"]) is not int or trial["t"] != t:
            raise MalformedLog(f"record {t} has t={trial['t']!r}")
        if type(trial["node"]) is not int or type(trial["depth"]) is not int:
            raise MalformedLog(f"trial {t}: node or depth is not an integer")
        n, agreement = trial["n"], trial["agreement"]
        if type(n) is not int or n < 1 or not (finite_number(agreement) and 0 <= agreement <= 1):
            raise MalformedLog(f"trial {t}: n {n!r} is not an integer >= 1 "
                               f"or agreement {agreement!r} not a number in [0, 1]")
        denoised = trial["denoised"]
        if type(denoised) is not list or not all(type(s) is int for s in denoised):
            raise MalformedLog(f"trial {t}: denoised is not a list of integers")
        if trial["status"] not in STATUSES:
            raise MalformedLog(f"trial {t}: unknown status {trial['status']!r}")
        if trial["action"] is not None and not well_typed_action(trial["action"]):
            raise MalformedLog(f"trial {t}: action is neither null nor a well-typed object")
        if not well_typed_decision(trial):
            raise MalformedLog(f"trial {t}: ill-typed candidates, eligible, chosen or phi_chosen")
    return header, trials


def reference_statement1(header: dict, trials: list[dict], kb) -> CheckResult:
    """statement1 with `_disagreement` run on every record, in trial order."""
    digest = kb_digest(kb)
    if header["digest_before"] != digest:
        return CheckResult("statement1", False, None,
                           f"log names digest {header['digest_before']}, sealed KB has {digest}")
    if header["tasks_before"] != [[tid, [list(p) for p in pairs]]
                                  for tid, pairs in enumerate_tasks(kb)]:
        return CheckResult("statement1", False, None, "task enumeration differs from sealed KB")
    outcomes: dict = {}
    for trial in trials:
        why = _disagreement(trial, kb, outcomes)
        if why:
            return CheckResult("statement1", False, trial["t"], why)
    return CheckResult("statement1", True)
