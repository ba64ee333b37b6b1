"""The auditor handles each distinct record once; it must agree with the per-record loops.

Every case mutates a real log: a 1000-trial C1 episode (about 90 distinct
records) or a 144-trial deep-KB reflex episode (mostly distinct ones).
parse_log and the full parse must return the same records, member order
included, or raise MalformedLog with the same message. assert_statement1
and the loop that runs `_disagreement` on every record must return the
same result after records are edited in place, replaced or deep-copied.
"""
import copy
import functools
import importlib.util
import json
import math
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aprior.agent import AgentState, run_episode
from aprior.audit import MalformedLog, assert_statement1, parse_log
from aprior.decision import MeasurementEconomy
from aprior.kb import build_kb
from aprior.perception import ChannelParams
from aprior.world import load_scenario
from conftest import invoke, mixed_scenario_doc, three_node_doc
from log_reference import reference_parse_log, reference_statement1

DEEPKB_PY = Path(__file__).resolve().parent.parent / "perfbench" / "deepkb.py"
T_DIGITS = re.compile(r',"t":(-?[0-9]+)')


def _episode_lines(kb_doc, scenario_doc, epsilon, cost, fixed_n, trials):
    kb = build_kb(kb_doc)
    state = AgentState(kb=kb, params=ChannelParams(epsilon=epsilon, alphabet=kb.alphabet,
                                                   dim=kb.dim),
                       econ=MeasurementEconomy(value=1.0, cost=cost, phi0=0.0, n_max=9),
                       seed=0, fixed_n=fixed_n)
    text = run_episode(state, load_scenario(scenario_doc, kb), trials).to_jsonl()
    return tuple(text.splitlines())


@functools.cache
def kb_doc_and_scenario(name: str) -> tuple[dict, dict]:
    """The documents of a C1 or a deep-KB episode."""
    if name == "c1":
        return three_node_doc(), mixed_scenario_doc()
    spec = importlib.util.spec_from_file_location("perfbench_deepkb", DEEPKB_PY)
    deepkb = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(deepkb)
    return deepkb.generate(0)


@functools.cache
def log_lines(name: str) -> tuple[str, ...]:
    """The header and trial lines of a C1 or a deep-KB episode log."""
    if name == "c1":
        return _episode_lines(*kb_doc_and_scenario(name), 0.3, 0.02, 3, 1000)
    return _episode_lines(*kb_doc_and_scenario(name), 0.2, 0.01, None, 144)


def outcome(parse, text: str):
    """The records, each as its (member, value) list, or the MalformedLog message."""
    try:
        header, trials = parse(text)
    except MalformedLog as exc:
        return f"MalformedLog: {exc}"
    return [list(record.items()) for record in (header, *trials)]


def assert_agree(lines) -> str | list:
    text = "\n".join(lines) + "\n"
    expected = outcome(reference_parse_log, text)
    assert outcome(parse_log, text) == expected
    return expected


def last_t(line: str):
    """The match of the line's last `,"t":` integer, or None."""
    return next(reversed(list(T_DIGITS.finditer(line))), None)


def set_t(line: str, text: str) -> str:
    """The line with its last `,"t":` integer replaced by text."""
    match = last_t(line)
    return line if match is None else line[:match.start(1)] + text + line[match.end(1):]


def without_t(line: str) -> str:
    return set_t(line, "")


def repeats(lines) -> list[int]:
    """Indices of the trial lines whose text, less the t digits, came before."""
    seen, out = set(), []
    for i, line in enumerate(lines[1:], 1):
        key = without_t(line)
        if key in seen:
            out.append(i)
        seen.add(key)
    return out


def redump(line: str, edit) -> str:
    """The line re-encoded as the agent writes it, after edit(record); bad JSON stays."""
    try:
        record = json.loads(line)
    except ValueError:
        return line
    if not isinstance(record, dict):
        return line
    edit(record)
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 20) | st.integers()
    | st.floats(allow_nan=False) | st.sampled_from(["omega", "full", "partial", "unrecognized",
                                                    ',"t":1}', "x"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["t", "program", "trigger", "tags", "x"]), inner,
                      max_size=3),
    max_leaves=6)

T_TEXTS = ["007", "00", "-0", "-1", "1" * 5000, "9" * 18, "9" * 19, "1.0", "1e2", "true",
           "null", '"5"', "[1]", '{"t":1}']
TRUTHS = [-3, "omega", 0, 11, "x", 1.5, None, True, [0], {"t": 1}]
STRINGS_WITH_T = ['x","t":1,"truth":2}', ',"t":5}', '"t":', 't":3}',
                  ',"t":0,"truth":"omega"}']
MEMBERS = ["action", "agreement", "candidates", "chosen", "denoised", "depth", "eligible", "n",
           "node", "phi_chosen", "score", "status", "stimulus", "t", "truth", "x",
           "seed", "trials", "digest_before", "digest_after", "tasks_before", "tasks_after"]


def _edit_nested(record, key, index, value):
    box = record.get(key)
    if isinstance(box, (list, dict)) and box:
        keys = sorted(box) if isinstance(box, dict) else range(len(box))
        box[list(keys)[index % len(keys)]] = value


@st.composite
def line_edits(draw):
    """An edit of one line's text; its parameters are drawn once, so twin lines stay twins."""
    kind = draw(st.sampled_from([
        "value", "drop", "nested", "truth", "no_truth", "crlf", "spacing", "key_order",
        "t_last", "nested_t_action", "nested_t_tail", "two_t", "string_t", "raw_string_t",
        "truncate"]))
    key, value = draw(st.sampled_from(MEMBERS)), draw(JSON_VALUES)
    n, note = draw(st.sampled_from(["0", "1", "7"])), draw(st.sampled_from(STRINGS_WITH_T))
    variant, cut = draw(st.integers(0, 4)), draw(st.integers(0, 400))
    if kind == "value":
        return lambda line: redump(line, lambda r: r.__setitem__(key, value))
    if kind == "drop":
        return lambda line: redump(line, lambda r: r.pop(key, None))
    if kind == "nested":
        return lambda line: redump(line, lambda r: _edit_nested(r, key, variant, value))
    if kind == "truth":
        truth = TRUTHS[cut % len(TRUTHS)]
        return lambda line: redump(line, lambda r: r.__setitem__("truth", truth))
    if kind == "no_truth":
        return lambda line: redump(line, lambda r: r.pop("truth", None))
    if kind == "crlf":
        return lambda line: line + "\r"
    if kind == "spacing":
        return lambda line: [
            line.replace(',"t":', ', "t":'), line.replace(',"t":', ',"t": '),
            line.replace(":", ": "), line.replace("}", " }"), " " + line][variant]
    if kind in ("key_order", "t_last"):
        return lambda line: _reorder(line, reverse=kind == "key_order")
    if kind == "nested_t_action":
        return lambda line: (line.replace('"action":{', f'"action":{{"t":{n},') if variant % 2
                             else re.sub(r'("trigger":-?[0-9]+)}', rf'\1,"t":{n}}}', line))
    if kind == "nested_t_tail":
        return lambda line: line[:-1] + (f',"zz":{{"a":0,"t":{n}}}}}' if variant % 2
                                         else f',"zz":[{{"a":0,"t":{n}}}]}}')
    if kind == "two_t":
        first = T_TEXTS[cut % len(T_TEXTS)] if variant else n
        return lambda line: '{"t":' + first + "," + line[1:]
    if kind == "string_t":
        quoted = json.dumps(note)
        return lambda line: [
            '{"note":' + quoted + "," + line[1:],
            line.replace('"tags":[', f'"tags":[{quoted},'),
            line.replace('"status":"', '"status":"\\",\\"t\\":1}'),
        ][variant % 3]
    if kind == "raw_string_t":
        return lambda line: '{"note":"' + note + '",' + line[1:]
    return lambda line: line[:cut]  # truncate


def _reorder(line: str, reverse: bool) -> str:
    """Reversed member order, or the same order with t moved last: both compact."""
    try:
        record = json.loads(line)
    except ValueError:
        return line
    if not isinstance(record, dict):
        return line
    items = list(record.items())
    if reverse:
        items.reverse()
    elif "t" in record:
        items = [item for item in items if item[0] != "t"] + [("t", record["t"])]
    return json.dumps(dict(items), separators=(",", ":"))


@st.composite
def mutated_logs(draw, names=("c1", "deep")):
    """A real log's lines after up to four edits; a line edit may reach its twins or all."""
    lines = list(log_lines(draw(st.sampled_from(names))))
    for _ in range(draw(st.integers(0, 4))):
        if len(lines) < 2:
            break
        kind = draw(st.sampled_from(["line", "line", "line", "t", "duplicate", "delete",
                                     "blank"]))
        if kind == "t":  # usually a repeat, which parse_log copies
            twins = repeats(lines)
            i = draw(st.sampled_from(twins)) if twins else draw(st.integers(1, len(lines) - 1))
            match = last_t(lines[i])
            t = int(match[1]) if match and len(match[1]) < 19 else 0  # below the digit limit
            lines[i] = set_t(lines[i], draw(st.sampled_from([str(t - 1), str(t + 1), *T_TEXTS])))
        elif kind in ("duplicate", "delete"):
            i, j = draw(st.integers(1, len(lines) - 1)), draw(st.integers(1, len(lines)))
            if kind == "duplicate":
                lines.insert(j, lines[i])
            else:
                del lines[i]
            if draw(st.booleans()):  # renumber: a well-formed log with other repeats
                lines = [redump(lines[0], lambda r: r.__setitem__("trials", len(lines) - 1)),
                         *(set_t(line, str(t)) for t, line in enumerate(lines[1:]))]
        elif kind == "blank":
            lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "  ", "\r"])))
        else:
            edit = draw(line_edits())
            i = draw(st.integers(0, len(lines) - 1))
            scope = draw(st.sampled_from(["one", "twins", "all"])) if i else "one"
            key = without_t(lines[i])
            for j in range(1, len(lines)) if scope != "one" else [i]:
                if scope != "twins" or without_t(lines[j]) == key:
                    lines[j] = edit(lines[j])
    return lines


@settings(max_examples=150, deadline=None)
@given(mutated_logs())
def test_parse_log_agrees_with_the_full_parse(lines):
    assert_agree(lines)


def _off_by_one(lines):
    i = repeats(lines)[5]  # trial i - 1 takes its predecessor's index
    lines[i] = set_t(lines[i], str(i - 2))
    return lines


def _counting(member):
    """Trial 0's line on every trial, with a last member whose nested t counts the trials."""
    def apply(lines):
        return [lines[0], *(lines[1][:-1] + member % k for k in range(len(lines) - 1))]
    return apply


def _everywhere(edit):
    return lambda lines: [lines[0], *map(edit, lines[1:])]


def _at_repeat(edit, k=3):
    def apply(lines):
        i = repeats(lines)[k]
        lines[i] = edit(lines[i])
        return lines
    return apply


def _acting(edit):
    def apply(lines):
        i = next(i for i in repeats(lines) if '"action":{' in lines[i])
        lines[i] = edit(lines[i])
        return lines
    return apply


def _repeat_t(digits, k=3):
    """At a repeat, t's digits as digits(its index, its first twin's index)."""
    def apply(lines):
        i = repeats(lines)[k]
        j = next(j for j in range(1, i) if without_t(lines[j]) == without_t(lines[i]))
        lines[i] = set_t(lines[i], digits(i - 1, j - 1))
        return lines
    return apply


def _then(*edits):
    def apply(lines):
        for edit in edits:
            lines = edit(lines)
        return lines
    return apply


def _at_line(i, edit):
    def apply(lines):
        lines[i] = edit(lines[i])
        return lines
    return apply


def ill_typed(line: str) -> str:
    return redump(line, lambda r: r.update(node="11"))

CASES = {
    "honest": lambda lines: lines,
    "repeat with t off by one": _off_by_one,
    "t 007": _at_repeat(lambda line: set_t(line, "007")),
    "t of 5000 digits": _at_repeat(lambda line: set_t(line, "1" * 5000)),
    "t of 19 digits": _at_repeat(lambda line: set_t(line, "9" * 19)),
    "nested t first in action": _acting(
        lambda line: line.replace('"action":{', '"action":{"t":5,')),
    "nested t last in action": _acting(
        lambda line: re.sub(r'("trigger":-?[0-9]+)}', r'\1,"t":5}', line)),
    "nested t in a last member": _everywhere(lambda line: line[:-1] + ',"zz":{"a":0,"t":1}}'),
    "nested t counting trials": _counting(',"zz":{"a":0,"t":%d}}'),
    "nested t and truth counting trials": _counting(',"zz":{"a":0,"t":%d,"truth":1}}'),
    "t last on every other line": lambda lines: [
        _reorder(line, reverse=False) if i % 2 else line for i, line in enumerate(lines)],
    "two top-level t": _everywhere(lambda line: '{"t":0,' + line[1:]),
    "string holding t": _everywhere(
        lambda line: '{"note":' + json.dumps(',"t":1,"truth":2}') + "," + line[1:]),
    "raw string holding t": _at_repeat(lambda line: '{"note":"x,"t":1},' + line[1:]),
    "crlf": _everywhere(lambda line: line + "\r"),
    "foreign spacing": _everywhere(lambda line: line.replace(":", ": ")),
    "spacing before t": _everywhere(lambda line: line.replace(',"t":', ', "t":')),
    "key order reversed": _everywhere(lambda line: _reorder(line, reverse=True)),
    "t last": _everywhere(lambda line: _reorder(line, reverse=False)),
    "negative truth": _everywhere(lambda line: redump(line, lambda r: r.update(truth=-3))),
    "omega truth": _everywhere(lambda line: redump(line, lambda r: r.update(truth="omega"))),
    "missing truth": _everywhere(lambda line: redump(line, lambda r: r.pop("truth"))),
    "truth changed on one repeat": _at_repeat(
        lambda line: redump(line, lambda r: r.update(truth=-3))),
    "object truth": _at_repeat(lambda line: redump(line, lambda r: r.update(truth={"t": 1}))),
    "blank lines": lambda lines: [x for line in lines for x in (line, "", "  ")],
    "ill-typed repeat": _at_repeat(ill_typed),
    # 0.0 and False equal 0, so only their types tell them from an honest vector
    "float and boolean symbols": _at_repeat(
        lambda line: redump(line, lambda r: r.update(denoised=[0.0, False, *r["denoised"][2:]]))),
    "dropped key": _at_repeat(lambda line: redump(line, lambda r: r.pop("eligible"))),
    "twin t is its index with a leading zero": _repeat_t(lambda t, first: f"0{t}"),
    "twin t names another index": _repeat_t(lambda t, first: str(first)),
    "twin t is its index and one more digit": _repeat_t(lambda t, first: f"{t}0"),
    "wrong-t copy before an ill-typed fresh record": _then(
        _off_by_one, _at_line(-1, ill_typed)),
    "ill-typed fresh record before a bad-JSON line": _then(
        _at_line(1, ill_typed), _at_line(-1, lambda line: line[:-1])),
    "ill-typed fresh record under a boolean trial count": _then(
        _at_line(0, lambda line: redump(line, lambda r: r.update(trials=True))),
        _at_line(1, ill_typed)),
    "ill-typed fresh record under a wrong trial count": _then(
        _at_line(0, lambda line: redump(line, lambda r: r.update(trials=r["trials"] + 1))),
        _at_line(1, ill_typed)),
}


MALFORMED = {"repeat with t off by one", "t 007", "t of 5000 digits", "t of 19 digits",
             "raw string holding t", "ill-typed repeat", "float and boolean symbols",
             "dropped key",
             "nested t counting trials", "nested t and truth counting trials",
             "twin t is its index with a leading zero", "twin t names another index",
             "twin t is its index and one more digit",
             "wrong-t copy before an ill-typed fresh record",
             "ill-typed fresh record before a bad-JSON line",
             "ill-typed fresh record under a boolean trial count",
             "ill-typed fresh record under a wrong trial count"}


@pytest.mark.parametrize("name", ["c1", "deep"])
@pytest.mark.parametrize("case", CASES)
def test_parse_log_agrees_on_each_listed_case(name, case):
    expected = assert_agree(CASES[case](list(log_lines(name))))
    assert isinstance(expected, str) == (case in MALFORMED), expected


def test_a_repeat_with_the_wrong_t_is_caught():
    i = repeats(log_lines("c1"))[5]
    assert assert_agree(_off_by_one(list(log_lines("c1")))) == (
        f"MalformedLog: record {i - 1} has t={i - 2}")


def test_records_from_twin_lines_share_nested_values_only():
    lines = log_lines("c1")
    i = next(i for i in repeats(lines) if '"candidates":[]' not in lines[i])
    j = next(j for j in range(1, i) if without_t(lines[j]) == without_t(lines[i]))
    _, trials = parse_log("\n".join(lines) + "\n")
    first, twin = trials[j - 1], trials[i - 1]
    assert (first["t"], twin["t"]) == (j - 1, i - 1)
    assert first["candidates"] is twin["candidates"]  # as parse_log's docstring says
    before = copy.deepcopy(first)
    twin.update(status="unrecognized", candidates=[], action=None, t=0)
    assert first == before and first["candidates"]


@functools.cache
def log_kb(name: str):
    return build_kb(copy.deepcopy(kb_doc_and_scenario(name)[0]))


def statement1_outcome(check, header, trials, kb):
    """The CheckResult, or the exception's type and message."""
    try:
        return check(header, trials, kb)
    except Exception as exc:  # an edit may leave a member no rule can read
        return f"{type(exc).__name__}: {exc}"


def copies(trials) -> list[int]:
    """Indices of the records whose candidates list an earlier record holds too."""
    seen, out = set(), []
    for i, trial in enumerate(trials):
        if id(trial["candidates"]) in seen:
            out.append(i)
        seen.add(id(trial["candidates"]))
    return out


SCALARS = ["phi_chosen", "node", "chosen", "depth", "status"]
EQUAL = "an equal new object"
SCALAR_VALUES = [1, True, 1.0, -0.0, math.nan, EQUAL]


def scalar(old, value):
    """value, or for EQUAL a new object equal to old: a float for a number, a new string."""
    if value is not EQUAL:
        return value
    if isinstance(old, str):
        return old[:1] + old[1:]
    return float(old) if isinstance(old, (int, float)) else copy.deepcopy(old)


READ = ["candidates", "node", "depth", "status", "action", "chosen", "eligible", "denoised",
        "phi_chosen"]


def _nested(trial, kind, value):
    """An edit inside one of the record's lists or its action, shared with its copies."""
    box = {"phi": trial["candidates"], "candidate": trial["candidates"],
           "eligible": trial["eligible"], "denoised": trial["denoised"],
           "program": trial["action"], "tags": trial["action"]}[kind]
    if not box:
        return
    if kind == "phi":
        box[0][1] = value
    elif kind == "candidate":
        box.append([99, 0.5])
    elif kind in ("eligible", "denoised"):
        box[-1] = value
    elif kind == "program":
        box["program"] = value
    else:
        box["tags"].reverse()


NESTED = ["phi", "candidate", "eligible", "denoised", "program", "tags"]


@st.composite
def record_edits(draw):
    """An edit of a parsed log's records: a scalar, a replaced member, a shared nested value
    or a deep copy, mostly of a record that is a copy of an earlier one."""
    kind = draw(st.sampled_from(["scalar", "replace", "nested", "deep"]))
    pick, value = draw(st.integers(0, 10 ** 6)), draw(st.sampled_from(SCALAR_VALUES + [0, 7]))
    inner = 0.5 if value is EQUAL else value  # the value of a nested edit
    member, read = draw(st.sampled_from(SCALARS)), draw(st.sampled_from(READ))
    nested, on_copy = draw(st.sampled_from(NESTED)), draw(st.integers(0, 3)) > 0

    def apply(trials):
        pool = copies(trials) if on_copy else []
        i = pool[pick % len(pool)] if pool else pick % len(trials)
        trial = trials[i]
        if kind == "scalar":
            trial[member] = scalar(trial[member], value)
        elif kind == "replace":  # an equal object on this record alone, maybe edited inside
            trial[read] = copy.deepcopy(trial[read])
            if pick % 2:
                _nested(trial, nested, inner)
        elif kind == "nested":
            _nested(trial, nested, inner)
        else:
            trial = trials[i] = copy.deepcopy(trial)
            if pick % 2:
                _nested(trial, nested, inner)
            else:
                trial[member] = scalar(trial[member], value)
    return apply


def assert_statement1_agrees(name, *edits):
    header, trials = parse_log("\n".join(log_lines(name)) + "\n")
    for edit in edits:
        edit(trials)
    kb = log_kb(name)
    expected = statement1_outcome(reference_statement1, header, trials, kb)
    assert statement1_outcome(assert_statement1, header, trials, kb) == expected
    return expected


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["c1", "deep"]), st.lists(record_edits(), min_size=1, max_size=3))
def test_grouped_statement1_agrees_with_the_per_record_loop(name, edits):
    assert_statement1_agrees(name, *edits)


def _on_acting_copy(edit):
    def apply(trials):
        i = next(i for i in copies(trials) if trials[i]["chosen"] is not None)
        edit(trials, i)
    return apply


@pytest.mark.parametrize("name", ["c1", "deep"])
@pytest.mark.parametrize("value", SCALAR_VALUES, ids=repr)
@pytest.mark.parametrize("member", SCALARS)
def test_grouped_statement1_checks_a_copy_with_an_edited_scalar(name, member, value):
    olds = []

    def edit(trials, i):
        olds.append(trials[i][member])
        trials[i][member] = scalar(olds[0], value)
    result = assert_statement1_agrees(name, _on_acting_copy(edit))
    # an equal value, as 1.0 is to 1 and -0.0 to 0.0, passes like its twins; nan equals nothing
    assert result.passed == (scalar(olds[0], value) == olds[0]), result


WHOLE_EDITS = {
    "member replaced on one copy": lambda trials, i: trials[i].__setitem__(
        "candidates", [[pid, phi + 1] for pid, phi in trials[i]["candidates"]]),
    "shared list edited in place": lambda trials, i: trials[i]["eligible"].append(999),
    "deep copy edited": lambda trials, i: trials.__setitem__(
        i, dict(copy.deepcopy(trials[i]), chosen=999)),
    "equal member replaced on one copy": lambda trials, i: trials[i].__setitem__(
        "action", copy.deepcopy(trials[i]["action"])),
}


@pytest.mark.parametrize("name", ["c1", "deep"])
@pytest.mark.parametrize("case", WHOLE_EDITS)
def test_grouped_statement1_agrees_on_each_listed_edit(name, case):
    result = assert_statement1_agrees(name, _on_acting_copy(WHOLE_EDITS[case]))
    assert result.passed == (case == "equal member replaced on one copy"), result


@pytest.fixture(scope="module")
def audit_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("audit")
    (path / "kb.json").write_text(json.dumps(three_node_doc()), encoding="utf-8")
    return path


@settings(max_examples=60, deadline=None)
@given(mutated_logs(names=("c1",)))
def test_audit_of_a_mutated_log_keeps_the_exit_code_contract(audit_dir, lines):
    log = audit_dir / "log.jsonl"
    log.write_text("\n".join(lines) + "\n", encoding="utf-8")
    result = invoke(["audit", str(log), "--kb", str(audit_dir / "kb.json")])
    assert result.code in (0, 1, 2), result.err
    assert "Traceback" not in result.err
