"""Mutant catalogue: edits that each break one rule, which tier-1 must catch.

Run from anywhere, with the standard library only:

    python tests/mutants.py              # every entry
    python tests/mutants.py NAME ...     # the named entries only

First the unedited tree must pass tier-1. Then, for each entry, the tree
is copied to a temporary directory, the entry's old text must occur
exactly once in its file, the new text replaces it, and tier-1 runs on
the copy with -x (and a fixed Hypothesis seed, so a run repeats). It
runs without tests/test_mutant_catalogue.py, which checks that same
count and so fails on every edited copy. A red run kills the mutant.
Each entry names its killer, the test file that failed first in the
latest run: that file runs alone first, with the same options, and all
of tier-1 only when none of its tests fails, so a stale killer costs
time, not a verdict. The runner prints a table of killed and surviving
mutants, with the first failing test of each, and exits 1 when a mutant
survives or an entry's old text is not found exactly once (2 when the
unedited tree is red or a copy would import another tree's package).

An equivalent mutant changes no behaviour any input can show, so no test
can kill it. Each is listed with its reason; its old text is checked,
but its tests are not run. pytest does not collect this file: it is no
test_*.py module.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIER1 = ["-m", "pytest", "-q", "-x", "--continue-on-collection-errors", "-p", "no:cacheprovider",
         "--hypothesis-seed=0", "--ignore=tests/test_mutant_catalogue.py"]
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                "*.egg-info", ".benchmarks")
TIMEOUT_S = 1200  # a mutant that makes tier-1 hang counts as killed


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # relative to the repository root
    old: str  # must occur exactly once in file
    new: str
    rule: str  # the rule the edit breaks; for an equivalent mutant, why nothing can show it
    killer: str = ""  # the test file that failed first in the latest run; tier-1 runs it first


# the kernel's trial from its count through its decision table lookup
KERNEL_LOOKUP = (
    "            t = record(state, outcome)\n"
    "            node = outcome.node\n"
    "            table = decisions.get(denoised)\n"
    "            if table is None:\n"
    "                k_max = max((p.reflex_threshold for p in kb.programs_for(node)), default=0)\n"
    "                table = decisions[denoised] = (k_max, {})\n"
    "            k_max, entries = table\n"
    "            # counts past the largest k open no further gate, so they share one entry\n"
    "            key = (hits, min(recurrence.get(node, 0), k_max))\n"
    "            entry = entries.get(key)\n"
    "            if entry is None:  # a miss builds it from the gate rule\n"
    "                entry = entries[key] = _entry(state, denoised, outcome, hits)\n"
    "            picks, pick = entry  # pick: the idle one\n")

MUTANTS = (
    Mutant("memo keyed by truth", "src/aprior/agent.py",
           "key = (program_id, outcome.status, stim)",
           "key = (program_id, outcome.status, stim.truth)",
           "a line holds its own stimulus: the mixed scenario's two omega vectors share a truth",
           killer="tests/test_agent.py"),
    Mutant("memo keyed without status", "src/aprior/agent.py",
           "key = (program_id, outcome.status, stim)",
           "key = (program_id, stim)",
           "a line's status is its own trial's recognition status",
           killer="tests/test_audit.py"),
    Mutant("table keyed by node", "src/aprior/agent.py",
           KERNEL_LOOKUP,
           KERNEL_LOOKUP.replace("decisions.get(denoised)", "decisions.get(outcome.node)")
           .replace("decisions[denoised]", "decisions[outcome.node]"),
           "a pick's text holds its folded vector, so the table is keyed by that vector",
           killer="tests/test_agent.py"),
    Mutant("gate off by one", "src/aprior/agent.py",
           "if p.reflex_threshold <= count",
           "if p.reflex_threshold < count",
           "a threshold-k program fires from the k-th recognition of its trigger on",
           killer="tests/test_acceptance.py"),
    Mutant("recurrence leaves out the current trial", "src/aprior/agent.py",
           KERNEL_LOOKUP,
           KERNEL_LOOKUP.replace("            t = record(state, outcome)\n", "")
           + "            t = record(state, outcome)\n",
           "the recurrence count feeding the gate includes the current trial",
           killer="tests/test_acceptance.py"),
    Mutant("decision key without the cost's sign", "src/aprior/agent.py",
           "key = (n, self.econ.phi0, cost, math.copysign(1.0, cost))",
           "key = (n, self.econ.phi0, cost)",
           "0.0 == -0.0, but a zero cost's sign reaches the logged phis",
           killer="tests/test_agent.py"),
    Mutant("decision key without phi0", "src/aprior/agent.py",
           "key = (n, self.econ.phi0, cost, math.copysign(1.0, cost))",
           "key = (n, cost, math.copysign(1.0, cost))",
           "the DoWhile threshold phi0 decides which programs are eligible",
           killer="tests/test_agent.py"),
    Mutant("selection from the unsorted list", "src/aprior/agent.py",
           "picks = [pick(pid, phi) for pid, phi in ordered]",
           "picks = [pick(pid, phi) for pid, phi in candidates if phi > state.econ.phi0]",
           "the random pick indexes the eligible list by descending phi, then ascending id",
           killer="tests/test_agent.py"),
    Mutant("score drops the second tag", "src/aprior/agent.py",
           "for tag in tags), 0.0)",
           "for tag in tags[:1]), 0.0)",
           "a trial's score sums the scenario's payoff over every tag of the fired program",
           killer="tests/test_agent.py"),
    Mutant("tables not cleared for a new economy", "src/aprior/agent.py",
           "            tables.clear()\n",
           "",
           "a KB keeps the decision table of the latest economy only",
           killer="tests/test_agent.py"),
    Mutant("a parent's programs fire", "src/aprior/agent.py",
           "state.kb.programs_for(outcome.node)",
           "state.kb.programs_for(state.kb.objects[outcome.node].parent)",
           "trigger locality: only programs triggered by the recognized node may fire",
           killer="tests/test_acceptance.py"),
    Mutant("a trial's slice starts one use late", "src/aprior/agent.py",
           "uses[at:at + width]",
           "uses[at + 1:at + width + 1]",
           "trial j of a channel call reads uses j * n * dim up to (j + 1) * n * dim, its own",
           killer="tests/test_acceptance.py"),
    Mutant("a rejected selection word not counted", "src/aprior/agent.py",
           "                    u = draw()\n                    drawn += 1\n",
           "                    u = draw()\n                drawn += 1\n",
           "the selection stream moves past every word a pick drew, rejected words included",
           killer="tests/test_perception.py"),
    Mutant("strict closure check removed", "src/aprior/agent.py",
           "if state.kb.canonical != canonical_before:",
           "if False:",
           "--strict stops on a KB whose canonical bytes changed during the episode",
           killer="tests/test_agent.py"),
    Mutant("agreement from the fold", "src/aprior/perception.py",
           "if table[obs].node == node)",
           "if obs == denoised)",
           "agreement counts the observations that identify to the folded vector's node",
           killer="tests/test_agent.py"),
    Mutant("symbol int check dropped", "src/aprior/perception.py",
           "type(s) is not int or not 0 <= s < alphabet",
           "not 0 <= s < alphabet",
           "1.0 and True equal 1 as keys, so only ints stand for symbols",
           killer="tests/test_agent.py"),
    Mutant("observed stores a vector it did not check", "src/aprior/perception.py",
           "            check_vector(v, kb.dim, kb.alphabet)\n"
           "            table[v] = identify(kb, v)",
           "            table[v] = identify(kb, v)",
           "only kb.dim int symbols in [0, kb.alphabet) enter the recognition table",
           killer="tests/test_agent.py"),
    Mutant("one word counted per corruption", "src/aprior/perception.py",
           "                u = draw()\n                replacements += 1\n",
           "                u = draw()\n            replacements += 1\n",
           "the stream moves past every word drawn, rejected replacement words included",
           killer="tests/test_perception.py"),
    Mutant("replacement word drawn before the corruption word", "src/aprior/perception.py",
           "        if draw() < threshold:\n            u = limit\n",
           "        u = draw()\n        replacements += 1\n        if draw() < threshold:\n",
           "a use draws its corruption word first, and only a corrupted use then draws its "
           "replacement",
           killer="tests/test_agent.py"),
    Mutant("kept tail used at any state", "src/aprior/rng.py",
           "if tail is not None and tail[0] == self.state:",
           "if tail is not None:",
           "a kept tail continues the stream only from the state it stopped at",
           killer="tests/test_perception.py"),
    Mutant("tail set without being cleared first", "src/aprior/rng.py",
           "tail, self._tail = self._tail, None",
           "tail = self._tail",
           "a run of draws that raises, such as a channel call, leaves no tail on the stream",
           killer="tests/test_perception.py"),
    Mutant("moved advances one word short", "src/aprior/rng.py",
           "(self.state + count * GAMMA) & MASK64",
           "(self.state + (count - 1) * GAMMA) & MASK64",
           "a run of draws moves the stream past every word it drew",
           killer="tests/test_agent.py"),
    Mutant("kept tail shared by copy.copy", "src/aprior/rng.py",
           "        return type(self), (self.state,)\n",
           "        return type(self), (self.state,)\n\n"
           "    def __copy__(self):\n"
           "        clone = type(self)(self.state)\n"
           "        clone._tail = self._tail\n"
           "        return clone\n",
           "a copy of a stream shares no iterator with it, so neither draws the other's words",
           killer="tests/test_perception.py"),
    Mutant("refill stride one word short", "src/aprior/rng.py",
           "16 * BLOCK, BLOCK * GAMMA",
           "16 * BLOCK, (BLOCK - 1) * GAMMA",
           "each block of words starts where the last one ended",
           killer="tests/test_agent.py"),
    Mutant("high halves decoded", "src/aprior/rng.py",
           '"Q8x" * BLOCK',
           '"8xQ" * BLOCK',
           "a block's words are the low 64 bits of its 128-bit lanes",
           killer="tests/test_acceptance.py"),
    Mutant("a child equal to its parent accepted", "src/aprior/kb.py",
           "if len(own) <= len(parent_pred):",
           "if len(own) < len(parent_pred):",
           "a child's predicate strictly extends its parent's",
           killer="tests/test_kb.py"),
    Mutant("k = 0 accepted", "src/aprior/kb.py",
           "if type(k) is not int or k < 1:",
           "if type(k) is not int or k < 0:",
           "a program's reflex threshold k is a positive integer",
           killer="tests/test_kb.py"),
    Mutant("sealed maps left as plain dicts", "src/aprior/kb.py",
           "MappingProxyType(dict(sorted(m.items())))",
           "dict(sorted(m.items()))",
           "a sealed KB cannot be updated: its object, task and program maps are read-only",
           killer="tests/test_kb.py"),
    Mutant("overlapping siblings accepted", "src/aprior/kb.py",
           "if not _siblings_exclusive(objects[c1].predicate, objects[c2].predicate):",
           "if False:",
           "sibling predicates are mutually exclusive, so greedy descent is deterministic",
           killer="tests/test_kb.py"),
    Mutant("an operation not applicable to its program's trigger accepted", "src/aprior/kb.py",
           'if trigger not in operations[pid]["applicable_objects"]:',
           "if False:",
           "each operation of a program applies to the program's trigger",
           killer="tests/test_kb.py"),
    Mutant("tags in sorted order", "src/aprior/kb.py",
           'tuple(operations[pid]["action_tag"] for pid in g.operations)',
           'tuple(sorted(operations[pid]["action_tag"] for pid in g.operations))',
           "a program's tags are its operations' tags in the program's own order",
           killer="tests/test_kb.py"),
    Mutant("canonical bytes without utility", "src/aprior/kb.py",
           '"k": g.reflex_threshold, "utility": g.base_utility}',
           '"k": g.reflex_threshold}',
           "the digest covers every sealed value, a program's utility included",
           killer="tests/test_kb.py"),
    Mutant("canonical bytes escape non-ASCII", "src/aprior/digest.py",
           'separators=(",", ":"), ensure_ascii=False',
           'separators=(",", ":")',
           "the canonical form is UTF-8 text, so the digest hashes a non-ASCII tag's own bytes",
           killer="tests/test_episode_oracle.py"),
    Mutant("an omega stimulus that matches a leaf accepted", "src/aprior/world.py",
           "if outcome.status == FULL:\n            raise TruthMismatch(",
           "if False:\n            raise TruthMismatch(",
           "an unknown pattern declared omega may not be recognized as a leaf",
           killer="tests/test_world.py"),
    Mutant("a reflex schedule that repeats one extra", "src/aprior/world.py",
           "return Scenario(kind, entries, repeat, scoring,",
           "return Scenario(kind, entries, repeat + (kind == REFLEX), scoring,",
           "a reflex schedule shows each entry on exactly repeat trials in a row",
           killer="tests/test_world.py"),
    Mutant("scoring ignores the truth", "src/aprior/world.py",
           "return scenario.scoring.get((action_tag, truth), 0.0)",
           "return next((v for (tag, _), v in scenario.scoring.items() if tag == action_tag), "
           "0.0)",
           "an action's payoff depends on the stimulus's ground truth",
           killer="tests/test_agent.py"),
    Mutant("a draw on a cumulative weight picks the entry below", "src/aprior/world.py",
           "from bisect import bisect_right\n",
           "from bisect import bisect_left as bisect_right\n",
           "entry i of a categorical scenario holds the draws in [its lower cumulative weight, "
           "its upper one)",
           killer="tests/test_world.py"),
    Mutant("a sealed KB accepts assignment", "src/aprior/kb.py",
           "    __hash__ = None  # its maps are unhashable\n",
           "    __hash__ = None  # its maps are unhashable\n    __setattr__ = object.__setattr__\n",
           "the KB is sealed: assigning to a field of it raises AttributeError",
           killer="tests/test_records.py"),
    Mutant("Stimulus compared by identity", "src/aprior/world.py",
           'Stimulus = namedtuple("Stimulus", "vector truth")\n',
           'Stimulus = type("Stimulus", (namedtuple("Stimulus", "vector truth"),),\n'
           '                {"__eq__": object.__eq__, "__ne__": object.__ne__,\n'
           '                 "__hash__": object.__hash__})\n',
           "a stimulus compares and hashes by value: two loads of one scenario are equal",
           killer="tests/test_records.py"),
    Mutant("majority_fold tie-break flipped", "src/aprior/perception.py",
           "max(sorted(set(col)), key=col.count)",
           "max(sorted(set(col), reverse=True), key=col.count)",
           "the fold breaks a tie by the lowest symbol",
           killer="tests/test_acceptance.py"),
    Mutant("exact accuracy tie-break flipped", "src/aprior/decision.py",
           "if counts.index(max(counts)) == true_symbol:",
           "if a - 1 - counts[::-1].index(max(counts)) == true_symbol:",
           "the exact accuracy counts a tie for the lowest symbol, as the fold does",
           killer="tests/test_acceptance.py"),
    Mutant("optimal_n ties to the largest n", "src/aprior/decision.py",
           "max(rows, key=lambda row: row[2])",
           "max(reversed(rows), key=lambda row: row[2])",
           "the argmax of phi(n) takes the smallest n of equal phis",
           killer="tests/test_decision.py"),
    Mutant("parse_log accepts a gap in t", "src/aprior/audit.py",
           "own != t:",
           "own < t:",
           "record i of a log has t = i",
           killer="tests/test_audit.py"),
    Mutant("parse_log checks no t on parsed records", "src/aprior/audit.py",
           "if type(own) is not int or own != t:",
           "if type(own) is not int:",
           "a twin whose t digits name another index is parsed in full, and fails on its t",
           killer="tests/test_log_parse.py"),
    Mutant("parse_log accepts a non-int symbol", "src/aprior/audit.py",
           "if type(denoised) is not list or not {int}.issuperset(map(type, denoised)):",
           "if type(denoised) is not list:",
           "a logged denoised vector is a list of int symbols",
           killer="tests/test_log_parse.py"),
    Mutant("parse_log accepts a non-int eligible id", "src/aprior/audit.py",
           "and type(eligible) is list and {int}.issuperset(map(type, eligible))",
           "and type(eligible) is list",
           "a logged eligible list holds program ids, which are ints",
           killer="tests/test_log_parse.py"),
    Mutant("a copy is taken whatever its t digits", "src/aprior/audit.py",
           "line.startswith(digits, cut + 5)",
           "True",
           "a line is looked up only when its t digits are its own index",
           killer="tests/test_log_parse.py"),
    Mutant("parse_log accepts more than one closing brace", "src/aprior/audit.py",
           '"omega"))?\\}\')',
           '"omega"))?\\}+\')',
           "a record is kept for its twins only from a line whose t is a top-level member",
           killer="tests/test_log_parse.py"),
    Mutant("parse_log keys a copy without the text after t", "src/aprior/audit.py",
           "key = line[:cut], line[end:]",
           'key = line[:cut], ""',
           "lines that differ after t, such as in truth, are different records (the one key of "
           "the lookup and of a kept record)",
           killer="tests/test_log_parse.py"),
    Mutant("a parsed record's fault raised before the header's", "src/aprior/audit.py",
           "                fault = fault or _malformed(trial, t)\n",
           "                if fault := fault or _malformed(trial, t):\n"
           "                    raise MalformedLog(fault)\n",
           "a bad JSON line comes first, then the header's fault, then the first record's",
           killer="tests/test_log_parse.py"),
    Mutant("a missing member raises KeyError", "src/aprior/audit.py",
           "except (KeyError, TypeError):  # a member missing, or not a dict",
           "except TypeError:",
           "a trial record without every required member is a malformed log, not a crash",
           killer="tests/test_audit.py"),
    Mutant("parse_log keeps a line with any truth text", "src/aprior/audit.py",
           '(?:-?(?:0|[1-9][0-9]*)|"omega")',
           ".*",
           "a record is kept for its twins only from a line whose truth, if any, is an id or "
           "omega, then the closing brace",
           killer="tests/test_log_parse.py"),
    Mutant("parse_log keys a copy by one concatenated string", "src/aprior/audit.py",
           "key = line[:cut], line[end:]",
           "key = line[:cut] + line[end:]",
           "a copy's key keeps the text before its t apart from the text after its digits, so "
           "lines that differ in member order are different records",
           killer="tests/test_log_parse.py"),
    Mutant("statement1 looks up a vector of non-int symbols", "src/aprior/audit.py",
           "out = outcomes.get(v) if {int}.issuperset(map(type, v)) else None",
           "out = outcomes.get(v)",
           "0.0 and False equal 0 as keys, so the audit looks up only a vector of int symbols",
           killer="tests/test_audit.py"),
    Mutant("the auditor reads the kernel's table", "src/aprior/audit.py",
           "outcomes: dict = {}",
           "outcomes: dict = kb._recognition",
           "the audit derives each outcome from the sealed tree, never from a table the run wrote",
           killer="tests/test_audit.py"),
    Mutant("statement1 skips a record by its candidates list alone", "src/aprior/audit.py",
           "if like is not None and all(map(is_, members, like)):",
           "if like is not None:",
           "statement1 passes a record unchecked only if every member _disagreement reads is an "
           "agreeing record's own object",
           killer="tests/test_log_parse.py"),
    Mutant("auditor closure check removed", "src/aprior/audit.py",
           'if header["digest_before"] != header["digest_after"]:',
           "if False:",
           "closure: the log's digest after the episode equals the one before",
           killer="tests/test_acceptance.py"),
    Mutant("statement1 without the digest comparison", "src/aprior/audit.py",
           'if header["digest_before"] != digest:',
           "if False:",
           "the log must name the sealed KB's digest",
           killer="tests/test_cli.py"),
    Mutant("action on unrecognized trial accepted", "src/aprior/audit.py",
           'if status == UNRECOGNIZED:\n            return "action on unrecognized trial"',
           'if False:\n            return "action on unrecognized trial"',
           "no effector runs on an unrecognized stimulus",
           killer="tests/test_audit.py"),
    Mutant("sealed-trigger check removed", "src/aprior/audit.py",
           "if prog.trigger != node:",
           "if False:",
           "trigger locality is judged by the sealed program's trigger, not the log's copy",
           killer="tests/test_audit.py"),
    Mutant("tags check removed", "src/aprior/audit.py",
           'if tuple(action["tags"]) != kb.tags[prog.id]:',
           "if False:",
           "an action names its sealed program's operation tags, in order",
           killer="tests/test_audit.py"),
    Mutant("eligible ids outside the candidates accepted", "src/aprior/audit.py",
           "if not phi.keys() >= set(eligible):",
           "if False:",
           "a pick's eligible programs lie within its candidates",
           killer="tests/test_audit.py"),
    Mutant("phi_chosen check removed", "src/aprior/audit.py",
           "if phi_chosen != phi[chosen]:",
           "if False:",
           "phi_chosen is the chosen candidate's own phi",
           killer="tests/test_audit.py"),
    Mutant("assert_reflex off by one", "src/aprior/audit.py",
           "if count < program.reflex_threshold:",
           "if count + 1 < program.reflex_threshold:",
           "a program fires no earlier than the k-th recognition of its trigger",
           killer="tests/test_audit.py"),
    Mutant("assert_reflex counts unrecognized trials", "src/aprior/audit.py",
           'if trial["status"] != UNRECOGNIZED:',
           "if True:",
           "only a recognition of its trigger counts toward a program's k",
           killer="tests/test_audit.py"),
    Mutant("report's unrecognized count inverted", "src/aprior/audit.py",
           'if trial["status"] == UNRECOGNIZED:\n            unrecognized += 1',
           'if trial["status"] != UNRECOGNIZED:\n            unrecognized += 1',
           "the report counts the trials whose stimulus was not recognized",
           killer="tests/test_golden.py"),
    Mutant("a rejected KB exits 2", "src/aprior/cli.py",
           "(BuildError, NotLeaf, UnderconstrainedLeaf) as exc:  # two subclass ValueError\n"
           "        _exit(exc, EXIT_CHECK_FAILED)\n"
           "    except (OSError,",
           "(NotLeaf, UnderconstrainedLeaf) as exc:  # two subclass ValueError\n"
           "        _exit(exc, EXIT_CHECK_FAILED)\n"
           "    except (BuildError, OSError,",
           "a KB document that fails validation exits 1, not 2",
           killer="tests/test_cli.py"),
    Mutant("a strict failure exits 2", "src/aprior/cli.py",
           '        print(f"strict audit failed: {exc}", file=sys.stderr)\n'
           "        sys.exit(EXIT_CHECK_FAILED)\n",
           '        print(f"strict audit failed: {exc}", file=sys.stderr)\n'
           "        sys.exit(EXIT_OPERATIONAL)\n",
           "run --strict exits 1 on a failed inline audit, as a failed check",
           killer="tests/test_cli.py"),
)

EQUIVALENT = (
    Mutant("find for rfind", "src/aprior/audit.py",
           "line.rfind(',\"t\":')",
           "line.find(',\"t\":')",
           "a record is kept only when the text after its t fullmatches the tail pattern, so no "
           "kept key holds a second `,\"t\":`; an earlier cut is never kept or found, and only "
           "sends the line to json.loads, which gives the same record"),
)


def _count(mutant: Mutant) -> int:
    return (ROOT / mutant.file).read_text(encoding="utf-8").count(mutant.old)


def _tier1(tree: Path, killer: str = "") -> tuple[bool, str]:
    """(green, first failing test or "") of tier-1 run on tree. Given a killer test file,
    that file runs alone first, and the whole of tier-1 only if none of its tests fails."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(tree / "src"), env.get("PYTHONPATH")]))
    where = subprocess.run([sys.executable, "-c", "import aprior; print(aprior.__file__)"],
                           cwd=tree, env=env, capture_output=True, text=True)
    if not where.stdout.strip().startswith(str(tree)):
        sys.exit(f"the copy imports aprior from {where.stdout.strip() or where.stderr!r}, "
                 f"not from {tree}")

    def run_pytest(*paths) -> tuple[int | None, str]:  # (exit code, None on a hang; first)
        try:
            run = subprocess.run([sys.executable, *TIER1, *paths], cwd=tree, env=env,
                                 capture_output=True, text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return None, f"timed out after {TIMEOUT_S} s"
        return run.returncode, next((line.split(" - ")[0] for line in run.stdout.splitlines()
                                     if line.startswith(("FAILED ", "ERROR "))), "")

    if killer:
        code, first = run_pytest(killer)
        if code in (1, None):  # a test failed, or it hung
            return False, first
    code, first = run_pytest()
    return code == 0, first


def _copy(scratch: str) -> Path:
    tree = Path(scratch) / "tree"
    shutil.rmtree(tree, ignore_errors=True)
    shutil.copytree(ROOT, tree, ignore=IGNORE)
    return tree


def main(names: list[str]) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 1
    rows, failed = [], False
    for mutant in EQUIVALENT:
        count = _count(mutant)
        failed |= count != 1
        rows.append((mutant.name, "equivalent" if count == 1 else f"old text x{count}", "",
                     mutant.rule))
    with tempfile.TemporaryDirectory(prefix="mutants-") as scratch:
        green, first = _tier1(_copy(scratch))
        if not green:
            print(f"the unedited tree fails tier-1 ({first}); no mutant can be judged",
                  file=sys.stderr)
            return 2
        for mutant in chosen:
            count = _count(mutant)
            if count != 1:
                failed = True
                rows.append((mutant.name, f"old text x{count}", "", mutant.rule))
                continue
            tree = _copy(scratch)
            path = tree / mutant.file
            path.write_text(path.read_text(encoding="utf-8").replace(mutant.old, mutant.new),
                            encoding="utf-8")
            start = time.perf_counter()
            green, first = _tier1(tree, mutant.killer)
            failed |= green
            status = "SURVIVED" if green else "killed"
            rows.append((mutant.name, status, f"{time.perf_counter() - start:.0f} s",
                         first or mutant.rule))
    width = max(len(row[0]) for row in rows)
    for name, status, seconds, note in rows:
        print(f"{name:<{width}}  {status:<10}  {seconds:>6}  {note}")
    killed = sum(row[1] == "killed" for row in rows)
    print(f"{killed} killed of {len(chosen)}; {len(EQUIVALENT)} equivalent")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
