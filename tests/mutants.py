"""Mutant catalogue: edits that each break one rule, which tier-1 must catch.

Run from anywhere, with the standard library only:

    python tests/mutants.py              # every entry
    python tests/mutants.py NAME ...     # the named entries only

First the unedited tree must pass tier-1. Then, for each entry, the tree
is copied to a temporary directory, the entry's old text must occur
exactly once in its file, the new text replaces it, and tier-1 runs on
the copy with -x (and a fixed Hypothesis seed, so a run repeats). It runs
without tests/test_mutant_catalogue.py, which checks that same count and
so fails on every edited copy. A red run kills the mutant. The runner
prints a table of killed and surviving mutants, with the first failing
test of each, and exits 1 when a mutant survives or an entry's old text
is not found exactly once (2 when the unedited tree is red or a copy
would import another tree's package).

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


MUTANTS = (
    Mutant("memo keyed by truth", "src/aprior/agent.py",
           "key = (program_id, outcome.status, stim)",
           "key = (program_id, outcome.status, stim.truth)",
           "a line holds its own stimulus: the mixed scenario's two omega vectors share a truth"),
    Mutant("memo keyed without status", "src/aprior/agent.py",
           "key = (program_id, outcome.status, stim)",
           "key = (program_id, stim)",
           "a line's status is its own trial's recognition status"),
    Mutant("table keyed by node", "src/aprior/agent.py",
           "    table = state.decisions.get(denoised)\n"
           "    if table is None:\n"
           "        k_max = max((p.reflex_threshold for p in state.kb.programs_for(node)), default=0)\n"
           "        table = state.decisions[denoised] = (k_max, {})\n",
           "    table = state.decisions.get(node)\n"
           "    if table is None:\n"
           "        k_max = max((p.reflex_threshold for p in state.kb.programs_for(node)), default=0)\n"
           "        table = state.decisions[node] = (k_max, {})\n",
           "a pick's text holds its folded vector, so the table is keyed by that vector"),
    Mutant("gate off by one", "src/aprior/agent.py",
           "if p.reflex_threshold <= count",
           "if p.reflex_threshold < count",
           "a threshold-k program fires from the k-th recognition of its trigger on"),
    Mutant("recurrence leaves out the current trial", "src/aprior/agent.py",
           "            t = record(state, outcome)\n"
           "            picks, pick = _decision(state, denoised, outcome, hits)",
           "            picks, pick = _decision(state, denoised, outcome, hits)\n"
           "            t = record(state, outcome)",
           "the recurrence count feeding the gate includes the current trial"),
    Mutant("decision key without the cost's sign", "src/aprior/agent.py",
           "key = (n, self.econ.phi0, cost, math.copysign(1.0, cost))",
           "key = (n, self.econ.phi0, cost)",
           "0.0 == -0.0, but a zero cost's sign reaches the logged phis"),
    Mutant("decision key without phi0", "src/aprior/agent.py",
           "key = (n, self.econ.phi0, cost, math.copysign(1.0, cost))",
           "key = (n, cost, math.copysign(1.0, cost))",
           "the DoWhile threshold phi0 decides which programs are eligible"),
    Mutant("selection from the unsorted list", "src/aprior/agent.py",
           "picks = [pick(pid, phi) for pid, phi in ordered]",
           "picks = [pick(pid, phi) for pid, phi in candidates if phi > state.econ.phi0]",
           "the random pick indexes the eligible list by descending phi, then ascending id"),
    Mutant("score drops the second tag", "src/aprior/agent.py",
           "for tag in tags), 0.0)",
           "for tag in tags[:1]), 0.0)",
           "a trial's score sums the scenario's payoff over every tag of the fired program"),
    Mutant("tables not cleared for a new economy", "src/aprior/agent.py",
           "            tables.clear()\n",
           "",
           "a KB keeps the decision table of the latest economy only"),
    Mutant("a parent's programs fire", "src/aprior/agent.py",
           "state.kb.programs_for(outcome.node)",
           "state.kb.programs_for(state.kb.objects[outcome.node].parent)",
           "trigger locality: only programs triggered by the recognized node may fire"),
    Mutant("a trial's slice starts one use late", "src/aprior/agent.py",
           "uses[at:at + width]",
           "uses[at + 1:at + width + 1]",
           "trial j of a channel call reads uses j * n * dim up to (j + 1) * n * dim, its own"),
    Mutant("a rejected selection word not counted", "src/aprior/agent.py",
           "                    u = draw()\n                    drawn += 1\n",
           "                    u = draw()\n                drawn += 1\n",
           "the selection stream moves past every word a pick drew, rejected words included"),
    Mutant("strict closure check removed", "src/aprior/agent.py",
           "if state.kb.canonical != canonical_before:",
           "if False:",
           "--strict stops on a KB whose canonical bytes changed during the episode"),
    Mutant("agreement from the fold", "src/aprior/perception.py",
           "if table[obs].node == node)",
           "if obs == denoised)",
           "agreement counts the observations that identify to the folded vector's node"),
    Mutant("symbol int check dropped", "src/aprior/perception.py",
           "type(s) is not int or not 0 <= s < alphabet",
           "not 0 <= s < alphabet",
           "1.0 and True equal 1 as keys, so only ints stand for symbols"),
    Mutant("one word counted per corruption", "src/aprior/perception.py",
           "                u = draw()\n                replacements += 1\n",
           "                u = draw()\n            replacements += 1\n",
           "the stream moves past every word drawn, rejected replacement words included"),
    Mutant("replacement word drawn before the corruption word", "src/aprior/perception.py",
           "        if draw() < threshold:\n            u = limit\n",
           "        u = draw()\n        replacements += 1\n        if draw() < threshold:\n",
           "a use draws its corruption word first, and only a corrupted use then draws its "
           "replacement"),
    Mutant("kept tail used at any state", "src/aprior/rng.py",
           "if tail is not None and tail[0] == self.state:",
           "if tail is not None:",
           "a kept tail continues the stream only from the state it stopped at"),
    Mutant("tail set without being cleared first", "src/aprior/rng.py",
           "tail, self._tail = self._tail, None",
           "tail = self._tail",
           "a run of draws that raises, such as a channel call, leaves no tail on the stream"),
    Mutant("next_u64 draws on a tail kept at another state", "src/aprior/rng.py",
           "tail[1] if tail is not None and tail[0] == state else",
           "tail[1] if tail is not None else",
           "a word drawn after a state write is the word at the written state"),
    Mutant("moved advances one word short", "src/aprior/rng.py",
           "(self.state + count * GAMMA) & MASK64",
           "(self.state + (count - 1) * GAMMA) & MASK64",
           "a run of draws moves the stream past every word it drew"),
    Mutant("kept tail shared by copy.copy", "src/aprior/rng.py",
           "        return type(self), (self.state,)\n",
           "        return type(self), (self.state,)\n\n"
           "    def __copy__(self):\n"
           "        clone = type(self)(self.state)\n"
           "        clone._tail = self._tail\n"
           "        return clone\n",
           "a copy of a stream shares no iterator with it, so neither draws the other's words"),
    Mutant("refill stride one word short", "src/aprior/rng.py",
           "16 * BLOCK, BLOCK * GAMMA",
           "16 * BLOCK, (BLOCK - 1) * GAMMA",
           "each block of words starts where the last one ended"),
    Mutant("high halves decoded", "src/aprior/rng.py",
           '"Q8x" * BLOCK',
           '"8xQ" * BLOCK',
           "a block's words are the low 64 bits of its 128-bit lanes"),
    Mutant("a child equal to its parent accepted", "src/aprior/kb.py",
           "if len(own) <= len(parent_pred):",
           "if len(own) < len(parent_pred):",
           "a child's predicate strictly extends its parent's"),
    Mutant("k = 0 accepted", "src/aprior/kb.py",
           "if type(k) is not int or k < 1:",
           "if type(k) is not int or k < 0:",
           "a program's reflex threshold k is a positive integer"),
    Mutant("a draw on a cumulative weight picks the entry below", "src/aprior/world.py",
           "from bisect import bisect_right\n",
           "from bisect import bisect_left as bisect_right\n",
           "entry i of a categorical scenario holds the draws in [its lower cumulative weight, "
           "its upper one)"),
    Mutant("majority_fold tie-break flipped", "src/aprior/perception.py",
           "max(sorted(set(col)), key=col.count)",
           "max(sorted(set(col), reverse=True), key=col.count)",
           "the fold breaks a tie by the lowest symbol"),
    Mutant("exact accuracy tie-break flipped", "src/aprior/decision.py",
           "if counts.index(max(counts)) == true_symbol:",
           "if a - 1 - counts[::-1].index(max(counts)) == true_symbol:",
           "the exact accuracy counts a tie for the lowest symbol, as the fold does"),
    Mutant("optimal_n ties to the largest n", "src/aprior/decision.py",
           "max(rows, key=lambda row: row[2])",
           "max(reversed(rows), key=lambda row: row[2])",
           "the argmax of phi(n) takes the smallest n of equal phis"),
    Mutant("parse_log accepts a gap in t", "src/aprior/audit.py",
           'trial["t"] != t:',
           'trial["t"] < t:',
           "record i of a log has t = i"),
    Mutant("parse_log accepts leading zeros in t", "src/aprior/audit.py",
           "(0|[1-9][0-9]{0,17})",
           "([0-9]{1,18})",
           "a copied record's t is a JSON number, as json.loads would read it"),
    Mutant("parse_log checks no t on copies", "src/aprior/audit.py",
           'if type(trial["t"]) is not int or trial["t"] != t:',
           'if own and (type(trial["t"]) is not int or trial["t"] != t):',
           "a copied record's t is checked like any other"),
    Mutant("parse_log accepts more than one closing brace", "src/aprior/audit.py",
           '"omega"))?\\})',
           '"omega"))?\\}+)',
           "a copy is taken only from a line that json.loads would read as the same record"),
    Mutant("parse_log keys a copy without the text after t", "src/aprior/audit.py",
           "(line[:cut], tail[2])",
           "(line[:cut], \"\")",
           "lines that differ after t, such as in truth, are different records"),
    Mutant("parse_log checks no keys", "src/aprior/audit.py",
           "not isinstance(trial, dict) or not _TRIAL_KEYS <= trial.keys()",
           "not isinstance(trial, dict)",
           "a trial record holds every required member"),
    Mutant("auditor closure check removed", "src/aprior/audit.py",
           'if header["digest_before"] != header["digest_after"]:',
           "if False:",
           "closure: the log's digest after the episode equals the one before"),
    Mutant("statement1 without the digest comparison", "src/aprior/audit.py",
           'if header["digest_before"] != digest:',
           "if False:",
           "the log must name the sealed KB's digest"),
    Mutant("action on unrecognized trial accepted", "src/aprior/audit.py",
           'if trial["status"] == UNRECOGNIZED:\n            return "action on unrecognized trial"',
           'if False:\n            return "action on unrecognized trial"',
           "no effector runs on an unrecognized stimulus"),
    Mutant("sealed-trigger check removed", "src/aprior/audit.py",
           "if prog.trigger != node:",
           "if False:",
           "trigger locality is judged by the sealed program's trigger, not the log's copy"),
)

EQUIVALENT = (
    Mutant("unbounded t digits", "src/aprior/audit.py",
           "(0|[1-9][0-9]{0,17})",
           "(0|[1-9][0-9]*)",
           "a t past 18 digits either fails the t index check, as json.loads's record would, "
           "or past the int digit limit raises the same ValueError that json.loads raises"),
    Mutant("find for rfind", "src/aprior/audit.py",
           "line.rfind(',\"t\":')",
           "line.find(',\"t\":')",
           "the tail must fullmatch from the cut, so an earlier cut only sends the line to "
           "json.loads, which gives the same record"),
)


def _count(mutant: Mutant) -> int:
    return (ROOT / mutant.file).read_text(encoding="utf-8").count(mutant.old)


def _tier1(tree: Path) -> tuple[bool, str]:
    """(green, first failing test or "") of tier-1 run on tree."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(tree / "src"), env.get("PYTHONPATH")]))
    where = subprocess.run([sys.executable, "-c", "import aprior; print(aprior.__file__)"],
                           cwd=tree, env=env, capture_output=True, text=True)
    if not where.stdout.strip().startswith(str(tree)):
        sys.exit(f"the copy imports aprior from {where.stdout.strip() or where.stderr!r}, "
                 f"not from {tree}")
    try:
        run = subprocess.run([sys.executable, *TIER1], cwd=tree, env=env, capture_output=True,
                             text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False, f"timed out after {TIMEOUT_S} s"
    first = next((line.split(" - ")[0] for line in run.stdout.splitlines()
                  if line.startswith(("FAILED ", "ERROR "))), "")
    return run.returncode == 0, first


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
            green, first = _tier1(tree)
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
