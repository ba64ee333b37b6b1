import contextlib
import copy
import io
import json
from typing import NamedTuple
from unittest import mock

import pytest
from hypothesis import strategies as st

import aprior.agent
import aprior.world
from aprior.agent import run_episode
from aprior.cli import main
from aprior.decision import MeasurementEconomy
from aprior.kb import build_kb
from aprior.perception import ChannelParams
from aprior.rng import substream
from oracles import words_drawn


def three_node_doc() -> dict:
    """Reference KB: Q1{f0=0} with children Q11{f1=0}, Q12{f1=1}; Q2{f0=1}."""
    return {
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


def mixed_scenario_doc() -> dict:
    """Known leaves, a partial stimulus stopping at Q1, and two omega patterns."""
    return {
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


@pytest.fixture
def doc():
    return three_node_doc()


@pytest.fixture
def kb(doc):
    return build_kb(doc)


@pytest.fixture
def params():
    return ChannelParams(epsilon=0.3, alphabet=3, dim=2)


@pytest.fixture
def noiseless():
    return ChannelParams(epsilon=0.0, alphabet=3, dim=2)


@pytest.fixture
def econ():
    # reference economy for the extremum sweep
    return MeasurementEconomy(value=1.0, cost=0.02, phi0=0.0, n_max=15)


TAMPER_TRIAL = 5


@pytest.fixture
def tampered_kb(monkeypatch):
    """A sealed KB whose canonical bytes are replaced in trial TAMPER_TRIAL, as it folds
    its observations."""
    kb = build_kb(three_node_doc())
    forged = kb.canonical.replace(b'"k":3', b'"k":1')
    assert forged != kb.canonical
    original = aprior.agent.observed
    folded = []

    def tampering(kb_, uses, n):
        if len(folded) == TAMPER_TRIAL:
            object.__setattr__(kb, "canonical", forged)
        folded.append(uses)
        return original(kb_, uses, n)

    monkeypatch.setattr(aprior.agent, "observed", tampering)
    return kb


@pytest.fixture
def kb_file(tmp_path, doc):
    path = tmp_path / "kb.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


class CliResult(NamedTuple):
    code: int
    out: str
    err: str


def invoke(argv) -> CliResult:
    """Run `aprior *argv` in this process: its exit code, stdout and stderr.

    Any exception but SystemExit propagates, so a crash fails the calling
    test with its traceback instead of reading as an exit code.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main(argv)
            code = 0
        except SystemExit as exc:
            code = exc.code
    return CliResult(code, out.getvalue(), err.getvalue())


@pytest.fixture(scope="session")
def reference_sweep_output(tmp_path_factory):
    """What `aprior sweep` prints on the reference KB: leaf 11, eps 0.3, auto to n = 15.

    Its Monte Carlo rows 13-15 make it the suite's slowest command, so it
    runs once per session and the tests that need its rows share them.
    """
    path = tmp_path_factory.mktemp("sweep") / "kb.json"
    path.write_text(json.dumps(three_node_doc()), encoding="utf-8")
    result = invoke([
        "sweep", "--kb", str(path), "--node", "11", "--epsilon", "0.3", "--value", "1.0",
        "--cost", "0.02", "--n-max", "15", "--mode", "auto", "--seed", "5"])
    assert result.code == 0, result.err
    return result.out


def variant(doc, **overrides):
    out = copy.deepcopy(doc)
    out.update(overrides)
    return out


@st.composite
def tree_docs(draw):
    """A KB document holding only a random recognition tree.

    Each node's children pin one more free feature to distinct symbols,
    which makes siblings exclusive, and may pin further free features.
    """
    a, d = draw(st.integers(2, 4)), draw(st.integers(1, 4))
    objects = []

    def grow(parent, pinned: dict):
        free = [i for i in range(d) if i not in pinned]
        if not free:
            return
        split = draw(st.sampled_from(free))
        symbols = draw(st.lists(st.integers(0, a - 1), unique=True,
                                min_size=1 if parent is None else 0, max_size=a))
        for s in symbols:
            own = {**pinned, split: s}
            for i in free:
                if i != split and draw(st.integers(0, 3)) == 0:
                    own[i] = draw(st.integers(0, a - 1))
            oid = len(objects)
            objects.append({"id": oid, "parent": parent,
                            "predicate": [[i, own[i]] for i in sorted(own)]})
            grow(oid, own)

    grow(None, {})
    return {"d": d, "alphabet": a, "objects": objects, "operations": [], "tasks": [],
            "programs": []}


def episode_with_words(state, scenario, trials: int, config: dict | None = None,
                       strict: bool = False):
    """run_episode's log and the words it drew from each named stream.

    The counts come from each stream's state before and after, so they
    hold however the library draws its words.
    """
    schedule = []
    stimuli = aprior.world.stimuli

    def recording(scenario, first, count, rng):
        schedule.append(rng)
        return stimuli(scenario, first, count, rng)

    with mock.patch.object(aprior.world, "stimuli", recording):
        log = run_episode(state, scenario, trials, config=config, strict=strict)
    ends = {"channel": state.channel_rng, "selection": state.selection_rng,
            "scenario": schedule[-1]}
    return log, {name: words_drawn(substream(state.seed, name).state, rng.state)
                 for name, rng in ends.items()}
