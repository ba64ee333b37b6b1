"""The library names the benchmark in perfbench/ resolves, checked in tier-1.

A renamed or inlined trace target otherwise fails only a traced benchmark
run. perfbench/tests cannot join this suite's testpaths: both directories
have a conftest module, and the second one shadows the first.
"""
import ast
import importlib.util
from pathlib import Path

# the tracer patches only modules already imported
import aprior.agent
import aprior.audit
import aprior.decision
import aprior.kb
import aprior.perception
import aprior.rng
import aprior.world
from aprior.agent import AgentState
from aprior.decision import MeasurementEconomy
from aprior.perception import ChannelParams
from conftest import mixed_scenario_doc, three_node_doc

TRACING_PY = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_installs_and_removes():
    tracing = _tracing()
    originals = {
        (owner, attr): getattr(tracing._holder(owner), attr)
        for _, owner, attr in tracing.TARGETS
    }
    tracer = tracing.Tracer()
    tracer.install({layer for layer, _, _ in tracing.TARGETS})
    try:
        for (owner, attr), original in originals.items():
            assert getattr(tracing._holder(owner), attr) is not original, (owner, attr)
        kb = aprior.kb.build_kb(three_node_doc())
        assert [p.id for p in kb.programs_for(12)] == [2]
        assert aprior.kb.kb_digest(kb) == aprior.kb.fnv1a_64(kb.canonical)
    finally:
        tracer.remove()
    for (owner, attr), original in originals.items():
        assert getattr(tracing._holder(owner), attr) is original, (owner, attr)
    names = {name for name, _, _, _ in tracer.spans()}
    assert {"kb.build_kb", "kb.programs_for", "kb.kb_digest"} <= names


def test_a_traced_episode_records_its_digest_spans():
    # a memo that bypassed the traced name would read 0 digest calls per trial
    tracer = _tracing().Tracer()
    tracer.install({"kb", "agent"})
    try:
        kb = aprior.kb.build_kb(three_node_doc())
        state = AgentState(kb=kb, params=ChannelParams(epsilon=0.0, alphabet=3, dim=2),
                           econ=MeasurementEconomy(value=1.0, cost=0.0, phi0=0.0, n_max=9),
                           seed=0, fixed_n=1)
        scenario = aprior.world.load_scenario(mixed_scenario_doc(), kb)
        aprior.agent.run_episode(state, scenario, 3)
    finally:
        tracer.remove()
    names = [name for name, _, _, _ in tracer.spans()]
    assert names.count("agent.run_episode") == 1
    assert names.count("kb.kb_digest") == 2


def test_a_traced_audit_runs_the_reflex_walk_under_its_traced_name():
    kb = aprior.kb.build_kb(three_node_doc())
    state = AgentState(kb=kb, params=ChannelParams(epsilon=0.3, alphabet=3, dim=2),
                       econ=MeasurementEconomy(value=1.0, cost=0.02, phi0=0.0, n_max=9),
                       seed=0, fixed_n=3)
    scenario = aprior.world.load_scenario(mixed_scenario_doc(), kb)
    text = aprior.agent.run_episode(state, scenario, 100).to_jsonl()
    tracer = _tracing().Tracer()
    tracer.install({"audit"})
    try:
        report = aprior.audit.audit_log(*aprior.audit.parse_log(text), kb)
    finally:
        tracer.remove()
    assert report.passed
    names = [name for name, _, _, _ in tracer.spans()]
    assert names.count("audit.audit_log") == 1
    assert names.count("audit.assert_reflex") == 1


def _benchmark_names() -> set[tuple[str, str]]:
    """(module, name) of each aprior name perfbench/*.py imports or reads off the modules
    agent, audit and decision, which perfbench/workloads.py imports by those names."""
    found = set()
    for path in sorted(TRACING_PY.parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "aprior":
                found.update((node.module, alias.name) for alias in node.names)
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in ("agent", "audit", "decision")):
                found.add((f"aprior.{node.value.id}", node.attr))
    return found


def test_names_the_benchmark_imports_exist():
    names = _benchmark_names()
    # both kinds are collected: names imported, and names read off an imported module
    assert {("aprior.decision", "MC_SAMPLES"), ("aprior.kb", "canonical_document"),
            ("aprior.audit", "parse_log"), ("aprior.decision", "optimal_n")} <= names
    missing = [(module, name) for module, name in sorted(names)
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []
    assert hasattr(aprior.decision._exact_feature_accuracy, "cache_info")
