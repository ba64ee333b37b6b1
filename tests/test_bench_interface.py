"""The library names the benchmark in perfbench/ resolves, checked in tier-1.

A renamed or inlined trace target otherwise fails only a traced benchmark
run. perfbench/tests cannot join this suite's testpaths: both directories
have a conftest module, and the second one shadows the first.
"""
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
from conftest import three_node_doc

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


def test_names_the_benchmark_imports_exist():
    assert callable(aprior.kb.canonical_document)
    for name in ("AUTO", "EXACT", "MC_SAMPLES"):
        assert hasattr(aprior.decision, name), name
    assert hasattr(aprior.decision._exact_feature_accuracy, "cache_info")
