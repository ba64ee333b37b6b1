import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aprior.kb import (
    CyclicTree,
    DanglingReference,
    DuplicateId,
    EmptyTask,
    ROOT,
    SchemaError,
    SiblingOverlap,
    build_kb,
    canonical_document,
    enumerate_tasks,
    kb_digest,
)
from conftest import three_node_doc
from oracles import canonical_document_oracle, canonical_json_oracle, fnv1a_oracle


def minimal_doc():
    return {
        "d": 1,
        "alphabet": 2,
        "objects": [{"id": 1, "parent": None, "predicate": [[0, 0]]}],
        "operations": [{"id": 1, "action_tag": "go", "task": 1, "applicable_objects": [1]}],
        "tasks": [{"id": 1, "pairs": [[1, 1]]}],
        "programs": [{"id": 1, "trigger": 1, "operations": [1], "k": 1, "utility": 1.0}],
    }


def test_minimal_kb_builds_and_is_sealed():
    kb = build_kb(minimal_doc())
    assert len(kb.objects) == 1
    assert kb.is_leaf(1)
    # no mutating API exists; the dataclass is the whole surface
    assert not any(name.startswith(("add_", "set_", "update")) for name in dir(kb))


def test_three_node_reference_kb(doc, kb):
    assert len(kb.objects) == 4
    assert kb.children(ROOT) == (1, 2)
    assert kb.children(1) == (11, 12)
    assert kb.is_leaf(11) and kb.is_leaf(12) and kb.is_leaf(2)
    assert not kb.is_leaf(1)
    # independent re-verification from the raw document
    by_id = {o["id"]: o for o in doc["objects"]}
    for oid, obj in kb.objects.items():
        raw = by_id[oid]
        assert sorted(map(tuple, raw["predicate"])) == list(obj.predicate.constraints)
        assert (raw["parent"] if raw["parent"] is not None else ROOT) == obj.parent
    # every non-root object reaches the root in < |objects| steps
    for oid in kb.objects:
        steps, cur = 0, oid
        while cur != ROOT:
            cur = kb.objects[cur].parent
            steps += 1
            assert steps < len(kb.objects) + 1
    # sibling exclusivity, exhaustively over all 9 vectors
    for v in [(i, j) for i in range(3) for j in range(3)]:
        for parent in [ROOT, 1]:
            matches = [c for c in kb.children(parent) if kb.objects[c].predicate.matches(v)]
            assert len(matches) <= 1


def test_duplicate_object_id():
    doc = minimal_doc()
    doc["objects"].append({"id": 1, "parent": None, "predicate": [[0, 1]]})
    with pytest.raises(DuplicateId):
        build_kb(doc)


def test_sibling_overlap_identical_predicates():
    doc = minimal_doc()
    doc["d"] = 2
    doc["objects"] = [
        {"id": 1, "parent": None, "predicate": [[0, 0]]},
        {"id": 2, "parent": None, "predicate": [[0, 0]]},
    ]
    with pytest.raises(SiblingOverlap):
        build_kb(doc)


def test_sibling_overlap_disjoint_indices():
    # no shared feature index means some vector satisfies both
    doc = minimal_doc()
    doc["d"] = 2
    doc["objects"] = [
        {"id": 1, "parent": None, "predicate": [[0, 0]]},
        {"id": 2, "parent": None, "predicate": [[1, 1]]},
    ]
    with pytest.raises(SiblingOverlap):
        build_kb(doc)


def test_cyclic_parents():
    doc = minimal_doc()
    doc["d"] = 2
    doc["objects"] = [
        {"id": 1, "parent": 2, "predicate": [[0, 0]]},
        {"id": 2, "parent": 1, "predicate": [[0, 0], [1, 0]]},
    ]
    with pytest.raises(CyclicTree):
        build_kb(doc)


def test_dangling_parent_and_refs():
    doc = minimal_doc()
    doc["objects"][0]["parent"] = 99
    with pytest.raises(DanglingReference):
        build_kb(doc)
    doc = minimal_doc()
    doc["operations"][0]["task"] = 99
    with pytest.raises(DanglingReference):
        build_kb(doc)
    doc = minimal_doc()
    doc["programs"][0]["trigger"] = 99
    with pytest.raises(DanglingReference):
        build_kb(doc)


def test_empty_task():
    doc = minimal_doc()
    doc["tasks"][0]["pairs"] = []
    with pytest.raises(EmptyTask):
        build_kb(doc)


def test_child_predicate_must_extend_parent():
    doc = minimal_doc()
    doc["d"] = 2
    doc["objects"] = [
        {"id": 1, "parent": None, "predicate": [[0, 0]]},
        {"id": 2, "parent": 1, "predicate": [[1, 0]]},  # drops parent's f0=0
    ]
    with pytest.raises(SchemaError):
        build_kb(doc)


def test_program_operation_must_apply_to_trigger():
    doc = minimal_doc()
    doc["d"] = 2
    doc["objects"].append({"id": 2, "parent": None, "predicate": [[0, 1]]})
    doc["programs"][0]["trigger"] = 2
    with pytest.raises(SchemaError):
        build_kb(doc)


def test_empty_objects_rejected():
    doc = minimal_doc()
    doc["objects"] = []
    with pytest.raises(SchemaError):
        build_kb(doc)


def test_digest_deterministic(doc):
    kb1 = build_kb(copy.deepcopy(doc))
    kb2 = build_kb(copy.deepcopy(doc))
    assert kb_digest(kb1) == kb_digest(kb2)


def test_digest_matches_handrolled_fnv_oracle(doc, kb):
    expected = fnv1a_oracle(canonical_json_oracle(canonical_document(doc)))
    assert kb_digest(kb) == expected


def test_digest_changes_with_utility(doc):
    kb1 = build_kb(copy.deepcopy(doc))
    doc["programs"][0]["utility"] = 2.0
    kb2 = build_kb(doc)
    assert kb_digest(kb1) != kb_digest(kb2)


def test_digest_ignores_document_ordering(doc):
    kb1 = build_kb(copy.deepcopy(doc))
    shuffled = copy.deepcopy(doc)
    shuffled["objects"] = list(reversed(shuffled["objects"]))
    shuffled["programs"] = list(reversed(shuffled["programs"]))
    kb2 = build_kb(shuffled)
    assert kb_digest(kb1) == kb_digest(kb2)


def test_enumerate_tasks_sorted_and_pure(kb, doc):
    tasks = enumerate_tasks(kb)
    assert [tid for tid, _ in tasks] == sorted(t["id"] for t in doc["tasks"])
    # exactly the declared tasks, nothing more
    declared = {t["id"]: sorted(map(tuple, t["pairs"])) for t in doc["tasks"]}
    assert {tid: list(pairs) for tid, pairs in tasks} == declared
    assert enumerate_tasks(kb) == tasks


def test_enumerate_tasks_orders_unsorted_ids():
    doc = minimal_doc()
    doc["tasks"] = [
        {"id": 2, "pairs": [[1, 1]]},
        {"id": 1, "pairs": [[1, 1]]},
    ]
    kb = build_kb(doc)
    assert [tid for tid, _ in enumerate_tasks(kb)] == [1, 2]


@pytest.mark.parametrize("key", ["objects", "operations", "tasks", "programs"])
def test_non_object_entry_rejected(key):
    doc = minimal_doc()
    doc[key].append([1])
    with pytest.raises(SchemaError):
        build_kb(doc)


@pytest.mark.parametrize("path", [
    ("d",),
    ("objects", 0, "id"),
    ("objects", 0, "predicate", 0, 1),
    ("programs", 0, "trigger"),
    ("programs", 0, "k"),
    ("programs", 0, "utility"),
], ids=lambda path: ".".join(map(str, path)))
def test_boolean_where_integer_required_rejected(path):
    # JSON true loads as a Python int equal to 1, which is a valid value at each path
    doc = minimal_doc()
    *head, last = path
    target = doc
    for step in head:
        target = target[step]
    target[last] = True
    with pytest.raises(SchemaError):
        build_kb(doc)


@pytest.mark.parametrize("utility", [
    float("nan"), float("inf"), float("-inf"), pytest.param(10 ** 400, id="huge-int"),
])
def test_non_finite_utility_rejected(utility):
    doc = minimal_doc()
    doc["programs"][0]["utility"] = utility
    with pytest.raises(SchemaError):
        build_kb(doc)


def test_sealed_containers_are_read_only(kb):
    containers = (kb.objects, kb.operations, kb.tasks, kb.programs,
                  kb._children, kb._by_trigger)
    for container in containers:
        key = next(iter(container))
        with pytest.raises(TypeError):
            container[key] = container[key]
        with pytest.raises(TypeError):
            container[999] = container[key]
        with pytest.raises(TypeError):
            del container[key]
    # the values below the maps are frozen dataclasses, tuples and frozensets
    assert isinstance(kb.operations[2].applicable_objects, frozenset)
    assert isinstance(kb.tasks[1].pairs, tuple)
    assert isinstance(kb.programs_for(12), tuple)


def _respell(doc: dict, rnd, omit_defaults: bool) -> dict:
    """The same KB in another spelling: arrays shuffled, defaults left out."""
    for key in ("objects", "operations", "tasks", "programs"):
        rnd.shuffle(doc[key])
    for obj in doc["objects"]:
        rnd.shuffle(obj["predicate"])
        if omit_defaults and obj["parent"] is None:
            del obj["parent"]
    for op in doc["operations"]:
        rnd.shuffle(op["applicable_objects"])
    for task in doc["tasks"]:
        rnd.shuffle(task["pairs"])
    for prog in doc["programs"]:
        if omit_defaults and prog["k"] == 1:
            del prog["k"]
    return doc


@settings(max_examples=200, deadline=None)
@given(make=st.sampled_from([three_node_doc, minimal_doc]),
       rnd=st.randoms(use_true_random=False), omit_defaults=st.booleans())
def test_canonical_bytes_match_raw_reparse_oracle(make, rnd, omit_defaults):
    doc = _respell(make(), rnd, omit_defaults)
    expected = canonical_json_oracle(canonical_document_oracle(doc))
    kb = build_kb(doc)
    assert kb.canonical == expected
    assert kb_digest(kb) == fnv1a_oracle(expected)
    assert kb.canonical == canonical_json_oracle(canonical_document(doc))


def test_redundant_spellings_take_the_clean_digest(doc):
    # both seal to the same KB as the clean form; the raw re-parse hashed them apart
    clean = kb_digest(build_kb(copy.deepcopy(doc)))
    duplicated = copy.deepcopy(doc)
    duplicated["operations"][1]["applicable_objects"] = [11, 12, 11]
    minus_one = copy.deepcopy(doc)
    minus_one["objects"][0]["parent"] = -1
    for spelling in (duplicated, minus_one):
        assert build_kb(copy.deepcopy(spelling)) == build_kb(copy.deepcopy(doc))
        assert kb_digest(build_kb(copy.deepcopy(spelling))) == clean
        assert canonical_document_oracle(spelling) != canonical_document_oracle(doc)


def test_programs_for_ascending_id_and_empty(doc):
    doc["programs"] += [
        {"id": 7, "trigger": 12, "operations": [2], "k": 2, "utility": 0.1},
        {"id": 0, "trigger": 12, "operations": [3], "k": 1, "utility": 0.2},
    ]
    doc["programs"].reverse()
    kb = build_kb(doc)
    assert [p.id for p in kb.programs_for(12)] == [0, 2, 7]
    assert [p.id for p in kb.programs_for(11)] == [1]
    assert kb.programs_for(1) == ()  # an internal node that triggers nothing
    assert kb.programs_for(ROOT) == ()
    assert kb.programs_for(999) == ()
