"""Congenital knowledge base: objects, operations, tasks, programs.

The knowledge base is built once from a JSON document, validated, and
sealed. No mutating API exists after construction, and every container
reachable from a sealed KB is read-only; that absence is the point.
Recognition objects form a tree rooted at a virtual root with an
empty predicate (id ROOT), and sibling predicates are mutually
exclusive so greedy descent is deterministic.
"""
from __future__ import annotations

import json
import sys
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

from .digest import canonical_bytes, fnv1a_64

ROOT = -1


class BuildError(Exception):
    """Base class for knowledge-base document rejections."""


class SchemaError(BuildError):
    pass


class DuplicateId(BuildError):
    pass


class CyclicTree(BuildError):
    pass


class SiblingOverlap(BuildError):
    pass


class DanglingReference(BuildError):
    pass


class EmptyTask(BuildError):
    pass


@dataclass(frozen=True)
class Predicate:
    """Conjunction of (feature index, required symbol) constraints."""

    constraints: tuple[tuple[int, int], ...]  # sorted by feature index

    def matches(self, v: tuple[int, ...]) -> bool:
        return all(v[i] == s for i, s in self.constraints)

    def indices(self) -> frozenset[int]:
        return frozenset(i for i, _ in self.constraints)

    def as_dict(self) -> dict[int, int]:
        return dict(self.constraints)


@dataclass(frozen=True)
class InternalObject:
    id: int
    parent: int  # ROOT for top-level objects
    predicate: Predicate


@dataclass(frozen=True)
class OperationDef:
    id: int
    action_tag: str
    task: int
    applicable_objects: frozenset[int]


@dataclass(frozen=True)
class Task:
    id: int
    pairs: tuple[tuple[int, int], ...]  # (object id, operation id), sorted


@dataclass(frozen=True)
class Program:
    id: int
    trigger: int
    operations: tuple[int, ...]
    reflex_threshold: int  # 1 = unconditioned, >1 = conditioned
    base_utility: float


@dataclass(frozen=True)
class KnowledgeBase:
    """A sealed KB: every map is read-only and iterates in ascending id."""

    dim: int
    alphabet: int
    objects: Mapping[int, InternalObject]
    operations: Mapping[int, OperationDef]
    tasks: Mapping[int, Task]
    programs: Mapping[int, Program]
    canonical: bytes = field(repr=False)
    _children: Mapping[int, tuple[int, ...]] = field(repr=False)
    _by_trigger: Mapping[int, tuple[Program, ...]] = field(repr=False)

    def children(self, object_id: int) -> tuple[int, ...]:
        return self._children.get(object_id, ())

    def is_leaf(self, object_id: int) -> bool:
        return object_id != ROOT and not self._children.get(object_id)

    def programs_for(self, trigger: int) -> tuple[Program, ...]:
        """Programs triggered by exactly this object, ascending by id."""
        return self._by_trigger.get(trigger, ())


def _parse_predicate(raw, d: int, a: int, where: str) -> Predicate:
    if not isinstance(raw, list):
        raise SchemaError(f"{where}: predicate must be a list of [index, symbol] pairs")
    seen = set()
    pairs = []
    for item in raw:
        if not (isinstance(item, list) and len(item) == 2):
            raise SchemaError(f"{where}: bad constraint {item!r}")
        i, s = item
        if not (type(i) is int and type(s) is int):
            raise SchemaError(f"{where}: constraint entries must be integers")
        if not 0 <= i < d:
            raise SchemaError(f"{where}: feature index {i} out of range [0, {d})")
        if not 0 <= s < a:
            raise SchemaError(f"{where}: symbol {s} out of range [0, {a})")
        if i in seen:
            raise SchemaError(f"{where}: duplicate feature index {i}")
        seen.add(i)
        pairs.append((i, s))
    return Predicate(tuple(sorted(pairs)))


def _require(doc: dict, key: str, kind) -> object:
    if key not in doc:
        raise SchemaError(f"missing key {key!r}")
    if type(doc[key]) is not kind:
        raise SchemaError(f"key {key!r} has wrong type")
    return doc[key]


def _entries(doc: dict, key: str) -> list[dict]:
    raw = _require(doc, key, list)
    for entry in raw:
        if not isinstance(entry, dict):
            raise SchemaError(f"{key} entries must be objects, got {type(entry).__name__}")
    return raw


def _ref(value, known, where: str, kind: str) -> int:
    """The id `value` if `known` holds it; true or 1.0 would otherwise find key 1."""
    if type(value) is not int:
        raise SchemaError(f"{where}: {kind} id {value!r} must be an integer")
    if value not in known:
        raise DanglingReference(f"{where}: unknown {kind} {value!r}")
    return value


def _group(items, key) -> Mapping[int, tuple]:
    """Read-only map from key(item) to the items with that key, in input order."""
    groups: dict[int, list] = {}
    for item in items:
        groups.setdefault(key(item), []).append(item)
    return MappingProxyType({k: tuple(v) for k, v in groups.items()})


def _siblings_exclusive(p1: Predicate, p2: Predicate) -> bool:
    """True iff the two predicates disagree on at least one shared index."""
    d1, d2 = p1.as_dict(), p2.as_dict()
    return any(d1[i] != d2[i] for i in d1.keys() & d2.keys())


def build_kb(doc: dict) -> KnowledgeBase:
    """Validate a KB document and seal it into a KnowledgeBase.

    The only reader of a KB document: the canonical bytes, the child map
    and the trigger index all derive from the sealed structures.
    Raises a BuildError subclass on the first violation found. Integers
    are checked with `type(x) is int`, because JSON true and false load as
    Python ints.
    """
    d = _require(doc, "d", int)
    a = _require(doc, "alphabet", int)
    if d < 1:
        raise SchemaError("d must be >= 1")
    if a < 2:
        raise SchemaError("alphabet must be >= 2")

    raw_objects, raw_operations, raw_tasks, raw_programs = (
        _entries(doc, key) for key in ("objects", "operations", "tasks", "programs")
    )
    if not raw_objects:
        raise SchemaError("objects must be non-empty")

    objects: dict[int, InternalObject] = {}
    for entry in raw_objects:
        oid = entry.get("id")
        if type(oid) is not int or oid < 0:
            raise SchemaError(f"object id {oid!r} must be a non-negative integer")
        if oid in objects:
            raise DuplicateId(f"object id {oid} declared twice")
        parent = entry.get("parent")
        if parent is None:
            parent = ROOT
        elif type(parent) is not int:
            raise SchemaError(f"object {oid}: bad parent {parent!r}")
        pred = _parse_predicate(entry.get("predicate", []), d, a, f"object {oid}")
        objects[oid] = InternalObject(oid, parent, pred)

    # parent links must exist and form a tree hanging off the virtual root
    for obj in objects.values():
        if obj.parent != ROOT and obj.parent not in objects:
            raise DanglingReference(f"object {obj.id}: unknown parent {obj.parent}")
    for obj in objects.values():
        seen = {obj.id}
        cur = obj.parent
        while cur != ROOT:
            if cur in seen:
                raise CyclicTree(f"cycle through object {obj.id}")
            seen.add(cur)
            cur = objects[cur].parent

    # child constraints strictly extend the parent's
    for obj in objects.values():
        parent_pred = {} if obj.parent == ROOT else objects[obj.parent].predicate.as_dict()
        own = obj.predicate.as_dict()
        if any(own.get(i) != s for i, s in parent_pred.items()):
            raise SchemaError(
                f"object {obj.id}: predicate must include the parent's constraints"
            )
        if len(own) <= len(parent_pred):
            raise SchemaError(
                f"object {obj.id}: predicate must strictly extend the parent's"
            )

    children = _group(sorted(objects), lambda oid: objects[oid].parent)
    for parent_id, kids in children.items():
        for idx, c1 in enumerate(kids):
            for c2 in kids[idx + 1:]:
                if not _siblings_exclusive(objects[c1].predicate, objects[c2].predicate):
                    raise SiblingOverlap(
                        f"objects {c1} and {c2} under parent {parent_id} "
                        "can both match one vector"
                    )

    task_ids = set()
    for entry in raw_tasks:
        tid = entry.get("id")
        if type(tid) is not int:
            raise SchemaError(f"task id {tid!r} must be an integer")
        if tid in task_ids:
            raise DuplicateId(f"task id {tid} declared twice")
        task_ids.add(tid)

    operations: dict[int, OperationDef] = {}
    for entry in raw_operations:
        pid = entry.get("id")
        if type(pid) is not int:
            raise SchemaError(f"operation id {pid!r} must be an integer")
        if pid in operations:
            raise DuplicateId(f"operation id {pid} declared twice")
        tag = entry.get("action_tag")
        if not isinstance(tag, str) or not tag:
            raise SchemaError(f"operation {pid}: action_tag must be a non-empty string")
        task = _ref(entry.get("task"), task_ids, f"operation {pid}", "task")
        applicable = entry.get("applicable_objects")
        if not isinstance(applicable, list) or not applicable:
            raise SchemaError(f"operation {pid}: applicable_objects must be non-empty")
        applicable = frozenset(
            _ref(oid, objects, f"operation {pid}", "object") for oid in applicable
        )
        operations[pid] = OperationDef(pid, tag, task, applicable)

    tasks: dict[int, Task] = {}
    for entry in raw_tasks:
        tid = entry["id"]
        pairs = entry.get("pairs")
        if not isinstance(pairs, list) or not pairs:
            raise EmptyTask(f"task {tid}: pairs must be non-empty")
        checked = []
        for pair in pairs:
            if not (isinstance(pair, list) and len(pair) == 2):
                raise SchemaError(f"task {tid}: bad pair {pair!r}")
            oid = _ref(pair[0], objects, f"task {tid}", "object")
            pid = _ref(pair[1], operations, f"task {tid}", "operation")
            checked.append((oid, pid))
        tasks[tid] = Task(tid, tuple(sorted(checked)))

    programs: dict[int, Program] = {}
    for entry in raw_programs:
        gid = entry.get("id")
        if type(gid) is not int:
            raise SchemaError(f"program id {gid!r} must be an integer")
        if gid in programs:
            raise DuplicateId(f"program id {gid} declared twice")
        trigger = _ref(entry.get("trigger"), objects, f"program {gid}", "trigger")
        ops = entry.get("operations")
        if not isinstance(ops, list) or not ops:
            raise SchemaError(f"program {gid}: operations must be non-empty")
        for pid in ops:
            _ref(pid, operations, f"program {gid}", "operation")
            if trigger not in operations[pid].applicable_objects:
                raise SchemaError(
                    f"program {gid}: operation {pid} is not applicable to "
                    f"trigger {trigger}"
                )
        k = entry.get("k", 1)
        if type(k) is not int or k < 1:
            raise SchemaError(f"program {gid}: k must be a positive integer")
        utility = entry.get("utility", 0.0)
        if type(utility) not in (int, float):
            raise SchemaError(f"program {gid}: utility must be a number")
        if not abs(utility) <= sys.float_info.max:  # NaN, inf, or too large for a float
            raise SchemaError(f"program {gid}: utility must be finite")
        programs[gid] = Program(gid, trigger, tuple(ops), k, float(utility))

    # sealed: read-only maps in ascending id, which is also the canonical
    # array order; tuples serialize as arrays, and a top-level parent as null
    objects, operations, tasks, programs = (
        MappingProxyType(dict(sorted(m.items())))
        for m in (objects, operations, tasks, programs)
    )
    canonical = canonical_bytes({
        "d": d,
        "alphabet": a,
        "objects": [
            {"id": o.id, "parent": None if o.parent == ROOT else o.parent,
             "predicate": o.predicate.constraints}
            for o in objects.values()
        ],
        "operations": [
            {"id": p.id, "action_tag": p.action_tag, "task": p.task,
             "applicable_objects": sorted(p.applicable_objects)}
            for p in operations.values()
        ],
        "tasks": [{"id": t.id, "pairs": t.pairs} for t in tasks.values()],
        "programs": [
            {"id": g.id, "trigger": g.trigger, "operations": g.operations,
             "k": g.reflex_threshold, "utility": g.base_utility}
            for g in programs.values()
        ],
    })
    return KnowledgeBase(
        dim=d,
        alphabet=a,
        objects=objects,
        operations=operations,
        tasks=tasks,
        programs=programs,
        canonical=canonical,
        _children=children,
        _by_trigger=_group(programs.values(), lambda g: g.trigger),
    )


def canonical_document(doc: dict) -> dict:
    """The canonical (digest input) form of a KB document, as a dict."""
    return json.loads(build_kb(doc).canonical)


def kb_digest(kb: KnowledgeBase) -> int:
    """FNV-1a-64 over the canonical document bytes."""
    return fnv1a_64(kb.canonical)


def enumerate_tasks(kb: KnowledgeBase) -> list[tuple[int, tuple[tuple[int, int], ...]]]:
    """All tasks, ascending by id."""
    return [(t.id, t.pairs) for t in kb.tasks.values()]


def load_kb_file(path) -> KnowledgeBase:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise SchemaError("KB document must be a JSON object")
    return build_kb(doc)
