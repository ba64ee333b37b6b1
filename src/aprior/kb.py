"""Congenital knowledge base: objects, operations, tasks, programs.

The knowledge base is built once from a JSON document, validated, and
sealed. No mutating API exists after construction, and every map of the
sealed KB is read-only; that absence is the point. The only writable
containers are three memo tables of functions of the sealed KB, filled as
their inputs occur; they are not part of its canonical bytes, digest,
equality or repr.
Recognition objects form a tree rooted at a virtual root with an
empty predicate (id ROOT), and sibling predicates are mutually
exclusive so greedy descent is deterministic.
"""
from __future__ import annotations

import functools
import json
import sys
from collections import namedtuple
from collections.abc import Mapping
from operator import attrgetter
from types import MappingProxyType

from .digest import canonical_bytes, fnv1a_64

ROOT = -1
_FLOAT_MAX = sys.float_info.max  # read once: finite_number runs per number of a log


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


class Predicate(namedtuple("Predicate", "constraints")):
    """Conjunction of (feature index, required symbol) constraints, sorted by index."""

    __slots__ = ()

    def matches(self, v: tuple[int, ...]) -> bool:
        return all(v[i] == s for i, s in self.constraints)

    def as_dict(self) -> dict[int, int]:
        return dict(self.constraints)


# a recognition-tree node; its parent is ROOT for a top-level object
InternalObject = namedtuple("InternalObject", "id parent predicate")
# a behavior program; reflex_threshold 1 is unconditioned, above 1 conditioned
Program = namedtuple("Program", "id trigger operations reflex_threshold base_utility")


class Frozen:
    """Base of a record whose __slots__ fields its __init__ sets once, through _seal;
    assigning or deleting a field afterwards raises AttributeError."""

    __slots__ = ()

    def _seal(self, *values) -> None:  # one value per field, in __slots__ order
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class KnowledgeBase(Frozen):
    """A sealed KB: every map is read-only and iterates in ascending id.

    tasks maps a task id to its (object, operation) pairs, sorted; tags, a
    program id to its operations' tags, in order.
    _recognition maps a vector to its outcome (perception.recognized), at
    most alphabet ** dim entries. _observed maps a measurement count n to
    False, when its alphabet ** (dim * n) observation sets exceed
    perception.OBSERVED_MAX, or else to a table from n observations to
    their (folded vector, outcome, agreeing count) (perception.observed).
    _decisions maps the (n, phi0, cost, sign of cost) of the latest agent
    state built on the KB to its decision table, keyed by folded vector,
    one entry at most. All three start empty, live exactly as long as the
    KB, and take no part in its equality or repr.
    """

    __slots__ = ("dim", "alphabet", "objects", "tasks", "programs", "tags",  # shown by repr
                 "canonical", "_children", "_by_trigger",  # compared by == with those
                 "_recognition", "_observed", "_decisions")

    def __init__(self, dim: int, alphabet: int, objects: Mapping[int, InternalObject],
                 tasks: Mapping[int, tuple[tuple[int, int], ...]],
                 programs: Mapping[int, Program], tags: Mapping[int, tuple[str, ...]],
                 canonical: bytes, _children: Mapping[int, tuple[int, ...]],
                 _by_trigger: Mapping[int, tuple[Program, ...]]):
        self._seal(dim, alphabet, objects, tasks, programs, tags, canonical, _children,
                   _by_trigger, {}, {}, {})

    def __eq__(self, other):
        if type(other) is not KnowledgeBase:
            return NotImplemented
        return _KB_COMPARED(self) == _KB_COMPARED(other)

    __hash__ = None  # its maps are unhashable

    def __repr__(self) -> str:
        shown = (f"{name}={getattr(self, name)!r}" for name in _KB_SHOWN)
        return f"KnowledgeBase({', '.join(shown)})"

    def children(self, object_id: int) -> tuple[int, ...]:
        return self._children.get(object_id, ())

    def is_leaf(self, object_id: int) -> bool:
        return object_id != ROOT and not self._children.get(object_id)

    def programs_for(self, trigger: int) -> tuple[Program, ...]:
        """Programs triggered by exactly this object, ascending by id."""
        return self._by_trigger.get(trigger, ())


_KB_SHOWN = KnowledgeBase.__slots__[:6]
_KB_COMPARED = attrgetter(*KnowledgeBase.__slots__[:9])


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


def finite_number(value) -> bool:
    """True for a JSON number (not a boolean) that converts to a finite float."""
    return type(value) in (int, float) and abs(value) <= _FLOAT_MAX


def _new_id(entry: dict, declared, kind: str) -> int:
    """The entry's id: an integer, not a boolean, that `declared` does not hold yet."""
    value = entry.get("id")
    if type(value) is not int:
        raise SchemaError(f"{kind} id {value!r} must be an integer")
    if value in declared:
        raise DuplicateId(f"{kind} id {value} declared twice")
    return value


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

    The only reader of a KB document: the canonical bytes, the child map,
    the trigger index and the program tags all derive from the checked
    structures. Operations are checked and kept only until sealing.
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
        oid = _new_id(entry, objects, "object")
        if oid < 0:
            raise SchemaError(f"object id {oid} must be non-negative")
        parent = entry.get("parent")
        pred = _parse_predicate(entry.get("predicate", []), d, a, f"object {oid}")
        objects[oid] = InternalObject(oid, ROOT if parent is None else parent, pred)

    # parent links must name objects and form a tree hanging off the virtual root;
    # each link is checked before it is followed, and -1.0 == ROOT is no root
    for obj in objects.values():
        seen = {obj.id}
        child, parent = obj.id, obj.parent
        while type(parent) is not int or parent != ROOT:
            _ref(parent, objects, f"object {child}", "parent")
            if parent in seen:
                raise CyclicTree(f"cycle through object {obj.id}")
            seen.add(parent)
            child, parent = parent, objects[parent].parent

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
        task_ids.add(_new_id(entry, task_ids, "task"))

    # read only by the checks below, the canonical bytes and the tags: kept in canonical form
    operations: dict[int, dict] = {}
    for entry in raw_operations:
        pid = _new_id(entry, operations, "operation")
        tag = entry.get("action_tag")
        # a raw control character, "\r" say, would split a CSV row
        if not isinstance(tag, str) or not tag or any(c < " " or c == "\x7f" for c in tag):
            raise SchemaError(f"operation {pid}: action_tag must be a non-empty string "
                              "without control characters")
        task = _ref(entry.get("task"), task_ids, f"operation {pid}", "task")
        applicable = entry.get("applicable_objects")
        if not isinstance(applicable, list) or not applicable:
            raise SchemaError(f"operation {pid}: applicable_objects must be non-empty")
        applicable = sorted({_ref(oid, objects, f"operation {pid}", "object")
                             for oid in applicable})
        operations[pid] = {"id": pid, "action_tag": tag, "task": task,
                           "applicable_objects": applicable}

    tasks: dict[int, tuple[tuple[int, int], ...]] = {}
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
        tasks[tid] = tuple(sorted(checked))

    programs: dict[int, Program] = {}
    for entry in raw_programs:
        gid = _new_id(entry, programs, "program")
        trigger = _ref(entry.get("trigger"), objects, f"program {gid}", "trigger")
        ops = entry.get("operations")
        if not isinstance(ops, list) or not ops:
            raise SchemaError(f"program {gid}: operations must be non-empty")
        for pid in ops:
            _ref(pid, operations, f"program {gid}", "operation")
            if trigger not in operations[pid]["applicable_objects"]:
                raise SchemaError(
                    f"program {gid}: operation {pid} is not applicable to "
                    f"trigger {trigger}"
                )
        k = entry.get("k", 1)
        if type(k) is not int or k < 1:
            raise SchemaError(f"program {gid}: k must be a positive integer")
        utility = entry.get("utility", 0.0)
        if not finite_number(utility):
            raise SchemaError(f"program {gid}: utility must be a finite number")
        programs[gid] = Program(gid, trigger, tuple(ops), k, float(utility))

    # sealed: read-only maps in ascending id, which is also the canonical
    # array order; tuples serialize as arrays, and a top-level parent as null
    objects, tasks, programs = (
        MappingProxyType(dict(sorted(m.items()))) for m in (objects, tasks, programs)
    )
    canonical = canonical_bytes({
        "d": d,
        "alphabet": a,
        "objects": [
            {"id": o.id, "parent": None if o.parent == ROOT else o.parent,
             "predicate": o.predicate.constraints}
            for o in objects.values()
        ],
        "operations": [operations[pid] for pid in sorted(operations)],
        "tasks": [{"id": tid, "pairs": pairs} for tid, pairs in tasks.items()],
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
        tasks=tasks,
        programs=programs,
        tags=MappingProxyType({g.id: tuple(operations[pid]["action_tag"] for pid in g.operations)
                               for g in programs.values()}),
        canonical=canonical,
        _children=children,
        _by_trigger=_group(programs.values(), lambda g: g.trigger),
    )


def canonical_document(doc: dict) -> dict:
    """The canonical (digest input) form of a KB document, as a dict."""
    return json.loads(build_kb(doc).canonical)


@functools.lru_cache(maxsize=8)
def _canonical_digest(canonical: bytes) -> int:
    # keyed by the bytes value, not by the KB: bytes that replace a KB's
    # canonical miss the memo and are hashed afresh
    return fnv1a_64(canonical)


def kb_digest(kb: KnowledgeBase) -> int:
    """FNV-1a-64 over the canonical document bytes, one pass per distinct bytes."""
    return _canonical_digest(kb.canonical)


def enumerate_tasks(kb: KnowledgeBase) -> list[tuple[int, tuple[tuple[int, int], ...]]]:
    """All tasks, ascending by id."""
    return list(kb.tasks.items())


def load_kb_file(path) -> KnowledgeBase:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise SchemaError("KB document must be a JSON object")
    return build_kb(doc)
