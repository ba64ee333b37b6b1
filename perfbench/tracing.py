"""Span tracer that wraps aprior's public functions from outside the library.

Each wrapped call records one span: name, start, end and parent span. Spans
are kept in memory (flat arrays) and written out when the run ends. A span's
self time is its duration minus the part of it that its child spans cover.

Span names are "<layer>.<function>", where the layer is the aprior module
(digest work is attributed to `kb`, whose `kb_digest` calls it).
"""
from __future__ import annotations

import functools
import json
import sys
import time
from array import array

# (layer, owner, attribute); the owner is a module name or "module:Class".
# A target missing from the library stops the traced run: a renamed function
# must be renamed here too, or its metrics would silently read 0.
TARGETS = (
    ("rng", "aprior.rng:SplitMix64", "next_u64"),
    ("rng", "aprior.rng:SplitMix64", "next_float"),
    ("rng", "aprior.rng:SplitMix64", "randbelow"),
    ("rng", "aprior.rng", "substream"),
    ("kb", "aprior.kb", "build_kb"),
    ("kb", "aprior.kb", "kb_digest"),
    ("kb", "aprior.kb", "enumerate_tasks"),
    ("kb", "aprior.kb:KnowledgeBase", "programs_for"),
    ("perception", "aprior.perception", "measure"),
    ("perception", "aprior.perception", "identify"),
    ("perception", "aprior.perception", "corrupt"),
    ("perception", "aprior.perception", "majority_fold"),
    ("decision", "aprior.decision", "optimal_n"),
    ("decision", "aprior.decision", "recognition_error"),
    ("decision", "aprior.decision", "feature_accuracy"),
    ("decision", "aprior.decision", "_exact_feature_accuracy"),
    ("decision", "aprior.decision", "_mc_feature_accuracy"),
    ("decision", "aprior.decision", "phi_measure"),
    ("decision", "aprior.decision", "phi_program"),
    ("decision", "aprior.decision", "order_and_filter"),
    ("decision", "aprior.decision", "select_random"),
    ("agent", "aprior.agent", "run_episode"),
    ("agent", "aprior.agent", "step"),
    ("agent", "aprior.agent", "planned_n"),
    ("agent", "aprior.agent", "record"),
    ("agent", "aprior.agent", "eligible_programs"),
    ("agent", "aprior.agent", "do_action"),
    ("agent", "aprior.agent:EpisodeLog", "to_jsonl"),
    ("world", "aprior.world", "next_stimulus"),
    ("world", "aprior.world", "score"),
    ("audit", "aprior.audit", "parse_log"),
    ("audit", "aprior.audit", "audit_log"),
    ("audit", "aprior.audit", "assert_closure"),
    ("audit", "aprior.audit", "assert_statement1"),
    ("audit", "aprior.audit", "assert_reflex"),
)

# spans whose call arguments are kept, for the metrics that need them
KEEP_ARGS = ("perception.identify", "decision._exact_feature_accuracy",
             "decision._mc_feature_accuracy")


class Tracer:
    """Records spans for every installed target until `remove` is called."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.args: dict[str, list] = {}  # span name -> [(span id, args, kwargs)]
        self.missed: set[int] = set()  # spans of lru-cached targets that missed the cache
        self._ids: dict[str, int] = {}
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        names, starts, ends, parents, stack = self.name, self.start, self.end, self.parent, self._stack
        kept = self.args.setdefault(name, []) if name in KEEP_ARGS else None
        cache_info = getattr(fn, "cache_info", None)
        missed = self.missed
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(sid)
            if kept is not None:
                kept.append((sid, args, kwargs))
            misses = cache_info().misses if cache_info is not None else 0
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
                if cache_info is not None and cache_info().misses != misses:
                    missed.add(sid)

        if cache_info is not None:
            traced.cache_info, traced.cache_clear = fn.cache_info, fn.cache_clear
        return traced

    def install(self, layers):
        """Wrap every target of the given layers, in every aprior module that holds it.

        Raises LookupError, wrapping nothing, if any of those targets is missing.
        """
        targets = [t for t in TARGETS if t[0] in layers]
        missing = [f"{owner}.{attr}" for _, owner, attr in targets
                   if not hasattr(_holder(owner), attr)]
        if missing:
            raise LookupError(f"trace targets missing from the library: {', '.join(missing)}")
        for layer, owner, attr in targets:
            holder = _holder(owner)
            class_name = owner.partition(":")[2]
            original = getattr(holder, attr)
            wrapped = self.wrap(f"{layer}.{attr}", original)
            if class_name:
                self._set(holder, attr, wrapped)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "aprior" or mod_name.startswith("aprior."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, key, wrapped)

    def _set(self, holder, attr, value):
        self._undo.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, value)

    def remove(self):
        while self._undo:
            holder, attr, value = self._undo.pop()
            setattr(holder, attr, value)

    def spans(self) -> list[tuple[str, int, int, int]]:
        return [(self.names[n], s, e, p)
                for n, s, e, p in zip(self.name, self.start, self.end, self.parent)]

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names,
                       "spans": [list(t) for t in zip(self.name, self.start, self.end, self.parent)]},
                      fh, separators=(",", ":"))


def _holder(owner: str):
    module_name, _, class_name = owner.partition(":")
    module = sys.modules[module_name]
    return getattr(module, class_name) if class_name else module


def self_times(spans) -> list[int]:
    """Self time of each span: its duration minus the union of its children's intervals.

    `spans` is a sequence of (name, start, end, parent index or -1).
    """
    children: dict[int, list[tuple[int, int]]] = {}
    for _, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for sid, (_, start, end, _) in enumerate(spans):
        covered = 0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(sid, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(end - start - covered)
    return out


class Summary:
    """Per-name calls, inclusive and self nanoseconds, and per-layer self time."""

    def __init__(self, spans):
        self.spans = spans
        self.self_ns = self_times(spans)
        self.calls: dict[str, int] = {}
        self.incl_ns: dict[str, int] = {}
        self.own_ns: dict[str, int] = {}
        self.layer_self_ns: dict[str, int] = {}
        for (name, start, end, _), own in zip(spans, self.self_ns):
            self.calls[name] = self.calls.get(name, 0) + 1
            self.incl_ns[name] = self.incl_ns.get(name, 0) + end - start
            self.own_ns[name] = self.own_ns.get(name, 0) + own
            layer = name.partition(".")[0]
            self.layer_self_ns[layer] = self.layer_self_ns.get(layer, 0) + own

    def layer_self_under(self, root: str, layer: str) -> int:
        """Self time of `layer` spans that run inside a `root` span (root included)."""
        inside = [False] * len(self.spans)
        total = 0
        for sid, (name, _, _, parent) in enumerate(self.spans):
            inside[sid] = name == root or (parent >= 0 and inside[parent])
            if inside[sid] and name.partition(".")[0] == layer:
                total += self.self_ns[sid]
        return total
