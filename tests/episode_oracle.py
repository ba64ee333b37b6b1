"""A whole episode log written from the README's spec: the differential oracle.

It imports nothing from the library: it parses the KB document itself,
writes out splitmix64, and spells out the channel, the fold, the descent,
the gate, the phi0 filter, the uniform pick and the scoring. It lives apart
from oracles.py, which the benchmark's gates import in every run.
"""
import itertools
import json
import math

from oracles import canonical_document_oracle, canonical_json_oracle, fnv1a_oracle

_MASK64 = (1 << 64) - 1


class _Stream:
    """splitmix64 written out from Steele, Lea and Flood (OOPSLA 2014), counting its words."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64
        self.words = 0

    def u64(self) -> int:
        self.words += 1
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, m: int) -> int:
        # rejection sampling: only draws under the largest multiple of m are used
        while True:
            u = self.u64()
            if u < (2 ** 64 // m) * m:
                return u % m


def _named_stream(seed: int, name: str) -> _Stream:
    return _Stream((seed & _MASK64) ^ fnv1a_oracle(name.encode("utf-8")))


def descend(objects, v):
    """(node, depth, status) of greedy descent; objects maps id -> (parent, pairs)."""
    node, depth = -1, 0
    while True:
        nxt = [oid for oid, (parent, pairs) in objects.items()
               if parent == node and all(v[i] == s for i, s in pairs)]
        if not nxt:
            break
        node, depth = nxt[0], depth + 1
    if node == -1:
        return -1, 0, "unrecognized"
    has_child = any(parent == node for parent, _ in objects.values())
    return node, depth, "partial" if has_child else "full"


def _fold(observations, a: int):
    folded = []
    for i in range(len(observations[0])):
        counts = [0] * a
        for obs in observations:
            counts[obs[i]] += 1
        folded.append(counts.index(max(counts)))  # index() finds the lowest symbol
    return folded


def _count_vector_accuracy(n: int, eps: float, a: int, true_symbol: int) -> float:
    """P(fold == true symbol), summed over count vectors in lexicographic order."""
    if eps == 0.0:
        return 1.0
    total = 0.0
    for counts in itertools.product(range(n + 1), repeat=a):
        if sum(counts) != n or counts.index(max(counts)) != true_symbol:
            continue
        ways = math.factorial(n)
        for c in counts:
            ways //= math.factorial(c)
        weight = float(ways)
        for s, c in enumerate(counts):
            weight *= (1.0 - eps if s == true_symbol else eps / (a - 1)) ** c
        total += weight
    return total


def _planned_n(objects, d: int, a: int, config: dict) -> int:
    if config["fixed_n"] is not None:
        return config["fixed_n"]
    has_child = {parent for parent, _ in objects.values()}
    leaves = [oid for oid in sorted(objects)
              if oid not in has_child and len(objects[oid][1]) == d]
    if not leaves:
        return 1
    pinned = dict(objects[leaves[0]][1])
    best_n, best_phi = None, None
    for n in range(1, config["n_max"] + 1):
        p_ok = 1.0
        for i in range(d):
            p_ok *= _count_vector_accuracy(n, config["epsilon"], a, pinned[i])
        phi = config["value"] * (1.0 - (1.0 - p_ok)) - config["cost"] * n
        if best_phi is None or phi > best_phi:
            best_n, best_phi = n, phi
    return best_n


def reference_episode(kb_doc: dict, scenario_doc: dict, seed: int, config: dict):
    """A whole episode log, written from the README's spec without the library.

    config holds trials, epsilon, value, cost, phi0, n_max and fixed_n, and
    is the header's config too. Returns the JSON-lines text and the words
    drawn from each named stream.
    """
    d, a = kb_doc["d"], kb_doc["alphabet"]
    objects = {o["id"]: (-1 if o.get("parent") is None else o["parent"],
                         [tuple(p) for p in o.get("predicate", [])])
               for o in kb_doc["objects"]}
    tag_of = {p["id"]: p["action_tag"] for p in kb_doc["operations"]}
    programs = sorted(kb_doc["programs"], key=lambda g: g["id"])
    canonical = canonical_json_oracle(canonical_document_oracle(kb_doc))
    tasks = sorted([t["id"], sorted([list(p) for p in t["pairs"]])] for t in kb_doc["tasks"])

    entries = [(tuple(e["vector"]), e["truth"]) for e in scenario_doc["entries"]]
    weights = [float(w) for w in scenario_doc.get("weights", [])]
    repeat = scenario_doc.get("repeat", 1) if scenario_doc["kind"] == "reflex" else 1
    scoring = {(row["action"], row["truth"]): float(row["value"])
               for row in scenario_doc.get("scoring", [])}

    channel = _named_stream(seed, "channel")
    selection = _named_stream(seed, "selection")
    schedule = _named_stream(seed, "scenario")
    n = _planned_n(objects, d, a, config)
    threshold = int(config["epsilon"] * 2 ** 64)
    recognitions: dict = {}

    lines = [json.dumps({
        "seed": seed, "trials": config["trials"], "config": config,
        "digest_before": fnv1a_oracle(canonical), "digest_after": fnv1a_oracle(canonical),
        "tasks_before": tasks, "tasks_after": tasks,
    }, sort_keys=True, separators=(",", ":"))]
    for t in range(config["trials"]):
        if scenario_doc["kind"] == "categorical":
            u = (schedule.u64() >> 11) * 2.0 ** -53 * sum(weights)
            pick, acc = len(entries) - 1, 0.0
            for i, w in enumerate(weights):
                acc += w
                if u < acc:
                    pick = i
                    break
            x, truth = entries[pick]
        else:
            x, truth = entries[(t // repeat) % len(entries)]

        observations = []
        for _ in range(n):
            obs = []
            for s in x:
                if channel.u64() < threshold:
                    j = channel.below(a - 1)  # a uniform symbol other than s
                    s = j if j < s else j + 1
                obs.append(s)
            observations.append(obs)
        denoised = _fold(observations, a)
        node, depth, status = descend(objects, denoised)
        hits = sum(1 for obs in observations if descend(objects, obs)[0] == node)
        agreement = hits / n

        candidates = []
        if status != "unrecognized":
            recognitions[node] = recognitions.get(node, 0) + 1
            candidates = [[g["id"], float(g.get("utility", 0.0)) * agreement - config["cost"] * n]
                          for g in programs
                          if g["trigger"] == node and g.get("k", 1) <= recognitions[node]]
        eligible = sorted((c for c in candidates if c[1] > config["phi0"]),
                          key=lambda c: (-c[1], c[0]))
        chosen = eligible[selection.below(len(eligible))] if eligible else None
        action, score = None, 0.0
        if chosen is not None:
            program = next(g for g in programs if g["id"] == chosen[0])
            tags = [tag_of[op] for op in program["operations"]]
            action = {"program": program["id"], "tags": tags, "trigger": program["trigger"]}
            score = sum(scoring.get((tag, truth), 0.0) for tag in tags)
        lines.append(json.dumps({
            "t": t, "stimulus": list(x), "truth": truth, "n": n, "denoised": denoised,
            "node": node, "depth": depth, "status": status, "agreement": agreement,
            "candidates": candidates, "eligible": [c[0] for c in eligible],
            "chosen": None if chosen is None else chosen[0],
            "phi_chosen": None if chosen is None else chosen[1],
            "action": action, "score": score,
        }, sort_keys=True, separators=(",", ":")))
    words = {"channel": channel.words, "selection": selection.words,
             "scenario": schedule.words}
    return "\n".join(lines) + "\n", words

