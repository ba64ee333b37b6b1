"""Seeded generator for the deep recognition-tree KB and its reflex scenario.

The tree has alphabet 3 and 4 features; level l pins feature l-1. Two of
the three top-level symbols get a branch, so a vector whose first symbol
is the third one is unrecognized (omega). Levels 2 and 3 are complete and
PRUNED leaves are removed from distinct level-3 nodes, which makes those
nodes partial matches for the vectors that led to the pruned leaf. Every
node triggers two programs; their reflex thresholds cover 1..5.

The shape is the same for every seed (76 objects, 152 programs); the seed
picks the symbols, the pruned leaves, thresholds, utilities, tags and the
scenario entries. Only the stdlib `random.Random` is used, so a seed gives
the same documents on every run.
"""
from __future__ import annotations

import random

ALPHABET = 3
DIM = 4
PRUNED = 4
PROGRAMS_PER_NODE = 2
MAX_K = 5
TAGS = ("pull", "push", "grasp", "probe", "orient", "retreat")

LEAF_ENTRIES = 12
OMEGA_ENTRIES = 2
REPEAT = 4


def _utility(rng: random.Random) -> float:
    # always three decimals, so the canonical length does not depend on the seed
    return (rng.randrange(30, 100) * 10 + rng.randrange(1, 10)) / 1000


def generate(seed: int) -> tuple[dict, dict]:
    """Return (kb_document, scenario_document) for one seed."""
    rng = random.Random(seed)
    top = sorted(rng.sample(range(ALPHABET), 2))
    missing = next(s for s in range(ALPHABET) if s not in top)

    # breadth-first ids, so the smallest-id leaf is the first leaf of level 4
    objects = []  # (id, parent id or None, path of symbols)
    level = []
    next_id = 1
    for sym in top:
        objects.append((next_id, None, (sym,)))
        level.append((next_id, (sym,)))
        next_id += 1
    for depth in range(2, DIM + 1):
        parents = level
        level = []
        pruned = {}
        if depth == DIM:
            for oid, _ in rng.sample(parents, PRUNED):
                pruned[oid] = rng.randrange(ALPHABET)
        for pid, path in parents:
            for sym in range(ALPHABET):
                if pruned.get(pid) == sym:
                    continue
                objects.append((next_id, pid, path + (sym,)))
                level.append((next_id, path + (sym,)))
                next_id += 1

    children: dict[int, list[int]] = {}
    for oid, parent, _ in objects:
        if parent is not None:
            children.setdefault(parent, []).append(oid)

    # one operation per node, applicable to the node and its children, so a
    # program may chain its own node's operation with its parent's
    operations = []
    op_of = {}
    task_pairs = {1: [], 2: []}
    for oid, _, path in objects:
        task = 1 if path[0] == top[0] else 2
        op_of[oid] = oid
        operations.append({
            "id": oid,
            "action_tag": rng.choice(TAGS),
            "task": task,
            "applicable_objects": [oid] + children.get(oid, []),
        })
        task_pairs[task].append([oid, oid])

    n_programs = PROGRAMS_PER_NODE * len(objects)
    ks = [1 + i % MAX_K for i in range(n_programs)]
    rng.shuffle(ks)
    programs = []
    for idx, (oid, parent, _) in enumerate(objects):
        chains = [[op_of[oid]], [op_of[oid]] if parent is None else [op_of[oid], op_of[parent]]]
        for j, ops in enumerate(chains):
            gid = PROGRAMS_PER_NODE * idx + j + 1
            programs.append({
                "id": gid,
                "trigger": oid,
                "operations": ops,
                "k": ks[gid - 1],
                "utility": _utility(rng),
            })

    kb_doc = {
        "d": DIM,
        "alphabet": ALPHABET,
        "objects": [
            {"id": oid, "parent": parent, "predicate": [[i, s] for i, s in enumerate(path)]}
            for oid, parent, path in objects
        ],
        "operations": operations,
        "tasks": [{"id": tid, "pairs": pairs} for tid, pairs in task_pairs.items()],
        "programs": programs,
    }

    leaves = [(oid, path) for oid, _, path in objects if len(path) == DIM]
    entries = [{"vector": list(path), "truth": oid}
               for oid, path in rng.sample(leaves, LEAF_ENTRIES)]
    path_of = {oid: path for oid, _, path in objects}
    for pid in sorted(p for p in children if len(path_of[p]) == DIM - 1
                      and len(children[p]) < ALPHABET):
        taken = {path_of[c][-1] for c in children[pid]}
        sym = next(s for s in range(ALPHABET) if s not in taken)
        entries.append({"vector": list(path_of[pid]) + [sym], "truth": pid})
    for _ in range(OMEGA_ENTRIES):
        tail = [rng.randrange(ALPHABET) for _ in range(DIM - 1)]
        entries.append({"vector": [missing] + tail, "truth": "omega"})
    rng.shuffle(entries)

    tag_of = {op["id"]: op["action_tag"] for op in operations}
    scoring = [{"action": tag_of[e["truth"]], "truth": e["truth"], "value": 1.0}
               for e in entries if e["truth"] != "omega"]
    scenario_doc = {
        "name": f"reflex-deep-{seed}",
        "kind": "reflex",
        "repeat": REPEAT,
        "entries": entries,
        "scoring": scoring,
    }
    return kb_doc, scenario_doc
