"""Independent oracles used to freeze expected values.

These deliberately avoid the library's own code paths: accuracy is
computed by enumerating every raw channel sequence, the digest by a
byte-at-a-time FNV loop written from the published constants, and the
reflex schedule by a literal counter walk.
"""
import itertools
import json


def brute_feature_accuracy(n: int, eps: float, a: int, true_symbol: int) -> float:
    """Enumerate all a^n per-feature observation sequences."""
    probs = [eps / (a - 1)] * a
    probs[true_symbol] = 1.0 - eps
    total = 0.0
    for seq in itertools.product(range(a), repeat=n):
        counts = [0] * a
        for s in seq:
            counts[s] += 1
        m = max(counts)
        winner = min(s for s in range(a) if counts[s] == m)
        if winner == true_symbol:
            p = 1.0
            for s in seq:
                p *= probs[s]
            total += p
    return total


def brute_fair_feature_accuracy(n: int, eps: float, a: int, true_symbol: int) -> float:
    """Enumerate all a^n sequences under a uniformly random tie-break.

    A sequence whose modal set holds the true symbol counts with weight
    1/|modal set|, the chance that a fair draw among the modes picks it.
    """
    total = 0.0
    for seq in itertools.product(range(a), repeat=n):
        counts = [seq.count(s) for s in range(a)]
        modes = [s for s in range(a) if counts[s] == max(counts)]
        if true_symbol in modes:
            p = 1.0
            for s in seq:
                p *= 1.0 - eps if s == true_symbol else eps / (a - 1)
            total += p / len(modes)
    return total


def brute_outcome_probability(kb, x, n: int, eps: float, a: int, node: int) -> float:
    """P(measure outcome lands on the given node), by full enumeration.

    Enumerates all a^(n*d) joint channel outcomes; only feasible for
    tiny configurations.
    """
    from aprior.perception import identify, majority_fold

    d = len(x)
    def sym_prob(true, obs):
        return 1.0 - eps if obs == true else eps / (a - 1)

    total = 0.0
    for joint in itertools.product(range(a), repeat=n * d):
        obs = [tuple(joint[i * d:(i + 1) * d]) for i in range(n)]
        p = 1.0
        for o in obs:
            for true, got in zip(x, o):
                p *= sym_prob(true, got)
        if identify(kb, majority_fold(obs)).node == node:
            total += p
    return total


def fnv1a_oracle(data: bytes) -> int:
    h = 14695981039346656037
    for b in data:
        h = ((h ^ b) * 1099511628211) % (1 << 64)
    return h


def canonical_json_oracle(doc: dict) -> bytes:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), ensure_ascii=False).encode()


def reflex_fire_trials(recognition_schedule, k: int):
    """Trials (0-based) on which a threshold-k program may fire.

    recognition_schedule: booleans, True when the trigger is recognized
    on that trial. The counter includes the current trial.
    """
    fires = []
    count = 0
    for t, recognized in enumerate(recognition_schedule):
        if recognized:
            count += 1
            if count >= k:
                fires.append(t)
    return fires


def canonical_document_oracle(doc: dict) -> dict:
    """The canonical form re-parsed from the raw document, arrays sorted by id.

    Written against the document, not the sealed KB: defaults are filled
    in here and every array is sorted as it stands, so it checks the form
    the library derives from its validated structures.
    """
    return {
        "d": doc["d"],
        "alphabet": doc["alphabet"],
        "objects": sorted(
            (
                {
                    "id": o["id"],
                    "parent": o.get("parent"),
                    "predicate": sorted([list(p) for p in o.get("predicate", [])]),
                }
                for o in doc["objects"]
            ),
            key=lambda o: o["id"],
        ),
        "operations": sorted(
            (
                {
                    "id": p["id"],
                    "action_tag": p["action_tag"],
                    "task": p["task"],
                    "applicable_objects": sorted(p["applicable_objects"]),
                }
                for p in doc["operations"]
            ),
            key=lambda p: p["id"],
        ),
        "tasks": sorted(
            (
                {"id": t["id"], "pairs": sorted([list(pr) for pr in t["pairs"]])}
                for t in doc["tasks"]
            ),
            key=lambda t: t["id"],
        ),
        "programs": sorted(
            (
                {
                    "id": g["id"],
                    "trigger": g["trigger"],
                    "operations": list(g["operations"]),
                    "k": g.get("k", 1),
                    "utility": float(g.get("utility", 0.0)),
                }
                for g in doc["programs"]
            ),
            key=lambda g: g["id"],
        ),
    }
