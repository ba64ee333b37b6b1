"""Independent oracles used to freeze expected values.

These deliberately avoid the library's own code paths: accuracy is
computed by enumerating every raw channel sequence, the digest by a
byte-at-a-time FNV loop written from the published constants, splitmix64
one word at a time, and the reflex schedule by a literal counter walk.
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


def matching_leaf(kb, v):
    """The smallest-id leaf whose predicate v satisfies, or None.

    A scan over every object, without the tree descent: a leaf is an
    object that is no object's parent.
    """
    parents = {obj.parent for obj in kb.objects.values()}
    for oid in sorted(kb.objects):
        if oid not in parents and all(v[i] == s for i, s in kb.objects[oid].predicate.constraints):
            return oid
    return None


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


def first_early_fire(trials, program_id, trigger, k: int):
    """(t, recognitions so far) of the program's first fire below k, or None.

    A walk over logged trials for this one program; the count includes
    the current trial.
    """
    count = 0
    for trial in trials:
        if trial["status"] != "unrecognized" and trial["node"] == trigger:
            count += 1
        action = trial.get("action")
        if action is not None and action.get("program") == program_id and count < k:
            return trial["t"], count
    return None


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


def words_drawn(start: int, end: int) -> int:
    """Words a splitmix64 stream drew to go from state start to state end.

    Each word adds the odd constant GAMMA mod 2**64, so the count is the
    difference times GAMMA's inverse.
    """
    return (end - start) * pow(0x9E3779B97F4A7C15, -1, 2 ** 64) % 2 ** 64


class ScalarStream:
    """splitmix64 one word at a time, from Steele, Lea and Flood (OOPSLA 2014),
    with SplitMix64's next_u64, randbelow and next_float on top."""

    def __init__(self, state: int):
        self.state = state % 2 ** 64

    def next_u64(self) -> int:
        self.state = z = (self.state + 0x9E3779B97F4A7C15) % 2 ** 64
        z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 % 2 ** 64
        z = (z ^ z >> 27) * 0x94D049BB133111EB % 2 ** 64
        return z ^ z >> 31

    def randbelow(self, n: int) -> int:
        # rejection: only words under the largest multiple of n are used
        while (u := self.next_u64()) >= 2 ** 64 // n * n:
            pass
        return u % n

    def next_float(self) -> float:
        return (self.next_u64() >> 11) * 2.0 ** -53


def scalar_categorical(weights, rng) -> int:
    """Index of one categorical draw on rng (a ScalarStream), one word: u is next_float
    scaled by sum(weights), and the first index whose running weight sum exceeds u
    wins, else the last."""
    u = rng.next_float() * sum(weights)
    acc = 0.0
    for i, w in enumerate(weights):
        acc += w
        if u < acc:
            return i
    return len(weights) - 1


def scalar_channel(x, n: int, params, rng):
    """n observations of x drawn one word at a time with rng's next_u64 and
    randbelow (a ScalarStream), flat: one symbol per channel use, observation
    after observation."""
    threshold = int(params.epsilon * 2 ** 64)
    observations = []
    for _ in range(n):
        obs = []
        for sym in x:
            if rng.next_u64() < threshold:
                j = rng.randbelow(params.alphabet - 1)
                sym = j if j < sym else j + 1
            obs.append(sym)
        observations.append(tuple(obs))
    return tuple(sym for obs in observations for sym in obs)


def state_drawing(word: int, index: int) -> int:
    """The splitmix64 state whose index-th next word (from 0) is word.

    Inverts the output mix: each xor-shift z ^ (z >> k) is undone by
    xoring in every multiple of k, and each multiplier by its inverse
    mod 2**64. The state before that word is then index+1 steps back.
    """
    mask = 2 ** 64 - 1
    gamma = 0x9E3779B97F4A7C15

    def unshift(z: int, k: int) -> int:  # k is 27 or more, so 3k >= 64
        return z ^ (z >> k) ^ (z >> 2 * k)

    z = unshift(word, 31)
    z = unshift(z * pow(0x94D049BB133111EB, -1, 2 ** 64) & mask, 27)
    z = unshift(z * pow(0xBF58476D1CE4E5B9, -1, 2 ** 64) & mask, 30)
    return (z - (index + 1) * gamma) & mask
