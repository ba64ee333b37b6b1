import copy
import functools
import itertools
import math
import pickle

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from aprior.agent import AgentState, _trials
from aprior.decision import MeasurementEconomy
from aprior.kb import ROOT, Predicate, build_kb
from aprior.perception import (
    FULL,
    OBSERVED_MAX,
    PARTIAL,
    UNRECOGNIZED,
    ChannelParams,
    InvalidCount,
    channel,
    corrupt,
    identify,
    majority_fold,
    measure,
)
from aprior.rng import BLOCK, MASK64, SplitMix64
from conftest import tree_docs
from oracles import (
    ScalarStream,
    brute_feature_accuracy,
    brute_outcome_probability,
    scalar_channel,
    state_drawing,
    words_drawn,
)

ALL_VECTORS = [(i, j) for i in range(3) for j in range(3)]


def test_match_predicate_basics():
    assert Predicate(()).matches((0, 1))
    assert Predicate(((0, 0),)).matches((0, 1))
    assert not Predicate(((0, 0),)).matches((1, 1))
    assert not Predicate(((0, 0), (1, 0))).matches((0, 1))


def test_identify_spec_examples(kb):
    out = identify(kb, (0, 0))
    assert (out.node, out.status) == (11, FULL)
    out = identify(kb, (2, 0))
    assert (out.node, out.depth, out.status) == (ROOT, 0, UNRECOGNIZED)
    out = identify(kb, (0, 2))
    assert (out.node, out.status) == (1, PARTIAL)


def test_identify_exhaustive(kb):
    # independent oracle: walk predicate definitions directly
    def expected(v):
        if v[0] == 0:
            if v[1] == 0:
                return (11, FULL)
            if v[1] == 1:
                return (12, FULL)
            return (1, PARTIAL)
        if v[0] == 1:
            return (2, FULL)
        return (ROOT, UNRECOGNIZED)

    for v in ALL_VECTORS:
        out = identify(kb, v)
        assert (out.node, out.status) == expected(v)


def test_identify_stability(kb):
    # returned node matches v; no child of it matches v
    for v in ALL_VECTORS:
        out = identify(kb, v)
        if out.node != ROOT:
            assert kb.objects[out.node].predicate.matches(v)
        assert not any(
            kb.objects[c].predicate.matches(v) for c in kb.children(out.node)
        )


def test_corrupt_noiseless_and_forced():
    rng = SplitMix64(1)
    v = (0, 1, 2)
    p0 = ChannelParams(epsilon=0.0, alphabet=3, dim=3)
    assert all(corrupt(v, p0, rng) == v for _ in range(50))
    p1 = ChannelParams(epsilon=1.0, alphabet=2, dim=3)
    w = (0, 1, 0)
    for _ in range(50):
        assert corrupt(w, p1, rng) == (1, 0, 1)


def test_corrupt_retention_rate():
    # per-feature retention over 10^5 draws = 0.7 within 3 sigma binomial
    params = ChannelParams(epsilon=0.3, alphabet=3, dim=1)
    rng = SplitMix64(2024)
    n = 100_000
    kept = sum(1 for _ in range(n) if corrupt((1,), params, rng) == (1,))
    sigma = math.sqrt(n * 0.7 * 0.3)
    assert abs(kept - 0.7 * n) < 3 * sigma


def test_corrupt_replacement_uniform_over_other_symbols():
    params = ChannelParams(epsilon=1.0, alphabet=4, dim=1)
    rng = SplitMix64(5)
    n = 30_000
    counts = {0: 0, 2: 0, 3: 0}
    for _ in range(n):
        counts[corrupt((1,), params, rng)[0]] += 1
    sigma = math.sqrt(n * (1 / 3) * (2 / 3))
    for c in counts.values():
        assert abs(c - n / 3) < 3 * sigma


def test_majority_fold_rules():
    assert majority_fold([(0, 1)]) == (0, 1)
    assert majority_fold([(0,), (0,), (1,)]) == (0,)
    assert majority_fold([(0,), (1,), (2,)]) == (0,)  # three-way tie, lowest wins
    assert majority_fold([(2,), (1,), (1,)]) == (1,)
    assert majority_fold([(2,), (1,)]) == (1,)  # two-way tie, lowest wins
    with pytest.raises(InvalidCount):
        majority_fold([])


@given(st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=9,
))
def test_majority_fold_output_is_observed_modal_symbol(obs):
    folded = majority_fold(obs)
    for i in range(2):
        column = [o[i] for o in obs]
        top = max(set(column), key=lambda s: (column.count(s), -s))
        assert folded[i] == top


def test_measure_noiseless(kb, noiseless):
    rng = SplitMix64(0)
    for n in (1, 3, 7):
        denoised, outcome, hits = measure(kb, (0, 0), n, noiseless, rng)
        assert outcome.node == 11
        assert outcome.status == FULL
        assert hits == n
        assert denoised == (0, 0)


def test_measure_rejects_zero_count(kb, params):
    with pytest.raises(InvalidCount):
        measure(kb, (0, 0), 0, params, SplitMix64(0))


def test_measure_deterministic(kb, params):
    r1 = measure(kb, (0, 0), 5, params, SplitMix64(77))
    r2 = measure(kb, (0, 0), 5, params, SplitMix64(77))
    assert r1 == r2


def test_measure_consumes_one_symbol_draw_per_feature(kb):
    # one word per channel use, plus one per corruption: alphabet 3 never
    # rejects, because 2 divides 2**64
    for epsilon, words_per_use in ((0.0, 1), (1.0, 2)):
        rng = SplitMix64(1)
        start = rng.state
        measure(kb, (0, 0), 5, ChannelParams(epsilon=epsilon, alphabet=3, dim=2), rng)
        assert words_drawn(start, rng.state) == 5 * 2 * words_per_use


def test_measure_outcome_probability_matches_enumeration(kb, params):
    # P(outcome = Q11 | X = (0,0), n = 3) by exhaustive 3^(3*2) enumeration
    p_exact = brute_outcome_probability(kb, (0, 0), 3, 0.3, 3, 11)
    # per-feature independence cross-check from the spec example
    per_feature = brute_feature_accuracy(3, 0.3, 3, 0)
    assert math.isclose(p_exact, per_feature ** 2, abs_tol=1e-12)
    assert math.isclose(p_exact, 0.8785 ** 2, abs_tol=1e-9)

    n_samples = 100_000
    rng = SplitMix64(31337)
    hits = sum(
        1 for _ in range(n_samples)
        if measure(kb, (0, 0), 3, params, rng)[1].node == 11
    )
    sigma = math.sqrt(n_samples * p_exact * (1 - p_exact))
    assert abs(hits - p_exact * n_samples) < 3 * sigma


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(1, 9), st.sampled_from(ALL_VECTORS), st.integers(0, 2 ** 63))
def test_measure_noiseless_equals_identify(kb, noiseless, n, x, seed):
    _, outcome, _ = measure(kb, x, n, noiseless, SplitMix64(seed))
    assert outcome == identify(kb, x)


def test_memo_holds_the_identify_outcome_of_every_vector(kb, params):
    # the memo is the KB's recognition table
    assert kb._recognition == {}
    rng = SplitMix64(5)
    for _ in range(20):
        for x in ALL_VECTORS:
            measure(kb, x, 5, params, rng)
    assert kb._recognition == {v: identify(kb, v) for v in ALL_VECTORS}


@pytest.mark.parametrize("vector", [(1.0, 0.0), (True, 0), (1, 0.0)])
def test_symbols_that_only_equal_ints_never_enter_the_table(kb, noiseless, vector):
    # 1.0 and True compare and hash as 1, so as keys they would stand for (1, 0)
    with pytest.raises(ValueError, match="not ints"):
        measure(kb, vector, 1, noiseless, SplitMix64(0))
    assert kb._recognition == {}


def identify_every_time(kb, x, n, params, rng):
    # measure as written before the memo: one identify per vector, every call
    observations = [corrupt(x, params, rng) for _ in range(n)]
    denoised = majority_fold(observations)
    outcome = identify(kb, denoised)
    hits = sum(1 for obs in observations if identify(kb, obs).node == outcome.node)
    return denoised, outcome, hits


def test_shared_memo_gives_the_results_of_a_fresh_memo(doc, kb, params):
    # kb's table warms up across calls; a KB built afresh starts with an empty one
    for seed in range(30):
        for n in (1, 2, 3, 8):
            for x in ALL_VECTORS:
                with_shared = measure(kb, x, n, params, SplitMix64(seed))
                assert with_shared == measure(build_kb(doc), x, n, params, SplitMix64(seed))
                assert with_shared == identify_every_time(kb, x, n, params, SplitMix64(seed))


@settings(max_examples=80, deadline=None)
@given(tree_docs(), st.data())
def test_a_warm_observation_table_gives_what_a_fresh_kb_gives(doc, data):
    kb = build_kb(doc)
    a, d = kb.alphabet, kb.dim
    vectors = st.tuples(*[st.integers(0, a - 1)] * d)
    params = ChannelParams(data.draw(st.sampled_from([0.0, 0.3, 2 / 3, 1.0])), a, d)
    x, n, seed = data.draw(vectors), data.draw(st.integers(1, 6)), data.draw(st.integers(0, MASK64))
    # warm kb's tables with other calls, then with this very one
    warm = SplitMix64(data.draw(st.integers(0, MASK64)))
    for v, m in data.draw(st.lists(st.tuples(vectors, st.integers(1, 6)), max_size=30)):
        measure(kb, v, m, params, warm)
    measure(kb, x, n, params, SplitMix64(seed))

    rng, fresh_rng = SplitMix64(seed), SplitMix64(seed)
    got = measure(kb, x, n, params, rng)
    assert got == measure(build_kb(doc), x, n, params, fresh_rng)
    assert got == identify_every_time(kb, x, n, params, SplitMix64(seed))
    # the same stream state and tail: the next call draws the same words
    assert rng.state == fresh_rng.state and rng._tail[0] == fresh_rng._tail[0]
    assert channel(x * n, params, rng) == channel(x * n, params, fresh_rng)
    assert rng.state == fresh_rng.state
    # the call was answered from the table iff the key space is within the bound
    table = kb._observed[n]
    if a ** (d * n) <= OBSERVED_MAX:
        assert table[channel(x * n, params, SplitMix64(seed))] is got
        assert 0 < len(table) <= a ** (d * n)
        assert all(len(key) == n * d for key in table)
    else:
        assert table is False


@pytest.mark.parametrize("epsilon, alphabet, dim", [
    (0.3, 3.0, 2), (0.3, 3, 2.0), (0.3, True, 2), (0.3, 3, True), (True, 3, 2), (False, 3, 2),
    ("0.3", 3, 2), (None, 3, 2), (float("nan"), 3, 2), (0.3, "3", 2), (0.3, 3, None),
], ids=["alphabet 3.0", "dim 2.0", "alphabet True", "dim True", "epsilon True",
        "epsilon False", "epsilon a string", "epsilon None", "epsilon NaN", "alphabet a string",
        "dim None"])
def test_channel_params_take_only_int_sizes_and_a_numeric_epsilon(epsilon, alphabet, dim):
    # 3.0 == 3 and True == 1, so a size of the wrong type would pass the KB's check
    with pytest.raises(ValueError):
        ChannelParams(epsilon, alphabet, dim)


@pytest.mark.parametrize("epsilon", [0, 1])
def test_channel_params_take_an_int_or_float_epsilon(epsilon):
    # an int epsilon gives the channel output and stream state of its float
    uses = tuple(s for v in ALL_VECTORS for s in v)
    as_int, as_float = SplitMix64(7), SplitMix64(7)
    out = channel(uses, ChannelParams(epsilon, 3, 2), as_int)
    assert out == channel(uses, ChannelParams(float(epsilon), 3, 2), as_float)
    assert as_int.state == as_float.state
    assert all((o == u) == (epsilon == 0) for o, u in zip(out, uses))


def assert_channel_is_the_scalar_walk(x, n, params, state):
    """channel's observations and end state equal a scalar next_u64/randbelow
    walk; returns the observations and the words drawn."""
    rng, reference = SplitMix64(state), ScalarStream(state)
    observations = channel(x * n, params, rng)
    assert observations == scalar_channel(x, n, params, reference)
    assert rng.state == reference.state
    return observations, words_drawn(state, rng.state)


@pytest.mark.parametrize("index", [1, BLOCK // 2 - 1, BLOCK - 1],
                         ids=["early in a block", "mid-block", "last of a block"])
def test_channel_rejects_a_replacement_word_at_the_limit(index):
    # alphabet 4: randbelow(3) rejects words >= 3 * (2**64 // 3) = 2**64 - 1.
    # At eps=1 every use corrupts, so until a rejection the odd words are
    # replacements; the state is chosen so that word index is 2**64 - 1.
    # 700 uses run past the BLOCK cap, so after the last word of a block the
    # retry is the first word of the next block, mixed inside the rejection loop.
    state = state_drawing(MASK64, index)
    params = ChannelParams(1.0, 4, 1)
    _, drawn = assert_channel_is_the_scalar_walk((0,), 700, params, state)
    assert drawn == 2 * 700 + 1


def test_channel_rejects_at_every_place_in_a_block():
    # blocks have an even length, so at eps=1 the single rejected word of
    # the test above never starts one. With 2**63 + 1 other symbols
    # randbelow rejects about half of all words, and 1200 uses make every
    # block BLOCK words long, so rejected words fall on every place in a
    # block, the first included.
    params = ChannelParams(1.0, 2 ** 63 + 2, 1)
    _, drawn = assert_channel_is_the_scalar_walk((0,), 1200, params, 5)
    others = params.alphabet - 1
    limit = 2 ** 64 // others * others
    rng, index, places = ScalarStream(5), 0, set()
    for _ in range(1200):
        rng.next_u64()  # the use's word; every use corrupts
        index += 1
        while rng.next_u64() >= limit:
            places.add(index % BLOCK)
            index += 1
        index += 1
    assert drawn == index
    assert {0, 1, BLOCK // 2, BLOCK - 1} <= places


@pytest.mark.parametrize("x, n, epsilon", [
    ((0,), 700, 1.0),
    ((1,) * 13, 1000, 1.0),
    ((1,) * 13, 1000, 0.3),
    ((0, 2), 3, 0.3),
], ids=["700 uses, eps 1", "Monte Carlo batch, eps 1", "Monte Carlo batch, eps 0.3", "C1 call, one small block"])
def test_channel_refills_across_blocks(x, n, epsilon):
    # alphabet 3 never rejects, so each use draws its word and, if corrupted,
    # one more; a corruption always changes the symbol
    params = ChannelParams(epsilon, 3, len(x))
    for state in (0, 2 ** 64 - 1, 0x0123456789ABCDEF):
        observations, drawn = assert_channel_is_the_scalar_walk(x, n, params, state)
        corruptions = sum(a != b for a, b in zip(observations, x * n))
        assert drawn == n * len(x) + corruptions
        if epsilon == 1.0:
            assert corruptions == n * len(x)


def test_channel_carries_its_tail_to_a_block_end_and_past_it():
    # a C1-sized call, then one that ends on the first block's last word: the
    # third call starts the next block, mixed from the kept iterator
    rng, reference = SplitMix64(9), ScalarStream(9)
    for x, n, epsilon in (((0, 1), 50, 0.0), ((0,), BLOCK - 100, 0.0), ((0, 2), 3, 0.3)):
        params = ChannelParams(epsilon, 3, len(x))
        assert channel(x * n, params, rng) == scalar_channel(x, n, params, reference)
        assert rng.state == reference.state
    assert words_drawn(9, rng.state) > BLOCK
    assert rng._tail[0] == rng.state


@pytest.mark.parametrize("uses", [1, BLOCK // 2 - 1], ids=["early", "at a block end"])
def test_channel_rejects_the_first_replacement_after_a_call_boundary(uses):
    # alphabet 4, eps=1: every use draws its word and a replacement, and
    # randbelow(3) rejects 2**64 - 1. The first call draws 2·uses words, so
    # the second call's first replacement is word 2·uses + 1, drawn from the
    # first call's iterator and rejected.
    params = ChannelParams(1.0, 4, 1)
    state = state_drawing(MASK64, 2 * uses + 1)
    rng, reference = SplitMix64(state), ScalarStream(state)
    for n in (uses, 3):
        assert channel((0,) * n, params, rng) == scalar_channel((0,), n, params, reference)
        assert rng.state == reference.state
    assert words_drawn(state, rng.state) == 2 * uses + 2 * 3 + 1


CHANNEL_CALLS = st.tuples(
    st.just("channel"), st.lists(st.integers(0, 1), min_size=1, max_size=3).map(tuple),
    st.integers(1, 200), st.sampled_from([0.0, 0.3, 1.0]), st.sampled_from([2, 3, 4, 2 ** 63 + 2]))
STREAM_OPS = st.lists(st.one_of(
    CHANNEL_CALLS, CHANNEL_CALLS, CHANNEL_CALLS,
    st.tuples(st.just("next_u64")),
    st.tuples(st.just("next_float")),
    st.tuples(st.just("randbelow"), st.integers(1, 2 ** 64)),
    st.tuples(st.just("pick"), st.integers(1, 5), st.integers(1, 40)),
    st.tuples(st.just("write"), st.integers(0, MASK64)),
    st.tuples(st.just("rewind to the tail")),
    st.tuples(st.sampled_from(["copy", "deepcopy", "pickle"]), CHANNEL_CALLS),
    st.tuples(st.just("raise")),
), max_size=25)
COPIES = {"copy": copy.copy, "deepcopy": copy.deepcopy,
          "pickle": lambda rng: pickle.loads(pickle.dumps(rng))}


def scalar_call(call, rng, twin):
    """channel and the scalar walk on twin agree on one call's draws and end state."""
    _, x, n, epsilon, alphabet = call
    params = ChannelParams(epsilon, alphabet, len(x))
    assert channel(x * n, params, rng) == scalar_channel(x, n, params, twin)
    assert rng.state == twin.state


@functools.cache
def picking_kb(size: int):
    """A one-node KB whose node triggers size programs of equal phi, so the trial
    kernel's pick of program p is index p - 1 of its eligible list."""
    return build_kb({
        "d": 1, "alphabet": 2, "objects": [{"id": 1, "parent": None, "predicate": [[0, 0]]}],
        "operations": [{"id": 1, "action_tag": "a", "task": 1, "applicable_objects": [1]}],
        "tasks": [{"id": 1, "pairs": [[1, 1]]}],
        "programs": [{"id": p, "trigger": 1, "operations": [1], "k": 1, "utility": 1.0}
                     for p in range(1, size + 1)]})


def kernel_call(call, rng, twin):
    """The trial kernel's picks over a run of trials on rng are twin's randbelow words."""
    _, size, trials = call
    state = AgentState(kb=picking_kb(size), params=ChannelParams(0.0, 2, 1),
                       econ=MeasurementEconomy(1.0, 0.0, 0.0, 1), seed=0, fixed_n=1)
    state.selection_rng = rng
    picked = [pick[0] - 1 for _, _, pick in _trials(state, (0,) * trials)]
    assert picked == [twin.randbelow(size) for _ in range(trials)]
    assert rng.state == twin.state


C1_CALL = ("channel", (0, 2), 3, 0.3, 3)
# eps 0: one word a use, so this call ends on the last word of its first block
BLOCK_CALL = ("channel", (0,), BLOCK, 0.0, 3)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, MASK64), STREAM_OPS)
# a copy of a stream with a kept tail, made each way: random op lists hold one too rarely
@example(7, [C1_CALL, ("copy", C1_CALL), C1_CALL])
@example(7, [C1_CALL, ("deepcopy", C1_CALL), C1_CALL])
@example(7, [C1_CALL, ("pickle", C1_CALL), C1_CALL])
# scenario and selection draws on the kept tail, at a block end and past it
@example(7, [BLOCK_CALL, ("next_float",), ("randbelow", 3), C1_CALL])
# a tail kept at another state, met by channel and by next_u64
@example(7, [C1_CALL, ("write", 7), C1_CALL, ("write", 7), ("next_u64",)])
# the kernel's first selection word, 2**64 - 1, is rejected by 3 picks
@example(state_drawing(MASK64, 0), [("pick", 3, 2), C1_CALL])
def test_channel_tail_is_every_word_a_scalar_stream_draws(state, ops):
    # one stream and its scalar twin: channel against the scalar walk, and
    # every other use of a stream, between channel calls
    rng, twin = SplitMix64(state), ScalarStream(state)
    for op in ops:
        if op[0] == "channel":
            scalar_call(op, rng, twin)
        elif op[0] == "next_u64":
            assert rng.next_u64() == twin.next_u64()
        elif op[0] == "next_float":
            assert rng.next_float() == twin.next_float()
        elif op[0] == "randbelow":
            assert rng.randbelow(op[1]) == twin.randbelow(op[1])
        elif op[0] == "pick":
            kernel_call(op, rng, twin)
        elif op[0] == "write":
            rng.state = twin.state = op[1]
        elif op[0] == "rewind to the tail":
            if rng._tail is not None:
                rng.state = twin.state = rng._tail[0]
        elif op[0] == "raise":
            # the second use's symbol is no int: the call raises after drawing
            # four words, and the stream stays where it was
            with pytest.raises(TypeError):
                channel((0, None), ChannelParams(1.0, 3, 2), rng)
            assert rng.state == twin.state and rng._tail is None
        else:
            clone = COPIES[op[0]](rng)
            assert clone.state == rng.state and clone._tail is None
            # the original draws on from its tail; the copy must not see those words
            scalar_call(op[1], rng, ScalarStream(twin.state))
            rng = clone
        assert rng.state == twin.state
