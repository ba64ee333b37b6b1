import itertools
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from aprior.kb import ROOT, Predicate
from aprior.perception import (
    FULL,
    PARTIAL,
    UNRECOGNIZED,
    ChannelParams,
    InvalidCount,
    corrupt,
    identify,
    majority_fold,
    measure,
)
from aprior.rng import SplitMix64
from oracles import brute_feature_accuracy, brute_outcome_probability

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
        res = measure(kb, (0, 0), n, noiseless, rng)
        assert res.outcome.node == 11
        assert res.outcome.status == FULL
        assert res.agreement == 1.0
        assert res.denoised == (0, 0)
        assert res.n == n


def test_measure_rejects_zero_count(kb, params):
    with pytest.raises(InvalidCount):
        measure(kb, (0, 0), 0, params, SplitMix64(0))


def test_measure_deterministic(kb, params):
    r1 = measure(kb, (0, 0), 5, params, SplitMix64(77))
    r2 = measure(kb, (0, 0), 5, params, SplitMix64(77))
    assert r1 == r2


def test_measure_consumes_one_symbol_draw_per_feature(kb, params, monkeypatch):
    import aprior.perception as perception

    calls = {"n": 0}
    original = perception.corrupt_symbol

    def counting(symbol, p, rng):
        calls["n"] += 1
        return original(symbol, p, rng)

    monkeypatch.setattr(perception, "corrupt_symbol", counting)
    measure(kb, (0, 0), 5, params, SplitMix64(1))
    assert calls["n"] == 5 * 2


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
        if measure(kb, (0, 0), 3, params, rng).outcome.node == 11
    )
    sigma = math.sqrt(n_samples * p_exact * (1 - p_exact))
    assert abs(hits - p_exact * n_samples) < 3 * sigma


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(1, 9), st.sampled_from(ALL_VECTORS), st.integers(0, 2 ** 63))
def test_measure_noiseless_equals_identify(kb, noiseless, n, x, seed):
    res = measure(kb, x, n, noiseless, SplitMix64(seed))
    assert res.outcome == identify(kb, x)
