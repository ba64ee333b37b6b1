import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from aprior import decision
from aprior.decision import (
    EXACT,
    MC_SAMPLES,
    MONTE_CARLO,
    MeasurementEconomy,
    NotLeaf,
    UnderconstrainedLeaf,
    feature_accuracy,
    optimal_n,
    order_and_filter,
    phi_measure,
    phi_program,
    recognition_error,
    resolve_mode,
    select_random,
)
from aprior.kb import Program
from aprior.perception import ChannelParams, InvalidCount
from aprior.rng import SplitMix64
from episode_oracle import _count_vector_accuracy
from oracles import brute_feature_accuracy

# frozen by the brute-force sweep oracle (see test_sweep_matches_brute_oracle):
# even n benefit from the lowest-symbol tie-break when the true symbol is 0,
# so the peak sits at n = 2 for the reference economy.
GOLDEN_ARGMAX_N = 2
GOLDEN_ARGMAX_PHI = 0.7881


def test_feature_accuracy_noiseless(noiseless):
    p1 = ChannelParams(epsilon=0.0, alphabet=3, dim=1)
    for n in (1, 2, 5):
        assert feature_accuracy(n, p1, 0) == 1.0


def test_feature_accuracy_single_draw(params):
    for sym in range(3):
        assert math.isclose(feature_accuracy(1, params, sym), 0.7, abs_tol=1e-12)


def test_feature_accuracy_reference_value(params):
    assert math.isclose(feature_accuracy(3, params, 0), 0.8785, abs_tol=1e-12)


@pytest.mark.parametrize("a,n_max", [(2, 15), (3, 15), (4, 10)])
def test_exact_accuracy_equals_the_episode_oracle_bit_for_bit(a, n_max):
    # the golden sweep pins only a = 3, eps = 0.3 and true symbol 0; this pins
    # the order in which the count vectors' terms are summed everywhere else
    for n in range(1, n_max + 1):
        for eps in (0.1, 0.3, 0.5, 0.9, 1.0):
            for sym in range(a):
                exact = decision._exact_feature_accuracy(n, eps, a, sym)
                assert exact == _count_vector_accuracy(n, eps, a, sym), (n, eps, sym)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("sym", [0, 1, 2])
def test_feature_accuracy_matches_brute_enumeration(params, n, sym):
    brute = brute_feature_accuracy(n, 0.3, 3, sym)
    assert math.isclose(feature_accuracy(n, params, sym), brute, abs_tol=1e-12)


def test_feature_accuracy_monte_carlo_agrees_with_exact(params):
    exact = feature_accuracy(3, params, 0)
    mc = feature_accuracy(3, params, 0, mode=MONTE_CARLO, rng=SplitMix64(11))
    sigma = math.sqrt(exact * (1 - exact) / MC_SAMPLES)
    assert abs(mc - exact) < 3 * sigma


def test_mc_batch_size_does_not_change_the_draws(params, monkeypatch):
    # 1001 samples fill neither batch; a corrupted 2 is replaced by j itself
    runs = []
    for batch in (7, decision.MC_BATCH):
        monkeypatch.setattr(decision, "MC_BATCH", batch)
        rng = SplitMix64(3)
        runs.append((decision._mc_feature_accuracy(4, params, 2, rng, 1001), rng.state))
    assert runs[0] == runs[1]


def test_feature_accuracy_mode_resolution(params):
    assert resolve_mode(12, params) == EXACT  # 3^12 <= 10^6
    assert resolve_mode(13, params) == MONTE_CARLO  # 3^13 > 10^6
    with pytest.raises(ValueError):
        feature_accuracy(13, params, 0)  # auto -> mc without an rng
    with pytest.raises(InvalidCount):
        feature_accuracy(0, params, 0)


def test_recognition_error_reference_values(kb, params):
    assert math.isclose(recognition_error(kb, 11, 1, params), 0.51, abs_tol=1e-12)
    brute = 1 - brute_feature_accuracy(3, 0.3, 3, 0) ** 2
    assert math.isclose(recognition_error(kb, 11, 3, params), brute, abs_tol=1e-12)
    assert math.isclose(recognition_error(kb, 11, 3, params), 0.22823775, abs_tol=1e-9)


def test_recognition_error_noiseless(kb, noiseless):
    for n in (1, 4, 9):
        assert recognition_error(kb, 11, n, noiseless) == 0.0


def test_recognition_error_checkpoints(kb, params):
    # oracle-verified checkpoints only; Perr is not monotone at every step
    perr = {n: 1 - brute_feature_accuracy(n, 0.3, 3, 0) ** 2 for n in (1, 3, 9)}
    assert math.isclose(recognition_error(kb, 11, 3, params), perr[3], abs_tol=1e-12)
    assert perr[3] < perr[1]
    assert perr[9] < perr[3]
    assert recognition_error(kb, 11, 9, params) < recognition_error(kb, 11, 3, params)


def test_recognition_error_rejects_bad_nodes(kb, params):
    with pytest.raises(NotLeaf):
        recognition_error(kb, 1, 3, params)  # internal node
    with pytest.raises(NotLeaf):
        recognition_error(kb, 999, 3, params)
    with pytest.raises(UnderconstrainedLeaf):
        recognition_error(kb, 2, 3, params)  # leaf Q2 pins only f0


def test_phi_measure_values(econ):
    assert math.isclose(phi_measure(1, 0.51, econ), 0.47, abs_tol=1e-12)
    assert math.isclose(phi_measure(3, 0.22823775, econ), 0.71176225, abs_tol=1e-9)
    free = MeasurementEconomy(value=2.0, cost=0.0, phi0=0.0, n_max=9)
    for n in (1, 5, 9):
        assert phi_measure(n, 0.0, free) == 2.0


def test_optimal_n_noiseless_prefers_single_measurement(kb, noiseless, econ):
    n_star, phi_star = optimal_n(kb, 11, noiseless, econ)
    assert n_star == 1
    assert math.isclose(phi_star, 1.0 - 0.02, abs_tol=1e-12)


def test_optimal_n_ties_go_to_the_smallest_n(kb, noiseless):
    # eps = 0 and c = 0: every phi equals V, so each n ties with n = 1
    econ = MeasurementEconomy(value=1.0, cost=0.0, phi0=0.0, n_max=9)
    (n_star, phi_star), sweep = optimal_n(kb, 11, noiseless, econ, return_sweep=True)
    assert {row.phi for row in sweep} == {1.0}
    assert (n_star, phi_star) == (1, 1.0)
    assert [row.n for row in sweep if row.is_argmax] == [1]


def test_optimal_n_free_measurements(kb, params):
    # c = 0: argmax over the sweep is n_max itself for this configuration
    econ = MeasurementEconomy(value=1.0, cost=0.0, phi0=0.0, n_max=12)
    rng = SplitMix64(3)
    (n_star, _), sweep = optimal_n(kb, 11, params, econ, rng=rng, return_sweep=True)
    assert n_star == econ.n_max
    # accuracy keeps improving except the known 2 -> 3 tie-break dip
    phis = [row.phi for row in sweep]
    assert all(b >= a for a, b in zip(phis[2:], phis[3:]))
    assert phis[2] < phis[1]  # the dip is real, frozen by the oracle


def test_sweep_matches_brute_oracle(kb, params, econ):
    (n_star, phi_star), sweep = optimal_n(
        kb, 11, params, econ, mode=EXACT, return_sweep=True
    )
    for row in sweep:
        acc = brute_feature_accuracy(row.n, 0.3, 3, 0) if row.n <= 6 else None
        if acc is not None:
            assert math.isclose(row.perr, 1 - acc ** 2, abs_tol=1e-12)
            assert math.isclose(row.phi, acc ** 2 - 0.02 * row.n, abs_tol=1e-12)
    assert n_star == GOLDEN_ARGMAX_N
    assert math.isclose(phi_star, GOLDEN_ARGMAX_PHI, abs_tol=1e-9)
    assert 1 < n_star < econ.n_max
    assert sum(1 for row in sweep if row.is_argmax) == 1
    # unique argmax: strictly above every other phi
    others = [row.phi for row in sweep if row.n != n_star]
    assert all(phi_star > p for p in others)
    assert phi_star > sweep[0].phi and phi_star > sweep[-1].phi


@pytest.mark.parametrize("fields", [
    {"value": math.nan}, {"cost": math.nan}, {"phi0": math.nan}, {"cost": math.inf},
    {"n_max": 10 ** 400}, {"cost": 1e308}, {"value": 1e308, "cost": 1e307},
], ids=["nan value", "nan cost", "nan phi0", "inf cost", "n_max past the floats",
        "cost * n_max overflows", "value + cost * n_max overflows"])
def test_economy_rejects_non_finite_numbers_and_an_overflowing_bound(fields):
    # NaN fails `< 0`, so only a finiteness check stops it; 1 + 1e308 * 9 is inf
    with pytest.raises(ValueError, match="finite|overflows"):
        MeasurementEconomy(**{"value": 1.0, "cost": 0.0, "phi0": 0.0, "n_max": 9, **fields})


@pytest.mark.parametrize("n_max", [9.0, 2.5, True, "9", 0])
def test_economy_rejects_an_n_max_that_is_not_an_int_ge_1(n_max):
    # a float n_max used to pass here and end in range()'s TypeError inside optimal_n
    with pytest.raises(ValueError, match="n_max must be an int >= 1"):
        MeasurementEconomy(value=1.0, cost=0.02, phi0=0.0, n_max=n_max)


def test_phi_program_values(kb, econ):
    prog = kb.programs[1]
    free = MeasurementEconomy(value=1.0, cost=0.0, phi0=0.0, n_max=9)
    assert phi_program(prog, 1.0, 3, free) == prog.base_utility
    phi = phi_program(
        Program(id=9, trigger=11, operations=(1,), reflex_threshold=1, base_utility=2.0),
        0.5, 3, econ)
    assert math.isclose(phi, 0.94, abs_tol=1e-12)
    assert phi_program(prog, 0.0, 4, econ) == pytest.approx(-0.08)


def test_order_and_filter():
    assert order_and_filter([], 0.5) == []
    qs = [[1, 0.9], [2, 0.3]]
    assert order_and_filter(qs, 0.5) == [[1, 0.9]]
    ties = [[2, 0.7], [1, 0.7]]
    assert order_and_filter(ties, 0.0) == [[1, 0.7], [2, 0.7]]
    # strict threshold: equality excluded
    assert order_and_filter([[1, 0.5]], 0.5) == []


@given(st.lists(st.tuples(st.integers(0, 50), st.floats(-5, 5, allow_nan=False)),
                max_size=20), st.floats(-2, 2, allow_nan=False))
def test_order_and_filter_properties(raw, phi0):
    qs = [[pid, phi] for pid, phi in raw]
    out = order_and_filter(qs, phi0)
    assert all(phi > phi0 for _, phi in out)
    # a permutation of a subset of the input
    remaining = list(qs)
    for q in out:
        remaining.remove(q)
    # descending phi with ascending-id ties
    for a, b in zip(out, out[1:]):
        assert (a[1], -a[0]) >= (b[1], -b[0])
    # idempotent
    assert order_and_filter(out, phi0) == out


def test_select_random_edges():
    rng = SplitMix64(0)
    assert select_random([], rng) is None
    only = [[7, 1.0]]
    assert all(select_random(only, rng) is only[0] for _ in range(20))


def test_select_random_uniform_law():
    qs = [[1, 0.5], [2, 0.5]]
    rng = SplitMix64(2718)
    n = 10_000
    ones = sum(1 for _ in range(n) if select_random(qs, rng)[0] == 1)
    sigma = math.sqrt(n * 0.25)
    assert abs(ones - n / 2) < 3 * sigma


def test_utility_scaling_leaves_ordering_invariant(kb):
    # scaling U by lambda > 0 with c = 0 preserves order and support
    free = MeasurementEconomy(value=1.0, cost=0.0, phi0=0.0, n_max=9)
    progs = sorted(kb.programs.values(), key=lambda p: p.id)
    base = order_and_filter(
        [[p.id, phi_program(p, 0.9, 3, free)] for p in progs], 0.0)
    for lam in (0.5, 2.0, 10.0):
        scaled_progs = [
            Program(id=p.id, trigger=p.trigger, operations=p.operations,
                    reflex_threshold=p.reflex_threshold,
                    base_utility=lam * p.base_utility)
            for p in progs
        ]
        scaled = order_and_filter(
            [[p.id, phi_program(p, 0.9, 3, free)] for p in scaled_progs], 0.0)
        assert [pid for pid, _ in scaled] == [pid for pid, _ in base]
