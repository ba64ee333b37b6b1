"""Acceptance suite: one printed pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""
import copy
import json
import math
import time

import pytest

from aprior.agent import AgentState, run_episode, step
from aprior.audit import assert_closure, assert_reflex, assert_statement1, parse_log
from aprior.decision import (
    AUTO, EXACT, MC_SAMPLES, MONTE_CARLO, MeasurementEconomy, feature_accuracy,
    recognition_error,
)
from aprior.kb import build_kb
from aprior.perception import ChannelParams
from aprior.rng import SplitMix64
from aprior.world import load_scenario
from conftest import invoke, mixed_scenario_doc, three_node_doc
from oracles import brute_fair_feature_accuracy, brute_feature_accuracy

EPISODES = 100
TRIALS = 1000


def report(criterion: str, ok: bool, detail: str = ""):
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{criterion}: {detail}"


def mixed_scenario(kb):
    return load_scenario(mixed_scenario_doc(), kb)


def fresh_state(kb, seed):
    return AgentState(
        kb=kb,
        params=ChannelParams(epsilon=0.3, alphabet=kb.alphabet, dim=kb.dim),
        econ=MeasurementEconomy(value=1.0, cost=0.02, phi0=0.0, n_max=9),
        seed=seed,
        fixed_n=3,
    )


@pytest.fixture(scope="module")
def corpus():
    kb = build_kb(three_node_doc())
    scenario = mixed_scenario(kb)
    t0 = time.monotonic()
    logs = [
        run_episode(fresh_state(kb, seed), scenario, TRIALS)
        for seed in range(EPISODES)
    ]
    elapsed = time.monotonic() - t0
    return kb, logs, elapsed


def test_c1_closure(corpus):
    kb, logs, elapsed = corpus
    closed = sum(
        1 for log in logs
        if log.header["digest_before"] == log.header["digest_after"]
        and log.header["tasks_before"] == log.header["tasks_after"]
    )
    ok = closed == EPISODES and elapsed < 10.0
    report("C1 closure",
           ok, f"({closed}/{EPISODES} episodes closed, {elapsed:.2f}s)")


def test_c2_statement1(corpus):
    kb, logs, _ = corpus
    bad_omega = 0
    bad_trigger = 0
    actions = 0
    for log in logs:
        for trial in map(json.loads, log.lines):
            if trial["status"] == "unrecognized" and trial["action"] is not None:
                bad_omega += 1
            if trial["action"] is not None:
                actions += 1
                if trial["action"]["trigger"] != trial["node"]:
                    bad_trigger += 1

    header, trials = parse_log(logs[0].to_jsonl())

    # negative control 1: tampered final digest
    tampered_header = dict(header, digest_after=header["digest_after"] ^ 1)
    control1 = not assert_closure(tampered_header).passed

    # negative control 2: action injected on an unrecognized trial
    tampered = copy.deepcopy(trials)
    victim = next(t for t in tampered if t["status"] == "unrecognized")
    victim["action"] = {"program": 1, "tags": ["pull"], "trigger": 11}
    control2 = not assert_statement1(header, tampered, kb).passed

    # negative control 3: threshold-3 reflex fired on the first recognition
    tampered = copy.deepcopy(trials)
    first_q2 = next(t for t in tampered
                    if t["node"] == 2 and t["status"] != "unrecognized")
    first_q2["action"] = {"program": 3, "tags": ["approach"], "trigger": 2}
    control3 = not assert_reflex(tampered, [kb.programs[3]])[0].passed

    ok = (bad_omega == 0 and bad_trigger == 0 and actions > 0
          and control1 and control2 and control3)
    report("C2 statement1", ok,
           f"(actions={actions}, omega_violations={bad_omega}, "
           f"trigger_violations={bad_trigger}, controls="
           f"{[control1, control2, control3]})")


def test_c3_measurement_numerics():
    params = ChannelParams(epsilon=0.3, alphabet=3, dim=2)
    kb = build_kb(three_node_doc())

    oracle = brute_feature_accuracy(3, 0.3, 3, 0)
    acc = feature_accuracy(3, params, 0)
    ok_acc = math.isclose(acc, oracle, abs_tol=1e-12) and math.isclose(
        acc, 0.8785, abs_tol=1e-12)

    perr = recognition_error(kb, 11, 3, params)
    ok_perr = math.isclose(perr, 1 - 0.8785 ** 2, abs_tol=1e-12)

    mc = feature_accuracy(3, params, 0, mode=MONTE_CARLO, rng=SplitMix64(17))
    sigma = math.sqrt(oracle * (1 - oracle) / MC_SAMPLES)
    ok_mc = abs(mc - acc) < 3 * sigma

    report("C3 measurement numerics", ok_acc and ok_perr and ok_mc,
           f"(acc={acc!r}, perr={perr!r}, mc={mc!r})")


def sweep_csv(kb_path, epsilon, cost, n_max=15, mode=AUTO):
    result = invoke([
        "sweep", "--kb", str(kb_path), "--node", "11",
        "--epsilon", str(epsilon), "--value", "1.0", "--cost", str(cost),
        "--n-max", str(n_max), "--mode", mode, "--seed", "5",
    ])
    assert result.code == 0, result.err
    return sweep_rows(result.out)


def sweep_rows(output: str) -> list[tuple]:
    rows = []
    for line in output.splitlines()[1:]:
        n, perr, phi, is_argmax = line.split(",")
        rows.append((int(n), float(perr), float(phi), is_argmax == "1"))
    return rows


def test_c4_extremum(kb_file, reference_sweep_output):
    # the reference sweep is sweep_csv(kb_file, epsilon=0.3, cost=0.02)
    rows = sweep_rows(reference_sweep_output)
    by_n = {r[0]: r for r in rows}
    ok_phi1 = math.isclose(by_n[1][2], 0.47, abs_tol=1e-9)
    oracle_phi3 = brute_feature_accuracy(3, 0.3, 3, 0) ** 2 - 0.06
    ok_phi3 = math.isclose(by_n[3][2], oracle_phi3, abs_tol=1e-9)

    argmaxes = [n for n, _, _, is_argmax in rows if is_argmax]
    # golden value frozen from the brute-force sweep oracle
    ok_argmax = argmaxes == [2] and 1 < argmaxes[0] < 15
    phi_star = by_n[argmaxes[0]][2]
    ok_unique = all(phi_star > phi for n, _, phi, _ in rows if n != argmaxes[0])

    noiseless = sweep_csv(kb_file, epsilon=0.0, cost=0.02, n_max=9)
    ok_noiseless = [n for n, _, _, a in noiseless if a] == [1]

    ok = ok_phi1 and ok_phi3 and ok_argmax and ok_unique and ok_noiseless
    report("C4 extremum", ok,
           f"(phi1={by_n[1][2]!r}, phi3={by_n[3][2]!r}, argmax={argmaxes})")


# C4b checks the paper's claim that repeated measurements reduce the
# decision error, in the form the pinned method keeps. The tie-neutral
# accuracy abar(n) is the per-feature accuracy averaged over the true
# symbol; the wrong symbols are symmetric in the channel, so abar(n) is
# the accuracy of a majority fold that breaks ties uniformly at random,
# and with V=1, c=0 the functional on leaf 11 is abar(n)**2. The test
# asserts (a) abar never decreases in n, up to float rounding (abar(1)
# and abar(2) are equal in exact arithmetic), (b) abar(15) > abar(1), so
# a flat sweep cannot pass, and (c) abar agrees with the fair-tie brute
# oracle. The pinned lowest-symbol tie-break is not tie-neutral: true
# symbol 0 wins every tie at n=2, so acc0(2) = 1 - eps**2 = 0.91 exceeds
# acc0(3) = 0.8785 and the c=0 sweep on leaf 11 dips at 2 -> 3. (d) That
# dip is asserted as the negative control: the same predicate run on the
# exact CLI sweep must find the step (2, 3).
FREE_EPSILONS = (0.1, 0.3, 0.5)
FREE_N_MAX = 15
FREE_ORACLE_N_MAX = 6
ROUNDING = 1e-12


def decreasing_steps(ns, values):
    return [(ns[i], ns[i + 1]) for i in range(len(values) - 1)
            if values[i + 1] < values[i] - ROUNDING]


def test_c4_degenerate_free_measurements_monotone(kb_file):
    a = 3
    ns = list(range(1, FREE_N_MAX + 1))
    dips, flat, oracle_err = {}, [], 0.0
    for eps in FREE_EPSILONS:
        params = ChannelParams(epsilon=eps, alphabet=a, dim=2)
        abar = [sum(feature_accuracy(n, params, s, mode=EXACT)
                    for s in range(a)) / a for n in ns]
        dips[eps] = decreasing_steps(ns, abar)
        if not abar[-1] > abar[0]:
            flat.append(eps)
        for n in ns[:FREE_ORACLE_N_MAX]:
            fair = sum(brute_fair_feature_accuracy(n, eps, a, s)
                       for s in range(a)) / a
            oracle_err = max(oracle_err, abs(abar[n - 1] - fair))

    # negative control: the pinned sweep is exact, matches the brute
    # oracle's acc0(n)**2, and the predicate flags its dip
    rows = sweep_csv(kb_file, epsilon=0.3, cost=0.0, mode=EXACT)
    ok_rows = all(math.isclose(phi, brute_feature_accuracy(n, 0.3, a, 0) ** 2,
                               abs_tol=ROUNDING)
                  for n, _, phi, _ in rows if n <= 8)
    pinned_dips = decreasing_steps([r[0] for r in rows], [r[2] for r in rows])

    ok = (not any(dips.values()) and not flat and oracle_err <= ROUNDING
          and ok_rows and (2, 3) in pinned_dips)
    report("C4b free-measurement monotonicity", ok,
           f"(tie-neutral decreasing steps: {dips}, flat: {flat}, "
           f"oracle_err={oracle_err:.1e}, pinned-sweep control dips: "
           f"{pinned_dips})")


def test_c5_conditioned_reflex():
    doc = three_node_doc()
    kb = build_kb(doc)
    # noiseless schedule: 5 recurrences of Q2, program 3 has k=3
    state = AgentState(
        kb=kb, params=ChannelParams(epsilon=0.0, alphabet=3, dim=2),
        econ=MeasurementEconomy(value=1.0, cost=0.0, phi0=0.0, n_max=9),
        seed=0, fixed_n=1)
    fired = [t for t in range(5) if step(state, (1, 0))["action"] is not None]
    ok_k3 = [t + 1 for t in fired] == [3, 4, 5]

    # same schedule with k=1: fires on every recurrence
    doc_k1 = copy.deepcopy(doc)
    doc_k1["programs"][2]["k"] = 1
    kb1 = build_kb(doc_k1)
    state1 = AgentState(
        kb=kb1, params=ChannelParams(epsilon=0.0, alphabet=3, dim=2),
        econ=MeasurementEconomy(value=1.0, cost=0.0, phi0=0.0, n_max=9),
        seed=0, fixed_n=1)
    fired1 = [t for t in range(5) if step(state1, (1, 0))["action"] is not None]
    ok_k1 = [t + 1 for t in fired1] == [1, 2, 3, 4, 5]

    report("C5 conditioned reflex", ok_k3 and ok_k1,
           f"(k=3 fires on trials {[t + 1 for t in fired]}, "
           f"k=1 on {[t + 1 for t in fired1]})")


def test_c6_determinism(kb_file, tmp_path):
    scenario = {
        "name": "mix", "kind": "fixed",
        "entries": [
            {"vector": [0, 0], "truth": 11},
            {"vector": [2, 0], "truth": "omega"},
        ],
        "scoring": [],
    }
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(scenario), encoding="utf-8")
    outs = []
    for name in ("one.jsonl", "two.jsonl"):
        out = tmp_path / name
        result = invoke([
            "run", "--kb", str(kb_file), "--scenario", str(scenario_path),
            "--seed", "42", "--trials", "200", "--epsilon", "0.3",
            "--cost", "0.02", "--fixed-n", "3", "--out", str(out),
        ])
        assert result.code == 0, result.err
        outs.append(out.read_bytes())
    ok = outs[0] == outs[1]
    report("C6 determinism", ok, f"({len(outs[0])} bytes each)")


def test_c7_selection_law():
    # two programs of equal utility on the same trigger
    doc = three_node_doc()
    doc["programs"].append(
        {"id": 4, "trigger": 11, "operations": [2], "k": 1, "utility": 1.0})
    kb = build_kb(doc)
    state = AgentState(
        kb=kb, params=ChannelParams(epsilon=0.0, alphabet=3, dim=2),
        econ=MeasurementEconomy(value=1.0, cost=0.0, phi0=0.0, n_max=9),
        seed=99, fixed_n=1)
    n = 10_000
    picks = {1: 0, 4: 0}
    for _ in range(n):
        picks[step(state, (0, 0))["chosen"]] += 1
    sigma = math.sqrt(n * 0.25)
    ok = abs(picks[1] - n / 2) < 3 * sigma and picks[1] + picks[4] == n
    report("C7 selection law", ok, f"(picks={picks}, 3sigma={3 * sigma:.0f})")
