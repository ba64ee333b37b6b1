"""aprior benchmark: one workload, timed (--trace 0) or traced per layer (--trace 1).

usage: python3 perfbench/run.py --workload {c1_mixed,reflex_deep_strict,sweep_n15}
                                 --seed N --seconds S --trace {0,1}

Run from the root of a source tree that has `src/aprior`; the library is
imported from there and nowhere else. Everything runs in this one process,
sequentially, as a closed loop with one caller; only the set-up probes run
in fresh interpreters, one at a time. Inputs come from --seed alone.

--trace 0 runs units of the workload until --seconds have passed (and at
least the workload's minimum, e.g. the whole 100-episode C1 corpus), checks
every output and reports the end-to-end metrics. --trace 1 runs a fixed
number of units twice, untraced and then traced, so its counts repeat
exactly; it reports the per-layer metrics. The last line of stdout is the
JSON result; the lines before it name every metric with its unit, and the
machine and run context. Inputs, spans and the full result are written to
perfbench/out/.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
PROBES = 11  # fresh-process set-up samples per run, after one warm-up
GOLDEN_SEED = 0  # golden.json hashes this seed's output, checked on every run

sys.path.insert(0, str(HERE))
import calib  # noqa: E402
import gates  # noqa: E402


def add_repo_paths() -> None:
    """Put the tree's own `src` and `tests` (for its oracles) first on sys.path.

    Exits 2 if either is missing.
    """
    for path in (SRC / "aprior" / "__init__.py", ROOT / "tests" / "oracles.py"):
        if not path.is_file():
            print(f"error: {path} is missing", file=sys.stderr)
            sys.exit(2)
    sys.path[:0] = [str(SRC), str(ROOT / "tests")]


def context(args) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(),
            "python": platform.python_version(), "platform": platform.platform(),
            "cpu_model": cpu, "git_commit": git_commit()}


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = ROOT / ".git" / name
        if path.exists():
            return path.read_text(encoding="utf-8").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def write_inputs(wl, run_dir: Path) -> list[str]:
    """Write the workload's KB (and scenario) files; return the probe's arguments."""
    run_dir.mkdir(parents=True, exist_ok=True)
    kb_path = run_dir / "kb.json"
    kb_path.write_text(json.dumps(wl.kb_doc), encoding="utf-8")
    argv = [str(SRC), str(kb_path)]
    if wl.scenario_doc is not None:
        scenario_path = run_dir / "scenario.json"
        scenario_path.write_text(json.dumps(wl.scenario_doc), encoding="utf-8")
        argv += [str(scenario_path), json.dumps(wl.probe_config())]
    return argv


def probe_setup(argv: list[str]) -> list[dict]:
    """Set-up samples, each from a fresh interpreter (the first is discarded)."""
    samples = []
    for i in range(PROBES + 1):
        done = subprocess.run([sys.executable, str(HERE / "probe.py"), *argv], cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        if i:
            samples.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return samples


def run_units(wl, indices, tally, gauge=None):
    """Run units and record their checks; with a gauge, note the host speed of each."""
    units = []
    for i in indices:
        start = time.perf_counter()
        try:
            unit = wl.unit(i)
        except Exception as exc:  # an operation that raises is a failed operation
            tally.record(f"unit {i}", [f"raised {type(exc).__name__}: {exc}"])
            continue
        if gauge is not None:
            unit.ref_s = gauge.pass_s(start, time.perf_counter())
        tally.record(f"unit {i}", unit.failures)
        unit.texts = []
        units.append(unit)
    return units


def timed_units(wl, seconds: float):
    """Indices 0, 1, ... until both the minimum count and the time budget are met."""
    start = time.perf_counter()
    i = 0
    while i < wl.min_units or time.perf_counter() - start < seconds:
        yield i
        i += 1


def reference_output(cls) -> tuple[list[str], list[str]]:
    """(texts, check failures) of the output golden.json hashes for a workload.

    The texts are the workload's seed-independent output, if it has one, and
    the plain logs of the first `golden_units` units of GOLDEN_SEED.
    """
    ref = cls(GOLDEN_SEED)
    units = [ref.unit(i) for i in range(ref.golden_units)]
    return (ref.fixed_texts + [t for u in units for t in u.texts],
            [f for u in units for f in u.failures])


def golden_check(cls, tally) -> None:
    """Check the reference output against golden.json, whatever the run's seed."""
    what = f"golden sha256 [{cls.name} seed {GOLDEN_SEED}]"
    try:
        texts, failures = reference_output(cls)
    except Exception as exc:  # an operation that raises is a failed operation
        tally.record(what, [f"raised {type(exc).__name__}: {exc}"])
        return
    expected = gates.load_golden().get(cls.name)
    tally.record(what, failures + gates.hash_failures(expected, gates.sha256_texts(texts)))


def quantile(values, q: float) -> float:
    """Nearest-rank quantile (q in (0, 1]) of a non-empty sample."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(units, probes) -> tuple[dict, dict]:
    """(bounded metrics, other metrics named with their units) of a timed run.

    Times are in reference seconds (see calib.py): each sample is divided by
    the reference pass time measured during it.
    """
    def ref(seconds, ref_s):
        return seconds / ref_s * calib.REF_PASS_S

    ops_ms = [ref(u.op_s, u.ref_s) * 1e3 for u in units]
    metrics = {
        "setup_s": (statistics.median(ref(p["setup_s"], p["ref_s"]) for p in probes), "s"),
        "op_ms_p50": (statistics.median(ops_ms), "ms"),
        "op_ms_p90": (quantile(ops_ms, 0.9), "ms"),
        "pipeline_ms_p50": (statistics.median(
            ref(sum(u.stages.values()), u.ref_s) * 1e3 for u in units), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    extra = {}
    if any("run" in u.stages for u in units):
        run_ms = [ref(u.stages["run"], u.ref_s) * 1e3 for u in units]
        extra["trials_per_s"] = (statistics.median(
            u.trials / ref(u.stages["run"], u.ref_s) for u in units), "1/s")
        extra["episode_ms_p50"] = (statistics.median(run_ms), "ms")
        extra["episode_ms_p90"] = (quantile(run_ms, 0.9), "ms")
    if any("strict_run" in u.stages for u in units):
        extra["strict_trials_per_s"] = (statistics.median(
            u.strict_trials / ref(u.stages["strict_run"], u.ref_s) for u in units), "1/s")
    if any("audit" in u.stages for u in units):
        extra["audit_records_per_s"] = (statistics.median(
            u.records / ref(u.stages["audit"], u.ref_s) for u in units), "1/s")
    if any("sweep" in u.stages for u in units):
        extra["sweep_s"] = (statistics.median(ref(u.stages["sweep"], u.ref_s) for u in units), "s")
    extra["samples"] = (len(units), "count")
    extra["wall_setup_s"] = (statistics.median(p["setup_s"] for p in probes), "s")
    extra["wall_op_ms_p50"] = (statistics.median(u.op_s for u in units) * 1e3, "ms")
    extra["wall_reference_pass_us"] = (statistics.median(u.ref_s for u in units) * 1e6, "us")
    return metrics, extra


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(wl, tracer, units, probes, overhead_x: float) -> dict:
    """Per-layer metrics of a traced run; README.md says what each should move."""
    from tracing import Summary

    s = Summary(tracer.spans())
    calls, incl, own = s.calls, s.incl_ns, s.own_ns
    trials = sum(u.trials + u.strict_trials for u in units)
    records = sum(u.records for u in units)
    audits = calls.get("audit.audit_log", 0)
    sweeps = calls.get("decision.optimal_n", 0)
    n_programs = len(wl.kb.programs)
    canonical_len = len(wl.kb.canonical)

    def per_trial_us(*names, table=incl):
        return _ratio(sum(table.get(n, 0) for n in names), trials) / 1e3

    def per_call_us(name):
        return _ratio(incl.get(name, 0), calls.get(name, 0)) / 1e3

    groups: dict[int, set] = {}
    for sid, args, kwargs in tracer.args.get("perception.identify", []):
        vector = args[1] if len(args) > 1 else kwargs.get("v")
        groups.setdefault(tracer.parent[sid], set()).add(tuple(vector))
    distinct = sum(len(g) for g in groups.values())

    # the library calls both accuracy kernels with positional arguments:
    # _mc_feature_accuracy(n, params, true_symbol, rng, samples) and
    # _exact_feature_accuracy(n, eps, a, true_symbol), which is lru-cached;
    # an exact evaluation that misses the cache enumerates comb(n+a-1, a-1)
    # count vectors, one that hits enumerates none
    mc_samples = sum(args[4] for _, args, _ in tracer.args.get("decision._mc_feature_accuracy", []))
    count_vectors = sum(math.comb(args[0] + args[2] - 1, args[2] - 1)
                        for sid, args, _ in tracer.args.get("decision._exact_feature_accuracy", [])
                        if sid in tracer.missed)

    def probe_ms(key):
        values = [p[key] for p in probes if key in p]
        return statistics.median(values) * 1e3 if values else 0.0

    return {
        "rng.words_per_trial": (_ratio(calls.get("rng.next_u64", 0), trials), "count"),
        "rng.self_us_per_trial": (_ratio(s.layer_self_ns.get("rng", 0), trials) / 1e3, "us"),
        "kb.build_ms": (probe_ms("kb_s"), "ms"),
        "kb.digest_calls_per_trial": (_ratio(calls.get("kb.kb_digest", 0), trials), "count"),
        "kb.digest_bytes_per_trial": (
            _ratio(calls.get("kb.kb_digest", 0) * canonical_len, trials), "B"),
        "kb.digest_us_per_call": (per_call_us("kb.kb_digest"), "us"),
        "kb.programs_for_us_per_call": (per_call_us("kb.programs_for"), "us"),
        "kb.programs_scanned_per_trial": (
            _ratio(calls.get("kb.programs_for", 0) * n_programs, trials), "count"),
        "perception.identify_calls_per_trial": (
            _ratio(calls.get("perception.identify", 0), trials), "count"),
        "perception.identify_distinct_frac": (
            _ratio(distinct, calls.get("perception.identify", 0)), "ratio"),
        "perception.measure_self_us_per_trial": (
            per_trial_us("perception.measure", table=own), "us"),
        "perception.identify_us_per_call": (per_call_us("perception.identify"), "us"),
        "perception.corrupt_us_per_call": (per_call_us("perception.corrupt"), "us"),
        "perception.majority_fold_us_per_call": (per_call_us("perception.majority_fold"), "us"),
        "decision.feature_accuracy_calls": (
            _ratio(calls.get("decision.feature_accuracy", 0), sweeps), "count"),
        "decision.mc_samples": (_ratio(mc_samples, sweeps), "count"),
        "decision.exact_count_vectors": (_ratio(count_vectors, sweeps), "count"),
        "decision.sweep_self_s": (
            _ratio(s.layer_self_under("decision.optimal_n", "decision"), sweeps) / 1e9, "s"),
        "decision.select_us_per_trial": (per_trial_us(
            "decision.phi_program", "decision.order_and_filter", "decision.select_random"), "us"),
        "decision.planned_n_ms": (probe_ms("planned_n_s"), "ms"),
        "agent.step_self_us_per_trial": (per_trial_us("agent.step", table=own), "us"),
        "agent.eligible_calls_per_trial": (
            _ratio(calls.get("agent.eligible_programs", 0), trials), "count"),
        "agent.to_jsonl_us_per_trial": (per_trial_us("agent.to_jsonl"), "us"),
        "agent.log_bytes_per_trial": (
            _ratio(sum(u.log_bytes for u in units), sum(u.trials for u in units)), "B"),
        "agent.recognized_frac": (_ratio(sum(u.recognized for u in units), records), "ratio"),
        "agent.actions_per_trial": (_ratio(sum(u.actions for u in units), records), "count"),
        "world.next_stimulus_us_per_call": (per_call_us("world.next_stimulus"), "us"),
        "audit.parse_us_per_record": (_ratio(incl.get("audit.parse_log", 0), records) / 1e3, "us"),
        "audit.check_us_per_record": (_ratio(incl.get("audit.audit_log", 0), records) / 1e3, "us"),
        "audit.trial_passes": (_ratio(sum(calls.get(n, 0) for n in (
            "audit.assert_closure", "audit.assert_statement1", "audit.assert_reflex")), audits),
            "count"),
        "cli.import_ms": (probe_ms("import_s"), "ms"),
        "trace.overhead_x": (overhead_x, "x"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    add_repo_paths()
    import workloads
    from tracing import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    ctx = context(args)
    wl = workloads.WORKLOADS[args.workload](args.seed)
    run_dir = OUT / f"{args.workload}-{args.seed}"
    probes = probe_setup(write_inputs(wl, run_dir))
    tally = gates.Tally()
    for what, failures in wl.preflight:
        tally.record(what, failures)
    golden_check(type(wl), tally)

    if args.trace:
        # each unit runs untraced, then traced, so both see the same host load
        tracer = Tracer()
        units, untraced_s, traced_s = [], 0.0, 0.0
        for i in range(wl.trace_units):
            workloads.clear_decision_caches()
            untraced = run_units(wl, [i], tally)
            untraced_s += sum(sum(u.stages.values()) for u in untraced)
            tracer.install(wl.trace_layers)
            workloads.clear_decision_caches()
            try:
                traced = run_units(wl, [i], tally)
            finally:
                tracer.remove()
            traced_s += sum(sum(u.stages.values()) for u in traced)
            units += traced
        tracer.write(run_dir / "spans.json")
        metrics = per_layer(wl, tracer, units, probes, traced_s / untraced_s)
        extra = {}
    else:
        with calib.Gauge() as gauge:
            units = run_units(wl, timed_units(wl, args.seconds), tally, gauge=gauge)
        metrics, extra = end_to_end(units, probes)

    extra["failed_frac"] = (tally.failed_frac, "ratio")
    for message in tally.messages:
        print(f"FAILED {message}", file=sys.stderr)
    print("context " + json.dumps(ctx, sort_keys=True))
    print(f"operation: {wl.op_name}")
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"{args.workload} {name} {value:.6g} {unit}")
    result = {
        "correct": tally.failed == 0 and bool(units),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    (run_dir / f"result-trace{args.trace}.json").write_text(json.dumps(
        {**result, "context": ctx, "workload_metrics": {k: {"value": v, "unit": u}
                                                         for k, (v, u) in extra.items()},
         "failures": tally.messages}, indent=1, sort_keys=True), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
