"""Batch harness: validate KBs, run episodes, sweep n, audit logs.

Exit codes: 0 ok, 1 a check or validation failed, 2 operational error
(missing file, malformed input). All randomness derives from --seed
(env fallback APRIOR_SEED) through named substreams.
"""
from __future__ import annotations

import json
import sys

import click

from . import audit as audit_mod
from . import world as world_mod
from .agent import AgentState, run_episode
from .decision import AUTO, EXACT, MONTE_CARLO, MeasurementEconomy, NotLeaf, optimal_n
from .kb import BuildError, kb_digest, load_kb_file
from .perception import UNRECOGNIZED, ChannelParams
from .rng import substream

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_OPERATIONAL = 2


@click.group()
def main():
    """Simulator and auditor for congenital-program agents."""


def _load_kb_or_exit(path):
    try:
        return load_kb_file(path)
    except OSError as exc:
        click.echo(f"I/O error: {exc}", err=True)
        sys.exit(EXIT_OPERATIONAL)
    except json.JSONDecodeError as exc:
        click.echo(f"JSON error: {exc}", err=True)
        sys.exit(EXIT_OPERATIONAL)
    except BuildError as exc:
        click.echo(f"{type(exc).__name__}: {exc}", err=True)
        sys.exit(EXIT_CHECK_FAILED)


@main.command()
@click.argument("kb_path", type=click.Path())
def validate(kb_path):
    """Build and validate a KB document; print its digest."""
    kb = _load_kb_or_exit(kb_path)
    click.echo(f"ok digest={kb_digest(kb)}")


def _csv_num(x) -> str:
    # shortest round-trip decimal
    return repr(float(x)) if isinstance(x, float) else str(x)


@main.command()
@click.option("--kb", "kb_path", required=True, type=click.Path())
@click.option("--scenario", "scenario_path", required=True, type=click.Path())
@click.option("--seed", type=int, default=0, envvar="APRIOR_SEED", show_default=True)
@click.option("--trials", type=click.IntRange(min=1), required=True)
@click.option("--value", type=click.FloatRange(min=0), default=1.0, show_default=True)
@click.option("--cost", type=click.FloatRange(min=0), default=0.0, show_default=True)
@click.option("--phi0", type=float, default=0.0, show_default=True)
@click.option("--n-max", type=click.IntRange(min=1), default=9, show_default=True)
@click.option("--epsilon", type=click.FloatRange(0, 1), default=0.0, show_default=True)
@click.option("--fixed-n", type=click.IntRange(min=1), default=None)
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--format", "fmt", type=click.Choice(["jsonl", "csv"]), default="jsonl",
              show_default=True)
@click.option("--strict", is_flag=True, help="Audit invariants inline, every trial.")
def run(kb_path, scenario_path, seed, trials, value, cost, phi0, n_max, epsilon,
        fixed_n, out_path, fmt, strict):
    """Run one episode and write its log."""
    kb = _load_kb_or_exit(kb_path)
    try:
        scenario = world_mod.load_scenario_file(scenario_path, kb)
    except OSError as exc:
        click.echo(f"I/O error: {exc}", err=True)
        sys.exit(EXIT_OPERATIONAL)
    except (world_mod.SchemaError, world_mod.TruthMismatch, json.JSONDecodeError) as exc:
        click.echo(f"{type(exc).__name__}: {exc}", err=True)
        sys.exit(EXIT_OPERATIONAL)

    econ = MeasurementEconomy(value=value, cost=cost, phi0=phi0, n_max=n_max)
    params = ChannelParams(epsilon=epsilon, alphabet=kb.alphabet, dim=kb.dim)
    state = AgentState(kb=kb, params=params, econ=econ, seed=seed, fixed_n=fixed_n)
    config = {
        "kb": str(kb_path), "scenario": str(scenario_path), "value": value,
        "cost": cost, "phi0": phi0, "n_max": n_max, "epsilon": epsilon,
        "fixed_n": fixed_n, "format": fmt,
    }
    try:
        log = run_episode(state, scenario, trials, config=config, strict=strict)
    except AssertionError as exc:
        click.echo(f"strict audit failed: {exc}", err=True)
        sys.exit(EXIT_CHECK_FAILED)

    if fmt == "jsonl":
        payload = log.to_jsonl()
    else:
        rows = ["t,truth,n,node,status,agreement,chosen,tags,score"]
        for tr in log.trials:
            tags = "|".join(tr["action"]["tags"]) if tr["action"] else ""
            rows.append(",".join([
                str(tr["t"]), str(tr["truth"]), str(tr["n"]), str(tr["node"]),
                tr["status"], _csv_num(tr["agreement"]),
                "" if tr["chosen"] is None else str(tr["chosen"]),
                tags, _csv_num(tr["score"]),
            ]))
        payload = "\n".join(rows) + "\n"
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(payload)

    recognized = sum(1 for tr in log.trials if tr["status"] != UNRECOGNIZED)
    actions = sum(1 for tr in log.trials if tr["action"] is not None)
    mean_score = sum(tr["score"] for tr in log.trials) / trials
    click.echo(
        f"trials={trials} recognized={100.0 * recognized / trials:.1f}% "
        f"actions={actions} mean_score={mean_score:.6f}"
    )


@main.command()
@click.option("--kb", "kb_path", required=True, type=click.Path())
@click.option("--node", type=int, required=True)
@click.option("--epsilon", type=click.FloatRange(0, 1), required=True)
@click.option("--value", type=click.FloatRange(min=0), default=1.0, show_default=True)
@click.option("--cost", type=click.FloatRange(min=0), default=0.0, show_default=True)
@click.option("--n-max", type=click.IntRange(min=1), default=15, show_default=True)
@click.option("--mode", type=click.Choice([AUTO, EXACT, MONTE_CARLO]), default=AUTO,
              show_default=True)
@click.option("--seed", type=int, default=0, envvar="APRIOR_SEED", show_default=True)
@click.option("--out", "out_path", type=click.Path(), default=None,
              help="CSV output path; stdout when omitted.")
def sweep(kb_path, node, epsilon, value, cost, n_max, mode, seed, out_path):
    """Sweep measurement counts and report the phi extremum as CSV."""
    kb = _load_kb_or_exit(kb_path)
    econ = MeasurementEconomy(value=value, cost=cost, phi0=0.0, n_max=n_max)
    params = ChannelParams(epsilon=epsilon, alphabet=kb.alphabet, dim=kb.dim)
    rng = substream(seed, "sweep")
    try:
        _, rows = optimal_n(kb, node, params, econ, mode=mode, rng=rng, return_sweep=True)
    except NotLeaf as exc:
        click.echo(f"NotLeaf: {exc}", err=True)
        sys.exit(EXIT_CHECK_FAILED)

    lines = ["n,perr,phi,is_argmax"]
    lines += [
        f"{row.n},{_csv_num(row.perr)},{_csv_num(row.phi)},{1 if row.is_argmax else 0}"
        for row in rows
    ]
    payload = "\n".join(lines) + "\n"
    if out_path is None:
        click.echo(payload, nl=False)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(payload)


@main.command()
@click.argument("log_path", type=click.Path())
@click.option("--kb", "kb_path", required=True, type=click.Path())
@click.option("--report", "report_path", type=click.Path(), default=None,
              help="Write the JSON report here (default: <log>.audit.json).")
def audit(log_path, kb_path, report_path):
    """Audit an episode log against the sealed KB."""
    kb = _load_kb_or_exit(kb_path)
    try:
        header, trials = audit_mod.load_log_file(log_path)
    except OSError as exc:
        click.echo(f"I/O error: {exc}", err=True)
        sys.exit(EXIT_OPERATIONAL)
    except audit_mod.MalformedLog as exc:
        click.echo(f"MalformedLog: {exc}", err=True)
        sys.exit(EXIT_OPERATIONAL)

    report = audit_mod.audit_log(header, trials, kb)
    if report_path is None:
        report_path = str(log_path) + ".audit.json"
    with open(report_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(report.to_json() + "\n")

    if report.passed:
        click.echo(f"PASS trials={report.trials} actions={report.actions}")
        sys.exit(EXIT_OK)
    first_fail = next(c for c in report.checks if not c.passed)
    where = "" if first_fail.violating_trial is None else f" trial={first_fail.violating_trial}"
    click.echo(f"FAIL {first_fail.name}{where}: {first_fail.detail}")
    sys.exit(EXIT_CHECK_FAILED)


if __name__ == "__main__":
    main()
