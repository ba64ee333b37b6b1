"""Batch harness: validate KBs, run episodes, sweep n, audit logs.

Exit codes: 0 ok, 1 a check or validation failed, 2 operational error
(missing file, malformed input). All randomness derives from --seed
through named substreams.
"""
from __future__ import annotations

import csv
import io
import json
import math
import sys

import click

from . import audit as audit_mod
from . import world as world_mod
from .agent import AgentState, run_episode
from .decision import (AUTO, EXACT, MONTE_CARLO, MeasurementEconomy, NotLeaf, UnderconstrainedLeaf,
                       optimal_n)
from .kb import BuildError, kb_digest, load_kb_file
from .perception import ChannelParams
from .rng import substream

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_OPERATIONAL = 2


class FiniteFloat(click.FloatRange):
    """A FloatRange that also rejects inf and nan, which pass its comparisons."""

    name = "finite float"

    def convert(self, value, param, ctx):
        rv = super().convert(value, param, ctx)
        if not math.isfinite(rv):
            self.fail(f"{rv} is not a finite number.", param, ctx)
        return rv

    def _describe_range(self) -> str:
        # the help text's range; click would print "x<=None" for no bounds
        if self.min is None and self.max is None:
            return "finite"
        return super()._describe_range()


@click.group()
def main():
    """Simulator and auditor for congenital-program agents."""


def _exit(exc: Exception, code: int):
    click.echo(f"{type(exc).__name__}: {str(exc) or 'out of memory'}", err=True)
    sys.exit(code)


def _load_or_exit(load, *args):
    """Call a loader; unreadable or malformed input exits 2, a rejected KB 1.

    ValueError covers JSON and UTF-8 decoding, the integer digit limit,
    ScenarioError, TruthMismatch, MalformedLog and an overflowing economy;
    RecursionError, JSON too deep; OverflowError and MemoryError, an alphabet
    of 2**62 or more, too large for the exact accuracy walk that plans n.
    """
    try:
        return load(*args)
    except (OSError, ValueError, RecursionError, OverflowError, MemoryError) as exc:
        _exit(exc, EXIT_OPERATIONAL)
    except BuildError as exc:
        _exit(exc, EXIT_CHECK_FAILED)


def _write_or_exit(path, payload: str) -> None:
    """Write an output file; a path that cannot be written exits 2."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(payload)
    except OSError as exc:
        _exit(exc, EXIT_OPERATIONAL)


@main.command()
@click.argument("kb_path", type=click.Path())
def validate(kb_path):
    """Build and validate a KB document; print its digest."""
    kb = _load_or_exit(load_kb_file, kb_path)
    click.echo(f"ok digest={kb_digest(kb)}")


@main.command()
@click.option("--kb", "kb_path", required=True, type=click.Path())
@click.option("--scenario", "scenario_path", required=True, type=click.Path())
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--trials", type=click.IntRange(min=1), required=True)
@click.option("--value", type=FiniteFloat(min=0), default=1.0, show_default=True)
@click.option("--cost", type=FiniteFloat(min=0), default=0.0, show_default=True)
@click.option("--phi0", type=FiniteFloat(), default=0.0, show_default=True)
@click.option("--n-max", type=click.IntRange(min=1), default=9, show_default=True)
@click.option("--epsilon", type=FiniteFloat(0, 1), default=0.0, show_default=True)
@click.option("--fixed-n", type=click.IntRange(min=1), default=None)
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--format", "fmt", type=click.Choice(["jsonl", "csv"]), default="jsonl",
              show_default=True)
@click.option("--strict", is_flag=True, help="Audit invariants inline, every trial.")
def run(kb_path, scenario_path, seed, trials, value, cost, phi0, n_max, epsilon,
        fixed_n, out_path, fmt, strict):
    """Run one episode and write its log."""
    kb = _load_or_exit(load_kb_file, kb_path)
    scenario = _load_or_exit(world_mod.load_scenario_file, scenario_path, kb)

    econ = _load_or_exit(MeasurementEconomy, value, cost, phi0, n_max)
    params = ChannelParams(epsilon=epsilon, alphabet=kb.alphabet, dim=kb.dim)
    state = _load_or_exit(AgentState, kb, params, econ, seed, fixed_n)
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
        buf = io.StringIO()
        # quotes a tag holding , or "; writes None as "" and a float as its repr
        rows = csv.writer(buf, lineterminator="\n")
        rows.writerow(["t", "truth", "n", "node", "status", "agreement", "chosen", "tags", "score"])
        for tr in map(json.loads, log.lines):
            tags = "|".join(tr["action"]["tags"]) if tr["action"] else ""
            rows.writerow([tr["t"], tr["truth"], tr["n"], tr["node"], tr["status"],
                           tr["agreement"], tr["chosen"], tags, tr["score"]])
        payload = buf.getvalue()
    _write_or_exit(out_path, payload)

    click.echo(
        f"trials={trials} recognized={100.0 * log.recognized / trials:.1f}% "
        f"actions={log.actions} mean_score={log.score / trials:.6f}"
    )


@main.command()
@click.option("--kb", "kb_path", required=True, type=click.Path())
@click.option("--node", type=int, required=True)
@click.option("--epsilon", type=FiniteFloat(0, 1), required=True)
@click.option("--value", type=FiniteFloat(min=0), default=1.0, show_default=True)
@click.option("--cost", type=FiniteFloat(min=0), default=0.0, show_default=True)
@click.option("--n-max", type=click.IntRange(min=1), default=15, show_default=True)
@click.option("--mode", type=click.Choice([AUTO, EXACT, MONTE_CARLO]), default=AUTO,
              show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", "out_path", type=click.Path(), default=None,
              help="CSV output path; stdout when omitted.")
def sweep(kb_path, node, epsilon, value, cost, n_max, mode, seed, out_path):
    """Sweep measurement counts and report the phi extremum as CSV."""
    kb = _load_or_exit(load_kb_file, kb_path)
    econ = _load_or_exit(MeasurementEconomy, value, cost, 0.0, n_max)
    params = ChannelParams(epsilon=epsilon, alphabet=kb.alphabet, dim=kb.dim)
    rng = substream(seed, "sweep")
    try:
        _, rows = optimal_n(kb, node, params, econ, mode=mode, rng=rng, return_sweep=True)
    except (NotLeaf, UnderconstrainedLeaf) as exc:
        _exit(exc, EXIT_CHECK_FAILED)
    except (OverflowError, MemoryError) as exc:  # as in _load_or_exit
        _exit(exc, EXIT_OPERATIONAL)

    lines = ["n,perr,phi,is_argmax"]
    lines += [
        f"{row.n},{row.perr!r},{row.phi!r},{1 if row.is_argmax else 0}"
        for row in rows
    ]
    payload = "\n".join(lines) + "\n"
    if out_path is None:
        click.echo(payload, nl=False)
    else:
        _write_or_exit(out_path, payload)


@main.command()
@click.argument("log_path", type=click.Path())
@click.option("--kb", "kb_path", required=True, type=click.Path())
@click.option("--report", "report_path", type=click.Path(), default=None,
              help="Write the JSON report here (default: <log>.audit.json).")
def audit(log_path, kb_path, report_path):
    """Audit an episode log against the sealed KB."""
    kb = _load_or_exit(load_kb_file, kb_path)
    header, trials = _load_or_exit(audit_mod.load_log_file, log_path)

    report = audit_mod.audit_log(header, trials, kb)
    if report_path is None:
        report_path = str(log_path) + ".audit.json"
    _write_or_exit(report_path, report.to_json() + "\n")

    if report.passed:
        click.echo(f"PASS trials={report.trials} actions={report.actions}")
        sys.exit(EXIT_OK)
    first_fail = next(c for c in report.checks if not c.passed)
    where = "" if first_fail.violating_trial is None else f" trial={first_fail.violating_trial}"
    click.echo(f"FAIL {first_fail.name}{where}: {first_fail.detail}")
    sys.exit(EXIT_CHECK_FAILED)


if __name__ == "__main__":
    main()
