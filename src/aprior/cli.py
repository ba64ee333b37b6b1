"""Batch harness: validate KBs, run episodes, sweep n, audit logs.

Exit codes: 0 ok, 1 a check or validation failed, 2 operational error
(missing file, malformed input) or a usage error. All randomness derives
from --seed through named substreams. Only `audit` imports `aprior.audit`.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import re
import sys

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


def _number(kind, lo=None, hi=None):
    """An argparse type: kind(text) in [lo, hi] and, for a float, finite (nan passes <, >)."""
    def convert(text: str):
        value = kind(text)
        if (lo is not None and value < lo) or (hi is not None and value > hi):
            span = f"x>={lo}" if hi is None else f"{lo}<=x<={hi}"
            raise argparse.ArgumentTypeError(f"{value} is not in the range {span}.")
        if kind is float and not math.isfinite(value):
            raise argparse.ArgumentTypeError(f"{value} is not a finite number.")
        return value
    convert.__name__ = kind.__name__  # argparse's "invalid int value: 'x'"
    return convert


def _exit(exc: Exception, code: int):
    print(f"{type(exc).__name__}: {str(exc) or 'out of memory'}", file=sys.stderr)
    sys.exit(code)


def _write(path, payload: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(payload)


def _csv(rows) -> str:
    """CSV text: a field holding , or " is quoted, None is written as "" and a float as its repr."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def validate(kb_path):
    """Build and validate a KB document; print its digest."""
    kb = load_kb_file(kb_path)
    print(f"ok digest={kb_digest(kb)}")


def run(kb_path, scenario_path, seed, trials, value, cost, phi0, n_max, epsilon,
        fixed_n, out_path, fmt, strict):
    """Run one episode and write its log."""
    kb = load_kb_file(kb_path)
    scenario = world_mod.load_scenario_file(scenario_path, kb)

    econ = MeasurementEconomy(value, cost, phi0, n_max)
    params = ChannelParams(epsilon=epsilon, alphabet=kb.alphabet, dim=kb.dim)
    state = AgentState(kb, params, econ, seed, fixed_n)
    config = {
        "kb": str(kb_path), "scenario": str(scenario_path), "value": value,
        "cost": cost, "phi0": phi0, "n_max": n_max, "epsilon": epsilon,
        "fixed_n": fixed_n, "format": fmt,
    }
    log = run_episode(state, scenario, trials, config=config, strict=strict)

    if fmt == "jsonl":
        payload = log.to_jsonl()
    else:
        payload = _csv([
            ["t", "truth", "n", "node", "status", "agreement", "chosen", "tags", "score"],
            *([tr["t"], tr["truth"], tr["n"], tr["node"], tr["status"], tr["agreement"],
               tr["chosen"], "|".join(tr["action"]["tags"]) if tr["action"] else "", tr["score"]]
              for tr in map(json.loads, log.lines))])
    _write(out_path, payload)

    print(f"trials={trials} recognized={100.0 * log.recognized / trials:.1f}% "
          f"actions={log.actions} mean_score={log.score / trials:.6f}")


def sweep(kb_path, node, epsilon, value, cost, n_max, mode, seed, out_path):
    """Sweep measurement counts and report the phi extremum as CSV."""
    kb = load_kb_file(kb_path)
    econ = MeasurementEconomy(value, cost, 0.0, n_max)
    params = ChannelParams(epsilon=epsilon, alphabet=kb.alphabet, dim=kb.dim)
    rng = substream(seed, "sweep")
    _, rows = optimal_n(kb, node, params, econ, mode=mode, rng=rng, return_sweep=True)

    payload = _csv([["n", "perr", "phi", "is_argmax"],
                    *([row.n, row.perr, row.phi, 1 if row.is_argmax else 0] for row in rows)])
    if out_path is None:
        print(payload, end="")
    else:
        _write(out_path, payload)


def audit(log_path, kb_path, report_path):
    """Audit an episode log against the sealed KB."""
    from . import audit as audit_mod
    kb = load_kb_file(kb_path)
    header, trials = audit_mod.load_log_file(log_path)

    report = audit_mod.audit_log(header, trials, kb)
    if report_path is None:
        report_path = str(log_path) + ".audit.json"
    _write(report_path, report.to_json() + "\n")

    if report.passed:
        print(f"PASS trials={report.trials} actions={report.actions}")
        sys.exit(EXIT_OK)
    first_fail = next(c for c in report.checks if not c.passed)
    where = "" if first_fail.violating_trial is None else f" trial={first_fail.violating_trial}"
    print(f"FAIL {first_fail.name}{where}: {first_fail.detail}")
    sys.exit(EXIT_CHECK_FAILED)


def main(argv=None):
    """Simulator and auditor for congenital-program agents."""
    parser = argparse.ArgumentParser(prog="aprior", description=main.__doc__, allow_abbrev=False)
    commands = parser.add_subparsers(metavar="COMMAND", required=True)
    shared = argparse.ArgumentParser(add_help=False)  # the options run and sweep share
    arg = shared.add_argument
    arg("--kb", dest="kb_path", metavar="PATH", required=True, help="[required]")
    arg("--value", type=_number(float, 0), default=1.0, help="[default: %(default)s; x>=0]")
    arg("--cost", type=_number(float, 0), default=0.0, help="[default: %(default)s; x>=0]")
    arg("--seed", type=int, default=0, help="[default: %(default)s]")

    def command(func, *parents):
        sub = commands.add_parser(func.__name__, help=func.__doc__, description=func.__doc__,
                                  allow_abbrev=False, parents=parents)
        sub._negative_number_matcher = re.compile(r"-\.?\d")  # "--phi0 -1e-3" is a value
        sub.set_defaults(func=func)
        return sub.add_argument
    command(validate)("kb_path", metavar="KB_PATH")
    arg = command(run, shared)
    arg("--scenario", dest="scenario_path", metavar="PATH", required=True, help="[required]")
    arg("--trials", type=_number(int, 1), required=True, help="[x>=1; required]")
    arg("--phi0", type=_number(float), default=0.0, help="[default: %(default)s; finite]")
    arg("--n-max", type=_number(int, 1), default=9, help="[default: %(default)s; x>=1]")
    arg("--epsilon", type=_number(float, 0, 1), default=0.0, help="[default: %(default)s; 0<=x<=1]")
    arg("--fixed-n", type=_number(int, 1), help="[x>=1]")
    arg("--out", dest="out_path", metavar="PATH", required=True, help="[required]")
    arg("--format", dest="fmt", choices=["jsonl", "csv"], default="jsonl", help="[default: jsonl]")
    arg("--strict", action="store_true", help="Audit invariants inline, every trial.")
    arg = command(sweep, shared)
    arg("--node", type=int, required=True, help="[required]")
    arg("--epsilon", type=_number(float, 0, 1), required=True, help="[0<=x<=1; required]")
    arg("--n-max", type=_number(int, 1), default=15, help="[default: %(default)s; x>=1]")
    arg("--mode", choices=[AUTO, EXACT, MONTE_CARLO], default=AUTO, help="[default: %(default)s]")
    arg("--out", dest="out_path", metavar="PATH", help="CSV output path; stdout when omitted.")
    arg = command(audit)
    arg("log_path", metavar="LOG_PATH")
    arg("--kb", dest="kb_path", metavar="PATH", required=True, help="[required]")
    arg("--report", dest="report_path", metavar="PATH",
        help="Write the JSON report here (default: <log>.audit.json).")
    args = vars(parser.parse_args(argv))  # a usage error exits 2
    # OSError covers unreadable input and unwritable output; ValueError, JSON and UTF-8
    # decoding, the integer digit limit, ScenarioError, TruthMismatch, MalformedLog and an
    # overflowing economy; RecursionError, JSON too deep; OverflowError and MemoryError, an
    # alphabet of 2**62 or more, too large for the exact accuracy walk that plans n, or a
    # trial's n * dim channel uses, or the log, too large to hold
    try:
        args.pop("func")(**args)
    except AssertionError as exc:  # only run --strict raises it
        print(f"strict audit failed: {exc}", file=sys.stderr)
        sys.exit(EXIT_CHECK_FAILED)
    except (BuildError, NotLeaf, UnderconstrainedLeaf) as exc:  # two subclass ValueError
        _exit(exc, EXIT_CHECK_FAILED)
    except (OSError, ValueError, RecursionError, OverflowError, MemoryError) as exc:
        _exit(exc, EXIT_OPERATIONAL)


if __name__ == "__main__":
    main()
