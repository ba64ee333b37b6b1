"""The row of a phi(n) sweep, which `optimal_n(..., return_sweep=True)` returns.

The package's one dataclass, in a module of its own: only a returned sweep
imports it, so importing `aprior.cli`, or running `run` or `audit`, loads
no `dataclasses` module.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SweepRow:
    n: int
    perr: float
    phi: float
    is_argmax: bool
