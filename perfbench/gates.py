"""Output gates: every operation the benchmark times is also checked here.

The oracles come from the repository's stdlib-only `tests/oracles.py`, so
the tests and the benchmark share one copy. Feature accuracy is checked by
enumerating all a^n observation sequences. The KB digest is checked only in
part: the canonical form is the library's own `canonical_document`, and the
serialization and the byte-wise FNV-1a-64 over it are independent.
Each check returns a list of failure messages; an empty list means pass.
"""
from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

BRUTE_N_MAX = 8
BRUTE_TOL = 1e-12
MC_SIGMAS = 4.0
N_STAR = 2  # the argmax of the phi(n) sweep on leaf 11 at eps=0.3, V=1, c=0.02


class Tally:
    """Counts operations attempted and failed; keeps the first few messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, what: str, failures: list[str]) -> None:
        self.attempted += 1
        if failures:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(f"{what}: {'; '.join(failures[:3])}")

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


# ---- knowledge-base digest oracle -------------------------------------------

def kb_digest_oracle(doc: dict) -> int:
    """FNV-1a-64 of the canonical KB document, serialized outside the library."""
    from aprior.kb import canonical_document
    from oracles import canonical_json_oracle, fnv1a_oracle

    return fnv1a_oracle(canonical_json_oracle(canonical_document(doc)))


# ---- episode logs -----------------------------------------------------------

def episode_failures(header: dict, records: list, report, text: str, *, trials: int,
                     digest: int, strict_text: str | None = None) -> list[str]:
    """Checks on one parsed and audited episode log.

    `digest` is the oracle digest of the KB document; `strict_text`, when
    given, is the log of the same seed run with strict=True.
    """
    out = []
    if not report.passed:
        out += [f"audit {c.name} failed at trial {c.violating_trial}: {c.detail}"
                for c in report.checks if not c.passed]
    if header["digest_before"] != header["digest_after"]:
        out.append("digest_before != digest_after")
    if header["digest_before"] != digest:
        out.append(f"digest {header['digest_before']} != oracle {digest}")
    if header["trials"] != trials or len(records) != trials:
        out.append(f"{len(records)} records, header says {header['trials']}, expected {trials}")
    if [r["t"] for r in records] != list(range(len(records))):
        out.append("trial indices are not 0..T-1")
    if strict_text is not None and strict_text != text:
        out.append("strict and plain logs differ")
    return out


# ---- golden hashes ----------------------------------------------------------

def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def hash_failures(expected: str | None, actual: str) -> list[str]:
    if expected is None:
        return ["no golden hash to compare with"]
    if expected == actual:
        return []
    return [f"sha256 {actual[:16]}... != golden {expected[:16]}..."]


def sha256_texts(texts) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode("utf-8"))
    return h.hexdigest()


# ---- sweep ------------------------------------------------------------------

def sweep_csv(rows, digits: int | None = None) -> str:
    """The `aprior sweep` CSV; with `digits`, floats are rounded to that many
    significant digits (used for the golden hash, so a re-associated sum that
    moves only the last bits is not a change)."""
    fmt = repr if digits is None else (lambda x: f"{x:.{digits}g}")
    lines = ["n,perr,phi,is_argmax"]
    lines += [f"{r.n},{fmt(float(r.perr))},{fmt(float(r.phi))},{1 if r.is_argmax else 0}"
              for r in rows]
    return "\n".join(lines) + "\n"


def exact_sweep_failures(rows, symbols, eps: float, a: int, value: float,
                         cost: float) -> list[str]:
    """Exact sweep rows against brute-force enumeration for n <= BRUTE_N_MAX."""
    from oracles import brute_feature_accuracy

    out = []
    brute = {}
    for row in rows:
        if row.n > BRUTE_N_MAX:
            continue
        ok = 1.0
        for t in symbols:
            if (row.n, t) not in brute:
                brute[row.n, t] = brute_feature_accuracy(row.n, eps, a, t)
            ok *= brute[row.n, t]
        if abs(row.perr - (1.0 - ok)) > BRUTE_TOL:
            out.append(f"n={row.n}: exact perr {row.perr!r} != brute {1.0 - ok!r}")
    return out + row_failures(rows, value, cost)


def row_failures(rows, value: float, cost: float) -> list[str]:
    """phi consistent with perr, rows 1..n_max in order, one argmax at N_STAR."""
    out = []
    if [r.n for r in rows] != list(range(1, len(rows) + 1)):
        out.append("rows are not n = 1..n_max")
    for r in rows:
        if not 0.0 <= r.perr <= 1.0 or abs(r.phi - (value * (1.0 - r.perr) - cost * r.n)) > BRUTE_TOL:
            out.append(f"n={r.n}: phi {r.phi!r} inconsistent with perr {r.perr!r}")
    argmax = [r.n for r in rows if r.is_argmax]
    if argmax != [N_STAR]:
        out.append(f"argmax rows {argmax}, expected [{N_STAR}]")
    return out


def auto_sweep_failures(rows, exact_rows, feature_acc, samples: int, value: float,
                        cost: float) -> list[str]:
    """Auto-mode rows: each within MC_SIGMAS standard errors of the exact value.

    `feature_acc[n]` lists the exact accuracy of each feature at n; a row
    computed exactly has zero distance and passes for any sigma.
    """
    out = []
    if len(rows) != len(exact_rows):
        return [f"{len(rows)} rows, expected {len(exact_rows)}"]
    for r, e in zip(rows, exact_rows):
        ps = feature_acc[r.n]
        var = 0.0
        for i, p in enumerate(ps):
            others = math.prod(q for j, q in enumerate(ps) if j != i)
            var += others * others * p * (1.0 - p) / samples
        if abs(r.perr - e.perr) > MC_SIGMAS * math.sqrt(var) + BRUTE_TOL:
            out.append(f"n={r.n}: perr {r.perr!r} off exact {e.perr!r} by more than "
                       f"{MC_SIGMAS:g} sigma")
    return out + row_failures(rows, value, cost)
