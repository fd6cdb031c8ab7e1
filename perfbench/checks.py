"""Reference checker: one verdict per case outcome.

A case passes only when its outcome matches its reference.  A wrong
answer, an undocumented exit code, a traceback or a timeout fails it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

# the CLI's documented exit codes (branchknot.cli module docstring)
DOCUMENTED_EXITS = {0, 2, 3, 4, 5}
GAUSS_TOL = 0.1
GAUSS_RESIDUAL_TOL = 1e-10


@dataclass
class Outcome:
    """What one CLI command did."""

    exit_code: int | None
    stderr: str = ""
    error: str | None = None        # traceback text or timeout message
    out_dir: Path | None = None

    def report(self, filename: str) -> dict | None:
        path = self.out_dir / filename if self.out_dir else None
        if path is None or not path.is_file():
            return None
        return json.loads(path.read_text())


def _mismatches(got: dict, want: dict, keys) -> list:
    return [f"{k}={got.get(k)} (want {want[k]})" for k in keys
            if k in want and got.get(k) != want[k]]


def _routes_agree(rep: dict) -> bool:
    e, lk = rep["crossing_sum"], rep["linking_gauss"]
    return abs(lk - e) <= GAUSS_TOL


def check(expect: dict, out: Outcome) -> tuple:
    """(passed, detail) for one outcome against its reference."""
    if out.error is not None:
        return False, out.error.strip().splitlines()[-1]
    if out.exit_code not in DOCUMENTED_EXITS:
        return False, f"undocumented exit code {out.exit_code}"
    kind = expect["kind"]

    if kind == "refuse":
        ok = out.exit_code == expect["exit"]
        return ok, f"exit {out.exit_code} (want {expect['exit']})"

    if kind == "knot_agree_or_refuse" and out.exit_code != 0:
        return True, f"refused with documented exit {out.exit_code}"

    if out.exit_code != 0:
        return False, f"exit {out.exit_code}: {out.stderr.strip()[-160:]}"

    if kind == "verify":
        rep = out.report("verify.json")
        if rep is None:
            return False, "verify.json missing"
        bad = _mismatches(rep, expect, ("D", "e", "N", "sl"))
        detail = f"D={rep['D']} e={rep['e']} N={rep['N']} sl={rep['sl']}"
        return not bad, detail if not bad else "wrong: " + ", ".join(bad)

    if kind.startswith("knot"):
        rep = out.report("knot_report.json")
        if rep is None:
            return False, "knot_report.json missing"
        got = {"N": rep["n_strands"], "e": rep["crossing_sum"]}
        bad = _mismatches(got, expect, ("N", "e"))
        if not _routes_agree(rep):
            bad.append(f"routes disagree: braid {rep['crossing_sum']}, "
                       f"gauss {rep['linking_gauss']:.3f}")
        detail = (f"N={rep['n_strands']} e={rep['crossing_sum']} "
                  f"gauss={rep['linking_gauss']:.3f} eta={rep['eta']:.3g}")
        return not bad, detail if not bad else "wrong: " + ", ".join(bad)

    if kind == "deform":
        rep = out.report("member.json")
        if rep is None:
            return False, "member.json missing"
        res = rep["gauss_invariance_residual"]
        ok = res <= GAUSS_RESIDUAL_TOL
        return ok, f"gauss_invariance_residual={res:.3e}"

    raise ValueError(f"unknown reference kind {kind!r}")
