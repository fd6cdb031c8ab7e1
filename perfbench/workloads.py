"""Seeded case lists for the three benchmark workloads.

Every workload is a closed loop of one client: the runner issues one CLI
command, waits for it, checks it, then issues the next.  The workload seed
fixes everything the program sees: the JSON input files written here and
the CLI arguments (sampler seeds included).  NOTES.md says why each
workload and parameter was chosen.
"""

from __future__ import annotations

import cmath
import json
import math
import random
import shutil
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("verify-curves", "knot-slices", "deform-mixed")

# T(p, q) curves of knot-slices: p = 2..5, q <= 9, gcd(p, q) = 1, q > p so
# that the first coordinate pair carries the lowest-order term (15 curves).
TORUS_POOL = {p: [q for q in range(p + 1, 10) if math.gcd(p, q) == 1]
              for p in range(2, 6)}

# knot-slices runs the data/ fixtures; each reference comes from checks.py.
FIXTURE_EXPECT = {
    "cusp": {"kind": "knot", "N": 2, "e": 3},            # T(2,3)
    "torus5": {"kind": "knot", "N": 2, "e": 5},          # T(2,5)
    "flat_plane": {"kind": "knot", "N": 1, "e": 0},
    "mixed_strong": {"kind": "knot_agree", "N": 2},
    "four_function": {"kind": "knot_agree_or_refuse"},
    "bad_orders": {"kind": "refuse", "exit": 2},
}

# Cases the program is known to get wrong.  A workload must be one on which
# no operation fails, so these are left out of it; the runner names them in
# every run, and a case goes back in when its defect is fixed.
KNOWN_DEFECTS = {
    "knot-slices": {
        "knot four_function": "exits 0 with braid -3 against Gauss 0.000; the slice "
                              "lies in {x4 = 0}, so it is not a knot (ROADMAP item 4)",
    },
}


@dataclass
class Case:
    """One CLI command with the reference its outcome is checked against."""

    name: str
    argv: list
    expect: dict
    out_dir: Path


def torus_expect(p: int, q: int) -> dict:
    """Closed forms for the complex curve z -> (z^p, z^q), gcd(p, q) = 1.

    delta = (p-1)(q-1)/2 double points after a generic perturbation
    (Milnor 1968); the slice is T(p, q) on N = p strands with crossing sum
    e = q(p-1) and self-linking sl = e - N (Bennequin 1983).
    """
    e = q * (p - 1)
    return {"D": (p - 1) * (q - 1) // 2, "e": e, "N": p, "sl": e - p}


def torus_curve(p: int, q: int, a: complex = 1.0, b: complex = 1.0) -> dict:
    """Input JSON for F = (a z^p, b z^q), given by its derivatives."""
    def monomial(n: int, c: complex) -> list:
        return [[0.0, 0.0]] * n + [[c.real, c.imag]]
    return {"fprime": [monomial(p - 1, p * a), [], monomial(q - 1, q * b), []],
            "conf_tol": 1e-10}


def _leading(rng: random.Random) -> complex:
    """Modulus log-uniform in [0.5, 2], any phase; the knot type is unchanged."""
    r = math.exp(rng.uniform(math.log(0.5), math.log(2.0)))
    return cmath.rect(r, rng.uniform(0.0, 2.0 * math.pi))


def _sampler_seed(rng: random.Random) -> str:
    return str(rng.randrange(1, 2 ** 31))


def build_cases(workload: str, seed: int, data_dir: Path, work_dir: Path) -> list:
    """Write the inputs of `workload` for `seed` under work_dir; return its cases."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = random.Random(f"{workload}/{seed}")
    inputs = work_dir / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    cases = []

    def add(name, command, input_path, extra, expect):
        out = work_dir / "out" / f"{len(cases):02d}"
        argv = [command, "--input", str(input_path), "--out-dir", str(out), *extra]
        cases.append(Case(name=name, argv=argv, expect=expect, out_dir=out))

    def fixture(stem: str) -> Path:
        dst = inputs / f"{stem}.json"
        shutil.copyfile(data_dir / f"{stem}.json", dst)
        return dst

    def write(stem: str, payload: dict) -> Path:
        dst = inputs / f"{stem}.json"
        dst.write_text(json.dumps(payload) + "\n")
        return dst

    if workload == "verify-curves":
        verify = ["--t", "0.005", "--eta", "0.05"]
        cusp = fixture("cusp")
        t34 = write("T3_4", torus_curve(3, 4))
        flat = fixture("flat_plane")
        add("verify cusp T(2,3)", "verify", cusp,
            verify + ["--seed", _sampler_seed(rng)], {"kind": "verify", **torus_expect(2, 3)})
        add("verify T(3,4)", "verify", t34,
            verify + ["--seed", _sampler_seed(rng), "--grid-n", "32"],
            {"kind": "verify", **torus_expect(3, 4)})
        add("verify flat_plane", "verify", flat, ["--eta", "0.5"],
            {"kind": "verify", "D": 0, "e": 0, "N": 1})
    elif workload == "knot-slices":
        for p, qs in TORUS_POOL.items():
            for q in qs:
                path = write(f"T{p}_{q}", torus_curve(p, q, _leading(rng), _leading(rng)))
                exp = torus_expect(p, q)
                add(f"knot T({p},{q})", "knot", path, [],
                    {"kind": "knot", "N": exp["N"], "e": exp["e"]})
        for stem, expect in FIXTURE_EXPECT.items():
            if f"knot {stem}" not in KNOWN_DEFECTS[workload]:
                add(f"knot {stem}", "knot", fixture(stem), [], expect)
    else:
        for stem in ("four_function", "mixed_strong"):
            path = fixture(stem)
            for orientation in ("+", "-"):
                add(f"deform {stem} {orientation}", "deform", path,
                    ["--t", "0.05", "--seed", _sampler_seed(rng),
                     "--orientation", orientation],
                    {"kind": "deform"})
    return cases
