"""Compare this tree's CLI results with OTHER_TREE's, for perf changes.

Usage: python3 tools/same_results.py OTHER_TREE.  Runs every case of the
three benchmark workloads at seeds 1 and 11 (perfbench/workloads.py), and
the 60 runs of the T(p, q) sweep (sweep_cases), through branchknot.cli.main,
each tree in its own subprocess.  Prints each difference in exit code,
stdout, stderr or a non-float JSON field (lists of objects compare as
sets), and exits 1 if there is one; then the largest difference of each
float JSON field and CSV column, relative to max(1, |value|)."""

import contextlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parents[1]


def sweep_cases(work: Path) -> list:
    """(name, argv, out_dir) of the 60 runs of the T(p, q) sweep: verify on
    each knot-slices curve, with unit leading coefficients, at sampler
    seeds 1 and 2 and two settings of t and eta; inputs go under work."""
    from workloads import TORUS_POOL, torus_curve
    (work / "inputs").mkdir(parents=True)
    cases = []
    for p, qs in TORUS_POOL.items():
        for q in qs:
            path = work / "inputs" / f"T{p}_{q}.json"
            path.write_text(json.dumps(torus_curve(p, q)) + "\n")
            for setting in (["--t", "0.005", "--eta", "0.05"], ["--t", "1e-5"]):
                for seed in ("1", "2"):
                    out = work / "out" / f"{len(cases):02d}"
                    argv = ["verify", "--input", str(path), "--out-dir", str(out),
                            "--seed", seed, *setting]
                    name = f"sweep: verify T({p},{q}) --seed {seed} {' '.join(setting)}"
                    cases.append((name, argv, out))
    return cases


def run_tree(tree: str, work: str) -> None:
    """Run every case with tree's branchknot; write work/results.json."""
    sys.path[:0] = [str(Path(tree) / "src"), str(HERE / "perfbench")]
    from branchknot import cli
    from workloads import WORKLOADS, build_cases
    cases = [(f"{wl} seed {seed}: {case.name}", case.argv, case.out_dir)
             for wl in WORKLOADS for seed in (1, 11)
             for case in build_cases(wl, seed, HERE / "data", Path(work) / f"{wl}{seed}")]
    results = []
    for name, argv, out_dir in cases + sweep_cases(Path(work) / "sweep"):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(argv)
            except SystemExit as exc:
                rc = exc.code
        files = {p.name: p.read_text() for p in out_dir.glob("*")}
        results.append([name, {
            "exit code": rc, "stdout": out.getvalue().replace(work, "WORK"),
            "stderr": err.getvalue().replace(work, "WORK"), **files}])
    (Path(work) / "results.json").write_text(json.dumps(results))


def leaves(x, key, out):
    """Append every scalar of x to out[its path]; file texts are parsed,
    a CSV file into its columns."""
    if key.endswith(".json"):
        x = json.loads(x)
    elif key.endswith(".csv"):
        head, _, body = x.partition("\n")
        x = dict(zip(head.strip().split(","),
                     np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2).T.tolist()))
    if isinstance(x, dict):
        for k, v in x.items():
            leaves(v, f"{key}.{k}" if key else k, out)
    elif isinstance(x, list):
        if all(isinstance(v, dict) for v in x):
            x = sorted(x, key=lambda v: json.dumps(v, sort_keys=True))
        for v in x:
            leaves(v, key + "[]", out)
    else:
        out.setdefault(key, []).append(x)


def main(other: str) -> int:
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        for i, tree in enumerate((other, str(HERE))):
            work = str(Path(tmp) / str(i))
            code = (f"import sys; sys.path.insert(0, {str(HERE / 'tools')!r}); import "
                    f"same_results; same_results.run_tree({tree!r}, {work!r})")
            subprocess.run([sys.executable, "-c", code], check=True)
            runs.append(json.loads((Path(work) / "results.json").read_text()))
    bad, worst = [], {}
    for (case, a), (_, b) in zip(*runs):
        la, lb = {}, {}
        leaves(a, "", la)
        leaves(b, "", lb)
        for key in sorted(la.keys() | lb.keys()):
            va, vb = la.get(key, []), lb.get(key, [])
            if len(va) != len(vb):
                bad.append(f"{case}: {key} has {len(va)} != {len(vb)} values")
            for x, y in zip(va, vb) if len(va) == len(vb) else ():
                if type(x) is float and type(y) is float:
                    d = abs(x - y) / max(1.0, abs(x), abs(y))
                    worst[key] = max(worst.get(key, 0.0), d)
                elif x != y or type(x) is not type(y):
                    bad.append(f"{case}: {key} {x!r} != {y!r}")
    print(f"{len(runs[1])} cases; {len(bad)} differences in exit code, output "
          "or a non-float field", *bad, sep="\n  ")
    print("largest float difference per JSON field and CSV column:",
          *(f"{k:46s} {d:.1e}" for k, d in sorted(worst.items())), sep="\n  ")
    return 1 if bad or len(runs[0]) != len(runs[1]) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]) if len(sys.argv) == 2 else __doc__)
