#!/usr/bin/env python3
"""branchknot benchmark runner.

    python3 perfbench/run.py --workload verify-curves --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Runs one workload (see workloads.py and NOTES.md) from the root of a
source checkout: the program is imported from ./src, and every case calls
the public CLI in-process, `branchknot.cli.main(argv)`, one at a time.
Each outcome is checked against its reference (checks.py).

A run measures one whole pass of the workload's case list, 15-45 s on
the reference machine (NOTES.md).  --seconds is recorded and a pass that
takes longer is flagged, but a pass is never cut short or repeated: every
end-to-end metric is a figure of the same fixed list of cases.
--trace 0 reports the end-to-end metrics.  Its set-up probes run between
the cases, so that they sample the same stretch of time as the pass.
--trace 1 runs every case twice, once untraced and once with every public
function of every package module wrapped in a span (tracing.py), in
alternating order, and reports the per-layer metrics and the tracing
overhead.  `--workload all` runs each workload in its own process.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  A fuller record of the run (the
machine, every case and its check, and with --trace 1 the spans) is
written under .perfbench/results/.
"""

from __future__ import annotations

import time

T_START = time.monotonic()

import os  # noqa: E402

# Pin the native thread pools before numpy is imported.  One thread is at
# most nproc and keeps the single-client timings independent of whatever
# else runs on the machine.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gzip  # noqa: E402
import importlib.util  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter, process_time  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import tracing  # noqa: E402
from checks import Outcome, check  # noqa: E402
from workloads import KNOWN_DEFECTS, WORKLOADS, build_cases  # noqa: E402

# 7 probes of about 0.6 s each: enough for a median, and few enough that
# 70 runs of the three workloads keep a margin under their time budget
SETUP_REPEATS = 7
CASE_TIMEOUT_S = 120.0
RUN_LIMIT_S = 165.0          # the run must end within 180 s
OUT_DIR = ROOT / ".perfbench"


def import_program():
    """Import the CLI from ./src of this checkout, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    from branchknot import cli
    where = Path(cli.__file__).resolve()
    if src.resolve() not in where.parents:
        raise RuntimeError(f"branchknot imported from {where}, not from {src}")
    return cli


def setup(workload: str, seed: int, work_dir: Path):
    """Everything a run does before its first case: imports and inputs."""
    cli = import_program()
    cases = build_cases(workload, seed, ROOT / "data", work_dir)
    return cli, cases


def probe_setup(workload: str, seed: int, probe_dir: Path) -> float:
    """Interpreter start to set-up done, in one fresh process."""
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         str(probe_dir), "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=60, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed:\n{proc.stderr.strip()}")
    shutil.rmtree(probe_dir, ignore_errors=True)
    return float(proc.stdout.split()[-1]) - t0


def probes_per_gap(n_cases: int, repeats: int = SETUP_REPEATS) -> list:
    """Set-up probes before each case and after the last, spread evenly."""
    gaps = n_cases + 1
    return [repeats * (g + 1) // gaps - repeats * g // gaps for g in range(gaps)]


def machine_record() -> dict:
    import numpy
    import scipy
    from branchknot import _kernels
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "numba_installed": importlib.util.find_spec("numba") is not None,
        "kernel_path": "numba" if _kernels.HAS_NUMBA else "numpy",
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# running cases
# ---------------------------------------------------------------------------

class CaseTimeout(BaseException):
    """Raised by the alarm inside a case that overran its time."""


def _alarm(signum, frame):
    raise CaseTimeout()


@dataclass
class CaseResult:
    name: str
    seconds: float
    passed: bool
    detail: str


@dataclass
class Pass:
    """Case results, with the wall and CPU time of the cases alone."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    cases: list = field(default_factory=list)


def run_case(cli, case, timeout: float) -> tuple:
    """(seconds, Outcome) of one CLI command, run in this process."""
    shutil.rmtree(case.out_dir, ignore_errors=True)
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    t0 = perf_counter()
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(case.argv))
    except CaseTimeout:
        error = f"timeout after {timeout:.0f} s"
    except SystemExit as exc:      # argparse rejects its arguments
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        error = traceback.format_exc()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    seconds = perf_counter() - t0
    return seconds, Outcome(exit_code=code, stderr=err.getvalue(), error=error,
                            out_dir=case.out_dir)


def run_into(res: Pass, cli, case) -> None:
    """Run and check one case; add its time to `res`, not the check's."""
    remaining = RUN_LIMIT_S - (time.monotonic() - T_START)
    if remaining < 1.0:
        res.cases.append(CaseResult(case.name, 0.0, False,
                                    "not run: run time limit reached"))
        return
    c0 = process_time()
    seconds, outcome = run_case(cli, case, min(CASE_TIMEOUT_S, remaining))
    res.cpu_s += process_time() - c0
    res.wall_s += seconds
    passed, detail = check(case.expect, outcome)
    res.cases.append(CaseResult(case.name, seconds, passed, detail))


def run_pass(cli, cases, gap) -> Pass:
    """One pass of the case list; gap(i) runs before case i and after the last."""
    res = Pass()
    for i, case in enumerate(cases):
        gap(i)
        run_into(res, cli, case)
    gap(len(cases))
    return res


def run_traced(cli, cases, tracer) -> tuple:
    """(untraced, traced) passes, each case run both ways back to back.

    The order alternates from case to case, so that a warm cache or a
    change in the host's speed falls on both sides of the overhead alike.
    """
    plain, traced = Pass(), Pass()
    for i, case in enumerate(cases):
        for res in ((plain, traced) if i % 2 == 0 else (traced, plain)):
            if res is plain:
                run_into(res, cli, case)
                continue
            tracer.case_id = i
            tracer.install()
            try:
                run_into(res, cli, case)
            finally:
                tracer.uninstall()
    return plain, traced


def print_pass(label: str, p: Pass) -> None:
    print(f"# {label}: {len(p.cases)} cases in {p.wall_s:.3f} s")
    for c in p.cases:
        verdict = "PASS" if c.passed else "FAIL"
        print(f"  {verdict}  {c.name:<28} {c.seconds:8.3f} s  {c.detail}")


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def end_to_end(p: Pass, setup_samples: list) -> dict:
    times = [c.seconds for c in p.cases]
    return {
        "wall_s": (p.wall_s, "s"),
        "case_p50_s": (statistics.median(times), "s"),
        "case_max_s": (max(times), "s"),
        "cpu_s": (p.cpu_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "pass_frac": (sum(c.passed for c in p.cases) / len(times), "ratio"),
    }


def summary_line(passes: list, metrics: dict) -> dict:
    cases = [c for p in passes for c in p.cases]
    failed = sum(not c.passed for c in cases)
    return {"correct": failed == 0, "attempted": len(cases), "failed": failed,
            "metrics": {k: {"value": v[0], "unit": v[1]} for k, v in metrics.items()}}


def run_workload(args) -> int:
    work_root = OUT_DIR / f"work-{os.getpid()}"
    results_dir = OUT_DIR / "results"
    signal.signal(signal.SIGALRM, _alarm)
    try:
        cli, cases = setup(args.workload, args.seed, work_root / "run")
        machine = machine_record()
        print(f"# workload {args.workload}  seed {args.seed}  trace {args.trace}  "
              f"closed loop, 1 client, {len(cases)} cases per pass")
        print("# machine " + json.dumps(machine, sort_keys=True))
        left_out = KNOWN_DEFECTS.get(args.workload, {})
        for name, why in left_out.items():
            print(f"# left out, known defect: {name}: {why}")

        record = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace, "machine": machine,
                  "left_out": left_out,
                  "cases": [{"name": c.name, "argv": c.argv, "expect": c.expect}
                            for c in cases]}
        results_dir.mkdir(parents=True, exist_ok=True)
        stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"

        if args.trace:
            tracer = tracing.Tracer()
            plain, traced = run_traced(cli, cases, tracer)
            print_pass("untraced", plain)
            print_pass("traced", traced)
            passes = [plain, traced]
            metrics = tracing.layer_metrics(tracer.spans)
            metrics["trace.wall_s"] = (traced.wall_s, "s", None)
            metrics["trace.overhead_ratio"] = (
                traced.wall_s / plain.wall_s, "ratio",
                f"traced {traced.wall_s:.3f} s / untraced {plain.wall_s:.3f} s, "
                "each case run both ways back to back")
            splits = {cases[i].name: tracing.case_split(tracer.spans, i)
                      for i in range(len(cases))}
            print(f"# {len(tracer.spans)} spans")
            print("# per-case split (traced runs)")
            for name, sp in splits.items():
                print(f"  {name:<28} " + "  ".join(
                    f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
                    for k, v in sp.items()))
            print("# per-layer metrics")
            for k, (v, unit, base) in metrics.items():
                if v is None:
                    text = f"n/a {unit}   (undefined: {base})"
                else:
                    text = f"{v:.6g} {unit}" + (f"   ({base})" if base else "")
                    if v == 0:
                        text += "   (no call on this workload)"
                print(f"  {k:<34} {text}")
            record.update(per_layer={k: {"value": v, "unit": u, "base": b}
                                     for k, (v, u, b) in metrics.items()},
                          case_split=splits)
            spans_path = results_dir / f"{stem}_spans.jsonl.gz"
            with gzip.open(spans_path, "wt") as fh:
                fields = ("name", "start", "end", "parent", "case", "counts")
                for s in tracer.spans:
                    fh.write(json.dumps(dict(zip(fields, s))) + "\n")
            # ratios are printed and kept in the record with their bases; the
            # result line carries the counts and times they are made from
            metrics = {k: (v, u) for k, (v, u, _) in metrics.items()
                       if k not in tracing.RATIOS}
        else:
            probes = probes_per_gap(len(cases))
            setup_samples = []

            def gap(i: int) -> None:
                for _ in range(probes[i]):
                    probe_dir = work_root / f"probe{len(setup_samples)}"
                    setup_samples.append(probe_setup(args.workload, args.seed, probe_dir))

            one = run_pass(cli, cases, gap)
            print_pass("pass", one)
            if one.wall_s > args.seconds:
                print(f"# the pass took {one.wall_s:.1f} s, more than --seconds "
                      f"{args.seconds}; it is measured whole")
            print(f"# setup_s samples: {', '.join(f'{s:.3f}' for s in setup_samples)}")
            passes = [one]
            metrics = end_to_end(one, setup_samples)
            record["setup_s_samples"] = setup_samples

        line = summary_line(passes, metrics)
        if not args.trace:
            print("# end-to-end")
            for k, (v, unit) in metrics.items():
                print(f"  {k:<14} {v:.6g} {unit}")
            print(f"  {'fail_frac':<14} {line['failed'] / line['attempted']:.6g} ratio"
                  f"   ({line['failed']} failed / {line['attempted']} attempted)")
        record.update(passes=[{"wall_s": p.wall_s, "cpu_s": p.cpu_s,
                               "cases": [vars(c) for c in p.cases]} for p in passes],
                      result=line)
        (results_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
        print(json.dumps(line))
        return 0
    finally:
        shutil.rmtree(work_root, ignore_errors=True)


def run_all(args) -> int:
    """Each workload in its own process, so peak memory does not carry over."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT)
        print(proc.stdout, end="", flush=True)
        if proc.returncode != 0:
            print(f"# workload {workload} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= line["correct"]
        combined["attempted"] += line["attempted"]
        combined["failed"] += line["failed"]
        for k, v in line["metrics"].items():
            combined["metrics"][f"{workload}:{k}"] = v
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        setup(args.workload, args.seed, Path(args.setup_probe))
        print(time.monotonic())
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
