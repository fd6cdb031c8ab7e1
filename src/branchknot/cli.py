"""Command-line front end.

Subcommands mirror the pipeline stages:

  analyze        validate input data, print orders/branch/plane geometry
  deform         sample generic parameters, build and save a family member
  double-points  locate self-intersections of the (possibly perturbed) map
  knot           trace the sphere slice, emit CSV polyline + braid JSON
  verify         run the full double-point / crossing-number identity check

Exit codes: 0 success, 2 input validation failure (a file that cannot
be read or written, a document that is not a JSON object or lacks a key,
a tangent plane or Gauss map asked for at a branch point, a search
region outside 0 < radius <= 0.9 or with grid-n < 3, and a tolerance or
slice radius eta that is not finite and positive included), 3 sampling
exhausted (a scale t that is not finite and positive included),
4 identity violation, 5 slicing/braiding failure, 6 the two Gauss-map
routes disagree.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import deformation, intersect, knot
from .errors import (
    BranchOnSlice,
    BranchPointInRegion,
    ConformalityViolation,
    DegeneratePlane,
    FormulaViolation,
    GaussCrossCheckFailure,
    IndeterminateGauss,
    NonMonotoneFiberAngle,
    OrderMismatch,
    OrderViolation,
    ProjectionPoleOnCurve,
    PushoffCollision,
    SamplingExhausted,
    TraceFailure,
)
from .weierstrass import WeierstrassData, branch_points, gauss_maps, symplectic_positivity

_EXIT_VALIDATION = 2
_EXIT_SAMPLING = 3
_EXIT_FORMULA = 4
_EXIT_TRACE = 5
_EXIT_CROSS_CHECK = 6

_ERROR_CODES = [
    ((ConformalityViolation, OrderMismatch, OrderViolation,
      BranchPointInRegion, IndeterminateGauss, DegeneratePlane,
      ValueError, OSError), _EXIT_VALIDATION),
    ((SamplingExhausted,), _EXIT_SAMPLING),
    ((FormulaViolation,), _EXIT_FORMULA),
    ((TraceFailure, BranchOnSlice, NonMonotoneFiberAngle,
      PushoffCollision, ProjectionPoleOnCurve), _EXIT_TRACE),
    ((GaussCrossCheckFailure,), _EXIT_CROSS_CHECK),
]


def _dump(obj, path: Path | None, as_json: bool):
    text = json.dumps(obj, indent=2, sort_keys=True)
    if path is not None:
        path.write_text(text + "\n")
    if as_json or path is None:
        print(text)


def _read_document(path: str, build, key: str):
    """build(the JSON document in path).

    A document that build cannot read, because it lacks a key or is not
    a JSON object, raises ValueError naming path and the key.
    """
    with open(path) as fh:
        data = json.load(fh)
    try:
        return build(data)
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc.args[0]!r}") from None
    except TypeError as exc:
        raise ValueError(f"{path}: malformed document ({exc}); expected a "
                         f"JSON object with key {key!r}") from None


def _load_input(args) -> WeierstrassData:
    def build(data):
        if "conf_tol" in args.tol:
            data["conf_tol"] = args.tol["conf_tol"]
        return WeierstrassData.from_json_dict(data)

    return _read_document(args.input, build, "fprime")


def _load_params(path: str) -> deformation.PerturbParams:
    return _read_document(path, deformation.PerturbParams.from_json_dict, "A")


def _orientation(args) -> int:
    return +1 if args.orientation == "+" else -1


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_analyze(args) -> int:
    w = _load_input(args)
    bps = branch_points(w)
    report = {
        "orders": [None if o is math.inf else int(o) for o in w.orders],
        "N": w.N,
        "branch_points": [[b.real, b.imag] for b in bps],
        "conformality_residual": w.conformality_residual(),
    }
    def fmt(g):
        if g is None:
            return "undefined (degenerate chart)"
        return "inf" if g.at_infinity else [g.value.real, g.value.imag]

    gauss = []
    for z in (0.3, 0.3j, -0.3, 0.2 + 0.2j):
        try:
            gp, gm = map(fmt, gauss_maps(w, z))
        except IndeterminateGauss:
            # no tangent plane at a branch point, so neither coordinate
            gp = gm = "undefined (branch point)"
        gauss.append({"z": [z.real, z.imag],
                      "gamma_plus": gp, "gamma_minus": gm})
    report["gauss_samples"] = gauss
    ring = 0.01 * np.exp(2j * np.pi * np.arange(32) / 32)
    report["symplectic_min_plus"] = float(symplectic_positivity(w, ring, +1).min())
    report["symplectic_min_minus"] = float(symplectic_positivity(w, ring, -1).min())

    out = Path(args.out_dir) / "analyze.json" if args.out_dir else None
    if out:
        out.parent.mkdir(parents=True, exist_ok=True)
    _dump(report, out, args.json)
    if not args.json:
        bp_text = ", ".join(f"{b:.4g}" for b in bps) if bps else "none"
        print(f"N={w.N} orders={report['orders']} branch_points=[{bp_text}] "
              f"conf_residual={report['conformality_residual']:.2e}",
              file=sys.stderr)
    return 0


def cmd_deform(args) -> int:
    w = _load_input(args)
    p = deformation.sample_generic(w, args.t, args.seed,
                                   orientation=_orientation(args))
    fm = deformation.build_family_member(w, p)
    ring = 0.3 * np.exp(2j * np.pi * np.arange(100) / 100)
    residual = deformation.gauss_invariance_residual(fm, ring)
    member = fm.to_json_dict()
    member["gauss_invariance_residual"] = residual
    out_dir = Path(args.out_dir or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "params.json").write_text(
        json.dumps(p.to_json_dict(), indent=2, sort_keys=True) + "\n")
    _dump(member, out_dir / "member.json", args.json)
    if not args.json:
        print(f"gauss invariance residual: {residual:.3e}", file=sys.stderr)
    return 0


def cmd_double_points(args) -> int:
    w = _load_input(args)
    if args.params:
        fm = deformation.build_family_member(w, _load_params(args.params))
        w = fm.deformed
    dps = intersect.find_double_points(w, radius=args.radius,
                                       grid_n=args.grid_n,
                                       newton_tol=args.tol.get("newton_tol", 1e-12))
    payload = [dp.to_json_dict() for dp in dps]
    out = Path(args.out_dir) / "double_points.json" if args.out_dir else None
    if out:
        out.parent.mkdir(parents=True, exist_ok=True)
    _dump(payload, out, args.json)
    if not args.json:
        print(f"double points: {len(dps)}", file=sys.stderr)
    return 0


def cmd_knot(args) -> int:
    w = _load_input(args)
    if args.params:
        fm = deformation.build_family_member(w, _load_params(args.params))
        w = fm.deformed
    # the scan returns the slice it accepted, so it is traced only once
    k = (knot.trace_slice(w, args.eta) if args.eta is not None
         else knot.select_eta(w))
    b = knot.braid_from_knot(k)
    e = knot.algebraic_crossing_number(b)
    lk = knot.linking_number_gauss(k)
    report = {
        "eta": k.eta,
        "n_strands": b.n_strands,
        "crossing_sum": e,
        "linking_gauss": lk,
        "self_linking": knot.self_linking(e, b.n_strands),
        "margin_plus": knot.contact_transversality_margin(k, +1),
        "margin_minus": knot.contact_transversality_margin(k, -1),
        "samples": int(k.samples.shape[0]),
    }
    out_dir = Path(args.out_dir or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "knot.csv", "w", newline="") as fh:
        k.to_csv(fh)
    (out_dir / "braid.json").write_text(
        json.dumps(b.to_json_dict(), indent=2, sort_keys=True) + "\n")
    _dump(report, out_dir / "knot_report.json", args.json)
    if not args.json:
        print(f"winding={b.n_strands} e={e} gauss={lk:.3f}", file=sys.stderr)
    return 0


def cmd_verify(args) -> int:
    w = _load_input(args)
    if args.params:
        p = _load_params(args.params)
    elif args.t is not None and w.N > 1:
        p = deformation.sample_generic(w, args.t, args.seed,
                                       orientation=_orientation(args))
    else:
        p = None
    try:
        report = knot.verify_double_point_formula(
            w, p, args.eta, radius=args.radius, grid_n=args.grid_n)
    except FormulaViolation as exc:
        if exc.report is not None:
            r = exc.report
            print(f"D={r.D} e={r.e} N={r.N} VIOLATION: {exc.args[0]}")
        raise
    print(f"D={report.D} e={report.e} N={report.N} sl={report.sl} OK")
    if args.out_dir:
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        _dump(report.to_json_dict(), out_dir / "verify.json", args.json)
    elif args.json:
        _dump(report.to_json_dict(), None, True)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

# the tolerance names each subcommand reads
_TOL_NAMES = {
    "analyze": ("conf_tol",),
    "deform": ("conf_tol",),
    "double-points": ("conf_tol", "newton_tol"),
    "knot": ("conf_tol",),
    "verify": ("conf_tol",),
}


def _parse_tol(items, command: str) -> dict:
    names = _TOL_NAMES[command]
    out = {}
    for item in items or []:
        name, _, value = item.partition("=")
        key = name.replace("-", "_")
        if key not in names:
            raise ValueError(f"unknown tolerance {name!r} for {command}; "
                             f"accepted: {', '.join(names)}")
        v = float(value)
        if not (math.isfinite(v) and v > 0):
            raise ValueError(f"tolerance {name} must be finite and positive")
        out[key] = v
    return out


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="branchknot", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, summary, eta=False, sampling=False, params=False,
                region=False):
        # no prefix matching: "--t" must not be read as "--tol" where the
        # subcommand has no "--t"
        p = sub.add_parser(name, help=summary, allow_abbrev=False)
        p.add_argument("--input", required=True, help="map data JSON file")
        p.add_argument("--out-dir", default=None, help="directory for output files")
        p.add_argument("--json", action="store_true",
                       help="print the JSON report to stdout")
        p.add_argument("--tol", action="append", metavar="NAME=VALUE",
                       help="tolerance override, NAME one of "
                            f"{', '.join(_TOL_NAMES[name])} (repeatable)")
        if eta:
            p.add_argument("--eta", type=float, default=None,
                           help="slice radius (auto-scan when omitted)")
        if sampling:
            p.add_argument("--t", type=float, default=None,
                           help="perturbation scale")
            p.add_argument("--seed", type=int, default=1, help="sampler seed")
            p.add_argument("--orientation", choices=["+", "-"], default="+")
        if params:
            p.add_argument("--params", default=None,
                           help="explicit parameter JSON; the command runs "
                                "on that family member")
        if region:
            p.add_argument("--radius", type=float, default=0.5,
                           help="double-point search radius")
            p.add_argument("--grid-n", type=int, default=48,
                           help="seeding grid resolution")

    command("analyze", "validate and summarize input data")
    command("deform", "sample generic perturbation parameters", sampling=True)
    command("double-points", "locate self-intersections", params=True,
            region=True)
    command("knot", "trace the sphere slice and braid it", eta=True,
            params=True)
    command("verify", "check 2D = e - (N-1) end to end", eta=True,
            sampling=True, params=True, region=True)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.tol = _parse_tol(args.tol, args.command)
        if args.command == "deform" and args.t is None:
            raise SamplingExhausted("deform requires --t > 0")
        handler = {
            "analyze": cmd_analyze,
            "deform": cmd_deform,
            "double-points": cmd_double_points,
            "knot": cmd_knot,
            "verify": cmd_verify,
        }[args.command]
        return handler(args)
    except Exception as exc:
        for classes, code in _ERROR_CODES:
            if isinstance(exc, classes):
                # an OSError's args[0] is its errno; its str names the file
                msg = (exc.args[0] if exc.args and not isinstance(exc, OSError)
                       else exc)
                print(f"{type(exc).__name__}: {msg}", file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
