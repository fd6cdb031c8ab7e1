"""Command-line front end.

Subcommands mirror the pipeline stages:

  analyze        validate input data, print orders/branch/plane geometry
  deform         sample generic parameters, build and save a family member
  double-points  locate self-intersections of the (possibly perturbed) map
  knot           trace the sphere slice, emit CSV polyline + braid JSON
  verify         run the full double-point / crossing-number identity check

The numerical tolerances are constants of their modules; the input's
conf_tol (default 1e-10) is the one a user sets.  Double-point seeds
are all pairs of a disk grid grid-n // 4 points across.

Exit codes: 0 success; each failure class in branchknot.errors declares
its own as exit_code, directly or through its group:
  2  input validation failure (InputError, ValueError, OSError): a file that
     cannot be read or written or is not UTF-8 JSON text, a document that
     is not a JSON object or lacks a key, a tangent plane or Gauss map
     asked for at a branch point, a grid-n below 28, a double-points radius
     outside (0, 0.9], a conf_tol or eta not finite and > 0, a conf_tol or
     t that is not a finite number (a boolean, a string or null included),
     a t outside [0, 1], a negative --seed, and a coefficient that is not
     finite included
  3  sampling exhausted (SamplingExhausted; --t missing or not in (0, 1]),
     and a base with a branch point other than 0 in the unit disk
     (SecondBranchPoint)
  4  identity violation (FormulaViolation)
  5  slicing/braiding failure (SliceFailure; a slice whose strands meet,
     SliceNotEmbedded, crossing-count routes that disagree,
     CrossingRoutesDisagree, and a verify slice whose disk passes
     |z| = 0.9, SliceBeyondSearchLimit, included)
  6  the two Gauss-map routes disagree (GaussCrossCheckFailure)
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
    BranchknotError,
    FormulaViolation,
    IndeterminateGauss,
    InputError,
)
from .weierstrass import WeierstrassData, branch_points, gauss_maps, symplectic_positivity


def _dump(obj, path: Path | None, as_json: bool):
    text = json.dumps(obj, indent=2, sort_keys=True)
    if path is not None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text + "\n")
    if as_json or path is None:
        print(text)


def _read_document(path: str, build, key: str):
    """build(the JSON document in path).

    A file that is not UTF-8 JSON text raises ValueError naming path; a
    document that is not a JSON object raises ValueError naming path and
    the key build needs; one that lacks a key, or has a value that build
    refuses, raises ValueError naming path.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:
            # JSONDecodeError and UnicodeDecodeError, which name no file
            raise ValueError(f"{path}: not UTF-8 JSON text: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object with key {key!r}, "
                         f"got {type(data).__name__}")
    try:
        return build(data)
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc.args[0]!r}") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _load_input(args) -> WeierstrassData:
    return _read_document(args.input, WeierstrassData.from_json_dict, "fprime")


def _load_params(path: str) -> deformation.PerturbParams:
    return _read_document(path, deformation.PerturbParams.from_json_dict, "A")


def _load_map(args) -> WeierstrassData:
    """The --input map, or with --params its family member."""
    w = _load_input(args)
    if args.params:
        return deformation.build_family_member(w, _load_params(args.params)).deformed
    return w


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
        return "undefined (degenerate chart)" if g is None else g.tolist()

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
    _dump(report, out, args.json)
    if not args.json:
        bp_text = ", ".join(f"{b:.4g}" for b in bps) if bps else "none"
        print(f"N={w.N} orders={report['orders']} branch_points=[{bp_text}] "
              f"conf_residual={report['conformality_residual']:.2e}",
              file=sys.stderr)
    return 0


def cmd_deform(args) -> int:
    fm = deformation.sample_generic(_load_input(args), args.t, args.seed,
                                    orientation=_orientation(args))
    ring = 0.3 * np.exp(2j * np.pi * np.arange(100) / 100)
    residual = deformation.gauss_invariance_residual(fm, ring)
    member = fm.to_json_dict()
    member["gauss_invariance_residual"] = residual
    out_dir = Path(args.out_dir or ".")
    _dump(fm.params.to_json_dict(), out_dir / "params.json", False)
    _dump(member, out_dir / "member.json", args.json)
    if not args.json:
        print(f"gauss invariance residual: {residual:.3e}", file=sys.stderr)
    return 0


def cmd_double_points(args) -> int:
    dps = intersect.find_double_points(_load_map(args), radius=args.radius,
                                       grid_n=args.grid_n)
    payload = [dp.to_json_dict() for dp in dps]
    out = Path(args.out_dir) / "double_points.json" if args.out_dir else None
    _dump(payload, out, args.json)
    if not args.json:
        print(f"double points: {len(dps)}", file=sys.stderr)
    return 0


def cmd_knot(args) -> int:
    k, b, e, lk = knot.read_slice(_load_map(args), args.eta)
    report = {
        "eta": k.eta,
        "n_strands": b.n_strands,
        "crossing_sum": e,
        "linking_gauss": lk,
        "self_linking": e - b.n_strands,
        "margin_plus": knot.contact_transversality_margin(k, +1),
        "margin_minus": knot.contact_transversality_margin(k, -1),
        "samples": int(k.samples.shape[0]),
    }
    out_dir = Path(args.out_dir or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "knot.csv", "w", newline="") as fh:
        k.to_csv(fh)
    _dump(b.to_json_dict(), out_dir / "braid.json", False)
    _dump(report, out_dir / "knot_report.json", args.json)
    if not args.json:
        print(f"winding={b.n_strands} e={e} gauss={knot._gauss_text(lk)}",
              file=sys.stderr)
    return 0


def cmd_verify(args) -> int:
    w = _load_input(args)
    if args.params:
        fm = deformation.build_family_member(w, _load_params(args.params))
    elif w.N > 1:
        fm = deformation.sample_generic(w, args.t, args.seed,
                                        orientation=_orientation(args))
    else:
        fm = None
    base, deformed = (w, None) if fm is None else (fm.base, fm.deformed)
    try:
        report = knot.verify_double_point_formula(base, deformed, args.eta,
                                                  grid_n=args.grid_n)
    except FormulaViolation as exc:
        # a violating report is written and printed like a passing one
        if exc.report is not None:
            r = exc.report
            print(f"D={r.D} e={r.e} N={r.N} VIOLATION: {exc.args[0]}")
            _write_verify_report(r, args)
        raise
    print(f"D={report.D} e={report.e} N={report.N} sl={report.sl} OK")
    _write_verify_report(report, args)
    return 0


def _write_verify_report(report, args) -> None:
    out = Path(args.out_dir) / "verify.json" if args.out_dir else None
    if out or args.json:
        _dump(report.to_json_dict(), out, args.json)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="branchknot", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, summary, eta=False, sampling=False, params=False,
                grid=False):
        # no prefix matching: an abbreviation would stop working, or change
        # meaning, when a later option shares its prefix
        p = sub.add_parser(name, help=summary, allow_abbrev=False)
        p.add_argument("--input", required=True, help="map data JSON file")
        p.add_argument("--out-dir", default=None, help="directory for output files")
        p.add_argument("--json", action="store_true",
                       help="print the JSON report to stdout")
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
        if grid:
            p.add_argument("--grid-n", type=int, default=48,
                           help="seeds are all pairs of a disk grid "
                                "GRID_N // 4 points across (at least 28)")
        return p

    command("analyze", "validate and summarize input data")
    command("deform", "sample generic perturbation parameters", sampling=True)
    command("double-points", "locate self-intersections", params=True,
            grid=True).add_argument("--radius", type=float, default=0.5,
                                    help="double-point search radius")
    command("knot", "trace the sphere slice and braid it", eta=True,
            params=True)
    command("verify", "check 2D = e - (N-1) end to end", eta=True,
            sampling=True, params=True, grid=True)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        handler = {
            "analyze": cmd_analyze,
            "deform": cmd_deform,
            "double-points": cmd_double_points,
            "knot": cmd_knot,
            "verify": cmd_verify,
        }[args.command]
        return handler(args)
    except (BranchknotError, ValueError, OSError) as exc:
        # an OSError's args[0] is its errno; its str names the file
        msg = exc.args[0] if exc.args and not isinstance(exc, OSError) else exc
        print(f"{type(exc).__name__}: {msg}", file=sys.stderr)
        # a ValueError or OSError is an input failure
        return getattr(exc, "exit_code", InputError.exit_code)


if __name__ == "__main__":
    sys.exit(main())
