"""Sphere slices of a minimal disk and their braid/linking invariants.

The image of a small disk around a branch point meets the sphere of
radius eta in a closed curve; rescaled to the unit 3-sphere it is a knot
braided around the great circle {x1 = x2 = 0}, with one strand per local
sheet.  Since |F| ~ |z|^N near the branch point, the curve's preimage in
the parameter disk meets each ray from 0 once; this module finds it on
2048 rays at once, presents the knot as a braid over the fiber angle
arg(x1 + i x2), and computes the signed crossing count two independent
ways: directly from the braid diagram, whose strands are evaluated at
the fiber angles of the samples themselves, so the count is exact for
the traced polygon, and as a linking number with a pushoff copy, an
exact solid-angle sum over two polygons after stereographic projection,
with polygons sized from the pushoff clearance.  The two routes share
only the slice samples.

Crossing sign convention (fixed project-wide, right-handed): a crossing
where the chord between the two strands rotates counterclockwise in the
fiber plane counts +1.  The pushoff for the linking route displaces every
sample in one fixed direction of the (x3,x4)-plane, which reproduces the
diagram framing; displacing radially instead would add the fiber winding
of the strands to the count.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from . import _kernels
from .deformation import PerturbParams, build_family_member
from .errors import (
    BranchOnSlice,
    FormulaViolation,
    NonMonotoneFiberAngle,
    ProjectionPoleOnCurve,
    PushoffCollision,
    TraceFailure,
)
from .intersect import find_double_points, is_transverse
from .weierstrass import WeierstrassData, branch_points, evaluate_F, jacobian

__all__ = ["KnotCurve", "BraidDiagram", "trace_slice", "braid_from_knot",
           "algebraic_crossing_number",
           "linking_number_gauss", "self_linking",
           "contact_transversality_margin", "select_eta",
           "verify_double_point_formula", "orientation_identity_report",
           "VerifyReport"]


@dataclass(frozen=True)
class KnotCurve:
    """One closed polyline on the unit 3-sphere with its disk preimages.

    Sample i lies over the ray at angle 2 pi i / len(samples), so the
    loop runs counterclockwise around the origin of the disk and is
    stored once, without repeating its first point.
    """

    samples: np.ndarray
    preimages: np.ndarray
    eta: float

    def fiber_angles(self) -> np.ndarray:
        return np.angle(self.samples[:, 0] + 1j * self.samples[:, 1])

    def to_csv(self, fh) -> None:
        """Columns: theta, x1..x4, z_re, z_im (theta = fiber angle)."""
        writer = csv.writer(fh)
        writer.writerow(["theta", "x1", "x2", "x3", "x4", "z_re", "z_im"])
        th = self.fiber_angles()
        for i in range(self.samples.shape[0]):
            writer.writerow([f"{th[i]:.12g}",
                             *(f"{x:.15g}" for x in self.samples[i]),
                             f"{self.preimages[i].real:.15g}",
                             f"{self.preimages[i].imag:.15g}"])


@dataclass(frozen=True)
class BraidDiagram:
    """Strand count and crossings of the slice's braid.

    Each crossing is (theta, strand_i, strand_j, sign), sorted by the fiber
    angle theta in [0, 2 pi).
    """

    n_strands: int
    crossings: tuple

    def to_json_dict(self) -> dict:
        return {"n_strands": self.n_strands,
                "crossings": [{"theta": float(t), "strand_i": int(i),
                               "strand_j": int(j), "sign": int(s)}
                              for t, i, j, s in self.crossings]}


# ---------------------------------------------------------------------------
# level-set tracing
# ---------------------------------------------------------------------------

_LOOP_SAMPLES = 2048
# radii of the scan that brackets the crossing on every ray
_SCAN_RADII = np.linspace(1e-6, 0.95, 64)
_BISECTIONS = 60


def trace_slice(w: WeierstrassData, eta: float) -> KnotCurve:
    """Trace {z : |F(z)| = eta} as a radial graph over _LOOP_SAMPLES rays.

    Near a branch point |F| ~ |z|^N, so the slice meets each ray from the
    origin once.  Each ray is scanned on the _SCAN_RADII grid, one radius
    at a time over all rays, and its bracket is refined by _BISECTIONS
    array bisection steps; the samples are F(z)/|F(z)| at the roots, in
    counterclockwise order of their rays.  The radial-graph property is
    certified on every ray: the scan starts below eta, crosses it once
    and never comes back below it, and d|F|^2/dr > 0 at the root.

    Raises ValueError unless eta is finite and > 0, BranchOnSlice if a
    branch value sits near the slicing sphere, and TraceFailure if some
    ray never crosses eta or the slice is not a radial graph.
    """
    eta = float(eta)
    if not (math.isfinite(eta) and eta > 0):
        raise ValueError(f"slice radius eta must be finite and > 0, got {eta}")
    for bp in branch_points(w):
        if abs(np.linalg.norm(evaluate_F(w, bp)) - eta) < 0.05 * eta:
            raise BranchOnSlice(f"branch value within 5% of the sphere at z={bp}")

    dirs = np.exp(2j * math.pi * np.arange(_LOOP_SAMPLES) / _LOOP_SAMPLES)
    crossed = np.zeros(_LOOP_SAMPLES, bool)
    back = np.zeros(_LOOP_SAMPLES, bool)
    hi = np.zeros(_LOOP_SAMPLES, int)
    for j, r in enumerate(_SCAN_RADII):
        above = np.linalg.norm(evaluate_F(w, r * dirs), axis=1) >= eta
        if j == 0 and above.any():
            raise TraceFailure(f"|F| >= {eta} at the start of the ray scan")
        hi[above & ~crossed] = j
        back |= crossed & ~above
        crossed |= above
    if not crossed.all():
        raise TraceFailure(f"level set |F| = {eta} not found on every ray")
    if back.any():
        raise TraceFailure(f"level set |F| = {eta} is not a radial graph: a ray "
                           f"at angle {np.angle(dirs[np.argmax(back)]):.4f} "
                           "crosses it more than once")

    a, b = _SCAN_RADII[hi - 1], _SCAN_RADII[hi]
    for _ in range(_BISECTIONS):
        mid = 0.5 * (a + b)
        inside = np.linalg.norm(evaluate_F(w, mid * dirs), axis=1) < eta
        a = np.where(inside, mid, a)
        b = np.where(inside, b, mid)
    pre = 0.5 * (a + b) * dirs
    F = evaluate_F(w, pre)
    fx, fy = jacobian(w, pre)
    slope = np.einsum("ij,ij->i", F, dirs.real[:, None] * fx + dirs.imag[:, None] * fy)
    if not np.all(slope > 0):
        raise TraceFailure(f"level set |F| = {eta} is not a radial graph: "
                           "d|F|/dr <= 0 at a root")
    samples = F / np.linalg.norm(F, axis=1, keepdims=True)
    return KnotCurve(samples=samples, preimages=pre, eta=eta)


# ---------------------------------------------------------------------------
# braid presentation
# ---------------------------------------------------------------------------

def _closed_fiber_angles(q: np.ndarray) -> np.ndarray:
    th = np.angle(q[:, 0] + 1j * q[:, 1])
    th = np.append(th, th[0])
    return np.unwrap(th)


def braid_from_knot(k: KnotCurve) -> BraidDiagram:
    """Present the slice as a braid over the fiber angle.

    The loop is cut into N strands, one per turn of its unwrapped fiber
    angle, and every strand is evaluated at the fiber angles of all the
    samples, taken mod 2 pi.  Between two of those angles each strand is
    linear, so every exchange of real-part order is found and the crossing
    sum is exact for the traced polygon; each crossing is signed by the
    rotation sense of the chord.  Raises NonMonotoneFiberAngle when the
    fiber angle is not strictly monotone along the loop (the slice is not
    braided at this radius).
    """
    q = k.samples
    th = _closed_fiber_angles(q)
    total = th[-1] - th[0]
    if total < 0:
        q = q[::-1]
        th = _closed_fiber_angles(q)
        total = th[-1] - th[0]
    d = np.diff(th)
    if np.any(d <= 0) or np.max(d) > 0.5 * math.pi:
        raise NonMonotoneFiberAngle(
            "fiber angle not strictly monotone along the slice")
    n = int(round(total / (2.0 * math.pi)))
    if n < 1 or abs(total - 2.0 * math.pi * n) > 0.01:
        raise NonMonotoneFiberAngle(
            f"fiber winding {total / (2 * math.pi):.4f} is not a positive integer")

    wf = q[:, 2] + 1j * q[:, 3]
    wf = np.append(wf, wf[0])
    base = th[0]
    grid = base + np.append(np.unique(np.mod(th[:-1] - base, 2.0 * math.pi)),
                            2.0 * math.pi)
    strands = [np.interp(grid + 2.0 * math.pi * s, th, wf) for s in range(n)]
    # the wrap value is the next strand's first one, bit for bit, so that a
    # crossing at the base angle is seen once, by one of the two strand pairs
    for s in range(n):
        strands[s][-1] = strands[(s + 1) % n][0]

    crossings = []
    for a in range(n):
        for b in range(a + 1, n):
            c = strands[a] - strands[b]
            re, im = c.real, c.imag
            # a zero counts as positive, so that a chord crossing exactly at
            # a sample angle (a symmetric slice) gives one flip, not none
            flips = np.nonzero((re[:-1] < 0) != (re[1:] < 0))[0]
            for j in flips:
                frac = re[j] / (re[j] - re[j + 1])
                imx = im[j] + frac * (im[j + 1] - im[j])
                dre = re[j + 1] - re[j]
                # counterclockwise chord rotation counts +1
                sign = 1 if imx * dre < 0 else -1
                theta = float((grid[j] + frac * (grid[j + 1] - grid[j]))
                              % (2.0 * math.pi))
                crossings.append((theta, a, b, sign))
    crossings.sort(key=lambda t: t[0])
    return BraidDiagram(n_strands=n, crossings=tuple(crossings))


def algebraic_crossing_number(b: BraidDiagram) -> int:
    """Signed crossing sum of the braid diagram."""
    return int(sum(c[3] for c in b.crossings))


def self_linking(e: int, N: int) -> int:
    """Transverse self-linking number from the crossing sum and strand count."""
    return int(e) - int(N)


# ---------------------------------------------------------------------------
# linking number by Gauss double sum
# ---------------------------------------------------------------------------

# first polygon size of the Gauss sum; it doubles until the polygons fit
_GAUSS_START = 150


def _chord_polygon(path: np.ndarray, n: int):
    """n vertices of the closed polyline path, evenly spaced by index, and
    the largest distance of a vertex of path from the chord over it."""
    m = len(path)
    idx = np.arange(n) * m // n
    i = np.searchsorted(idx, np.arange(m), side="right") - 1
    a = path[idx[i]]
    ab = path[np.roll(idx, -1)[i]] - a
    ap = path - a
    u = np.einsum("ij,ij->i", ap, ab) / np.maximum(np.einsum("ij,ij->i", ab, ab), 1e-300)
    dev = np.linalg.norm(ap - np.clip(u, 0.0, 1.0)[:, None] * ab, axis=1)
    return path[idx], float(dev.max())


def _min_strand_gap(k: KnotCurve) -> float:
    """Least (x3,x4)-distance between distinct sheets at equal fiber angle.

    The sheets are the turns of the unwrapped fiber angle; each sample is
    compared with the other sheets at its own angle.  inf when there is one
    sheet, or when the fiber angle is not strictly monotone with integer
    winding, so that the sheets are not defined.
    """
    q = k.samples
    fiber = q[:, 0] + 1j * q[:, 1]
    th = np.unwrap(np.angle(np.append(fiber, fiber[0])))
    th = th * np.sign(th[-1] - th[0])
    total = th[-1] - th[0]
    n = int(round(total / (2.0 * math.pi)))
    if (n < 2 or abs(total - 2.0 * math.pi * n) > 0.01
            or np.any(np.diff(th) <= 0)):
        return math.inf
    th = th[:-1]
    wf = q[:, 2] + 1j * q[:, 3]
    return min(float(np.min(np.abs(
        wf - np.interp(th + 2.0 * math.pi * s, th, wf, period=total))))
        for s in range(1, n))


def _orthonormal_frame(p: np.ndarray) -> np.ndarray:
    """Completion (e1, e2, e3) of the unit vector p to a basis of R^4.

    det[p, e1, e2, e3] is fixed to -1 so that projecting from pole p
    preserves the sphere's outward orientation (the chart is centered at
    the antipode -p, where the outward normal is -p); the Gauss double
    sum downstream then agrees in sign with the braid convention.
    """
    cols = [p]
    for k in range(4):
        v = np.zeros(4)
        v[k] = 1.0
        for u in cols:
            v = v - (v @ u) * u
        nv = np.linalg.norm(v)
        if nv > 1e-6:
            cols.append(v / nv)
        if len(cols) == 4:
            break
    M = np.stack(cols, axis=1)
    if np.linalg.det(M) > 0:
        M[:, 3] = -M[:, 3]
    return M[:, 1:]


def _stereographic(x: np.ndarray, pole: np.ndarray, frame: np.ndarray) -> np.ndarray:
    denom = 1.0 - x @ pole
    return (x @ frame) / denom[:, None]


def linking_number_gauss(k: KnotCurve,
                         pushoff_delta: float | None = None) -> float:
    """Linking number of the slice with its diagram-framing pushoff.

    The pushoff displaces every sample by delta (by default a quarter of
    the least gap between sheets, measured here from the samples, not from
    the braid) in one fixed direction of the (x3,x4)-plane (chosen among a
    few candidates for maximal clearance) and renormalizes to the sphere.  Both curves are then
    projected stereographically from a pole far from both, and the Gauss
    sum is taken over the solid angles of segment pairs, which is the exact
    linking number of two polygons (Banchoff 1976).  So the polygons need
    only link as the curves do: each keeps _GAUSS_START of its samples,
    doubled until every sample of both projected curves lies within half
    their clearance (the least distance between their samples) of the
    chord over it.  With all samples kept that deviation is 0, so the rule
    fails there only on curves that touch, and then PushoffCollision is
    raised.
    """
    q = k.samples

    if pushoff_delta is None:
        gap = _min_strand_gap(k)
        pushoff_delta = 0.05 if not math.isfinite(gap) else 0.25 * gap
    delta = float(pushoff_delta)

    tree = cKDTree(q)
    best = None
    for beta in np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False):
        disp = np.zeros(4)
        disp[2], disp[3] = math.cos(beta), math.sin(beta)
        cand = q + delta * disp
        cand /= np.linalg.norm(cand, axis=1, keepdims=True)
        clearance = float(tree.query(cand)[0].min())
        if best is None or clearance > best[0]:
            best = (clearance, cand)
    clearance, qhat = best
    if clearance < 0.1 * delta:
        raise PushoffCollision(
            f"pushoff clearance {clearance:.2e} too small for delta={delta:.2e}")

    rng = np.random.default_rng(7)
    poles = rng.standard_normal((256, 4))
    poles /= np.linalg.norm(poles, axis=1, keepdims=True)
    both = np.vstack([q, qhat])
    btree = cKDTree(both)
    dists = btree.query(poles)[0]
    pole = poles[int(np.argmax(dists))]
    if dists.max() < 0.05:
        raise ProjectionPoleOnCurve("no pole with adequate clearance")

    frame = _orthonormal_frame(pole)
    P = _stereographic(q, pole, frame)
    Q = _stereographic(qhat, pole, frame)
    clearance = float(cKDTree(P).query(Q)[0].min())
    n = _GAUSS_START
    while True:
        n = min(n, len(q))
        (Pn, dev_p), (Qn, dev_q) = _chord_polygon(P, n), _chord_polygon(Q, n)
        if max(dev_p, dev_q) < 0.5 * clearance:
            return float(_kernels.linking_sum(Pn, Qn))
        if n == len(q):
            raise PushoffCollision(
                f"a {n}-point polygon deviates {max(dev_p, dev_q):.2e} from the "
                f"slice, not below half the pushoff clearance {clearance:.2e}")
        n *= 2


# ---------------------------------------------------------------------------
# contact transversality
# ---------------------------------------------------------------------------

def contact_transversality_margin(k: KnotCurve, orientation: int) -> float:
    """min |<tangent, J q>| / |tangent| over all samples (unit q).

    J is the orthogonal complex structure attached to the branch-point
    tangent plane: for orientation +1 it rotates both coordinate planes by
    +90 degrees, for -1 the second plane by -90.  A strictly positive
    margin certifies the slice transverse to the associated contact
    planes.
    """
    q = k.samples
    gam = np.roll(q, -1, axis=0) - np.roll(q, 1, axis=0)
    if orientation >= 0:
        jq = np.stack([-q[:, 1], q[:, 0], -q[:, 3], q[:, 2]], axis=1)
    else:
        jq = np.stack([-q[:, 1], q[:, 0], q[:, 3], -q[:, 2]], axis=1)
    num = np.abs(np.einsum("ij,ij->i", gam, jq))
    return float(np.min(num / np.linalg.norm(gam, axis=1)))


# ---------------------------------------------------------------------------
# eta selection and the verification pipeline
# ---------------------------------------------------------------------------

def select_eta(w: WeierstrassData, start: float = 0.1,
               min_eta: float = 1e-5) -> KnotCurve:
    """Scan eta downward by halving until the slice braids on N strands.

    Accepts the first eta where the fiber angle is monotone along the slice
    and its winding is N, and returns that slice; its `eta` is the accepted
    radius.  When no radius down to min_eta is accepted, the TraceFailure
    names every eta tried and what rejected it.
    """
    rejected = []
    eta = start
    while eta >= min_eta:
        try:
            k = trace_slice(w, eta)
            n = braid_from_knot(k).n_strands
            if n == w.N:
                return k
            rejected.append(f"{eta!r} (winding {n} != N = {w.N})")
        except (TraceFailure, NonMonotoneFiberAngle, BranchOnSlice) as exc:
            rejected.append(f"{eta!r} ({type(exc).__name__})")
        eta *= 0.5
    raise TraceFailure(f"no workable slice radius found above {min_eta}; "
                       f"tried eta = {', '.join(rejected)}")


@dataclass
class VerifyReport:
    """Everything the double-point identity check produced."""

    N: int
    D: int
    D_total: int
    e: int
    e_gauss: float
    sl: int
    identity_ok: bool
    margins_base: dict = field(default_factory=dict)
    e_deformed: int | None = None
    isotopy_ok: bool | None = None
    eta: float = 0.0
    double_points: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "N": self.N, "D": self.D, "D_total": self.D_total,
            "e": self.e, "e_gauss": self.e_gauss, "sl": self.sl,
            "identity_ok": self.identity_ok,
            "margins_base": {str(k): v for k, v in self.margins_base.items()},
            "e_deformed": self.e_deformed,
            "isotopy_ok": self.isotopy_ok,
            "eta": self.eta,
            "double_points": [dp.to_json_dict() for dp in self.double_points],
            "notes": self.notes,
        }


def verify_double_point_formula(w_base: WeierstrassData,
                                p: PerturbParams | None,
                                eta: float | None = None,
                                radius: float = 0.5,
                                grid_n: int = 48) -> VerifyReport:
    """Count double points, compute knot invariants, check 2D = e - (N-1).

    D counts the double points of the perturbed map whose image lies
    inside the eta-ball; e and N come from the base map's slice at eta;
    the perturbed map is re-sliced to confirm the crossing sum is
    unchanged.  With eta=None the radius is the one select_eta accepts on
    the base map, and the slice it returns is the base slice.  With p=None
    the base map itself is used (it must then be an immersion), which
    covers unbranched control data.

    Raises FormulaViolation (with the report attached, the message as its
    last note) when the identity fails, when the two crossing-count routes
    disagree (the Gauss sum is not within 1e-6 of the braid's integer), or
    when the perturbed slice changes its crossing sum.
    """
    notes = []
    deformed = w_base
    if p is not None:
        fm = build_family_member(w_base, p)
        deformed = fm.deformed

    dps = find_double_points(deformed, radius=radius, grid_n=grid_n)
    if any(abs(dp.z1) > 0.9 * radius or abs(dp.z2) > 0.9 * radius
           for dp in dps) and radius * 1.5 <= 0.85:
        notes.append(f"double point near search boundary; enlarged radius to "
                     f"{radius * 1.5}")
        dps = find_double_points(deformed, radius=radius * 1.5, grid_n=grid_n)

    k_base = select_eta(w_base) if eta is None else trace_slice(w_base, eta)
    eta = k_base.eta
    in_ball = [dp for dp in dps if np.linalg.norm(dp.image) < eta]
    D = len(in_ball)

    b = braid_from_knot(k_base)
    e = algebraic_crossing_number(b)
    lk = linking_number_gauss(k_base)
    N = w_base.N
    report = VerifyReport(
        N=N, D=D, D_total=len(dps), e=e, e_gauss=lk,
        sl=self_linking(e, N),
        identity_ok=(2 * D == e - (N - 1)),
        margins_base={+1: contact_transversality_margin(k_base, +1),
                      -1: contact_transversality_margin(k_base, -1)},
        eta=eta, double_points=dps, notes=notes)

    violation = None
    if b.n_strands != N:
        violation = f"slice winding {b.n_strands} != N = {N}"
    elif abs(lk - round(lk)) > 1e-6 or int(round(lk)) != e:
        violation = f"crossing-count routes disagree: braid {e}, gauss {lk:.3f}"
    elif not report.identity_ok:
        violation = f"2D = {2 * D} differs from e - (N-1) = {e - (N - 1)}"
    elif p is not None:
        k_t = trace_slice(deformed, eta)
        report.e_deformed = algebraic_crossing_number(braid_from_knot(k_t))
        report.isotopy_ok = (report.e_deformed == e)
        if not report.isotopy_ok:
            violation = f"perturbed slice crossing sum {report.e_deformed} != {e}"
    if violation is not None:
        report.notes.append(violation)
        raise FormulaViolation(violation, report)
    return report


def orientation_identity_report(w_base: WeierstrassData, p: PerturbParams,
                                eta: float) -> dict:
    """Documented outcome for the second-orientation double-point identity.

    The sign convention tying the crossing sum to the second-orientation
    double-point count is not pinned down a priori, so this reports the
    count, the crossing sum under both sign conventions, and which (if
    either) convention satisfies 2D = (+/-)e - (N-1).  The slice is taken
    on the perturbed map: the identity's base-map hypothesis (topological
    embedding) need not hold for the inputs this is used on.
    """
    if p.orientation >= 0:
        raise ValueError("expected orientation -1 parameters")
    fm = build_family_member(w_base, p)
    dps = find_double_points(fm.deformed, radius=0.35, grid_n=40)
    in_ball = [dp for dp in dps if np.linalg.norm(dp.image) < eta]
    transverse = [dp for dp in dps if is_transverse(dp, fm.deformed)]
    D = len(in_ball)
    N = w_base.N

    k_t = trace_slice(fm.deformed, eta)
    e = algebraic_crossing_number(braid_from_knot(k_t))
    lk = linking_number_gauss(k_t)

    target = lambda ee: 2 * D == ee - (N - 1)
    plus_ok = target(e)
    minus_ok = target(-e)
    matched = {(True, True): "both", (True, False): "+",
               (False, True): "-", (False, False): "none"}[(plus_ok, minus_ok)]
    return {
        "N": N,
        "D_minus": D,
        "D_total": len(dps),
        "D_transverse": len(transverse),
        "e_right_handed": e,
        "e_reversed": -e,
        "e_gauss": lk,
        "eta": eta,
        "identity_plus_convention": plus_ok,
        "identity_minus_convention": minus_ok,
        "matched_convention": matched,
    }
