"""Sphere slices of a minimal disk and their braid/linking invariants.

The image of a small disk around a branch point meets the sphere of
radius eta in a closed curve; rescaled to the unit 3-sphere it is a knot
braided around the great circle {x1 = x2 = 0}, with one strand per local
sheet.  This module traces that curve in the parameter disk, presents it
as a braid over the fiber angle arg(x1 + i x2), and computes the signed
crossing count two independent ways: directly from the braid diagram and
as a linking number with a pushoff copy, evaluated by a Gauss double sum
after stereographic projection.

Crossing sign convention (fixed project-wide, right-handed): a crossing
where the chord between the two strands rotates counterclockwise in the
fiber plane counts +1.  The pushoff for the linking route displaces every
sample in one fixed direction of the (x3,x4)-plane, which reproduces the
diagram framing; displacing radially instead would add the fiber winding
of the strands to the count.
"""

from __future__ import annotations

import csv
import io
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
    OpenCurve,
    ProjectionPoleOnCurve,
    PushoffCollision,
    TraceFailure,
)
from .intersect import find_double_points, is_transverse
from .weierstrass import WeierstrassData, branch_points, evaluate_F, jacobian

__all__ = ["KnotCurve", "BraidDiagram", "trace_slice", "braid_from_knot",
           "algebraic_crossing_number", "stable_crossing_number",
           "linking_number_gauss", "self_linking",
           "contact_transversality_margin", "select_eta",
           "verify_double_point_formula", "orientation_identity_report",
           "VerifyReport"]


@dataclass(frozen=True)
class KnotCurve:
    """Closed polyline(s) on the unit 3-sphere with their disk preimages.

    components lists (start, stop) index ranges; each loop is stored once
    without repeating its first point.
    """

    samples: np.ndarray
    preimages: np.ndarray
    eta: float
    components: tuple

    def fiber_angles(self) -> np.ndarray:
        return np.angle(self.samples[:, 0] + 1j * self.samples[:, 1])

    def component_slices(self):
        return [slice(a, b) for a, b in self.components]

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

    def csv_text(self) -> str:
        buf = io.StringIO()
        self.to_csv(buf)
        return buf.getvalue()


@dataclass(frozen=True)
class BraidDiagram:
    """Strand positions over one turn of the fiber angle, plus crossings.

    strands[s] has len(thetas) + 1 entries; the extra column is the wrap
    value connecting strand s to strand s+1 (mod n_strands).  Each
    crossing is (theta, strand_i, strand_j, sign).
    """

    n_strands: int
    thetas: np.ndarray
    strands: tuple
    crossings: tuple

    def to_json_dict(self) -> dict:
        return {"n_strands": self.n_strands,
                "crossings": [{"theta": float(t), "strand_i": int(i),
                               "strand_j": int(j), "sign": int(s)}
                              for t, i, j, s in self.crossings]}


# ---------------------------------------------------------------------------
# level-set tracing
# ---------------------------------------------------------------------------

def _level_gradient(w: WeierstrassData, z: complex):
    """|F(z)|^2, its gradient packed as a complex number, and F(z)."""
    F = evaluate_F(w, z)
    fx, fy = jacobian(w, z)
    return float(F @ F), complex(2.0 * (F @ fx), 2.0 * (F @ fy)), F


def _seed_on_rays(w: WeierstrassData, eta: float, rays: int) -> list:
    """First crossing of |F| = eta on each of `rays` rays from the origin.

    Each ray is scanned on an 800-point radius grid, and the first bracket
    is refined by 80 bisection steps; all rays are bisected together, one
    array evaluation per step.  Rays without a bracket give no seed.
    """
    rs = np.linspace(1e-6, 0.95, 800)
    dirs = np.exp(1j * np.array([2.0 * math.pi * k / rays for k in range(rays)]))
    above = np.linalg.norm(evaluate_F(w, dirs[:, None] * rs), axis=2) >= eta
    hi = np.argmax(above, axis=1)
    live = above.any(axis=1) & (hi > 0)
    dirs, hi = dirs[live], hi[live]
    a, b = rs[hi - 1], rs[hi]
    for _ in range(80):
        mid = 0.5 * (a + b)
        F = evaluate_F(w, mid * dirs)
        # |F| from the per-row dot F[i] @ F[i], as np.linalg.norm(F[i])
        # takes it: the last steps decide on the last bit of |F|, and a
        # seed should not depend on how many rays are bisected with it
        inside = np.sqrt((F[:, None, :] @ F[:, :, None])[:, 0, 0]) < eta
        a = np.where(inside, mid, a)
        b = np.where(inside, b, mid)
    return list(0.5 * (a + b) * dirs)


def trace_slice(w: WeierstrassData, eta: float, step: float | None = None,
                rays: int = 32, trace_tol: float = 1e-12,
                target_samples: int = 2048,
                max_steps: int = 200000) -> KnotCurve:
    """Trace {z : |F(z)| = eta} by predictor-corrector continuation.

    Seeds come from radial bisection along `rays` rays from the origin;
    every seed not lying on an already-traced loop starts a new component.
    The corrector returns the level-set gradient at the point it accepts,
    and the next predictor step takes its tangent from that gradient, so
    each sample costs one `_level_gradient` call fewer.  Samples are
    mapped to the unit sphere via F(z)/|F(z)|.

    Raises BranchOnSlice if a branch value sits near the slicing sphere,
    TraceFailure if no seed exists or the corrector diverges, and
    OpenCurve if a loop fails to close within the step budget.
    """
    for bp in branch_points(w):
        if abs(np.linalg.norm(evaluate_F(w, bp)) - eta) < 0.05 * eta:
            raise BranchOnSlice(f"branch value within 5% of the sphere at z={bp}")

    seeds = _seed_on_rays(w, eta, rays)
    if not seeds:
        raise TraceFailure(f"level set |F| = {eta} not found in the disk")

    eta2 = eta * eta
    tol = trace_tol * eta2

    def correct(z: complex):
        """The point on the level set near z, and the gradient there."""
        for _ in range(20):
            f2, G, _ = _level_gradient(w, z)
            g = f2 - eta2
            if abs(g) <= tol:
                return z, G
            gn2 = abs(G) ** 2
            if gn2 < 1e-280:
                raise TraceFailure(f"vanishing level-set gradient near z={z}")
            z = z - g * G / gn2
        raise TraceFailure(f"corrector did not converge near z={z}")

    loops: list[np.ndarray] = []
    remaining = list(seeds)
    while remaining:
        z0, G = correct(remaining.pop(0))
        h = step if step is not None else 2.0 * math.pi * abs(z0) / target_samples
        pts = [z0]
        z = z0
        tau_prev = None
        closed = False
        for _ in range(max_steps):
            tau = 1j * G / abs(G)
            if tau_prev is None:
                # counterclockwise start with respect to the origin
                if (np.conj(z) * tau).imag < 0:
                    tau = -tau
            elif (np.conj(tau_prev) * tau).real < 0:
                tau = -tau
            tau_prev = tau
            z, G = correct(z + h * tau)
            if len(pts) >= 8 and abs(z - z0) < 0.75 * h:
                closed = True
                break
            pts.append(z)
        if not closed:
            raise OpenCurve(f"loop from seed {z0} did not close in "
                            f"{max_steps} steps")
        loop = np.array(pts)
        loops.append(loop)
        remaining = [s for s in remaining
                     if np.min(np.abs(loop - s)) > 2.0 * h]

    pre = np.concatenate(loops)
    comps = []
    start = 0
    for lp in loops:
        comps.append((start, start + lp.size))
        start += lp.size
    F = evaluate_F(w, pre)
    samples = F / np.linalg.norm(F, axis=1, keepdims=True)
    return KnotCurve(samples=samples, preimages=pre, eta=float(eta),
                     components=tuple(comps))


# ---------------------------------------------------------------------------
# braid presentation
# ---------------------------------------------------------------------------

def _closed_fiber_angles(q: np.ndarray) -> np.ndarray:
    th = np.angle(q[:, 0] + 1j * q[:, 1])
    th = np.append(th, th[0])
    return np.unwrap(th)


def braid_from_knot(k: KnotCurve, angles: int = 2048) -> BraidDiagram:
    """Present a single-component slice as a braid over the fiber angle.

    The loop is resampled into N strands on a uniform fiber-angle grid;
    crossings are recorded wherever two strands exchange real-part order,
    signed by the rotation sense of their chord.  Raises
    NonMonotoneFiberAngle when the fiber angle is not strictly monotone
    along the loop (the slice is not braided at this radius).
    """
    if len(k.components) != 1:
        raise ValueError("braid presentation implemented for single-component "
                         f"slices (got {len(k.components)})")
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
    grid = base + 2.0 * math.pi * np.arange(angles + 1) / angles
    strands = []
    for s in range(n):
        qs = grid + 2.0 * math.pi * s
        qs = np.minimum(qs, th[-1])  # guard the final wrap point
        re = np.interp(qs, th, wf.real)
        im = np.interp(qs, th, wf.imag)
        strands.append(re + 1j * im)

    crossings = []
    for a in range(n):
        for b in range(a + 1, n):
            c = strands[a] - strands[b]
            re, im = c.real, c.imag
            flips = np.nonzero(re[:-1] * re[1:] < 0)[0]
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
    return BraidDiagram(n_strands=n, thetas=grid[:-1] % (2.0 * math.pi),
                        strands=tuple(strands), crossings=tuple(crossings))


def algebraic_crossing_number(b: BraidDiagram) -> int:
    """Signed crossing sum of the braid diagram."""
    return int(sum(c[3] for c in b.crossings))


def stable_crossing_number(k: KnotCurve, start_angles: int = 1024,
                           max_angles: int = 32768) -> int:
    """Crossing sum at the first grid resolution stable across two doublings."""
    angles = start_angles
    values = []
    while angles <= max_angles:
        values.append(algebraic_crossing_number(braid_from_knot(k, angles)))
        if len(values) >= 3 and values[-1] == values[-2] == values[-3]:
            return values[-1]
        angles *= 2
    raise NonMonotoneFiberAngle(
        f"crossing count failed to stabilize: {values}")


def self_linking(e: int, N: int) -> int:
    """Transverse self-linking number from the crossing sum and strand count."""
    return int(e) - int(N)


# ---------------------------------------------------------------------------
# linking number by Gauss double sum
# ---------------------------------------------------------------------------

def _resample_closed(path: np.ndarray, n: int) -> np.ndarray:
    closed = np.vstack([path, path[:1]])
    seg = np.linalg.norm(np.diff(closed, axis=0), axis=1)
    s = np.concatenate([[0.0], np.cumsum(seg)])
    total = s[-1]
    targets = np.linspace(0.0, total, n, endpoint=False)
    out = np.empty((n, path.shape[1]))
    for c in range(path.shape[1]):
        out[:, c] = np.interp(targets, s, closed[:, c])
    return out


def _min_strand_gap(k: KnotCurve) -> float:
    """Smallest distance between distinct sheets over matching fiber angles."""
    try:
        b = braid_from_knot(k, angles=512)
    except (NonMonotoneFiberAngle, ValueError):
        return math.inf
    if b.n_strands < 2:
        return math.inf
    best = math.inf
    for a in range(b.n_strands):
        for c in range(a + 1, b.n_strands):
            best = min(best, float(np.min(np.abs(b.strands[a] - b.strands[c]))))
    return best


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


def linking_number_gauss(k: KnotCurve, pushoff_delta: float | None = None,
                         samples: int = 1500, rng_seed: int = 7) -> float:
    """Linking number of the slice with its diagram-framing pushoff.

    The pushoff displaces every sample by delta in one fixed direction of
    the (x3,x4)-plane (chosen among a few candidates for maximal
    clearance) and renormalizes to the sphere.  Both curves are then
    projected stereographically from a pole far from both, and the
    discrete Gauss double sum is evaluated.  The result is real and lands
    within 0.1 of an integer for adequately sampled curves.
    """
    if len(k.components) != 1:
        raise ValueError("linking number implemented for single-component slices")
    q = _resample_closed(k.samples, samples)

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

    rng = np.random.default_rng(rng_seed)
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
    return float(_kernels.linking_sum(P, Q))


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
    worst = math.inf
    for sl in k.component_slices():
        q = k.samples[sl]
        gam = np.roll(q, -1, axis=0) - np.roll(q, 1, axis=0)
        if orientation >= 0:
            jq = np.stack([-q[:, 1], q[:, 0], -q[:, 3], q[:, 2]], axis=1)
        else:
            jq = np.stack([-q[:, 1], q[:, 0], q[:, 3], -q[:, 2]], axis=1)
        num = np.abs(np.einsum("ij,ij->i", gam, jq))
        den = np.linalg.norm(gam, axis=1)
        worst = min(worst, float(np.min(num / den)))
    return worst


# ---------------------------------------------------------------------------
# eta selection and the verification pipeline
# ---------------------------------------------------------------------------

def select_eta(w: WeierstrassData, start: float = 0.1,
               min_eta: float = 1e-5) -> KnotCurve:
    """Scan eta downward by halving until the slice braids consistently.

    Accepts the first eta where the winding matches N, the fiber angle is
    monotone, and the crossing sum is stable under grid refinement, and
    returns that slice; its `eta` is the accepted radius.  When no radius
    down to min_eta is accepted, the TraceFailure names every eta tried
    and what rejected it.
    """
    rejected = []
    eta = start
    while eta >= min_eta:
        try:
            k = trace_slice(w, eta)
            b = braid_from_knot(k)
            if b.n_strands == w.N:
                stable_crossing_number(k)
                return k
            rejected.append(f"{eta!r} (winding {b.n_strands} != N = {w.N})")
        except (TraceFailure, OpenCurve, NonMonotoneFiberAngle, BranchOnSlice) as exc:
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
                                p: PerturbParams | None, eta: float,
                                radius: float = 0.5, grid_n: int = 48,
                                raise_on_violation: bool = True) -> VerifyReport:
    """Count double points, compute knot invariants, check 2D = e - (N-1).

    D counts the double points of the perturbed map whose image lies
    inside the eta-ball; e and N come from the base map's slice at eta;
    the perturbed map is re-sliced to confirm the crossing sum is
    unchanged.  With p=None the base map itself is used (it must then be
    an immersion), which covers unbranched control data.

    Raises FormulaViolation (with the report attached) when the identity
    fails, when the two crossing-count routes disagree, or when the
    perturbed slice changes its crossing sum.
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
    in_ball = [dp for dp in dps if np.linalg.norm(dp.image) < eta]
    D = len(in_ball)

    k_base = trace_slice(w_base, eta)
    b = braid_from_knot(k_base)
    e = stable_crossing_number(k_base)
    lk = linking_number_gauss(k_base)
    N = w_base.N
    report = VerifyReport(
        N=N, D=D, D_total=len(dps), e=e, e_gauss=lk,
        sl=self_linking(e, N),
        identity_ok=(2 * D == e - (N - 1)),
        margins_base={+1: contact_transversality_margin(k_base, +1),
                      -1: contact_transversality_margin(k_base, -1)},
        eta=eta, double_points=dps, notes=notes)

    def fail(msg: str):
        report.notes.append(msg)
        if raise_on_violation:
            raise FormulaViolation(msg, report)

    if b.n_strands != N:
        fail(f"slice winding {b.n_strands} != N = {N}")
    if abs(lk - round(lk)) > 0.1 or int(round(lk)) != e:
        fail(f"crossing-count routes disagree: braid {e}, gauss {lk:.3f}")
    if not report.identity_ok:
        fail(f"2D = {2 * D} differs from e - (N-1) = {e - (N - 1)}")

    if p is not None:
        k_t = trace_slice(deformed, eta)
        report.e_deformed = stable_crossing_number(k_t)
        report.isotopy_ok = (report.e_deformed == e)
        if not report.isotopy_ok:
            fail(f"perturbed slice crossing sum {report.e_deformed} != {e}")
    return report


def orientation_identity_report(w_base: WeierstrassData, p: PerturbParams,
                                eta: float, radius: float = 0.35,
                                grid_n: int = 40) -> dict:
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
    dps = find_double_points(fm.deformed, radius=radius, grid_n=grid_n)
    in_ball = [dp for dp in dps if np.linalg.norm(dp.image) < eta]
    transverse = [dp for dp in dps if is_transverse(dp, fm.deformed)]
    D = len(in_ball)
    N = w_base.N

    k_t = trace_slice(fm.deformed, eta)
    e = stable_crossing_number(k_t)
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
