"""Sphere slices of a minimal disk and their braid/linking invariants.

The image of a small disk around a branch point meets the sphere of
radius eta in a closed curve; rescaled to the unit 3-sphere it is a knot
braided around the great circle {x1 = x2 = 0}, with one strand per local
sheet.  Since |F| ~ |z|^N near the branch point, the curve's preimage in
the parameter disk meets each ray from 0 once; this module finds it on
2048 rays at once (a radius scan, then safeguarded Newton steps within
each ray's bracket), presents the knot as a braid over the fiber angle
arg(x1 + i x2), and computes the signed crossing count two independent
ways: directly from the braid diagram, whose strands are evaluated at
the fiber angles of the samples themselves, so the count is exact for
the traced polygon, and as a linking number with a pushoff copy, an
exact solid-angle sum over two polygons after stereographic projection,
with polygons sized from the pushoff clearance.  The two routes share
the slice samples, its sheets and its strand table (KnotCurve.strands);
the Gauss route reads those two only through strand_gap, its pushoff size.

Crossing sign convention (fixed project-wide, right-handed): a crossing
where the chord between the two strands rotates counterclockwise in the
fiber plane counts +1.  The pushoff for the linking route displaces every
sample in one fixed direction of the (x3,x4)-plane, which reproduces the
diagram framing; displacing radially instead would add the fiber winding
of the strands to the count.

verify_double_point_formula is the one check of 2D = e - (N-1): it slices
the base and perturbed maps at one eta, counts the perturbed map's double
points in the eta-ball within the disk its slice bounds, takes e and N
from the base slice and checks the perturbed slice's crossing sum.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from . import _kernels
from .errors import (
    BranchOnSlice,
    CrossingRoutesDisagree,
    FormulaViolation,
    NonMonotoneFiberAngle,
    ProjectionPoleOnCurve,
    PushoffCollision,
    SliceBeyondSearchLimit,
    SliceFailure,
    SliceNotEmbedded,
    TraceFailure,
)
from .intersect import _MAX_RADIUS, find_double_points
from .weierstrass import WeierstrassData, _complex_F, branch_points, evaluate_F

__all__ = ["KnotCurve", "BraidDiagram", "trace_slice", "braid_from_knot",
           "algebraic_crossing_number",
           "linking_number_gauss", "check_crossing_routes",
           "contact_transversality_margin", "select_eta", "read_slice",
           "verify_double_point_formula", "VerifyReport"]

log = logging.getLogger(__name__)


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

    @functools.cached_property
    def sheets(self) -> tuple:
        """(q, th, n): the samples ordered so that the fiber angle rises,
        that angle unwrapped around the closed loop (last value over q[0]),
        and its winding n.  NonMonotoneFiberAngle unless every step of th
        is in (0, pi/2] and n is a positive integer to within 0.01."""
        q, th = self.samples, self.fiber_angles()
        closed = np.unwrap(np.append(th, th[0]))
        if closed[-1] - closed[0] < 0:
            q, th = q[::-1], th[::-1]
            closed = np.unwrap(np.append(th, th[0]))
        d = np.diff(closed)
        if np.any(d <= 0) or np.max(d) > 0.5 * math.pi:
            raise NonMonotoneFiberAngle(
                "fiber angle not strictly monotone along the slice")
        total = closed[-1] - closed[0]
        n = int(round(total / (2.0 * math.pi)))
        if n < 1 or abs(total - 2.0 * math.pi * n) > 0.01:
            raise NonMonotoneFiberAngle(
                f"fiber winding {total / (2 * math.pi):.4f} is not a positive integer")
        return q, closed, n

    @functools.cached_property
    def strands(self) -> tuple:
        """(grid, table): the fiber angles of the samples (sheets order) mod
        2 pi from the first one's, closed by it plus 2 pi, and each sheet's
        x3 + i x4 on that grid, a row ending on the next row's first value,
        bit for bit, so that a crossing at the base angle is seen once."""
        q, th, n = self.sheets
        wf = q[:, 2] + 1j * q[:, 3]
        wf = np.append(wf, wf[0])
        grid = th[0] + np.append(np.unique(np.mod(th[:-1] - th[0], 2.0 * math.pi)),
                                 2.0 * math.pi)
        table = np.interp(grid + 2.0 * math.pi * np.arange(n)[:, None], th, wf)
        table[:, -1] = np.roll(table[:, 0], -1)
        return grid, table

    @functools.cached_property
    def strand_gap(self) -> float:
        """Least (x3,x4)-distance between two strands of the strand table
        at one fiber angle; inf with one sheet, or none (sheets raises)."""
        try:
            table = self.strands[1]
        except NonMonotoneFiberAngle:
            return math.inf
        a, b = np.triu_indices(len(table), 1)
        return float(np.abs(table[a] - table[b]).min(initial=math.inf))

    def to_csv(self, fh) -> None:
        """Columns: theta, x1..x4, z_re, z_im (theta = fiber angle).

        Rows end in CRLF, as the csv module writes them.
        """
        cols = np.column_stack([self.fiber_angles(), self.samples,
                                self.preimages.real, self.preimages.imag])
        row = "%.12g" + ",%.15g" * 6 + "\r\n"
        fh.write("theta,x1,x2,x3,x4,z_re,z_im\r\n")
        fh.write(row * len(cols) % tuple(cols.ravel().tolist()))


@dataclass(frozen=True)
class BraidDiagram:
    """Strand count and crossings of the slice's braid.

    Each crossing is (theta, strand_i, strand_j, sign), sorted by the fiber
    angle theta in [0, 2 pi); angles equal to within 1e-12 are sorted by
    the strand pair (i, j).
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
# at most _MAX_PASSES Newton passes; a ray settles once its last step is at
# most _SETTLED_ULPS ulps of its radius (a 1-ulp rule can step forever)
_MAX_PASSES = 60
_SETTLED_ULPS = 4
# strands of a traced slice closer than this on the unit sphere meet
_GAP_FLOOR = 1e-12


def _norm2(a, b):
    """|F|^2 from the complex pair (F1 + i F2, F3 + i F4)."""
    return (a * np.conj(a) + b * np.conj(b)).real


def _radial(w: WeierstrassData, z, u):
    """The complex pair of F at z, |F|^2 and d|F|^2/dr along the unit u."""
    a, b = _complex_F(w, z)
    d = [p(z) * u for p in w.fprime]
    dr = np.conj(a) * (d[0] + np.conj(d[1])) + np.conj(b) * (d[2] + np.conj(d[3]))
    return a, b, _norm2(a, b), 2.0 * dr.real


def trace_slice(w: WeierstrassData, eta: float) -> KnotCurve:
    """Trace {z : |F(z)| = eta} as a radial graph over _LOOP_SAMPLES rays.

    Near a branch point |F| ~ |z|^N, so the slice meets each ray from the
    origin once.  Each ray is scanned on the _SCAN_RADII grid, one radius
    at a time over all rays, and its root is refined by safeguarded Newton
    passes on |F|^2 - eta^2 from the middle of its bracket, all rays at
    once: each pass shrinks every bracket, and a Newton step that leaves
    its bracket is replaced by bisection.  The passes stop once every ray
    has settled, or after _MAX_PASSES; a DEBUG line counts them, the rays
    ever bisected and the largest last step.  The samples are F(z)/|F(z)|
    at the roots, in counterclockwise order of their rays.  The
    radial-graph property is certified on every ray: the scan starts below
    eta, crosses it once and never comes back below it, and d|F|^2/dr > 0
    at the root, the derivative the Newton steps take.

    Raises ValueError unless eta is finite and > 0, BranchOnSlice if a
    branch value sits near the slicing sphere, TraceFailure if some ray
    never crosses eta or the slice is not a radial graph, and
    SliceNotEmbedded if two strands of the samples come closer than
    _GAP_FLOOR (KnotCurve.strand_gap), so that the slice is not a knot.
    """
    eta = float(eta)
    if not (math.isfinite(eta) and eta > 0):
        raise ValueError(f"slice radius eta must be finite and > 0, got {eta}")
    for bp in branch_points(w):
        if abs(np.linalg.norm(evaluate_F(w, bp)) - eta) < 0.05 * eta:
            raise BranchOnSlice(f"branch value within 5% of the sphere at z={bp}")

    eta2 = eta * eta
    dirs = np.exp(2j * math.pi * np.arange(_LOOP_SAMPLES) / _LOOP_SAMPLES)
    crossed = np.zeros(_LOOP_SAMPLES, bool)
    back = np.zeros(_LOOP_SAMPLES, bool)
    first = np.zeros(_LOOP_SAMPLES, int)
    for j, r in enumerate(_SCAN_RADII):
        above = _norm2(*_complex_F(w, r * dirs)) >= eta2
        if j == 0 and above.any():
            raise TraceFailure(f"|F| >= {eta} at the start of the ray scan")
        first[above & ~crossed] = j
        back |= crossed & ~above
        crossed |= above
    if not crossed.all():
        raise TraceFailure(f"level set |F| = {eta} not found on every ray")
    if back.any():
        raise TraceFailure(f"level set |F| = {eta} is not a radial graph: a ray "
                           f"at angle {np.angle(dirs[np.argmax(back)]):.4f} "
                           "crosses it more than once")

    lo, hi = _SCAN_RADII[first - 1], _SCAN_RADII[first]
    r, bisected = 0.5 * (lo + hi), np.zeros(_LOOP_SAMPLES, bool)
    for passes in range(1, _MAX_PASSES + 1):
        _, _, g, slope = _radial(w, r * dirs, dirs)
        lo, hi = np.where(g < eta2, r, lo), np.where(g < eta2, hi, r)
        # a zero or NaN slope makes a step that is not in the bracket
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = r - (g - eta2) / slope
        inside = (lo <= newton) & (newton <= hi)
        bisected |= ~inside
        last, r = r, np.where(inside, newton, 0.5 * (lo + hi))
        ulps = np.abs(r - last) / np.spacing(r)
        if np.all(ulps <= _SETTLED_ULPS):
            break
    log.debug("trace at eta %r: %d rays, %d Newton passes, %d rays bisected, "
              "largest last step %.2g ulps", eta, _LOOP_SAMPLES, passes,
              int(bisected.sum()), ulps.max())
    pre = r * dirs
    a, b, g, slope = _radial(w, pre, dirs)
    if not np.all(slope > 0):
        raise TraceFailure(f"level set |F| = {eta} is not a radial graph: "
                           "d|F|/dr <= 0 at a root")
    samples = np.stack([a.real, a.imag, b.real, b.imag], axis=1) / np.sqrt(g)[:, None]
    k = KnotCurve(samples=samples, preimages=pre, eta=eta)
    if k.strand_gap < _GAP_FLOOR:
        raise SliceNotEmbedded(f"the slice at eta={eta!r} is not embedded: two strands "
                               f"come within {k.strand_gap:.2e}, below {_GAP_FLOOR:g}")
    return k


# ---------------------------------------------------------------------------
# braid presentation
# ---------------------------------------------------------------------------

def braid_from_knot(k: KnotCurve) -> BraidDiagram:
    """Present the slice as a braid over the fiber angle.

    The strands are the slice's strand table (KnotCurve.strands), one per
    sheet at the fiber angles of all the samples; the braid interpolates
    nothing.  Between two of those angles each strand is linear, so every
    exchange of real-part order is found and the crossing sum is exact
    for the traced polygon; each crossing is signed by the rotation sense
    of the chord.  NonMonotoneFiberAngle when the slice has no sheets.
    """
    grid, strands = k.strands
    n = len(strands)

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
    # angles equal to within 1e-12 (symmetric slices) go in strand-pair order
    group = np.cumsum(np.diff([t[0] for t in crossings], prepend=-math.inf) > 1e-12)
    crossings = [c for _, c in sorted(zip(group, crossings),
                                      key=lambda gc: (gc[0], gc[1][1:3]))]
    return BraidDiagram(n_strands=n, crossings=tuple(crossings))


def algebraic_crossing_number(b: BraidDiagram) -> int:
    """Signed crossing sum of the braid diagram."""
    return int(sum(c[3] for c in b.crossings))


def _gauss_text(lk: float) -> str:
    """A Gauss linking sum to three decimals; a rounding residue below
    0.0005 prints as 0.000, without a sign, and NaN as nan."""
    return f"{0.0 if abs(lk) < 0.0005 else lk:.3f}"


def check_crossing_routes(e: int, lk: float) -> None:
    """Raise CrossingRoutesDisagree unless the Gauss linking sum lk is
    within 1e-6 of the braid's crossing sum e."""
    if not abs(lk - e) <= 1e-6:
        raise CrossingRoutesDisagree(
            f"crossing-count routes disagree: braid {e}, gauss {_gauss_text(lk)}")


# ---------------------------------------------------------------------------
# linking number by Gauss double sum
# ---------------------------------------------------------------------------

# first polygon size of the Gauss sum; it doubles until the polygons fit
_GAUSS_START = 150
# pushoff directions tried in the (x3,x4)-plane, and the sample stride on
# which they are ranked
_PUSHOFF_DIRECTIONS = 16
_PUSHOFF_STRIDE = 16


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


def _orthonormal_frame(p: np.ndarray) -> np.ndarray:
    """Completion (p i, p k, p j) of the unit vector p to a basis of R^4.

    p is read as the quaternion a + b i + c j + d k; right multiplication
    by the unit quaternions i, k, j is orthogonal and moves p to three
    vectors orthonormal to it and to each other, with det[p, frame] = -1
    for every p.  That sign makes projecting from pole p preserve the
    sphere's outward orientation (the chart is centered at the antipode
    -p, where the outward normal is -p); the Gauss double sum downstream
    then agrees in sign with the braid convention.
    """
    a, b, c, d = p
    return np.array([[-b, a, d, -c], [-d, c, -b, a], [-c, -d, a, b]]).T


def _stereographic(x: np.ndarray, pole: np.ndarray, frame: np.ndarray) -> np.ndarray:
    denom = 1.0 - x @ pole
    return (x @ frame) / denom[:, None]


def linking_number_gauss(k: KnotCurve) -> float:
    """Linking number of the slice with its diagram-framing pushoff.

    The pushoff displaces every sample by delta (a quarter of the slice's
    strand_gap, which the trace measured, or 0.05 with one sheet or none)
    in one fixed direction of the (x3,x4)-plane and renormalizes to the
    sphere.  The direction is one of _PUSHOFF_DIRECTIONS evenly spaced
    ones: each is ranked by the least distance from its pushoff of every
    _PUSHOFF_STRIDE-th sample to the slice, and the best ranked one is
    taken.  Its clearance, the least distance from its full pushoff to
    the slice, must be at least 0.1 delta, or PushoffCollision is raised.
    Both curves are then projected stereographically from a pole far from
    both, and the Gauss sum is taken over the solid angles of segment
    pairs, which is the exact linking number of two polygons (Banchoff
    1976).  So the polygons need
    only link as the curves do: each keeps _GAUSS_START of its samples,
    doubled until every sample of both projected curves lies within half
    their clearance (the least distance between their samples) of the
    chord over it.  With all samples kept that deviation is 0, so the rule
    fails there only on curves that touch, and then PushoffCollision is
    raised.
    """
    q = k.samples
    delta = 0.05 if not math.isfinite(k.strand_gap) else 0.25 * k.strand_gap

    def pushoff(x, disp):
        y = x + delta * disp
        return y / np.linalg.norm(y, axis=-1, keepdims=True)

    beta = np.linspace(0.0, 2.0 * math.pi, _PUSHOFF_DIRECTIONS, endpoint=False)
    disps = np.zeros((_PUSHOFF_DIRECTIONS, 4))
    disps[:, 2], disps[:, 3] = np.cos(beta), np.sin(beta)
    tree = cKDTree(q)
    sub = pushoff(q[None, ::_PUSHOFF_STRIDE], disps[:, None])
    ranks = tree.query(sub.reshape(-1, 4))[0].reshape(len(sub), -1).min(axis=1)
    qhat = pushoff(q, disps[int(np.argmax(ranks))])
    clearance = float(tree.query(qhat)[0].min())
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
    +90 degrees, for -1 the second plane by -90, which is J+ conjugated by
    the mirror x4 -> -x4.  A strictly positive margin certifies the slice
    transverse to the associated contact planes.
    """
    q = k.samples
    gam = np.roll(q, -1, axis=0) - np.roll(q, 1, axis=0)
    sign = 1.0 if orientation >= 0 else -1.0
    jq = np.stack([-q[:, 1], q[:, 0], -sign * q[:, 3], sign * q[:, 2]], axis=1)
    num = np.abs(np.einsum("ij,ij->i", gam, jq))
    return float(np.min(num / np.linalg.norm(gam, axis=1)))


# ---------------------------------------------------------------------------
# eta selection and the verification pipeline
# ---------------------------------------------------------------------------

# select_eta halves eta from _ETA_START while it is at least _ETA_MIN
_ETA_START = 0.1
_ETA_MIN = 1e-5


def select_eta(w: WeierstrassData) -> KnotCurve:
    """Scan eta downward by halving until the slice braids on N strands.

    Accepts the first eta from _ETA_START where the slice is traced and
    has sheets (KnotCurve.sheets) with winding N, and returns that slice;
    its `eta` is the accepted radius.  Any SliceFailure rejects an eta.
    When no radius down to _ETA_MIN is accepted, the TraceFailure names
    every eta tried and what rejected it.
    """
    rejected = []
    eta = _ETA_START
    while eta >= _ETA_MIN:
        try:
            k = trace_slice(w, eta)
            n = k.sheets[2]
            if n == w.N:
                return k
            rejected.append(f"{eta!r} (winding {n} != N = {w.N})")
        except SliceFailure as exc:
            rejected.append(f"{eta!r} ({type(exc).__name__})")
        eta *= 0.5
    raise TraceFailure(f"no workable slice radius found above {_ETA_MIN}; "
                       f"tried eta = {', '.join(rejected)}")


def read_slice(w: WeierstrassData, eta: float | None = None) -> tuple:
    """(slice, braid, e, Gauss sum) of w's slice at eta, or of the one
    select_eta accepts when eta is None, traced once either way; e is the
    braid's crossing sum.  CrossingRoutesDisagree unless the Gauss sum
    agrees with e (check_crossing_routes, called here alone)."""
    k = select_eta(w) if eta is None else trace_slice(w, eta)
    b = braid_from_knot(k)
    e, lk = algebraic_crossing_number(b), linking_number_gauss(k)
    check_crossing_routes(e, lk)
    return k, b, e, lk


@dataclass
class VerifyReport:
    """Everything the double-point identity check produced."""

    N: int
    D: int  # the double points imaged in the eta-ball
    D_total: int  # those in the search disk, which the perturbed slice bounds
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


# verify searches |z| <= _SEARCH_MARGIN * the perturbed slice's largest |z|:
# the slice is a certified radial graph, so only its bulge between the rays
# lies outside, which 32,768-ray traces of 13 members put below 6e-7 relative.
_SEARCH_MARGIN = 1.01


def verify_double_point_formula(base: WeierstrassData,
                                deformed: WeierstrassData | None = None,
                                eta: float | None = None,
                                grid_n: int = 48) -> VerifyReport:
    """Count double points, compute knot invariants, check 2D = e - (N-1).

    base and deformed are a family member's two maps, in its frame
    (FamilyMember.base and .deformed); with deformed=None, base is checked
    unperturbed and must be an immersion (control data).  The stages: the
    base slice, which read_slice reads at eta (with eta=None, the one
    select_eta accepts), and the deformed slice at the same eta; _search,
    of the disk that slice bounds; and _judge, which returns the report or
    raises."""
    read = read_slice(base, eta)
    if deformed is None:
        return _judge(base.N, read, *_search(base, read[0], grid_n), None)
    k_def = trace_slice(deformed, read[0].eta)
    return _judge(base.N, read, *_search(deformed, k_def, grid_n), k_def)


def _search(deformed: WeierstrassData, k_def: KnotCurve, grid_n: int) -> tuple:
    """(double points of deformed in the disk k_def bounds, D those imaged in
    the eta-ball); SliceBeyondSearchLimit if the disk passes _MAX_RADIUS."""
    reach = float(np.abs(k_def.preimages).max())
    if _SEARCH_MARGIN * reach > _MAX_RADIUS:
        raise SliceBeyondSearchLimit(
            f"the slice at eta={k_def.eta!r} reaches |z| = {reach:.4f}, and "
            f"{_SEARCH_MARGIN} times that passes the search limit |z| <= {_MAX_RADIUS}")
    dps = find_double_points(deformed, _SEARCH_MARGIN * reach, grid_n)
    return dps, sum(1 for dp in dps if np.linalg.norm(dp.image) < k_def.eta)


def _judge(N: int, read, dps: list, D: int, k_def: KnotCurve | None) -> VerifyReport:
    """The report on read (read_slice's base slice, its routes agreeing)
    and the perturbed slice k_def (None for an unperturbed map), or a
    FormulaViolation carrying it, its message as the last note, for a
    winding not N, then 2D != e - (N-1), then k_def's crossing sum not e."""
    k, b, e, lk = read
    report = VerifyReport(
        N=N, D=D, D_total=len(dps), e=e, e_gauss=lk, sl=e - N,
        identity_ok=(2 * D == e - (N - 1)),
        margins_base={+1: contact_transversality_margin(k, +1),
                      -1: contact_transversality_margin(k, -1)},
        eta=k.eta, double_points=dps)
    violation = None
    if b.n_strands != N:
        violation = f"slice winding {b.n_strands} != N = {N}"
    elif not report.identity_ok:
        violation = f"2D = {2 * D} differs from e - (N-1) = {e - (N - 1)}"
    elif k_def is not None:
        report.e_deformed = algebraic_crossing_number(braid_from_knot(k_def))
        report.isotopy_ok = (report.e_deformed == e)
        if not report.isotopy_ok:
            violation = f"perturbed slice crossing sum {report.e_deformed} != {e}"
    if violation is not None:
        report.notes.append(violation)
        raise FormulaViolation(violation, report)
    return report
