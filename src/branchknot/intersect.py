"""Self-intersection search for immersed disk data.

Two independent routes to the double-point count:

* find_double_points: damped Newton (_kernels.newton_double_points) on
  F(z1) = F(z2) with the diagonal z1 = z2 divided out, seeded from every
  pair of points of a disk grid grid_n // 4 points across, deduplicated
  into canonical preimage pairs.  This is the production path.
* brute_force_double_points: an exhaustive proximity scan on a fine grid,
  filtered to local minima of the image mismatch and clustered.  It never
  touches the Newton machinery, so it can referee it.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import chain

import numpy as np
from scipy.spatial import cKDTree

from . import _kernels
from .errors import BranchPointInRegion
from .weierstrass import WeierstrassData, branch_points, evaluate_F, jacobian

__all__ = ["DoublePoint", "find_double_points", "brute_force_double_points"]

log = logging.getLogger(__name__)

# find_double_points: a converged pair closer than _PAIR_SEP_TOL is on the
# diagonal, and pairs within _DEDUP_TOL are one double point; a search
# radius is <= _MAX_RADIUS
_PAIR_SEP_TOL = 1e-5
_DEDUP_TOL = 1e-6
_MAX_RADIUS = 0.9


@dataclass(frozen=True)
class DoublePoint:
    """Unordered preimage pair hitting the same image point.

    The pair is stored in canonical order (lexicographic by (Re, Im));
    transversality_det is the raw 4x4 determinant of the two tangent
    frames stacked as columns, and frame_norms the product of those
    columns' norms (not written to JSON).
    """

    z1: complex
    z2: complex
    image: np.ndarray
    residual: float
    transversality_det: float
    frame_norms: float

    @property
    def transverse(self) -> bool:
        """True iff the two tangent planes span R^4.

        transversality_det is normalized by frame_norms, making the test
        invariant under global rescaling of the map; a zero frame_norms
        is not transverse.
        """
        return (self.frame_norms != 0.0
                and abs(self.transversality_det) > 1e-6 * self.frame_norms)

    def to_json_dict(self) -> dict:
        return {
            "z1": [self.z1.real, self.z1.imag],
            "z2": [self.z2.real, self.z2.imag],
            "image": [float(x) for x in self.image],
            "residual": self.residual,
            "transversality_det": self.transversality_det,
        }


def _disk_grid(radius: float, n: int) -> np.ndarray:
    side = np.linspace(-radius, radius, n)
    zz = side[None, :] + 1j * side[:, None]
    return zz[np.abs(zz) <= radius].ravel()


def _frame(w: WeierstrassData, z1: complex, z2: complex) -> tuple:
    """(determinant, product of the column norms) of the tangent frames
    of w at z1 and z2 stacked as the columns of a 4x4 matrix."""
    fx1, fy1 = jacobian(w, z1)
    fx2, fy2 = jacobian(w, z2)
    cols = np.stack([fx1, fy1, fx2, fy2], axis=-1)
    return (float(np.linalg.det(cols)),
            float(np.prod(np.linalg.norm(cols, axis=0))))


def find_double_points(w: WeierstrassData, radius: float = 0.5,
                       grid_n: int = 48) -> list[DoublePoint]:
    """All double points of F with both preimages in |z| <= radius.

    Seeds _kernels.newton_double_points, whose system has no zeros on
    the diagonal, from every pair of points of a disk grid grid_n // 4
    points across (8 at grid_n 32, 12 at 48).  Converged pairs off the
    diagonal are deduplicated under the pair swap and returned in
    canonical order.

    Raises ValueError unless 0 < radius <= 0.9 and grid_n >= 28, and
    BranchPointInRegion when the search disk contains a branch point,
    where the count is not well-defined.  Seed grids under 7 points
    across (grid_n 28) missed double points of tested members.
    """
    if not 0.0 < radius <= _MAX_RADIUS:
        raise ValueError(f"radius must be in (0, {_MAX_RADIUS}], got {radius!r}")
    if grid_n < 28:
        raise ValueError(f"grid_n must be >= 28, got {grid_n!r}")
    bps = [b for b in branch_points(w) if abs(b) <= radius]
    if bps:
        raise BranchPointInRegion(f"branch points in search disk: {bps}")

    pts = _disk_grid(radius, grid_n // 4)
    i, j = np.triu_indices(pts.size, 1)
    z1, z2, resid, ok = _kernels.newton_double_points(pts[i], pts[j], w)

    keep = (ok & (np.abs(z1) <= radius) & (np.abs(z2) <= radius)
            & (np.abs(z1 - z2) >= _PAIR_SEP_TOL))
    out = []
    for a, b, r in _merge_pairs(z1[keep], z2[keep], resid[keep]):
        image = 0.5 * (evaluate_F(w, a) + evaluate_F(w, b))
        out.append(DoublePoint(a, b, image, r, *_frame(w, a, b)))
    log.debug("double-point search: %d seed-grid points, %d seeds, "
              "%d converged, %d double points",
              pts.size, i.size, int(ok.sum()), len(out))
    return out


def _merge_pairs(z1: np.ndarray, z2: np.ndarray,
                 resid: np.ndarray) -> list[tuple[complex, complex, float]]:
    """Merge converged pairs into double points, in canonical order.

    In lexicographic order, a pair is a duplicate when both preimages
    agree within _DEDUP_TOL with those of a pair already kept, under
    either matching: canonical order is unstable when the two preimages
    have nearly equal real parts.  Each kept pair removes all its
    duplicates at once, so the loop runs once per double point.
    """
    swap = (z2.real < z1.real) | ((z2.real == z1.real) & (z2.imag < z1.imag))
    a = np.where(swap, z2, z1)
    b = np.where(swap, z1, z2)
    order = np.lexsort((b.imag, b.real, a.imag, a.real))
    a, b, resid = a[order], b[order], resid[order]
    merged = []
    while a.size:
        ma, mb = a[0], b[0]
        merged.append((complex(ma), complex(mb), float(resid[0])))
        dup = (((np.abs(a - ma) < _DEDUP_TOL) & (np.abs(b - mb) < _DEDUP_TOL))
               | ((np.abs(a - mb) < _DEDUP_TOL) & (np.abs(b - ma) < _DEDUP_TOL)))
        a, b, resid = a[~dup], b[~dup], resid[~dup]
    return merged


def brute_force_double_points(w: WeierstrassData, radius: float = 0.5,
                              fine_n: int = 400) -> int:
    """Independent double-point count by exhaustive grid proximity scan.

    Registers grid pairs whose images are closer than a proximity cutoff
    while their preimages are farther apart than 10 grid spacings, keeps
    only pairs that are local minima of the image mismatch over the full
    pair neighborhood (this discards the near-miss continua that any
    threshold alone would catch), and counts clusters of the survivors.

    The cutoff adapts to the local differential size: pair (i, j) is kept
    when |F_i - F_j| is at most 3 * spacing times the 90th percentile of
    the differential norm J and below 2.5 * spacing * min(J_i, J_j).  The
    tree is asked for each point's ball of the smaller of its two bounds,
    so it registers only pairs that both can keep.
    """
    side = np.linspace(-radius, radius, fine_n)
    spacing = side[1] - side[0]
    zz = (side[None, :] + 1j * side[:, None]).ravel()
    in_disk = np.abs(zz) <= radius

    img = np.full((fine_n * fine_n, 4), np.inf)
    img[in_disk] = evaluate_F(w, zz[in_disk])

    fx, fy = jacobian(w, zz[in_disk])
    jn_disk = np.sqrt(np.einsum("ij,ij->i", fx, fx)
                      + np.einsum("ij,ij->i", fy, fy))
    jn = np.full(fine_n * fine_n, np.inf)
    jn[in_disk] = jn_disk

    query_r = 3.0 * spacing * float(np.percentile(jn_disk, 90))
    # point i's ball holds every j that both bounds can keep; pairs i < j
    pts = img[in_disk]
    balls = cKDTree(pts).query_ball_point(
        pts, np.minimum(query_r, 2.5 * spacing * jn_disk))
    i = np.repeat(np.arange(pts.shape[0]), [len(b) for b in balls])
    j = np.fromiter(chain.from_iterable(balls), np.intp, i.size)
    disk_idx = np.nonzero(in_disk)[0]
    i, j = disk_idx[i[i < j]], disk_idx[j[i < j]]

    keep = np.abs(zz[i] - zz[j]) > 10.0 * spacing
    i, j = i[keep], j[keep]
    mism = np.linalg.norm(img[i] - img[j], axis=1)
    keep = mism < 2.5 * spacing * np.minimum(jn[i], jn[j])
    i, j, mism = i[keep], j[keep], mism[keep]
    if i.size == 0:
        return 0

    # one representative (smallest mismatch) per coarse cell-pair bucket;
    # a discarded pair is dominated by its representative, so the local
    # minima that matter all survive
    cell = 3.0 * spacing
    nc = int(2.0 * radius / cell) + 2
    ci = ((zz.real + radius) / cell).astype(np.int64)
    cj = ((zz.imag + radius) / cell).astype(np.int64)
    cellid = ci * (nc + 1) + cj
    key = cellid[i] * (nc + 1) ** 2 + cellid[j]
    order = np.lexsort((mism, key))
    first = np.ones(order.size, bool)
    first[1:] = key[order[1:]] != key[order[:-1]]
    i, j, mism = i[order[first]], j[order[first]], mism[order[first]]

    # 9-point grid neighborhoods (clamped at the boundary)
    rows, cols = np.divmod(np.arange(fine_n * fine_n), fine_n)
    step = np.array([-1, 0, 1])
    nbrs = (np.clip(rows[:, None, None] + step[:, None], 0, fine_n - 1) * fine_n
            + np.clip(cols[:, None, None] + step, 0, fine_n - 1)).reshape(-1, 9)

    is_min = np.empty(i.size, bool)
    chunk = 4096
    with np.errstate(invalid="ignore"):
        for lo in range(0, i.size, chunk):
            di = img[nbrs[i[lo:lo + chunk]]]      # (k, 9, 4)
            dj = img[nbrs[j[lo:lo + chunk]]]
            diff = di[:, :, None, :] - dj[:, None, :, :]
            mm = np.sqrt(np.einsum("kabc,kabc->kab", diff, diff))
            best = np.nanmin(mm.reshape(len(di), -1), axis=1)
            is_min[lo:lo + chunk] = mism[lo:lo + chunk] <= best + 1e-15
    if not is_min.any():
        return 0

    # clusters of minima whose preimages agree within 5 spacings; both
    # pair matchings are tried since the ordering of nearly symmetric
    # preimage pairs is unstable
    # imported here: at module level it adds ~30 ms to every CLI start
    from scipy.sparse.csgraph import connected_components

    a, b = zz[i[is_min]], zz[j[is_min]]

    def near(u, v):
        return np.abs(u[:, None] - v[None, :]) < 5.0 * spacing

    same = (near(a, a) & near(b, b)) | (near(a, b) & near(b, a))
    return int(connected_components(same, directed=False)[0])
