"""Self-intersection search for immersed disk data.

Two independent routes to the double-point count:

* find_double_points: grid-seeded damped Newton on F(z1) - F(z2) = 0,
  deduplicated into canonical preimage pairs.  This is the production
  path; the inner iteration runs through the batch kernel.  The grid
  pairs whose images are close are thinned to one Newton seed per
  unordered pair of preimage cells (the pair of smallest image
  mismatch), because near a branch point the proximity cutoff admits
  whole continua of pairs that all converge to the same double point.
* brute_force_double_points: an exhaustive proximity scan on a fine grid,
  filtered to local minima of the image mismatch and clustered.  It never
  touches the Newton machinery, so it can referee it.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from . import _kernels
from .errors import BranchPointInRegion
from .weierstrass import WeierstrassData, branch_points, evaluate_F, jacobian

__all__ = ["DoublePoint", "find_double_points", "is_transverse",
           "brute_force_double_points"]

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class DoublePoint:
    """Unordered preimage pair hitting the same image point.

    The pair is stored in canonical order (lexicographic by (Re, Im));
    transversality_det is the raw 4x4 determinant of the two tangent
    frames stacked as columns.
    """

    z1: complex
    z2: complex
    image: np.ndarray
    residual: float
    transversality_det: float

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


def _frame_det(w: WeierstrassData, z1: complex, z2: complex) -> float:
    fx1, fy1 = jacobian(w, z1)
    fx2, fy2 = jacobian(w, z2)
    return float(np.linalg.det(np.stack([fx1, fy1, fx2, fy2], axis=-1)))


def find_double_points(w: WeierstrassData, radius: float = 0.5,
                       grid_n: int = 48, newton_tol: float = 1e-12,
                       pair_sep_tol: float = 1e-5, dedup_tol: float = 1e-6,
                       max_iter: int = 50, coarse_factor: float = 4.0,
                       seed_sep_factor: float = 3.0) -> list[DoublePoint]:
    """All double points of F with both preimages in |z| <= radius.

    Takes every grid pair whose images are closer than a coarse threshold
    (scaled by the local differential size) and whose preimages are more
    than seed_sep_factor grid spacings apart.  These pairs are bucketed by
    the unordered pair of square preimage cells (side seed_sep_factor
    spacings) holding their two points, and only the pair of smallest
    image mismatch in each bucket seeds damped Newton iteration.
    Converged pairs are filtered against the diagonal, deduplicated under
    the pair swap, and returned in canonical order.

    Raises BranchPointInRegion when the search disk contains a branch
    point (the Newton system is singular there and the count is not
    well-defined for a non-immersed map).
    """
    if radius > 0.9:
        raise ValueError("radius must be <= 0.9")
    bps = [b for b in branch_points(w) if abs(b) <= radius]
    if bps:
        raise BranchPointInRegion(f"branch points in search disk: {bps}")

    pts = _disk_grid(radius, grid_n)
    spacing = 2.0 * radius / (grid_n - 1)
    img = evaluate_F(w, pts)
    fx, fy = jacobian(w, pts)
    jnorm = np.sqrt(np.einsum("ij,ij->i", fx, fx) + np.einsum("ij,ij->i", fy, fy))
    gscale = float(np.percentile(jnorm, 90)) or 1.0

    tree = cKDTree(img)
    pairs = tree.query_pairs(coarse_factor * spacing * gscale, output_type="ndarray")
    if pairs.size == 0:
        return []
    cell = max(seed_sep_factor * spacing, 5 * pair_sep_tol)
    sep = np.abs(pts[pairs[:, 0]] - pts[pairs[:, 1]])
    pairs = pairs[sep > cell]
    if pairs.size == 0:
        return []
    n_prox = len(pairs)
    pairs = _thin_seeds(pts, img, pairs, radius, cell)
    log.debug("double-point search: %d proximity pairs thinned to %d seeds",
              n_prox, len(pairs))

    z1, z2, resid, ok = _kernels.newton_double_points(
        pts[pairs[:, 0]], pts[pairs[:, 1]], w, newton_tol, max_iter)
    n_fail = int((~ok).sum())
    if n_fail:
        log.debug("double-point search: %d seeds did not converge", n_fail)

    keep = (ok & (np.abs(z1) <= radius) & (np.abs(z2) <= radius)
            & (np.abs(z1 - z2) >= pair_sep_tol))
    out = []
    for a, b, r in _merge_pairs(z1[keep], z2[keep], resid[keep], dedup_tol):
        image = 0.5 * (evaluate_F(w, a) + evaluate_F(w, b))
        out.append(DoublePoint(z1=a, z2=b, image=image, residual=r,
                               transversality_det=_frame_det(w, a, b)))
    return out


def _thin_seeds(pts: np.ndarray, img: np.ndarray, pairs: np.ndarray,
                radius: float, cell: float) -> np.ndarray:
    """One pair per unordered (cell(z1), cell(z2)) bucket: the one of
    smallest image mismatch.  A discarded pair has both ends within one
    cell of its representative's, the scale below which the separation
    floor already refuses to tell preimages apart."""
    nc = int(2.0 * radius / cell) + 2
    cellid = (((pts.real + radius) // cell).astype(np.int64) * nc
              + ((pts.imag + radius) // cell).astype(np.int64))
    c0, c1 = cellid[pairs[:, 0]], cellid[pairs[:, 1]]
    key = np.minimum(c0, c1) * nc * nc + np.maximum(c0, c1)
    mism = np.linalg.norm(img[pairs[:, 0]] - img[pairs[:, 1]], axis=1)
    order = np.lexsort((mism, key))
    first = np.ones(order.size, bool)
    first[1:] = key[order[1:]] != key[order[:-1]]
    return pairs[order[first]]


def _merge_pairs(z1: np.ndarray, z2: np.ndarray, resid: np.ndarray,
                 dedup_tol: float) -> list[tuple[complex, complex, float]]:
    """Merge converged pairs into double points, in canonical order.

    In lexicographic order, a pair is a duplicate when both preimages
    agree within dedup_tol with those of a pair already kept, under
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
        dup = (((np.abs(a - ma) < dedup_tol) & (np.abs(b - mb) < dedup_tol))
               | ((np.abs(a - mb) < dedup_tol) & (np.abs(b - ma) < dedup_tol)))
        a, b, resid = a[~dup], b[~dup], resid[~dup]
    return merged


def is_transverse(dp: DoublePoint, w: WeierstrassData,
                  det_tol: float = 1e-6) -> bool:
    """True iff the two tangent planes at the double point span R^4.

    The raw 4x4 determinant is normalized by the product of the column
    norms, making the test invariant under global rescaling of the map.
    """
    fx1, fy1 = jacobian(w, dp.z1)
    fx2, fy2 = jacobian(w, dp.z2)
    cols = np.stack([fx1, fy1, fx2, fy2], axis=-1)
    norms = np.linalg.norm(cols, axis=0)
    denom = float(np.prod(norms))
    if denom == 0.0:
        return False
    return abs(float(np.linalg.det(cols))) > det_tol * denom


def brute_force_double_points(w: WeierstrassData, radius: float = 0.5,
                              fine_n: int = 400, prox: float | None = None,
                              cluster_factor: float = 5.0) -> int:
    """Independent double-point count by exhaustive grid proximity scan.

    Registers grid pairs whose images are closer than a proximity cutoff
    while their preimages are farther apart than 10 grid spacings, keeps
    only pairs that are local minima of the image mismatch over the full
    pair neighborhood (this discards the near-miss continua that any
    threshold alone would catch), and counts clusters of the survivors.

    With prox=None the cutoff adapts to the local differential size:
    pair (i, j) registers when |F_i - F_j| < 3 * spacing * min(J_i, J_j).
    An explicit prox is applied as a flat cutoff instead.
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

    query_r = prox if prox is not None else \
        3.0 * spacing * float(np.percentile(jn_disk, 90))

    tree = cKDTree(img[in_disk])
    pairs = tree.query_pairs(query_r, output_type="ndarray")
    if pairs.size == 0:
        return 0
    disk_idx = np.nonzero(in_disk)[0]
    pairs = disk_idx[pairs]

    sep = np.abs(zz[pairs[:, 0]] - zz[pairs[:, 1]])
    keep = sep > 10.0 * spacing
    pairs = pairs[keep]
    mism = np.linalg.norm(img[pairs[:, 0]] - img[pairs[:, 1]], axis=1)
    if prox is None:
        local = 2.5 * spacing * np.minimum(jn[pairs[:, 0]], jn[pairs[:, 1]])
        keep = mism < local
        pairs, mism = pairs[keep], mism[keep]
    if pairs.size == 0:
        return 0

    # one representative (smallest mismatch) per coarse cell-pair bucket;
    # a discarded pair is dominated by its representative, so the local
    # minima that matter all survive
    cell = 3.0 * spacing
    nc = int(2.0 * radius / cell) + 2
    ci = ((zz.real + radius) / cell).astype(np.int64)
    cj = ((zz.imag + radius) / cell).astype(np.int64)
    cellid = ci * (nc + 1) + cj
    key = cellid[pairs[:, 0]] * (nc + 1) ** 2 + cellid[pairs[:, 1]]
    order = np.lexsort((mism, key))
    first = np.ones(order.size, bool)
    first[1:] = key[order[1:]] != key[order[:-1]]
    reps = pairs[order[first]]
    reps_m = mism[order[first]]

    # 9-point grid neighborhoods (clamped at the boundary)
    rows, cols = np.divmod(np.arange(fine_n * fine_n), fine_n)
    nbrs = np.empty((fine_n * fine_n, 9), np.int64)
    kk = 0
    for dr in (-1, 0, 1):
        for dc in (-1, 0, 1):
            rr = np.clip(rows + dr, 0, fine_n - 1)
            cc = np.clip(cols + dc, 0, fine_n - 1)
            nbrs[:, kk] = rr * fine_n + cc
            kk += 1

    minima = []
    chunk = 4096
    with np.errstate(invalid="ignore"):
        for lo in range(0, len(reps), chunk):
            pp = reps[lo:lo + chunk]
            m0 = reps_m[lo:lo + chunk]
            di = img[nbrs[pp[:, 0]]]              # (k, 9, 4)
            dj = img[nbrs[pp[:, 1]]]
            diff = di[:, :, None, :] - dj[:, None, :, :]
            mm = np.sqrt(np.einsum("kabc,kabc->kab", diff, diff))
            best = np.nanmin(mm.reshape(len(pp), -1), axis=1)
            for sel in np.nonzero(m0 <= best + 1e-15)[0]:
                i, j = pp[sel]
                minima.append((zz[i], zz[j], m0[sel]))
    if not minima:
        return 0

    # union-find clustering; both pair matchings are tried since the
    # ordering of nearly symmetric preimage pairs is unstable
    k = len(minima)
    parent = list(range(k))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    r_c = cluster_factor * spacing
    for i in range(k):
        ai, bi = minima[i][0], minima[i][1]
        for j in range(i + 1, k):
            aj, bj = minima[j][0], minima[j][1]
            same = ((abs(ai - aj) < r_c and abs(bi - bj) < r_c)
                    or (abs(ai - bj) < r_c and abs(bi - aj) < r_c))
            if same:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    return len({find(i) for i in range(k)})
