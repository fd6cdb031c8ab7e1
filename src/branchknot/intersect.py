"""Self-intersection search for immersed disk data.

find_double_points runs damped Newton (_kernels.newton_double_points) on
F(z1) = F(z2) with the diagonal z1 = z2 divided out, seeded from every
pair of points of a disk grid grid_n // 4 points across, and deduplicates
the converged pairs into canonical preimage pairs.  The independent check
of its signed count inside a slice is knot.linking_number_normal, which
never touches the Newton machinery.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import BranchPointInRegion
from .weierstrass import WeierstrassData, branch_points, evaluate_F, jacobian

__all__ = ["DoublePoint", "find_double_points"]

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
