"""Minimal-disk data in R^4 and its pointwise geometry.

A conformal minimal map is encoded by four holomorphic polynomials
f1..f4 (given through their derivatives f1'..f4') via

    F1 + i F2 = f1 + conj(f2)        F3 + i F4 = f3 + conj(f4)

subject to f1'*f2' + f3'*f4' = 0.  This module validates such data,
evaluates the map and its differential, locates branch points, and
computes the plane geometry: tangent planes as the six Plucker
coordinates of dF/dx ^ dF/dy, the two sphere-valued tangent-plane maps
as points of the unit sphere in R^3, and the positivity pairings with
the self-dual and anti-self-dual parts of the reference plane e12,
H0 = (e12 + e34)/sqrt2 and K0 = (e12 - e34)/sqrt2.

Input data is assumed pre-normalized: branch point at z = 0, image of 0
at the origin, tangent cone the (x1,x2)-plane.  No rotation into this
normal form is attempted (a dominance check warns); family members only
permute coordinates, least order first (deformation.relabel_orders).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .cpoly import CPoly, real_number
from .errors import (
    ConformalityViolation,
    DegeneratePlane,
    GaussCrossCheckFailure,
    IndeterminateGauss,
    OrderMismatch,
)

__all__ = [
    "WeierstrassData",
    "load",
    "evaluate_F",
    "jacobian",
    "branch_points",
    "tangent_plane",
    "symplectic_positivity",
    "gauss_maps",
]

# ---------------------------------------------------------------------------
# Validated map data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeierstrassData:
    """Four derivative polynomials, their primitives, and branch bookkeeping.

    orders[i] is the vanishing order of fprime[i] at 0 (math.inf for a zero
    component).  N = 1 + min(orders) is the local winding multiplicity of
    F1 + i F2; N >= 2 exactly when 0 is a branch point.
    """

    fprime: tuple
    f: tuple
    orders: tuple
    N: int
    conf_tol: float

    def conformality_residual(self) -> float:
        r = self.fprime[0] * self.fprime[1] + self.fprime[2] * self.fprime[3]
        return r.max_abs_coeff()

    def coeff_scale(self) -> float:
        return max(p.max_abs_coeff() for p in self.fprime)

    # -- wire format --------------------------------------------------------

    @classmethod
    def from_json_dict(cls, d: dict) -> "WeierstrassData":
        if not isinstance(d["fprime"], list):
            raise ValueError("fprime must be a list of four coefficient "
                             f"lists, got {d['fprime']!r}")
        fprime = tuple(CPoly.from_pairs(p, f"fprime[{i}]")
                       for i, p in enumerate(d["fprime"]))
        # a number that is not finite is refused here, one <= 0 by load
        return load(fprime, conf_tol=real_number(d.get("conf_tol", 1e-10),
                                                 "conf_tol", "finite and positive"))

    def to_json_dict(self) -> dict:
        return {"fprime": [p.to_pairs() for p in self.fprime],
                "conf_tol": self.conf_tol}


def load(fprime, conf_tol: float = 1e-10) -> WeierstrassData:
    """Validate derivative data and cache orders, primitives and N.

    Raises ValueError unless conf_tol is finite and positive,
    ConformalityViolation when f1'f2' + f3'f4' has a coefficient above
    conf_tol * (1 + coefficient scale), and OrderMismatch when all four
    components are nonzero but n1 + n2 != n3 + n4.
    """
    if not (math.isfinite(conf_tol) and conf_tol > 0):
        raise ValueError(f"conf_tol must be finite and positive, got {conf_tol!r}")
    fprime = tuple(p if isinstance(p, CPoly) else CPoly(p) for p in fprime)
    if len(fprime) != 4:
        raise ValueError("expected four derivative polynomials")
    if all(p.is_zero for p in fprime):
        raise ValueError("at least one component must be nonzero")

    scale = max(1.0, max(p.max_abs_coeff() for p in fprime) ** 2)
    resid = (fprime[0] * fprime[1] + fprime[2] * fprime[3]).max_abs_coeff()
    if resid > conf_tol * scale:
        raise ConformalityViolation(
            f"conformality residual {resid:.3e} > {conf_tol:.1e} * {scale:.3e}")

    orders = tuple(p.valuation() for p in fprime)
    if all(o is not math.inf for o in orders):
        if orders[0] + orders[1] != orders[2] + orders[3]:
            raise OrderMismatch(
                f"n1+n2 = {orders[0] + orders[1]} != {orders[2] + orders[3]} = n3+n4")

    branched_at_zero = min(o for o in orders if o is not math.inf) >= 1
    if branched_at_zero and min(orders[0], orders[1]) >= min(orders[2], orders[3]):
        warnings.warn("data not in branch normal form: lowest-order term is "
                      "not carried by the first coordinate pair", stacklevel=2)

    f = tuple(p.antiderivative() for p in fprime)
    N = 1 + min(o for o in orders if o is not math.inf)
    return WeierstrassData(fprime=fprime, f=f, orders=orders, N=int(N),
                           conf_tol=conf_tol)


# ---------------------------------------------------------------------------
# Pointwise evaluation
# ---------------------------------------------------------------------------

def _complex_F(w: WeierstrassData, z):
    """The map value as the complex pair (F1 + i F2, F3 + i F4)."""
    return w.f[0](z) + np.conj(w.f[1](z)), w.f[2](z) + np.conj(w.f[3](z))


def evaluate_F(w: WeierstrassData, z) -> np.ndarray:
    """Map value in R^4; vectorized over arrays of z (last axis = 4)."""
    a, b = _complex_F(w, z)
    return np.stack([np.real(a), np.imag(a), np.real(b), np.imag(b)], axis=-1)


def jacobian(w: WeierstrassData, z):
    """Partial derivative vectors (dF/dx, dF/dy) at z, each in R^4."""
    d = [p(z) for p in w.fprime]
    fx = np.stack([np.real(d[0] + d[1]), np.imag(d[0] - d[1]),
                   np.real(d[2] + d[3]), np.imag(d[2] - d[3])], axis=-1)
    fy = np.stack([-np.imag(d[0] + d[1]), np.real(d[0] - d[1]),
                   -np.imag(d[2] + d[3]), np.real(d[2] - d[3])], axis=-1)
    return fx, fy


_BRANCH_TOL = 1e-9


def branch_points(w: WeierstrassData) -> list:
    """Branch points inside the unit disk: 0 whenever N >= 2, and the
    common zeros of the nonzero derivative components.

    The others are the roots of the lowest-degree nonzero component with
    its first orders[k] coefficients, those valuation reads as zero,
    dropped, filtered by requiring every other nonzero component to
    vanish there within _BRANCH_TOL * (1 + scale).  Roots within 1e-9 of
    one kept before them are coalesced, and 0 is kept first.
    """
    nonzero = [p for p in w.fprime if not p.is_zero]
    k = min((p.degree, k) for k, p in enumerate(w.fprime) if not p.is_zero)[1]
    candidates = CPoly(w.fprime[k].coeffs[w.orders[k]:])
    out = [0j] if w.N >= 2 else []
    for r in (candidates.roots() if candidates.degree >= 1 else ()):
        if (abs(r) < 1.0 and all(abs(r - s) > 1e-9 for s in out)
                and all(abs(p(r)) <= _BRANCH_TOL * (1.0 + p.max_abs_coeff())
                        for p in nonzero)):
            out.append(complex(r))
    return sorted(out, key=lambda c: (c.real, c.imag))


# the Plucker coordinates of a plane, in this basis order:
#   e1^e2, e1^e3, e1^e4, e2^e3, e2^e4, e3^e4
_BASIS_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def tangent_plane(w: WeierstrassData, z) -> np.ndarray:
    """Oriented unit tangent plane (dF/dx ^ dF/dy) / |...| at z.

    Vectorized over arrays of z: the last axis holds the six Plucker
    coordinates, so the shape is np.shape(z) + (6,).  Raises
    DegeneratePlane when the differential vanishes at any of the points:
    when |dF/dx ^ dF/dy| is at most 1e-12 of its rounding scale
    |dF/dx| |dF/dy|, which it equals on conformal data.
    """
    fx, fy = jacobian(w, z)
    p = np.stack([fx[..., i] * fy[..., j] - fx[..., j] * fy[..., i]
                  for i, j in _BASIS_PAIRS], axis=-1)
    n = np.linalg.norm(p, axis=-1, keepdims=True)
    scale = np.linalg.norm(fx, axis=-1) * np.linalg.norm(fy, axis=-1)
    degenerate = n[..., 0] <= 1e-12 * scale
    if degenerate.any():
        bad = np.asarray(z)[degenerate]
        raise DegeneratePlane(f"vanishing differential at z={bad[0]} "
                              f"({bad.size} of {degenerate.size} points)")
    return p / n


def symplectic_positivity(w: WeierstrassData, z, orientation: int):
    """<P(z), H0> for orientation +1, <P(z), K0> for orientation -1.

    H0 = (e12 + e34)/sqrt2 and K0 = (e12 - e34)/sqrt2, so the pairing is
    (P12 +- P34)/sqrt2; vectorized over arrays of z like tangent_plane.
    A positive value certifies the tangent plane symplectic for the
    corresponding constant-coefficient form.
    """
    P = tangent_plane(w, z)
    sign = 1.0 if orientation >= 0 else -1.0
    return (P[..., 0] + sign * P[..., 5]) / math.sqrt(2.0)


def _sphere_point(num, den, scale: float) -> np.ndarray:
    """Inverse stereographic image of num/den on the unit sphere in R^3.

    (2 Re(num conj den), 2 Im(num conj den), |num|^2 - |den|^2) divided by
    |num|^2 + |den|^2, so no quotient is taken: den = 0 is the pole
    (0, 0, 1), and the chordal distance of two values is the Euclidean
    distance of their points.  Vectorized; the last axis holds (X, Y, Z).
    Raises IndeterminateGauss where |num| and |den| are both at most
    1e-13 * max(1, scale).
    """
    an, ad = np.abs(num), np.abs(den)
    floor = 1e-13 * max(1.0, scale)
    zero = (an <= floor) & (ad <= floor)
    if zero.any():
        raise IndeterminateGauss(f"0/0 quotient (|num|={an[zero][0]:.2e}, "
                                 f"|den|={ad[zero][0]:.2e})")
    cross = 2.0 * num * np.conj(den)
    nn, dd = an ** 2, ad ** 2
    return (np.stack([np.real(cross), np.imag(cross), nn - dd], axis=-1)
            / (nn + dd)[..., None])


# the two Gauss-map routes agree within this chordal distance
_CROSS_CHECK_TOL = 1e-10


def _larger_pair(a, b):
    """Pointwise the (num, den) pair of a and b with the larger
    |num|^2 + |den|^2, a where they tie."""
    use_b = (np.abs(b[0]) ** 2 + np.abs(b[1]) ** 2
             > np.abs(a[0]) ** 2 + np.abs(a[1]) ** 2)
    return np.where(use_b, b[0], a[0]), np.where(use_b, b[1], a[1])


def gauss_maps(w: WeierstrassData, z):
    """Both sphere-valued tangent-plane coordinates at z, as unit 3-vectors.

    Since f1'f2' + f3'f4' = 0, each coordinate is a quotient two ways:

        gamma+ = f3'/f2' = -f1'/f4'        gamma- = -f4'/f2' = f1'/f3'

    (the two (num, den) pairs are proportional wherever both are nonzero).
    At each point the pair with the larger |num|^2 + |den|^2 is used and
    returned as its point on the unit sphere (see _sphere_point; the value
    g is (X + iY) / (1 - Z)), so a quotient is 0/0 only where all four f'
    vanish: z is a branch point, and IndeterminateGauss is raised.
    Vectorized: each coordinate has shape np.shape(z) + (3,).  A chart
    whose first pair is identically zero (as happens for the second
    coordinate of a complex-curve input) carries no information; that
    slot is returned as None.

    The first coordinate is cross-validated against the same quotients of
    the complexified differentials phi = dF/dx - i dF/dy,
    (phi3 + i phi4) / (phi1 - i phi2) or -(phi1 + i phi2) / (phi3 - i phi4),
    chosen the same way from their own values, wherever they are
    well-conditioned; GaussCrossCheckFailure is raised when the two points
    are farther apart than _CROSS_CHECK_TOL.
    """
    scale = w.coeff_scale()
    f = w.fprime
    d = [p(z) for p in f]
    gp = gm = None
    if not (f[2].is_zero and f[1].is_zero):
        gp = _sphere_point(*_larger_pair((d[2], d[1]), (-d[0], d[3])), scale)
    if not (f[3].is_zero and f[1].is_zero):
        gm = _sphere_point(*_larger_pair((-d[3], d[1]), (d[0], d[2])), scale)

    # independent route through the real differential
    if gp is not None:
        fx, fy = jacobian(w, z)
        phi = fx - 1j * fy
        num, den = _larger_pair(
            (phi[..., 2] + 1j * phi[..., 3], phi[..., 0] - 1j * phi[..., 1]),
            (-(phi[..., 0] + 1j * phi[..., 1]), phi[..., 2] - 1j * phi[..., 3]))
        cond = np.maximum(np.abs(num), np.abs(den)) > 1e-10 * max(1.0, scale)
        dist = np.linalg.norm(gp[cond] - _sphere_point(num[cond], den[cond], scale),
                              axis=-1)
        bad = dist > _CROSS_CHECK_TOL
        if bad.any():
            raise GaussCrossCheckFailure(
                f"gauss map cross-check failed at z={np.asarray(z)[cond][bad][0]}: "
                f"chordal distance {dist[bad].max():.3e}")
    return gp, gm
