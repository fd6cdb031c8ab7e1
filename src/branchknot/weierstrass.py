"""Minimal-disk data in R^4 and its pointwise geometry.

A conformal minimal map is encoded by four holomorphic polynomials
f1..f4 (given through their derivatives f1'..f4') via

    F1 + i F2 = f1 + conj(f2)        F3 + i F4 = f3 + conj(f4)

subject to f1'*f2' + f3'*f4' = 0.  This module validates such data,
evaluates the map and its differential, locates branch points, and
computes the plane-geometry layer: wedge products in Lambda^2(R^4),
Hodge star, self-dual/anti-self-dual splitting, tangent planes, the two
sphere-valued tangent-plane maps and the associated positivity pairings.

Input data is assumed pre-normalized: branch point at z = 0, image of 0
at the origin, tangent cone the (x1,x2)-plane.  No automatic rotation
into this normal form is attempted; a dominance check warns instead.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .cpoly import CPoly
from .errors import (
    ConformalityViolation,
    DegeneratePlane,
    GaussCrossCheckFailure,
    IndeterminateGauss,
    OrderMismatch,
)

__all__ = [
    "TwoVector",
    "GaussValue",
    "WeierstrassData",
    "load",
    "wedge",
    "hodge_star",
    "grassmann_split",
    "evaluate_F",
    "jacobian",
    "branch_points",
    "tangent_plane",
    "symplectic_form",
    "symplectic_positivity",
    "gauss_maps",
    "H0",
    "K0",
    "E12",
]

# ---------------------------------------------------------------------------
# Lambda^2(R^4): 6-dimensional with orthonormal basis
#   e1^e2, e1^e3, e1^e4, e2^e3, e2^e4, e3^e4   (this index order throughout)
# ---------------------------------------------------------------------------

_BASIS_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


@dataclass(frozen=True)
class TwoVector:
    """Element of Lambda^2(R^4) in the fixed 6-dim orthonormal basis."""

    components: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.components, dtype=np.float64).ravel()
        if c.size != 6:
            raise ValueError("TwoVector needs 6 components")
        object.__setattr__(self, "components", c)
        c.setflags(write=False)

    def dot(self, other: "TwoVector") -> float:
        return float(self.components @ other.components)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.components))

    def plucker(self) -> float:
        """c1*c6 - c2*c5 + c3*c4; zero iff the 2-vector is simple."""
        c = self.components
        return float(c[0] * c[5] - c[1] * c[4] + c[2] * c[3])

    def __add__(self, other):
        return TwoVector(self.components + other.components)

    def __sub__(self, other):
        return TwoVector(self.components - other.components)

    def __mul__(self, s):
        return TwoVector(self.components * float(s))

    __rmul__ = __mul__


def wedge(u, v) -> TwoVector:
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    out = np.empty(6)
    for k, (i, j) in enumerate(_BASIS_PAIRS):
        out[k] = u[i] * v[j] - u[j] * v[i]
    return TwoVector(out)


def hodge_star(v: TwoVector) -> TwoVector:
    """Hodge star on Lambda^2(R^4); an involution.

    Basis action: e1^e2 <-> e3^e4, e1^e4 <-> e2^e3, e1^e3 <-> -e2^e4.
    """
    c = v.components
    return TwoVector([c[5], -c[4], c[3], c[2], -c[1], c[0]])


def grassmann_split(P: TwoVector) -> tuple[TwoVector, TwoVector]:
    """Self-dual / anti-self-dual parts (P + *P)/sqrt2, (P - *P)/sqrt2.

    For a unit simple P both parts are unit vectors and P = (H + K)/sqrt2.
    """
    s = hodge_star(P)
    inv = 1.0 / math.sqrt(2.0)
    return TwoVector((P.components + s.components) * inv), \
        TwoVector((P.components - s.components) * inv)


E12 = TwoVector([1.0, 0, 0, 0, 0, 0])
# splitting of the reference plane at the branch point; these induce the two
# constant-coefficient symplectic pairings used for positivity checks
H0, K0 = grassmann_split(E12)


def symplectic_form(h0: TwoVector, u, v) -> float:
    """<h0, u ^ v> for vectors u, v in R^4."""
    return h0.dot(wedge(u, v))


# ---------------------------------------------------------------------------
# Sphere-valued tangent plane coordinates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GaussValue:
    """Point on the Riemann sphere: finite complex value or infinity."""

    value: complex = 0j
    at_infinity: bool = False

    @classmethod
    def from_quotient(cls, num: complex, den: complex,
                      scale: float = 1.0) -> "GaussValue":
        floor = 1e-13 * max(1.0, scale)
        if abs(num) <= floor and abs(den) <= floor:
            raise IndeterminateGauss(
                f"0/0 quotient (|num|={abs(num):.2e}, |den|={abs(den):.2e})")
        if abs(den) <= 1e-15 * abs(num):
            return cls(0j, True)
        return cls(num / den, False)

    def chordal_distance(self, other: "GaussValue") -> float:
        """Distance in the round metric on the sphere of diameter 2."""
        if self.at_infinity and other.at_infinity:
            return 0.0
        if self.at_infinity:
            return 2.0 / math.sqrt(1.0 + abs(other.value) ** 2)
        if other.at_infinity:
            return 2.0 / math.sqrt(1.0 + abs(self.value) ** 2)
        a, b = self.value, other.value
        return 2.0 * abs(a - b) / math.sqrt((1 + abs(a) ** 2) * (1 + abs(b) ** 2))


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
        fprime = tuple(CPoly.from_pairs(p) for p in d["fprime"])
        return load(fprime, conf_tol=float(d.get("conf_tol", 1e-10)))

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

def evaluate_F(w: WeierstrassData, z) -> np.ndarray:
    """Map value in R^4; vectorized over arrays of z (last axis = 4)."""
    a = w.f[0](z) + np.conj(w.f[1](z))
    b = w.f[2](z) + np.conj(w.f[3](z))
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
    """Common zeros of the nonzero derivative components inside the unit disk.

    Roots of the lowest-degree nonzero component, filtered by requiring
    every other nonzero component to vanish there within
    _BRANCH_TOL * (1 + scale).
    """
    nonzero = [p for p in w.fprime if not p.is_zero]
    candidates = min(nonzero, key=lambda p: p.degree)
    if candidates.degree < 1:
        return []
    out = []
    for r in candidates.roots():
        if abs(r) >= 1.0:
            continue
        ok = True
        for p in nonzero:
            if abs(p(r)) > _BRANCH_TOL * (1.0 + p.max_abs_coeff()):
                ok = False
                break
        if ok:
            out.append(complex(r))
    out.sort(key=lambda c: (c.real, c.imag))
    # coalesce multiple roots
    dedup = []
    for r in out:
        if not dedup or abs(r - dedup[-1]) > 1e-9:
            dedup.append(r)
    return dedup


def tangent_plane(w: WeierstrassData, z: complex) -> TwoVector:
    """Oriented unit tangent 2-vector (dF/dx ^ dF/dy) / |...| at z."""
    fx, fy = jacobian(w, z)
    p = wedge(fx, fy)
    n = p.norm
    if n <= 1e-12 * max(1.0, w.coeff_scale() ** 2):
        raise DegeneratePlane(f"vanishing differential at z={z}")
    return TwoVector(p.components / n)


def symplectic_positivity(w: WeierstrassData, z: complex, orientation: int) -> float:
    """<P(z), H0> for orientation +1, <P(z), K0> for orientation -1.

    A positive value certifies the tangent plane symplectic for the
    corresponding constant-coefficient form.
    """
    P = tangent_plane(w, z)
    return P.dot(H0 if orientation >= 0 else K0)


def gauss_maps(w: WeierstrassData, z: complex, cross_check_tol: float = 1e-10):
    """Both sphere-valued tangent-plane coordinates at z, as GaussValues.

    Uses the closed quotients f3'/f2' and -f4'/f2'.  A chart whose
    numerator and denominator polynomials are both identically zero (as
    happens for the second coordinate of a complex-curve input) carries no
    information; that slot is returned as None.  Pointwise 0/0 on nonzero
    polynomials means z is a branch point and raises IndeterminateGauss.

    The first coordinate is cross-validated against the quotient of the
    complexified differentials (phi3 + i phi4) / (phi1 - i phi2) wherever
    the latter is well-conditioned; GaussCrossCheckFailure is raised when
    the two differ by more than cross_check_tol.
    """
    scale = w.coeff_scale()

    def chart(num_poly: CPoly, den_poly: CPoly, sign: complex):
        if num_poly.is_zero and den_poly.is_zero:
            return None
        num = sign * num_poly(z) if not num_poly.is_zero else 0j
        den = den_poly(z) if not den_poly.is_zero else 0j
        return GaussValue.from_quotient(num, den, scale)

    gp = chart(w.fprime[2], w.fprime[1], 1.0)
    gm = chart(w.fprime[3], w.fprime[1], -1.0)

    # independent route through the real differential
    if gp is not None:
        fx, fy = jacobian(w, z)
        phi = fx - 1j * fy
        num = phi[2] + 1j * phi[3]
        den = phi[0] - 1j * phi[1]
        if max(abs(num), abs(den)) > 1e-10 * max(1.0, scale):
            gp_phi = GaussValue.from_quotient(num, den, scale)
            d = gp.chordal_distance(gp_phi)
            if d > cross_check_tol:
                raise GaussCrossCheckFailure(
                    f"gauss map cross-check failed at z={z}: chordal distance {d:.3e}")
    return gp, gm
