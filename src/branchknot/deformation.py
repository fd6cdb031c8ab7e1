"""Perturbation families that desingularize a branched minimal disk.

Writing f_i' = z^{n_i} * g_i with g_i(0) != 0 and relabeling indices so
n_1 is minimal, a family member for parameters A in C^{n1+1}, B (length
n3+1 for orientation +, n4+1 for orientation -) replaces the derivative
data by

  orientation +:
    h1 = (z^n1 + sum a_i z^i) g1        h2 = z^(n2-n3) (z^n3 + sum b_i z^i) g2
    h3 = (z^n3 + sum b_i z^i) g3        h4 = z^(n4-n1) (z^n1 + sum a_i z^i) g4

  orientation -:
    h1 = (z^n1 + sum a_i z^i) g1        h2 = z^(n2-n4) (z^n4 + sum b_i z^i) g2
    h3 = z^(n3-n1) (z^n1 + sum a_i z^i) g3    h4 = (z^n4 + sum b_i z^i) g4

The - recipe is the + recipe with slots 3 and 4 exchanged: one of them
takes the factor in b, the other the shifted factor in a.  Both keep
h1*h2 + h3*h4 = 0 exactly (in coefficient arithmetic up to roundoff),
so every member is again valid minimal-disk data.  A = B = 0
reproduces the base map coefficient-for-coefficient.  The + recipe leaves
the first sphere coordinate of the tangent-plane map untouched, the -
recipe the second one.

Complex-curve inputs (two components identically zero) use the reduced
recipe h1 = (z^n1 + sum a_i z^i) g1, h3 = (z^n3 + sum b_i z^i) g3,
h2 = h4 = 0, identical for both orientations (the shifted factors are
vacuous there).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .cpoly import CPoly
from .errors import BranchPointInRegion, OrderViolation, SamplingExhausted
from .intersect import find_double_points, is_transverse
from .weierstrass import WeierstrassData, branch_points, gauss_maps, load

__all__ = ["PerturbParams", "FamilyMember", "build_family_member", "check_X1",
           "sample_generic", "gauss_invariance_residual",
           "transversality_determinant", "transversality_determinant_direct"]


@dataclass(frozen=True)
class PerturbParams:
    """One point of the parameter domain (product of unit balls)."""

    A: np.ndarray
    B: np.ndarray
    orientation: int = +1
    t: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "A", np.asarray(self.A, np.complex128).ravel())
        object.__setattr__(self, "B", np.asarray(self.B, np.complex128).ravel())
        if self.orientation not in (+1, -1):
            raise ValueError("orientation must be +1 or -1")

    @classmethod
    def from_json_dict(cls, d: dict) -> "PerturbParams":
        return cls(A=np.array([complex(re, im) for re, im in d["A"]]),
                   B=np.array([complex(re, im) for re, im in d["B"]]),
                   orientation=+1 if d.get("orientation", "+") == "+" else -1,
                   t=float(d.get("t", 0.0)))

    def to_json_dict(self) -> dict:
        return {"A": [[c.real, c.imag] for c in self.A],
                "B": [[c.real, c.imag] for c in self.B],
                "orientation": "+" if self.orientation > 0 else "-",
                "t": self.t}


@dataclass(frozen=True)
class FamilyMember:
    """A constructed family member and its bookkeeping.

    base is the (possibly index-relabeled) source data; relabel gives the
    original index carried in each slot.  det_polys holds the four
    antiderivatives entering the pair-separation determinant.
    """

    base: WeierstrassData
    params: PerturbParams
    h: tuple
    deformed: WeierstrassData
    reduced: bool
    relabel: tuple
    det_polys: tuple

    def to_json_dict(self) -> dict:
        return {"params": self.params.to_json_dict(),
                "h": [p.to_pairs() for p in self.h],
                "reduced": self.reduced,
                "relabel": list(self.relabel)}


# ---------------------------------------------------------------------------
# index relabeling
# ---------------------------------------------------------------------------

def _apply_perm(seq, perm):
    return tuple(seq[p] for p in perm)


def relabel_orders(w: WeierstrassData):
    """Permutation bringing data into the frame used by the recipes.

    For full data: the minimal vanishing order moves to slot 1, using only
    the swaps 1<->2, 3<->4 and the pair swap (1,2)<->(3,4); ties keep the
    original index order.  For complex-curve data the zero components move
    to slots 2 and 4 and the lower-order nonzero component to slot 1.
    Returns (relabeled data, perm) with perm[i] = original slot in slot i.
    """
    zeros = [i for i in range(4) if w.fprime[i].is_zero]
    if len(zeros) == 0:
        imin = min(range(4), key=lambda i: (w.orders[i], i))
        perm = {0: (0, 1, 2, 3), 1: (1, 0, 2, 3),
                2: (2, 3, 0, 1), 3: (3, 2, 0, 1)}[imin]
    elif len(zeros) == 2:
        p = [0, 1, 2, 3]
        if w.fprime[p[0]].is_zero:
            p[0], p[1] = p[1], p[0]
        if w.fprime[p[2]].is_zero:
            p[2], p[3] = p[3], p[2]
        if w.fprime[p[0]].is_zero or w.fprime[p[2]].is_zero:
            raise ValueError("both zero components lie in one coordinate pair")
        if w.orders[p[2]] < w.orders[p[0]]:
            p = [p[2], p[3], p[0], p[1]]
        perm = tuple(p)
    else:
        raise ValueError("family construction needs at least f1' and f3' nonzero "
                         f"after normalization (got {4 - len(zeros)} nonzero)")

    if perm == (0, 1, 2, 3):
        return w, perm
    inversions = sum(1 for i in range(4) for j in range(i + 1, 4)
                     if perm[i] > perm[j])
    if inversions % 2:
        # an odd relabeling mirrors one coordinate plane; crossing signs
        # computed downstream then refer to the mirrored frame
        warnings.warn("order relabeling reflects one coordinate plane; braid "
                      "sign conventions apply in the relabeled frame",
                      stacklevel=2)
    relabeled = load(_apply_perm(w.fprime, perm), conf_tol=w.conf_tol)
    return relabeled, perm


# ---------------------------------------------------------------------------
# family construction
# ---------------------------------------------------------------------------

def _monic_factor(n: int, coeffs: np.ndarray) -> CPoly:
    if coeffs.size != n + 1:
        raise ValueError(f"parameter vector must have length {n + 1}, "
                         f"got {coeffs.size}")
    return CPoly.monomial(n) + CPoly(coeffs)


def _pb_slot(base: WeierstrassData, orientation: int) -> int:
    """Index of the slot whose factor is PB: 2 (f3') for orientation + and
    for complex-curve data, 3 (f4') for orientation -.  The other slot of
    the second pair takes the shifted PA."""
    reduced = base.fprime[1].is_zero and base.fprime[3].is_zero
    return 2 if (reduced or orientation > 0) else 3


def build_family_member(w: WeierstrassData, p: PerturbParams) -> FamilyMember:
    """Assemble one family member from base data and parameters.

    The deformed data is revalidated on construction; its conformality
    residual is held to 1e-12 of the coefficient scale.
    """
    if np.linalg.norm(p.A) > 1.0 + 1e-12 or np.linalg.norm(p.B) > 1.0 + 1e-12:
        raise ValueError("parameter vectors must lie in the unit balls")

    base, perm = relabel_orders(w)
    g = tuple(base.fprime[i].shift_down(base.orders[i])
              if not base.fprime[i].is_zero else CPoly.zero()
              for i in range(4))
    n = base.orders
    reduced = base.fprime[1].is_zero and base.fprime[3].is_zero
    ib = _pb_slot(base, p.orientation)
    ia = 5 - ib
    if reduced:
        # the shifted factors multiply the zero components g2 = g4 = 0
        eb = ea = 0
    else:
        eb, ea = n[1] - n[ib], n[ia] - n[0]
        if eb < 0 or ea < 0:
            raise OrderViolation(f"shift exponents negative: n2-n{ib + 1}={eb}, "
                                 f"n{ia + 1}-n1={ea}")
        if eb == 0 or ea == 0:
            warnings.warn("shift exponent is zero; the quadratic lower bound "
                          "for the pair-separation determinant is not "
                          "guaranteed", stacklevel=2)
    PA = _monic_factor(n[0], p.A)
    PB = _monic_factor(n[ib], p.B)
    h = [PA * g[0], CPoly.monomial(eb) * PB * g[1], None, None]
    h[ib] = PB * g[ib]
    h[ia] = CPoly.monomial(ea) * PA * g[ia]
    h = tuple(h)
    det_polys = (g[0].antiderivative(),
                 (CPoly.monomial(ea) * g[ia]).antiderivative(),
                 (CPoly.monomial(eb) * g[1]).antiderivative(),
                 g[ib].antiderivative())

    deformed = load(h, conf_tol=1e-12)
    return FamilyMember(base=base, params=p, h=h, deformed=deformed,
                        reduced=reduced, relabel=perm, det_polys=det_polys)


# ---------------------------------------------------------------------------
# genericity
# ---------------------------------------------------------------------------

_ROOT_SEP_TOL = 1e-6
_MAX_DRAWS = 1000


def check_X1(p: PerturbParams, w: WeierstrassData) -> bool:
    """True iff the two monic perturbation factors have simple nonzero roots.

    Roots within _ROOT_SEP_TOL of 0 or of each other fail.  Distinctness
    is pooled across both factors: a shared root would be a common zero of
    all four deformed components, i.e. a branch point.
    """
    base, _ = relabel_orders(w)
    roots = []
    for n, vec in ((base.orders[0], p.A),
                   (base.orders[_pb_slot(base, p.orientation)], p.B)):
        poly = _monic_factor(n, vec)
        if poly.degree >= 1:
            roots.extend(poly.roots())
    for i, r in enumerate(roots):
        if abs(r) <= _ROOT_SEP_TOL:
            return False
        for s in roots[i + 1:]:
            if abs(r - s) <= _ROOT_SEP_TOL:
                return False
    return True


def sample_generic(w: WeierstrassData, t: float, rng_seed: int,
                   orientation: int = +1) -> PerturbParams:
    """Draw parameters of size <= t passing the rejection battery.

    A draw is accepted when the monic factors have simple nonzero roots,
    the deformed map has no branch point in the unit disk, and every
    double point the grid-32 search finds in |z| <= 0.5 is transverse.
    Deterministic for a fixed seed.  Raises SamplingExhausted when t is
    not finite and > 0, or no draw of the _MAX_DRAWS passes.
    """
    if not (math.isfinite(t) and t > 0):
        raise SamplingExhausted(
            f"perturbation scale t must be finite and > 0, got {t}")
    base, _ = relabel_orders(w)
    na, nb = base.orders[0], base.orders[_pb_slot(base, orientation)]

    rng = np.random.default_rng(rng_seed)

    def ball(dim_c: int) -> np.ndarray:
        v = rng.standard_normal(2 * dim_c)
        v /= np.linalg.norm(v)
        r = t * rng.uniform() ** (1.0 / (2 * dim_c))
        return (v[:dim_c] + 1j * v[dim_c:]) * r

    for _ in range(_MAX_DRAWS):
        p = PerturbParams(A=ball(na + 1), B=ball(nb + 1),
                          orientation=orientation, t=t)
        if not check_X1(p, w):
            continue
        fm = build_family_member(w, p)
        if branch_points(fm.deformed):
            continue
        try:
            dps = find_double_points(fm.deformed, radius=0.5, grid_n=32)
        except BranchPointInRegion:
            continue
        if all(is_transverse(dp, fm.deformed) for dp in dps):
            return p
    raise SamplingExhausted(f"no generic parameters found in {_MAX_DRAWS} draws "
                            f"at scale t={t}")


# ---------------------------------------------------------------------------
# invariance and transversality checks
# ---------------------------------------------------------------------------

def gauss_invariance_residual(fm: FamilyMember, sample_points) -> float:
    """Largest chordal gap between base and deformed tangent-sphere maps.

    Orientation + compares the first sphere coordinate, orientation - the
    second.  Reduced members compare the first coordinate for either
    orientation: it is the only chart their zero components leave defined,
    and the one the reduced recipe preserves.
    """
    idx = 0 if (fm.reduced or fm.params.orientation > 0) else 1
    worst = 0.0
    for z in sample_points:
        gb = gauss_maps(fm.base, z)[idx]
        gd = gauss_maps(fm.deformed, z)[idx]
        if gb is None and gd is None:
            continue
        if gb is None or gd is None:
            return math.inf
        worst = max(worst, gb.chordal_distance(gd))
    return worst


def _delta(poly: CPoly, z1: complex, z2: complex) -> complex:
    return poly(z1) - poly(z2)


def transversality_determinant(fm: FamilyMember, z1: complex,
                               z2: complex) -> complex:
    """Closed-form pair-separation determinant for preimages z1, z2.

    Vanishes quadratically in z1 - z2, and when the shift exponents are
    positive it is bounded below by C * |z1 - z2|^2 near the origin; a
    nonzero value certifies the double-point equation transverse at the
    pair.
    """
    ta1, ta2, tb1, tb2 = fm.det_polys
    return (_delta(ta1, z1, z2) * np.conj(_delta(tb2, z1, z2))
            - _delta(ta2, z1, z2) * np.conj(_delta(tb1, z1, z2)))


def transversality_determinant_direct(fm: FamilyMember, z1: complex,
                                      z2: complex) -> complex:
    """Same determinant assembled as an explicit 4x4 complex determinant.

    Columns: the parameter derivative of the doubled map in its complex
    chart, the conjugate-parameter derivative, and the two diagonal
    directions (1,0,1,0), (0,1,0,1).  Agrees with the closed form to
    roundoff; kept as an independent route for cross-checking.
    """
    ta1, ta2, tb1, tb2 = fm.det_polys
    M = np.array([
        [ta1(z1), np.conj(tb1(z1)), 1.0, 0.0],
        [ta2(z1), np.conj(tb2(z1)), 0.0, 1.0],
        [ta1(z2), np.conj(tb1(z2)), 1.0, 0.0],
        [ta2(z2), np.conj(tb2(z2)), 0.0, 1.0],
    ], dtype=np.complex128)
    return complex(np.linalg.det(M))
