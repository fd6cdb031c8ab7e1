"""Perturbation families that desingularize a branched minimal disk.

Writing f_i' = z^{n_i} * g_i with g_i(0) != 0 and relabeling indices so
n_1 is minimal, a family member for parameters A in C^{n1+1} and B in
C^{n3+1} replaces the derivative data by

    h1 = (z^n1 + sum a_i z^i) g1        h2 = z^e (z^n3 + sum b_i z^i) g2
    h3 = (z^n3 + sum b_i z^i) g3        h4 = z^e (z^n1 + sum a_i z^i) g4

with the one shift exponent e = n2 - n3 = n4 - n1 >= 0.  This keeps
h1*h2 + h3*h4 = 0 exactly (in coefficient arithmetic up to roundoff),
so every member is again valid minimal-disk data, and A = B = 0
reproduces the base map coefficient-for-coefficient.  The recipe leaves
the first sphere coordinate of the tangent-plane map untouched.

That is the family of orientation +.  The family of orientation - is its
mirror image under x4 -> -x4, which exchanges f3' and f4' (it maps
F3 + i F4 = f3 + conj(f4) to its conjugate): a - member is the recipe on
the data with slots 3 and 4 exchanged (B of length n4 + 1), exchanged
back, and it leaves the second sphere coordinate untouched instead.
Complex-curve inputs (two components identically zero, in slots 2 and 4
after relabeling) are never mirrored: for both orientations e = 0 and the
recipe reduces to h1 = (z^n1 + sum a_i z^i) g1, h3 = (z^n3 + sum b_i z^i) g3,
h2 = h4 = 0.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .cpoly import CPoly, complex_pairs, real_number
from .errors import SamplingExhausted, SecondBranchPoint
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
        orientation = d.get("orientation", "+")
        if orientation not in ("+", "-"):
            raise ValueError(f"orientation must be \"+\" or \"-\", "
                             f"got {orientation!r}")
        return cls(A=complex_pairs(d["A"], "A"), B=complex_pairs(d["B"], "B"),
                   orientation=+1 if orientation == "+" else -1,
                   t=real_number(d.get("t", 0.0), "t", "a finite number in [0, 1]",
                                 0.0, 1.0))

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
    deformed: WeierstrassData
    reduced: bool
    relabel: tuple
    det_polys: tuple

    def to_json_dict(self) -> dict:
        return {"params": self.params.to_json_dict(),
                "h": [p.to_pairs() for p in self.deformed.fprime],
                "reduced": self.reduced,
                "relabel": list(self.relabel)}


# ---------------------------------------------------------------------------
# the member's frame and the recipe
# ---------------------------------------------------------------------------

def relabel_orders(w: WeierstrassData):
    """Permutation bringing data into the frame used by the recipe.

    Slot 1 takes the component of least (order, index) and slot 2 its
    pair partner; slots 3 and 4 take the other pair, a nonzero component
    before a zero one and ties in index order.  So complex-curve data has
    its zero components in slots 2 and 4, and the rule is idempotent.
    Returns (relabeled data, perm) with perm[i] = original slot in slot i.
    """
    zero = [p.is_zero for p in w.fprime]
    if sum(zero) not in (0, 2):
        raise ValueError("family construction needs at least f1' and f3' nonzero "
                         f"after normalization (got {4 - sum(zero)} nonzero)")
    i = min(range(4), key=lambda k: (w.orders[k], k))
    other_pair = [k for k in range(4) if k // 2 != i // 2]
    perm = (i, i ^ 1, *sorted(other_pair, key=lambda k: (zero[k], k)))
    if zero[perm[2]]:
        raise ValueError("both zero components lie in one coordinate pair")
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
    relabeled = load(tuple(w.fprime[k] for k in perm), conf_tol=w.conf_tol)
    return relabeled, perm


# x4 -> -x4 as a slot permutation (f3' and f4' exchanged), its own inverse
_MIRROR = (0, 1, 3, 2)


def _mirrored(base: WeierstrassData, orientation: int) -> bool:
    """Whether members of this orientation on relabeled data base are the
    recipe on the mirror: orientation - on full data.  Complex-curve data,
    with its zero components in slots 2 and 4, is never mirrored."""
    return orientation < 0 and not base.fprime[1].is_zero


def _frame(w: WeierstrassData, orientation: int) -> tuple:
    """(base, perm, slots) of the members of w: w relabeled and the
    permutation (relabel_orders), and the order in which the recipe reads
    base's slots, _MIRROR when _mirrored and the identity otherwise."""
    base, perm = relabel_orders(w)
    return base, perm, _MIRROR if _mirrored(base, orientation) else (0, 1, 2, 3)


def _factors(frame: tuple, p: PerturbParams) -> tuple:
    """The monic factors (PA, PB) of p in frame (_frame): z^n1 + sum a_i z^i
    and z^n3 + sum b_i z^i, n3 the order of the slot the recipe reads third."""
    base, _, slots = frame
    out = []
    for n, coeffs in ((base.orders[0], p.A), (base.orders[slots[2]], p.B)):
        if coeffs.size != n + 1:
            raise ValueError(f"parameter vector must have length {n + 1}, "
                             f"got {coeffs.size}")
        out.append(CPoly.monomial(n) + CPoly(coeffs))
    return tuple(out)


def _member(frame: tuple, p: PerturbParams) -> FamilyMember:
    """The member of p in frame (_frame).

    The recipe reads base in the frame's slots, and h is read back into
    base's slots before the one load.  The deformed data is revalidated on
    construction; its conformality residual is held to 1e-12 of the
    coefficient scale.
    """
    base, perm, slots = frame
    g = tuple(base.fprime[k].shift_down(base.orders[k])
              if not base.fprime[k].is_zero else CPoly.zero()
              for k in slots)
    reduced = g[1].is_zero
    # n1 is the least order and n1 + n2 = n3 + n4, so e = n4 - n1 >= 0; on
    # complex-curve data the shifted factors multiply g2 = g4 = 0
    e = 0 if reduced else base.orders[slots[1]] - base.orders[slots[2]]
    if e == 0 and not reduced:
        warnings.warn("shift exponent is zero; the quadratic lower bound "
                      "for the pair-separation determinant is not "
                      "guaranteed", stacklevel=3)
    PA, PB = _factors(frame, p)
    shift = CPoly.monomial(e)
    h = (PA * g[0], shift * PB * g[1], PB * g[2], shift * PA * g[3])
    det_polys = (g[0].antiderivative(), (shift * g[3]).antiderivative(),
                 (shift * g[1]).antiderivative(), g[2].antiderivative())
    return FamilyMember(base=base, params=p,
                        deformed=load(tuple(h[k] for k in slots), conf_tol=1e-12),
                        reduced=reduced, relabel=perm, det_polys=det_polys)


def build_family_member(w: WeierstrassData, p: PerturbParams) -> FamilyMember:
    """Assemble one family member from base data and parameters: the
    member of p in the frame of w (_member)."""
    if np.linalg.norm(p.A) > 1.0 + 1e-12 or np.linalg.norm(p.B) > 1.0 + 1e-12:
        raise ValueError("parameter vectors must lie in the unit balls")
    return _member(_frame(w, p.orientation), p)


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
    roots = []
    for poly in _factors(_frame(w, p.orientation), p):
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
                   orientation: int = +1) -> FamilyMember:
    """The member of the first draw of size <= t passing the genericity test.

    A draw is accepted when the monic factors have simple nonzero roots
    and the deformed map has no branch point in the unit disk.  No double
    point is searched: the pair-separation determinant, the parameter
    derivative of F(z1) - F(z2), is bounded below off the diagonal
    (acceptance criterion 05), so almost every draw is transverse.  The
    frame is decided once per call.  Deterministic for a fixed seed.
    Raises ValueError for a negative rng_seed; SamplingExhausted when t is
    None, not finite and > 0 or above 1, or no draw of the _MAX_DRAWS
    passes; and SecondBranchPoint, before any draw, when w has a branch
    point other than 0 in the unit disk, which every member keeps.
    """
    if rng_seed < 0:
        raise ValueError(f"sampler seed must be a non-negative integer, got {rng_seed}")
    if t is None or not (math.isfinite(t) and t > 0):
        raise SamplingExhausted(
            f"perturbation scale t must be finite and > 0, got {t}")
    if t > 1:
        raise SamplingExhausted(f"perturbation scale t must be at most 1, got {t}")
    frame = _frame(w, orientation)
    base, _, slots = frame
    na, nb = base.orders[0], base.orders[slots[2]]
    # the member at A = B = 0 is base with exact vanishing orders at 0, and
    # every member's h_i carries g_i: a common zero of the g_i is kept
    still = _member(frame, PerturbParams(A=np.zeros(na + 1), B=np.zeros(nb + 1),
                                         orientation=orientation))
    for b in branch_points(still.deformed):
        if abs(b) > _ROOT_SEP_TOL:
            raise SecondBranchPoint(
                f"branch point at z = {b.real:.6g}{b.imag + 0.0:+.6g}j besides "
                "z = 0 in the unit disk; every family member keeps it")

    rng = np.random.default_rng(rng_seed)

    def ball(dim_c: int) -> np.ndarray:
        v = rng.standard_normal(2 * dim_c)
        v /= np.linalg.norm(v)
        r = t * rng.uniform() ** (1.0 / (2 * dim_c))
        return (v[:dim_c] + 1j * v[dim_c:]) * r

    for _ in range(_MAX_DRAWS):
        p = PerturbParams(A=ball(na + 1), B=ball(nb + 1),
                          orientation=orientation, t=t)
        if not check_X1(p, base):
            continue
        fm = _member(frame, p)
        if not branch_points(fm.deformed):
            return fm
    raise SamplingExhausted(f"no generic parameters found in {_MAX_DRAWS} draws "
                            f"at scale t={t}")


# ---------------------------------------------------------------------------
# invariance and transversality checks
# ---------------------------------------------------------------------------

def gauss_invariance_residual(fm: FamilyMember, sample_points) -> float:
    """Largest chordal gap between base and deformed tangent-sphere maps.

    The gap is the Euclidean distance of the two points on the unit
    sphere, taken over all sample points at once, in the chart the recipe
    preserves: the first sphere coordinate, or the second on a mirrored
    member, as exchanging f3' and f4' exchanges the two up to sign.
    Reduced members are never mirrored: the first chart is the only one
    their zero components leave defined.  0.0 when neither map has the
    chart, inf when only one has it.
    """
    idx = 1 if _mirrored(fm.base, fm.params.orientation) else 0
    z = np.asarray(sample_points)
    gb = gauss_maps(fm.base, z)[idx]
    gd = gauss_maps(fm.deformed, z)[idx]
    if gb is None and gd is None:
        return 0.0
    if gb is None or gd is None:
        return math.inf
    return float(np.linalg.norm(gb - gd, axis=-1).max(initial=0.0))


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
