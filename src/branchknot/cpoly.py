"""Dense complex polynomials.

The whole pipeline runs on polynomials with complex coefficients stored
lowest-degree-first.  Degrees stay small (tens at most), so everything is
dense and eager.  The zero polynomial is a first-class value: holomorphic
curve data has two components identically zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["CPoly"]

_ROOT_RESIDUAL_TOL = 1e-6


def _as_coeff_array(coeffs) -> np.ndarray:
    arr = np.asarray(coeffs, dtype=np.complex128).ravel()
    # canonical trimmed form: drop exact trailing zeros
    n = arr.size
    while n > 0 and arr[n - 1] == 0:
        n -= 1
    return arr[:n].copy()


@dataclass(frozen=True, eq=False)
class CPoly:
    """Polynomial sum(coeffs[k] * z**k) in canonical trimmed form."""

    coeffs: np.ndarray = field(default_factory=lambda: np.zeros(0, np.complex128))

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _as_coeff_array(self.coeffs))
        self.coeffs.setflags(write=False)

    # ---- constructors -----------------------------------------------------

    @classmethod
    def zero(cls) -> "CPoly":
        return cls(np.zeros(0, np.complex128))

    @classmethod
    def monomial(cls, k: int) -> "CPoly":
        a = np.zeros(k + 1, np.complex128)
        a[k] = 1.0
        return cls(a)

    @classmethod
    def from_pairs(cls, pairs) -> "CPoly":
        """Build from [[re, im], ...] (the wire format for coefficients)."""
        return cls([complex(re, im) for re, im in pairs])

    def to_pairs(self) -> list:
        return [[float(c.real), float(c.imag)] for c in self.coeffs]

    # ---- basic queries ----------------------------------------------------

    @property
    def degree(self) -> int:
        return self.coeffs.size - 1

    @property
    def is_zero(self) -> bool:
        return self.coeffs.size == 0

    def max_abs_coeff(self) -> float:
        return float(np.max(np.abs(self.coeffs))) if self.coeffs.size else 0.0

    # ---- arithmetic --------------------------------------------------------

    def __add__(self, other: "CPoly") -> "CPoly":
        a, b = self.coeffs, other.coeffs
        if a.size < b.size:
            a, b = b, a
        out = a.copy()
        out[: b.size] += b
        return CPoly(out)

    def __neg__(self) -> "CPoly":
        return CPoly(-self.coeffs)

    def __sub__(self, other: "CPoly") -> "CPoly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, CPoly):
            if self.is_zero or other.is_zero:
                return CPoly.zero()
            return CPoly(np.convolve(self.coeffs, other.coeffs))
        return CPoly(self.coeffs * complex(other))

    def __rmul__(self, other):
        return self.__mul__(other)

    def __call__(self, z):
        """Horner evaluation; accepts scalars or numpy arrays."""
        if self.is_zero:
            return np.zeros_like(np.asarray(z, dtype=np.complex128)) if np.ndim(z) else 0j
        acc = np.full_like(np.asarray(z, dtype=np.complex128), self.coeffs[-1]) \
            if np.ndim(z) else complex(self.coeffs[-1])
        for c in self.coeffs[-2::-1]:
            acc = acc * z + c
        return acc

    # ---- calculus ----------------------------------------------------------

    def derivative(self) -> "CPoly":
        if self.coeffs.size <= 1:
            return CPoly.zero()
        k = np.arange(1, self.coeffs.size)
        return CPoly(self.coeffs[1:] * k)

    def antiderivative(self) -> "CPoly":
        """Unique primitive vanishing at 0."""
        if self.is_zero:
            return CPoly.zero()
        out = np.zeros(self.coeffs.size + 1, np.complex128)
        out[1:] = self.coeffs / np.arange(1, self.coeffs.size + 1)
        return CPoly(out)

    # ---- structure ---------------------------------------------------------

    def valuation(self, tol: float | None = None):
        """Smallest k with |coeffs[k]| > tol, or math.inf if none.

        tol defaults to 1e-10 relative to the largest coefficient magnitude;
        the underlying theory assumes exact vanishing orders, so floating
        data needs an explicit cutoff.
        """
        if tol is None:
            tol = 1e-10 * self.max_abs_coeff()
        idx = np.nonzero(np.abs(self.coeffs) > tol)[0]
        return int(idx[0]) if idx.size else math.inf

    def shift_down(self, k: int) -> "CPoly":
        """Divide by z**k, requiring the low-order coefficients to be 0."""
        if self.is_zero:
            return CPoly.zero()
        if k == 0:
            return self
        low = np.max(np.abs(self.coeffs[:k])) if k <= self.coeffs.size else None
        if low is None or low > 1e-12 * max(1.0, self.max_abs_coeff()):
            raise ValueError(f"polynomial not divisible by z^{k}")
        return CPoly(self.coeffs[k:])

    def roots(self) -> np.ndarray:
        """All complex roots with multiplicity (companion-matrix eigenvalues).

        The eigenvalues are polished by two Newton steps.  Raises ValueError
        for constant or zero input; verifies the residual
        |p(r)| <= _ROOT_RESIDUAL_TOL * (1 + max|coeff|) for every root.
        """
        if self.degree < 1:
            raise ValueError("roots() requires degree >= 1")
        rts = np.roots(self.coeffs[::-1])
        dp = self.derivative()
        for _ in range(2):
            pv = self(rts)
            dv = dp(rts)
            ok = np.abs(dv) > 1e-14 * (1.0 + np.abs(pv))
            step = np.where(ok, pv / np.where(ok, dv, 1.0), 0.0)
            rts = rts - step
        scale = 1.0 + self.max_abs_coeff()
        res = np.abs(self(rts))
        if np.any(res > _ROOT_RESIDUAL_TOL * scale):
            raise ValueError(f"root residual {res.max():.3e} exceeds "
                             f"{_ROOT_RESIDUAL_TOL:.1e} * {scale:.3e}")
        return rts

    def __repr__(self):
        if self.is_zero:
            return "CPoly(0)"
        terms = ", ".join(f"{c:.6g}*z^{k}" for k, c in enumerate(self.coeffs))
        return f"CPoly({terms})"
