"""Exception classes shared across the package.

Every failure mode that a pipeline stage can signal has its own class so
that callers (and the CLI exit-code map) can dispatch on type alone.
"""


class BranchknotError(Exception):
    """Base class for all package-specific errors."""


# ---- data validation -------------------------------------------------------

class ConformalityViolation(BranchknotError):
    """f1'*f2' + f3'*f4' is not (numerically) the zero polynomial."""


class OrderMismatch(BranchknotError):
    """All four derivative components vanish at 0 but n1+n2 != n3+n4."""


class DegeneratePlane(BranchknotError):
    """Tangent plane requested at a point where the differential vanishes."""


class IndeterminateGauss(BranchknotError):
    """Gauss map evaluated where numerator and denominator both vanish."""


class GaussCrossCheckFailure(BranchknotError):
    """The two routes to the Gauss map (quotient, differential) disagree."""


# ---- deformation -----------------------------------------------------------

class OrderViolation(BranchknotError):
    """Vanishing-order bookkeeping produced a negative shift exponent."""


class SamplingExhausted(BranchknotError):
    """Rejection sampler hit its retry budget without an accepted draw."""


# ---- intersection ----------------------------------------------------------

class BranchPointInRegion(BranchknotError):
    """Double-point search region contains a branch point."""


# ---- slicing / braiding ----------------------------------------------------

class TraceFailure(BranchknotError):
    """The level set misses a ray or is not a radial graph around 0."""


class BranchOnSlice(BranchknotError):
    """A branch value lies on (or too close to) the slicing sphere."""


class NonMonotoneFiberAngle(BranchknotError):
    """Knot is not braided at this radius: fiber angle not monotone."""


class PushoffCollision(BranchknotError):
    """Pushoff copy collides with the original curve."""


class ProjectionPoleOnCurve(BranchknotError):
    """No stereographic pole with adequate clearance from the curves."""


class FormulaViolation(BranchknotError):
    """Double-point / crossing-number identity failed.

    Carries the offending report in ``args[1]`` when available.
    """

    @property
    def report(self):
        return self.args[1] if len(self.args) > 1 else None
