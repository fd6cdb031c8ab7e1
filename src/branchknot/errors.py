"""Exception classes shared across the package.

Every failure mode that a pipeline stage can signal has its own class so
that callers can dispatch on type alone.  Each class declares the CLI's
exit code for it as its `exit_code`, directly or through its group
(InputError exits 2, SliceFailure exits 5), so this module alone decides
what a failure exits with.
"""


class BranchknotError(Exception):
    """Base class for all package-specific errors; each sets exit_code."""

    exit_code: int


# ---- data validation -------------------------------------------------------

class InputError(BranchknotError):
    """The input is outside what the pipeline accepts."""

    exit_code = 2


class ConformalityViolation(InputError):
    """f1'*f2' + f3'*f4' is not (numerically) the zero polynomial."""


class OrderMismatch(InputError):
    """All four derivative components vanish at 0 but n1+n2 != n3+n4."""


class DegeneratePlane(InputError):
    """Tangent plane requested at a point where the differential vanishes."""


class IndeterminateGauss(InputError):
    """Gauss map evaluated where numerator and denominator both vanish."""


class BranchPointInRegion(InputError):
    """Double-point search region contains a branch point."""


class GaussCrossCheckFailure(BranchknotError):
    """The two routes to the Gauss map (quotient, differential) disagree."""

    exit_code = 6


# ---- deformation -----------------------------------------------------------

class SamplingExhausted(BranchknotError):
    """Rejection sampler hit its retry budget without an accepted draw."""

    exit_code = 3


class SecondBranchPoint(BranchknotError):
    """The base has a branch point other than 0 in the unit disk, which
    every family member keeps, so no draw can be an immersion."""

    exit_code = 3


# ---- slicing / braiding ----------------------------------------------------

class SliceFailure(BranchknotError):
    """The slice cannot be traced, braided or given a linking number."""

    exit_code = 5


class TraceFailure(SliceFailure):
    """The level set misses a ray or is not a radial graph around 0."""


class SliceNotEmbedded(SliceFailure):
    """The slice's strands meet: it is not an embedded knot."""


class BranchOnSlice(SliceFailure):
    """A branch value lies on (or too close to) the slicing sphere."""


class BranchPointInSlice(SliceFailure):
    """A branch point other than 0 lies inside the slice, which then is
    not the link of the branch point at 0."""


class NonMonotoneFiberAngle(SliceFailure):
    """Knot is not braided at this radius: fiber angle not monotone."""


class PushoffCollision(SliceFailure):
    """Pushoff copy collides with the original curve."""


class FramingUnresolved(SliceFailure):
    """The normal section of the slice does not settle as its radii double."""


class ProjectionPoleOnCurve(SliceFailure):
    """No stereographic pole with adequate clearance from the curves."""


class CrossingRoutesDisagree(SliceFailure):
    """The braid's crossing sum and the Gauss linking sum disagree."""


class SliceBeyondSearchLimit(SliceFailure):
    """The disk a slice bounds passes the double-point search limit."""


class FormulaViolation(BranchknotError):
    """Double-point / crossing-number identity failed.

    Carries the offending report in ``args[1]`` when available.
    """

    exit_code = 4

    @property
    def report(self):
        return self.args[1] if len(self.args) > 1 else None
