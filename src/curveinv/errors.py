"""Exception hierarchy shared by all curveinv modules."""


class CurveInvError(Exception):
    """Base class for all curveinv errors."""


class ParseError(CurveInvError):
    """Malformed diagram file.  Carries a 1-based line number when known."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class LabelError(ParseError):
    """A crossing label does not appear exactly twice, or its signs disagree."""


class TopologyError(CurveInvError):
    """Region data inconsistent with the traced combinatorial map."""


class CrossCheckFailed(TopologyError):
    """Two independent routes to the same exact value disagree.

    Carries both values and the serialized diagram as a reproducer.
    """

    def __init__(self, what, first, second, reproducer):
        self.what = what
        self.first = first
        self.second = second
        self.reproducer = reproducer
        super().__init__(f"internal cross-check failed: {what}: {first} != {second}")


class HomologicallyNontrivial(CurveInvError):
    """No index function exists: the curve does not bound."""


class ChiZero(CurveInvError):
    """The operation is undefined when the surface Euler characteristic is 0."""


class NotSphere(CurveInvError):
    """The operation is defined only on the sphere (chi = 2)."""


class NonPositiveQ(CurveInvError):
    """Numeric evaluation requires a finite q > 0."""


class QOverflow(CurveInvError):
    """A power q^i at the curve's index levels leaves the float range."""


class SiteError(CurveInvError):
    """A move site does not exist in, or does not match, the diagram."""


class PlanRequired(CurveInvError):
    """A birth in a non-disk region needs an explicit split plan."""


class PlanInvalid(CurveInvError):
    """A split plan violates Euler-characteristic conservation or realizability."""


class ExhaustedRetries(CurveInvError):
    """The random generator hit its retry budget without a valid diagram."""


class DegenerateTangency(CurveInvError):
    """Two curve branches meet at an angle below the genericity floor."""


class PointOnCurve(CurveInvError):
    """A probe or base point lies on (or too close to) the curve."""


class ChartViolation(CurveInvError):
    """A torus curve leaves the fundamental-domain chart required for extraction."""


class InvalidConfig(CurveInvError):
    """A NumericConfig size that the numeric kernels cannot use."""


class InvalidBasePoint(CurveInvError):
    """A base point that is not a finite point of the curve's surface."""
