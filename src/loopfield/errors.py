"""Exception hierarchy shared by all loopfield modules."""


class LoopfieldError(Exception):
    """Base class for every error raised by this package."""


class DegeneratePatch(LoopfieldError, ValueError):
    """Surface patch or panel mesh has (near-)vanishing orientation."""


class DegenerateIntersection(LoopfieldError):
    """Segment crossing through a mesh that has no well-defined sign.

    Raised when a crossing lies exactly on the surface's outer boundary,
    or a sample endpoint lies exactly on a triangle's plane inside the
    triangle.  Crossings through interior edges and nodes are well defined
    and never raise.  Callers should refine or perturb their sampling;
    the library never guesses.

    `segment` is the index of the offending segment, `cell` the (i, j) of
    its mesh cell and `triangle` the half of that cell: 0 for corners
    (0, 1, 2), 1 for (0, 2, 3).  Each is None when not given.
    """

    def __init__(self, message, *, segment=None, cell=None, triangle=None):
        super().__init__(message)
        self.segment, self.cell, self.triangle = segment, cell, triangle


class NonTransversal(DegenerateIntersection):
    """Crossing direction nearly parallel to the panel plane; `cos_angle`
    is |cos| of its angle with the triangle's normal."""

    def __init__(self, message, *, cos_angle=None, **where):
        super().__init__(message, **where)
        self.cos_angle = cos_angle


class NoConvergence(LoopfieldError):
    """Adaptive quadrature hit max_depth with the error estimate above
    tolerance, or met a non-finite integrand.

    `cell` is the offending cell, a tuple of one or two intervals, and
    `depth` its depth, 1 for a first cell.  At max_depth, `error` is the
    summed error estimate and `goal` the tolerance it missed.  Each is None
    when not given.
    """

    def __init__(self, message, *, cell=None, depth=None, error=None, goal=None):
        super().__init__(message)
        self.cell, self.depth, self.error, self.goal = cell, depth, error, goal


class NearSingular(LoopfieldError):
    """Field evaluation point lies within the guard distance of a source.

    `distance` is the offending point's distance, `guard` the guard it
    fell within, `kind` the source's: "curve", "sheet" or "mesh", and
    `point` the index of the first offending point among the caller's
    points (0 for one (3,) point).  Each is None when not given.
    """

    def __init__(self, message, *, distance=None, guard=None, kind=None, point=None):
        super().__init__(message)
        self.distance, self.guard, self.kind, self.point = distance, guard, kind, point


class CurvesTooClose(LoopfieldError):
    """Curve pair violates the minimum separation required by the Gauss integral.

    The closest approach lies between `lower`, which is certified and at
    most `guard`, and `distance`, the least sampled distance; `t` is
    curve_l's parameter at that sample.  Each is None when not given.
    """

    def __init__(self, message, *, distance=None, lower=None, guard=None, t=None):
        super().__init__(message)
        self.distance, self.lower, self.guard, self.t = distance, lower, guard, t


class PrefactorOverflow(LoopfieldError):
    """A prefactor (k_B, k_E sigma, ...) times a field's closed form or
    the Gauss integral is not finite: the product left the float range.
    `prefactor` is the prefactor."""

    def __init__(self, message, *, prefactor=None):
        super().__init__(message)
        self.prefactor = prefactor


class NotUnit(LoopfieldError, ValueError):
    """Vector expected to have unit norm does not."""


class DegenerateBase(LoopfieldError, ValueError):
    """Base point of a Taylor probe is the origin."""


class SceneFormatError(LoopfieldError, ValueError):
    """Scene file fails schema validation."""
