"""Exception hierarchy.

Numeric degeneracies (data fails a genericity precondition) are kept apart
from structural errors (graph or usage problems) so callers, in particular
the CLI, can map them to distinct exit codes.
"""


class MiquelDynError(Exception):
    pass


class NumericDegeneracy(MiquelDynError):
    """Input is structurally fine but geometrically degenerate.

    A raiser that measured the degeneracy says where and by how much in
    keyword fields: face (the face id), residual (the measured quantity),
    tolerance (the bound it crossed) and scale (the length that residual
    and tolerance are relative to).  Fields not given stay None.
    """

    FIELDS = ("face", "residual", "tolerance", "scale")

    def __init__(self, *args, face=None, residual=None, tolerance=None,
                 scale=None):
        super().__init__(*args)
        self.face = face
        self.residual = residual
        self.tolerance = tolerance
        self.scale = scale

    def fields(self) -> dict:
        """The fields that were given, by name."""
        return {k: getattr(self, k) for k in self.FIELDS
                if getattr(self, k) is not None}


# geometry

class IndeterminateRatio(NumericDegeneracy):
    pass


class ConsecutiveCoincidence(NumericDegeneracy):
    pass


class DegenerateMap(NumericDegeneracy):
    pass


class CoincidentPoints(NumericDegeneracy):
    pass


class IdenticalCircles(NumericDegeneracy):
    pass


class CoincidentAnchors(NumericDegeneracy):
    pass


# surface graphs

class NotAValidQuad(MiquelDynError):
    pass


class OddDimensions(MiquelDynError):
    pass


# circle patterns

class InvalidFace(MiquelDynError):
    pass


class CollinearCenters(NumericDegeneracy):
    pass


class NumericalTangencyAmbiguity(NumericDegeneracy):
    pass


class NonRealStarRatios(NumericDegeneracy):
    pass


class MonodromyFailure(NumericDegeneracy):
    pass


class DegenerateReflectionLine(NumericDegeneracy):
    pass


class ConcyclicDegenerate(NumericDegeneracy):
    pass


class ConstructionFailure(NumericDegeneracy):
    pass


# clifford configurations

class TangentAtBase(NumericDegeneracy):
    pass


class ConcurrenceFailure(NumericDegeneracy):
    pass


# dimers

class TooLarge(MiquelDynError):
    pass


class WeightMismatchOutsideN(MiquelDynError):
    pass


class CoincidentCenters(NumericDegeneracy):
    pass


class InfiniteCenter(NumericDegeneracy):
    pass


# serialization and CLI

class UsageError(MiquelDynError):
    pass


class SchemaError(MiquelDynError):
    pass


# lattice

class StencilDegenerate(NumericDegeneracy):
    pass


class WindowExhausted(MiquelDynError):
    pass


class NotAGridTorus(MiquelDynError):
    """A pattern's graph is not the square-grid torus of the asked shape."""


class DegenerateRow(NumericDegeneracy):
    pass


class OctahedronRelationFailure(NumericDegeneracy):
    pass
