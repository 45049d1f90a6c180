"""Exception types shared across the package."""


class SixVertexError(Exception):
    """Base class for all domain errors."""


class UnassignedVariable(SixVertexError):
    """A polynomial was evaluated without a value for one of its variables."""


class ZeroBaseWithNegativeExponent(SixVertexError):
    """Evaluation hit 0**(-n); negative exponents need an invertible value."""


class DegreeExceeded(SixVertexError):
    """A variable occurs with a higher exponent than the stated degree bound."""


class DimensionMismatch(SixVertexError):
    """Operator and vector shapes are incompatible."""


class CoincidingSpectralPoints(SixVertexError):
    """Two spectral points are too close; a b-weight denominator vanishes."""


class PoleAtCoincidingPoints(CoincidingSpectralPoints):
    """Expansion coefficients were requested at a pole."""


class ProviderFailure(SixVertexError):
    """A partition-function provider raised while evaluating a subset."""


class SizeLimitExceeded(SixVertexError):
    """Requested lattice size is beyond the supported limit of the method."""


class NullspaceDimensionUnexpected(SixVertexError):
    """The solved linear system does not have a one-dimensional nullspace."""


class ConfigError(SixVertexError):
    """Invalid run configuration (CLI exit code 2)."""


class ExponentOverflow(SixVertexError):
    """An exponent would leave the range of its packed monomial digit."""
