"""Exception types shared across the package."""


class BogodiagError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(BogodiagError):
    """A quadratic form or an input file violates its structural invariants."""

    def __init__(self, message, violations=()):
        super().__init__(message)
        self.violations = tuple(violations)


class NonCanonicalTransform(BogodiagError):
    """A Bogoliubov transform that is not canonical, or that differs from
    the form or transform it meets in statistics or mode count."""


class NonRealSpectrum(BogodiagError):
    """The R*T pencil has complex eigenvalues, so no real diagonalization exists."""


class DefectiveMatrix(BogodiagError):
    """The R*T pencil has a numerically deficient eigenspace (nontrivial Jordan cell)."""


class ContinuousSpectrum(BogodiagError):
    """A discrete bosonic spectrum was requested but some modes are continuous."""

    def __init__(self, message, classes=()):
        super().__init__(message)
        self.classes = tuple(classes)


class NonDiscreteMode(BogodiagError):
    """A discrete-oscillator operation was applied to a non-discrete mode."""


class ResourceLimitError(BogodiagError):
    """A construction or enumeration would exceed its size or memory guard."""


class DegeneratePoint(BogodiagError):
    """A singular point has a (numerically) singular jacobian."""
