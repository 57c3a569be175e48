"""Exception taxonomy shared by all analysis modules.

Validation problems (bad scenario files, unknown references) and numerical
problems (singular matrices, lost convergence) are kept on separate branches
so the CLI can map them to distinct exit codes.
"""


class ToolError(Exception):
    """Base class for every error raised by this package."""


class ValidationFailure(ToolError):
    """Base class for input/scenario validation errors (CLI exit code 2)."""


class NumericalFailure(ToolError):
    """Base class for numerical errors during analysis (CLI exit code 3)."""


# --- numerics -------------------------------------------------------------

class NotHermitianError(NumericalFailure):
    """Matrix handed to the Hermitian eigensolver fails the symmetry check."""


class NonFiniteError(NumericalFailure):
    """A matrix or evaluation produced NaN or infinite entries."""


class NoConvergenceError(NumericalFailure):
    """An iterative routine hit its iteration cap.

    ``partial`` may carry whatever partial result was available.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class SingularMatrixError(NumericalFailure):
    """Inverse requested of a (numerically) singular matrix."""


# --- devices --------------------------------------------------------------

class NotDifferentiableError(NumericalFailure):
    """Parameter derivative requested on a model that cannot provide it."""


class OutOfRangeError(NumericalFailure):
    """Black-box table evaluated outside its tabulated frequency span."""


class MalformedTableError(ValidationFailure):
    """Black-box frequency-response table failed to parse or validate."""


# --- network / passivity --------------------------------------------------

class UnknownBusError(ValidationFailure):
    """A branch, shunt or device references a bus that does not exist."""


class UnknownComponentError(ValidationFailure):
    """A sensitivity target names a component the network does not contain."""


# --- stability ------------------------------------------------------------

class RefineGridError(NumericalFailure):
    """Frequency grid too coarse to track eigenloci near the critical point.

    ``intervals`` holds the indices k of the grid intervals (omegas[k] to
    omegas[k + 1]) that the refusal names, empty when it names none.
    """

    def __init__(self, message, intervals=()):
        super().__init__(message)
        self.intervals = intervals


class ZeroDenominatorError(NumericalFailure):
    """Determinant derivative vanished; compensation coefficient undefined."""


class OutOfRegionError(NumericalFailure):
    """Root iteration left the requested search region."""


class DefectiveMatrixError(NumericalFailure):
    """Eigenvector basis numerically defective; participation factors undefined."""


# --- io_cli ---------------------------------------------------------------

class ScenarioParseError(ValidationFailure):
    """Scenario file is not syntactically valid JSON."""


class ScenarioValidationError(ValidationFailure):
    """Scenario parsed but violates schema constraints.

    ``violations`` lists every violated constraint, not just the first.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("scenario validation failed:\n  - " + "\n  - ".join(self.violations))
