"""Exception types shared across the package."""


class GpmapsError(Exception):
    """Base class for all errors raised by gpmaps."""


class InvalidInputError(GpmapsError, ValueError):
    """Raised when arguments violate a documented precondition."""


class UnsupportedDerivativeError(GpmapsError, ValueError):
    """Raised when a kernel cannot supply the requested derivative order."""


class SingularSystemError(GpmapsError):
    """Raised when a constraint Gram matrix cannot be factorized.

    Carries an estimate of the condition number of the matrix that failed.
    """

    def __init__(self, message, condition=None):
        super().__init__(message)
        self.condition = condition


class NumericalOverflowError(GpmapsError, ArithmeticError):
    """Raised when an integrator or stepper produces non-finite values."""


class DivergedError(GpmapsError):
    """Raised when an optimization run produces a non-finite loss.

    The loss trace accumulated so far is attached for post-mortem inspection.
    """

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace
