"""Exception types shared across the package."""


class ParameterError(ValueError):
    """Invalid problem parameters or a violated operation precondition."""


class ConvergenceError(RuntimeError):
    """An iterative estimate failed to reach the requested tolerance."""


class IntegrationError(RuntimeError):
    """Adaptive integration failed (step-size underflow or step budget exceeded)."""


class TrajectoryError(RuntimeError):
    """A trajectory does not satisfy the preconditions of a post-processing step."""
