"""Exception types shared across the package: one per refusal exit code."""


class ParameterError(ValueError):
    """A refused input (CLI exit 2): invalid problem parameters, a violated
    operation precondition, or a value beyond the range of a double, a
    constants-system residual above 1e-12 among them."""


class IntegrationError(RuntimeError):
    """Adaptive integration failed (CLI exit 6): step-size underflow, the step
    budget exceeded, floating-point overflow, or a shot that did not turn."""
