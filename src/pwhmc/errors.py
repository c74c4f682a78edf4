"""Exception types shared across the package."""


class ModelFormatError(ValueError):
    """A model document is malformed (missing field, bad shape, bad value)."""


class ContractError(ValueError):
    """A numerical precondition was violated; carries the measured residual."""

    def __init__(self, message, residual=None):
        if residual is not None:
            message = f"{message} (residual={residual:.3e})"
        super().__init__(message)
        self.residual = residual


class DegenerateNormalError(ValueError):
    """A hyperplane normal is (numerically) inside a constraint column space."""


class StallError(RuntimeError):
    """One iterate hit more boundary events than one of the sampler's caps:
    on all its events, or on its events at t = 0 in a row."""

    def __init__(self, message, context=None):
        super().__init__(message)
        self.context = context or {}
