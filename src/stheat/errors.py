"""Exception types shared across the package."""


class NumericalError(RuntimeError):
    """An iterative numerical procedure failed to converge."""


class SingularSystemError(RuntimeError):
    """The spatial factor R_jj W + M of time mode j is exactly singular.

    ``mode`` is j, the index of the diagonal entry R_jj of the Schur form of
    the time operator (see ``blocksolve``).
    """

    def __init__(self, mode):
        self.mode = mode
        super().__init__(f"singular spatial factor R_jj W + M at time mode {mode}")

    def __reduce__(self):  # a compare worker returns it pickled: rebuild from the mode
        return type(self), (self.mode,)


class ResourceLimitError(RuntimeError):
    """A requested discretization exceeds a configured resource cap."""


class ConfigError(ValueError):
    """A run configuration file or flag set failed validation."""
