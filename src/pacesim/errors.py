"""Exception types shared across the package.

The CLI maps these onto stable exit codes, so new failure modes should
reuse an existing class or get a new one here rather than a bare
ValueError deep inside a module.
"""


class ConfigurationError(ValueError):
    """A mechanism, agent, scenario, or bid profile is malformed.

    path, when known, locates the value at fault in a scenario document,
    as keys and list indices from the object that raised it: ("budget",)
    from an agent, ("agents", 1, "budget") from a SimulationConfig."""

    def __init__(self, message: str, path: tuple = ()):
        super().__init__(message)
        self.path = path


class PreconditionError(ValueError):
    """A documented precondition of an operation was violated by the caller."""


class StoppedAgentError(RuntimeError):
    """An operation was attempted on an agent that has already stopped."""


class InvariantViolationError(RuntimeError):
    """An internal invariant failed; signals a bug in the package, not bad input."""


class UnboundedError(RuntimeError):
    """The LP objective is unbounded over the feasible region."""


class IterationLimitError(RuntimeError):
    """The simplex solver hit its pivot limit without reaching an optimum."""


class CapacityError(ValueError):
    """The instance is too large for the exact solver."""


class SmoothingRequiredError(ValueError):
    """The expected-spend curve is discontinuous; add bid noise first."""


class EnvironmentError_(ValueError):
    """The per-round environment cannot be reconstructed from the scenario."""


class StatisticsError(ValueError):
    """Not enough replications for the requested confidence statement."""
