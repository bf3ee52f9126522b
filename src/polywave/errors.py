"""Exception hierarchy shared by all polywave modules.

The CLI maps these onto process exit codes: invalid configuration -> 2,
numerical failure -> 3, non-convergence -> 4.
"""


class PolywaveError(Exception):
    """Base class for all errors raised by this package."""


class ContractError(PolywaveError):
    """A documented precondition of an operation was violated by the caller."""


class ConfigError(PolywaveError):
    """Invalid model parameters or run configuration."""


class NumericalFailure(PolywaveError):
    """A computation produced results that fail an internal consistency check."""


class ResonanceError(NumericalFailure):
    """Quasi-momentum failed the non-resonance admission tests, or the
    spectral window did not contain exactly one eigenvalue."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class NewtonFailure(NumericalFailure):
    """The Galerkin Newton refinement diverged or met a singular Jacobian."""


class NonConvergence(PolywaveError):
    """An iteration or root search exhausted its budget without converging."""
