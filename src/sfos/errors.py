"""Exception hierarchy shared across the package."""


class SfosError(Exception):
    """Base class for all package-specific errors."""


class InputError(SfosError, ValueError):
    """Malformed or non-finite input data."""


class NotMemberError(SfosError):
    """A (X, Y) pair failed the positive-definiteness membership test."""

    def __init__(self, message, smallest_eigenvalue=None):
        super().__init__(message)
        self.smallest_eigenvalue = smallest_eigenvalue


class RankDeficientError(SfosError):
    """A matrix required to have full column rank does not."""


class LmiNumericalError(SfosError):
    """The feasibility solver could not classify a problem."""


class SynthesisError(SfosError):
    """Base class for controller synthesis failures."""


class StateFeedbackInfeasible(SynthesisError):
    """The state-feedback LMI is certified infeasible.

    No stabilizing state-feedback gain exists, which also rules out the
    observer-based and (by necessity) the output-feedback designs.
    """


class OutputInjectionInfeasible(SynthesisError):
    """The output-injection LMI is certified infeasible."""


class OutputStageExhausted(SynthesisError):
    """All retries of the output-feedback relaxation stage were infeasible."""

    def __init__(self, message, attempts=None):
        super().__init__(message)
        self.attempts = attempts or []


class GainRecoverySingular(SynthesisError):
    """The matrix inverted during gain recovery is numerically singular."""

    def __init__(self, message, condition_number=None, certificate=None):
        super().__init__(message)
        self.condition_number = condition_number
        self.certificate = certificate


class VerificationFailed(SynthesisError):
    """An LMI certificate was produced but the closed loop failed the
    independent eigenstructure check."""
