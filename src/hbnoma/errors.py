"""Exception hierarchy shared by all modules.

ConfigError and UnknownPreset signal bad user input (CLI exit code 1);
everything under NumericalError signals a numerically degenerate computation
(CLI exit code 2).
"""


class HbnomaError(Exception):
    """Base class for all package errors."""


class ConfigError(HbnomaError):
    """Invalid scenario or experiment configuration."""


class UnknownPreset(ConfigError):
    """Requested figure preset does not exist."""


class NumericalError(HbnomaError):
    """Base class for numerical failures."""


class SingularMatrix(NumericalError):
    """Analog beams too close to zero-force (Gram condition above the cap); e.g. equal AoDs."""


class OutOfRange(NumericalError):
    """Normalized angle outside [-1, 1]."""


class DegenerateScenario(NumericalError):
    """Scenario carries no usable signal (e.g. all effective norms zero)."""


class DegenerateSubspace(NumericalError):
    """Leakage subspace collapsed; no direction can be formed."""


class TrialError(NumericalError):
    """Unexpected failure inside a Monte Carlo trial, with the trial index."""

    def __init__(self, trial: int, cause: BaseException):
        super().__init__(f"trial {trial}: {cause}")
        self.trial = trial
