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


class DegenerateScenario(NumericalError):
    """Scenario carries no usable signal (e.g. all effective norms zero)."""


class DegenerateSubspace(NumericalError):
    """Leakage subspace collapsed; no direction can be formed."""
