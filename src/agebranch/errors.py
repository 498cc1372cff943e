"""Exception types raised by the numerical layers."""

from __future__ import annotations


class CoefficientBoundError(ValueError):
    """A model coefficient violated its declared bound at a probed argument."""


class NoPositiveEigenvalueError(RuntimeError):
    """The nonnegative operator has no eigenvalue above the detection floor."""


class StepFailureError(RuntimeError):
    """Newton correction exhausted its iteration budget."""

    def __init__(self, message: str, residual_norm: float, iterations: int):
        super().__init__(message)
        self.residual_norm = residual_norm
        self.iterations = iterations


class SingularSystemError(RuntimeError):
    """The bordered corrector system is numerically singular (fold/defect)."""

    def __init__(self, message: str, condition_estimate: float):
        super().__init__(message)
        self.condition_estimate = condition_estimate


class PositivityError(RuntimeError):
    """A scheme that must preserve nonnegativity produced a negative entry."""


class ConfigError(ValueError):
    """A run configuration failed schema validation."""
