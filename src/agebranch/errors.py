"""Exception types raised by the numerical layers."""

from __future__ import annotations

import numpy as np


class CoefficientBoundError(ValueError):
    """A model coefficient violated its declared bound at a probed argument."""


class NoPositiveEigenvalueError(RuntimeError):
    """The nonnegative operator has no eigenvalue above the detection floor."""


class PowerIterationError(RuntimeError):
    """Power iteration failed to converge; carries the last iterate."""

    def __init__(self, message: str, last_iterate: np.ndarray, last_estimate: float):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.last_estimate = last_estimate


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
