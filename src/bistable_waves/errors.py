"""Exception types shared across the package."""

from __future__ import annotations


class BistableWavesError(Exception):
    """Base class for all package-specific failures."""


class HypothesisFailure(BistableWavesError):
    """The hypothesis audit rejected the term (H1-H3), so no wave is sought."""


class NonNegativeSlope(BistableWavesError):
    """A secant-slope bound came out >= 0, i.e. the sign hypotheses fail."""


class NoPositiveRoot(BistableWavesError):
    """The speed-matching residual has no positive root (degenerate or
    leftward-moving regime)."""


class PathCollapse(BistableWavesError):
    """A phase-plane path hit the w floor before reaching the branch point.

    steps counts the Taylor steps the path took up to there.
    """

    def __init__(self, message: str, u_at: float | None = None, steps: int = 0):
        super().__init__(message)
        self.u_at = u_at
        self.steps = steps


class BracketFailure(BistableWavesError):
    """No sign change of the shooting mismatch found within the expansion cap."""


class SolverFailure(BistableWavesError, RuntimeError):
    """An integration or profile march could not finish: the step size
    underflowed, or the march met a bad step or ran out of z range."""


class Divergence(BistableWavesError):
    """A simulated state left the admissible band [-0.5, 1.5]."""

    def __init__(self, message: str, t: float):
        super().__init__(message)
        self.t = t


class NoFront(BistableWavesError):
    """The state never crosses the tracking level."""


class InsufficientData(BistableWavesError):
    """Too few observations inside the requested window."""


class NonPositiveDistance(BistableWavesError):
    """Log-linear decay fit requested on non-positive distances."""


class DegenerateProfile(BistableWavesError):
    """The wave profile has no positive derivative margin on |z| <= M."""


class ConfigError(BistableWavesError):
    """Aggregated configuration validation failure.

    ``violations`` is a list of (field_path, message) pairs covering every
    problem found, not just the first.
    """

    def __init__(self, violations: list[tuple[str, str]]):
        self.violations = list(violations)
        lines = ", ".join(f"{path}: {msg}" for path, msg in self.violations)
        super().__init__(f"invalid configuration ({lines})")
