"""Closed-form rates and matched speeds of the piecewise-linear envelope waves.

For a linear branch with slope s < 0 the wave ODE u'' - c u' + s u = 0 has
characteristic roots (c +/- sqrt(c^2 - 4 s)) / 2.  A piecewise exponential
profile a*exp(rate_left*z) (z < 0) glued to 1 + (a-1)*exp(rate_right*z)
(z >= 0) is continuous for every speed; it is C^1 exactly at the matched
speed where the one-sided derivatives at z = 0 agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoPositiveRoot
from .reaction import SlopeBounds, _check_branch_point
from .roots import EXPANSION_CAP, bracketed_root

# match_speed solves the residual to this absolute tolerance.
_MATCH_TOL = 1e-12


def lambda0_plus(c: float, alpha: float) -> float:
    """Positive root of r^2 - c r + alpha = 0 (growth rate out of u=0)."""
    return 0.5 * (c + math.sqrt(c * c - 4.0 * alpha))

def lambda1_minus(c: float, beta: float) -> float:
    """Negative root of r^2 - c r + beta = 0 (decay rate into u=1)."""
    return 0.5 * (c - math.sqrt(c * c - 4.0 * beta))


@dataclass(frozen=True)
class EigenRates:
    lambda0_plus: float
    lambda1_minus: float
    c: float
    alpha: float
    beta: float


def eigen_rates(c: float, alpha: float, beta: float) -> EigenRates:
    """Both characteristic rates for speed c and branch slopes alpha, beta < 0."""
    if alpha >= 0.0 or beta >= 0.0:
        raise ValueError(f"branch slopes must be negative, got alpha={alpha}, beta={beta}")
    if c < 0.0:
        raise ValueError(f"speed c={c} must be >= 0")
    return EigenRates(
        lambda0_plus=lambda0_plus(c, alpha),
        lambda1_minus=lambda1_minus(c, beta),
        c=float(c),
        alpha=float(alpha),
        beta=float(beta),
    )


@dataclass(frozen=True)
class EnvelopeWave:
    """Piecewise-exponential wave: value a at z = 0, limits 0 and 1."""

    c: float
    rate_left: float
    rate_right: float
    a: float

    def __post_init__(self) -> None:
        _check_branch_point(self.a)
        if not (self.rate_left > 0.0 > self.rate_right):
            raise ValueError(
                f"need rate_left > 0 > rate_right, got {self.rate_left}, {self.rate_right}"
            )


def envelope_profile(w: EnvelopeWave, z):
    """Profile value at z (scalar or array); exactly a at z = 0."""
    z = np.asarray(z, dtype=float)
    left = w.a * np.exp(w.rate_left * np.minimum(z, 0.0))
    right = 1.0 + (w.a - 1.0) * np.exp(w.rate_right * np.maximum(z, 0.0))
    out = np.where(z < 0.0, left, right)
    return float(out) if out.ndim == 0 else out


def derivative_gap(w: EnvelopeWave) -> float:
    """Jump of the derivative at z = 0: rate_left*a - rate_right*(a-1).

    Zero exactly when the speed solves the matching condition.
    """
    return w.rate_left * w.a - w.rate_right * (w.a - 1.0)


def speed_residual(c: float, alpha: float, beta: float, a: float) -> float:
    """Monotone-decreasing residual whose root is the matched speed.

    Rearrangement of the derivative-matching condition
    a = lambda1_minus / (lambda1_minus - lambda0_plus):
        (1-a) sqrt(c^2 - 4 beta) - a sqrt(c^2 - 4 alpha) - c.
    """
    return (
        (1.0 - a) * math.sqrt(c * c - 4.0 * beta)
        - a * math.sqrt(c * c - 4.0 * alpha)
        - c
    )


def match_speed(alpha: float, beta: float, a: float) -> float:
    """The unique c >= 0 with |residual| <= _MATCH_TOL, by a Brent solve on
    an expanding bracket.

    At the degenerate boundary residual(0) = 0 the matched speed is 0.
    Raises NoPositiveRoot when residual(0) < -_MATCH_TOL, i.e.
    sqrt(-beta)*(1-a) < sqrt(-alpha)*a: the regime with no rightward wave.
    """
    if alpha >= 0.0 or beta >= 0.0:
        raise ValueError(f"branch slopes must be negative, got alpha={alpha}, beta={beta}")
    _check_branch_point(a)
    phi0 = speed_residual(0.0, alpha, beta, a)
    if phi0 < -_MATCH_TOL:
        raise NoPositiveRoot(
            f"sqrt(-beta)*(1-a)={math.sqrt(-beta) * (1 - a):.6g} <= "
            f"sqrt(-alpha)*a={math.sqrt(-alpha) * a:.6g}: no positive matched speed"
        )
    if abs(phi0) <= _MATCH_TOL:
        return 0.0
    hi = 1.0
    phi_hi = speed_residual(hi, alpha, beta, a)
    while phi_hi > 0.0:
        if hi >= EXPANSION_CAP:
            raise NoPositiveRoot(
                f"residual still positive at c={hi}; inputs alpha={alpha}, beta={beta}, a={a}"
            )
        hi *= 2.0
        phi_hi = speed_residual(hi, alpha, beta, a)
    c, _, _ = bracketed_root(
        lambda c: speed_residual(c, alpha, beta, a), 0.0, hi, phi0, phi_hi, _MATCH_TOL, xtol=1e-16 * hi
    )
    return c


def matched_wave(alpha: float, beta: float, a: float) -> EnvelopeWave:
    """EnvelopeWave at the matched speed for the slope pair (alpha, beta)."""
    c = match_speed(alpha, beta, a)
    return EnvelopeWave(
        c=c, rate_left=lambda0_plus(c, alpha), rate_right=lambda1_minus(c, beta), a=a
    )


@dataclass(frozen=True)
class SpeedBracket:
    """The four matched envelope speeds enclosing the true wave speed."""

    c_check: float
    c_under: float
    c_over: float
    c_hat: float
    ordering_ok: bool


def speed_bracket(b: SlopeBounds, a: float) -> SpeedBracket:
    """Match all four slope pairings.

    c_check pairs (alpha_lo, beta_hi), c_under (alpha_lo, beta_lo),
    c_over (alpha_hi, beta_hi), c_hat (alpha_hi, beta_lo).  ordering_ok
    records whether 0 < c_check <= min <= max <= c_hat holds (non-strict,
    1e-9 slack).
    """
    pairings = {
        "c_check": (b.alpha_lo, b.beta_hi),
        "c_under": (b.alpha_lo, b.beta_lo),
        "c_over": (b.alpha_hi, b.beta_hi),
        "c_hat": (b.alpha_hi, b.beta_lo),
    }
    speeds: dict[str, float] = {}
    failures: list[str] = []
    for name, (alpha, beta) in pairings.items():
        try:
            speeds[name] = match_speed(alpha, beta, a)
        except NoPositiveRoot as exc:
            failures.append(f"{name}: {exc}")
    if failures:
        raise NoPositiveRoot("; ".join(failures))
    slack = 1e-9
    inner_lo = min(speeds["c_under"], speeds["c_over"])
    inner_hi = max(speeds["c_under"], speeds["c_over"])
    ordering_ok = (
        speeds["c_check"] > slack
        and speeds["c_check"] <= inner_lo + slack
        and inner_hi <= speeds["c_hat"] + slack
    )
    return SpeedBracket(
        c_check=speeds["c_check"],
        c_under=speeds["c_under"],
        c_over=speeds["c_over"],
        c_hat=speeds["c_hat"],
        ordering_ok=ordering_ok,
    )
