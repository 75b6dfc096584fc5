"""The discontinuous bistable nonlinearity and its structural audits.

The reaction term is piecewise polynomial: a branch f0 on [0, a] with
f0(0) = 0 and f0 < 0 on (0, a], and a branch f1 on [a, 1] with f1(1) = 0
and f1 > 0 on [a, 1).  The two branches do not meet at u = a; the value
returned exactly at the branch point is a configurable convention.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Literal

import numpy as np
from numpy.polynomial import polynomial as npp

from .errors import NonNegativeSlope

BranchRule = Literal["left_closed", "right_closed", "average"]
EnvelopeKind = Literal["f_lo", "f_hi", "g_lo", "g_hi"]

_BRANCH_RULES = ("left_closed", "right_closed", "average")
_ENVELOPE_KINDS = ("f_lo", "f_hi", "g_lo", "g_hi")
_H2_GRID = 2048  # sample points per branch for the H2 sign audit
_AUDIT_TOL = 1e-9  # margin of the audit's strict inequalities


def _horner(u: np.ndarray | float, coefficients: tuple[float, ...]) -> np.ndarray | float:
    """npp.polyval(u, coefficients) in one buffer, bit for bit.

    polyval starts from c[-1] + u*0 and then takes c[-i] + c0*u; the same
    products and sums, commuted, are exact.  For finite u a nonzero c[-1]
    absorbs the u*0 term, so the first step is a single product (at u = ±inf
    the two differ; eval_extended_array overwrites those nodes).  An array u
    is updated in place in a new buffer; a Python float u takes the same
    steps in float arithmetic and returns a float.
    """
    *rest, top = coefficients
    if rest and top != 0.0:
        out = u * top
        out += rest.pop()
    else:
        out = u * 0.0
        out += top
    for c in reversed(rest):
        out *= u
        out += c
    return out


@dataclass(frozen=True)
class BranchPoly:
    """Polynomial branch with ascending-degree coefficients on [domain_lo, domain_hi]."""

    coefficients: tuple[float, ...]
    domain_lo: float
    domain_hi: float

    def __post_init__(self) -> None:
        coeffs = tuple(float(c) for c in self.coefficients)
        if len(coeffs) == 0:
            raise ValueError("BranchPoly needs at least one coefficient")
        if not all(math.isfinite(c) for c in coeffs):
            raise ValueError(f"non-finite coefficient in {coeffs}")
        if not (self.domain_lo < self.domain_hi):
            raise ValueError(
                f"empty branch domain [{self.domain_lo}, {self.domain_hi}]"
            )
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(self, "domain_lo", float(self.domain_lo))
        object.__setattr__(self, "domain_hi", float(self.domain_hi))

    def __call__(self, u):
        """Evaluate at a finite float or array u by _horner, bit for bit
        npp.polyval.  No domain enforcement here; callers that need the
        domain contract go through ReactionTerm."""
        return _horner(u, self.coefficients)

    def derivative(self) -> "BranchPoly":
        der = npp.polyder(self.coefficients)
        if len(der) == 0:
            der = np.array([0.0])
        return BranchPoly(tuple(der), self.domain_lo, self.domain_hi)

    def integral(self) -> float:
        """Definite integral over the branch domain, by exact antiderivative."""
        anti = npp.polyint(self.coefficients)
        return float(npp.polyval(self.domain_hi, anti) - npp.polyval(self.domain_lo, anti))


@dataclass(frozen=True)
class ReactionTerm:
    """Bistable nonlinearity with a jump at the branch point a."""

    a: float
    f0: BranchPoly
    f1: BranchPoly
    branch_rule: BranchRule = "right_closed"

    def __post_init__(self) -> None:
        if not (0.0 < self.a < 1.0):
            raise ValueError(f"branch point a={self.a} must lie in (0, 1)")
        if abs(self.f0.domain_lo) > 1e-12 or abs(self.f0.domain_hi - self.a) > 1e-12:
            raise ValueError("f0 domain must be [0, a]")
        if abs(self.f1.domain_lo - self.a) > 1e-12 or abs(self.f1.domain_hi - 1.0) > 1e-12:
            raise ValueError("f1 domain must be [a, 1]")
        if self.branch_rule not in _BRANCH_RULES:
            raise ValueError(f"unknown branch_rule {self.branch_rule!r}")

    @cached_property
    def slope_at_zero(self) -> float:
        """f0'(0), the decay rate of the 0 equilibrium."""
        return float(self.f0.derivative()(0.0))

    @cached_property
    def slope_at_one(self) -> float:
        """f1'(1), the decay rate of the 1 equilibrium."""
        return float(self.f1.derivative()(1.0))

    def branch_value(self) -> float:
        """Value returned exactly at u = a under the configured rule."""
        left = float(self.f0(self.a))
        right = float(self.f1(self.a))
        if self.branch_rule == "left_closed":
            return left
        if self.branch_rule == "right_closed":
            return right
        return 0.5 * (left + right)

    def eval(self, u: float) -> float:
        """f(u) for u in [0, 1]; the branch rule decides the value at u = a."""
        u = float(u)
        if not (0.0 <= u <= 1.0):
            raise ValueError(f"u={u} outside [0, 1]; use eval_extended")
        return self.eval_extended(u)

    def eval_extended(self, u: float) -> float:
        """f extended by its tangent lines at 0 and 1.

        The extension is continuous and keeps the restoring sign structure:
        positive below 0, negative above 1.
        """
        return float(self.eval_extended_array(np.array([u], dtype=float))[0])

    def eval_extended_array(self, u: np.ndarray) -> np.ndarray:
        """Vectorized eval_extended, used by the PDE stepper; NaN stays NaN.

        Both branches are evaluated on every node by an in-place Horner
        scheme (_horner, bit-identical to npp.polyval) and selected with
        np.where(u < a, ...).  The rare nodes are then patched in place: the
        tangent lines where u < 0 or u > 1, and branch_value() where u == a.
        One min/max test decides whether any node lies outside [0, 1] and
        one equality test whether any sits at a.  Outside [0, 1] the branch
        values are overwritten, so overflow or 0*inf there is not reported.
        """
        u = np.asarray(u, dtype=float)
        # NaN fails both comparisons, so it counts as outside and stays NaN.
        inside = u.size == 0 or (u.min() >= 0.0 and u.max() <= 1.0)
        quiet = contextlib.nullcontext() if inside else np.errstate(over="ignore", invalid="ignore")
        with quiet:
            out = np.where(u < self.a, _horner(u, self.f0.coefficients), _horner(u, self.f1.coefficients))
        if not inside:
            below = u < 0.0
            above = u > 1.0
            out[below] = self.slope_at_zero * u[below]
            out[above] = self.slope_at_one * (u[above] - 1.0)
        at_a = u == self.a
        if at_a.any():
            out[at_a] = self.branch_value()
        return out


@dataclass(frozen=True)
class SlopeBounds:
    """Extremes of the secant slopes f0(u)/u and f1(u)/(u-1)."""

    alpha_lo: float
    alpha_hi: float
    beta_lo: float
    beta_hi: float

    def __post_init__(self) -> None:
        vals = (self.alpha_lo, self.alpha_hi, self.beta_lo, self.beta_hi)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError(f"non-finite slope bound in {vals}")
        if not (self.alpha_lo <= self.alpha_hi and self.beta_lo <= self.beta_hi):
            raise ValueError(f"slope bounds out of order: {vals}")


@dataclass(frozen=True)
class HypothesisReport:
    """Outcome of the structural audit of a reaction term."""

    h1_ok: bool
    h2_ok: bool
    h3_ok: bool
    h3_integral: float
    remark2_ok: bool
    slope_bounds: SlopeBounds | None
    violations: tuple[tuple[str, float, float], ...]

    @property
    def admissible(self) -> bool:
        return self.h1_ok and self.h2_ok and self.h3_ok


def _ratio_polys(f: ReactionTerm) -> tuple[np.ndarray, np.ndarray]:
    """Deflated secant-slope polynomials r0(u) = f0(u)/u and r1(u) = f1(u)/(u-1).

    Valid once the audit has confirmed f0(0) = 0 and f1(1) = 0; the tiny
    remainders allowed by the audit tolerance are dropped.  The deflation
    builds the endpoint limits f0'(0) and f1'(1) into the ratios.
    """
    c0 = np.asarray(f.f0.coefficients, dtype=float)
    r0 = c0[1:] if len(c0) > 1 else np.array([0.0])
    c1 = np.asarray(f.f1.coefficients, dtype=float)
    r1, _remainder = npp.polydiv(c1, np.array([-1.0, 1.0]))
    return r0, np.asarray(r1, dtype=float)


def _poly_range(coeffs: np.ndarray, lo: float, hi: float) -> tuple[float, float]:
    """Exact (min, max) of a polynomial on [lo, hi]: its values at the
    endpoints and at the real critical points between them."""
    candidates = [lo, hi]
    der = npp.polyder(coeffs)
    if len(der) >= 2:
        for r in npp.polyroots(der):
            if abs(r.imag) < 1e-10 and lo <= r.real <= hi:
                candidates.append(float(r.real))
    vals = npp.polyval(np.asarray(candidates), coeffs)
    return float(np.min(vals)), float(np.max(vals))


def max_abs_slopes(f: ReactionTerm) -> tuple[float, float]:
    """(K0, K1): the largest |f0'| on [0, a] and |f1'| on [a, 1].

    max(K0, K1) is the Lipschitz constant of f on either branch, which
    bounds the explicit reaction step of the PDE solver.
    """
    k0_lo, k0_hi = _poly_range(f.f0.derivative().coefficients, 0.0, f.a)
    k1_lo, k1_hi = _poly_range(f.f1.derivative().coefficients, f.a, 1.0)
    return max(-k0_lo, k0_hi), max(-k1_lo, k1_hi)


def slope_bounds(f: ReactionTerm) -> SlopeBounds:
    """Infimum/supremum of f0(u)/u on (0, a] and f1(u)/(u-1) on [a, 1),
    exactly: each ratio is a polynomial, evaluated at the interval ends and
    at its exact critical points.

    Raises NonNegativeSlope when any bound reaches 0, which signals a sign
    hypothesis violation.
    """
    r0, r1 = _ratio_polys(f)
    alpha_lo, alpha_hi = _poly_range(r0, 0.0, f.a)
    beta_lo, beta_hi = _poly_range(r1, f.a, 1.0)
    if alpha_hi >= 0.0 or beta_hi >= 0.0:
        raise NonNegativeSlope(
            f"secant-slope bounds must be negative, got "
            f"alpha_hi={alpha_hi}, beta_hi={beta_hi}"
        )
    return SlopeBounds(alpha_lo, alpha_hi, beta_lo, beta_hi)


def potential_integral(f: ReactionTerm) -> float:
    """Integral of f over [0, 1] via exact polynomial antiderivatives."""
    return f.f0.integral() + f.f1.integral()


def check_hypotheses(f: ReactionTerm) -> HypothesisReport:
    """Audit the term: endpoint behaviour, sign conditions on a dense grid,
    the positivity of the potential integral, and the square-root ordering
    chain that underpins the speed bracket.

    Strict inequalities are tested with the margin _AUDIT_TOL.  Failures
    are reported, never raised.
    """
    violations: list[tuple[str, float, float]] = []

    f0_at_0 = float(f.f0(0.0))
    f1_at_1 = float(f.f1(1.0))
    d0 = f.slope_at_zero
    d1 = f.slope_at_one
    h1_ok = True
    if abs(f0_at_0) > _AUDIT_TOL:
        violations.append(("H1", 0.0, f0_at_0))
        h1_ok = False
    if not d0 < -_AUDIT_TOL:
        violations.append(("H1", 0.0, d0))
        h1_ok = False
    if abs(f1_at_1) > _AUDIT_TOL:
        violations.append(("H1", 1.0, f1_at_1))
        h1_ok = False
    if not d1 < -_AUDIT_TOL:
        violations.append(("H1", 1.0, d1))
        h1_ok = False

    # Sign conditions: f0 < 0 on (0, a], f1 > 0 on [a, 1).  The grids skip
    # the endpoints where the branches vanish by H1.
    h2_ok = True
    u0_grid = np.linspace(0.0, f.a, _H2_GRID + 1)[1:]
    v0 = f.f0(u0_grid)
    for u, v in zip(u0_grid[v0 >= -_AUDIT_TOL], v0[v0 >= -_AUDIT_TOL]):
        violations.append(("H2", float(u), float(v)))
        h2_ok = False
    u1_grid = np.linspace(f.a, 1.0, _H2_GRID + 1)[:-1]
    v1 = f.f1(u1_grid)
    for u, v in zip(u1_grid[v1 <= _AUDIT_TOL], v1[v1 <= _AUDIT_TOL]):
        violations.append(("H2", float(u), float(v)))
        h2_ok = False

    h3_integral = potential_integral(f)
    h3_ok = h3_integral > _AUDIT_TOL

    bounds: SlopeBounds | None = None
    remark2_ok = False
    if h1_ok and h2_ok:
        try:
            bounds = slope_bounds(f)
        except NonNegativeSlope:
            bounds = None
        if bounds is not None:
            chain = (
                math.sqrt(-bounds.alpha_hi) * f.a,
                math.sqrt(-bounds.alpha_lo) * f.a,
                math.sqrt(-bounds.beta_hi) * (1.0 - f.a),
                math.sqrt(-bounds.beta_lo) * (1.0 - f.a),
            )
            slack = 1e-12 * max(1.0, *chain)
            remark2_ok = all(chain[i] <= chain[i + 1] + slack for i in range(3))

    return HypothesisReport(
        h1_ok=h1_ok,
        h2_ok=h2_ok,
        h3_ok=h3_ok,
        h3_integral=h3_integral,
        remark2_ok=remark2_ok,
        slope_bounds=bounds,
        violations=tuple(violations),
    )


def envelope(f: ReactionTerm, kind: EnvelopeKind) -> ReactionTerm:
    """Piecewise-linear term bounding f, built from the secant-slope extremes.

    Slope pairings (left branch rate, right branch rate):
    f_lo = (alpha_lo, beta_lo), f_hi = (alpha_hi, beta_hi),
    g_lo = (alpha_lo, beta_hi), g_hi = (alpha_hi, beta_lo).
    """
    if kind not in _ENVELOPE_KINDS:
        raise ValueError(f"unknown envelope kind {kind!r}")
    b = slope_bounds(f)
    left, right = {
        "f_lo": (b.alpha_lo, b.beta_lo),
        "f_hi": (b.alpha_hi, b.beta_hi),
        "g_lo": (b.alpha_lo, b.beta_hi),
        "g_hi": (b.alpha_hi, b.beta_lo),
    }[kind]
    return ReactionTerm(
        a=f.a,
        f0=BranchPoly((0.0, left), 0.0, f.a),
        f1=BranchPoly((-right, right), f.a, 1.0),
        branch_rule=f.branch_rule,
    )


def quadratic_demo() -> ReactionTerm:
    """The worked example: a=0.3, f0(u) = -u - u^2, f1(u) = (1-u)(u+0.2)."""
    return ReactionTerm(
        a=0.3,
        f0=BranchPoly((0.0, -1.0, -1.0), 0.0, 0.3),
        f1=BranchPoly((0.2, 0.8, -1.0), 0.3, 1.0),
        branch_rule="right_closed",
    )


def piecewise_linear(k: float, a: float) -> ReactionTerm:
    """Linear branches f0(u) = k*u and f1(u) = k*(u-1) with common slope k < 0."""
    if not k < 0:
        raise ValueError(f"slope k={k} must be negative")
    return ReactionTerm(
        a=a,
        f0=BranchPoly((0.0, k), 0.0, a),
        f1=BranchPoly((-k, k), a, 1.0),
        branch_rule="right_closed",
    )
