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
from typing import Callable, Literal, get_args

import numpy as np
from numpy.polynomial import polynomial as npp

from .errors import NonNegativeSlope

BranchRule = Literal["left_closed", "right_closed", "average"]
EnvelopeKind = Literal["f_lo", "f_hi", "g_lo", "g_hi"]

_AUDIT_TOL = 1e-9  # margin of the audit's strict inequalities


def _check_branch_point(a: float) -> float:
    """a if it lies in (0, 1), where every branch point lies; else ValueError."""
    if not 0.0 < a < 1.0:
        raise ValueError(f"branch point a={a} must lie in (0, 1)")
    return a


def _horner(coefficients: tuple[float, ...]) -> Callable[[np.ndarray | float], np.ndarray | float]:
    """The evaluator u -> npp.polyval(u, coefficients), bit for bit, with
    the coefficients laid out once.

    polyval starts from c[-1] + u*0 and then takes c[-i] + c0*u; the same
    products and sums, commuted, are exact.  For finite u a nonzero c[-1]
    absorbs the u*0 term, so the first step is a single product (at u = ±inf
    the two differ; _eval_extended overwrites those nodes).  An array u
    is updated in place in a new buffer; a Python float u takes the same
    steps in float arithmetic and returns a float.
    """
    *rest, top = coefficients
    head, start = (top, rest.pop()) if rest and top != 0.0 else (0.0, top)
    rest = tuple(reversed(rest))

    def horner(u):
        out = u * head
        out += start
        for c in rest:
            out *= u
            out += c
        return out

    return horner


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
        return _horner(self.coefficients)(u)

    def derivative(self) -> "BranchPoly":
        """The derivative branch; a coefficient that overflows is refused
        as non-finite, without a warning."""
        with np.errstate(over="ignore"):
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
        _check_branch_point(self.a)
        if abs(self.f0.domain_lo) > 1e-12 or abs(self.f0.domain_hi - self.a) > 1e-12:
            raise ValueError("f0 domain must be [0, a]")
        if abs(self.f1.domain_lo - self.a) > 1e-12 or abs(self.f1.domain_hi - 1.0) > 1e-12:
            raise ValueError("f1 domain must be [a, 1]")
        if self.branch_rule not in get_args(BranchRule):
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
        """Vectorized eval_extended on an array of any shape; NaN stays NaN.

        _eval_extended on u with the least and greatest values of u, which
        the PDE stepper passes from its band check instead.
        """
        u = np.asarray(u, dtype=float)
        lo, hi = (u.min(), u.max()) if u.size else (0.0, 1.0)
        return self._eval_extended(np.atleast_1d(u), lo, hi).reshape(u.shape)

    def _eval_extended(self, u: np.ndarray, lo: float, hi: float) -> np.ndarray:
        """eval_extended_array(u) for a float array u of one or more
        dimensions whose least and greatest values are lo and hi, or NaN
        where u holds a NaN.

        Both branches are evaluated on every node by an in-place Horner
        scheme (_horner, bit-identical to npp.polyval) and selected with the
        rule's own comparison, u <= a under "left_closed" and u < a
        otherwise, so a node at a takes branch_value() by selection; only
        "average" patches those nodes.  The tangent line at 0 is patched in
        when lo < 0 says that some node lies below 0, and the one at 1 when
        hi > 1 says that some node lies above 1; a NaN lo or hi counts as
        both.  A patch evaluates its line on every node and copies it where
        it applies, which beats indexing at the hundreds of nodes a PDE
        state holds above 1.  Off [0, 1] the branch values are overwritten,
        so overflow or 0*inf there, or in a line where it does not apply,
        is not reported.
        """
        below, above = not lo >= 0.0, not hi <= 1.0
        quiet = np.errstate(over="ignore", invalid="ignore") if below or above else contextlib.nullcontext()
        with quiet:
            out = _horner(self.f1.coefficients)(u)
            left = u <= self.a if self.branch_rule == "left_closed" else u < self.a
            np.copyto(out, _horner(self.f0.coefficients)(u), where=left)
            if below:
                np.copyto(out, self.slope_at_zero * u, where=u < 0.0)
            if above:
                line = u - 1.0
                line *= self.slope_at_one
                np.copyto(out, line, where=u > 1.0)
        if self.branch_rule == "average":
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


def _poly_extremes(coeffs: np.ndarray, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    """The points where a polynomial takes its extremes on [lo, hi], the
    endpoints and the real critical points between them, and its values
    there."""
    candidates = [lo, hi]
    # Top coefficients below 1e-13 of the largest only add roots far outside
    # [0, 1], but they swamp polyroots' companion matrix, which then loses
    # (or overflows on) the roots inside: the roots are found without them.
    der = npp.polyder(coeffs)
    der = npp.polytrim(der, 1e-13 * np.max(np.abs(der)))
    if len(der) >= 2:
        for r in npp.polyroots(der):
            if abs(r.imag) < 1e-10 and lo <= r.real <= hi:
                candidates.append(float(r.real))
    points = np.asarray(candidates)
    return points, npp.polyval(points, coeffs)


def _poly_range(coeffs: np.ndarray, lo: float, hi: float) -> tuple[float, float]:
    """Exact (min, max) of a polynomial on [lo, hi], over _poly_extremes."""
    _, vals = _poly_extremes(coeffs, lo, hi)
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
    """Audit the term: endpoint behaviour, the sign conditions, the
    positivity of the potential integral, and the square-root ordering
    chain that underpins the speed bracket.

    Strict inequalities are tested with the margin _AUDIT_TOL.  The sign
    conditions are decided exactly, where each branch takes its extremes,
    and a failing branch is reported once, at its worst point.  An
    admissible report carries the slope bounds.  Failures are reported,
    never raised.
    """
    # Endpoints: f0(0) = f1(1) = 0 and f0'(0), f1'(1) < 0.
    f0_at_0, f1_at_1 = float(f.f0(0.0)), float(f.f1(1.0))
    d0, d1 = f.slope_at_zero, f.slope_at_one
    violations = [
        ("H1", u, value)
        for u, value, fails in (
            (0.0, f0_at_0, abs(f0_at_0) > _AUDIT_TOL),
            (0.0, d0, not d0 < -_AUDIT_TOL),
            (1.0, f1_at_1, abs(f1_at_1) > _AUDIT_TOL),
            (1.0, d1, not d1 < -_AUDIT_TOL),
        )
        if fails
    ]
    h1_ok = not violations

    # Sign conditions: f0 < 0 on (0, a], f1 > 0 on [a, 1).  With the sign s
    # that makes the wanted value negative, a branch fails where s*f >= -tol,
    # except at the end that H1 pins to 0, where it fails only if s*f > tol.
    h2_ok = True
    for coeffs, lo, hi, pinned, sign in (
        (f.f0.coefficients, 0.0, f.a, 0.0, 1.0),
        (f.f1.coefficients, f.a, 1.0, 1.0, -1.0),
    ):
        points, values = _poly_extremes(coeffs, lo, hi)
        signed = sign * values
        failing = np.where(points == pinned, signed > _AUDIT_TOL, signed >= -_AUDIT_TOL)
        if failing.any():
            worst = np.argmax(np.where(failing, signed, -np.inf))
            violations.append(("H2", float(points[worst]), float(values[worst])))
            h2_ok = False

    h3_integral = potential_integral(f)
    h3_ok = h3_integral > _AUDIT_TOL

    bounds: SlopeBounds | None = None
    remark2_ok = False
    if h1_ok and h2_ok:
        try:
            bounds = slope_bounds(f)
        except NonNegativeSlope:  # only by rounding once H1 and H2 hold
            h2_ok = False
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
    if kind not in get_args(EnvelopeKind):
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
    _check_branch_point(a)
    return ReactionTerm(
        a=a,
        f0=BranchPoly((0.0, k), 0.0, a),
        f1=BranchPoly((-k, k), a, 1.0),
        branch_rule="right_closed",
    )
