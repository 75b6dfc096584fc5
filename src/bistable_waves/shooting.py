"""Phase-plane shooting for the true wave speed and C^1 profile.

In the phase plane (u, w) with w = u_z > 0 the wave ODE becomes
dw/du = c - f(u)/w.  The left half path starts on the unstable manifold of
(0, 0), the right half path is integrated backward from the stable
manifold of (1, 0); both equilibria are singular points of the ODE, so the
integrations are seeded a distance eps away with the linearized slope.
The mismatch S(c) = w_left(a; c) - w_right(a; c) is strictly increasing in
c, so the speed solver is a bracketed Brent solve of S = 0 (roots.py).  Its
monotone spot check reuses the speeds the solve already evaluated in the
envelope bracket (both ends and the Brent iterates) and adds five evenly
spaced probes only when fewer than five distinct speeds lie there.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, Literal

import numpy as np
from scipy.integrate import DOP853, solve_ivp

from .errors import BracketFailure, NoPositiveRoot, PathCollapse
from .linear_theory import SpeedBracket, lambda0_plus, lambda1_minus
from .reaction import ReactionTerm, _horner
from .roots import EXPANSION_CAP, bracketed_root

PathSide = Literal["left", "right"]

_W_FLOOR = 1e-12
# DOP853 clips rtol below 100 machine epsilons (2.2e-14) with a warning.
_PROFILE_RTOL_FLOOR = 1e-13


@dataclass
class PhasePath:
    """One half of the heteroclinic connection, as w over u."""

    side: PathSide
    c: float
    u: np.ndarray
    w: np.ndarray
    w_of_u: Callable[[np.ndarray], np.ndarray] = field(repr=False, compare=False)

    @property
    def w_at_a(self) -> float:
        # Samples are ascending in u; the branch point is the right end of
        # the left path and the left end of the right path.
        return float(self.w[-1] if self.side == "left" else self.w[0])


def default_eps(f: ReactionTerm) -> float:
    """Seed distance from the singular equilibria."""
    return max(1e-6 * min(f.a, 1.0 - f.a), 1e-8)


def shoot_half(
    f: ReactionTerm,
    side: PathSide,
    c: float,
    eps: float | None = None,
    rtol: float = 1e-10,
) -> PhasePath:
    """Integrate one phase-plane half path up to u = a.

    left:  dw/du = c - f0(u)/w from u = eps, seeded on the unstable
           manifold w(eps) = lambda0_plus(c; f0'(0)) * eps.
    right: dw/du = c - f1(u)/w backward from u = 1 - eps, seeded on the
           stable manifold w(1-eps) = -lambda1_minus(c; f1'(1)) * eps.

    Raises PathCollapse if w falls below the floor 1e-12 before reaching a
    (possible on the right side only; callers treat it as w(a) = 0).
    """
    if c < 0.0:
        raise ValueError(f"speed c={c} must be >= 0")
    if eps is None:
        eps = default_eps(f)
    if not (0.0 < eps <= min(f.a, 1.0 - f.a) / 100.0):
        raise ValueError(f"eps={eps} outside (0, min(a, 1-a)/100]")

    if side == "left":
        coefficients = f.f0.coefficients
        u0, u1 = eps, f.a
        w0 = lambda0_plus(c, f.slope_at_zero) * eps
    elif side == "right":
        coefficients = f.f1.coefficients
        u0, u1 = 1.0 - eps, f.a
        w0 = -lambda1_minus(c, f.slope_at_one) * eps
    else:
        raise ValueError(f"unknown side {side!r}")

    def rhs(u, w):
        # Horner on a Python float: npp.polyval's arithmetic without its
        # per-call array set-up, bit for bit.
        return c - _horner(float(u), coefficients) / w[0]

    def collapse(u, w):
        return w[0] - _W_FLOOR

    collapse.terminal = True
    collapse.direction = -1.0

    sol = solve_ivp(
        rhs,
        (u0, u1),
        [w0],
        method="RK45",
        rtol=rtol,
        atol=1e-16,
        dense_output=True,
        events=collapse,
    )
    if sol.status == 1:  # collapse event fired
        u_at = float(sol.t_events[0][0])
        raise PathCollapse(
            f"{side} path at c={c} collapsed to w<={_W_FLOOR} at u={u_at:.6g}", u_at=u_at
        )
    if not sol.success:
        # A vanishing w makes dw/du ~ 1/w stiff enough that the step size
        # can underflow before the floor event interpolates; that is still
        # a collapse, not an integrator defect.
        if side == "right" and sol.y[0][-1] <= 1e-6:
            u_at = float(sol.t[-1])
            raise PathCollapse(
                f"right path at c={c} collapsed to w={sol.y[0][-1]:.3g} at u={u_at:.6g}",
                u_at=u_at,
            )
        raise RuntimeError(f"phase-path integration failed at c={c}: {sol.message}")

    dense = sol.sol
    lam_seed = w0 / eps  # signed slope magnitude of the seeded manifold

    if side == "left":

        def w_of_u(u):
            u = np.asarray(u, dtype=float)
            inside = np.clip(u, u0, u1)
            out = np.where(u < u0, lam_seed * u, dense(inside)[0])
            return float(out) if out.ndim == 0 else out

        u_samples, w_samples = sol.t, sol.y[0]
    else:

        def w_of_u(u):
            u = np.asarray(u, dtype=float)
            inside = np.clip(u, u1, u0)
            out = np.where(u > u0, lam_seed * (1.0 - u), dense(inside)[0])
            return float(out) if out.ndim == 0 else out

        u_samples, w_samples = sol.t[::-1], sol.y[0][::-1]

    return PhasePath(side=side, c=float(c), u=u_samples, w=w_samples, w_of_u=w_of_u)


def speed_mismatch(
    f: ReactionTerm, c: float, eps: float | None = None, rtol: float = 1e-10
) -> float:
    """S(c) = w_left(a; c) - w_right(a; c); a right-side collapse counts as
    w_right(a; c) = 0."""
    left = shoot_half(f, "left", c, eps=eps, rtol=rtol)
    try:
        w_right = shoot_half(f, "right", c, eps=eps, rtol=rtol).w_at_a
    except PathCollapse:
        w_right = 0.0
    return left.w_at_a - w_right


def find_speed(
    f: ReactionTerm,
    bracket: SpeedBracket | None,
    tol_c: float = 1e-10,
    *,
    eps: float | None = None,
    rtol: float = 1e-10,
    check_monotone: bool = True,
    details: dict | None = None,
) -> float:
    """Solve the mismatch S for the unique speed with |S(c*)| <= tol_c, by
    Brent's method on a bracket of S's sign change.

    The working bracket is [c_check, c_hat] when the envelope bracket is
    ordered, else [0, expanding].  Raises NoPositiveRoot when S(0) >= 0
    (the root sits at or left of zero) and BracketFailure when no sign
    change appears up to c = 2**10.

    With check_monotone (and an envelope bracket of positive width), the
    values of S at every speed evaluated in [c_check, c_hat], sorted by c,
    must not fall by more than 1e-8 from one speed to the next; otherwise a
    RuntimeWarning is issued and details["monotone_ok"] is False.  Those
    speeds are the bracket ends and the Brent iterates.  When fewer than
    five distinct ones lie in the bracket (a fallback bracket or a root
    found at once), the five interior points of linspace(c_check, c_hat, 7)
    are evaluated first.  The check runs after the root is found and never
    moves it; details["evaluations"] counts its probes too.
    """
    evaluated: list[tuple[float, float]] = []  # every (c, S(c)) computed

    def S(c: float) -> float:
        s = speed_mismatch(f, c, eps=eps, rtol=rtol)
        evaluated.append((c, s))
        return s

    if bracket is not None and bracket.ordering_ok:
        lo, hi = bracket.c_check, bracket.c_hat
    else:
        lo, hi = 0.0, 1.0

    s_lo = S(lo)
    if lo > 0.0 and abs(s_lo) <= tol_c:
        c_star, s_star, iterations = lo, s_lo, 0
    else:
        if lo > 0.0 and s_lo > tol_c:
            # Mismatch already positive at the lower end: fall back to 0.
            lo, s_lo = 0.0, S(0.0)
        if lo == 0.0 and s_lo >= -tol_c:
            # The root sits at or left of c = 0: no positive wave speed.
            raise NoPositiveRoot(
                f"mismatch S(0)={s_lo:.3g} is not negative: no positive wave speed"
            )
        if hi <= lo:
            hi = max(2.0 * lo, 1.0)
        s_hi = S(hi)
        while s_hi < -tol_c:
            if hi >= EXPANSION_CAP:
                raise BracketFailure(
                    f"no sign change of the mismatch up to c={hi} (S={s_hi:.3g})"
                )
            lo, s_lo = hi, s_hi
            hi *= 2.0
            s_hi = S(hi)
        c_star, s_star, iterations = bracketed_root(
            S, lo, hi, s_lo, s_hi, tol_c, xtol=1e-14 * max(1.0, hi)
        )

    monotone_ok = True
    if check_monotone and bracket is not None and bracket.c_hat > bracket.c_check + 1e-9:
        c_lo, c_hi = bracket.c_check, bracket.c_hat

        def in_bracket() -> dict[float, float]:
            return {c: s for c, s in evaluated if c_lo <= c <= c_hi}

        if len(in_bracket()) < 5:
            for p in np.linspace(c_lo, c_hi, 7)[1:-1]:
                S(float(p))
        values = [s for _, s in sorted(in_bracket().items())]
        if np.any(np.diff(values) < -1e-8):
            monotone_ok = False
            warnings.warn(
                "shooting mismatch not monotone at spot-check speeds; "
                "integration tolerance may be too loose",
                RuntimeWarning,
            )

    if details is not None:
        details["iterations"] = iterations
        details["evaluations"] = len(evaluated)
        details["residual"] = s_star
        details["monotone_ok"] = monotone_ok
    return c_star


@dataclass
class WaveSolution:
    """Sampled C^1 traveling-wave profile at the matched speed."""

    c_star: float
    z_grid: np.ndarray
    u_values: np.ndarray
    w_values: np.ndarray
    derivative_jump_at_0: float
    bracket: SpeedBracket | None = None


def _march(
    w_of_u: Callable, u_start: float, target: float, dz: float, forward: bool, rtol: float
) -> tuple[np.ndarray, np.ndarray]:
    """One adaptive solve of du/dz = w(u) from u(0) = u_start, sampled at
    z = dz, 2 dz, ... (or -dz, -2 dz, ...) up to the first sample past the
    target level.

    Each sample is read from the dense output of the step that covers it,
    and the solve stops with the step that holds the last sample, so
    nothing is extrapolated past the solved interval.  The solve runs 100x
    tighter than the phase paths it reads, which keeps its own error at the
    paths' level (~1e-12 against the linear closed forms); DOP853 makes
    that tolerance cheap.
    """
    sign = 1.0 if forward else -1.0
    cap = int(round(400.0 / dz))
    solver = DOP853(
        lambda z, u: [w_of_u(u[0])],  # a scalar query is the interpolant's cheap path
        0.0,
        [u_start],
        sign * cap * dz,
        rtol=max(1e-2 * rtol, _PROFILE_RTOL_FLOOR),
        atol=1e-16,
    )
    chunks: list[np.ndarray] = []
    k = 1  # index of the next grid sample
    while solver.status == "running":
        message = solver.step()
        if solver.status == "failed":
            raise RuntimeError(f"profile solve failed at z={solver.t:.6g}: {message}")
        z_done = abs(solver.t)
        ks = np.arange(k, int(z_done / dz) + 2)
        ks = ks[ks * dz <= z_done]
        if ks.size == 0:
            continue
        u = solver.dense_output()(sign * (ks * dz))[0]
        passed = np.flatnonzero(u >= target if forward else u <= target)
        if passed.size:
            chunks.append(u[: passed[0] + 1])
            us = np.concatenate(chunks)
            return us, w_of_u(us)
        chunks.append(u)
        k = int(ks[-1]) + 1
    raise RuntimeError(
        f"profile march did not reach u={target} within z range 400 (dz={dz})"
    )


def reconstruct_profile(
    f: ReactionTerm,
    c_star: float,
    u_eps: float = 1e-4,
    dz: float = 1e-2,
    *,
    bracket: SpeedBracket | None = None,
    eps: float | None = None,
    rtol: float = 1e-10,
) -> WaveSolution:
    """Rebuild u(z) from the phase paths at c_star by integrating du/dz = w(u).

    Marches forward from u(0) = a until u >= 1 - u_eps on the right path
    and backward until u <= u_eps on the left path, on a uniform z grid.
    """
    if not (0.0 < u_eps <= 1e-3):
        raise ValueError(f"u_eps={u_eps} outside (0, 1e-3]")
    if dz <= 0.0:
        raise ValueError("dz must be positive")
    left = shoot_half(f, "left", c_star, eps=eps, rtol=rtol)
    right = shoot_half(f, "right", c_star, eps=eps, rtol=rtol)
    jump = abs(left.w_at_a - right.w_at_a)

    u_fwd, w_fwd = _march(right.w_of_u, f.a, 1.0 - u_eps, dz, forward=True, rtol=rtol)
    u_bwd, w_bwd = _march(left.w_of_u, f.a, u_eps, dz, forward=False, rtol=rtol)

    n_b, n_f = len(u_bwd), len(u_fwd)
    z = np.arange(-n_b, n_f + 1, dtype=float) * dz
    u = np.concatenate([u_bwd[::-1], [f.a], u_fwd])
    w_mid = 0.5 * (left.w_at_a + right.w_at_a)
    w = np.concatenate([w_bwd[::-1], [w_mid], w_fwd])
    return WaveSolution(
        c_star=float(c_star),
        z_grid=z,
        u_values=u,
        w_values=w,
        derivative_jump_at_0=jump,
        bracket=bracket,
    )


def verify_c1(ws: WaveSolution, tol: float = 1e-6) -> bool:
    """True iff the derivative jump at z = 0 is within tol and w > 0 throughout."""
    return bool(ws.derivative_jump_at_0 <= tol and np.all(ws.w_values > 0.0))


def solve_wave(
    f: ReactionTerm,
    *,
    tol_c: float = 1e-10,
    u_eps: float = 1e-4,
    dz: float = 1e-2,
    eps: float | None = None,
    rtol: float = 1e-10,
    details: dict | None = None,
) -> WaveSolution:
    """Full pipeline: slope bounds, envelope bracket, Brent-solved speed, profile."""
    from .linear_theory import speed_bracket
    from .reaction import slope_bounds

    bracket = speed_bracket(slope_bounds(f), f.a)
    c_star = find_speed(f, bracket, tol_c, eps=eps, rtol=rtol, details=details)
    return reconstruct_profile(
        f, c_star, u_eps=u_eps, dz=dz, bracket=bracket, eps=eps, rtol=rtol
    )
