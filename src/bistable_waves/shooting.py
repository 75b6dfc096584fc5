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

Each half path is a scalar ODE whose right-hand side costs a few flops, so
it is integrated by a dedicated Dormand-Prince 5(4) loop (_rk45) rather
than through solve_ivp's generic machinery.  The loop performs exactly the
float operations of scipy's solve_ivp(method="RK45", dense_output=True) on
this problem: its steps, samples, collapse points and step interpolants are
bit-identical to solve_ivp's.  It is one loop: step control and the
unrolled stages inline, with no generator or closure per step.  scipy's
weighted sums over the stages are np.dot calls, which BLAS may evaluate
as fused multiply-adds; a sum in plain floats would round differently, so
those reductions stay BLAS dot calls on the same (1, s) views of the stage
matrix, made as bound ndarray.dot methods rather than through np.dot.

The profile is a quadrature, not a second ODE solve: along a solved path
z(u) = int_a^u dv / w(v), so _march integrates 1/w over each RK45 step's
own quartic interpolant (Gauss-Legendre, in the log distance to the path's
equilibrium) and inverts z(u) at the sample spacing by Newton steps on the
same rule, vectorized over the samples.  The RK45 tableau is SciPy's,
copied into _tableaux, and the collapse root is found by roots'
transcription of brentq, so shooting runs on NumPy alone.
"""

from __future__ import annotations

import math
import warnings
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Callable, Literal, NamedTuple

import numpy as np

from ._tableaux import RK45
from .errors import BracketFailure, NoPositiveRoot, PathCollapse
from .linear_theory import SpeedBracket, lambda0_plus, lambda1_minus
from .reaction import ReactionTerm, _horner
from .roots import EXPANSION_CAP, bracketed_root

PathSide = Literal["left", "right"]

_W_FLOOR = 1e-12
# The seed distance eps lies in (0, min(a, 1 - a) / _EPS_CAP_DIVISOR].
_EPS_CAP_DIVISOR = 100.0
# reconstruct_profile stops within u_eps of 0 and 1, with u_eps in (0, _U_EPS_CAP].
_U_EPS_CAP = 1e-3
# The profile march covers |z| <= _MARCH_Z_RANGE, one sample every dz, so
# _MARCH_Z_RANGE / dz must lie in [1, _MARCH_SAMPLE_CAP].
_MARCH_Z_RANGE = 400.0
_MARCH_SAMPLE_CAP = 40_000_000
# The march's quadrature: 8 Gauss-Legendre points per path step (exact to
# rounding on the paths' steps, whose integrand tends to a constant at the
# equilibria) and 3 over each Newton step, which is short; a fixed number
# of Newton steps per sample from a cubic Hermite guess (two already reach
# rounding on coarse rtol 1e-6 paths); and at most _MARCH_BLOCK samples
# solved at once, which bounds the temporaries at the sample cap and keeps
# them in cache (blocks of 65,536 took twice the time per sample).
_GAUSS = np.polynomial.legendre.leggauss(8)
_GAUSS_NEWTON = np.polynomial.legendre.leggauss(3)
_NEWTON_STEPS = 4
_MARCH_BLOCK = 8_192

# The RK45 loop's settings and scipy's rules for it
# (scipy.integrate._ivp: rk.py, common.py and ivp.py).
_ATOL = 1e-16
_EPS = float(np.finfo(float).eps)
_RTOL_MIN = 100 * _EPS  # smaller rtols are clipped to this, with a warning
_EVENT_TOL = 4 * _EPS  # solve_ivp's xtol for an event root; brentq's default rtol
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_RK45_EXPONENT = -1 / (RK45.error_estimator_order + 1)


def _norm(v: float) -> float:
    """scipy's RMS norm of a one-element vector: sqrt of the one-term dot
    x.x (a lone product rounds alike fused or not), over sqrt(1)."""
    return math.sqrt(v * v)


def _initial_step(
    rhs: Callable[[float, float], float],
    t0: float,
    y0: float,
    f0: float,
    t_bound: float,
    rtol: float,
    atol: float = _ATOL,
) -> float:
    """scipy's select_initial_step for the scalar ODE y' = rhs(t, y) with
    y'(t0) = f0, no maximum step and RK45's error estimator order."""
    interval = abs(t_bound - t0)
    if interval == 0.0:
        return 0.0
    direction = 1.0 if t_bound > t0 else -1.0
    scale = atol + abs(y0) * rtol
    d0, d1 = _norm(y0 / scale), _norm(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    f1 = rhs(t0 + h0 * direction, y0 + h0 * direction * f0)
    d2 = _norm((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / (RK45.error_estimator_order + 1))
    return min(100 * h0, h1, interval)


def _interpolate(t_old: float, h: float, y_old: float, Q: np.ndarray, t: float) -> float:
    """RkDenseOutput at a scalar t: the quartic in x = (t - t_old)/h with
    coefficients Q = K.T P, reduced by the same (1, 4).(4,) np.dot."""
    x = (t - t_old) / h
    x2 = x * x
    x3 = x2 * x
    return float(h * np.dot(Q, np.array((x, x2, x3, x3 * x)))[0] + y_old)


def _interpolate_array(t_old: float, h: float, y_old: float, Q: np.ndarray, t: np.ndarray) -> np.ndarray:
    """RkDenseOutput at an array t: the powers of x by cumprod over a tiled
    (4, m) array and one (1, 4).(4, m) np.dot, which rounds differently
    from the scalar product in the last bit."""
    x = (t - t_old) / h
    y = h * np.dot(Q, np.cumprod(np.tile(x, (Q.shape[1], 1)), axis=0))
    y += y_old
    return y[0]


@dataclass(frozen=True)
class _Steps:
    """The accepted steps of one _rk45 integration.

    status follows solve_ivp: 0 reached t_bound, 1 the floor event fired
    (the last node is its root), -1 the step size underflowed (the last node
    is the last accepted step).  segments[i] = (t_old, h, y_old, Q) is the
    step from ts[i] to ts[i + 1].  nfev counts the right-hand-side
    evaluations as solve_ivp's nfev does: the initial slope, the initial
    step's probe and six per trial step, accepted or rejected.
    """

    status: int
    ts: list[float]
    ys: list[float]
    segments: list[tuple[float, float, float, np.ndarray]]
    nfev: int


def _rk45(
    rhs: Callable[[float, float], float],
    t0: float,
    t_bound: float,
    y0: float,
    rtol: float,
    floor_event: bool,
    atol: float = _ATOL,
) -> _Steps:
    """Integrate the scalar ODE y' = rhs(t, y) from (t0, y0) to t_bound as
    solve_ivp(rhs, (t0, t_bound), [y0], method="RK45", rtol=rtol,
    atol=atol, dense_output=True) does, float operation for float
    operation: scipy's rtol floor, initial step and RungeKutta step
    control (the minimum step of 10 ulps, the clamp at t_bound and RK45's
    accept/reject factor law), in one loop with the stages unrolled.
    The stage, solution, error and dense-output sums are the BLAS dot
    products of scipy's rk_step, on the same (1, s) views of the stage
    matrix K, called as bound ndarray.dot methods.  With floor_event,
    integration stops where y falls through _W_FLOOR, at the root
    bracketed_root finds on the step's interpolant (solve_ivp's terminal
    event with direction -1).
    """
    if rtol < _RTOL_MIN:
        warnings.warn(
            "At least one element of `rtol` is too small. "
            f"Setting `rtol = np.maximum(rtol, {_RTOL_MIN})`.",
            UserWarning,
            stacklevel=3,
        )
        rtol = _RTOL_MIN

    # The stage matrix K and the views scipy's rk_step reduces with np.dot,
    # as bound methods: dot_s(A[s, :s]) is K[:s].T.dot(A[s, :s]).
    K = np.empty((RK45.n_stages + 1, 1))
    k = K[:, 0]
    dot1, dot2, dot3, dot4, dot5, dot_b = (K[:s].T.dot for s in range(1, RK45.n_stages + 1))
    dot_all = K.T.dot
    c1, c2, c3, c4, c5 = (float(c) for c in RK45.C[1 : RK45.n_stages])
    a1, a2, a3, a4, a5 = (RK45.A[s, :s] for s in range(1, RK45.n_stages))
    B, E, P = RK45.B, RK45.E, RK45.P

    t, y = t0, y0
    f = rhs(t, y)
    h_abs = _initial_step(rhs, t, y, f, t_bound, rtol, atol)
    nfev = 1 if t == t_bound else 2
    ts, ys, segments = [t], [y], []
    direction = 1.0 if t_bound > t else -1.0
    while t != t_bound:
        min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
        if h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if h_abs < min_step:
                return _Steps(-1, ts, ys, segments, nfev)
            t_new = t + h_abs * direction
            if direction * (t_new - t_bound) > 0:
                t_new = t_bound
            h = t_new - t
            h_abs = abs(h)
            k[0] = f
            k[1] = rhs(t + c1 * h, y + dot1(a1).item() * h)
            k[2] = rhs(t + c2 * h, y + dot2(a2).item() * h)
            k[3] = rhs(t + c3 * h, y + dot3(a3).item() * h)
            k[4] = rhs(t + c4 * h, y + dot4(a4).item() * h)
            k[5] = rhs(t + c5 * h, y + dot5(a5).item() * h)
            y_new = y + h * dot_b(B).item()
            f_new = rhs(t + h, y_new)
            k[6] = f_new
            nfev += 6
            y_mag, y_new_mag = abs(y), abs(y_new)
            # np.maximum: a NaN y_new propagates
            scale = atol + (y_mag if y_mag > y_new_mag else y_new_mag) * rtol
            error_norm = _norm(dot_all(E).item() * h / scale)
            if error_norm < 1:
                if error_norm == 0:
                    factor = _MAX_FACTOR
                else:
                    factor = min(_MAX_FACTOR, _SAFETY * error_norm**_RK45_EXPONENT)
                if rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm**_RK45_EXPONENT)
            rejected = True
        segment = (t, h, y, dot_all(P))
        segments.append(segment)
        if floor_event and y - _W_FLOOR >= 0 and y_new - _W_FLOOR <= 0:

            def event(u: float) -> float:
                return _interpolate(*segment, u) - _W_FLOOR

            root, _, _ = bracketed_root(event, t, t_new, event(t), event(t_new), 0.0, xtol=_EVENT_TOL)
            ts.append(root)
            ys.append(_interpolate(*segment, root))
            return _Steps(1, ts, ys, segments, nfev)
        t, y, f = t_new, y_new, f_new
        ts.append(t)
        ys.append(y)
    return _Steps(0, ts, ys, segments, nfev)


class _Interpolants(NamedTuple):
    """A path's RK45 steps in integration order, from the seed to u = a:
    segments[i] = (t_old, h, w_old, Q) is step i's quartic interpolant,
    w = w_old + h * Q.(x, x^2, x^3, x^4) with x = (u - t_old) / h, as
    _Steps.segments holds it.  Past the seed the path is the manifold line
    w = lam_seed * (distance to the seed's equilibrium)."""

    segments: list[tuple[float, float, float, np.ndarray]]
    lam_seed: float


@dataclass
class PhasePath:
    """One half of the heteroclinic connection, as w over u.

    u and w are the RK45 step nodes, ascending in u.  w_of_u evaluates the
    path anywhere: between the nodes with the steps' quartic interpolants
    (bit-identical to solve_ivp's OdeSolution, for scalar and array
    queries alike), past u = a with the value at a, and past the seed with
    the manifold line the path was seeded on.  interpolants holds those
    quartics and that line for the profile march.  nfev is the number of
    right-hand-side evaluations the integration took, solve_ivp's nfev.
    """

    side: PathSide
    c: float
    u: np.ndarray
    w: np.ndarray
    w_of_u: Callable[[np.ndarray], np.ndarray] = field(repr=False, compare=False)
    interpolants: _Interpolants = field(repr=False, compare=False)
    nfev: int = field(default=0, repr=False, compare=False)

    @property
    def w_at_a(self) -> float:
        # Samples are ascending in u; the branch point is the right end of
        # the left path and the left end of the right path.
        return float(self.w[-1] if self.side == "left" else self.w[0])


def _dense_w_of_u(
    steps: _Steps, left: bool, lam_seed: float
) -> Callable[[np.ndarray], np.ndarray]:
    """w_of_u of a completed path: OdeSolution's segment lookup and
    evaluation over the step interpolants, clipped to the path and
    continued past the seed by w = lam_seed * (distance to the seed's
    equilibrium).

    OdeSolution bisects the nodes sorted ascending, with side "left" on an
    ascending path and "right" on a descending one, and takes the lower
    segment index.  An array query is sorted, grouped by segment and
    evaluated by _interpolate_array per group, as OdeSolution.__call__
    does; its product rounds differently from the scalar one in the last
    bit, so the two paths are kept apart.
    """
    ts, segments = steps.ts, steps.segments
    if not left:  # store both in ascending u
        ts, segments = ts[::-1], segments[::-1]
    nodes = np.array(ts)
    lo, hi = ts[0], ts[-1]
    last = len(segments) - 1
    search = bisect_left if left else bisect_right
    side = "left" if left else "right"

    # The scalar query is a function of its own, not a recursive call of
    # w_of_u: a closure that refers to itself is a reference cycle, and a
    # path kept with its wave would then outlive its last reference until
    # the cyclic collector's oldest generation runs.
    def scalar(u: float) -> float:
        if left and u < lo:
            return float(lam_seed * u)
        if not left and u > hi:
            return float(lam_seed * (1.0 - u))
        q = lo if u < lo else hi if u > hi else u  # np.clip; NaN passes
        return _interpolate(*segments[min(max(search(ts, q) - 1, 0), last)], q)

    def w_of_u(u):
        if isinstance(u, float):  # a Python float or NumPy float64
            return scalar(u)
        u = np.asarray(u, dtype=float)
        if u.ndim == 0:
            return scalar(float(u))
        if u.size == 0:  # where OdeSolution raises
            return np.empty_like(u)
        q = np.clip(u, lo, hi)
        order = np.argsort(q)
        reverse = np.empty_like(order)
        reverse[order] = np.arange(order.shape[0])
        q_sorted = q[order]
        index = np.searchsorted(nodes, q_sorted, side=side) - 1
        np.clip(index, 0, last, out=index)
        cuts = np.flatnonzero(np.diff(index)) + 1
        pieces = []
        for start, stop in zip([0, *cuts], [*cuts, len(index)]):
            pieces.append(_interpolate_array(*segments[index[start]], q_sorted[start:stop]))
        w = np.hstack(pieces)[reverse]
        tail = lam_seed * u if left else lam_seed * (1.0 - u)
        return np.where(u < lo if left else u > hi, tail, w)

    return w_of_u


def default_eps(f: ReactionTerm) -> float:
    """Seed distance from the singular equilibria."""
    return max(1e-6 * min(f.a, 1.0 - f.a), 1e-8)


def _check_eps(eps: float, a: float) -> float:
    """eps if it lies in the seed window (0, min(a, 1-a)/_EPS_CAP_DIVISOR]
    of a term with branch point a, and 1 - eps, the right path's seed, is
    not rounded onto the equilibrium u = 1; else ValueError."""
    cap = min(a, 1.0 - a) / _EPS_CAP_DIVISOR
    if not 0.0 < eps <= cap:
        raise ValueError(f"eps={eps} outside (0, min(a, 1-a)/{_EPS_CAP_DIVISOR:g}] = (0, {cap:.6g}]")
    if 1.0 - eps == 1.0:
        raise ValueError(f"eps={eps} rounds the right seed 1 - eps onto u = 1")
    return eps


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

    The integration is Dormand-Prince 5(4) with atol = 1e-16, by a
    dedicated loop that is bit-identical to solve_ivp(method="RK45",
    dense_output=True): the same steps, samples, interpolants and collapse
    points.  Its stage sums stay BLAS dot calls on scipy's shapes, since
    BLAS may fuse their multiply-adds and plain float sums would not round
    alike.  An rtol
    below 100 machine epsilons is clipped to that, with solve_ivp's
    UserWarning.

    Raises PathCollapse if the right path's w falls below the floor 1e-12
    before reaching a (callers treat it as w(a) = 0).  Only that path
    carries the collapse event: an admissible f0 < 0 keeps dw/du > 0 on the
    left path.
    """
    if c < 0.0:
        raise ValueError(f"speed c={c} must be >= 0")
    eps = _check_eps(default_eps(f) if eps is None else eps, f.a)

    if side == "left":
        branch = _horner(f.f0.coefficients)
        u0, u1 = eps, f.a
        w0 = lambda0_plus(c, f.slope_at_zero) * eps
    elif side == "right":
        branch = _horner(f.f1.coefficients)
        u0, u1 = 1.0 - eps, f.a
        w0 = -lambda1_minus(c, f.slope_at_one) * eps
    else:
        raise ValueError(f"unknown side {side!r}")
    if not math.isfinite(w0):
        raise ValueError(f"seed w={w0} of the {side} path at c={c} is not finite")
    c = float(c)

    def rhs(u: float, w: float) -> float:
        # Horner on a Python float: npp.polyval's arithmetic without its
        # per-call array set-up, bit for bit.  At w == 0 the division takes
        # NumPy's inf and RuntimeWarning, where a float one would raise.
        p = branch(u)
        return c - (p / w if w else np.float64(p) / w)

    left = side == "left"
    steps = _rk45(rhs, float(u0), float(u1), float(w0), rtol, floor_event=not left)
    if steps.status == 1:
        u_at = steps.ts[-1]
        raise PathCollapse(
            f"right path at c={c} collapsed to w<={_W_FLOOR} at u={u_at:.6g}",
            u_at=u_at,
            nfev=steps.nfev,
        )
    if steps.status == -1:
        # A vanishing w makes dw/du ~ 1/w stiff enough that the step size
        # can underflow before the floor event interpolates; that is still
        # a collapse, not an integrator defect.
        u_at, w_end = steps.ts[-1], steps.ys[-1]
        if not left and w_end <= 1e-6:
            raise PathCollapse(
                f"right path at c={c} collapsed to w={w_end:.3g} at u={u_at:.6g}",
                u_at=u_at,
                nfev=steps.nfev,
            )
        raise RuntimeError(f"phase-path integration failed at c={c}: {RK45.TOO_SMALL_STEP}")

    u_samples, w_samples = np.array(steps.ts), np.array(steps.ys)
    if not left:
        u_samples, w_samples = u_samples[::-1], w_samples[::-1]
    interpolants = _Interpolants(steps.segments, w0 / eps)
    return PhasePath(
        side=side,
        c=c,
        u=u_samples,
        w=w_samples,
        w_of_u=_dense_w_of_u(steps, left, interpolants.lam_seed),
        interpolants=interpolants,
        nfev=steps.nfev,
    )


def speed_mismatch(
    f: ReactionTerm,
    c: float,
    eps: float | None = None,
    rtol: float = 1e-10,
    *,
    details: dict | None = None,
) -> float:
    """S(c) = w_left(a; c) - w_right(a; c); a right-side collapse counts as
    w_right(a; c) = 0.  details["ode_nfev"] is set to the right-hand-side
    evaluations of both paths, a collapsed one included."""
    left = shoot_half(f, "left", c, eps=eps, rtol=rtol)
    try:
        right = shoot_half(f, "right", c, eps=eps, rtol=rtol)
        w_right, right_nfev = right.w_at_a, right.nfev
    except PathCollapse as collapse:
        w_right, right_nfev = 0.0, collapse.nfev
    if details is not None:
        details["ode_nfev"] = left.nfev + right_nfev
    return left.w_at_a - w_right


def find_speed(
    f: ReactionTerm,
    bracket: SpeedBracket | None,
    tol_c: float = 1e-10,
    *,
    eps: float | None = None,
    rtol: float = 1e-10,
    details: dict | None = None,
) -> float:
    """Solve the mismatch S for the unique speed with |S(c*)| <= tol_c, by
    Brent's method on a bracket of S's sign change.

    The working bracket is [c_check, c_hat] when the envelope bracket is
    ordered, else [0, expanding].  Raises NoPositiveRoot when S(0) >= 0
    (the root sits at or left of zero) and BracketFailure when no sign
    change appears up to c = 2**10.

    With an envelope bracket of positive width, the values of S at every
    speed evaluated in [c_check, c_hat], sorted by c, must not fall by more
    than 1e-8 from one speed to the next; otherwise a RuntimeWarning is
    issued and details["monotone_ok"] is False.  Those speeds are the
    bracket ends and the Brent iterates.  When fewer than five distinct
    ones lie in the bracket (a fallback bracket or a root found at once),
    the five interior points of linspace(c_check, c_hat, 7) are evaluated
    first.  The check runs after the root is found and never moves it;
    details["evaluations"] counts its probes too, and details["ode_nfev"]
    totals the right-hand-side evaluations of every path shot.
    """
    evaluated: list[tuple[float, float]] = []  # every (c, S(c)) computed
    ode_nfev = 0

    def S(c: float) -> float:
        nonlocal ode_nfev
        counts: dict = {}
        s = speed_mismatch(f, c, eps=eps, rtol=rtol, details=counts)
        evaluated.append((c, s))
        ode_nfev += counts["ode_nfev"]
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
    if bracket is not None and bracket.c_hat > bracket.c_check + 1e-9:
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
        details["ode_nfev"] = ode_nfev
    return c_star


@dataclass
class WaveSolution:
    """Sampled C^1 traveling-wave profile at the matched speed, with the
    (left, right) phase paths it was marched along."""

    c_star: float
    z_grid: np.ndarray
    u_values: np.ndarray
    w_values: np.ndarray
    derivative_jump_at_0: float
    bracket: SpeedBracket | None = None
    paths: tuple[PhasePath, PhasePath] | None = field(default=None, repr=False, compare=False)


def _march(path: PhasePath, target: float, dz: float, forward: bool) -> tuple[np.ndarray, np.ndarray]:
    """Sample the profile along one phase path from u(0) = a at z = dz,
    2 dz, ... (forward, on the right path) or -dz, -2 dz, ... (backward, on
    the left path), up to the first sample at or past the target level and
    at least one sample.  Returns u and w at the samples.

    Along the path |z|(u) is the integral of 1/w from a, taken in
    sigma = -ln d, where d is the distance to the path's equilibrium
    (1 - u forward, u backward).  There g = |dz/dsigma| = d / w tends to the
    constant 1/lam of the seed line w = lam d, so an 8-point Gauss-Legendre
    rule over each RK45 step's quartic interpolant is exact to rounding,
    even on the ratio-10 steps RK45 takes where w is linear in u.  The
    cumulative sums give z at the path nodes; past the seed the path
    follows the seed line, where g = 1/lam exactly.  A sample finds its
    step by its |z| among the nodes, starts from the cubic Hermite guess of
    sigma over z with node slopes 1/g, and takes Newton steps
    sigma -= (z(sigma) - z_k) / g(sigma): z at the guess by the same rule
    over [sigma_j, sigma], then z at each iterate by adding a 3-point rule
    over the step just taken.  w at the sample comes from the same quartic.

    Raises RuntimeError when the target lies beyond |z| = _MARCH_Z_RANGE,
    or when w is not positive and finite on a step the samples need.
    """
    segments, lam = path.interpolants
    # One row per step outward from u = a, the reverse of the integration
    # order: t_old, h, w_old and the quartic's coefficients Q.
    outward = segments[::-1]
    steps = np.hstack(
        [np.array([seg[:3] for seg in outward]), np.concatenate([seg[3] for seg in outward])]
    )
    u_nodes, w_nodes = (path.u, path.w) if forward else (path.u[::-1], path.w[::-1])
    d_nodes = 1.0 - u_nodes if forward else u_nodes
    sig_nodes = -np.log(d_nodes)
    g_nodes = d_nodes / w_nodes

    def g_w(sig: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """g and w at the points sig[i, :] on the step of row p[i]."""
        d = np.exp(-sig)
        x = (1.0 - d if forward else d) - p[:, :1]
        x /= p[:, 1:2]
        w = p[:, 6:7] * x  # w_old + h * (((Q3 x + Q2) x + Q1) x + Q0) x
        for col in (5, 4, 3):
            w += p[:, col : col + 1]
            w *= x
        w *= p[:, 1:2]
        w += p[:, 2:3]
        return d / w, w

    def rule(
        lo: np.ndarray, sig: np.ndarray, p: np.ndarray, gauss: tuple[np.ndarray, np.ndarray] = _GAUSS
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The Gauss-Legendre integral of g over [lo[i], sig[i]] on the step
        of row p[i], g at sig, and w at the rule's points and sig."""
        x, weights = gauss
        half = 0.5 * (sig - lo)
        points = np.empty((len(sig), len(x) + 1))
        np.multiply(half[:, None], x, out=points[:, :-1])
        points[:, :-1] += (0.5 * (sig + lo))[:, None]
        points[:, -1] = sig
        g, w = g_w(points, p)
        return half * (g[:, :-1] @ weights), g[:, -1], w

    step_z, _, w_rule = rule(sig_nodes[:-1], sig_nodes[1:], steps)
    bad = np.flatnonzero(~np.all((w_rule > 0.0) & (w_rule < math.inf), axis=1))
    n_ok = int(bad[0]) if bad.size else len(steps)  # steps usable from u = a
    z_nodes = np.concatenate([[0.0], np.cumsum(step_z[:n_ok])])
    z_end = z_nodes[-1]

    def z_of(sig: float) -> float:
        """|z| at sigma: 0 before a, the rule inside the usable steps, the
        seed line past the seed, and inf past a bad step."""
        if sig <= sig_nodes[0]:
            return 0.0
        if sig < sig_nodes[n_ok]:
            j = np.searchsorted(sig_nodes, [sig], side="right") - 1
            return float(z_nodes[j[0]] + rule(sig_nodes[j], np.array([sig]), steps[j])[0][0])
        return z_end + (sig - sig_nodes[-1]) / lam if n_ok == len(steps) else math.inf

    def solve(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """u and w at the samples |z|."""
        j = np.searchsorted(z_nodes, z, side="right") - 1
        inside = j < n_ok
        if n_ok < len(steps) and not inside.all():
            lo, hi = sorted(u_nodes[n_ok : n_ok + 2])
            raise RuntimeError(
                f"profile march met a non-positive or non-finite w on the {path.side} path "
                f"in u=[{lo:.6g}, {hi:.6g}] (dz={dz})"
            )
        sig = sig_nodes[-1] + (z - z_end) * lam  # the seed line
        j, zi = j[inside], z[inside]
        p = steps[j]
        s0, s1, z0 = sig_nodes[j], sig_nodes[j + 1], z_nodes[j]
        width = z_nodes[j + 1] - z0
        s = (zi - z0) / width
        s2, s3 = s * s, s * s * s
        guess = (
            (2 * s3 - 3 * s2 + 1) * s0
            + (s3 - 2 * s2 + s) * width / g_nodes[j]
            + (3 * s2 - 2 * s3) * s1
            + (s3 - s2) * width / g_nodes[j + 1]
        )
        sig_in = np.clip(guess, s0, s1)
        z_in, g, _ = rule(s0, sig_in, p)
        z_in += z0
        for _ in range(_NEWTON_STEPS - 1):
            sig_next = sig_in - (z_in - zi) / g
            dz_in, g, _ = rule(sig_in, sig_next, p, _GAUSS_NEWTON)
            z_in += dz_in
            sig_in = sig_next
        sig_in -= (z_in - zi) / g
        sig[inside] = sig_in
        d = np.exp(-sig)
        u = 1.0 - d if forward else d
        w = lam * d
        w[inside] = g_w(sig_in[:, None], p)[1][:, 0]
        return u, w

    # The samples up to one past the target's z, within the z range: none
    # when the target lies past the range (an infinite z_target lies past
    # a bad step, which the samples meet first if it is in range).
    n_range = int(round(_MARCH_Z_RANGE / dz))
    z_target = z_of(-math.log(1.0 - target if forward else target))
    k_last = min(math.ceil(min(z_target / dz, n_range)) + 1, n_range)
    if math.isfinite(z_target) and z_target > (n_range + 1) * dz:
        k_last = 0
    u_parts, w_parts = [], []
    for k in range(1, k_last + 1, _MARCH_BLOCK):
        u, w = solve(np.arange(k, min(k + _MARCH_BLOCK, k_last + 1)) * dz)
        passed = np.flatnonzero(u >= target if forward else u <= target)
        if passed.size:
            u_parts.append(u[: passed[0] + 1])
            w_parts.append(w[: passed[0] + 1])
            return np.concatenate(u_parts), np.concatenate(w_parts)
        u_parts.append(u)
        w_parts.append(w)
    raise RuntimeError(
        f"profile march did not reach u={target} within z range {_MARCH_Z_RANGE:g} (dz={dz})"
    )


def _check_u_eps(u_eps: float) -> float:
    """u_eps if it lies in (0, _U_EPS_CAP]; else ValueError."""
    if not 0.0 < u_eps <= _U_EPS_CAP:
        raise ValueError(f"u_eps={u_eps} outside (0, {_U_EPS_CAP:g}]")
    return u_eps


def _check_dz(dz: float) -> float:
    """dz if it is positive and leaves between 1 and _MARCH_SAMPLE_CAP
    samples per side over |z| <= _MARCH_Z_RANGE; else ValueError."""
    if not (dz > 0.0 and 1.0 <= _MARCH_Z_RANGE / dz <= _MARCH_SAMPLE_CAP):
        raise ValueError(
            f"dz={dz} must give between 1 and {_MARCH_SAMPLE_CAP} samples per side "
            f"over the z range {_MARCH_Z_RANGE:g}"
        )
    return dz


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
    """Rebuild u(z) from the phase paths at c_star, z(u) = int_a^u dv / w(v).

    Samples forward from u(0) = a until u >= 1 - u_eps on the right path
    and backward until u <= u_eps on the left path, on a uniform z grid
    (_march).  Each side covers |z| <= _MARCH_Z_RANGE, so dz must leave
    between 1 and _MARCH_SAMPLE_CAP samples per side there.  eps and rtol
    are the two paths' seed distance and tolerance (shoot_half); the
    quadrature along them has no tolerance of its own.
    """
    _check_u_eps(u_eps)
    _check_dz(dz)
    left = shoot_half(f, "left", c_star, eps=eps, rtol=rtol)
    right = shoot_half(f, "right", c_star, eps=eps, rtol=rtol)
    jump = abs(left.w_at_a - right.w_at_a)

    u_fwd, w_fwd = _march(right, 1.0 - u_eps, dz, forward=True)
    u_bwd, w_bwd = _march(left, u_eps, dz, forward=False)

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
        paths=(left, right),
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
