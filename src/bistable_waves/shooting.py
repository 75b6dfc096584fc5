"""Phase-plane shooting for the true wave speed and C^1 profile.

In the phase plane (u, w) with w = u_z > 0 the wave ODE becomes
dw/du = c - f(u)/w.  The left half path is the unstable manifold of
(0, 0), the right half path the stable manifold of (1, 0), integrated
backward.  Both equilibria are saddles and singular points of the ODE, and
both manifolds are analytic: in the distance d to the saddle
w(d) = sum_k a_k d^k, whose first 32 coefficients follow from a
recurrence.  Each path is seeded on that series as far out as the last
two terms of the series and of its reciprocal allow at the integration
tolerance rtol, up to u = a itself.  Where both tails allow the whole
distance the path is the series alone, one node at a and no ODE step: on
every linear branch, whose series is the exact line, and on 34 of the 48
paths of the benchmark's wave_solve terms at c*.  Elsewhere RK45 takes
over at the seed; where a tail bound binds the seed distance moves as
rtol^(1/31).
The mismatch S(c) = w_left(a; c) - w_right(a; c) is strictly increasing in
c, so the speed solver is a bracketed Brent solve of S = 0 (roots.py).  Its
monotone spot check reuses the speeds the solve already evaluated in the
envelope bracket (both ends and the Brent iterates) and adds five evenly
spaced probes only when fewer than five distinct speeds lie there.

From a seed short of a each half path is a scalar ODE whose right-hand
side costs a few flops, so it is integrated by a dedicated Dormand-Prince 5(4) loop
(_rk45) rather than through solve_ivp's generic machinery.  The loop
performs exactly the float operations of scipy's solve_ivp(method="RK45",
dense_output=True) on this problem from the same seed: its steps,
samples, collapse points and step interpolants are bit-identical to
solve_ivp's.  It is one loop: step control and the unrolled stages
inline, with no generator or closure per step.  scipy's weighted sums over
the stages are np.dot calls, which BLAS may evaluate as fused
multiply-adds; a sum in plain floats would round differently, so those
reductions stay BLAS dot calls on the same (1, s) views of the stage
matrix, made as bound ndarray.dot methods rather than through np.dot.

The profile is a quadrature, not a second ODE solve: along a solved path
z(u) = int_a^u dv / w(v), so _march integrates 1/w over each RK45 step's
own quartic interpolant (Gauss-Legendre, in the log distance to the path's
equilibrium) and inverts z(u) at the sample spacing by Newton steps on the
same rule, vectorized over the samples.  Past the seed, where most samples
lie (all of them on a path the series carries to a), 1/w of the series
integrates in closed form and is inverted by Newton steps, each decade of
distance on the series terms that still reach rounding there.  The RK45 tableau is SciPy's, copied into _tableaux, and the
collapse root is found by roots' transcription of brentq, so shooting runs
on NumPy alone.
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass, field
from typing import Callable, Literal, NamedTuple

import numpy as np

from ._tableaux import RK45
from .errors import BracketFailure, NoPositiveRoot, PathCollapse, SolverFailure
from .linear_theory import SpeedBracket, lambda0_plus, lambda1_minus
from .reaction import ReactionTerm, _horner
from .roots import EXPANSION_CAP, bracketed_root

PathSide = Literal["left", "right"]

_W_FLOOR = 1e-12
# A path leaves its equilibrium along _SERIES_TERMS terms of the manifold
# series and RK45 takes over where the last two terms of the series, and of
# the reciprocal series the march integrates, are _SERIES_TAIL * rtol of the
# first, or nowhere if they stay below that up to u = a (shoot_half).
_SERIES_TERMS = 32
_SERIES_TAIL = 1e-3
# Past the seed the march evaluates the series in parts of one decade of
# distance (_LN10 in sigma) or _SERIES_CHUNK samples, whichever is more,
# each without the terms below _SERIES_NEGLIGIBLE at its largest distance.
_SERIES_NEGLIGIBLE = 2.0**-60
_LN10 = math.log(10.0)
_SERIES_CHUNK = 1024
# path_nodes puts this many series nodes over the decade below the seed.
_PATH_SERIES_NODES = 16
# reconstruct_profile stops within u_eps of 0 and 1, with u_eps in (0, _U_EPS_CAP].
_U_EPS_CAP = 1e-3
# verify_c1 accepts a derivative jump at z = 0 of at most this.
_C1_TOL = 1e-6
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
    _Steps.segments holds it.  Between the path's equilibrium and the seed
    the path is the manifold series w = sum_k series[k-1] * d^k, d the
    distance to that equilibrium, and reciprocal holds its reciprocal
    series' e_1, ..., e_{K-1} (_reciprocal_series), which bounded the seed
    and which the march integrates past it."""

    segments: list[tuple[float, float, float, np.ndarray]]
    series: tuple[float, ...]
    reciprocal: np.ndarray


@dataclass
class PhasePath:
    """One half of the heteroclinic connection, as w over u.

    u and w are the RK45 step nodes from the seed to u = a, ascending in
    u; path_nodes extends them toward the equilibrium along the series.
    interpolants holds the steps' quartics, the series and its
    reciprocal, which the profile march reads.  nfev is the number of
    right-hand-side evaluations the integration took, solve_ivp's nfev.
    """

    side: PathSide
    c: float
    u: np.ndarray
    w: np.ndarray
    interpolants: _Interpolants = field(repr=False, compare=False)
    nfev: int = field(default=0, repr=False, compare=False)

    @property
    def w_at_a(self) -> float:
        # Samples are ascending in u; the branch point is the right end of
        # the left path and the left end of the right path.
        return float(self.w[-1] if self.side == "left" else self.w[0])


def path_nodes(path: PhasePath) -> tuple[np.ndarray, np.ndarray]:
    """The path's (u, w) nodes, ascending in u, reaching within
    d_min = max(1e-6 min(a, 1 - a), 1e-8) of its equilibrium, with a the
    path's end at the branch point: the manifold series at _PATH_SERIES_NODES
    nodes evenly spaced in u from the seed distance d0 down to d0 / 10,
    then at d0 / 100, d0 / 1000, ..., each cut at d_min (none when the seed
    lies that close), each evaluated at its node's exact distance as the
    seed is, then the RK45 nodes (the seed alone on a path the series
    carries to a)."""
    left = path.side == "left"
    a = float(path.u[-1] if left else path.u[0])
    d_min = max(1e-6 * min(a, 1.0 - a), 1e-8)
    series = path.interpolants.series
    d_seed = float(path.u[0] if left else 1.0 - path.u[-1])
    distances = []
    if d_seed > d_min:
        distances = np.linspace(d_seed, 0.1 * d_seed, _PATH_SERIES_NODES + 1)[1:].tolist()
        while distances[-1] > d_min:
            distances.append(0.1 * distances[-1])
        distances = [d for d in distances if d > d_min] + [d_min]
    u_ahead = [d if left else 1.0 - d for d in distances]
    w_ahead = [_series_value(series, u if left else 1.0 - u) for u in u_ahead]
    if left:
        return np.concatenate([u_ahead[::-1], path.u]), np.concatenate([w_ahead[::-1], path.w])
    return np.concatenate([path.u, u_ahead]), np.concatenate([path.w, w_ahead])


def _manifold_series(a1: float, c: float, b: tuple[float, ...]) -> tuple[float, ...]:
    """The Taylor coefficients a_1, ..., a_K (K = _SERIES_TERMS) of the
    manifold w(d) = sum_k a_k d^k of w dw/dd = c w - b(d), where
    b(d) = sum_n b_n d^n has b_0 = 0 (b_0 is not read) and a_1 > 0 is the
    manifold's linear rate.  Matching the powers d^n gives, for n >= 2,
    a_n = -(b_n + sum_{k=2}^{n-1} (n + 1 - k) a_k a_{n+1-k}) / ((n + 1) a_1 - c),
    whose denominator is positive.  The terms k and n + 1 - k of the sum
    share a product and their weights add to n + 1, so the sum is
    (n + 1) times the products with k < n + 1 - k plus half the square
    a_{(n+1)/2}^2 at odd n."""
    a = [0.0, a1]
    for n in range(2, _SERIES_TERMS + 1):
        m = n // 2
        s = sum(map(operator.mul, a[2 : m + 1], a[n - 1 : n - m : -1]))
        if n % 2:
            s += 0.5 * a[m + 1] * a[m + 1]
        a.append(-((b[n] if n < len(b) else 0.0) + (n + 1) * s) / ((n + 1) * a1 - c))
    return tuple(a[1:])


def _series_value(series: tuple[float, ...], d):
    """w(d) = sum_k series[k-1] * d^k at a float or array d, by Horner."""
    w = 0.0
    for coefficient in reversed(series):
        w = (w + coefficient) * d
    return w


def _reciprocal_series(series: tuple[float, ...]) -> np.ndarray:
    """e_1, ..., e_{K-1} of 1 / r(d) = 1 + sum_k e_k d^k, where
    r(d) = w(d) / (a_1 d) = 1 + sum_k r_k d^k, r_k = a_{k+1} / a_1, is the
    manifold series over its linear term, to the order the series
    determines: e_k = -sum_{j=1}^k r_j e_{k-j} with e_0 = 1."""
    r = [a / series[0] for a in series[1:]]
    e = [1.0]
    for _ in r:
        e.append(-sum(map(operator.mul, r, reversed(e))))
    return np.array(e[1:])


def _manifold_seed(
    f: ReactionTerm, side: PathSide, c: float, rtol: float
) -> tuple[tuple[float, ...], np.ndarray, float, float]:
    """The manifold series of the side's path at speed c, its reciprocal
    series, and the seed (u0, w0) on it where RK45 takes over (shoot_half);
    u0 = a exactly when the tail bounds allow the whole distance."""
    if side == "left":
        a1, dist = lambda0_plus(c, f.slope_at_zero), f.a
        b, c_d = f.f0.coefficients, c
    elif side == "right":
        a1, dist = -lambda1_minus(c, f.slope_at_one), 1.0 - f.a
        b, c_d = tuple(-g for g in f.f1_about_one), -c
    else:
        raise ValueError(f"unknown side {side!r}")
    if not math.isfinite(a1):
        raise ValueError(f"manifold slope {a1} of the {side} path at c={c} is not finite")
    series = _manifold_series(a1, c_d, b)
    # The march integrates the reciprocal series past the seed, whose radius
    # can be far smaller than the series' own, so both tails bound d0.
    e = _reciprocal_series(series)
    d0 = dist
    for tail in (max(abs(series[-2]), abs(series[-1])) / a1, float(max(abs(e[-2]), abs(e[-1])))):
        if tail > 0.0:
            bound = _SERIES_TAIL * max(rtol, _RTOL_MIN) / tail  # at _rk45's floored rtol
            d0 = min(d0, bound ** (1.0 / (_SERIES_TERMS - 1)))
    if d0 == dist:
        u0 = f.a
    else:
        u0 = d0 if side == "left" else 1.0 - d0
    d0 = u0 if side == "left" else 1.0 - u0  # the distance as the march takes it from u0
    w0 = _series_value(series, d0)
    if not (d0 > 0.0 and 0.0 < w0 < math.inf):
        raise ValueError(f"seed w={w0} at distance {d0} of the {side} path at c={c} is not usable")
    return series, e, u0, w0


def shoot_half(
    f: ReactionTerm,
    side: PathSide,
    c: float,
    rtol: float = 1e-10,
) -> PhasePath:
    """Integrate one phase-plane half path up to u = a.

    left:  dw/du = c - f0(u)/w from the unstable manifold of (0, 0).
    right: dw/du = c - f1(u)/w backward from the stable manifold of (1, 0).

    Both manifolds are analytic: in the distance d to the equilibrium
    (d = u on the left, 1 - u on the right) w(d) = sum_k a_k d^k, whose
    first _SERIES_TERMS coefficients follow from a recurrence
    (_manifold_series, with b = f0's coefficients on the left, and on the
    right c -> -c and b = -g, g(d) = f1(1 - d)).  a_1 is the linear rate,
    lambda0_plus(c; f0'(0)) on the left and -lambda1_minus(c; f1'(1)) on
    the right.  The path is seeded on the series at the largest distance
    d0, at most the whole distance from the equilibrium to a, with
    max(|a_31|, |a_32|) d0^31 <= 1e-3 rtol a_1 and the same bound on the
    reciprocal series 1/r = 1 + sum_k e_k d^k the march integrates
    (_reciprocal_series): max(|e_30|, |e_31|) d0^31 <= 1e-3 rtol, with
    rtol floored at 100 machine epsilons.  Where both bounds allow the
    whole distance, as on every linear branch (whose series are exact), the
    series carries the path to u = a: the path is that one node, with w(a)
    from the series, no steps and nfev 0.  Otherwise, where a tail bound
    binds, d0 moves as rtol^(1/31).

    From a seed short of a the integration is Dormand-Prince 5(4) with
    atol = 1e-16, by a dedicated loop that is bit-identical to
    solve_ivp(method="RK45", dense_output=True) from the same seed: the
    same steps, samples, interpolants and collapse points.  Its stage sums
    stay BLAS dot calls on scipy's shapes, since BLAS may fuse their
    multiply-adds and plain float sums would not round alike.  An rtol
    below 100 machine epsilons is clipped to that, with solve_ivp's
    UserWarning.

    Raises PathCollapse if the right path's w falls below the floor 1e-12
    before reaching a (callers treat it as w(a) = 0).  Only that path
    carries the collapse event: an admissible f0 < 0 keeps dw/du > 0 on the
    left path.
    """
    if c < 0.0:
        raise ValueError(f"speed c={c} must be >= 0")
    c = float(c)
    series, e, u0, w0 = _manifold_seed(f, side, c, rtol)
    if u0 == f.a:
        # The series carries the path to a: one node, no steps.
        return PhasePath(side, c, np.array([u0]), np.array([w0]), _Interpolants([], series, e))
    left = side == "left"
    branch = _horner(f.f0.coefficients if left else f.f1.coefficients)

    def rhs(u: float, w: float) -> float:
        # Horner on a Python float: npp.polyval's arithmetic without its
        # per-call array set-up, bit for bit.  At w == 0 the division takes
        # NumPy's inf and RuntimeWarning, where a float one would raise.
        p = branch(u)
        return c - (p / w if w else np.float64(p) / w)

    steps = _rk45(rhs, u0, f.a, w0, rtol, floor_event=not left)
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
        raise SolverFailure(f"phase-path integration failed at c={c}: {RK45.TOO_SMALL_STEP}")

    return PhasePath(
        side=side,
        c=c,
        u=np.array(steps.ts if left else steps.ts[::-1]),
        w=np.array(steps.ys if left else steps.ys[::-1]),
        interpolants=_Interpolants(steps.segments, series, e),
        nfev=steps.nfev,
    )


def speed_mismatch(
    f: ReactionTerm,
    c: float,
    rtol: float = 1e-10,
    *,
    details: dict | None = None,
) -> float:
    """S(c) = w_left(a; c) - w_right(a; c); a right-side collapse counts as
    w_right(a; c) = 0.  details["ode_nfev"] is set to the right-hand-side
    evaluations of both paths, a collapsed one included, and
    details["series_paths"] to the number of them the manifold series
    carried to u = a (with no RK45 step)."""
    left = shoot_half(f, "left", c, rtol=rtol)
    paths = [left]
    try:
        right = shoot_half(f, "right", c, rtol=rtol)
        w_right, right_nfev = right.w_at_a, right.nfev
        paths.append(right)
    except PathCollapse as collapse:
        w_right, right_nfev = 0.0, collapse.nfev
    if details is not None:
        details["ode_nfev"] = left.nfev + right_nfev
        details["series_paths"] = sum(not path.interpolants.segments for path in paths)
    return left.w_at_a - w_right


def find_speed(
    f: ReactionTerm,
    bracket: SpeedBracket | None,
    tol_c: float = 1e-10,
    *,
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
    details["evaluations"] counts its probes too, details["ode_nfev"]
    totals the right-hand-side evaluations of every path shot, and
    details["series_paths"] counts the paths the manifold series carried
    to u = a, which took none.
    """
    evaluated: list[tuple[float, float]] = []  # every (c, S(c)) computed
    ode_nfev = series_paths = 0

    def S(c: float) -> float:
        nonlocal ode_nfev, series_paths
        counts: dict = {}
        s = speed_mismatch(f, c, rtol=rtol, details=counts)
        evaluated.append((c, s))
        ode_nfev += counts["ode_nfev"]
        series_paths += counts["series_paths"]
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
        details["series_paths"] = series_paths
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
    constant 1/a_1 of the manifold's linear term, so an 8-point
    Gauss-Legendre rule over each RK45 step's quartic interpolant is exact
    to rounding, even on the ratio-10 steps RK45 takes where w is linear in
    u.  The cumulative sums give z at the RK45 nodes.  A sample finds its
    step by its |z| among the nodes, starts from the cubic Hermite guess of
    sigma over z with node slopes 1/g, and takes Newton steps
    sigma -= (z(sigma) - z_k) / g(sigma): z at the guess by the same rule
    over [sigma_j, sigma], then z at each iterate by adding a 3-point rule
    over the step just taken.  w at the sample comes from the same quartic.

    Past the seed, and from u = a on a path the series carries there (one
    node, no steps), the path is the manifold series w = a_1 d r(d), so
    1/w = Q(d) / (a_1 d) with Q(d) = 1 + sum_k e_k d^k (_reciprocal_series)
    integrates in closed form: |z| = z_seed + (sigma - sigma_seed +
    P(d_seed) - P(d)) / a_1 with P(d) = sum_k e_k d^k / k.  A sample there
    takes Newton steps on sigma from the guess P(d) = 0, exact as d -> 0,
    with g = Q(d) / a_1, and w = a_1 d / Q(d).  P and Q are one product of
    a power table of d, evaluated one decade of distance at a time (or
    _SERIES_CHUNK samples, if more) and cut after the last term that
    reaches _SERIES_NEGLIGIBLE at the part's largest d.

    Raises SolverFailure when the target lies beyond |z| = _MARCH_Z_RANGE,
    or when w is not positive and finite on a step the samples need.
    """
    segments, series, e = path.interpolants
    # One row per step outward from u = a, the reverse of the integration
    # order: t_old, h, w_old and the quartic's coefficients Q.
    outward = segments[::-1]
    steps = np.empty((len(outward), 7))  # no rows on a path the series carries to a
    if outward:
        steps[:, :3] = [seg[:3] for seg in outward]
        steps[:, 3:] = np.concatenate([seg[3] for seg in outward])
    # The nodes, outward from u = a.
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

    # Past the seed: P(d) and Q(d) = 1 + sum_k e_k d^k as one product of the
    # rows (e_k / k, e_k) with a table of the powers of d, cut after the
    # last term that reaches _SERIES_NEGLIGIBLE at the largest d: term k
    # falls below it where d <= d_lim[k - 1].
    a1, sig_seed, d_seed = series[0], sig_nodes[-1], d_nodes[-1]
    orders = np.arange(1, len(e) + 1)
    pq = np.stack([e / orders, e])
    with np.errstate(divide="ignore"):
        d_lim = (_SERIES_NEGLIGIBLE / np.abs(e)) ** (1.0 / orders)

    def p_q(d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        needed = np.flatnonzero(d.max() > d_lim)
        n = int(needed[-1]) + 1 if needed.size else 0
        # powers[k - 1] = d^k, by doubling: rows k ... 2k - 1 are rows
        # 0 ... k - 1 times d^k.
        powers = np.empty((n, len(d)))
        powers[:1] = d
        k = 1
        while k < n:
            rows = min(k, n - k)
            np.multiply(powers[:rows], powers[k - 1], out=powers[k : k + rows])
            k *= 2
        p, q = pq[:, :n] @ powers
        return p, q + 1.0

    p_seed = float(p_q(np.array([d_seed]))[0][0])

    def newton(rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """sigma and w = a_1 d / Q(d) past the seed where
        sigma - P(d) = rhs, by Newton steps from the guess P(d) = 0."""
        sig = rhs.copy()
        for _ in range(_NEWTON_STEPS):
            p, q = p_q(np.exp(-sig))
            sig -= (sig - p - rhs) / q
        d = np.exp(-sig)
        return sig, a1 * d / p_q(d)[1]

    def z_of(sig: float) -> float:
        """|z| at sigma: 0 before a, the rule inside the usable steps, the
        series past the seed, and inf past a bad step."""
        if sig <= sig_nodes[0]:
            return 0.0
        if sig < sig_nodes[n_ok]:
            j = np.searchsorted(sig_nodes, [sig], side="right") - 1
            return float(z_nodes[j[0]] + rule(sig_nodes[j], np.array([sig]), steps[j])[0][0])
        if n_ok < len(steps):
            return math.inf
        return z_end + (sig - sig_seed + p_seed - p_q(np.array([math.exp(-sig)]))[0][0]) / a1

    def on_steps(zi: np.ndarray, j: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """sigma and w at the samples |z| = zi on the steps of rows j."""
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
        sig = np.clip(guess, s0, s1)
        z_in, g, _ = rule(s0, sig, p)
        z_in += z0
        for _ in range(_NEWTON_STEPS - 1):
            sig_next = sig - (z_in - zi) / g
            dz_in, g, _ = rule(sig, sig_next, p, _GAUSS_NEWTON)
            z_in += dz_in
            sig = sig_next
        sig -= (z_in - zi) / g
        return sig, g_w(sig[:, None], p)[1][:, 0]

    def solve(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """u and w at the samples |z|."""
        j = np.searchsorted(z_nodes, z, side="right") - 1
        inside = j < n_ok
        if n_ok < len(steps) and not inside.all():
            lo, hi = sorted(u_nodes[n_ok : n_ok + 2])
            raise SolverFailure(
                f"profile march met a non-positive or non-finite w on the {path.side} path "
                f"in u=[{lo:.6g}, {hi:.6g}] (dz={dz})"
            )
        sig = np.empty_like(z)
        w = np.empty_like(z)
        if inside.any():
            sig[inside], w[inside] = on_steps(z[inside], j[inside])
        past = ~inside
        if past.any():
            # sigma - sigma_seed + p_seed - P(d) = a_1 (|z| - z_seed), one
            # decade of the guess's d, or _SERIES_CHUNK samples if more, at
            # a time, so that each part's power table stops at the terms
            # its own largest d needs.
            rhs = a1 * (z[past] - z_end) + sig_seed - p_seed
            width = max(_LN10, a1 * dz * _SERIES_CHUNK)  # rhs steps by a_1 dz
            parts = np.split(rhs, np.searchsorted(rhs, np.arange(rhs[0], rhs[-1], width)[1:]))
            sig_w = [newton(part) for part in parts]
            sig[past] = np.concatenate([sw[0] for sw in sig_w])
            w[past] = np.concatenate([sw[1] for sw in sig_w])
        d = np.exp(-sig)
        return (1.0 - d if forward else d), w

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
    raise SolverFailure(
        f"profile march did not reach u={target} within z range {_MARCH_Z_RANGE:g} (dz={dz})"
    )


def _check_u_eps(u_eps: float) -> float:
    """u_eps if it lies in (0, _U_EPS_CAP] and 1 - u_eps, the right
    march's target, is not rounded onto the equilibrium u = 1; else
    ValueError."""
    if not 0.0 < u_eps <= _U_EPS_CAP:
        raise ValueError(f"u_eps={u_eps} outside (0, {_U_EPS_CAP:g}]")
    if 1.0 - u_eps == 1.0:
        raise ValueError(f"u_eps={u_eps} rounds the right target 1 - u_eps onto u = 1")
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
    rtol: float = 1e-10,
) -> WaveSolution:
    """Rebuild u(z) from the phase paths at c_star, z(u) = int_a^u dv / w(v).

    Samples forward from u(0) = a until u >= 1 - u_eps on the right path
    and backward until u <= u_eps on the left path, on a uniform z grid
    (_march): over the RK45 steps between a and the seed, if any, and past
    the seed along the manifold series the path was seeded on, from u = a
    itself on a path the series carries there.  Each side covers
    |z| <= _MARCH_Z_RANGE, so dz must leave between 1 and _MARCH_SAMPLE_CAP
    samples per side there.  rtol is the two paths' tolerance, which also
    sets their seeds on the manifold series (shoot_half); the quadrature
    along them has no tolerance of its own.
    """
    _check_u_eps(u_eps)
    _check_dz(dz)
    left = shoot_half(f, "left", c_star, rtol=rtol)
    right = shoot_half(f, "right", c_star, rtol=rtol)
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


def verify_c1(ws: WaveSolution) -> bool:
    """True iff the derivative jump at z = 0 is within _C1_TOL and w > 0 throughout."""
    return bool(ws.derivative_jump_at_0 <= _C1_TOL and np.all(ws.w_values > 0.0))


def solve_wave(
    f: ReactionTerm,
    *,
    tol_c: float = 1e-10,
    u_eps: float = 1e-4,
    dz: float = 1e-2,
    rtol: float = 1e-10,
    details: dict | None = None,
) -> WaveSolution:
    """Full pipeline: slope bounds, envelope bracket, Brent-solved speed, profile."""
    from .linear_theory import speed_bracket
    from .reaction import slope_bounds

    bracket = speed_bracket(slope_bounds(f), f.a)
    c_star = find_speed(f, bracket, tol_c, rtol=rtol, details=details)
    return reconstruct_profile(f, c_star, u_eps=u_eps, dz=dz, bracket=bracket, rtol=rtol)
