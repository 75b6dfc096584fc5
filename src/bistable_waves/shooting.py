"""Phase-plane shooting for the true wave speed and C^1 profile.

In the phase plane (u, w) with w = u_z > 0 the wave ODE becomes
dw/du = c - f(u)/w.  The left half path is the unstable manifold of
(0, 0), the right half path the stable manifold of (1, 0), integrated
backward.  Both equilibria are saddles and singular points of the ODE, and
both manifolds are analytic: in the distance d to the saddle
w(d) = sum_k a_k d^k, whose coefficients follow from a recurrence.  Each
path is seeded on that series as far out as the last two terms of the
series and of its reciprocal allow at the tolerance rtol, up to u = a
itself, with at most _SERIES_TERMS terms.  From a seed short of a the
path goes on by Taylor steps: f is polynomial, so about any point with
w > 0 the path is a power series too, from a recurrence of the same kind
(series.path_step), and each step goes as far as the last two terms of
its own series and of that series' reciprocal allow, as the seed does.
A path is thus a list of series pieces, the seed and its steps; where the
seed reaches a it is the seed alone, one node at a: on every linear
branch, whose series is the exact line, and on most paths of the
benchmark's wave_solve terms at c*.
The mismatch S(c) = w_left(a; c) - w_right(a; c) is strictly increasing in
c, so the speed solver is a bracketed Brent solve of S = 0 (roots.py).  Its
monotone spot check reuses the speeds the solve already evaluated in the
envelope bracket (both ends and the Brent iterates) and adds five evenly
spaced probes only when fewer than five distinct speeds lie there.

The profile is a quadrature, not a second ODE solve: along a solved path
z(u) = int_a^u dv / w(v), and 1/w of every piece is a power series, the
reciprocal series that bounded it.  So _march integrates 1/w in closed
form on every piece, on the seed in sigma = -ln d and on a Taylor step in
its own variable, and inverts z(u) at the sample spacing by Newton steps
on the same series, vectorized over the samples.  A collapsing path's
floor crossing is found by roots' transcription of brentq, so shooting
runs on NumPy alone.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Literal, NamedTuple

import numpy as np

from .errors import BracketFailure, NoPositiveRoot, PathCollapse, SolverFailure
from .linear_theory import SpeedBracket, lambda0_plus, lambda1_minus
from .reaction import ReactionTerm
from .roots import EXPANSION_CAP, bracketed_root
from .series import manifold_series, path_step, power_table, series_value, taylor_shift

PathSide = Literal["left", "right"]

# A right path collapses at the first Taylor step that ends with w at or
# below _W_FLOOR, or where its steps stall against u with w at or below
# _W_STALL.
_W_FLOOR = 1e-12
_W_STALL = 1e-6
# Every piece of a path, the seed and each Taylor step, reaches as far as
# the last two terms of its series, and of the reciprocal series the march
# integrates, stay within _SERIES_TAIL * rtol of the first, with at most
# _SERIES_TERMS terms (shoot_half); rtol is floored at _RTOL_MIN, with
# solve_ivp's warning.
_SERIES_TERMS = 40
_SERIES_TAIL = 1e-3
_RTOL_MIN = 100 * float(np.finfo(float).eps)
# The collapse root's bracket tolerance, in the step's own variable.
_COLLAPSE_XTOL = 4 * float(np.finfo(float).eps)
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
# The march inverts z by Newton steps, on a whole part of the samples at a
# time, until the largest step falls to _NEWTON_TOL of the variable (the
# next would be of its square) or for _NEWTON_MAX steps; and it solves at
# most _MARCH_BLOCK samples at once, which bounds the temporaries at the
# sample cap and keeps them in cache.
_NEWTON_TOL = 1e-12
_NEWTON_MAX = 16
_MARCH_BLOCK = 8_192


def _reach(tol: float, *pieces: list[float]) -> float:
    """The largest x at which the last two terms of each series, relative
    to its first, stay within tol as t x^k, for k the index of the last
    term: inf where every tail vanishes, 0 where one is not finite."""
    x = math.inf
    for series in pieces:
        tail = max(abs(series[-2]), abs(series[-1])) / abs(series[0])
        if not math.isfinite(tail):
            return 0.0
        if tail > 0.0:
            x = min(x, (tol / tail) ** (1.0 / (len(series) - 1)))
    return x


class _Interpolants(NamedTuple):
    """A path's series pieces.  taylor_steps[i] = (u0, h, w0, rho, e) is
    Taylor step i in integration order, from the seed to u = a: it starts
    at (u0, w0) and runs the length h toward a, and in the distance t from
    u0 the path there is w = w0 / sum_k e[k] (t / rho)^k
    (series.path_step's reciprocal).  Between the path's equilibrium and
    the seed the path is the manifold series w = sum_k series[k-1] * d^k,
    d the distance to that equilibrium, and reciprocal holds its
    reciprocal series' e_1, ..., e_{K-1} (manifold_series), which bounded
    the seed and which the march integrates past it."""

    taylor_steps: list[tuple[float, float, float, float, list[float]]]
    series: tuple[float, ...]
    reciprocal: list[float]


@dataclass
class PhasePath:
    """One half of the heteroclinic connection, as w over u.

    u and w are the path's nodes, the seed and the end of each Taylor step,
    ascending in u; path_nodes extends them toward the equilibrium along
    the series.  interpolants holds the pieces, which the profile march
    reads, and steps counts the Taylor steps.
    """

    side: PathSide
    c: float
    u: np.ndarray
    w: np.ndarray
    interpolants: _Interpolants = field(repr=False, compare=False)

    @property
    def steps(self) -> int:
        return len(self.interpolants.taylor_steps)

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
    seed is, then the path's nodes, the seed and the end of each Taylor
    step (the seed alone on a path the series carries to a)."""
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
    w_ahead = [series_value(series, u if left else 1.0 - u) for u in u_ahead]
    if left:
        return np.concatenate([u_ahead[::-1], path.u]), np.concatenate([w_ahead[::-1], path.w])
    return np.concatenate([path.u, u_ahead]), np.concatenate([path.w, w_ahead])


def _manifold_seed(
    f: ReactionTerm, side: PathSide, c: float, rtol: float
) -> tuple[tuple[float, ...], list[float], float, float]:
    """The manifold series of the side's path at speed c, its reciprocal
    series, and the seed (u0, w0) on it where the Taylor steps take over
    (shoot_half); u0 = a exactly when the tail bounds allow the whole
    distance."""
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
    # The march integrates the reciprocal series past the seed, whose radius
    # can be far smaller than the series' own, so both tails bound d0.
    tol = _SERIES_TAIL * max(rtol, _RTOL_MIN)
    series, e = manifold_series(a1, c_d, b, _SERIES_TERMS, dist, tol)
    d0 = dist if len(series) < _SERIES_TERMS else min(dist, _reach(tol, series, e))
    e = e[1:]
    if d0 == dist:
        u0 = f.a
    else:
        u0 = d0 if side == "left" else 1.0 - d0
    d0 = u0 if side == "left" else 1.0 - u0  # the distance as the march takes it from u0
    w0 = series_value(series, d0)
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
    coefficients follow from a recurrence (manifold_series, with b = f0's
    coefficients on the left, and on the right c -> -c and b = -g,
    g(d) = f1(1 - d)).  a_1 is the linear rate, lambda0_plus(c; f0'(0)) on
    the left and -lambda1_minus(c; f1'(1)) on the right.  The series and
    the reciprocal series 1/r = 1 + sum_k e_k d^k the march integrates
    are bounded alike: where the last two terms of both, with k the index
    of the last, max(|a_k|, |a_{k+1}|) D^k / a_1 and max(|e_{k-1}|, |e_k|)
    D^k, fall within 1e-3 rtol at the whole distance D from the
    equilibrium to a before k reaches K - 1, K = _SERIES_TERMS, the
    series carries the path to u = a: the path is that one node, with w(a)
    from the series, and no step.  So it does on every linear branch,
    whose series are exact.  Otherwise the series takes K terms, and the
    path is seeded at the largest distance d0 where the same bound holds
    with k = K - 1.

    From a seed short of a the path goes on by Taylor steps toward a.  In
    the distance t from a step's start u0, W(t) = w(u0 + s t), with s = 1
    on the left and -1 on the right, solves W W' = s (c W - F(t)), where
    F(t) = f(u0 + s t) is the branch shifted to u0 (taylor_shift).  The
    series of W and of 1/W = E / W_0 (path_step) bound the step as the
    seed's bound the seed: a step reaches a if the last two terms of both,
    max(|W_{k-1}|, |W_k|) t^k / W_0 and max(|E_{k-1}|, |E_k|) t^k, fall
    within 1e-3 rtol at the distance t to a before k reaches K - 1, and
    otherwise it ends where they do with k = K - 1.  Each step is computed
    in t over the length of the step before it (over the distance to a
    for the first), which keeps its coefficients finite as the radius
    shrinks.  rtol is floored at 100 machine epsilons, with a UserWarning.

    Raises PathCollapse at the first step of the right path that ends with
    w <= 1e-12 (callers treat it as w(a) = 0), at the floor crossing
    bracketed_root finds on that step's series: where the path runs into a
    zero of f1.  Only that path collapses: an admissible f0 < 0 keeps
    dw/du > 0 on the left path.  A step whose length vanishes against u,
    or whose end value is not finite, is also a collapse on a right path
    whose w has fallen to 1e-6 or below, where w falls to zero like a
    square root (as it does where f1 < 0), and a SolverFailure otherwise.
    """
    if c < 0.0:
        raise ValueError(f"speed c={c} must be >= 0")
    c = float(c)
    if rtol < _RTOL_MIN:
        warnings.warn(
            "At least one element of `rtol` is too small. "
            f"Setting `rtol = np.maximum(rtol, {_RTOL_MIN})`.",
            UserWarning,
            stacklevel=2,
        )
        rtol = _RTOL_MIN
    series, e, u0, w0 = _manifold_seed(f, side, c, rtol)
    left = side == "left"
    s = 1.0 if left else -1.0
    branch = f.f0.coefficients if left else f.f1.coefficients
    tol = _SERIES_TAIL * rtol
    u, w, steps = [u0], [w0], []
    rho = abs(f.a - u0)
    while u0 != f.a:
        remaining = abs(f.a - u0)
        g = [s * coefficient for coefficient in taylor_shift(branch, u0, s)]
        v, rec = path_step(w0, s * c, g, rho, _SERIES_TERMS, remaining / rho, tol)
        h = remaining if len(v) < _SERIES_TERMS else min(rho * _reach(tol, v, rec), remaining)
        x = h / rho
        w1 = w0 * (1.0 + series_value(v[1:], x))
        u1 = f.a if h == remaining else u0 + s * h
        if u1 == u0 or not math.isfinite(w1):
            if not left and w0 <= _W_STALL:
                raise PathCollapse(
                    f"right path at c={c} collapsed to w={w0:.3g} at u={u0:.6g}", u_at=u0, steps=len(steps)
                )
            raise SolverFailure(f"phase-path Taylor step at c={c} vanished at u={u0:.6g} (w={w0:.3g})")
        steps.append((u0, h, w0, rho, rec))
        if w1 <= _W_FLOOR:
            if left:
                raise SolverFailure(f"left path at c={c} fell to w={w1:.3g} at u={u1:.6g}")

            def above_floor(y: float, v=v, w0=w0) -> float:
                return w0 * (1.0 + series_value(v[1:], y)) - _W_FLOOR

            y, _, _ = bracketed_root(above_floor, 0.0, x, w0 - _W_FLOOR, w1 - _W_FLOOR, 0.0, xtol=_COLLAPSE_XTOL)
            u_at = u0 + s * rho * y
            raise PathCollapse(
                f"right path at c={c} collapsed to w<={_W_FLOOR} at u={u_at:.6g}", u_at=u_at, steps=len(steps)
            )
        u0, w0, rho = u1, w1, h
        u.append(u0)
        w.append(w0)
    if not left:
        u.reverse()
        w.reverse()
    return PhasePath(side, c, np.array(u), np.array(w), _Interpolants(steps, series, e))


def speed_mismatch(
    f: ReactionTerm,
    c: float,
    rtol: float = 1e-10,
    *,
    details: dict | None = None,
) -> float:
    """S(c) = w_left(a; c) - w_right(a; c); a right-side collapse counts as
    w_right(a; c) = 0.  details["taylor_steps"] is set to the Taylor steps
    of both paths, a collapsed one included, and details["series_paths"]
    to the number of them the manifold series carried to u = a (with no
    step)."""
    left = shoot_half(f, "left", c, rtol=rtol)
    paths = [left]
    try:
        right = shoot_half(f, "right", c, rtol=rtol)
        w_right, right_steps = right.w_at_a, right.steps
        paths.append(right)
    except PathCollapse as collapse:
        w_right, right_steps = 0.0, collapse.steps
    if details is not None:
        details["taylor_steps"] = left.steps + right_steps
        details["series_paths"] = sum(path.steps == 0 for path in paths)
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
    details["evaluations"] counts its probes too, details["taylor_steps"]
    totals the Taylor steps of every path shot, and details["series_paths"]
    counts the paths the manifold series carried to u = a, which took
    none.
    """
    evaluated: list[tuple[float, float]] = []  # every (c, S(c)) computed
    taylor_steps = series_paths = 0

    def S(c: float) -> float:
        nonlocal taylor_steps, series_paths
        counts: dict = {}
        s = speed_mismatch(f, c, rtol=rtol, details=counts)
        evaluated.append((c, s))
        taylor_steps += counts["taylor_steps"]
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
        details["taylor_steps"] = taylor_steps
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

    Along the path |z|(u) is the integral of 1/w from a, and on every piece
    of the path 1/w is the reciprocal series that bounded the piece, which
    integrates in closed form.  On a Taylor step that starts at u0 with w0
    and runs the length h toward a, take x = t / h in [0, 1] for the
    distance t from u0: there 1/w = R(x) / w0 with R(x) = sum_k E_k x^k,
    the step's reciprocal series rescaled to x, so the step spans
    h Q(1) / w0 of |z| with Q(x) = sum_k E_k x^(k+1) / (k + 1).  A sample
    |z| on the step, whose end toward a lies at z_j, solves
    Q(x) = Q(1) - (|z| - z_j) w0 / h by Newton steps x -= (Q(x) - q) / R(x)
    from the guess linear in z, and w = w0 / R(x) there.  Q and R are one
    product of a table of the powers of x.

    Past the seed, and from u = a on a path the series carries there (one
    node, no steps), the path is the manifold series w = a_1 d r(d), d the
    distance to the path's equilibrium (1 - u forward, u backward), so
    1/w = Q(d) / (a_1 d) with Q(d) = 1 + sum_k e_k d^k (manifold_series)
    integrates in closed form in sigma = -ln d: |z| = z_seed + (sigma -
    sigma_seed + P(d_seed) - P(d)) / a_1 with P(d) = sum_k e_k d^k / k.  A
    sample there takes Newton steps on sigma from the guess P(d) = 0, exact
    as d -> 0, with dz/dsigma = Q(d) / a_1, and w = a_1 d / Q(d).  P and Q
    are one product of a power table of d, evaluated one decade of distance
    at a time (or _SERIES_CHUNK samples, if more) and cut after the last
    term that reaches _SERIES_NEGLIGIBLE at the part's largest d.

    Raises SolverFailure when the target lies beyond |z| = _MARCH_Z_RANGE,
    or when a step the samples need has a node w, or a span of |z|, that is
    not positive and finite.
    """
    taylor_steps, series, e = path.interpolants
    e = np.asarray(e)
    # One row per step outward from u = a, the reverse of the integration
    # order: its start u0, length h and w0, and the coefficients E_k of its
    # reciprocal series in x, scaled from t / rho to t / h.
    outward = taylor_steps[::-1]
    n = len(outward)
    u_start, h, w_start, rho = np.array([step[:4] for step in outward]).reshape(n, 4).T
    terms = max((len(step[4]) for step in outward), default=1)
    r_coef = np.zeros((n, terms))  # a step that reached a in fewer terms is padded with zeros
    for row, step in zip(r_coef, outward):
        row[: len(step[4])] = step[4]
    r_coef *= (h / rho)[:, None] ** np.arange(terms)
    q_coef = r_coef / np.arange(1, terms + 1)
    q_one = q_coef.sum(axis=1)
    s = -1.0 if forward else 1.0  # the direction of u along a step
    # The nodes, outward from u = a; a step is usable while its nodes' w
    # and its span of |z| are positive and finite.
    u_nodes, w_nodes = (path.u, path.w) if forward else (path.u[::-1], path.w[::-1])
    d_nodes = 1.0 - u_nodes if forward else u_nodes
    step_z = h / w_start * q_one
    w_ok = (w_nodes > 0.0) & (w_nodes < math.inf)
    bad = np.flatnonzero(~((step_z > 0.0) & (step_z < math.inf) & w_ok[:-1] & w_ok[1:]))
    n_ok = int(bad[0]) if bad.size else n  # steps usable from u = a
    z_nodes = np.concatenate([[0.0], np.cumsum(step_z[:n_ok])])
    z_end = z_nodes[-1]

    # Past the seed: P(d) and Q(d) = 1 + sum_k e_k d^k as one product of the
    # rows (e_k / k, e_k) with a table of the powers of d, cut after the
    # last term that reaches _SERIES_NEGLIGIBLE at the largest d: term k
    # falls below it where d <= d_lim[k - 1].
    a1, d_seed = series[0], d_nodes[-1]
    sig_seed = -math.log(d_seed)
    orders = np.arange(1, len(e) + 1)
    pq = np.stack([e / orders, e])
    with np.errstate(divide="ignore"):
        d_lim = (_SERIES_NEGLIGIBLE / np.abs(e)) ** (1.0 / orders)

    def p_q(d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        needed = np.flatnonzero(d.max() > d_lim)
        n_terms = int(needed[-1]) + 1 if needed.size else 0
        p, q = pq[:, :n_terms] @ power_table(d, n_terms)
        return p, q + 1.0

    p_seed = float(p_q(np.array([d_seed]))[0][0])

    def newton(rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """sigma and w = a_1 d / Q(d) past the seed where
        sigma - P(d) = rhs, by Newton steps from the guess P(d) = 0."""
        sig = rhs.copy()
        for _ in range(_NEWTON_MAX):
            p, q = p_q(np.exp(-sig))
            step = (sig - p - rhs) / q
            sig -= step
            if np.max(np.abs(step)) <= _NEWTON_TOL * np.max(sig):
                break
        d = np.exp(-sig)
        return sig, a1 * d / p_q(d)[1]

    def z_of(u: float) -> float:
        """|z| at the level u: 0 before a, the series on the usable steps
        and past the seed, and inf past a bad step."""
        d = 1.0 - u if forward else u
        if d >= d_nodes[0]:
            return 0.0
        if d > d_nodes[n_ok]:
            j = int(np.searchsorted(-d_nodes, -d, side="right")) - 1
            x = min(max((u - u_start[j]) / (s * h[j]), 0.0), 1.0)
            return float(z_nodes[j] + h[j] / w_start[j] * (q_one[j] - q_coef[j] @ x ** np.arange(1, terms + 1)))
        if n_ok < n:
            return math.inf
        return z_end + (-math.log(d) - sig_seed + p_seed - p_q(np.array([d]))[0][0]) / a1

    def on_step(zi: np.ndarray, j: int) -> tuple[np.ndarray, np.ndarray]:
        """u and w at the samples |z| = zi on step j."""
        q_target = q_one[j] - (zi - z_nodes[j]) * (w_start[j] / h[j])
        x = q_target / q_one[j]
        for _ in range(_NEWTON_MAX):
            powers = power_table(x, terms)
            step = (q_coef[j] @ powers - q_target) / (r_coef[j, 0] + r_coef[j, 1:] @ powers[:-1])
            x = x - step
            if np.max(np.abs(step)) <= _NEWTON_TOL:
                break
        r = r_coef[j, 0] + r_coef[j, 1:] @ power_table(x, terms - 1)
        return u_start[j] + s * h[j] * x, w_start[j] / r

    def solve(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """u and w at the samples |z|."""
        # z ascends, so the samples on each step, and past the seed, are
        # runs: bounds[k] is where the samples past the k-th node start.
        bounds = np.searchsorted(z, z_nodes, side="left")
        n_in = int(bounds[n_ok])  # the samples on usable steps
        if n_ok < n and n_in < len(z):
            lo, hi = sorted(u_nodes[n_ok : n_ok + 2])
            raise SolverFailure(
                f"profile march met a non-positive or non-finite w on the {path.side} path "
                f"in u=[{lo:.6g}, {hi:.6g}] (dz={dz})"
            )
        u = np.empty_like(z)
        w = np.empty_like(z)
        for step in range(n_ok):
            on = slice(bounds[step], bounds[step + 1])
            if on.start < on.stop:
                u[on], w[on] = on_step(z[on], step)
        past = slice(n_in, None)
        if n_in < len(z):
            # sigma - sigma_seed + p_seed - P(d) = a_1 (|z| - z_seed), one
            # decade of the guess's d, or _SERIES_CHUNK samples if more, at
            # a time, so that each part's power table stops at the terms
            # its own largest d needs.
            rhs = a1 * (z[past] - z_end) + sig_seed - p_seed
            width = max(_LN10, a1 * dz * _SERIES_CHUNK)  # rhs steps by a_1 dz
            parts = np.split(rhs, np.searchsorted(rhs, np.arange(rhs[0], rhs[-1], width)[1:]))
            sig_w = [newton(part) for part in parts]
            d = np.exp(-np.concatenate([sw[0] for sw in sig_w]))
            u[past] = 1.0 - d if forward else d
            w[past] = np.concatenate([sw[1] for sw in sig_w])
        return u, w

    # The samples up to one past the target's z, within the z range: none
    # when the target lies past the range (an infinite z_target lies past
    # a bad step, which the samples meet first if it is in range).
    n_range = int(round(_MARCH_Z_RANGE / dz))
    z_target = z_of(target)
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
    (_march): over the Taylor steps between a and the seed, if any, and
    past the seed along the manifold series the path was seeded on, from
    u = a itself on a path the series carries there.  Each side covers
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
