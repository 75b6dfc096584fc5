"""Finite-difference evolution of u_t = u_xx + f(u) and stability diagnostics.

Time stepping is IMEX: trapezoidal (semi-implicit) diffusion, explicit
reaction.  The tridiagonal matrix of the implicit half depends on the grid
alone.  It is symmetric positive definite once the dirichlet01 boundary
rows are taken out of the system, or once the neumann end rows are
halved, so its LDL^T factorization is made once per grid and each step is
one LDL^T solve, after one reaction evaluation and a right-hand side built
in place.  On top of the stepper sit the front tracker, the best-shift
sup-norm distance to a reference wave, the exponential decay fit, and the
super/sub-solution envelope machinery with its explicit constants.

The distance is one bracketed root.  The wave is monotone, so the two
halves of the sup norm, max(u - u*) and max(u* - u), are monotone in the
shift in opposite directions for any state, and the best shift is where
they balance.  roots.bracketed_root finds that balance point in about ten
evaluations of the profile on the interior nodes.

The reference wave u* is a cubic Hermite interpolant on the samples and
the exact slopes the profile march returns (WaveProfile), and the
comparison ODEs of reaction_ode run on shooting's RK45 loop.  The one
scipy module used is LAPACK's symmetric tridiagonal factorization and
solve, imported by Grid1D._imex_solve once per grid; importing this
module, and solving waves, needs NumPy alone.

A run gives the state after k steps the time k*dt, so the observation
times lie on the step lattice: a running sum of dt drifts off it and
pushes a window's end observation past the window.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, Literal, Sequence, get_args

import numpy as np

from .errors import (
    DegenerateProfile,
    Divergence,
    InsufficientData,
    NoFront,
    NonPositiveDistance,
)
from .reaction import ReactionTerm, max_abs_slopes
from .roots import bracketed_root
from ._tableaux import RK45
from .shooting import WaveSolution, _interpolate_array, _rk45

BoundaryKind = Literal["dirichlet01", "neumann"]

_STATE_LO = -0.5
_STATE_HI = 1.5
# The explicit reaction step is stable for dt <= _DT_STABILITY_FACTOR / max|f'|.
_DT_STABILITY_FACTOR = 1.9
# shift_distance searches the shifts within this distance of the front.
_SCAN_RADIUS = 20.0
# Points per axis of each _k2_separated grid round.
_K2_GRID = 400
# A grid has at most this many nodes: each state array is then at most 8 MB.
_MAX_NODES = 1_000_000
# The speed and decay fits need this many observations in their window.
_MIN_FIT_OBSERVATIONS = 8
# A fit window holds the observations within this distance, relative, of
# its ends.  An observation time is k*dt, and dt is often a rounded
# decimal: at the CLI's default dt = 0.2*0.05 = 0.010000000000000002 the
# state after 4,000 steps is at t = 40.00000000000001.
_WINDOW_SLACK = 1e-12
# A run takes at most this many steps: about six minutes on the 2,401-node
# demo grid.
_MAX_STEPS = 10_000_000


@dataclass(frozen=True)
class Grid1D:
    x_min: float
    x_max: float
    dx: float
    dt: float
    bc: BoundaryKind = "dirichlet01"

    def __post_init__(self) -> None:
        if self.dx <= 0.0 or self.dt <= 0.0:
            raise ValueError("dx and dt must be positive")
        if self.x_min >= self.x_max:
            raise ValueError(f"domain [{self.x_min}, {self.x_max}] is empty")
        if self.bc not in get_args(BoundaryKind):
            raise ValueError(f"unknown boundary condition {self.bc!r}")
        cells = (self.x_max - self.x_min) / self.dx
        whole = math.isfinite(cells) and abs(cells - round(cells)) <= 1e-6 * max(1.0, cells)
        if not whole or round(cells) < 16:
            raise ValueError(f"(x_max-x_min)/dx = {cells:.6g} must be an integer >= 16")
        if round(cells) + 1 > _MAX_NODES:
            raise ValueError(f"(x_max-x_min)/dx = {cells:.6g} gives more than {_MAX_NODES} nodes")

    @cached_property
    def n_nodes(self) -> int:
        return int(round((self.x_max - self.x_min) / self.dx)) + 1

    @property
    def x(self) -> np.ndarray:
        return self.x_min + self.dx * np.arange(self.n_nodes)

    @cached_property
    def _imex_solve(self) -> tuple[float, Callable[[np.ndarray], tuple[np.ndarray, int]]]:
        """mu = dt/(2 dx^2) and the solve of the symmetric positive-definite
        tridiagonal system of I - mu*D2 under bc: dpttrs bound to the LAPACK
        LDL^T factors (dpttrf), which takes a right-hand side it may
        overwrite and returns (x, info).

        dirichlet01 keeps the boundary nodes, so the system is the interior
        block alone, on n - 2 nodes; step moves the boundary values to the
        right-hand side.  neumann reflects ghost nodes, which doubles the
        coupling of each end row to its neighbour; halving both end rows
        (exactly, in floating point) makes the matrix symmetric, and step
        halves the end entries of the right-hand side to match."""
        from scipy.linalg.lapack import dpttrf, dpttrs

        mu = self.dt / (2.0 * self.dx * self.dx)
        n = self.n_nodes - 2 if self.bc == "dirichlet01" else self.n_nodes
        d = np.full(n, 1.0 + 2.0 * mu)
        e = np.full(n - 1, -mu)  # off-diagonal
        if self.bc == "neumann":
            d[0] = d[-1] = 0.5 * (1.0 + 2.0 * mu)
        d, e, info = dpttrf(d, e)
        if info != 0:
            raise np.linalg.LinAlgError(f"IMEX matrix is not positive definite (dpttrf info={info})")
        return mu, partial(dpttrs, d, e, overwrite_b=True)

    @staticmethod
    def dt_stability(reaction_lipschitz: float) -> float:
        """Largest dt the explicit reaction treatment tolerates."""
        if reaction_lipschitz <= 0.0:
            return math.inf
        return _DT_STABILITY_FACTOR / reaction_lipschitz


def _check_dt(dt: float, reaction_lipschitz: float) -> float:
    """dt if it is within the explicit-reaction stability bound of a term
    with max(K0, K1) = reaction_lipschitz; else ValueError."""
    bound = Grid1D.dt_stability(reaction_lipschitz)
    if dt > bound:
        raise ValueError(
            f"dt={dt:.6g} exceeds dt_stability={bound:.6g} (={_DT_STABILITY_FACTOR:g}/max(K0,K1))"
        )
    return dt


def _check_state_band(lo: float, hi: float) -> None:
    """ValueError unless the values [lo, hi] lie in the state band
    [_STATE_LO, _STATE_HI]; a NaN end does not."""
    if not (lo >= _STATE_LO and hi <= _STATE_HI):
        raise ValueError(f"values in [{lo:.6g}, {hi:.6g}] leave the state band [{_STATE_LO}, {_STATE_HI}]")


def _check_steps(t_end: float, dt: float) -> int:
    """The number of steps of dt that reach t_end, ceil(t_end/dt), if it is
    at most _MAX_STEPS; else ValueError, also where t_end/dt overflows."""
    steps = t_end / dt - 1e-12
    if not steps <= _MAX_STEPS:
        raise ValueError(f"t_end/dt = {t_end / dt:.6g} steps exceeds the cap of {_MAX_STEPS} steps")
    return int(math.ceil(steps))


def _snapshot_step(t: float, dt: float) -> float:
    """The step whose state a run records for snapshot time t: the nearest,
    k = ceil(t/dt - 1/2), so the first with k*dt >= t - dt/2.  A float, inf
    where t/dt overflows."""
    return float(np.ceil(t / dt - 0.5))


def _check_snapshot_times(
    times: Sequence[float], t_end: float, dt: float | None = None
) -> Sequence[float]:
    """times if each lies in [0, t_end] and, given the step dt, no two take
    the same state; else ValueError naming the first time, or pair, that
    does not.  run records one state per time, repeats included; a caller
    that names each snapshot by its state's time passes dt."""
    for t in times:
        if not 0.0 <= t <= t_end:
            raise ValueError(f"snapshot time {t} outside [0, t_end={t_end}]")
    if dt is not None:
        taken: dict[float, float] = {}
        for t in times:
            k = _snapshot_step(t, dt)
            if k in taken and k < math.inf:  # no run takes an infinite number of steps
                raise ValueError(
                    f"snapshot times {taken[k]} and {t} take the same state (t={k * dt:g} at dt={dt:g})"
                )
            taken[k] = t
    return times


def _check_window(t_window: tuple[float, float], t_end: float) -> tuple[float, float]:
    """A fit window [lo, hi] if it meets a run's time span [0, t_end]; else
    ValueError.  A Trajectory does not carry t_end, so the fits cannot make
    this check; they refuse a window with too few observations instead."""
    lo, hi = t_window
    if hi < 0.0 or lo > t_end:
        raise ValueError(f"fit window [{lo}, {hi}] does not meet [0, t_end={t_end}]")
    return t_window


@dataclass
class SimState:
    """The state u at time t on grid.

    A state that step returns holds a read-only u and carries the least and
    greatest values of that u, which its band check took, to the next step.
    The carry is used only while u is still that array and still read-only;
    any other state, hand-built, replaced or with u reassigned, has them
    taken afresh.
    """

    t: float
    u: np.ndarray
    grid: Grid1D
    _extremes: tuple[np.ndarray, float, float] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def _u_extremes(self) -> tuple[float, float]:
        """(min(u), max(u)), NaN where u holds a NaN: the carried pair
        while it holds, else taken afresh."""
        carry = self._extremes
        if carry is not None and carry[0] is self.u and not self.u.flags.writeable:
            return carry[1], carry[2]
        return self.u.min(), self.u.max()


@dataclass
class Trajectory:
    times: np.ndarray
    front_positions: np.ndarray
    shift_distances: np.ndarray | None
    best_shifts: np.ndarray | None
    snapshots: list[SimState] = field(default_factory=list)
    diagnostics: list[str] = field(default_factory=list)


def step(f: ReactionTerm | None, s: SimState, g: Grid1D) -> SimState:
    """One IMEX step; f=None evolves pure diffusion.

    Under dirichlet01 the boundary nodes keep their values exactly, so the
    constant states 0 and 1 are fixed points to within rounding of the
    interior (C8 prints the drift).
    Raises Divergence when any node leaves [-0.5, 1.5].

    The returned state's u is read-only: a caller that edits it edits a
    copy, as run's snapshots do.  It carries the extremes of u from the
    band check, so the next step's reaction evaluation need not take them.
    """
    u = s.u
    n = g.n_nodes
    if u.shape != (n,):
        raise ValueError(f"state has {u.shape[0]} nodes, grid has {n}")
    mu, solve = g._imex_solve

    reaction = f._eval_extended(u, *s._u_extremes()) if f is not None else np.zeros_like(u)
    reaction *= g.dt

    # rhs_i = u_i + mu*(u_{i-1} - 2u_i + u_{i+1}) + dt*r_i, built in place in
    # the same order; a - b == (-b) + a exactly in IEEE arithmetic.
    rhs = np.empty_like(u)
    inner = rhs[1:-1]
    np.multiply(u[1:-1], -2.0, out=inner)
    inner += u[:-2]
    inner += u[2:]
    inner *= mu
    inner += u[1:-1]
    inner += reaction[1:-1]
    if g.bc == "dirichlet01":
        # The boundary nodes are known, so their coupling to the first and
        # last interior nodes moves to the right-hand side.
        rhs[0] = u[0]
        rhs[-1] = u[-1]
        inner[0] += mu * u[0]
        inner[-1] += mu * u[-1]
        u_new = rhs
        u_new[1:-1], _info = solve(inner)
    else:  # neumann: reflected ghost nodes, reaction acts at the ends too; end rows halved
        rhs[0] = 0.5 * (u[0] + 2.0 * mu * (u[1] - u[0]) + reaction[0])
        rhs[-1] = 0.5 * (u[-1] + 2.0 * mu * (u[-2] - u[-1]) + reaction[-1])
        u_new, _info = solve(rhs)
    t_new = s.t + g.dt
    lo, hi = u_new.min(), u_new.max()
    try:  # NaN fails the check, so it diverges too
        _check_state_band(lo, hi)
    except ValueError:
        raise Divergence(f"state left [{_STATE_LO}, {_STATE_HI}] at t={t_new:.6g}", t=t_new) from None
    u_new.flags.writeable = False
    new = SimState(t=t_new, u=u_new, grid=g)
    new._extremes = (u_new, lo, hi)
    return new


def front_crossings(s: SimState, a: float) -> np.ndarray:
    """All x where u crosses the level a, linearly interpolated."""
    d = s.u - a
    x = s.grid.x
    crossings: list[float] = []
    exact = np.flatnonzero(d == 0.0)
    crossings.extend(x[exact].tolist())
    sign_change = np.flatnonzero(d[:-1] * d[1:] < 0.0)
    for i in sign_change:
        frac = d[i] / (d[i] - d[i + 1])
        crossings.append(float(x[i] + frac * s.grid.dx))
    return np.sort(np.asarray(crossings))


def front_position(s: SimState, a: float) -> float:
    """Level-a crossing of the state; the median one if there are several.

    Raises NoFront when u - a never changes sign.
    """
    crossings = front_crossings(s, a)
    if crossings.size == 0:
        raise NoFront(f"u - {a} has constant sign at t={s.t:.6g}")
    return float(np.median(crossings))


class WaveProfile:
    """Cubic Hermite interpolant of a sampled wave on its exact slopes, with
    exponential tails.

    The samples (z, u, w = u') lie on the uniform grid z = k*dz through
    z = 0, so a query z finds its nearest node j by arithmetic,
    j = rint(z/dz) plus the index of the z = 0 sample, and takes
    r = (z - z_j)/dz, whose sign is exact.  It evaluates the cubic of the
    interval on r's side of the node, expanded about the node:
    u_j + r*(dz*w_j + r*(q2 + r*q3)).  At a node r = 0, so the profile is
    the sample there bit for bit, from both sides, and a is the sample at
    z = 0.

    The cubic of an interval is monotone when its scaled slopes
    alpha = dz*w_i/du_i and beta = dz*w_{i+1}/du_i, du_i = u_{i+1} - u_i > 0,
    lie in the quarter disc alpha, beta >= 0, alpha^2 + beta^2 <= 9
    (Fritsch and Carlson).  shift_distance needs a monotone profile, so the
    constructor raises DegenerateProfile for samples outside it, or off a
    uniform grid through z = 0.

    Tail rates are read off the sampled endpoint slopes: w = rate*u near 0
    and w = -rate*(1-u) near 1, so the profile is self-contained.
    """

    def __init__(self, ws: WaveSolution):
        z, u, w = ws.z_grid, ws.u_values, ws.w_values
        n = z.size
        zero = np.flatnonzero(z == 0.0)
        if n < 2 or zero.size != 1:
            raise DegenerateProfile(f"{n} profile samples: need two or more, one of them at z = 0")
        j0 = int(zero[0])
        dz = float(z[j0 + 1] if j0 + 1 < n else -z[j0 - 1])
        if not (dz > 0.0 and np.array_equal(z, (np.arange(n) - j0) * dz)):
            raise DegenerateProfile("profile samples are not on a uniform z grid through 0")
        du = np.diff(u)
        m = dz * w
        m0, m1 = m[:-1], m[1:]
        with np.errstate(divide="ignore", invalid="ignore"):
            alpha, beta = m0 / du, m1 / du
            ok = (du > 0.0) & (alpha >= 0.0) & (beta >= 0.0) & (alpha * alpha + beta * beta <= 9.0)
        if not ok.all():
            i = int(np.argmin(ok))
            raise DegenerateProfile(
                f"profile is not monotone on [{z[i]:.6g}, {z[i + 1]:.6g}]: du={du[i]:.3g}, "
                f"alpha={alpha[i]:.3g}, beta={beta[i]:.3g}"
            )

        self.z_lo = float(z[0])
        self.z_hi = float(z[-1])
        self.u_lo = float(u[0])
        self.u_hi = float(u[-1])
        self.rate_left = float(w[0] / u[0])
        self.rate_right = float(-w[-1] / (1.0 - u[-1]))
        self.a = float(u[j0])
        self.c = float(ws.c_star)
        self._dz, self._j0, self._n = dz, j0, n
        self._u, self._m = u.copy(), m
        # (q2, q3) of [j, j+1] about node j at index j, and of [j-1, j]
        # about node j at index n + j.  The last node takes r >= 0 only at
        # r = 0, and the first node no r < 0, so their slots hold 0.
        q3 = m0 + m1 - 2.0 * du
        pad = np.zeros(2)
        self._q2 = np.concatenate([3.0 * du - 2.0 * m0 - m1, pad, m0 + 2.0 * m1 - 3.0 * du])
        self._q3 = np.concatenate([q3, pad, q3])

    def _sampled(self, z: np.ndarray) -> np.ndarray:
        """The Hermite cubic at z in [z_lo, z_hi]."""
        dz = self._dz
        k = z / dz
        np.rint(k, out=k)
        r = k * dz  # the node z_j, exactly
        np.subtract(z, r, out=r)
        r /= dz
        j = k.astype(np.intp)
        j += self._j0
        side = (r < 0.0).astype(np.intp)
        side *= self._n
        side += j
        p = self._q3[side]
        p *= r
        p += self._q2[side]
        p *= r
        p += self._m[j]
        p *= r
        p += self._u[j]
        return p

    def __call__(self, z):
        z = np.asarray(z, dtype=float)
        scalar = z.ndim == 0
        z = np.atleast_1d(z)
        out = np.empty_like(z)
        mid = z >= self.z_lo
        low = ~mid  # with NaN, which the tail keeps
        high = z > self.z_hi
        mid ^= high
        t = z[low]
        t -= self.z_lo
        t *= self.rate_left
        np.exp(t, out=t)
        t *= self.u_lo
        out[low] = t
        t = z[high]
        t -= self.z_hi
        t *= self.rate_right
        np.exp(t, out=t)
        t *= 1.0 - self.u_hi
        np.subtract(1.0, t, out=t)
        out[high] = t
        out[mid] = self._sampled(z[mid])
        return float(out[0]) if scalar else out


def shift_distance(
    s: SimState, profile: WaveProfile, *, front: float | None = None
) -> tuple[float, float]:
    """Best-shift sup-norm distance between the state and the reference
    wave u*, the profile, whose speed is c = profile.c.

    Minimizes F(zeta) = max_i |u_i - u*(x_i + zeta)| over the shifts within
    _SCAN_RADIUS of a lattice shift near the front, excluding a 5% boundary
    margin from the norm.  The window is centred at -front_position(s,
    profile.a) when a front exists, else at the co-moving shift c*t.  A
    caller that has found that front already passes it as front, NaN when
    there is none.  Returns (distance, zeta_best - c*t), the co-moving
    residual shift.

    u* is nondecreasing, so for any state each error
    e_i(zeta) = u_i - u*(x_i + zeta) is nonincreasing in zeta: max_i e_i
    falls, -min_i e_i rises, and F, the larger of the two, is least where
    phi = max_i e_i + min_i e_i changes sign.  phi is evaluated at both
    window ends; when it falls through zero between them, bracketed_root
    finds the crossing to 1e-12*dx, and otherwise F is least at an end.
    The result is the smallest F among the evaluated shifts.
    """
    c = profile.c
    g = s.grid
    n = g.n_nodes
    margin = max(1, int(round(0.05 * n)))
    x_int = g.x[margin : n - margin]
    u_int = s.u[margin : n - margin]

    if front is None:
        try:
            front = front_position(s, profile.a)
        except NoFront:
            front = math.nan
    center = c * s.t if math.isnan(front) else -front
    center = round(center / g.dx) * g.dx
    radius = max(1, int(round(_SCAN_RADIUS / g.dx))) * g.dx

    sup_norms: dict[float, float] = {}

    def phi(zeta: float) -> float:
        e = u_int - profile(x_int + zeta)
        e_max, e_min = float(e.max()), float(e.min())
        sup_norms[zeta] = max(e_max, -e_min)
        return e_max + e_min

    lo, hi = center - radius, center + radius
    phi_lo, phi_hi = phi(lo), phi(hi)
    if phi_lo > 0.0 > phi_hi:
        bracketed_root(phi, lo, hi, phi_lo, phi_hi, 0.0, xtol=1e-12 * g.dx)
    best_zeta = min(sup_norms, key=sup_norms.__getitem__)
    return sup_norms[best_zeta], best_zeta - c * s.t


def run(
    f: ReactionTerm,
    u0: Callable[[np.ndarray], np.ndarray] | np.ndarray,
    g: Grid1D,
    t_end: float,
    observe_every: float,
    *,
    reference: WaveSolution | None = None,
    snapshot_times: Sequence[float] = (),
) -> Trajectory:
    """Evolve u0 to t_end, observing front position (and, with a reference
    wave attached, the best-shift distance) every observe_every time units.

    t_end may take at most _MAX_STEPS steps of dt.  Each snapshot time must
    lie in [0, t_end] and takes the nearest step's state (_snapshot_step):
    the initial state for t = 0.  Initial data must lie in the state band
    [-0.5, 1.5] that step keeps; a dt past the stability bound only warns.
    """
    if t_end <= 0.0:
        raise ValueError("t_end must be positive")
    if observe_every <= 0.0:
        raise ValueError("observe_every must be positive")
    n_steps = _check_steps(t_end, g.dt)
    pending_snaps = sorted(_snapshot_step(t, g.dt) for t in _check_snapshot_times(snapshot_times, t_end))
    x = g.x
    u_init = np.asarray(u0(x) if callable(u0) else u0, dtype=float).copy()
    if u_init.shape != x.shape:
        raise ValueError(f"initial data has shape {u_init.shape}, grid needs {x.shape}")
    _check_state_band(u_init.min(), u_init.max())
    state = SimState(t=0.0, u=u_init, grid=g)

    lipschitz = max(max_abs_slopes(f))
    try:
        _check_dt(g.dt, lipschitz)
    except ValueError as exc:
        warnings.warn(str(exc), RuntimeWarning)

    profile = WaveProfile(reference) if reference is not None else None

    times: list[float] = []
    fronts: list[float] = []
    dists: list[float] = []
    shifts: list[float] = []
    snapshots: list[SimState] = []
    diagnostics: list[str] = []

    def take_snapshots(k: int, st: SimState) -> None:
        while pending_snaps and pending_snaps[0] == k:
            snapshots.append(SimState(t=st.t, u=st.u.copy(), grid=g))
            pending_snaps.pop(0)

    def observe(st: SimState) -> None:
        times.append(st.t)
        crossings = front_crossings(st, f.a)
        if crossings.size == 0:
            fronts.append(math.nan)
            diagnostics.append(f"NoFront at t={st.t:.6g}")
        else:
            if crossings.size > 1:
                diagnostics.append(
                    f"MultipleFronts at t={st.t:.6g} ({crossings.size} crossings)"
                )
            fronts.append(float(np.median(crossings)))
        if profile is not None:
            # A wave reconstructed for f has u*(0) = f.a at a profile node,
            # so profile.a == f.a and the distance reuses the front above.
            d, zb = shift_distance(st, profile, front=fronts[-1] if profile.a == f.a else None)
            dists.append(d)
            shifts.append(zb)

    take_snapshots(0, state)
    observe(state)
    next_obs = observe_every
    for k in range(1, n_steps + 1):
        state = step(f, state, g)
        state.t = k * g.dt
        take_snapshots(k, state)
        if state.t >= next_obs - g.dt / 2.0:
            observe(state)
            next_obs += observe_every

    return Trajectory(
        times=np.asarray(times),
        front_positions=np.asarray(fronts),
        shift_distances=np.asarray(dists) if profile is not None else None,
        best_shifts=np.asarray(shifts) if profile is not None else None,
        snapshots=snapshots,
        diagnostics=diagnostics,
    )


def _in_window(times: np.ndarray, t_window: tuple[float, float]) -> np.ndarray:
    """The mask of the times in the fit window [lo, hi], give or take
    _WINDOW_SLACK relative at each end."""
    lo, hi = t_window
    return (times >= lo - _WINDOW_SLACK * abs(lo)) & (times <= hi + _WINDOW_SLACK * abs(hi))


def _linear_fit(t: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Least-squares line y = intercept + slope*t; returns (slope, intercept, r2)."""
    t_mean = t.mean()
    y_mean = y.mean()
    var_t = float(np.sum((t - t_mean) ** 2))
    if var_t == 0.0:
        raise InsufficientData("degenerate time window: no spread in t")
    slope = float(np.sum((t - t_mean) * (y - y_mean)) / var_t)
    intercept = y_mean - slope * t_mean
    residuals = y - (intercept + slope * t)
    ss_res = float(np.sum(residuals**2))
    ss_tot = float(np.sum((y - y_mean) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return slope, intercept, r2


def estimate_speed(tr: Trajectory, t_window: tuple[float, float]) -> tuple[float, float]:
    """Slope and r^2 of the least-squares line through (t, front_position)
    inside the window.  Needs at least _MIN_FIT_OBSERVATIONS finite
    observations."""
    lo, hi = t_window
    mask = _in_window(tr.times, t_window) & np.isfinite(tr.front_positions)
    if int(mask.sum()) < _MIN_FIT_OBSERVATIONS:
        raise InsufficientData(
            f"{int(mask.sum())} usable front observations in [{lo}, {hi}]; "
            f"need >= {_MIN_FIT_OBSERVATIONS}"
        )
    slope, _intercept, r2 = _linear_fit(tr.times[mask], tr.front_positions[mask])
    return slope, r2


def fit_decay(tr: Trajectory, t_window: tuple[float, float]) -> tuple[float, float, float]:
    """Fit distance(t) ~ K * exp(-kappa * t) on the window by linear least
    squares in log space; returns (K, kappa, r2).  Needs at least
    _MIN_FIT_OBSERVATIONS observations."""
    if tr.shift_distances is None:
        raise InsufficientData("trajectory carries no shift distances")
    lo, hi = t_window
    mask = _in_window(tr.times, t_window)
    d = tr.shift_distances[mask]
    if d.size < _MIN_FIT_OBSERVATIONS:
        raise InsufficientData(
            f"{d.size} distance observations in [{lo}, {hi}]; need >= {_MIN_FIT_OBSERVATIONS}"
        )
    if np.any(d <= 0.0):
        raise NonPositiveDistance("non-positive distance in the fit window")
    slope, intercept, r2 = _linear_fit(tr.times[mask], np.log(d))
    return math.exp(intercept), -slope, r2


def heat_kernel_eps(t: float, L: float, k_inf: float = 0.0) -> float:
    """Heat-kernel lower-bound factor exp(-k_inf*t - L^2/t) / (2*sqrt(pi*t))."""
    if t <= 0.0:
        raise ValueError(f"t={t} must be positive")
    if L <= 0.0:
        raise ValueError(f"L={L} must be positive")
    if k_inf < 0.0:
        raise ValueError(f"k_inf={k_inf} must be >= 0")
    return math.exp(-k_inf * t - L * L / t) / (2.0 * math.sqrt(math.pi * t))


def reaction_ode(
    f: ReactionTerm,
    branch: Literal["q0", "q1"],
    t_end: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate the scalar comparison ODE q' = f_branch(q) from q(0) = a.

    q0 uses the left branch and decays toward 0; q1 uses the right branch
    and grows toward 1.  Returns q at 513 evenly spaced times on
    [0, t_end], read from the step interpolants of shooting's RK45 loop
    with rtol 1e-10 and atol 1e-13, bit for bit the values of
    solve_ivp(method="RK45", t_eval=...) at those tolerances.  t_end must
    be positive and finite: toward an infinite end the loop would step on
    forever.
    """
    if not 0.0 < t_end < math.inf:
        raise ValueError(f"t_end={t_end} must be positive and finite")
    if branch == "q0":
        poly = f.f0
    elif branch == "q1":
        poly = f.f1
    else:
        raise ValueError(f"unknown branch {branch!r}")
    t_end = float(t_end)
    steps = _rk45(lambda t, q: poly(q), 0.0, t_end, f.a, 1e-10, floor_event=False, atol=1e-13)
    if steps.status != 0:
        raise RuntimeError(f"reaction ODE integration failed: {RK45.TOO_SMALL_STEP}")
    # As solve_ivp samples t_eval: each step evaluates its interpolant at
    # the times after the previous step's end, up to and with its own end.
    t_eval = np.linspace(0.0, t_end, 513)
    ends = np.searchsorted(t_eval, steps.ts[1:], side="right")
    starts = [0, *ends[:-1]]
    q = [_interpolate_array(*seg, t_eval[i:j]) for seg, i, j in zip(steps.segments, starts, ends) if j > i]
    return t_eval, np.concatenate(q)


@dataclass(frozen=True)
class SuperSubParams:
    """Explicit constants of the perturbation envelopes around the wave."""

    gamma: float
    sigma: float
    delta0: float
    K0: float
    K1: float
    K2_sep: float
    eps_star: float
    M: float
    rho: float


def _k2_separated(f: ReactionTerm, rho: float) -> float:
    """max of (f1(y) - f0(x)) / (y - x) over x in [0, a], y in [a, 1] with
    y - x >= rho, by grid search with two zoom rounds."""
    a = f.a

    def scan(x_lo, x_hi, y_lo, y_hi):
        xs = np.linspace(x_lo, x_hi, _K2_GRID)
        ys = np.linspace(y_lo, y_hi, _K2_GRID)
        fx = f.f0(xs)
        fy = f.f1(ys)
        sep = ys[None, :] - xs[:, None]
        ratio = np.where(sep >= rho, (fy[None, :] - fx[:, None]) / np.maximum(sep, rho), -np.inf)
        idx = np.unravel_index(np.argmax(ratio), ratio.shape)
        return float(ratio[idx]), float(xs[idx[0]]), float(ys[idx[1]])

    best, x_at, y_at = scan(0.0, a, a, 1.0)
    if not math.isfinite(best):
        raise ValueError(f"separation rho={rho} leaves no admissible (x, y) pairs")
    hx = a / (_K2_GRID - 1)
    hy = (1.0 - a) / (_K2_GRID - 1)
    for _ in range(2):
        val, x_at, y_at = scan(
            max(0.0, x_at - 2 * hx),
            min(a, x_at + 2 * hx),
            max(a, y_at - 2 * hy),
            min(1.0, y_at + 2 * hy),
        )
        best = max(best, val)
        hx *= 4.0 / (_K2_GRID - 1)
        hy *= 4.0 / (_K2_GRID - 1)
    return best


def supersub_params(
    ws: WaveSolution,
    f: ReactionTerm,
    M: float | None = None,
    rho: float | None = None,
) -> SuperSubParams:
    """Constants for the envelope pair around the computed wave.

    gamma = min(-f0'(0), -f1'(1)) / 2, K0/K1 are the branch derivative
    maxima, K2_sep the jump-regularized two-sided secant maximum with
    separation rho, eps_star the smallest profile derivative on |z| <= M,
    delta0 = gamma / (K0+K1+K2), sigma = (gamma+K0+K1+K2) / (gamma*eps_star).

    M defaults to the smallest value with u*(-M) <= a/2 and
    u*(M) >= (1+a)/2; rho defaults to 0.05*min(a, 1-a).
    """
    a = f.a
    profile = WaveProfile(ws)
    if M is None:
        m_left = -float(np.interp(a / 2.0, ws.u_values, ws.z_grid))
        m_right = float(np.interp((1.0 + a) / 2.0, ws.u_values, ws.z_grid))
        M = max(m_left, m_right, ws.z_grid[1] - ws.z_grid[0])
    if not (profile(-M) <= a / 2.0 + 1e-9 and profile(M) >= (1.0 + a) / 2.0 - 1e-9):
        raise ValueError(
            f"M={M} too small: need u*(-M) <= a/2 and u*(M) >= (1+a)/2"
        )
    if rho is None:
        rho = 0.05 * min(a, 1.0 - a)
    if rho <= 0.0:
        raise ValueError("rho must be positive")

    k0, k1 = max_abs_slopes(f)
    k2 = _k2_separated(f, rho)
    gamma = 0.5 * min(-f.slope_at_zero, -f.slope_at_one)

    mask = np.abs(ws.z_grid) <= M
    if not np.any(mask):
        raise DegenerateProfile(f"no profile samples with |z| <= {M}")
    eps_star = float(np.min(ws.w_values[mask]))
    if eps_star <= 0.0:
        raise DegenerateProfile(f"profile derivative min {eps_star} is not positive")

    total = k0 + k1 + k2
    return SuperSubParams(
        gamma=gamma,
        sigma=(gamma + total) / (gamma * eps_star),
        delta0=gamma / total,
        K0=k0,
        K1=k1,
        K2_sep=k2,
        eps_star=eps_star,
        M=float(M),
        rho=float(rho),
    )


def envelope_value(
    ws: WaveSolution,
    p: SuperSubParams,
    sign: Literal["plus", "minus"],
    x,
    t: float,
    z0: float = 0.0,
    delta: float | None = None,
):
    """Perturbation envelope u*(x + c t + z0 +/- sigma*delta*(1 - e^{-gamma t}))
    +/- delta*e^{-gamma t}."""
    profile = WaveProfile(ws)
    a = profile.a
    if delta is None:
        delta = min(p.delta0, a / 4.0, (1.0 - a) / 4.0)
    if not (0.0 < delta <= min(p.delta0, a / 4.0, (1.0 - a) / 4.0) + 1e-12):
        raise ValueError(
            f"delta={delta} outside (0, min(delta0, a/4, (1-a)/4)]"
        )
    if sign == "plus":
        s = 1.0
    elif sign == "minus":
        s = -1.0
    else:
        raise ValueError(f"unknown sign {sign!r}")
    drift = math.exp(-p.gamma * t)
    shift = ws.c_star * t + z0 + s * p.sigma * delta * (1.0 - drift)
    return profile(np.asarray(x, dtype=float) + shift) + s * delta * drift


@dataclass
class ComparisonReport:
    """Worst ordering violation seen while evolving an ordered pair."""

    max_violation: float
    t_at: float | None
    x_at: float | None
    t_end: float


def comparison_check(
    f: ReactionTerm,
    lower0: np.ndarray,
    upper0: np.ndarray,
    g: Grid1D,
    t_end: float,
) -> ComparisonReport:
    """Evolve an ordered pair of states and record how far the ordering is
    ever violated (max over time of max(0, lower - upper))."""
    lower0 = np.asarray(lower0, dtype=float)
    upper0 = np.asarray(upper0, dtype=float)
    if np.any(lower0 > upper0):
        raise ValueError("initial data not ordered: lower0 > upper0 somewhere")
    lo_state = SimState(t=0.0, u=lower0.copy(), grid=g)
    hi_state = SimState(t=0.0, u=upper0.copy(), grid=g)
    worst = 0.0
    t_at: float | None = None
    x_at: float | None = None
    x = g.x
    for k in range(1, _check_steps(t_end, g.dt) + 1):
        lo_state = step(f, lo_state, g)
        hi_state = step(f, hi_state, g)
        gap = lo_state.u - hi_state.u
        i = int(np.argmax(gap))
        if gap[i] > worst:
            worst = float(gap[i])
            t_at = k * g.dt
            x_at = float(x[i])
    return ComparisonReport(max_violation=worst, t_at=t_at, x_at=x_at, t_end=t_end)
