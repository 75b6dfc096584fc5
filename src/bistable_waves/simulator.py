"""Finite-difference evolution of u_t = u_xx + f(u) and stability diagnostics.

Time stepping is IMEX: trapezoidal (semi-implicit) diffusion, explicit
reaction.  The tridiagonal matrix of the implicit half depends on the grid
alone, so its LU factorization is made once per grid and each step is one
pair of triangular solves, after one reaction evaluation and a right-hand
side built in place.  On top of the stepper sit the front tracker, the
best-shift sup-norm distance to a reference wave, the exponential decay fit,
and the super/sub-solution envelope machinery with its explicit constants.

The distance is one bracketed root.  The wave is monotone, so the two
halves of the sup norm, max(u - u*) and max(u* - u), are monotone in the
shift in opposite directions for any state, and the best shift is where
they balance.  roots.bracketed_root finds that balance point in about ten
evaluations of the profile on the interior nodes.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Literal, Sequence

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import PchipInterpolator
from scipy.linalg.lapack import dgttrf, dgttrs

from .errors import (
    DegenerateProfile,
    Divergence,
    InsufficientData,
    NoFront,
    NonPositiveDistance,
)
from .reaction import ReactionTerm, max_abs_slopes
from .roots import bracketed_root
from .shooting import WaveSolution

BoundaryKind = Literal["dirichlet01", "neumann"]

_STATE_LO = -0.5
_STATE_HI = 1.5
# The explicit reaction step is stable for dt <= DT_STABILITY_FACTOR / max|f'|.
DT_STABILITY_FACTOR = 1.9
# shift_distance searches the shifts within this distance of the front.
_SCAN_RADIUS = 20.0
# Points per axis of each _k2_separated grid round.
_K2_GRID = 400


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
        if self.bc not in ("dirichlet01", "neumann"):
            raise ValueError(f"unknown boundary condition {self.bc!r}")
        cells = (self.x_max - self.x_min) / self.dx
        if abs(cells - round(cells)) > 1e-6 * max(1.0, cells) or round(cells) < 16:
            raise ValueError(f"(x_max-x_min)/dx = {cells:.6g} must be an integer >= 16")

    @property
    def n_nodes(self) -> int:
        return int(round((self.x_max - self.x_min) / self.dx)) + 1

    @property
    def x(self) -> np.ndarray:
        return self.x_min + self.dx * np.arange(self.n_nodes)

    @cached_property
    def _imex_lu(self) -> tuple[float, tuple[np.ndarray, ...]]:
        """mu = dt/(2 dx^2) and the LAPACK LU (dgttrf) of I - mu*D2 with the
        boundary rows of bc, in the form dgttrs takes."""
        n = self.n_nodes
        mu = self.dt / (2.0 * self.dx * self.dx)
        dl = np.full(n - 1, -mu)  # sub-diagonal
        d = np.full(n, 1.0 + 2.0 * mu)
        du = np.full(n - 1, -mu)  # super-diagonal
        if self.bc == "dirichlet01":
            # Boundary rows are identity rows, so the boundary nodes keep
            # their current values (0 on the left and 1 on the right for
            # canonical front data) to within rounding, and both constant
            # states are fixed to within rounding (C8 prints the drift).
            d[0] = d[-1] = 1.0
            du[0] = dl[-1] = 0.0
        else:  # neumann: reflected ghost nodes
            du[0] = dl[-1] = -2.0 * mu
        *lu, info = dgttrf(dl, d, du)
        if info != 0:
            raise np.linalg.LinAlgError(f"IMEX matrix is singular (dgttrf info={info})")
        return mu, tuple(lu)

    @staticmethod
    def dt_stability(reaction_lipschitz: float) -> float:
        """Largest dt the explicit reaction treatment tolerates."""
        if reaction_lipschitz <= 0.0:
            return math.inf
        return DT_STABILITY_FACTOR / reaction_lipschitz


@dataclass
class SimState:
    t: float
    u: np.ndarray
    grid: Grid1D


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

    Constant states 0 and 1 are fixed points under dirichlet01 to within
    rounding (C8 prints the drift).
    Raises Divergence when any node leaves [-0.5, 1.5].
    """
    u = s.u
    n = g.n_nodes
    if u.shape != (n,):
        raise ValueError(f"state has {u.shape[0]} nodes, grid has {n}")
    mu, lu = g._imex_lu

    reaction = f.eval_extended_array(u) if f is not None else np.zeros_like(u)
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
        rhs[0] = u[0]
        rhs[-1] = u[-1]
    else:  # neumann: reflected ghost nodes, reaction acts at the ends too
        rhs[0] = u[0] + 2.0 * mu * (u[1] - u[0]) + reaction[0]
        rhs[-1] = u[-1] + 2.0 * mu * (u[-2] - u[-1]) + reaction[-1]

    u_new, _info = dgttrs(*lu, rhs, overwrite_b=True)
    t_new = s.t + g.dt
    # NaN fails both comparisons, so it diverges too.
    if not (u_new.min() >= _STATE_LO and u_new.max() <= _STATE_HI):
        raise Divergence(f"state left [{_STATE_LO}, {_STATE_HI}] at t={t_new:.6g}", t=t_new)
    return SimState(t=t_new, u=u_new, grid=g)


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
    """Monotone-cubic interpolant of a sampled wave with exponential tails.

    Tail rates are read off the sampled endpoint slopes: w = rate*u near 0
    and w = -rate*(1-u) near 1, so the profile is self-contained.
    """

    def __init__(self, ws: WaveSolution):
        z, u, w = ws.z_grid, ws.u_values, ws.w_values
        self.z_lo = float(z[0])
        self.z_hi = float(z[-1])
        self.u_lo = float(u[0])
        self.u_hi = float(u[-1])
        self.rate_left = float(w[0] / u[0])
        self.rate_right = float(-w[-1] / (1.0 - u[-1]))
        self._pchip = PchipInterpolator(z, u, extrapolate=False)
        self.a = float(self._pchip(0.0))
        self.c = float(ws.c_star)

    def __call__(self, z):
        z = np.asarray(z, dtype=float)
        scalar = z.ndim == 0
        z = np.atleast_1d(z)
        out = np.empty_like(z)
        low = z < self.z_lo
        high = z > self.z_hi
        mid = ~(low | high)
        out[low] = self.u_lo * np.exp(self.rate_left * (z[low] - self.z_lo))
        out[high] = 1.0 - (1.0 - self.u_hi) * np.exp(self.rate_right * (z[high] - self.z_hi))
        out[mid] = self._pchip(z[mid])
        return float(out[0]) if scalar else out


def shift_distance(
    s: SimState,
    ws: WaveSolution,
    c: float,
    *,
    profile: WaveProfile | None = None,
) -> tuple[float, float]:
    """Best-shift sup-norm distance between the state and the reference wave.

    Minimizes F(zeta) = max_i |u_i - u*(x_i + zeta)| over the shifts within
    _SCAN_RADIUS of a lattice shift near the front, excluding a 5% boundary
    margin from the norm.  The window is centred at -front_position(s) when
    a front exists, else at the co-moving shift c*t.  Returns
    (distance, zeta_best - c*t), the co-moving residual shift.

    u* is nondecreasing, so for any state each error
    e_i(zeta) = u_i - u*(x_i + zeta) is nonincreasing in zeta: max_i e_i
    falls, -min_i e_i rises, and F, the larger of the two, is least where
    phi = max_i e_i + min_i e_i changes sign.  phi is evaluated at both
    window ends; when it falls through zero between them, bracketed_root
    finds the crossing to 1e-12*dx, and otherwise F is least at an end.
    The result is the smallest F among the evaluated shifts.
    """
    if profile is None:
        profile = WaveProfile(ws)
    g = s.grid
    n = g.n_nodes
    margin = max(1, int(round(0.05 * n)))
    x_int = g.x[margin : n - margin]
    u_int = s.u[margin : n - margin]

    try:
        center = -front_position(s, profile.a)
    except NoFront:
        center = c * s.t
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
    wave attached, the best-shift distance) every observe_every time units."""
    if t_end <= 0.0:
        raise ValueError("t_end must be positive")
    if observe_every <= 0.0:
        raise ValueError("observe_every must be positive")
    x = g.x
    u_init = np.asarray(u0(x) if callable(u0) else u0, dtype=float).copy()
    if u_init.shape != x.shape:
        raise ValueError(f"initial data has shape {u_init.shape}, grid needs {x.shape}")
    state = SimState(t=0.0, u=u_init, grid=g)

    lipschitz = max(max_abs_slopes(f))
    if g.dt > g.dt_stability(lipschitz):
        warnings.warn(
            f"dt={g.dt} exceeds the explicit-reaction stability bound "
            f"{g.dt_stability(lipschitz):.6g}",
            RuntimeWarning,
        )

    profile = WaveProfile(reference) if reference is not None else None

    times: list[float] = []
    fronts: list[float] = []
    dists: list[float] = []
    shifts: list[float] = []
    snapshots: list[SimState] = []
    diagnostics: list[str] = []
    pending_snaps = sorted(float(t) for t in snapshot_times)

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
            d, zb = shift_distance(st, reference, reference.c_star, profile=profile)
            dists.append(d)
            shifts.append(zb)

    observe(state)
    n_steps = int(math.ceil(t_end / g.dt - 1e-12))
    next_obs = observe_every
    for _ in range(n_steps):
        state = step(f, state, g)
        while pending_snaps and state.t >= pending_snaps[0] - g.dt / 2.0:
            snapshots.append(SimState(t=state.t, u=state.u.copy(), grid=g))
            pending_snaps.pop(0)
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
    inside the window.  Needs at least 8 finite observations."""
    lo, hi = t_window
    mask = (tr.times >= lo) & (tr.times <= hi) & np.isfinite(tr.front_positions)
    if int(mask.sum()) < 8:
        raise InsufficientData(
            f"{int(mask.sum())} usable front observations in [{lo}, {hi}]; need >= 8"
        )
    slope, _intercept, r2 = _linear_fit(tr.times[mask], tr.front_positions[mask])
    return slope, r2


def fit_decay(tr: Trajectory, t_window: tuple[float, float]) -> tuple[float, float, float]:
    """Fit distance(t) ~ K * exp(-kappa * t) on the window by linear least
    squares in log space; returns (K, kappa, r2)."""
    if tr.shift_distances is None:
        raise InsufficientData("trajectory carries no shift distances")
    lo, hi = t_window
    mask = (tr.times >= lo) & (tr.times <= hi)
    d = tr.shift_distances[mask]
    if d.size < 8:
        raise InsufficientData(f"{d.size} distance observations in [{lo}, {hi}]; need >= 8")
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
    and grows toward 1.
    """
    if t_end <= 0.0:
        raise ValueError("t_end must be positive")
    if branch == "q0":
        poly = f.f0
    elif branch == "q1":
        poly = f.f1
    else:
        raise ValueError(f"unknown branch {branch!r}")
    t_eval = np.linspace(0.0, t_end, 513)
    sol = solve_ivp(
        lambda t, q: poly(q[0]),
        (0.0, t_end),
        [f.a],
        method="RK45",
        rtol=1e-10,
        atol=1e-13,
        t_eval=t_eval,
    )
    if not sol.success:
        raise RuntimeError(f"reaction ODE integration failed: {sol.message}")
    return sol.t, sol.y[0]


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
    n_steps = int(math.ceil(t_end / g.dt - 1e-12))
    for _ in range(n_steps):
        lo_state = step(f, lo_state, g)
        hi_state = step(f, hi_state, g)
        gap = lo_state.u - hi_state.u
        i = int(np.argmax(gap))
        if gap[i] > worst:
            worst = float(gap[i])
            t_at = lo_state.t
            x_at = float(x[i])
    return ComparisonReport(max_violation=worst, t_at=t_at, x_at=x_at, t_end=t_end)
