"""Shared fixtures and independent oracles.

The oracles here are deliberately kept separate from the library code
paths they check: a plain bisection on the speed-matching residual, an
adaptive Simpson quadrature, closed forms for the equal-slope case, the
reaction term written out branch by branch, the phase paths integrated
by solve_ivp with an npp.polyval right-hand side from the library's seed
and read back through scipy's OdeSolution, the speed as the parameter of
a collocation boundary-value problem, the profile as the ODE
du/dz = w(u) stepped by scipy's DOP853 solver object, and the comparison
ODEs integrated by solve_ivp.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.integrate import DOP853, OdeSolution, solve_bvp, solve_ivp
from scipy.integrate._ivp.rk import RkDenseOutput

import bistable_waves as bw
from bistable_waves.errors import PathCollapse


# ---------------------------------------------------------------------------
# Independent oracles


def oracle_residual(c: float, alpha: float, beta: float, a: float) -> float:
    """The speed-matching residual written directly from the derivative
    matching of the two exponential branches (no shared code with the
    library's rearrangement)."""
    lam0 = 0.5 * (c + math.sqrt(c * c - 4.0 * alpha))
    lam1 = 0.5 * (c - math.sqrt(c * c - 4.0 * beta))
    return lam1 * (a - 1.0) - lam0 * a


def oracle_match_speed(alpha: float, beta: float, a: float, tol: float = 1e-13) -> float:
    """Bisection on the derivative gap; the gap decreases in c."""
    lo, hi = 0.0, 1.0
    g_lo = oracle_residual(lo, alpha, beta, a)
    if g_lo <= 0.0:
        return 0.0
    while oracle_residual(hi, alpha, beta, a) > 0.0:
        hi *= 2.0
        if hi > 4096.0:
            raise AssertionError("oracle bracket expansion failed")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo < tol:
            return mid
        if oracle_residual(mid, alpha, beta, a) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def closed_form_speed(a: float, k: float = -1.0) -> float:
    """Matched speed for equal branch slopes k: obtained by squaring the
    matching condition."""
    return (1.0 - 2.0 * a) * math.sqrt(-k) / math.sqrt(a * (1.0 - a))


def adaptive_simpson(fn, lo: float, hi: float, tol: float = 1e-13, depth: int = 40) -> float:
    def simpson(f_lo, f_mid, f_hi, h):
        return h / 6.0 * (f_lo + 4.0 * f_mid + f_hi)

    def recurse(x0, x2, f0, f1, f2, whole, d):
        x1l = 0.5 * (x0 + 0.5 * (x0 + x2))
        x1r = 0.5 * (0.5 * (x0 + x2) + x2)
        fl, fr = fn(x1l), fn(x1r)
        left = simpson(f0, fl, f1, 0.5 * (x2 - x0))
        right = simpson(f1, fr, f2, 0.5 * (x2 - x0))
        if d <= 0 or abs(left + right - whole) < 15.0 * tol:
            return left + right + (left + right - whole) / 15.0
        return recurse(x0, 0.5 * (x0 + x2), f0, fl, f1, left, d - 1) + recurse(
            0.5 * (x0 + x2), x2, f1, fr, f2, right, d - 1
        )

    mid = 0.5 * (lo + hi)
    f0, f1, f2 = fn(lo), fn(mid), fn(hi)
    return recurse(lo, hi, f0, f1, f2, simpson(f0, f1, f2, hi - lo), depth)


def written_out_reaction(f: bw.ReactionTerm, u) -> np.ndarray:
    """f extended by its tangent lines, written out branch by branch with
    boolean masks, a NaN fill and npp.polyval: the vectorized evaluator as
    it was first written, kept apart from the library's in-place one."""
    u = np.asarray(u, dtype=float)
    out = np.full_like(u, np.nan)
    below = u < 0.0
    above = u > 1.0
    left = (~below) & (u < f.a)
    right = (~above) & (u > f.a)
    at_a = u == f.a
    out[below] = f.slope_at_zero * u[below]
    out[above] = f.slope_at_one * (u[above] - 1.0)
    out[left] = np.polynomial.polynomial.polyval(u[left], f.f0.coefficients)
    out[right] = np.polynomial.polynomial.polyval(u[right], f.f1.coefficients)
    if np.any(at_a):
        out[at_a] = f.branch_value()
    return out


def reference_shoot_half(
    f: bw.ReactionTerm,
    side: str,
    c: float,
    rtol: float = 1e-10,
    details: dict | None = None,
) -> tuple[np.ndarray, np.ndarray, OdeSolution]:
    """One phase-plane half path from shoot_half's seed on the manifold
    series, integrated by solve_ivp with an npp.polyval right-hand side,
    the same tolerances, dense output and collapse event.  Returns the
    ascending (u, w) samples of the integration (the RK45 nodes of the
    library's path) and solve_ivp's OdeSolution, and raises PathCollapse
    where the library does, with solve_ivp's status (1: the event fired,
    -1: the step underflowed) in the message and its nfev as the
    exception's.  details["nfev"] is set to solve_ivp's nfev.  A seed at
    u = a leaves nothing to integrate: the seed is the one sample, the
    OdeSolution None and nfev 0."""
    _series, _e, u0, w0 = bw.shooting._manifold_seed(f, side, float(c), rtol)
    if u0 == f.a:
        if details is not None:
            details["nfev"] = 0
        return np.array([u0]), np.array([w0]), None
    coefficients = f.f0.coefficients if side == "left" else f.f1.coefficients

    def rhs(u, w):
        return c - np.polynomial.polynomial.polyval(u, coefficients) / w[0]

    def collapse(u, w):
        return w[0] - 1e-12

    collapse.terminal = True
    collapse.direction = -1.0
    sol = solve_ivp(
        rhs, (u0, f.a), [w0], method="RK45", rtol=rtol, atol=1e-16,
        dense_output=True, events=collapse,
    )
    if details is not None:
        details["nfev"] = sol.nfev
    if sol.status == 1:
        raise PathCollapse("reference collapse, status 1", u_at=float(sol.t_events[0][0]), nfev=sol.nfev)
    if not sol.success:
        if side == "right" and sol.y[0][-1] <= 1e-6:
            raise PathCollapse(
                f"reference collapse, status {sol.status}", u_at=float(sol.t[-1]), nfev=sol.nfev
            )
        raise RuntimeError(sol.message)
    if side == "left":
        return sol.t, sol.y[0], sol.sol
    return sol.t[::-1], sol.y[0][::-1], sol.sol


def series_w(series, d) -> np.ndarray:
    """The manifold series sum_k series[k-1] * d^k, by npp.polyval."""
    return np.polynomial.polynomial.polyval(d, (0.0, *series))


def path_w(path: bw.PhasePath, u) -> np.ndarray:
    """w on a path at u, read from its interpolants alone: between the RK45
    nodes scipy's OdeSolution over the steps' quartics (RkDenseOutput),
    past the seed the manifold series, past u = a the value at a.  A path
    the series carries to a has one node and no steps."""
    segments, series, _e = path.interpolants
    u_nodes = path.u
    u = np.asarray(u, dtype=float)
    lo, hi = u_nodes[0], u_nodes[-1]
    if segments:
        ts = u_nodes if path.side == "left" else u_nodes[::-1]
        dense = OdeSolution(
            ts,
            [RkDenseOutput(t0, t1, np.array([w0]), q) for (t0, _h, w0, q), t1 in zip(segments, ts[1:])],
        )
        w = dense(np.clip(u, lo, hi))[0]
    else:
        w = np.full(u.shape, path.w[0])
    left = path.side == "left"
    w = np.where(u < lo, series_w(series, u), w) if left else np.where(u > hi, series_w(series, 1.0 - u), w)
    return float(w) if w.ndim == 0 else w


def reference_phase_path(
    f: bw.ReactionTerm, side: str, c: float, rtol: float = 1e-10
) -> bw.PhasePath:
    """A PhasePath backed by reference_shoot_half: its RK45 nodes, and as
    interpolants solve_ivp's OdeSolution steps (none from a seed at a) with
    shoot_half's manifold series and its reciprocal, which the profile
    march reads."""
    u_ref, w_ref, dense = reference_shoot_half(f, side, c, rtol=rtol)
    series, e, _u0, _w0 = bw.shooting._manifold_seed(f, side, float(c), rtol)
    interpolants = dense.interpolants if dense is not None else []
    segments = [(q.t_old, q.h, float(q.y_old[0]), q.Q) for q in interpolants]
    return bw.PhasePath(
        side=side,
        c=float(c),
        u=u_ref,
        w=w_ref,
        interpolants=bw.shooting._Interpolants(segments, series, e),
    )


def reference_speed_mismatch(f: bw.ReactionTerm, c: float) -> float:
    """S(c) from the reference half paths, a right collapse counting as 0."""
    w_left = reference_shoot_half(f, "left", c)[1][-1]
    try:
        w_right = reference_shoot_half(f, "right", c)[1][0]
    except PathCollapse:
        w_right = 0.0
    return float(w_left - w_right)


def reference_march(w_of_u, u_start: float, target: float, dz: float, forward: bool, rtol: float):
    """The profile march as an initial-value problem: scipy's DOP853 solver
    object on du/dz = w(u) at rtol max(1e-2 * rtol, 1e-13), stepped one step
    at a time, each grid sample read from the dense output of the step that
    covers it, up to the first sample past the target level."""
    sign = 1.0 if forward else -1.0
    cap = int(round(400.0 / dz))
    solver = DOP853(
        lambda z, u: [w_of_u(u[0])],
        0.0,
        [u_start],
        sign * cap * dz,
        rtol=max(1e-2 * rtol, 1e-13),
        atol=1e-16,
    )
    chunks = []
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


def reference_bvp_speed(f: bw.ReactionTerm, c0: float, L: float = 30.0):
    """c* as the parameter of a two-piece collocation boundary-value problem
    (scipy's solve_bvp, tol 1e-10), sharing no code with shooting.

    z in [-L, 0] and [0, L] map to s in [0, 1]; the unknowns are
    (U_L, V_L, U_R, V_R) with U' = L V and V' = L (c V - f_i(U)), f0 on the
    left piece and f1 on the right, and the speed c.  The five boundary
    conditions put both ends on their linear manifolds,
    V_L(-L) = lambda0+(c) U_L(-L) and V_R(L) = lambda1-(c) (U_R(L) - 1),
    and join the pieces at z = 0 with U_L = U_R = a and V_L = V_R.  The
    initial guess is the exponential wave at c0.  Returns (c, the solve_bvp
    result)."""
    polyval, polyder = np.polynomial.polynomial.polyval, np.polynomial.polynomial.polyder
    p0, p1, a = f.f0.coefficients, f.f1.coefficients, f.a
    s0 = float(polyval(0.0, polyder(p0)))
    s1 = float(polyval(1.0, polyder(p1)))

    def lam0(c):
        return 0.5 * (c + np.sqrt(c * c - 4.0 * s0))

    def lam1(c):
        return 0.5 * (c - np.sqrt(c * c - 4.0 * s1))

    def rhs(s, y, p):
        c = p[0]
        ul, vl, ur, vr = y
        return np.vstack([L * vl, L * (c * vl - polyval(ul, p0)), L * vr, L * (c * vr - polyval(ur, p1))])

    def bc(ya, yb, p):
        c = p[0]
        return np.array([
            ya[1] - lam0(c) * ya[0],
            yb[0] - a,
            ya[2] - a,
            yb[1] - ya[3],
            yb[3] - lam1(c) * (yb[2] - 1.0),
        ])

    s = np.linspace(0.0, 1.0, 401)
    l0, l1 = lam0(c0), lam1(c0)
    left = a * np.exp(l0 * L * (s - 1.0))
    right = (a - 1.0) * np.exp(l1 * L * s)
    guess = np.vstack([left, l0 * left, 1.0 + right, l1 * right])
    sol = solve_bvp(rhs, bc, s, guess, p=[c0], tol=1e-10, max_nodes=100_000)
    return float(sol.p[0]), sol


def reference_reaction_ode(f: bw.ReactionTerm, branch: str, t_end: float) -> tuple[np.ndarray, np.ndarray]:
    """The comparison ODE q' = f_branch(q), q(0) = a, as reaction_ode first
    integrated it: solve_ivp's RK45 at rtol 1e-10 and atol 1e-13, sampled
    at 513 evenly spaced times by t_eval."""
    poly = f.f0 if branch == "q0" else f.f1
    sol = solve_ivp(
        lambda t, q: poly(q[0]), (0.0, t_end), [f.a], method="RK45",
        rtol=1e-10, atol=1e-13, t_eval=np.linspace(0.0, t_end, 513),
    )
    assert sol.success, sol.message
    return sol.t, sol.y[0]


def random_admissible_quartic(rng: np.random.Generator) -> bw.ReactionTerm:
    """Random quartic-branch term passing the audit with the bracket ordering;
    rejection-sampled.

    Branches are built as f0 = u * g0(u), f1 = (u - 1) * g1(u) with random
    cubics g0, g1 kept negative, which enforces the endpoint and sign
    conditions by construction.
    """
    for _ in range(1000):
        a = rng.uniform(0.15, 0.42)
        b0 = np.array(
            [-rng.uniform(0.4, 2.0), rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0), rng.uniform(-0.5, 0.5)]
        )
        b1 = np.array(
            [-rng.uniform(0.4, 2.0), rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0), rng.uniform(-0.5, 0.5)]
        )
        us0 = np.linspace(0.0, a, 64)
        us1 = np.linspace(a, 1.0, 64)
        if np.polynomial.polynomial.polyval(us0, b0).max() >= -1e-3:
            continue
        if np.polynomial.polynomial.polyval(us1, b1).max() >= -1e-3:
            continue
        f0 = tuple(np.concatenate([[0.0], b0]))    # u * g0(u)
        f1 = tuple(np.convolve([-1.0, 1.0], b1))   # (u - 1) * g1(u), ascending
        term = bw.ReactionTerm(
            a=a,
            f0=bw.BranchPoly(f0, 0.0, a),
            f1=bw.BranchPoly(f1, a, 1.0),
        )
        rep = bw.check_hypotheses(term)
        if rep.admissible and rep.remark2_ok:
            return term
    raise AssertionError("quartic rejection sampling failed to converge")


# ---------------------------------------------------------------------------
# Acceptance reporting: one visible line per criterion, whatever the capture
# settings

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


# ---------------------------------------------------------------------------
# Fixtures


@pytest.fixture(scope="session")
def demo():
    return bw.quadratic_demo()


@pytest.fixture(scope="session")
def demo_bracket(demo):
    return bw.speed_bracket(bw.slope_bounds(demo), demo.a)


@pytest.fixture(scope="session")
def demo_wave(demo, demo_bracket):
    c_star = bw.find_speed(demo, demo_bracket)
    return bw.reconstruct_profile(demo, c_star, bracket=demo_bracket)


@pytest.fixture(scope="session")
def quartic_terms():
    rng = np.random.default_rng(20240817)
    return [random_admissible_quartic(rng) for _ in range(20)]
