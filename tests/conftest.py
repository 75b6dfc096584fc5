"""Shared fixtures and independent oracles.

The oracles here are deliberately kept separate from the library code
paths they check: a plain bisection on the speed-matching residual, an
adaptive Simpson quadrature, closed forms for the equal-slope case, the
reaction term written out branch by branch, the phase paths integrated
by scipy's DOP853 at rtol 1e-13 from the linear seed, a path's series
pieces read back by npp.polyval, the speed as the parameter of a
collocation boundary-value problem, the profile as the ODE du/dz = w(u)
stepped by scipy's DOP853 solver object, and the demo's comparison ODEs
in closed form.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.integrate import DOP853, solve_bvp, solve_ivp

import bistable_waves as bw


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


def branch_about_saddle(f: bw.ReactionTerm, side: str) -> np.polynomial.Polynomial:
    """b(d) of the path ODE w dw/dd = c' w - b(d) in the distance d to the
    saddle, with c' = c on the left and -c on the right, by numpy's own
    polynomial composition: f0(d) on the left and -f1(1 - d) on the right,
    whose constant term, 0 by H1 up to rounding, is dropped."""
    if side == "left":
        return np.polynomial.Polynomial(f.f0.coefficients)
    b = -np.polynomial.Polynomial(f.f1.coefficients)(np.polynomial.Polynomial([1.0, -1.0]))
    b.coef[0] = 0.0
    return b


def reference_path(f: bw.ReactionTerm, side: str, c: float):
    """One phase-plane half path integrated apart from the library: scipy's
    DOP853 at rtol 1e-13 on w dw/dd = c' w - b(d) (branch_about_saddle) in
    the distance d to the saddle, from the linear seed w = a_1 d at
    d = 1e-12, with a_1 written out from the eigenvalue formula, up to the
    distance of u = a, or to w = 1e-12, where a terminal event stops it.
    Returns solve_ivp's solution: sol.sol(d) is w at the distance d, and
    the path collapsed when sol.status is not 0, at the distance
    sol.t[-1]."""
    b = branch_about_saddle(f, side)
    c_d, dist = (c, f.a) if side == "left" else (-c, 1.0 - f.a)
    a1 = 0.5 * (c_d + math.sqrt(c_d * c_d - 4.0 * b.deriv()(0.0)))

    def collapse(d, w):
        return w[0] - 1e-12

    collapse.terminal = True
    collapse.direction = -1.0
    return solve_ivp(
        lambda d, w: c_d - b(d) / w[0], (1e-12, dist), [a1 * 1e-12],
        method="DOP853", rtol=1e-13, atol=1e-30, dense_output=True, events=collapse,
    )


def reference_collapse(f: bw.ReactionTerm, c: float) -> float:
    """The level u where the right path's w falls to 1e-12 on its way from
    (1, 0) toward a, integrated as the planar ODE in the variable
    tau = -z, d' = w and w' = -b(d) - c w in the distance d = 1 - u, by
    scipy's DOP853 at rtol 1e-13 from the linear seed w = a_1 d at
    d = 1e-12 (a_1 written out from the eigenvalue formula): in tau a
    collapse at a zero of w where f1 < 0 is an ordinary crossing.  Only
    for such a collapse: a path that tends to an equilibrium, a zero of
    f1, meets the floor only where the cancellation in b(d) has drowned
    w, and DOP853 grinds there."""
    b = branch_about_saddle(f, "right")
    a1 = 0.5 * (-c + math.sqrt(c * c - 4.0 * b.deriv()(0.0)))

    def floor(tau, y):
        return y[1] - 1e-12

    def at_a(tau, y):
        return y[0] - (1.0 - f.a)

    floor.terminal = at_a.terminal = True
    floor.direction = -1.0
    sol = solve_ivp(
        lambda tau, y: [y[1], -b(y[0]) - c * y[1]], (0.0, 400.0), [1e-12, a1 * 1e-12],
        method="DOP853", rtol=1e-13, atol=1e-30, events=[floor, at_a],
    )
    assert sol.status == 1 and sol.t_events[0].size == 1, "the reference path did not collapse"
    return float(1.0 - sol.y[0, -1])


def reference_speed_mismatch(f: bw.ReactionTerm, c: float) -> float:
    """S(c) from the reference half paths, a right collapse counting as 0."""
    left, right = reference_path(f, "left", c), reference_path(f, "right", c)
    return float(left.y[0, -1] - (right.y[0, -1] if right.status == 0 else 0.0))


def series_w(series, d) -> np.ndarray:
    """The manifold series sum_k series[k-1] * d^k, by npp.polyval."""
    return np.polynomial.polynomial.polyval(d, (0.0, *series))


def path_w(path: bw.PhasePath, u) -> np.ndarray:
    """w on a path at u, read from its series pieces alone by npp.polyval:
    on a Taylor step w0 / sum_k e_k (t / rho)^k in the distance t from the
    step's start u0, past the seed the manifold series, past u = a the
    value at a.  A path the series carries to a has one node and no
    steps."""
    steps, series, _e = path.interpolants
    left = path.side == "left"
    u = np.asarray(u, dtype=float)
    lo, hi = path.u[0], path.u[-1]
    w = np.full(u.shape, path.w_at_a)
    for u0, h, w0, rho, e in steps:
        t = u - u0 if left else u0 - u
        on = (t >= 0.0) & (t <= h)
        w = np.where(on, w0 / np.polynomial.polynomial.polyval(t / rho, e), w)
    w = np.where(u < lo, series_w(series, u), w) if left else np.where(u > hi, series_w(series, 1.0 - u), w)
    return float(w) if w.ndim == 0 else w


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


def demo_reaction_ode(branch: str, t: np.ndarray) -> np.ndarray:
    """The demo's comparison ODEs in closed form from q(0) = a = 0.3: q0
    solves the Bernoulli equation q' = -q - q^2, so
    q = a e^-t / (1 + a (1 - e^-t)); q1 solves q' = (1 - q)(q + 0.2), so
    (q + 0.2) / (1 - q) = e^(1.2 t) (a + 0.2) / (1 - a)."""
    a = 0.3
    if branch == "q0":
        return a * np.exp(-t) / (1.0 + a * (1.0 - np.exp(-t)))
    r = np.exp(1.2 * t) * (a + 0.2) / (1.0 - a)
    return (r - 0.2) / (1.0 + r)


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


def random_admissible_quartics(seed: int, n: int = 20) -> list[bw.ReactionTerm]:
    """n admissible quartics drawn in turn from one generator of the seed."""
    rng = np.random.default_rng(seed)
    return [random_admissible_quartic(rng) for _ in range(n)]


@pytest.fixture(scope="session")
def quartic_terms():
    return random_admissible_quartics(20240817)


@pytest.fixture(scope="session")
def held_out_quartics():
    """Five quartics of another seed, on which nothing was tuned."""
    return random_admissible_quartics(7, 5)
