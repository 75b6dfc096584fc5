"""Shared fixtures and independent oracles.

The oracles here are deliberately kept separate from the library code
paths they check: a plain bisection on the speed-matching residual, an
adaptive Simpson quadrature, closed forms for the equal-slope case, the
reaction term written out branch by branch, the phase paths integrated
by solve_ivp with an npp.polyval right-hand side, the profile as the ODE
du/dz = w(u) stepped by scipy's DOP853 solver object, and the comparison
ODEs integrated by solve_ivp.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.integrate import DOP853, OdeSolution, solve_ivp

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
    eps: float | None = None,
    rtol: float = 1e-10,
    details: dict | None = None,
) -> tuple[np.ndarray, np.ndarray, OdeSolution]:
    """One phase-plane half path as shoot_half first integrated it: solve_ivp
    with an npp.polyval right-hand side, the same seeds, tolerances, dense
    output and collapse event.  Returns the ascending (u, w) samples and
    solve_ivp's OdeSolution, and raises PathCollapse where the library does,
    with solve_ivp's status (1: the event fired, -1: the step underflowed)
    in the message and its nfev as the exception's.  details["nfev"] is
    set to solve_ivp's nfev."""
    if eps is None:
        eps = bw.shooting.default_eps(f)
    if side == "left":
        coefficients, u0, w0 = f.f0.coefficients, eps, bw.lambda0_plus(c, f.slope_at_zero) * eps
    else:
        coefficients, u0 = f.f1.coefficients, 1.0 - eps
        w0 = -bw.lambda1_minus(c, f.slope_at_one) * eps

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


def reference_phase_path(
    f: bw.ReactionTerm, side: str, c: float, eps: float | None = None, rtol: float = 1e-10
) -> bw.PhasePath:
    """A PhasePath backed by reference_shoot_half, with w_of_u as shoot_half
    first wrote it over solve_ivp's OdeSolution: the path clipped to its
    u range, and past the seed the manifold line it was seeded on.  Its
    interpolants, which the profile march reads, are OdeSolution's."""
    u_ref, w_ref, dense = reference_shoot_half(f, side, c, eps=eps, rtol=rtol)
    if eps is None:
        eps = bw.shooting.default_eps(f)
    left = side == "left"
    lam_seed = (w_ref[0] if left else w_ref[-1]) / eps
    lo, hi = u_ref[0], u_ref[-1]

    def w_of_u(u):
        u = np.asarray(u, dtype=float)
        w = dense(np.clip(u, lo, hi))[0]
        tail = lam_seed * u if left else lam_seed * (1.0 - u)
        out = np.where(u < lo if left else u > hi, tail, w)
        return float(out) if out.ndim == 0 else out

    segments = [(q.t_old, q.h, float(q.y_old[0]), q.Q) for q in dense.interpolants]
    return bw.PhasePath(
        side=side,
        c=float(c),
        u=u_ref,
        w=w_ref,
        w_of_u=w_of_u,
        interpolants=bw.shooting._Interpolants(segments, lam_seed),
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
