"""Acceptance gate: every criterion at its stated tolerance, one printed
pass/fail line per criterion.

Criterion 6 is asserted exactly as stated.  Its decay-window requirements
cannot hold at the pinned discretization (the transient to the wave decays
at rate ~1.1 -- the fit this test prints over t in [0.5, 4.5] gives
kappa = 1.11, r^2 = 0.980 -- so by t=10 the measured distance sits on the
dx^2-dominated scheme bias of ~1e-3 and only breathes with the lattice);
the test is kept faithful rather than loosened, and the analysis lives with
the run output.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

import bistable_waves as bw
from conftest import ACCEPTANCE_LINES, closed_form_speed, oracle_match_speed, path_w


def report(criterion: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    line = f"ACCEPTANCE {criterion}: {status}{suffix}"
    print(line)
    ACCEPTANCE_LINES.append(line)
    return ok


@pytest.fixture(scope="module")
def stability_run(demo, demo_wave):
    """The criterion-5/6 experiment: step data on [-60, 60], dx=0.05,
    dt=0.01, observed every 0.5 up to t=40, with the shooting wave as the
    shift reference."""
    g = bw.Grid1D(-60.0, 60.0, 0.05, 0.01)
    t0 = time.perf_counter()
    tr = bw.run(
        demo,
        lambda x: np.where(x >= 0.0, 1.0, 0.0),
        g,
        t_end=40.0,
        observe_every=0.5,
        reference=demo_wave,
    )
    runtime = time.perf_counter() - t0
    return tr, runtime, g


def test_c1_analytic_speed_oracle():
    """Equal-slope terms against the closed form (1-2a)/sqrt(a(1-a))."""
    ok = True
    details = []
    for a in (0.1, 0.2, 0.3, 0.4, 0.45):
        lin = bw.piecewise_linear(-1.0, a)
        t0 = time.perf_counter()
        bracket = bw.speed_bracket(bw.slope_bounds(lin), a)
        c = bw.find_speed(lin, bracket)
        elapsed = time.perf_counter() - t0
        want = closed_form_speed(a)
        err = abs(c - want)
        details.append(f"a={a}: |dc|={err:.2e}, {elapsed * 1e3:.0f} ms")
        ok &= err <= 1e-7 and elapsed < 1.0
        # the closed form itself agrees with the independent residual bisection
        assert abs(want - oracle_match_speed(-1.0, -1.0, a)) <= 1e-9
    assert report("C1 analytic-speed-oracle", ok, "; ".join(details))


def test_c2_bracket_containment(demo, demo_bracket, demo_wave, quartic_terms):
    ok = True
    # demo endpoints against the independent bisection oracle and the
    # documented values
    oracle_check = oracle_match_speed(-1.3, -0.5, 0.3)
    oracle_hat = oracle_match_speed(-1.0, -1.2, 0.3)
    ok &= abs(demo_bracket.c_check - oracle_check) <= 1e-9
    ok &= abs(demo_bracket.c_hat - oracle_hat) <= 1e-9
    ok &= abs(demo_bracket.c_check - 0.325) <= 2e-3
    ok &= abs(demo_bracket.c_hat - 1.018) <= 2e-3
    ok &= demo_bracket.c_check - 1e-6 <= demo_wave.c_star <= demo_bracket.c_hat + 1e-6
    n_contained = 0
    for f in quartic_terms:
        br = bw.speed_bracket(bw.slope_bounds(f), f.a)
        c = bw.find_speed(f, br)
        if br.c_check - 1e-6 <= c <= br.c_hat + 1e-6:
            n_contained += 1
    ok &= n_contained == len(quartic_terms)
    assert report(
        "C2 bracket-containment",
        ok,
        f"demo bracket [{demo_bracket.c_check:.4f}, {demo_bracket.c_hat:.4f}], "
        f"{n_contained}/{len(quartic_terms)} quartics contained",
    )


def test_c3_c1_matching_and_monotonicity(demo, demo_bracket, demo_wave, quartic_terms):
    ok = demo_wave.derivative_jump_at_0 <= 1e-6
    cs = np.linspace(0.0, demo_bracket.c_hat + 1.0, 20)
    vals = [bw.speed_mismatch(demo, float(c)) for c in cs]
    ok &= bool(np.all(np.diff(vals) > 0.0))
    n_signs = 0
    for f in [demo, *quartic_terms]:
        br = bw.speed_bracket(bw.slope_bounds(f), f.a)
        if bw.speed_mismatch(f, br.c_check) <= 1e-6 and bw.speed_mismatch(f, br.c_hat) >= -1e-6:
            n_signs += 1
    ok &= n_signs == len(quartic_terms) + 1
    assert report(
        "C3 c1-matching-and-mismatch-monotonicity",
        ok,
        f"jump={demo_wave.derivative_jump_at_0:.2e}, "
        f"bracket signs ok on {n_signs}/{len(quartic_terms) + 1} terms",
    )


def test_c4_phase_path_oracle():
    lin = bw.piecewise_linear(-1.0, 0.3)
    worst = 0.0
    for c in (0.0, 0.5, 1.0, 2.0):
        lam0 = bw.lambda0_plus(c, -1.0)
        lam1 = bw.lambda1_minus(c, -1.0)
        left = bw.shoot_half(lin, "left", c)
        u = np.linspace(1e-6, 0.3, 500)
        worst = max(worst, float(np.max(np.abs(path_w(left, u) - lam0 * u))))
        right = bw.shoot_half(lin, "right", c)
        u = np.linspace(0.3, 1.0 - 1e-6, 500)
        worst = max(worst, float(np.max(np.abs(path_w(right, u) - lam1 * (u - 1.0)))))
    ok = worst <= 1e-8
    assert report("C4 phase-path-oracle", ok, f"sup-norm error {worst:.2e}")


def test_c5_pde_front_speed(demo, demo_wave, stability_run):
    tr, runtime, _g = stability_run
    slope, r2 = bw.estimate_speed(tr, (20.0, 40.0))
    speed = -slope  # the front drifts toward -inf at the wave speed
    rel = abs(speed - demo_wave.c_star) / demo_wave.c_star

    g2 = bw.Grid1D(-60.0, 60.0, 0.025, 0.005)
    t0 = time.perf_counter()
    tr2 = bw.run(demo, lambda x: np.where(x >= 0.0, 1.0, 0.0), g2, 40.0, 0.5)
    runtime2 = time.perf_counter() - t0
    slope2, _ = bw.estimate_speed(tr2, (20.0, 40.0))
    rel2 = abs(-slope2 - demo_wave.c_star) / demo_wave.c_star

    ok = rel <= 0.02 and rel2 < rel and runtime < 30.0
    assert report(
        "C5 pde-front-speed",
        ok,
        f"speed={speed:.5f} vs c*={demo_wave.c_star:.5f} ({rel:.2%}), "
        f"dx/2 -> {rel2:.2%}, runtimes {runtime:.1f}s/{runtime2:.1f}s",
    )


def test_c6_stability_decay(stability_run):
    """Faithful to the stated criterion; see the module docstring for why
    the decay-window requirements cannot hold at this discretization."""
    tr, _runtime, _g = stability_run
    late = tr.times >= 10.0
    d = tr.shift_distances[late]
    increments = np.diff(d)
    non_increasing = bool(np.all(increments <= 1e-4))
    K, kappa, r2 = bw.fit_decay(tr, (10.0, 40.0))
    # The transient is resolvable before it hits the discretization floor;
    # record the decay rate measured there as well.
    K_e, kappa_e, r2_e = bw.fit_decay(tr, (0.5, 4.5))
    print(
        f"C6 record: window [10,40]: kappa={kappa:.6g}, K={K:.6g}, r2={r2:.4f}, "
        f"max increment after t=10: {np.max(increments):.2e}, "
        f"distance range [{d.min():.2e}, {d.max():.2e}]; "
        f"resolvable window [0.5,4.5]: kappa={kappa_e:.4g}, r2={r2_e:.4f}"
    )
    ok = non_increasing and kappa > 0.0 and r2 >= 0.9
    assert report(
        "C6 stability-decay",
        ok,
        f"non_increasing={non_increasing}, kappa={kappa:.3g}, r2={r2:.3f}; "
        f"decay is exponential on [0.5, 4.5]: kappa={kappa_e:.3g}, r2={r2_e:.3f}",
    )


def test_c7_hypothesis_audit(demo):
    rep = bw.check_hypotheses(demo)
    h3_exact = 0.459 - 1.0 / 3.0  # closed-form antiderivative oracle
    ok = rep.admissible and abs(rep.h3_integral - h3_exact) <= 1e-9
    sym = bw.check_hypotheses(bw.piecewise_linear(-1.0, 0.5))
    ok &= (not sym.h3_ok) and abs(sym.h3_integral) <= 1e-12
    assert report(
        "C7 hypothesis-audit",
        ok,
        f"h3={rep.h3_integral:.12f} (oracle {h3_exact:.12f}), symmetric rejected",
    )


def test_c8_invariant_suites(demo, demo_wave):
    ok = True
    details = []

    g = bw.Grid1D(-30.0, 30.0, 0.05, 0.01)
    worst = 0.0
    for val in (0.0, 1.0):
        s = bw.SimState(0.0, np.full(g.n_nodes, val), g)
        for _ in range(50):
            s_next = bw.step(demo, s, g)
            worst = max(worst, float(np.max(np.abs(s_next.u - val))))
            s = s_next
    ok &= worst <= 1e-13
    details.append(f"fixed-point drift {worst:.1e}")

    _, q1 = bw.reaction_ode(demo, "q1", 20.0)
    _, q0 = bw.reaction_ode(demo, "q0", 20.0)
    ok &= q1[-1] >= 0.999 and q0[-1] <= 0.001
    details.append(f"q1(20)={q1[-1]:.6f}, q0(20)={q0[-1]:.2e}")

    L = 3.0
    gh = bw.Grid1D(-20.0, 20.0, 0.05, 0.01, bc="neumann")
    u0 = np.maximum(0.0, 1.0 - gh.x**2)
    mass = np.trapezoid(np.where(np.abs(gh.x) <= L, u0, 0.0), dx=gh.dx)
    kernel_ok = True
    for t_end in (0.5, 1.0, 2.0):
        s = bw.SimState(0.0, u0.copy(), gh)
        for _ in range(int(round(t_end / gh.dt))):
            s = bw.step(None, s, gh)
        inner_min = float(np.min(s.u[np.abs(gh.x) < L]))
        kernel_ok &= inner_min >= bw.heat_kernel_eps(t_end, L, 0.0) * mass
    ok &= kernel_ok
    details.append(f"heat-kernel bound {'ok' if kernel_ok else 'violated'}")

    p = bw.supersub_params(demo_wave, demo)
    delta = min(p.delta0, demo.a / 4.0, (1.0 - demo.a) / 4.0) / 2.0
    lower = bw.envelope_value(demo_wave, p, "minus", g.x, 0.0, 0.0, delta)
    upper = bw.envelope_value(demo_wave, p, "plus", g.x, 0.0, 0.0, delta)
    rep = bw.comparison_check(demo, lower, upper, g, t_end=5.0)
    budget = 10.0 * (g.dx**2 + g.dt)
    ok &= rep.max_violation <= budget
    details.append(f"comparison violation {rep.max_violation:.2e} <= {budget:.2e}")

    assert report("C8 invariant-suites", ok, "; ".join(details))
