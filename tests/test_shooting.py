"""Phase-plane shooting: exact linear paths, mismatch monotonicity, the
Brent speed solve, and profile reconstruction."""

from __future__ import annotations

import numpy as np
import pytest

import bistable_waves as bw
from bistable_waves.errors import NoPositiveRoot, PathCollapse
from conftest import closed_form_speed


@pytest.mark.parametrize("c", [0.0, 0.5, 1.0, 2.0])
def test_linear_phase_path_oracle(c):
    """For linear branches the exact paths are the manifold lines
    w = lambda0_plus * u and w = lambda1_minus * (u - 1)."""
    lin = bw.piecewise_linear(-1.0, 0.3)
    lam0 = bw.lambda0_plus(c, -1.0)
    lam1 = bw.lambda1_minus(c, -1.0)

    left = bw.shoot_half(lin, "left", c)
    u = np.linspace(1e-6, 0.3, 400)
    assert np.max(np.abs(left.w_of_u(u) - lam0 * u)) <= 1e-8
    assert left.w_at_a == pytest.approx(lam0 * 0.3, abs=1e-9)

    right = bw.shoot_half(lin, "right", c)
    u = np.linspace(0.3, 1.0 - 1e-6, 400)
    assert np.max(np.abs(right.w_of_u(u) - lam1 * (u - 1.0))) <= 1e-8
    assert right.w_at_a == pytest.approx(lam1 * (0.3 - 1.0), abs=1e-9)


def test_linear_path_values_at_unit_speed():
    lin = bw.piecewise_linear(-1.0, 0.3)
    assert bw.shoot_half(lin, "left", 1.0).w_at_a == pytest.approx(0.485410, abs=1e-6)
    assert bw.shoot_half(lin, "right", 1.0).w_at_a == pytest.approx(0.432624, abs=1e-6)


def test_left_path_increasing_at_zero_speed(demo):
    path = bw.shoot_half(demo, "left", 0.0)
    assert np.all(np.diff(path.w) > 0.0)
    assert np.all(path.w > 0.0)


def test_shoot_half_eps_guard(demo):
    with pytest.raises(ValueError):
        bw.shoot_half(demo, "left", 1.0, eps=0.1)
    with pytest.raises(ValueError):
        bw.shoot_half(demo, "left", -0.5)


def test_speed_mismatch_linear():
    lin = bw.piecewise_linear(-1.0, 0.3)
    assert abs(bw.speed_mismatch(lin, closed_form_speed(0.3))) <= 1e-8
    assert bw.speed_mismatch(lin, 0.0) == pytest.approx(-0.4, abs=1e-9)


def test_right_path_collapse_maps_to_zero():
    """A term whose right branch turns negative mid-interval starves the
    backward path: shoot_half raises PathCollapse and speed_mismatch
    treats the collapsed side as w(a) = 0."""
    bad = bw.ReactionTerm(
        0.3,
        bw.BranchPoly((0.0, -1.0), 0.0, 0.3),
        bw.BranchPoly((-1.8, 3.8, -2.0), 0.3, 1.0),  # -2(u-1)(u-0.9)
    )
    with pytest.raises(PathCollapse) as exc:
        bw.shoot_half(bad, "right", 0.0)
    assert exc.value.u_at is not None and 0.3 < exc.value.u_at < 1.0
    s = bw.speed_mismatch(bad, 0.0)
    left = bw.shoot_half(bad, "left", 0.0)
    assert s == pytest.approx(left.w_at_a, abs=1e-12)
    assert s > 0.0


def test_mismatch_sign_at_bracket_ends(demo, demo_bracket, quartic_terms):
    for f in [demo, *quartic_terms[:5]]:
        br = bw.speed_bracket(bw.slope_bounds(f), f.a)
        assert bw.speed_mismatch(f, br.c_check) <= 1e-6
        assert bw.speed_mismatch(f, br.c_hat) >= -1e-6


def test_envelope_slope_sandwich(demo):
    """The nonlinear path derivative at u=a sits between the two envelope
    manifold slopes on each side."""
    b = bw.slope_bounds(demo)
    for c in (0.0, 0.4, 0.8, 1.5):
        w_left = bw.shoot_half(demo, "left", c).w_at_a
        assert bw.lambda0_plus(c, b.alpha_hi) * demo.a - 1e-6 <= w_left
        assert w_left <= bw.lambda0_plus(c, b.alpha_lo) * demo.a + 1e-6
        w_right = bw.shoot_half(demo, "right", c).w_at_a
        assert bw.lambda1_minus(c, b.beta_hi) * (demo.a - 1.0) - 1e-6 <= w_right
        assert w_right <= bw.lambda1_minus(c, b.beta_lo) * (demo.a - 1.0) + 1e-6


def test_mismatch_strictly_increasing(demo, demo_bracket):
    cs = np.linspace(0.0, demo_bracket.c_hat + 1.0, 20)
    vals = [bw.speed_mismatch(demo, float(c)) for c in cs]
    assert np.all(np.diff(vals) > 0.0)


@pytest.mark.parametrize("a", [0.3, 0.45])
def test_find_speed_linear_closed_form(a):
    lin = bw.piecewise_linear(-1.0, a)
    br = bw.speed_bracket(bw.slope_bounds(lin), a)
    c = bw.find_speed(lin, br)
    assert c == pytest.approx(closed_form_speed(a), abs=1e-8)


def test_find_speed_reports_details(demo, demo_bracket):
    det = {}
    c = bw.find_speed(demo, demo_bracket, details=det)
    assert demo_bracket.c_check - 1e-6 <= c <= demo_bracket.c_hat + 1e-6
    assert det["iterations"] > 0
    assert det["monotone_ok"]
    assert abs(det["residual"]) <= 1e-10


@pytest.mark.parametrize(
    "term, use_bracket",
    [("demo", True), ("demo", False), ("linear", True)],
    ids=["demo-bracket", "demo-no-bracket", "linear-point-bracket"],
)
def test_find_speed_counts_every_mismatch_call(term, use_bracket, demo, monkeypatch):
    f = demo if term == "demo" else bw.piecewise_linear(-1.0, 0.3)
    br = bw.speed_bracket(bw.slope_bounds(f), f.a) if use_bracket else None
    calls = 0
    real = bw.shooting.speed_mismatch

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(bw.shooting, "speed_mismatch", counting)
    det = {}
    c = bw.find_speed(f, br, details=det)
    assert det["evaluations"] == calls
    assert det["residual"] == real(f, c)


def test_find_speed_demo_evaluation_budget(demo, demo_bracket):
    """Brent's method on [c_check, c_hat]: bisection needed 32 evaluations
    plus the 5 spot-check probes."""
    det = {}
    bw.find_speed(demo, demo_bracket, details=det)
    assert det["evaluations"] <= 25


def test_find_speed_without_bracket(demo, demo_bracket):
    c_free = bw.find_speed(demo, None)
    c_br = bw.find_speed(demo, demo_bracket)
    assert c_free == pytest.approx(c_br, abs=1e-8)


def test_find_speed_no_positive_root():
    lin = bw.piecewise_linear(-1.0, 0.5)
    br = bw.speed_bracket(bw.slope_bounds(lin), 0.5)
    with pytest.raises(NoPositiveRoot):
        bw.find_speed(lin, br)


def test_reconstruct_profile_basics(demo, demo_wave):
    ws = demo_wave
    i0 = int(np.argmin(np.abs(ws.z_grid)))
    assert ws.z_grid[i0] == 0.0
    assert ws.u_values[i0] == pytest.approx(demo.a, abs=1e-9)
    assert np.all(np.diff(ws.u_values) > 0.0)
    assert np.all(ws.w_values > 0.0)
    assert ws.u_values[0] <= 1e-4 + 1e-6
    assert ws.u_values[-1] >= 1.0 - 1e-4 - 1e-6
    assert ws.derivative_jump_at_0 <= 1e-6
    assert ws.bracket is not None and ws.bracket.ordering_ok


def test_reconstruct_profile_guards(demo, demo_wave):
    with pytest.raises(ValueError):
        bw.reconstruct_profile(demo, demo_wave.c_star, u_eps=0.5)
    with pytest.raises(ValueError):
        bw.reconstruct_profile(demo, demo_wave.c_star, dz=-0.1)


def test_linear_profile_matches_envelope_wave():
    """For linear branches the reconstructed wave is exactly the matched
    piecewise exponential."""
    lin = bw.piecewise_linear(-1.0, 0.3)
    br = bw.speed_bracket(bw.slope_bounds(lin), 0.3)
    c = bw.find_speed(lin, br)
    ws = bw.reconstruct_profile(lin, c, bracket=br)
    wave = bw.matched_wave(-1.0, -1.0, 0.3)
    exact = bw.envelope_profile(wave, ws.z_grid)
    assert np.max(np.abs(ws.u_values - exact)) <= 1e-6


@pytest.mark.parametrize("a", [0.1, 0.3, 0.45])
def test_linear_profile_samples_match_closed_form(a):
    lin = bw.piecewise_linear(-1.0, a)
    br = bw.speed_bracket(bw.slope_bounds(lin), a)
    ws = bw.reconstruct_profile(lin, bw.find_speed(lin, br), bracket=br)
    exact = bw.envelope_profile(bw.matched_wave(-1.0, -1.0, a), ws.z_grid)
    assert np.max(np.abs(ws.u_values - exact)) <= 1e-9


def test_profile_ends_at_first_sample_past_target(demo_wave):
    u = demo_wave.u_values
    assert u[0] <= 1e-4 < u[1]
    assert u[-2] < 1.0 - 1e-4 <= u[-1]


def test_left_tail_rate(demo, demo_wave):
    """log u is asymptotically linear with slope lambda0_plus(c*) in the
    left tail (checked over the last decade of the tail)."""
    ws = demo_wave
    lam0 = bw.lambda0_plus(ws.c_star, demo.slope_at_zero)
    u_min = ws.u_values[0]
    mask = (ws.u_values >= u_min) & (ws.u_values <= 10.0 * u_min)
    z = ws.z_grid[mask]
    logu = np.log(ws.u_values[mask])
    slope = np.polyfit(z, logu, 1)[0]
    assert slope == pytest.approx(lam0, rel=0.01)


def test_verify_c1(demo, demo_wave, demo_bracket):
    assert bw.verify_c1(demo_wave, tol=1e-6)
    off = bw.reconstruct_profile(demo, demo_wave.c_star + 0.1, bracket=demo_bracket)
    assert off.derivative_jump_at_0 > 1e-6
    assert not bw.verify_c1(off, tol=1e-6)
    # the jump at c > c* has the sign of S(c) > 0
    assert bw.speed_mismatch(demo, demo_wave.c_star + 0.1) > 0.0


def test_verify_c1_linear_matched():
    lin = bw.piecewise_linear(-1.0, 0.3)
    ws = bw.reconstruct_profile(lin, closed_form_speed(0.3))
    assert bw.verify_c1(ws, tol=1e-6)


def test_refinement_stability(demo, demo_bracket):
    c_coarse = bw.find_speed(demo, demo_bracket, tol_c=1e-10)
    c_fine = bw.find_speed(
        demo, demo_bracket, tol_c=5e-11, eps=bw.shooting.default_eps(demo) / 2, rtol=5e-11
    )
    assert abs(c_coarse - c_fine) < 1e-7


def test_bracket_containment_quartics(quartic_terms):
    for f in quartic_terms[:6]:
        br = bw.speed_bracket(bw.slope_bounds(f), f.a)
        c = bw.find_speed(f, br, check_monotone=False)
        assert br.c_check - 1e-6 <= c <= br.c_hat + 1e-6


def test_solve_wave_pipeline(demo):
    det = {}
    ws = bw.solve_wave(demo, details=det)
    assert bw.verify_c1(ws, tol=1e-6)
    assert det["evaluations"] > 0
