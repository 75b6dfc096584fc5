"""Phase-plane shooting: exact linear paths, mismatch monotonicity, the
Brent speed solve, and profile reconstruction."""

from __future__ import annotations

import gc
import math
import sys
import weakref

import numpy as np
import pytest
from scipy.integrate import DOP853, RK45, solve_ivp

import bistable_waves as bw
from bistable_waves import _tableaux
from bistable_waves.errors import NoPositiveRoot, PathCollapse
from bistable_waves.roots import bracketed_root
from conftest import (
    closed_form_speed,
    reference_march,
    reference_phase_path,
    reference_shoot_half,
    reference_speed_mismatch,
)


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
    with pytest.raises(ValueError, match="not finite"):
        bw.shoot_half(demo, "right", float("inf"))
    # 1 - 2**-54 rounds to 1, the equilibrium itself; 1 - 2**-53 does not
    with pytest.raises(ValueError, match="onto u = 1"):
        bw.shoot_half(demo, "right", 0.5, eps=2.0**-54)
    assert bw.shoot_half(demo, "right", 0.5, eps=2.0**-53).u.max() < 1.0


def test_speed_mismatch_linear():
    lin = bw.piecewise_linear(-1.0, 0.3)
    assert abs(bw.speed_mismatch(lin, closed_form_speed(0.3))) <= 1e-8
    assert bw.speed_mismatch(lin, 0.0) == pytest.approx(-0.4, abs=1e-9)


# A right branch that turns negative mid-interval starves the backward path.
_STARVED = bw.ReactionTerm(
    0.3,
    bw.BranchPoly((0.0, -1.0), 0.0, 0.3),
    bw.BranchPoly((-1.8, 3.8, -2.0), 0.3, 1.0),  # -2(u-1)(u-0.9)
)


def test_right_path_collapse_maps_to_zero():
    """A term whose right branch turns negative mid-interval starves the
    backward path: shoot_half raises PathCollapse and speed_mismatch
    treats the collapsed side as w(a) = 0."""
    with pytest.raises(PathCollapse) as exc:
        bw.shoot_half(_STARVED, "right", 0.0)
    assert exc.value.u_at is not None and 0.3 < exc.value.u_at < 1.0
    s = bw.speed_mismatch(_STARVED, 0.0)
    left = bw.shoot_half(_STARVED, "left", 0.0)
    assert s == pytest.approx(left.w_at_a, abs=1e-12)
    assert s > 0.0


def _phase_oracle_terms(quartic):
    """The demo, an equal-slope linear term, a quartic, and a term whose
    branches end in a zero coefficient."""
    return {
        "demo": bw.quadratic_demo(),
        "linear_a0.3": bw.piecewise_linear(-1.0, 0.3),
        "quartic": quartic,
        "zero_top": bw.ReactionTerm(
            0.3,
            bw.BranchPoly((0.0, -1.0, 0.5, 0.0), 0.0, 0.3),
            bw.BranchPoly((0.5, 0.5, -1.0, 0.0), 0.3, 1.0),  # (1-u)(0.5+u)
        ),
    }


@pytest.mark.parametrize("name", ["demo", "linear_a0.3", "quartic", "zero_top"])
def test_phase_paths_match_polyval_reference_bitwise(name, quartic_terms):
    """The float-Horner right-hand side takes the same RK45 steps as an
    npp.polyval one: samples, w(a), S(c) and the evaluation count nfev are
    solve_ivp's."""
    f = _phase_oracle_terms(quartic_terms[0])[name]
    for c in (0.0, 0.55, 1.2):
        for side in ("left", "right"):
            path = bw.shoot_half(f, side, c)
            details = {}
            u_ref, w_ref, _ = reference_shoot_half(f, side, c, details=details)
            np.testing.assert_array_equal(path.u, u_ref)
            np.testing.assert_array_equal(path.w, w_ref)
            assert path.w_at_a == (w_ref[-1] if side == "left" else w_ref[0])
            assert path.nfev == details["nfev"]
        assert bw.speed_mismatch(f, c) == reference_speed_mismatch(f, c)


def test_quartic_paths_at_c_star_match_solve_ivp_bitwise(quartic_terms):
    """Both half paths of the 20 seeded quartics at their c* are solve_ivp's:
    nodes, w and nfev.  The set pins every branch of _rk45's step control:
    some path rejects a trial step (nfev above 2 + 6 per accepted step),
    and some path clamps its last step at u = a.  Without a rejection each
    step is at least 0.9 times the one before (RK45's least growth factor
    after an accepted step), so a last step below 0.8 times its
    predecessor, on a path with none, was cut short by the clamp."""
    rejected = clamped = 0
    for f in quartic_terms:
        c = bw.find_speed(f, bw.speed_bracket(bw.slope_bounds(f), f.a))
        for side in ("left", "right"):
            path = bw.shoot_half(f, side, c)
            details = {}
            u_ref, w_ref, _ = reference_shoot_half(f, side, c, details=details)
            assert path.u.tobytes() == u_ref.tobytes()
            assert path.w.tobytes() == w_ref.tobytes()
            assert path.nfev == details["nfev"]
            steps = np.diff(path.u) if side == "left" else -np.diff(path.u)[::-1]
            trials = 2 + 6 * len(steps)
            rejected += path.nfev > trials
            clamped += path.nfev == trials and steps[-1] < 0.8 * steps[-2]
    assert rejected > 0 and clamped > 0


def test_collapsing_path_matches_polyval_reference():
    """Both ways a starved right path collapses give solve_ivp's collapse
    point bitwise: the step-size underflow (solve_ivp status -1, every c in
    [0, 0.3] at the default rtol) and the w = 1e-12 event, whose root brentq
    finds on the step's interpolant (status 1, at rtol = 1e-3 and c = 0 and
    at the default rtol and c = 1.2)."""
    cases = [(0.0, 1e-10, -1), (0.15, 1e-10, -1), (0.3, 1e-10, -1), (0.0, 1e-3, 1), (1.2, 1e-10, 1)]
    for c, rtol, status in cases:
        with pytest.raises(PathCollapse) as got:
            bw.shoot_half(_STARVED, "right", c, rtol=rtol)
        with pytest.raises(PathCollapse) as want:
            reference_shoot_half(_STARVED, "right", c, rtol=rtol)
        assert str(want.value).endswith(f"status {status}")
        assert ("w<=1e-12" in str(got.value)) == (status == 1)
        assert got.value.u_at.hex() == want.value.u_at.hex()
        assert got.value.nfev == want.value.nfev
    assert bw.speed_mismatch(_STARVED, 0.0) == reference_speed_mismatch(_STARVED, 0.0)


def test_collapse_event_root_is_the_bracketed_root(monkeypatch):
    """The floor event's root comes from roots.bracketed_root, and over 11
    speeds and 2 rtols the starved path's collapse points and kinds are
    solve_ivp's, bit for bit."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1:3])
        return bracketed_root(*args, **kwargs)

    monkeypatch.setattr(bw.shooting, "bracketed_root", counting)
    events = 0
    for rtol in (1e-3, 1e-6):
        for c in np.linspace(0.0, 2.0, 11):
            with pytest.raises(PathCollapse) as got:
                bw.shoot_half(_STARVED, "right", c, rtol=rtol)
            with pytest.raises(PathCollapse) as want:
                reference_shoot_half(_STARVED, "right", c, rtol=rtol)
            assert got.value.u_at.hex() == want.value.u_at.hex()
            assert got.value.nfev == want.value.nfev
            event = str(want.value).endswith("status 1")
            assert ("w<=1e-12" in str(got.value)) == event
            events += event
    assert events == len(calls) > 0


def test_rtol_below_the_floor_warns_and_clips_as_solve_ivp(demo):
    """An rtol under 100 machine epsilons is clipped to that with
    solve_ivp's UserWarning, and the path is solve_ivp's at the clipped
    rtol."""
    for side in ("left", "right"):
        with pytest.warns(UserWarning) as got:
            path = bw.shoot_half(demo, side, 0.55, rtol=1e-16)
        with pytest.warns(UserWarning) as want:
            details = {}
            u_ref, w_ref, _ = reference_shoot_half(demo, side, 0.55, rtol=1e-16, details=details)
        assert [str(w.message) for w in got] == [str(w.message) for w in want]
        assert "rtol" in str(got[0].message)
        assert path.u.tobytes() == u_ref.tobytes()
        assert path.w.tobytes() == w_ref.tobytes()
        assert path.nfev == details["nfev"]


@pytest.mark.parametrize("name", ["demo", "linear_a0.3", "quartic", "zero_top"])
def test_w_of_u_matches_ode_solution_bitwise(name, quartic_terms):
    """w_of_u evaluates the steps' interpolants as solve_ivp's OdeSolution
    does: a scalar query like OdeSolution._call_single, an array query
    like OdeSolution.__call__ (sorted, grouped by step, unsorted again),
    whose last bits differ from the scalar one's.  Checked at the step
    nodes and between them, past the seed and past a, on Python floats,
    NumPy scalars and ascending, descending and unsorted arrays.  An empty
    query, on which OdeSolution raises, gives an empty array."""
    f = _phase_oracle_terms(quartic_terms[0])[name]
    rng = np.random.default_rng(11)
    for c in (0.0, 0.55, 1.2):
        for side in ("left", "right"):
            path = bw.shoot_half(f, side, c)
            ref = reference_phase_path(f, side, c)
            lo, hi = path.u[0], path.u[-1]
            span = hi - lo
            ascending = np.concatenate(
                [lo - span * np.array([0.5, 1e-3]), np.linspace(lo, hi, 1001),
                 hi + span * np.array([1e-3, 0.5])]
            )
            arrays = [ascending, ascending[::-1], rng.permutation(ascending), path.u]
            for q in arrays:
                assert path.w_of_u(q).tobytes() == ref.w_of_u(q).tobytes()
            for x in [*path.u, *ascending[::25], *ascending[-2:]]:
                for query in (float(x), np.float64(x), np.array(x)):
                    got, want = path.w_of_u(query), ref.w_of_u(query)
                    assert type(got) is float and got.hex() == want.hex()
            assert path.w_of_u(np.array([])).shape == (0,)


@pytest.mark.parametrize("name", ["demo", "linear_a0.3", "quartic"])
def test_profile_matches_reference_backed_paths_bytewise(name, quartic_terms, monkeypatch):
    """reconstruct_profile over shoot_half's paths writes the same bytes as
    over PhasePaths backed by solve_ivp's OdeSolution."""
    f = _phase_oracle_terms(quartic_terms[0])[name]
    c = bw.find_speed(f, bw.speed_bracket(bw.slope_bounds(f), f.a))
    got = bw.reconstruct_profile(f, c)
    monkeypatch.setattr(bw.shooting, "shoot_half", reference_phase_path)
    want = bw.reconstruct_profile(f, c)
    for attr in ("z_grid", "u_values", "w_values"):
        assert getattr(got, attr).tobytes() == getattr(want, attr).tobytes()
    assert got.derivative_jump_at_0.hex() == want.derivative_jump_at_0.hex()


def _march_terms(quartic_terms):
    """The demo, the three benchmark linear terms and three quartics."""
    terms = {"demo": bw.quadratic_demo()}
    for a in (0.1, 0.3, 0.45):
        terms[f"linear_a{a}"] = bw.piecewise_linear(-1.0, a)
    for i in range(3):
        terms[f"quartic{i}"] = quartic_terms[i]
    return terms


_MARCH_TERMS = ["demo", "linear_a0.1", "linear_a0.3", "linear_a0.45", "quartic0", "quartic1", "quartic2"]


@pytest.mark.parametrize("rtol", [1e-10, 1e-6, 1e-12])
@pytest.mark.parametrize("name", _MARCH_TERMS)
def test_march_matches_dop853_bitwise(name, rtol, quartic_terms):
    """The quadrature march samples each path as scipy's DOP853 solver
    object marching du/dz = w(u) at its tightest tolerance, 1e-13, does,
    in both directions: the same number of samples and u within 1e-10 of
    it, on paths shot at rtol 1e-6, 1e-10 and 1e-12.  On the coarse rtol
    1e-6 paths the bound is 1e-9: there DOP853's own error reaches 2.5e-10
    (the demo's right path), where the march agrees with a 40-point,
    12-substep Gauss quadrature of the same path to 1.1e-16."""
    bound = 1e-9 if rtol == 1e-6 else 1e-10
    f = _march_terms(quartic_terms)[name]
    c = bw.find_speed(f, bw.speed_bracket(bw.slope_bounds(f), f.a))
    for side, target, forward in (("right", 1.0 - 1e-4, True), ("left", 1e-4, False)):
        path = bw.shoot_half(f, side, c, rtol=rtol)
        u, w = bw.shooting._march(path, target, 1e-2, forward)
        u_ref, _ = reference_march(path.w_of_u, f.a, target, 1e-2, forward, 0.0)
        assert len(u) == len(w) == len(u_ref)
        assert np.max(np.abs(u - u_ref)) <= bound


def _hand_path(side, nodes, w_of_u):
    """A PhasePath over the given ascending u nodes whose steps interpolate
    w_of_u linearly, integrated from the seed end to u = a, with the seed
    line through the seed node.  Its w_of_u raises: the march must not call
    it."""
    left = side == "left"
    ts = nodes if left else nodes[::-1]
    segments = []
    for t0, t1 in zip(ts[:-1], ts[1:]):
        w0, w1 = w_of_u(t0), w_of_u(t1)
        segments.append((t0, t1 - t0, w0, np.array([[(w1 - w0) / (t1 - t0), 0.0, 0.0, 0.0]])))
    seed = ts[0] if left else 1.0 - ts[0]

    def forbidden(u):
        raise AssertionError("the march queried w_of_u")

    return bw.PhasePath(
        side=side,
        c=0.0,
        u=np.array(nodes),
        w=np.array([w_of_u(u) for u in nodes]),
        w_of_u=forbidden,
        interpolants=bw.shooting._Interpolants(segments, w_of_u(ts[0]) / seed),
    )


_BAD_W = "profile march met a non-positive or non-finite w"
_SHORT = "profile march did not reach"
_LEFT_NODES = [1e-3, 0.1, 0.15, 0.25, 0.3]
_RIGHT_NODES = [0.3, 0.35, 0.45, 0.5, 0.999]


@pytest.mark.parametrize(
    "side, w, target, dz, message",
    [
        # w turns NaN past a level, inside the marched range.
        ("right", lambda u: 1.0 if u < 0.4 else math.nan, 0.9, 1e-2, _BAD_W),
        ("left", lambda u: math.nan if u < 0.2 else 1.0, 1e-2, 1e-2, _BAD_W),
        # A tiny w never reaches the target within the z range.
        ("right", lambda u: 1e-9, 0.9, 1e-2, _SHORT),
        ("left", lambda u: 1e-9, 1e-2, 1e-2, _SHORT),
        # A z range rounded to 0 samples.
        ("right", lambda u: 1.0, 0.9, 1000.0, _SHORT),
    ],
    ids=["nan-forward", "nan-backward", "tiny-forward", "tiny-backward", "empty-range"],
)
def test_march_failures_match_dop853(side, w, target, dz, message):
    """The march fails where scipy's DOP853 solver object marching
    du/dz = w(u) fails, with a RuntimeError of its own: on a path whose w is
    not finite on the marched range, and where the target lies beyond the
    z range."""
    path = _hand_path(side, _LEFT_NODES if side == "left" else _RIGHT_NODES, w)
    forward = side == "right"
    with pytest.raises(RuntimeError, match=message):
        bw.shooting._march(path, target, dz, forward)
    with pytest.raises(RuntimeError):
        reference_march(w, 0.3, target, dz, forward, 1e-10)


@pytest.mark.parametrize("forward", [True, False], ids=["forward", "backward"])
def test_march_refuses_a_non_positive_w_it_needs(forward):
    """w = 0.4 - u (forward) or u - 0.2 (backward) falls through zero on a
    path step: the march raises when its samples need that step, and
    samples the path when they stop short of it."""
    if forward:
        path = _hand_path("right", [0.3, 0.33, 0.36, 0.45, 0.999], lambda u: 0.4 - u)
        far, near = 0.9, 0.32
    else:
        path = _hand_path("left", [1e-3, 0.1, 0.25, 0.27, 0.3], lambda u: u - 0.2)
        far, near = 0.05, 0.28
    with pytest.raises(RuntimeError, match=_BAD_W):
        bw.shooting._march(path, far, 1e-3, forward)
    u, w = bw.shooting._march(path, near, 1e-3, forward)
    assert np.all(w > 0.0)
    assert np.all(np.diff(u) > 0.0) if forward else np.all(np.diff(u) < 0.0)
    assert (u[-2] < near <= u[-1]) if forward else (u[-2] > near >= u[-1])


def test_solve_wave_never_calls_solve_ivp(demo, quartic_terms, monkeypatch):
    """The phase paths and the profile march have one integrator each: no
    solve_ivp call and no RK45 or DOP853 solver object during a whole
    solve_wave."""
    calls = []

    def forbidden(*args, **kwargs):
        calls.append(args)
        raise AssertionError("solve_ivp, RK45 or DOP853 used during solve_wave")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] in ("bistable_waves", "scipy") and getattr(module, "solve_ivp", None) is solve_ivp:
            monkeypatch.setattr(module, "solve_ivp", forbidden)
    monkeypatch.setattr(RK45, "__init__", forbidden)
    monkeypatch.setattr(DOP853, "__init__", forbidden)
    for f in (demo, quartic_terms[3]):
        assert bw.verify_c1(bw.solve_wave(f))
    assert calls == []


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


@pytest.mark.parametrize("use_bracket", [True, False], ids=["bracket", "no-bracket"])
def test_find_speed_totals_ode_nfev_over_every_path(use_bracket, demo, demo_bracket, monkeypatch):
    """details["ode_nfev"] is the sum of nfev over every half path
    find_speed shot; speed_mismatch counts a collapsed right path by the
    nfev its PathCollapse carries."""
    real = bw.shooting.shoot_half
    shot = []

    def recording(*args, **kwargs):
        try:
            path = real(*args, **kwargs)
        except PathCollapse as exc:
            shot.append(exc.nfev)
            raise
        shot.append(path.nfev)
        return path

    monkeypatch.setattr(bw.shooting, "shoot_half", recording)
    det = {}
    bw.find_speed(demo, demo_bracket if use_bracket else None, details=det)
    assert len(shot) == 2 * det["evaluations"]
    assert det["ode_nfev"] == sum(shot) > 0

    shot.clear()
    det = {}
    bw.speed_mismatch(_STARVED, 0.0, details=det)
    assert shot[1] > 0 and det["ode_nfev"] == sum(shot)


def test_find_speed_demo_evaluation_budget(demo, demo_bracket, monkeypatch):
    """Brent's method on [c_check, c_hat] takes 6 evaluations where
    bisection needed 32, and the spot check reuses them: none of its
    evenly spaced probes is evaluated."""
    real = bw.shooting.speed_mismatch
    calls = []

    def recording(f, c, **kwargs):
        calls.append(c)
        return real(f, c, **kwargs)

    monkeypatch.setattr(bw.shooting, "speed_mismatch", recording)
    det = {}
    bw.find_speed(demo, demo_bracket, details=det)
    assert det["evaluations"] == len(calls) <= 8
    probes = np.linspace(demo_bracket.c_check, demo_bracket.c_hat, 7)[1:-1].tolist()
    assert not set(probes) & set(calls)
    assert det["monotone_ok"]


def test_find_speed_quartic_evaluation_budget(quartic_terms):
    for f in quartic_terms:
        det = {}
        bw.find_speed(f, bw.speed_bracket(bw.slope_bounds(f), f.a), details=det)
        assert det["evaluations"] <= 8
        assert det["monotone_ok"]


def _stub_mismatch(monkeypatch, s_of_c):
    """Replace S by s_of_c and return the list of speeds it is called at."""
    calls = []

    def stub(f, c, eps=None, rtol=1e-10, details=None):
        calls.append(c)
        if details is not None:
            details["ode_nfev"] = 0
        return s_of_c(c)

    monkeypatch.setattr(bw.shooting, "speed_mismatch", stub)
    return calls


def test_spot_check_warns_on_a_dip_at_an_evaluated_speed(demo, demo_bracket, monkeypatch):
    """A cubic S makes Brent evaluate many speeds; S dips to just above
    zero at c_hat, below the iterates right of the root, so the check
    fails on the search's own points without adding probes."""
    lo, hi = demo_bracket.c_check, demo_bracket.c_hat
    c0 = lo + 0.3 * (hi - lo)
    calls = _stub_mismatch(monkeypatch, lambda c: 1e-9 if c == hi else (c - c0) ** 3)
    det = {}
    with pytest.warns(RuntimeWarning, match="not monotone"):
        bw.find_speed(demo, demo_bracket, details=det)
    assert det["monotone_ok"] is False
    assert det["evaluations"] == len(calls) >= 5
    assert not set(np.linspace(lo, hi, 7)[1:-1].tolist()) & set(calls)


def test_spot_check_tops_up_a_short_search(demo, demo_bracket, monkeypatch):
    """A linear S: the secant step lands on the root, leaving three
    speeds in the bracket, so the check adds the five evenly spaced probes,
    counts them and passes."""
    lo, hi = demo_bracket.c_check, demo_bracket.c_hat
    c0 = lo + 0.3 * (hi - lo)
    calls = _stub_mismatch(monkeypatch, lambda c: c - c0)
    det = {}
    c = bw.find_speed(demo, demo_bracket, details=det)
    assert abs(c - c0) <= 1e-10
    assert calls[-5:] == np.linspace(lo, hi, 7)[1:-1].tolist()
    assert det["evaluations"] == len(calls) == 8
    assert det["monotone_ok"]


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
    for dz in (1000.0, 1e-9, math.nan):
        with pytest.raises(ValueError, match="samples per side"):
            bw.reconstruct_profile(demo, demo_wave.c_star, dz=dz)


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


@pytest.mark.parametrize(
    "a, u_eps, tol, n_samples",
    [
        (0.1, 1e-4, 1e-12, None),
        (0.3, 1e-4, 1e-12, None),
        (0.45, 1e-4, 1e-12, None),
        (0.3, 1e-9, 1e-12, None),
        (5e-4, 1e-3, 1e-11, 30_885),
    ],
    ids=["0.1", "0.3", "0.45", "0.3-past-the-seed", "5e-4-one-backward-sample"],
)
def test_linear_profile_samples_match_closed_form(a, u_eps, tol, n_samples):
    """The samples of a linear term's profile are the matched piecewise
    exponential's to 1e-12: also with u_eps = 1e-9, below the seed eps,
    where the march follows the seed lines.  At a = 5e-4 with
    u_eps = 1e-3 > a the backward side keeps its one sample; there the
    right path, at c* = 44.7 where dw/du is the difference of two
    numbers near 44.7, is off its line w = lambda (1 - u) by up to 4.5e-7
    relative, and the samples by 3.3e-12."""
    lin = bw.piecewise_linear(-1.0, a)
    br = bw.speed_bracket(bw.slope_bounds(lin), a)
    ws = bw.reconstruct_profile(lin, bw.find_speed(lin, br), u_eps=u_eps, bracket=br)
    exact = bw.envelope_profile(bw.matched_wave(-1.0, -1.0, a), ws.z_grid)
    assert np.max(np.abs(ws.u_values - exact)) <= tol
    # each side ends at its first sample past the target, which may be its only one
    assert ws.u_values[0] <= u_eps and (u_eps < ws.u_values[1] or ws.z_grid[1] == 0.0)
    assert ws.u_values[-2] < 1.0 - u_eps <= ws.u_values[-1]
    if n_samples is not None:
        assert len(ws.z_grid) == n_samples
        assert ws.z_grid[:2].tolist() == [-1e-2, 0.0]


def test_wave_and_paths_are_freed_without_the_cycle_collector(demo, demo_wave):
    """A wave keeps the two paths it was marched along, so neither may sit
    in a reference cycle: each round of waves would otherwise outlive its
    last reference until the cyclic collector's oldest generation runs."""
    gc.disable()
    try:
        ws = bw.reconstruct_profile(demo, demo_wave.c_star)
        refs = [weakref.ref(x) for x in (ws, *ws.paths, *(path.w_of_u for path in ws.paths))]
        del ws
        assert [ref() for ref in refs] == [None] * len(refs)
    finally:
        gc.enable()


def test_profile_reads_no_scalar_path_query(demo, monkeypatch):
    """reconstruct_profile samples the paths through their interpolants
    alone: no w_of_u query and no scalar _interpolate call."""
    calls = []
    real_shoot, real_interpolate = bw.shooting.shoot_half, bw.shooting._interpolate

    def counting_shoot(*args, **kwargs):
        path = real_shoot(*args, **kwargs)
        w_of_u = path.w_of_u

        def counted(u):
            calls.append(("w_of_u", u))
            return w_of_u(u)

        path.w_of_u = counted
        return path

    def counted_interpolate(*args):
        calls.append(("_interpolate", args))
        return real_interpolate(*args)

    monkeypatch.setattr(bw.shooting, "shoot_half", counting_shoot)
    monkeypatch.setattr(bw.shooting, "_interpolate", counted_interpolate)
    c = bw.find_speed(demo, None)
    calls.clear()
    ws = bw.reconstruct_profile(demo, c)
    assert calls == []
    assert [path.side for path in ws.paths] == ["left", "right"]


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
        c = bw.find_speed(f, br)
        assert br.c_check - 1e-6 <= c <= br.c_hat + 1e-6


def test_solve_wave_pipeline(demo):
    det = {}
    ws = bw.solve_wave(demo, details=det)
    assert bw.verify_c1(ws, tol=1e-6)
    assert det["evaluations"] > 0


@pytest.mark.parametrize("name, arrays", [("RK45", ("A", "B", "C", "E", "P"))])
def test_copied_tableaux_are_scipys(name, arrays):
    """The loop's tableau, copied so that shooting needs no scipy, is
    scipy's arrays to the bit, with the same shapes, dtypes and settings."""
    ours, theirs = getattr(_tableaux, name), {"RK45": RK45}[name]
    for attr in arrays:
        a, b = getattr(ours, attr), getattr(theirs, attr)
        assert (a.shape, a.dtype) == (b.shape, b.dtype), attr
        assert a.tobytes() == b.tobytes(), attr
    assert ours.n_stages == theirs.n_stages
    assert ours.error_estimator_order == theirs.error_estimator_order
    assert ours.TOO_SMALL_STEP == theirs.TOO_SMALL_STEP
