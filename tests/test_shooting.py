"""Phase-plane shooting: exact linear paths, mismatch monotonicity, the
Brent speed solve, and profile reconstruction."""

from __future__ import annotations

import gc
import math
import sys
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.integrate import DOP853, RK45, solve_ivp

import bistable_waves as bw
from bistable_waves import _tableaux
from bistable_waves.errors import NoPositiveRoot, PathCollapse
from bistable_waves.roots import bracketed_root
from conftest import (
    closed_form_speed,
    path_w,
    random_admissible_quartic,
    reference_bvp_speed,
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
    assert np.max(np.abs(path_w(left, u) - lam0 * u)) <= 1e-8
    assert left.w_at_a == pytest.approx(lam0 * 0.3, abs=1e-9)

    right = bw.shoot_half(lin, "right", c)
    u = np.linspace(0.3, 1.0 - 1e-6, 400)
    assert np.max(np.abs(path_w(right, u) - lam1 * (u - 1.0))) <= 1e-8
    assert right.w_at_a == pytest.approx(lam1 * (0.3 - 1.0), abs=1e-9)


def test_linear_path_values_at_unit_speed():
    lin = bw.piecewise_linear(-1.0, 0.3)
    assert bw.shoot_half(lin, "left", 1.0).w_at_a == pytest.approx(0.485410, abs=1e-6)
    assert bw.shoot_half(lin, "right", 1.0).w_at_a == pytest.approx(0.432624, abs=1e-6)


def test_left_path_increasing_at_zero_speed(demo):
    path = bw.shoot_half(demo, "left", 0.0)
    assert np.all(np.diff(path.w) > 0.0)
    assert np.all(path.w > 0.0)


def _branch_about_saddle(f, side):
    """b(d) of the path ODE w dw/dd = c' w - b(d) in the distance d to the
    saddle, with c' = c on the left and -c on the right, by numpy's own
    polynomial composition: f0(d) on the left and -f1(1 - d) on the right,
    whose constant term, 0 by H1 up to rounding, is dropped."""
    if side == "left":
        return np.polynomial.Polynomial(f.f0.coefficients)
    b = -np.polynomial.Polynomial(f.f1.coefficients)(np.polynomial.Polynomial([1.0, -1.0]))
    b.coef[0] = 0.0
    return b


@pytest.mark.parametrize("side", ["left", "right"])
def test_manifold_series_solves_the_path_ode(side, demo, quartic_terms):
    """The series w(d) = sum_k a_k d^k a path is seeded on solves
    w w' = c' w - b(d) through the order it carries: the residual's
    coefficients of d^1 ... d^K vanish to rounding.  The reciprocal series
    the march integrates inverts r = w / (a_1 d) through the order it
    carries: the coefficients of d^1 ... d^(K-1) of r (1 + sum_k e_k d^k)
    vanish to rounding of their products' sums.  f1_about_one is the right
    branch about u = 1 as numpy composes it."""
    for f in [demo, bw.piecewise_linear(-1.0, 0.3), *quartic_terms[:3]]:
        b = _branch_about_saddle(f, side)
        if side == "right":
            np.testing.assert_allclose(f.f1_about_one[1:], -b.coef[1:], rtol=1e-14, atol=1e-15)
        for c in (0.0, 0.55, 2.0):
            series, _e, _u0, _w0 = bw.shooting._manifold_seed(f, side, c, 1e-10)
            w = np.polynomial.Polynomial([0.0, *series])
            residual = (w * w.deriv() - (c if side == "left" else -c) * w + b).coef
            residual = np.concatenate([residual, np.zeros(len(series) + 1)])  # numpy trims zeros
            scale = max(abs(x) for x in (*series, *b.coef)) ** 2
            assert np.max(np.abs(residual[1 : len(series) + 1])) <= 1e-14 * scale
            r = np.array(series) / series[0]
            e = np.concatenate([[1.0], bw.shooting._reciprocal_series(series)])
            product = np.convolve(r, e)[1 : len(e)]
            assert np.all(np.abs(product) <= 1e-14 * np.convolve(np.abs(r), np.abs(e))[1 : len(e)])


def test_path_nodes_lie_on_the_manifold(demo, quartic_terms):
    """The nodes path_nodes gives each path at c*, the series nodes from
    max(1e-6 min(a, 1 - a), 1e-8) to the seed and the RK45 nodes, lie on
    the invariant manifold as scipy's DOP853 integrates it at rtol 1e-13
    in the distance d from the linear seed w = a_1 d at d = 1e-12: the
    series nodes to 1e-12 relative (1.6e-15 measured on the demo and the
    20 quartics), and the RK45 nodes to 1e-10 (5.1e-11)."""
    for f in [demo, *quartic_terms[:3]]:
        d_min = max(1e-6 * min(f.a, 1.0 - f.a), 1e-8)
        c = bw.find_speed(f, bw.speed_bracket(bw.slope_bounds(f), f.a))
        for side in ("left", "right"):
            path = bw.shoot_half(f, side, c)
            b = _branch_about_saddle(f, side)
            c_d, dist = (c, f.a) if side == "left" else (-c, 1.0 - f.a)
            a1 = path.interpolants.series[0]
            sol = solve_ivp(
                lambda d, w: c_d - b(d) / w[0], (1e-12, dist), [a1 * 1e-12],
                method="DOP853", rtol=1e-13, atol=1e-30, dense_output=True,
            )
            assert sol.status == 0
            u, w = bw.shooting.path_nodes(path)
            d = u if side == "left" else 1.0 - u
            relative = np.abs(w - sol.sol(d)[0]) / w
            n_rk45 = len(path.u)
            rk45 = slice(-n_rk45, None) if side == "left" else slice(0, n_rk45)
            assert np.array_equal(u[rk45], path.u) and np.array_equal(w[rk45], path.w)
            ahead = np.ones(d.size, dtype=bool)
            ahead[rk45] = False
            assert d.min() <= d_min + 1e-16 and ahead.sum() >= 3
            assert np.max(relative[ahead]) <= 1e-12
            assert np.max(relative[rk45]) <= 1e-10


def _w_at_a_from_the_linear_seed(f, side, c):
    """w(a) on the side's path at speed c by solve_ivp (LSODA, which the
    stiff right paths need, rtol 1e-13) from the linear seed
    w = rate * d at the distance d = 1e-6 min(a, 1 - a) from the
    equilibrium, the rate written out from the eigenvalue formula."""
    polyval, polyder = np.polynomial.polynomial.polyval, np.polynomial.polynomial.polyder
    d = 1e-6 * min(f.a, 1.0 - f.a)
    p = f.f0.coefficients if side == "left" else f.f1.coefficients
    slope = float(polyval(0.0 if side == "left" else 1.0, polyder(p)))
    if side == "left":
        u0, w0 = d, 0.5 * (c + math.sqrt(c * c - 4.0 * slope)) * d
    else:
        u0, w0 = 1.0 - d, -0.5 * (c - math.sqrt(c * c - 4.0 * slope)) * d
    sol = solve_ivp(lambda u, w: c - polyval(u, p) / w, (u0, f.a), [w0], method="LSODA", rtol=1e-13, atol=1e-30)
    assert sol.status == 0, sol.message
    return float(sol.y[0, -1])


@settings(derandomize=True, max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), t=st.floats(0.0, 1.0))
def test_series_carried_w_at_a_matches_solve_ivp(seed, t):
    """Wherever the manifold series carries a path to u = a, its w(a) is
    an independent solve_ivp path's to 1e-9 relative (1.4e-12 measured
    over 40 draws, LSODA's own error), on admissible quartics at speeds
    across their envelope bracket.  The left series reaches a on every
    draw measured, the right one on about a third."""
    f = random_admissible_quartic(np.random.default_rng(seed))
    br = bw.speed_bracket(bw.slope_bounds(f), f.a)
    c = br.c_check + t * (br.c_hat - br.c_check)
    carried = 0
    for side in ("left", "right"):
        _series, _e, u0, w0 = bw.shooting._manifold_seed(f, side, c, 1e-10)
        if u0 == f.a:
            carried += 1
            want = _w_at_a_from_the_linear_seed(f, side, c)
            assert abs(w0 - want) <= 1e-9 * want
    assume(carried > 0)


def test_shoot_half_eps_guard(demo):
    with pytest.raises(ValueError):
        bw.shoot_half(demo, "left", -0.5)
    with pytest.raises(ValueError, match="not finite"):
        bw.shoot_half(demo, "right", float("inf"))


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


def _seed_short_of_a(monkeypatch):
    """Move every seed that _manifold_seed puts at u = a back to half the
    distance from the equilibrium, on the series, for shoot_half and
    reference_shoot_half alike, so that both take RK45 steps from there."""
    real = bw.shooting._manifold_seed

    def seed(f, side, c, rtol):
        series, e, u0, w0 = real(f, side, c, rtol)
        if u0 != f.a:
            return series, e, u0, w0
        u0 = 0.5 * f.a if side == "left" else 1.0 - 0.5 * (1.0 - f.a)
        return series, e, u0, bw.shooting._series_value(series, u0 if side == "left" else 1.0 - u0)

    monkeypatch.setattr(bw.shooting, "_manifold_seed", seed)


@pytest.mark.parametrize("name", ["demo", "linear_a0.3", "quartic", "zero_top"])
def test_phase_paths_match_polyval_reference_bitwise(name, quartic_terms, monkeypatch):
    """From the same seed on the manifold series, the float-Horner
    right-hand side takes the same RK45 steps as an npp.polyval one in
    solve_ivp: the RK45 nodes, w(a), S(c) and the evaluation count nfev are
    solve_ivp's.  Once from the series' own seeds, some at u = a, and once
    with every seed moved short of a, where every path takes steps."""
    f = _phase_oracle_terms(quartic_terms[0])[name]
    for short in (False, True):
        with monkeypatch.context() as patch:
            if short:
                _seed_short_of_a(patch)
            for c in (0.0, 0.55, 1.2):
                for side in ("left", "right"):
                    path = bw.shoot_half(f, side, c)
                    details = {}
                    u_ref, w_ref, _ = reference_shoot_half(f, side, c, details=details)
                    u, w = path.u, path.w
                    np.testing.assert_array_equal(u, u_ref)
                    np.testing.assert_array_equal(w, w_ref)
                    assert path.w_at_a == (w_ref[-1] if side == "left" else w_ref[0])
                    assert path.nfev == details["nfev"]
                    assert path.nfev > 0 or not short
                assert bw.speed_mismatch(f, c) == reference_speed_mismatch(f, c)


def test_quartic_paths_at_c_star_match_solve_ivp_bitwise(quartic_terms):
    """Both half paths of the 20 seeded quartics at their c* are solve_ivp's
    from the same series seed: RK45 nodes, w and nfev.  The set pins every branch of _rk45's step control:
    some path rejects a trial step (nfev above 2 + 6 per accepted step),
    and some path clamps its last step at u = a.  Without a rejection each
    step is at least 0.9 times the one before (RK45's least growth factor
    after an accepted step), so a last step below 0.8 times its
    predecessor, on a path with none, was cut short by the clamp.  The
    series carries 27 of the 40 paths to a; at least 10 take steps (13)."""
    rejected = clamped = stepped = 0
    for f in quartic_terms:
        c = bw.find_speed(f, bw.speed_bracket(bw.slope_bounds(f), f.a))
        for side in ("left", "right"):
            path = bw.shoot_half(f, side, c)
            details = {}
            u_ref, w_ref, _ = reference_shoot_half(f, side, c, details=details)
            u, w = path.u, path.w
            assert u.tobytes() == u_ref.tobytes()
            assert w.tobytes() == w_ref.tobytes()
            assert path.nfev == details["nfev"]
            steps = np.diff(u) if side == "left" else -np.diff(u)[::-1]
            trials = 2 + 6 * len(steps)
            stepped += len(steps) > 0
            rejected += path.nfev > trials
            clamped += path.nfev == trials and len(steps) > 1 and steps[-1] < 0.8 * steps[-2]
    assert rejected > 0 and clamped > 0 and stepped >= 10


def test_collapsing_path_matches_polyval_reference():
    """Both ways a starved right path collapses give solve_ivp's collapse
    point bitwise from the same series seed: the step-size underflow
    (solve_ivp status -1, every c in [0, 0.3] at the default rtol) and the
    w = 1e-12 event, whose root brentq finds on the step's interpolant
    (status 1, at c = 1.2 with rtol = 1e-3 and the default rtol)."""
    cases = [(0.0, 1e-10, -1), (0.15, 1e-10, -1), (0.3, 1e-10, -1), (1.2, 1e-3, 1), (1.2, 1e-10, 1)]
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


def test_rtol_below_the_floor_warns_and_clips_as_solve_ivp(demo, monkeypatch):
    """An rtol under 100 machine epsilons is clipped to that with
    solve_ivp's UserWarning, and the path is solve_ivp's at the clipped
    rtol.  The demo's left series reaches a even at the floor, so both
    seeds are moved short of a, where RK45 steps."""
    _seed_short_of_a(monkeypatch)
    for side in ("left", "right"):
        with pytest.warns(UserWarning) as got:
            path = bw.shoot_half(demo, side, 0.55, rtol=1e-16)
        with pytest.warns(UserWarning) as want:
            details = {}
            u_ref, w_ref, _ = reference_shoot_half(demo, side, 0.55, rtol=1e-16, details=details)
        assert [str(w.message) for w in got] == [str(w.message) for w in want]
        assert "rtol" in str(got[0].message)
        u, w = path.u, path.w
        assert u.tobytes() == u_ref.tobytes()
        assert w.tobytes() == w_ref.tobytes()
        assert path.nfev == details["nfev"] > 0


@pytest.mark.parametrize("name", ["demo", "linear_a0.3", "quartic"])
def test_profile_matches_reference_backed_paths_bytewise(name, quartic_terms, monkeypatch):
    """reconstruct_profile over shoot_half's paths writes the same bytes as
    over PhasePaths backed by solve_ivp's OdeSolution, from the series'
    seeds and from seeds moved short of a, where both paths take steps."""
    f = _phase_oracle_terms(quartic_terms[0])[name]
    c = bw.find_speed(f, bw.speed_bracket(bw.slope_bounds(f), f.a))
    for short in (False, True):
        with monkeypatch.context() as patch:
            if short:
                _seed_short_of_a(patch)
            got = bw.reconstruct_profile(f, c)
            patch.setattr(bw.shooting, "shoot_half", reference_phase_path)
            want = bw.reconstruct_profile(f, c)
        for attr in ("z_grid", "u_values", "w_values"):
            assert getattr(got, attr).tobytes() == getattr(want, attr).tobytes()
        assert got.derivative_jump_at_0.hex() == want.derivative_jump_at_0.hex()
        assert min(path.nfev for path in got.paths) > 0 or not short


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
        u_ref, _ = reference_march(lambda u, path=path: path_w(path, u), f.a, target, 1e-2, forward, 0.0)
        assert len(u) == len(w) == len(u_ref)
        assert np.max(np.abs(u - u_ref)) <= bound


def _quadratic_manifold_term(a):
    """A term whose two manifolds at c = 0.5 are exactly w = d + 3 d^2 in
    the distance d to their equilibrium: f0 = -0.5 u - 7.5 u^2 - 18 u^3 and
    f1(1 - d) = 1.5 d + 10.5 d^2 + 18 d^3.  The manifold series stops at
    a_2 = 3, but 1/w's reciprocal series, 1/d times sum_k (-3 d)^k, has
    radius 1/3."""
    g = np.polynomial.Polynomial([0.0, 1.5, 10.5, 18.0])
    f1 = g(np.polynomial.Polynomial([1.0, -1.0])).coef
    return bw.ReactionTerm(
        a=a,
        f0=bw.BranchPoly((0.0, -0.5, -7.5, -18.0), 0.0, a),
        f1=bw.BranchPoly(tuple(f1), a, 1.0),
    )


@pytest.mark.parametrize("a", [0.3, 0.7])
def test_march_past_the_seed_on_an_exact_quadratic_manifold(a):
    """On _quadratic_manifold_term at c = 0.5 the march samples the closed
    form d(|z|) = K e^-|z| / (1 - 3 K e^-|z|), K = D / (1 + 3 D), D the
    distance from the equilibrium to a, on both paths: the same number of
    samples, u to 1e-10 (2e-11 measured) and, past the seed, w = d + 3 d^2
    to 1e-12 relative (5.5e-13).  The reciprocal series' tail bounds the
    seed, not the series' own, which vanishes: from a seed at D / 2 the
    closed form past the seed was 6e-7 off for D = 0.3 and 0.04 for
    D = 0.7, where the reciprocal series diverges.  Its terms are (3 d)^k,
    so the bound (3 d0)^31 <= 1e-3 rtol = 1e-13 puts the seed at
    d0 = 0.381 / 3 = 0.127, short of a for both D, RK45 between them."""
    f = _quadratic_manifold_term(a)
    for side, target, forward, dist in (("right", 1.0 - 1e-4, True, 1.0 - a), ("left", 1e-4, False, a)):
        path = bw.shoot_half(f, side, 0.5)
        assert path.interpolants.series[:2] == pytest.approx((1.0, 3.0), rel=1e-14)
        seed = path.u[0] if side == "left" else 1.0 - path.u[-1]
        assert seed <= 0.39 / 3.0 < dist
        assert path.nfev > 0
        u, w = bw.shooting._march(path, target, 1e-2, forward)
        k = 1.0 / (3.0 + 1.0 / dist)
        decay = k * np.exp(-1e-2 * np.arange(1, len(u) + 1))
        d_exact = decay / (1.0 - 3.0 * decay)
        assert d_exact[-1] <= 1e-4 < d_exact[-2]
        d = 1.0 - u if forward else u
        assert np.max(np.abs(d - d_exact)) <= 1e-10
        past = d < seed
        assert past.sum() > len(d) / 2
        assert np.max(np.abs(w[past] / (d[past] + 3.0 * d[past] ** 2) - 1.0)) <= 1e-12


def _hand_path(side, nodes, w_of_u):
    """A PhasePath over the given ascending u nodes whose steps interpolate
    w_of_u linearly, integrated from the seed end to u = a, with the
    one-term series, the seed line, through the seed node."""
    left = side == "left"
    ts = nodes if left else nodes[::-1]
    segments = []
    for t0, t1 in zip(ts[:-1], ts[1:]):
        w0, w1 = w_of_u(t0), w_of_u(t1)
        segments.append((t0, t1 - t0, w0, np.array([[(w1 - w0) / (t1 - t0), 0.0, 0.0, 0.0]])))
    seed = ts[0] if left else 1.0 - ts[0]
    series = (w_of_u(ts[0]) / seed,)
    return bw.PhasePath(
        side=side,
        c=0.0,
        u=np.array(nodes),
        w=np.array([w_of_u(u) for u in nodes]),
        interpolants=bw.shooting._Interpolants(segments, series, bw.shooting._reciprocal_series(series)),
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


def test_stiff_right_path_is_its_series_line_to_a():
    """piecewise_linear(-1, 5e-4) has c* = 44.69, where the right path is
    stiff (a perturbation of w decays at a rate ~ 2,000 / (1 - u)).  Its
    manifold series is the exact line, so the series carries the path to
    u = a with no right-hand-side evaluation (2,834 from a seed at half the
    distance, 73,262 from the linear seed at 1 - 5e-7); c* is the closed
    form's to 1e-7."""
    lin = bw.piecewise_linear(-1.0, 5e-4)
    c = bw.find_speed(lin, bw.speed_bracket(bw.slope_bounds(lin), lin.a))
    assert abs(c - closed_form_speed(5e-4)) <= 1e-7
    right = bw.shoot_half(lin, "right", c)
    assert right.interpolants.series[1:] == (0.0,) * (len(right.interpolants.series) - 1)
    assert right.u.tolist() == [lin.a]
    assert right.nfev == 0


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
    assert det["series_paths"] == (shot[0] == 0)


def test_find_speed_counts_the_series_carried_paths(demo, quartic_terms, monkeypatch):
    """details["series_paths"] is the number of half paths find_speed shot
    that took no right-hand-side evaluation; on the demo and the 20
    quartics the series carries most of them to u = a, and not all."""
    real = bw.shooting.shoot_half
    shot = []

    def recording(*args, **kwargs):
        path = real(*args, **kwargs)
        shot.append(path)
        return path

    monkeypatch.setattr(bw.shooting, "shoot_half", recording)
    carried = total = 0
    for f in [demo, *quartic_terms]:
        shot.clear()
        det = {}
        bw.find_speed(f, bw.speed_bracket(bw.slope_bounds(f), f.a), details=det)
        assert det["series_paths"] == sum(path.nfev == 0 for path in shot)
        assert det["series_paths"] == sum(len(path.u) == 1 for path in shot)
        carried += det["series_paths"]
        total += len(shot)
    assert total / 2 < carried < total


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


def test_find_speed_ode_work_budget(demo, quartic_terms):
    """The right-hand-side evaluations find_speed spends on the demo and the
    20 quartics, a count that no timing noise moves: 10,744 with the series
    carrying a path to u = a where its tail bounds allow, against 48,382
    with the seed capped at half the distance and 152,350 from the linear
    seed at 1e-6 min(a, 1 - a).  The budget is 11,800, 9.8% above the
    count."""
    total = 0
    for f in [demo, *quartic_terms]:
        details = {}
        bw.find_speed(f, bw.speed_bracket(bw.slope_bounds(f), f.a), details=details)
        total += details["ode_nfev"]
    assert total <= 11_800


def _stub_mismatch(monkeypatch, s_of_c):
    """Replace S by s_of_c and return the list of speeds it is called at."""
    calls = []

    def stub(f, c, rtol=1e-10, details=None):
        calls.append(c)
        if details is not None:
            details["ode_nfev"] = details["series_paths"] = 0
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
    exponential's to 1e-12: also with u_eps = 1e-9, where the march follows
    the seed lines all the way.  At a = 5e-4 with u_eps = 1e-3 > a the
    backward side keeps its one sample; there the right path, at c* = 44.7
    where dw/du is the difference of two numbers near 44.7, strayed from
    its line w = lambda (1 - u) by up to 4.5e-7 relative when RK45
    integrated it, and the samples by 3.3e-12.  The series now carries
    every linear path to u = a, and all five cases measure 2.2e-16."""
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
        refs = [weakref.ref(x) for x in (ws, *ws.paths)]
        del ws
        assert [ref() for ref in refs] == [None] * len(refs)
    finally:
        gc.enable()


def test_profile_reads_no_scalar_path_query(demo, monkeypatch):
    """reconstruct_profile samples the paths through their interpolants
    alone, vectorized: past the two paths it shoots, no scalar
    _interpolate call and no scalar series evaluation."""
    c = bw.find_speed(demo, None)
    paths = {side: bw.shoot_half(demo, side, c) for side in ("left", "right")}
    calls = []
    real_series_value = bw.shooting._series_value

    def scalar_interpolate(*args):
        calls.append(("_interpolate", args))

    def series_value(series, d):
        if np.ndim(d) == 0:
            calls.append(("_series_value", d))
        return real_series_value(series, d)

    monkeypatch.setattr(bw.shooting, "shoot_half", lambda f, side, c, **kwargs: paths[side])
    monkeypatch.setattr(bw.shooting, "_interpolate", scalar_interpolate)
    monkeypatch.setattr(bw.shooting, "_series_value", series_value)
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
    assert bw.verify_c1(demo_wave)
    off = bw.reconstruct_profile(demo, demo_wave.c_star + 0.1, bracket=demo_bracket)
    assert off.derivative_jump_at_0 > 1e-6
    assert not bw.verify_c1(off)
    # the jump at c > c* has the sign of S(c) > 0
    assert bw.speed_mismatch(demo, demo_wave.c_star + 0.1) > 0.0


def test_verify_c1_linear_matched():
    lin = bw.piecewise_linear(-1.0, 0.3)
    ws = bw.reconstruct_profile(lin, closed_form_speed(0.3))
    assert bw.verify_c1(ws)


def test_refinement_stability(demo, demo_bracket):
    c_coarse = bw.find_speed(demo, demo_bracket, tol_c=1e-10)
    c_fine = bw.find_speed(demo, demo_bracket, tol_c=5e-11, rtol=5e-11)
    assert abs(c_coarse - c_fine) < 1e-7


def test_c_star_matches_the_collocation_bvp(demo, quartic_terms):
    """c* agrees to 1e-8 with an independent judge, the speed parameter of
    a two-piece collocation BVP started from the envelope bracket's
    midpoint (conftest.reference_bvp_speed), on the demo and five quartics
    (the largest gap on the demo and the 20 quartics is 1.2e-10); and the
    BVP's U at its nodes is the wave's WaveProfile to 1e-8 within the
    sampled z range."""
    for f in [demo, *quartic_terms[:5]]:
        br = bw.speed_bracket(bw.slope_bounds(f), f.a)
        c = bw.find_speed(f, br)
        c_bvp, sol = reference_bvp_speed(f, 0.5 * (br.c_check + br.c_hat), 30.0)
        assert sol.status == 0
        assert abs(c - c_bvp) <= 1e-8
        profile = bw.WaveProfile(bw.reconstruct_profile(f, c))
        for z, u in ((30.0 * (sol.x - 1.0), sol.y[0]), (30.0 * sol.x, sol.y[2])):
            inside = (z >= profile.z_lo) & (z <= profile.z_hi)
            assert np.max(np.abs(profile(z[inside]) - u[inside])) <= 1e-8


def test_bracket_containment_quartics(quartic_terms):
    for f in quartic_terms[:6]:
        br = bw.speed_bracket(bw.slope_bounds(f), f.a)
        c = bw.find_speed(f, br)
        assert br.c_check - 1e-6 <= c <= br.c_hat + 1e-6


def test_solve_wave_pipeline(demo):
    det = {}
    ws = bw.solve_wave(demo, details=det)
    assert bw.verify_c1(ws)
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
