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
from bistable_waves.errors import NoPositiveRoot, PathCollapse
from bistable_waves.roots import bracketed_root
from conftest import (
    adaptive_simpson,
    branch_about_saddle,
    closed_form_speed,
    path_w,
    random_admissible_quartic,
    reference_bvp_speed,
    reference_collapse,
    reference_march,
    reference_path,
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
        b = branch_about_saddle(f, side)
        if side == "right":
            np.testing.assert_allclose(f.f1_about_one[1:], -b.coef[1:], rtol=1e-14, atol=1e-15)
        for c in (0.0, 0.55, 2.0):
            series, e, _u0, _w0 = bw.shooting._manifold_seed(f, side, c, 1e-10)
            w = np.polynomial.Polynomial([0.0, *series])
            residual = (w * w.deriv() - (c if side == "left" else -c) * w + b).coef
            residual = np.concatenate([residual, np.zeros(len(series) + 1)])  # numpy trims zeros
            scale = max(abs(x) for x in (*series, *b.coef)) ** 2
            assert np.max(np.abs(residual[1 : len(series) + 1])) <= 1e-14 * scale
            r = np.array(series) / series[0]
            e = np.concatenate([[1.0], e])
            product = np.convolve(r, e)[1 : len(e)]
            assert np.all(np.abs(product) <= 1e-14 * np.convolve(np.abs(r), np.abs(e))[1 : len(e)])


def test_path_nodes_lie_on_the_manifold(demo, quartic_terms):
    """The nodes path_nodes gives each path at c*, the series nodes from
    max(1e-6 min(a, 1 - a), 1e-8) to the seed and the Taylor step ends, lie
    on the invariant manifold as scipy's DOP853 integrates it at rtol 1e-13
    in the distance d from the linear seed w = a_1 d at d = 1e-12
    (conftest.reference_path): the series nodes to 1e-12 relative (1.6e-15
    measured on the demo and the 20 quartics), and the step ends to 1e-11
    (4.4e-13; the RK45 nodes that preceded them, 2.4e-11)."""
    for f in [demo, *quartic_terms[:3]]:
        d_min = max(1e-6 * min(f.a, 1.0 - f.a), 1e-8)
        c = bw.find_speed(f, bw.speed_bracket(bw.slope_bounds(f), f.a))
        for side in ("left", "right"):
            path = bw.shoot_half(f, side, c)
            sol = reference_path(f, side, c)
            assert sol.status == 0
            u, w = bw.shooting.path_nodes(path)
            d = u if side == "left" else 1.0 - u
            relative = np.abs(w - sol.sol(d)[0]) / w
            n_steps = len(path.u)
            steps = slice(-n_steps, None) if side == "left" else slice(0, n_steps)
            assert np.array_equal(u[steps], path.u) and np.array_equal(w[steps], path.w)
            ahead = np.ones(d.size, dtype=bool)
            ahead[steps] = False
            assert d.min() <= d_min + 1e-16 and ahead.sum() >= 3
            assert np.max(relative[ahead]) <= 1e-12
            assert np.max(relative[steps]) <= 1e-11


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
    distance from the equilibrium, on the series, so that every path takes
    Taylor steps from there."""
    real = bw.shooting._manifold_seed

    def seed(f, side, c, rtol):
        series, e, u0, w0 = real(f, side, c, rtol)
        if u0 != f.a:
            return series, e, u0, w0
        u0 = 0.5 * f.a if side == "left" else 1.0 - 0.5 * (1.0 - f.a)
        return series, e, u0, bw.series.series_value(series, u0 if side == "left" else 1.0 - u0)

    monkeypatch.setattr(bw.shooting, "_manifold_seed", seed)


def _assert_nodes_on_reference(path, f, side, c, bound):
    """Every node of the path lies on conftest.reference_path to bound,
    relative in w."""
    sol = reference_path(f, side, c)
    assert sol.status == 0
    d = path.u if side == "left" else 1.0 - path.u
    assert np.max(np.abs(path.w - sol.sol(d)[0]) / path.w) <= bound


@pytest.mark.parametrize("name", ["demo", "linear_a0.3", "quartic", "zero_top"])
def test_phase_paths_match_a_tight_reference(name, quartic_terms, monkeypatch):
    """The nodes of both half paths, w(a) with them, lie on scipy's DOP853
    at rtol 1e-13 from the linear seed (conftest.reference_path) to 1e-11
    relative, and S(c) is the reference's to 1e-11: once from the series'
    own seeds, some at u = a, and once with every seed moved short of a,
    where every path takes Taylor steps.  RK45 at rtol 1e-10 agreed with
    the same reference to 2.4e-11."""
    f = _phase_oracle_terms(quartic_terms[0])[name]
    for short in (False, True):
        with monkeypatch.context() as patch:
            if short:
                _seed_short_of_a(patch)
            for c in (0.0, 0.55, 1.2):
                for side in ("left", "right"):
                    path = bw.shoot_half(f, side, c)
                    _assert_nodes_on_reference(path, f, side, c, 1e-11)
                    assert path.steps > 0 or not short
                assert abs(bw.speed_mismatch(f, c) - reference_speed_mismatch(f, c)) <= 1e-11


def test_quartic_paths_at_c_star_match_a_tight_reference(quartic_terms):
    """Both half paths of the 20 seeded quartics at their c* lie on
    conftest.reference_path to 1e-11 relative at every node.  The series
    carries 30 of the 40 paths to a; the other 10 take Taylor steps, up
    to 6."""
    stepped, most = 0, 0
    for f in quartic_terms:
        c = bw.find_speed(f, bw.speed_bracket(bw.slope_bounds(f), f.a))
        for side in ("left", "right"):
            path = bw.shoot_half(f, side, c)
            _assert_nodes_on_reference(path, f, side, c, 1e-11)
            assert len(path.u) == path.steps + 1
            stepped += path.steps > 0
            most = max(most, path.steps)
    assert stepped >= 10 and most > 1


def test_taylor_step_series_is_the_w_recurrence():
    """series.path_step's coefficients, computed through 1/W, are those of
    the recurrence W_{n+1} = (c W_n - g_n - sum_{j=1}^{n} (n + 1 - j) W_j
    W_{n+1-j}) / ((n + 1) W_0) of W W' = c W - g(t), scaled to t / rho, and
    its reciprocal inverts them; taylor_shift re-expands a polynomial about
    a point, in either direction, as numpy's composition does."""
    w0, c, g, rho, terms = 0.7, 0.4, [0.3, -0.2, 0.5], 0.3, 24
    w = [w0]
    for n in range(terms - 1):
        s = sum((n + 1 - j) * w[j] * w[n + 1 - j] for j in range(1, n + 1))
        w.append((c * w[n] - (g[n] if n < len(g) else 0.0) - s) / ((n + 1) * w0))
    v, e = bw.series.path_step(w0, c, g, rho, terms, 1.0, 0.0)
    want = [w_n * rho**n / w0 for n, w_n in enumerate(w)]
    np.testing.assert_allclose(v, want, rtol=1e-12, atol=1e-15)
    assert np.max(np.abs(np.convolve(v, e)[1:terms])) <= 1e-14
    p = (0.2, 0.8, -1.0, 0.3)
    for x0, s in ((0.6, 1.0), (0.6, -1.0)):
        shifted = np.polynomial.Polynomial(p)(np.polynomial.Polynomial([x0, s])).coef
        np.testing.assert_allclose(bw.series.taylor_shift(p, x0, s), shifted, rtol=1e-14, atol=1e-15)


def test_collapsing_path_matches_polyval_reference():
    """Both ways a starved right path collapses give the reference's
    collapse point.  Below c = 2 sqrt(0.2) its w falls to a zero where
    f1 < 0, like a square root, and the Taylor steps stall against u
    there, within 1e-13 of the level where conftest.reference_collapse
    (scipy's DOP853 at rtol 1e-13) falls to w = 1e-12 (2.7e-15 measured).
    Above it the path runs into the equilibrium (0.9, 0), a zero of f1,
    and a step ends below w = 1e-12 within 1e-11 of u = 0.9 (9.5e-12), at
    rtol 1e-3 as at the default rtol."""
    cases = [(0.0, 1e-10, 0.85), (0.15, 1e-10, None), (0.3, 1e-10, None), (1.2, 1e-3, 0.9), (1.2, 1e-10, 0.9)]
    for c, rtol, exact in cases:
        with pytest.raises(PathCollapse) as got:
            bw.shoot_half(_STARVED, "right", c, rtol=rtol)
        node = c > 2.0 * math.sqrt(0.2)
        want = 0.9 if node else reference_collapse(_STARVED, c)
        assert exact is None or abs(want - exact) <= 1e-14
        assert ("w<=1e-12" in str(got.value)) == node
        assert abs(got.value.u_at - want) <= (1e-11 if node else 1e-13)
        assert got.value.steps > 0
    assert bw.speed_mismatch(_STARVED, 0.0) == bw.shoot_half(_STARVED, "left", 0.0).w_at_a


def test_collapse_event_root_is_the_bracketed_root(monkeypatch):
    """The floor crossing comes from roots.bracketed_root on the step that
    ends below w = 1e-12, and over 11 speeds and 3 rtols the starved
    path's collapse points are the reference's: where the path runs into
    the equilibrium (0.9, 0), u = 0.9 to 1e-11, and elsewhere
    conftest.reference_collapse to 1e-8, 1e-11 and 1e-13 at rtol 1e-3,
    1e-6 and 1e-10 (4.9e-9, 4.2e-12 and 2.7e-15 measured)."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1:3])
        return bracketed_root(*args, **kwargs)

    monkeypatch.setattr(bw.shooting, "bracketed_root", counting)
    events = 0
    for rtol, bound in ((1e-3, 1e-8), (1e-6, 1e-11), (1e-10, 1e-13)):
        for c in np.linspace(0.0, 2.0, 11):
            with pytest.raises(PathCollapse) as got:
                bw.shoot_half(_STARVED, "right", c, rtol=rtol)
            event = c > 2.0 * math.sqrt(0.2)
            want, tol = (0.9, 1e-11) if event else (reference_collapse(_STARVED, c), bound)
            assert abs(got.value.u_at - want) <= tol
            assert ("w<=1e-12" in str(got.value)) == event
            events += event
    assert events == len(calls) > 0


def test_rtol_below_the_floor_warns_and_clips_as_solve_ivp(demo, monkeypatch):
    """An rtol under 100 machine epsilons is clipped to that with
    solve_ivp's UserWarning, and the path is the one at the clipped rtol,
    solve_ivp's floor.  The demo's left series reaches a even at the floor,
    so both seeds are moved short of a, where the path takes Taylor steps."""
    _seed_short_of_a(monkeypatch)
    floor = bw.shooting._RTOL_MIN
    with pytest.warns(UserWarning) as theirs:
        solve_ivp(lambda t, y: -y, (0.0, 1.0), [1.0], rtol=1e-16)
    assert floor == 100 * np.finfo(float).eps
    for side in ("left", "right"):
        with pytest.warns(UserWarning) as got:
            path = bw.shoot_half(demo, side, 0.55, rtol=1e-16)
        assert [str(w.message) for w in got] == [str(w.message) for w in theirs]
        assert "rtol" in str(got[0].message)
        want = bw.shoot_half(demo, side, 0.55, rtol=floor)
        assert path.u.tobytes() == want.u.tobytes()
        assert path.w.tobytes() == want.w.tobytes()
        assert path.steps > 0


@pytest.mark.parametrize("name", ["demo", "linear_a0.3", "quartic"])
def test_profile_matches_tight_reference_paths(name, quartic_terms, monkeypatch):
    """reconstruct_profile at the default rtol samples the wave of paths
    shot at rtol 1e-13 to 1.7e-11 in u and 3.2e-10 in w, the largest gaps
    the RK45 paths left on the benchmark's terms (1.9e-15 and 3.2e-14
    now): from the series' seeds and from seeds moved short of a, where
    both paths take Taylor steps."""
    f = _phase_oracle_terms(quartic_terms[0])[name]
    c = bw.find_speed(f, bw.speed_bracket(bw.slope_bounds(f), f.a))
    for short in (False, True):
        with monkeypatch.context() as patch:
            if short:
                _seed_short_of_a(patch)
            got = bw.reconstruct_profile(f, c)
            want = bw.reconstruct_profile(f, c, rtol=1e-13)
        assert got.z_grid.tobytes() == want.z_grid.tobytes()
        assert np.max(np.abs(got.u_values - want.u_values)) <= 1.7e-11
        assert np.max(np.abs(got.w_values - want.w_values)) <= 3.2e-10
        assert min(path.steps for path in got.paths) > 0 or not short


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
    1e-6 paths the bound is 1e-9: there DOP853's own error reached 2.5e-10
    (the demo's right path)."""
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
    so the bound (3 d0)^(K-1) <= 1e-3 rtol = 1e-13, K = _SERIES_TERMS,
    puts the seed at d0 = 1e-13^(1/(K-1)) / 3 (0.155 at K = 40), short of
    a for both D, Taylor steps between them."""
    f = _quadratic_manifold_term(a)
    for side, target, forward, dist in (("right", 1.0 - 1e-4, True, 1.0 - a), ("left", 1e-4, False, a)):
        path = bw.shoot_half(f, side, 0.5)
        assert path.interpolants.series[:2] == pytest.approx((1.0, 3.0), rel=1e-14)
        seed = path.u[0] if side == "left" else 1.0 - path.u[-1]
        assert seed <= 1.001 * 1e-13 ** (1.0 / (bw.shooting._SERIES_TERMS - 1)) / 3.0 < dist
        assert path.steps > 0
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


def _hand_path(side, nodes, w_of_u, terms=32):
    """A PhasePath over the given ascending u nodes whose Taylor steps, from
    the seed end to u = a, carry w_of_u linearly between the nodes:
    1/w = (1/w0) sum_k (-(w1 - w0) t / (w0 h))^k over a step of length h,
    with the one-term series, the seed line, through the seed node."""
    left = side == "left"
    ts = nodes if left else nodes[::-1]
    steps = []
    for t0, t1 in zip(ts[:-1], ts[1:]):
        w0, w1 = w_of_u(t0), w_of_u(t1)
        h = abs(t1 - t0)
        steps.append((t0, h, w0, h, [(-(w1 - w0) / w0) ** k for k in range(terms)]))
    seed = ts[0] if left else 1.0 - ts[0]
    return bw.PhasePath(
        side=side,
        c=0.0,
        u=np.array(nodes),
        w=np.array([w_of_u(u) for u in nodes]),
        interpolants=bw.shooting._Interpolants(steps, (w_of_u(ts[0]) / seed,), []),
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
    u = a with no Taylor step (RK45 took 2,834 right-hand-side evaluations
    from a seed at half the distance, 73,262 from the linear seed at
    1 - 5e-7); c* is the closed form's to 1e-7."""
    lin = bw.piecewise_linear(-1.0, 5e-4)
    c = bw.find_speed(lin, bw.speed_bracket(bw.slope_bounds(lin), lin.a))
    assert abs(c - closed_form_speed(5e-4)) <= 1e-7
    right = bw.shoot_half(lin, "right", c)
    assert right.interpolants.series[1:] == (0.0,) * (len(right.interpolants.series) - 1)
    assert right.u.tolist() == [lin.a]
    assert right.steps == 0


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
    """The path ODE's work, its right-hand side evaluated once per Taylor
    step as the branch's series about the step's base, is totalled over
    every half path find_speed shot: details["taylor_steps"] is the sum of
    their steps, and speed_mismatch counts a collapsed right path by the
    steps its PathCollapse carries."""
    real = bw.shooting.shoot_half
    shot = []

    def recording(*args, **kwargs):
        try:
            path = real(*args, **kwargs)
        except PathCollapse as exc:
            shot.append(exc.steps)
            raise
        shot.append(path.steps)
        return path

    monkeypatch.setattr(bw.shooting, "shoot_half", recording)
    det = {}
    bw.find_speed(demo, demo_bracket if use_bracket else None, details=det)
    assert len(shot) == 2 * det["evaluations"]
    assert det["taylor_steps"] == sum(shot) > 0

    shot.clear()
    det = {}
    bw.speed_mismatch(_STARVED, 0.0, details=det)
    assert shot[1] > 0 and det["taylor_steps"] == sum(shot)
    assert det["series_paths"] == (shot[0] == 0)


def test_find_speed_counts_the_series_carried_paths(demo, quartic_terms, monkeypatch):
    """details["series_paths"] is the number of half paths find_speed shot
    that took no Taylor step; on the demo and the 20 quartics the series
    carries most of them to u = a, and not all."""
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
        assert det["series_paths"] == sum(path.steps == 0 for path in shot)
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
    """The Taylor steps find_speed takes on the demo and the 20 quartics, a
    count that no timing noise moves: 107, where RK45 from the series
    seeds spent 10,744 right-hand-side evaluations.  The budget is 115,
    7.5% above the count."""
    total = 0
    for f in [demo, *quartic_terms]:
        details = {}
        bw.find_speed(f, bw.speed_bracket(bw.slope_bounds(f), f.a), details=details)
        total += details["taylor_steps"]
    assert total <= 115


def _stub_mismatch(monkeypatch, s_of_c):
    """Replace S by s_of_c and return the list of speeds it is called at."""
    calls = []

    def stub(f, c, rtol=1e-10, details=None):
        calls.append(c)
        if details is not None:
            details["taylor_steps"] = details["series_paths"] = 0
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
    integrated it, and the samples by 3.3e-12.  The series carries every
    linear path to u = a, and all five cases measure 2.2e-16."""
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
    """reconstruct_profile samples the paths through their series pieces
    alone, vectorized: past the two paths it shoots, no scalar series
    evaluation."""
    c = bw.find_speed(demo, None)
    paths = {side: bw.shoot_half(demo, side, c) for side in ("left", "right")}
    calls = []
    real_series_value = bw.series.series_value

    def series_value(series, d):
        if np.ndim(d) == 0:
            calls.append(("_series_value", d))
        return real_series_value(series, d)

    monkeypatch.setattr(bw.shooting, "shoot_half", lambda f, side, c, **kwargs: paths[side])
    monkeypatch.setattr(bw.shooting, "series_value", series_value)
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


def test_c_star_matches_the_collocation_bvp(demo, quartic_terms, held_out_quartics):
    """c* agrees to 1e-8 with an independent judge, the speed parameter of
    a two-piece collocation BVP started from the envelope bracket's
    midpoint (conftest.reference_bvp_speed), on the demo and five quartics
    of the tests' seed, and on five quartics of seed 7, on which nothing
    was tuned (the largest gap on the demo, the 20 quartics and three
    linear terms is 9.1e-11); and the BVP's U at its nodes is the wave's
    WaveProfile to 1e-8 within the sampled z range."""
    for f in [demo, *quartic_terms[:5], *held_out_quartics]:
        br = bw.speed_bracket(bw.slope_bounds(f), f.a)
        c = bw.find_speed(f, br)
        c_bvp, sol = reference_bvp_speed(f, 0.5 * (br.c_check + br.c_hat), 30.0)
        assert sol.status == 0
        assert abs(c - c_bvp) <= 1e-8
        profile = bw.WaveProfile(bw.reconstruct_profile(f, c))
        for z, u in ((30.0 * (sol.x - 1.0), sol.y[0]), (30.0 * sol.x, sol.y[2])):
            inside = (z >= profile.z_lo) & (z <= profile.z_hi)
            assert np.max(np.abs(profile(z[inside]) - u[inside])) <= 1e-8


def _near_balanced_demo(delta):
    """The demo with f1 scaled by k0 (1 + delta), where k0 makes the
    integral of f over [0, 1] vanish, and that integral."""
    demo = bw.quadratic_demo()
    k0 = -demo.f0.integral() / demo.f1.integral()
    k = k0 * (1.0 + delta)
    f1 = bw.BranchPoly(tuple(k * p for p in demo.f1.coefficients), demo.a, 1.0)
    return bw.ReactionTerm(demo.a, demo.f0, f1), demo.f0.integral() + k * demo.f1.integral()


@pytest.mark.parametrize("delta", [1e-2, 1e-4])
def test_speed_vanishes_with_the_integral_of_f(delta):
    """As the integral of f tends to 0 the wave slows to a standing one,
    c* ~ int f / int_0^1 sqrt(2 V0(u)) du, with V0 the potential of the
    balanced term (V0(u) = -int_0^u f, f1 scaled by k0 = 0.3005566): on the
    demo with f1 scaled by k0 (1 + delta), find_speed without a bracket
    gives c* / int f within delta, relative, of 1 / int sqrt(2 V0) =
    5.737432 (1.7e-3 and 1.5e-5 off), and the wave keeps the energy
    identity c* int_0^1 w du = int_0^1 f du to 1e-5 (3.6e-7 and 2.1e-6)."""
    f, f_integral = _near_balanced_demo(delta)
    balanced, _ = _near_balanced_demo(0.0)
    anti0 = np.polynomial.Polynomial(balanced.f0.coefficients).integ()
    anti1 = np.polynomial.Polynomial(balanced.f1.coefficients).integ()

    def potential(u):
        if u <= balanced.a:
            return -anti0(u)
        return -(anti0(balanced.a) + anti1(u) - anti1(balanced.a))

    standing = 1.0 / sum(
        adaptive_simpson(lambda u: math.sqrt(max(2.0 * potential(u), 0.0)), lo, hi, tol=1e-14)
        for lo, hi in ((0.0, balanced.a), (balanced.a, 1.0))
    )
    assert standing == pytest.approx(5.737432, abs=1e-6)
    c = bw.find_speed(f, None)
    assert abs(c / f_integral / standing - 1.0) <= delta
    ws = bw.reconstruct_profile(f, c)
    energy = c * np.trapezoid(ws.w_values, ws.u_values)
    assert abs(energy - f_integral) <= 1e-5 * abs(f_integral)


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
