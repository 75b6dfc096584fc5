"""Reaction-term evaluation, slope bounds, hypothesis audit, envelopes."""

from __future__ import annotations

import math

import numpy as np
import pytest

import bistable_waves as bw
from bistable_waves.errors import NonNegativeSlope
from conftest import adaptive_simpson

DEMO_H3 = 0.459 - 1.0 / 3.0  # closed-form antiderivative value for the demo


def test_branch_poly_validation():
    with pytest.raises(ValueError):
        bw.BranchPoly((), 0.0, 1.0)
    with pytest.raises(ValueError):
        bw.BranchPoly((1.0,), 1.0, 1.0)
    with pytest.raises(ValueError):
        bw.BranchPoly((1.0, math.inf), 0.0, 1.0)


def test_reaction_term_domain_validation():
    f0 = bw.BranchPoly((0.0, -1.0), 0.0, 0.3)
    f1 = bw.BranchPoly((1.0, -1.0), 0.3, 1.0)
    with pytest.raises(ValueError):
        bw.ReactionTerm(a=0.4, f0=f0, f1=f1)
    with pytest.raises(ValueError):
        bw.ReactionTerm(a=1.2, f0=f0, f1=f1)
    with pytest.raises(ValueError):
        bw.ReactionTerm(a=0.3, f0=f0, f1=f1, branch_rule="sideways")


def test_eval_branches_and_rules(demo):
    assert demo.eval(0.3) == pytest.approx(0.35, abs=1e-15)  # f1(0.3), right_closed
    left = bw.ReactionTerm(demo.a, demo.f0, demo.f1, branch_rule="left_closed")
    assert left.eval(0.3) == pytest.approx(-0.39, abs=1e-15)
    avg = bw.ReactionTerm(demo.a, demo.f0, demo.f1, branch_rule="average")
    assert avg.eval(0.3) == pytest.approx(0.5 * (0.35 - 0.39), abs=1e-15)
    # values away from the branch point, against direct polynomial arithmetic
    u = 0.17
    assert demo.eval(u) == pytest.approx(-u - u * u, abs=1e-15)
    u = 0.82
    assert demo.eval(u) == pytest.approx((1 - u) * (u + 0.2), abs=1e-15)


def test_eval_endpoints_vanish(demo):
    assert demo.eval(0.0) == pytest.approx(0.0, abs=1e-12)
    assert demo.eval(1.0) == pytest.approx(0.0, abs=1e-12)


def test_eval_domain_error(demo):
    with pytest.raises(ValueError):
        demo.eval(-0.01)
    with pytest.raises(ValueError):
        demo.eval(1.0001)


def test_eval_extended(demo):
    assert demo.eval_extended(1.1) == pytest.approx(-0.12, abs=1e-12)
    assert demo.eval_extended(-0.05) == pytest.approx(0.05, abs=1e-12)
    assert demo.eval_extended(0.0) == 0.0
    assert demo.eval_extended(0.5) == demo.eval(0.5)
    # sign structure: restoring outside [0, 1]
    assert demo.eval_extended(-0.2) > 0.0
    assert demo.eval_extended(1.2) < 0.0


def test_eval_extended_array_matches_scalar(demo):
    u = np.array([-0.2, 0.0, 0.1, 0.3, 0.7, 1.0, 1.3])
    vec = demo.eval_extended_array(u)
    scal = np.array([demo.eval_extended(v) for v in u])
    np.testing.assert_allclose(vec, scal, rtol=0, atol=1e-15)
    # branch by branch: tangent line, f0, f0, f1 at a (right_closed), f1, f1, tangent line
    branches = [-1.0 * -0.2, demo.f0(0.0), demo.f0(0.1), demo.f1(0.3), demo.f1(0.7),
                demo.f1(1.0), -1.2 * (1.3 - 1.0)]
    np.testing.assert_allclose(vec, branches, rtol=0, atol=1e-15)


def test_cached_endpoint_slopes_keep_equality_and_hash():
    term, twin = bw.quadratic_demo(), bw.quadratic_demo()
    h = hash(term)
    assert (term.slope_at_zero, term.slope_at_one) == (-1.0, pytest.approx(-1.2, abs=1e-15))
    assert term == twin
    assert hash(term) == h == hash(twin)


def test_slope_bounds_demo(demo):
    b = bw.slope_bounds(demo)
    assert b.alpha_lo == pytest.approx(-1.3, abs=1e-9)
    assert b.alpha_hi == pytest.approx(-1.0, abs=1e-9)
    assert b.beta_lo == pytest.approx(-1.2, abs=1e-9)
    assert b.beta_hi == pytest.approx(-0.5, abs=1e-9)


def test_slope_bounds_piecewise_linear():
    b = bw.slope_bounds(bw.piecewise_linear(-1.0, 0.3))
    for v in (b.alpha_lo, b.alpha_hi, b.beta_lo, b.beta_hi):
        assert v == pytest.approx(-1.0, abs=1e-12)


def test_slope_bounds_rejects_positive_slope():
    bad = bw.ReactionTerm(
        a=0.3,
        f0=bw.BranchPoly((0.0, 1.0), 0.0, 0.3),  # f0 = +u
        f1=bw.BranchPoly((1.0, -1.0), 0.3, 1.0),
    )
    with pytest.raises(NonNegativeSlope):
        bw.slope_bounds(bad)


def test_slope_bounds_refines_end_cell_extremum():
    # ratio r(u) = -0.5 - s*(u - u0)^2 with a sharp maximum just inside the
    # end of the branch, within 1/2048 of a; the bound must still be the exact -0.5
    a = 0.3
    u0 = a - (a / 2047) / 2.0
    s = 1e4
    g0 = np.array([-0.5 - s * u0 * u0, 2 * s * u0, -s])
    f = bw.ReactionTerm(
        a,
        bw.BranchPoly((0.0, *g0), 0.0, a),
        bw.BranchPoly((1.2, -1.2), a, 1.0),
    )
    assert bw.slope_bounds(f).alpha_hi == pytest.approx(-0.5, abs=1e-9)


@pytest.mark.parametrize("which", ["demo", "quartic0", "quartic1"])
def test_ratio_bound_property(which, demo, quartic_terms):
    """Every sampled secant slope lies inside the computed bounds."""
    f = {"demo": demo, "quartic0": quartic_terms[0], "quartic1": quartic_terms[1]}[which]
    b = bw.slope_bounds(f)
    u = np.linspace(0.0, f.a, 10_001)[1:]
    r0 = np.asarray(f.f0(u)) / u
    assert np.all(r0 >= b.alpha_lo - 1e-8)
    assert np.all(r0 <= b.alpha_hi + 1e-8)
    u = np.linspace(f.a, 1.0, 10_001)[:-1]
    r1 = np.asarray(f.f1(u)) / (u - 1.0)
    assert np.all(r1 >= b.beta_lo - 1e-8)
    assert np.all(r1 <= b.beta_hi + 1e-8)


def test_check_hypotheses_demo(demo):
    rep = bw.check_hypotheses(demo)
    assert rep.h1_ok and rep.h2_ok and rep.h3_ok
    assert rep.h3_integral == pytest.approx(DEMO_H3, abs=1e-12)
    assert rep.remark2_ok
    assert rep.violations == ()
    # the ordering chain evaluates to the documented values
    b = rep.slope_bounds
    chain = (
        math.sqrt(-b.alpha_hi) * demo.a,
        math.sqrt(-b.alpha_lo) * demo.a,
        math.sqrt(-b.beta_hi) * (1 - demo.a),
        math.sqrt(-b.beta_lo) * (1 - demo.a),
    )
    assert chain[0] == pytest.approx(0.3, abs=1e-9)
    assert chain[1] == pytest.approx(0.342053, abs=1e-6)
    assert chain[2] == pytest.approx(0.494975, abs=1e-6)
    assert chain[3] == pytest.approx(0.766812, abs=1e-6)
    assert chain[0] <= chain[1] <= chain[2] <= chain[3]


def test_check_hypotheses_symmetric_linear():
    rep = bw.check_hypotheses(bw.piecewise_linear(-1.0, 0.5))
    assert rep.h1_ok and rep.h2_ok
    assert not rep.h3_ok
    assert rep.h3_integral == pytest.approx(0.0, abs=1e-12)


def test_check_hypotheses_h2_violation_listed():
    # f0 = u(4u - 1) is positive on (0.25, 0.3]: every violating grid point
    # must be reported
    bad = bw.ReactionTerm(
        a=0.3,
        f0=bw.BranchPoly((0.0, -1.0, 4.0), 0.0, 0.3),
        f1=bw.BranchPoly((1.0, -1.0), 0.3, 1.0),
    )
    rep = bw.check_hypotheses(bad)
    assert not rep.h2_ok
    h2_points = [u for h, u, v in rep.violations if h == "H2"]
    assert h2_points
    assert all(0.25 <= u <= 0.3 for u in h2_points)
    assert any(u > 0.28 for u in h2_points)


def test_check_hypotheses_h1_violation():
    bad = bw.ReactionTerm(
        a=0.3,
        f0=bw.BranchPoly((0.1, -1.0), 0.0, 0.3),  # f0(0) = 0.1 != 0
        f1=bw.BranchPoly((1.0, -1.0), 0.3, 1.0),
    )
    rep = bw.check_hypotheses(bad)
    assert not rep.h1_ok
    assert any(h == "H1" and u == 0.0 for h, u, v in rep.violations)


def test_potential_integral(demo):
    assert bw.potential_integral(demo) == pytest.approx(DEMO_H3, abs=1e-15)
    assert bw.potential_integral(bw.piecewise_linear(-1.0, 0.5)) == pytest.approx(0.0, abs=1e-15)
    assert bw.potential_integral(bw.piecewise_linear(-1.0, 0.3)) == pytest.approx(0.2, abs=1e-12)


def test_potential_integral_matches_quadrature(demo):
    quad = adaptive_simpson(lambda u: float(demo.f0(u)), 0.0, demo.a) + adaptive_simpson(
        lambda u: float(demo.f1(u)), demo.a, 1.0
    )
    assert bw.potential_integral(demo) == pytest.approx(quad, abs=1e-12)


def test_envelope_demo_coefficients(demo):
    f_lo = bw.envelope(demo, "f_lo")
    assert f_lo.f0.coefficients == pytest.approx((0.0, -1.3), abs=1e-9)
    assert f_lo.f1.coefficients == pytest.approx((1.2, -1.2), abs=1e-9)
    g_hi = bw.envelope(demo, "g_hi")
    assert g_hi.f0.coefficients[1] == pytest.approx(-1.0, abs=1e-9)
    assert g_hi.f1.coefficients[1] == pytest.approx(-1.2, abs=1e-9)
    with pytest.raises(ValueError):
        bw.envelope(demo, "f_mid")


def test_envelope_of_linear_is_identity():
    lin = bw.piecewise_linear(-1.0, 0.3)
    u = np.linspace(0.0, 1.0, 101)
    for kind in ("f_lo", "f_hi", "g_lo", "g_hi"):
        env = bw.envelope(lin, kind)
        got = env.eval_extended_array(u)
        want = lin.eval_extended_array(u)
        np.testing.assert_allclose(got, want, atol=1e-12)


@pytest.mark.parametrize("idx", range(4))
def test_envelope_ordering_property(idx, demo, quartic_terms):
    """f_lo and f_hi bound f on each branch, with the right-half roles set
    by the sign of (u - 1): the sup ratio gives the pointwise lower bound."""
    f = [demo, *quartic_terms][idx]
    b = bw.slope_bounds(f)
    u = np.linspace(0.0, f.a, 2001)[1:]
    f0 = np.asarray(f.f0(u))
    assert np.all(b.alpha_lo * u <= f0 + 1e-8)
    assert np.all(f0 <= b.alpha_hi * u + 1e-8)
    u = np.linspace(f.a, 1.0, 2001)[:-1]
    f1 = np.asarray(f.f1(u))
    assert np.all(b.beta_hi * (u - 1.0) <= f1 + 1e-8)
    assert np.all(f1 <= b.beta_lo * (u - 1.0) + 1e-8)


def test_presets():
    demo = bw.quadratic_demo()
    assert demo.a == 0.3
    assert demo.branch_rule == "right_closed"
    lin = bw.piecewise_linear(-2.0, 0.25)
    assert lin.slope_at_zero == pytest.approx(-2.0)
    assert lin.slope_at_one == pytest.approx(-2.0)
    with pytest.raises(ValueError):
        bw.piecewise_linear(1.0, 0.3)
