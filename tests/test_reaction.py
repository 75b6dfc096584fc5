"""Reaction-term evaluation, slope bounds, hypothesis audit, envelopes."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import bistable_waves as bw
from bistable_waves import reaction
from bistable_waves.errors import NonNegativeSlope
from conftest import adaptive_simpson, written_out_reaction

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


def _with_rule(f, rule):
    return bw.ReactionTerm(f.a, f.f0, f.f1, branch_rule=rule)


def _assert_bitwise(got, want):
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want))  # tells -0.0 from 0.0


def _oracle_terms(quartic):
    """The demo, an equal-slope linear term, a quartic, a term with one
    degree-1 branch, and one whose branches end in a zero coefficient."""
    demo = bw.quadratic_demo()
    return {
        "demo": demo,
        "linear_a0.45": bw.piecewise_linear(-1.0, 0.45),
        "quartic": quartic,
        "degree1_branch": bw.ReactionTerm(demo.a, bw.BranchPoly((0.0, -1.5), 0.0, demo.a), demo.f1),
        "zero_top": bw.ReactionTerm(
            0.4, bw.BranchPoly((0.0, -1.0, 0.0), 0.0, 0.4), bw.BranchPoly((0.6, -0.6, 0.0), 0.4, 1.0)
        ),
    }


@pytest.mark.parametrize("rule", ["left_closed", "right_closed", "average"])
@pytest.mark.parametrize(
    "name", ["demo", "linear_a0.45", "quartic", "degree1_branch", "zero_top"]
)
def test_eval_extended_array_matches_written_out_oracle(name, rule, quartic_terms):
    """Bitwise equal to the branch-by-branch evaluator on special values,
    u == a, an empty array, all-inside data, dense data on [-0.5, 1.5] and
    0-d arrays, with no warning raised."""
    f = _with_rule(_oracle_terms(quartic_terms[0])[name], rule)
    special = np.array([
        math.nan, math.inf, -math.inf, -0.0, 0.0, 1.0, f.a, 0.5,
        np.nextafter(0.0, -1.0), np.nextafter(1.0, 2.0), np.nextafter(f.a, 0.0),
        np.nextafter(f.a, 1.0), -1e-50, 1.05, 1e300, -1e300,
    ])
    rng = np.random.default_rng(17)
    inside = np.concatenate([rng.uniform(0.0, 1.0, 3001), [0.0, f.a, 1.0]])
    cases = [special, np.empty(0), inside, rng.uniform(-0.5, 1.5, 4001), special.reshape(4, 4),
             np.array(f.a), np.array(1.05)]
    for u in cases:
        want = written_out_reaction(f, u)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = f.eval_extended_array(u)
        assert got.shape == u.shape and got.dtype == np.float64
        _assert_bitwise(got, want)
    assert f.eval_extended(f.a) == f.branch_value()
    assert math.isnan(f.eval_extended(math.nan))


def test_horner_matches_polyval_on_signed_zero_coefficients():
    """The in-place Horner keeps polyval's sign of zero when the leading
    coefficients are zeros of either sign, on arrays and, through
    BranchPoly, on Python and NumPy floats."""
    u = np.array([-0.0, 0.0, 1e-300, 0.3, 1.0, -0.2, -1e-300, 1.7])
    for coeffs in [(-0.0,), (0.0,), (-0.0, -0.0), (0.0, -0.0), (-0.0, 0.0, -0.0), (1.0, -0.0),
                   (-0.0, 2.0, -0.0), (-0.0, -0.0, -0.0, -0.0), (0.5, -1.0, 0.0), (0.2, 0.8, -1.0)]:
        want = np.polynomial.polynomial.polyval(u, coeffs)
        _assert_bitwise(reaction._horner(coeffs)(u), want)
        branch = bw.BranchPoly(coeffs, 0.0, 1.0)
        _assert_bitwise(branch(u), want)
        for x, w in zip(u.tolist(), want):
            _assert_bitwise(branch(x), w)
            _assert_bitwise(branch(np.float64(x)), w)


_COEFFS = st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=5).map(tuple)
_NODES = st.lists(
    st.one_of(st.floats(-1e6, 1e6), st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 1.0])),
    max_size=40,
)


@settings(max_examples=200, deadline=None)
@given(
    a=st.floats(0.05, 0.95),
    c0=_COEFFS,
    c1=_COEFFS,
    rule=st.sampled_from(["left_closed", "right_closed", "average"]),
    nodes=_NODES,
)
def test_eval_extended_array_oracle_property(a, c0, c1, rule, nodes):
    """Random branches, constant ones included.  A zero end slope makes the
    tangent line at ±inf an invalid 0*inf in both evaluators, so the check
    is that the library warns of nothing the written-out one does not."""
    f = bw.ReactionTerm(a, bw.BranchPoly(c0, 0.0, a), bw.BranchPoly(c1, a, 1.0), branch_rule=rule)
    u = np.array([*nodes, a], dtype=float)
    with warnings.catch_warnings(record=True) as oracle_warnings:
        warnings.simplefilter("always")
        want = written_out_reaction(f, u)
    with warnings.catch_warnings(record=True) as library_warnings:
        warnings.simplefilter("always")
        got = f.eval_extended_array(u)
    assert {str(w.message) for w in library_warnings} <= {str(w.message) for w in oracle_warnings}
    _assert_bitwise(got, want)


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
    # f0 = u(4u - 1) is positive on (0.25, 0.3]: the worst point, u = a
    # with f0(a) = 0.06, is reported, once
    bad = bw.ReactionTerm(
        a=0.3,
        f0=bw.BranchPoly((0.0, -1.0, 4.0), 0.0, 0.3),
        f1=bw.BranchPoly((1.0, -1.0), 0.3, 1.0),
    )
    rep = bw.check_hypotheses(bad)
    assert not rep.h2_ok
    assert [v for v in rep.violations if v[0] == "H2"] == [("H2", 0.3, pytest.approx(0.06, abs=1e-15))]


# f0(u) = u (1e-6 - 1e4 (u - 0.150033)^2): a bump to +1.5e-7 at u = 0.150033,
# 2e-5 wide, which a grid of 2,048 samples on [0, a] steps over
DEFECT_F0 = (0.0, -225.09900989000002, 3000.66, -10000.0)


def test_check_hypotheses_finds_a_bump_between_samples():
    bad = bw.ReactionTerm(0.3, bw.BranchPoly(DEFECT_F0, 0.0, 0.3), bw.BranchPoly((20.0, -20.0), 0.3, 1.0))
    rep = bw.check_hypotheses(bad)
    assert rep.h1_ok and rep.h3_ok and not rep.h2_ok and not rep.admissible
    assert rep.slope_bounds is None
    [(h, u, v)] = rep.violations
    assert h == "H2"
    assert u == pytest.approx(0.150033, abs=1e-6)
    assert v == pytest.approx(1.5e-7, rel=1e-3)
    assert v == pytest.approx(float(bad.f0(u)), abs=1e-20)


def test_check_hypotheses_wrong_sign_at_the_pinned_end():
    # f0 = 0.1 - u starts positive: H1 fails at u = 0, and so does H2
    bad = bw.ReactionTerm(0.3, bw.BranchPoly((0.1, -1.0), 0.0, 0.3), bw.BranchPoly((1.0, -1.0), 0.3, 1.0))
    rep = bw.check_hypotheses(bad)
    assert not rep.h1_ok and not rep.h2_ok
    assert [v for v in rep.violations if v[0] == "H2"] == [("H2", 0.0, 0.1)]
    # f1 = (1 - u) + 0.2 ends negative at u = 1 and is positive before it:
    # its worst point is the pinned end
    bad = bw.ReactionTerm(0.3, bw.BranchPoly((0.0, -1.0), 0.0, 0.3), bw.BranchPoly((0.8, -1.0), 0.3, 1.0))
    rep = bw.check_hypotheses(bad)
    assert [v for v in rep.violations if v[0] == "H2"] == [("H2", 1.0, pytest.approx(-0.2, abs=1e-15))]


def test_admissible_reports_carry_bounds(demo, quartic_terms):
    terms = [demo, *quartic_terms] + [bw.piecewise_linear(k, a) for k in (-1.0, -3.0) for a in (0.1, 0.3, 0.45)]
    for f in terms:
        rep = bw.check_hypotheses(f)
        assert rep.admissible
        assert rep.slope_bounds == bw.slope_bounds(f)


def test_check_hypotheses_bounds_that_round_to_zero_fail_h2(demo, monkeypatch):
    """Once H1 and H2 hold exactly, slope_bounds can raise only by rounding;
    the report is then not admissible, never admissible without bounds."""

    def raising(f):
        raise NonNegativeSlope("alpha_hi rounded to 0")

    monkeypatch.setattr(reaction, "slope_bounds", raising)
    rep = bw.check_hypotheses(demo)
    assert rep.h1_ok and rep.h3_ok
    assert not rep.h2_ok and not rep.admissible and rep.slope_bounds is None


def test_extremes_survive_a_negligible_top_coefficient():
    """A top coefficient far below the others, tiny or subnormal, neither
    hides a critical point nor makes the root finder raise."""
    f1 = bw.BranchPoly(tuple(np.convolve([-1.0, 1.0], [0.0, 1.0, 5e-290])), 0.25, 1.0)  # ~ u (u - 1)
    rep = bw.check_hypotheses(bw.ReactionTerm(0.25, bw.BranchPoly((0.0, -1.0), 0.0, 0.25), f1))
    assert [v for v in rep.violations if v[0] == "H2"] == [("H2", pytest.approx(0.5), pytest.approx(-0.25))]
    f0 = bw.BranchPoly((0.0, -1.0, 1.0, 1.0, 1e-320), 0.0, 0.3)
    f = bw.ReactionTerm(0.3, f0, bw.BranchPoly((1.0, -1.0), 0.3, 1.0))
    assert bw.check_hypotheses(f).admissible
    assert reaction.max_abs_slopes(f) == (pytest.approx(1.0), pytest.approx(1.0))


_GOOD_F0 = (0.0, -1.0)  # -u
_GOOD_F1 = (1.0, -1.0)  # 1 - u


@settings(max_examples=300, deadline=None)
@given(
    a=st.floats(0.05, 0.95),
    g=st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=4),
    side=st.sampled_from(["f0", "f1"]),
)
# Two terms whose derivative has a second root near 1e12, which puts the
# companion-matrix root inside [lo, hi] 2e-5 off the true critical point.
@example(a=0.5, g=[1.0144559799408732, -4.0, 3.2655663920062293e-12], side="f0")
@example(a=0.25, g=[0.0, 0.516, 1e-12], side="f1")
def test_h2_is_decided_at_the_branch_extremes(a, g, side):
    """A drawn cubic or quartic branch f0 = u g(u) or f1 = (u - 1) g(u),
    paired with a linear branch that passes: when H2 fails, its one
    reported value is no better than the worst value on a dense interior
    grid, to the audit margin and rounding; when that grid value is wrong
    by 1e-6 or more, H2 fails."""
    if side == "f0":
        coeffs, lo, hi, sign = (0.0, *g), 0.0, a, 1.0
        f = bw.ReactionTerm(a, bw.BranchPoly(coeffs, 0.0, a), bw.BranchPoly(_GOOD_F1, a, 1.0))
        u = np.linspace(lo, hi, 20_001)[1:]
    else:
        coeffs, lo, hi, sign = tuple(np.convolve([-1.0, 1.0], g)), a, 1.0, -1.0
        f = bw.ReactionTerm(a, bw.BranchPoly(_GOOD_F0, 0.0, a), bw.BranchPoly(coeffs, a, 1.0))
        u = np.linspace(lo, hi, 20_001)[:-1]
    worst_on_grid = float(np.max(sign * np.asarray(bw.BranchPoly(coeffs, lo, hi)(u))))
    rep = bw.check_hypotheses(f)
    h2 = [v for h, _, v in rep.violations if h == "H2"]
    rounding = 1e-12 * sum(abs(c) for c in coeffs)
    if not rep.h2_ok:
        [v] = h2
        assert sign * v >= worst_on_grid - reaction._AUDIT_TOL - rounding
    else:
        assert h2 == []
    if worst_on_grid >= 1e-6:
        assert not rep.h2_ok


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


@pytest.mark.parametrize("a", [-0.2, 0.0, 1.0, 1.3, math.nan])
def test_branch_point_checked_first(a):
    """Every constructor names the branch point, not a branch domain built
    from it."""
    f0 = bw.BranchPoly((0.0, -1.0), 0.0, 0.3)
    f1 = bw.BranchPoly((1.0, -1.0), 0.3, 1.0)
    for build in (lambda: bw.piecewise_linear(-1.0, a), lambda: bw.ReactionTerm(a, f0, f1)):
        with pytest.raises(ValueError, match=r"branch point a=.* must lie in \(0, 1\)"):
            build()
