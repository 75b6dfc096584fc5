"""PDE stepper, front tracking, shift distance, decay fitting, and the
super/sub-solution machinery."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from scipy.linalg import solve_banded, solveh_banded

import bistable_waves as bw
from bistable_waves import simulator
from bistable_waves.errors import (
    DegenerateProfile,
    Divergence,
    InsufficientData,
    NoFront,
    NonPositiveDistance,
)
from conftest import reference_reaction_ode, written_out_reaction


@pytest.fixture(scope="module")
def grid():
    return bw.Grid1D(-30.0, 30.0, 0.05, 0.01)


@pytest.fixture(scope="module")
def demo_profile(demo_wave):
    return bw.WaveProfile(demo_wave)


def test_grid_validation():
    with pytest.raises(ValueError):
        bw.Grid1D(0.0, 1.0, 0.3, 0.01)  # non-integer cell count
    with pytest.raises(ValueError):
        bw.Grid1D(0.0, 1.0, 0.1, 0.01)  # only 10 cells
    with pytest.raises(ValueError):
        bw.Grid1D(1.0, -1.0, 0.05, 0.01)
    cap = bw.simulator._MAX_NODES
    assert bw.Grid1D(0.0, cap - 1.0, 1.0, 0.01).n_nodes == cap
    with pytest.raises(ValueError, match="nodes"):
        bw.Grid1D(0.0, float(cap), 1.0, 0.01)
    g = bw.Grid1D(-1.0, 1.0, 0.05, 0.01)
    assert g.n_nodes == 41
    assert g.dt_stability(1.6) == pytest.approx(1.9 / 1.6)


def test_fixed_points_dirichlet(demo, grid):
    for val in (0.0, 1.0):
        s = bw.SimState(0.0, np.full(grid.n_nodes, val), grid)
        for _ in range(20):
            s_next = bw.step(demo, s, grid)
            assert np.max(np.abs(s_next.u - val)) <= 1e-13
            s = s_next


def test_neumann_mass_conservation():
    g = bw.Grid1D(-30.0, 30.0, 0.05, 0.01, bc="neumann")
    s = bw.SimState(0.0, np.exp(-g.x**2), g)
    for _ in range(10):
        mass = np.trapezoid(s.u, dx=g.dx)
        s = bw.step(None, s, g)
        assert abs(np.trapezoid(s.u, dx=g.dx) - mass) <= 1e-12


def test_step_divergence():
    # explicit reaction far beyond its stability bound blows up
    stiff = bw.piecewise_linear(-400.0, 0.5)
    g = bw.Grid1D(-10.0, 10.0, 0.5, 0.5)
    s = bw.SimState(0.0, np.full(g.n_nodes, 0.45), g)
    with pytest.raises(Divergence) as exc:
        for _ in range(50):
            s = bw.step(stiff, s, g)
    assert exc.value.t > 0.0


def _reference_rhs(f, s, g):
    """mu and the IMEX right-hand side on every node, with the reaction
    written out branch by branch: u_i + mu*(u_{i-1} - 2u_i + u_{i+1}) +
    dt*r_i inside, the node's own value at a dirichlet01 end and the
    reflected-ghost row at a neumann end."""
    u = s.u
    mu = g.dt / (2.0 * g.dx * g.dx)
    reaction = written_out_reaction(f, u) if f is not None else np.zeros_like(u)
    rhs = np.empty_like(u)
    rhs[1:-1] = u[1:-1] + mu * (u[:-2] - 2.0 * u[1:-1] + u[2:]) + g.dt * reaction[1:-1]
    if g.bc == "dirichlet01":
        rhs[0] = u[0]
        rhs[-1] = u[-1]
    else:
        rhs[0] = u[0] + 2.0 * mu * (u[1] - u[0]) + g.dt * reaction[0]
        rhs[-1] = u[-1] + 2.0 * mu * (u[-2] - u[-1]) + g.dt * reaction[-1]
    return mu, rhs


def _reference_step(f, s, g):
    """The IMEX step as one fresh symmetric positive-definite tridiagonal
    solve, solveh_banded (LAPACK's ?ptsv), and with the reaction written
    out branch by branch: under dirichlet01 the interior block with the
    boundary values moved to the right-hand side, under neumann the whole
    matrix with both end rows halved."""
    mu, rhs = _reference_rhs(f, s, g)
    if g.bc == "dirichlet01":
        rhs[1] += mu * s.u[0]
        rhs[-2] += mu * s.u[-1]
        ab = np.zeros((2, g.n_nodes - 2))  # upper form: super-diagonal, diagonal
        ab[0, 1:] = -mu
        ab[1, :] = 1.0 + 2.0 * mu
        rhs[1:-1] = solveh_banded(ab, rhs[1:-1])
    else:
        rhs[0] *= 0.5
        rhs[-1] *= 0.5
        ab = np.zeros((2, g.n_nodes))
        ab[0, 1:] = -mu
        ab[1, :] = 1.0 + 2.0 * mu
        ab[1, 0] = ab[1, -1] = 0.5 * (1.0 + 2.0 * mu)
        rhs = solveh_banded(ab, rhs)
    return bw.SimState(t=s.t + g.dt, u=rhs, grid=g)


def _general_lu_step(f, s, g):
    """The IMEX step on the whole unsymmetric tridiagonal matrix, identity
    rows at the dirichlet01 ends and doubled couplings at the neumann ends,
    solved by a general pivoting LU (solve_banded)."""
    mu, rhs = _reference_rhs(f, s, g)
    n = g.n_nodes
    ab = np.zeros((3, n))
    ab[0, 2:] = -mu
    ab[1, :] = 1.0 + 2.0 * mu
    ab[2, :-2] = -mu
    if g.bc == "dirichlet01":
        ab[1, 0] = ab[1, -1] = 1.0
        ab[0, 1] = ab[2, -2] = 0.0
    else:
        ab[0, 1] = ab[2, -2] = -2.0 * mu
    return bw.SimState(t=s.t + g.dt, u=solve_banded((1, 1), ab, rhs), grid=g)


def _initial_state(kind, g, profile, a):
    if kind == "wave_plus_delta":  # the right boundary node starts at 1.05 (dirichlet01: stays above 1)
        return profile(g.x) + 0.05
    u = np.where(g.x >= 0.0, 1.0, 0.0)
    if kind == "node_at_a":  # a boundary node and an interior node start exactly at a
        u[0] = u[g.n_nodes // 3] = a
    return u


@pytest.mark.parametrize(
    ("bc", "kind"),
    [
        pytest.param(bc, kind, id=bc if kind == "step" else f"{bc}-{kind}")
        for kind in ("step", "wave_plus_delta", "node_at_a")
        for bc in ("dirichlet01", "neumann")
    ],
)
def test_step_matches_banded_solve_bitwise(demo, demo_profile, bc, kind):
    """Two grids with the same node count but different dx and dt, stepped
    in turn: a factorization cached under the wrong key, or shared between
    grids, changes the result.  The wave + 0.05 and node-at-a states send
    nodes through the evaluator's u > 1 and u == a patches."""
    grids = (bw.Grid1D(-30.0, 30.0, 0.05, 0.01, bc=bc), bw.Grid1D(-15.0, 15.0, 0.025, 0.004, bc=bc))
    assert grids[0].n_nodes == grids[1].n_nodes
    states = [bw.SimState(0.0, _initial_state(kind, g, demo_profile, demo.a), g) for g in grids]
    refs = list(states)
    for _ in range(500):
        for i, g in enumerate(grids):
            states[i] = bw.step(demo, states[i], g)
            refs[i] = _reference_step(demo, refs[i], g)
            assert states[i].t == refs[i].t
            np.testing.assert_array_equal(states[i].u, refs[i].u)
    for s in states:  # the fronts have moved by ten cells or more
        assert abs(bw.front_position(s, demo.a)) >= 10.0 * s.grid.dx
    if bc == "dirichlet01" and kind == "wave_plus_delta":  # u > 1 on every step
        assert all(s.u[-1] > 1.0 for s in states)


@pytest.mark.parametrize("bc", ["dirichlet01", "neumann"])
@pytest.mark.parametrize("rule", ["left_closed", "right_closed", "average"])
def test_step_matches_banded_solve_bitwise_under_each_branch_rule(demo, demo_profile, rule, bc):
    """The evaluator selects u == a with each rule's own comparison and
    patches it only under "average".  A boundary node and an interior node
    start at a, where the first step already tells the three rules apart."""
    g = bw.Grid1D(-30.0, 30.0, 0.05, 0.01, bc=bc)
    u0 = _initial_state("node_at_a", g, demo_profile, demo.a)
    rules = ("left_closed", "right_closed", "average")
    terms = {r: bw.ReactionTerm(demo.a, demo.f0, demo.f1, branch_rule=r) for r in rules}
    first = {r: bw.step(f, bw.SimState(0.0, u0, g), g).u[g.n_nodes // 3] for r, f in terms.items()}
    assert len(set(first.values())) == 3
    s = ref = bw.SimState(0.0, u0, g)
    for _ in range(200):
        s = bw.step(terms[rule], s, g)
        ref = _reference_step(terms[rule], ref, g)
        np.testing.assert_array_equal(s.u, ref.u)


@pytest.mark.parametrize("bc", ["dirichlet01", "neumann"])
def test_step_stays_within_rounding_of_the_general_lu(demo, demo_profile, bc):
    """The symmetric solve moves the trajectories of the unsymmetric
    general LU, which the stepper used before, only in their last bits."""
    g = bw.Grid1D(-30.0, 30.0, 0.05, 0.01, bc=bc)
    for kind in ("step", "wave_plus_delta"):
        s = ref = bw.SimState(0.0, _initial_state(kind, g, demo_profile, demo.a), g)
        for _ in range(500):
            s = bw.step(demo, s, g)
            ref = _general_lu_step(demo, ref, g)
        assert np.max(np.abs(s.u - ref.u)) <= 1e-13


@pytest.mark.parametrize("kind", ["step", "wave_plus_delta", "node_at_a"])
def test_dirichlet_boundary_nodes_are_kept_exactly(demo, demo_profile, kind):
    """dirichlet01 solves the interior alone, so the boundary nodes keep
    their initial values bit for bit, u[-1] ~ 1.05 for the wave + 0.05."""
    g = bw.Grid1D(-30.0, 30.0, 0.05, 0.01)
    u0 = _initial_state(kind, g, demo_profile, demo.a)
    s = bw.SimState(0.0, u0, g)
    for _ in range(200):
        s = bw.step(demo, s, g)
        assert s.u[0] == u0[0] and s.u[-1] == u0[-1]
    if kind == "wave_plus_delta":
        assert u0[-1] == pytest.approx(1.05, abs=1e-10)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("bc", ["dirichlet01", "neumann"])
def test_step_non_finite_state_diverges(demo, bad, bc):
    g = bw.Grid1D(-10.0, 10.0, 0.1, 0.02, bc=bc)
    u = np.where(g.x >= 0.0, 1.0, 0.0)
    u[g.n_nodes // 3] = bad
    with np.errstate(invalid="ignore"), pytest.raises(Divergence) as exc:
        bw.step(demo, bw.SimState(0.0, u, g), g)
    assert exc.value.t == pytest.approx(g.dt)


def test_grid_factorization_cache_keeps_dataclass_contract():
    g, twin = bw.Grid1D(-1.0, 1.0, 0.05, 0.01), bw.Grid1D(-1.0, 1.0, 0.05, 0.01)
    before = (dataclasses.asdict(g), repr(g), hash(g))
    bw.step(None, bw.SimState(0.0, np.zeros(41), g), g)
    for cached in ("_imex_solve", "n_nodes"):
        assert cached in vars(g) and cached not in vars(twin)
    assert g.n_nodes == twin.n_nodes == 41
    assert (dataclasses.asdict(g), repr(g), hash(g)) == before
    assert g == twin and hash(g) == hash(twin)
    assert dataclasses.replace(g, x_max=2.0).n_nodes == 61


def _step_data_with_notches(g):
    """Step data with one node at 0.4 in the 0 region and one at 0.6 in the
    1 region."""
    u = np.where(g.x >= 0.0, 1.0, 0.0)
    u[g.n_nodes // 4], u[3 * g.n_nodes // 4] = 0.4, 0.6
    return u


@pytest.mark.parametrize("kind", ["wave_plus_delta", "notched_step_dx_half"])
def test_run_matches_a_loop_of_reference_steps_bitwise(demo, demo_profile, kind):
    """run evaluates the reaction on the extremes that each step's band
    check carries to the next, and every state it takes equals a loop of
    _reference_step, bit for bit.  Wave + 0.05 lies above 1 on every step.
    The notched step data at dx = 0.025, dt = 0.005 (mu = 4) rings: its
    states lie below 0 and above 1, then back in [0, 1], out, and in."""
    if kind == "wave_plus_delta":
        g = bw.Grid1D(-30.0, 30.0, 0.05, 0.01)
        u0 = _initial_state(kind, g, demo_profile, demo.a)
    else:
        g = bw.Grid1D(-15.0, 15.0, 0.025, 0.005)
        u0 = _step_data_with_notches(g)
    n = 40
    times = [k * g.dt for k in range(1, n + 1)]
    tr = bw.run(demo, u0, g, t_end=n * g.dt, observe_every=n * g.dt, snapshot_times=times)
    ref = bw.SimState(0.0, u0, g)
    sides = []  # (below 0, above 1) per step
    for snap in tr.snapshots:
        ref = _reference_step(demo, ref, g)
        np.testing.assert_array_equal(snap.u, ref.u)
        sides.append((bool(ref.u.min() < 0.0), bool(ref.u.max() > 1.0)))
    if kind == "wave_plus_delta":
        assert sides == [(False, True)] * n
    else:
        outside = [below or above for below, above in sides]
        assert sides[:10] == [(True, True)] * 10 and sides[-10:] == [(False, False)] * 10
        assert (True, False) in zip(outside, outside[1:]) and (False, True) in zip(outside, outside[1:])


def test_states_that_do_not_hold_the_carry_take_their_own_extremes(demo, demo_profile):
    """A stepped state carries the extremes of its u.  A hand-built state
    on the same array, a dataclasses.replace'd state, a state whose u was
    reassigned and one whose u was made writeable and edited take them
    afresh: each steps from inside [0, 1] to wave + 0.05, above 1, as the
    reference step does."""
    g = bw.Grid1D(-30.0, 30.0, 0.05, 0.01)
    stepped = bw.step(demo, bw.SimState(0.0, np.where(g.x >= 0.0, 1.0, 0.0), g), g)
    assert stepped._u_extremes() == (0.0, 1.0)
    above = demo_profile(g.x) + 0.05
    above.flags.writeable = False  # as read-only as a stepped u
    reassigned = bw.step(demo, bw.SimState(0.0, np.where(g.x >= 0.0, 1.0, 0.0), g), g)
    reassigned.u = above
    edited = bw.step(demo, bw.SimState(0.0, np.where(g.x >= 0.0, 1.0, 0.0), g), g)
    edited.u.flags.writeable = True
    edited.u[:] = above
    states = {
        "hand_built": bw.SimState(stepped.t, above, g),
        "replaced": dataclasses.replace(stepped, u=above),
        "reassigned": reassigned,
        "edited": edited,
    }
    for name, s in states.items():
        assert s._u_extremes() == (above.min(), above.max()), name
        np.testing.assert_array_equal(bw.step(demo, s, g).u, _reference_step(demo, s, g).u)
    assert dataclasses.replace(stepped)._extremes is None
    assert "_extremes" not in repr(stepped)


def test_stepped_state_is_read_only(demo):
    """step returns a read-only u; a caller edits a copy."""
    g = bw.Grid1D(-10.0, 10.0, 0.1, 0.02)
    s = bw.step(demo, bw.SimState(0.0, np.where(g.x >= 0.0, 1.0, 0.0), g), g)
    with pytest.raises(ValueError, match="read-only"):
        s.u[0] = 0.5
    with pytest.raises(ValueError, match="read-only"):
        s.u *= 2.0
    u = s.u.copy()
    u[0] = 0.5
    assert u.flags.writeable and s.u[0] == 0.0




def test_run_and_comparison_step_through_module_globals(monkeypatch, demo, demo_wave):
    """run and comparison_check look step and shift_distance up on the
    module at call time, once per step and once per observation."""
    calls = {"step": 0, "shift_distance": 0}

    def counting(name):
        original = getattr(simulator, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(simulator, name, counting(name))
    g = bw.Grid1D(-20.0, 20.0, 0.1, 0.02)
    u0 = np.where(g.x >= 0.0, 1.0, 0.0)
    tr = bw.run(demo, u0, g, t_end=1.0, observe_every=0.25, reference=demo_wave)
    assert calls == {"step": 50, "shift_distance": 5}
    assert tr.times.size == 5
    bw.comparison_check(demo, u0, u0, g, t_end=0.5)
    assert calls["step"] == 50 + 2 * 25


@pytest.mark.parametrize("t_end, dt", [(1e10, 1e-300), (1e9, 0.01)])
def test_run_and_comparison_refuse_too_many_steps(demo, t_end, dt):
    """t_end/dt past the step cap, or past the float range, is refused
    before any step is taken."""
    g = bw.Grid1D(-10.0, 10.0, 0.1, dt)
    u0 = np.where(g.x >= 0.0, 1.0, 0.0)
    with pytest.raises(ValueError) as owner:
        simulator._check_steps(t_end, dt)
    assert f"exceeds the cap of {simulator._MAX_STEPS} steps" in str(owner.value)
    with pytest.raises(ValueError) as exc:
        bw.run(demo, u0, g, t_end=t_end, observe_every=1.0)
    assert str(exc.value) == str(owner.value)
    with pytest.raises(ValueError) as exc:
        bw.comparison_check(demo, u0, u0, g, t_end=t_end)
    assert str(exc.value) == str(owner.value)


def test_step_cap_edge():
    cap = simulator._MAX_STEPS
    assert simulator._check_steps(cap * 0.5, 0.5) == cap
    assert simulator._check_steps(40.0, 0.01) == 4000
    with pytest.raises(ValueError):
        simulator._check_steps((cap + 1) * 0.5, 0.5)


def test_run_propagates_divergence():
    stiff = bw.piecewise_linear(-400.0, 0.5)
    g = bw.Grid1D(-10.0, 10.0, 0.5, 0.5)  # dt far beyond the stability bound
    with pytest.warns(RuntimeWarning), pytest.raises(Divergence) as exc:
        bw.run(stiff, np.full(g.n_nodes, 0.45), g, t_end=20.0, observe_every=1.0)
    assert exc.value.t > 0.0


def test_run_warns_with_the_dt_check_message():
    stiff = bw.piecewise_linear(-400.0, 0.5)
    g = bw.Grid1D(-10.0, 10.0, 0.5, 0.5)
    with pytest.raises(ValueError) as owner:
        simulator._check_dt(0.5, 400.0)
    with pytest.warns(RuntimeWarning) as record, pytest.raises(Divergence):
        bw.run(stiff, np.full(g.n_nodes, 0.45), g, t_end=20.0, observe_every=1.0)
    assert [str(w.message) for w in record] == [str(owner.value)]


@pytest.mark.parametrize("times", [(5.0,), (1.0, -0.01), (math.nan,)])
def test_run_refuses_snapshot_times_outside_the_run(demo, times):
    g = bw.Grid1D(-10.0, 10.0, 0.1, 0.02)
    with pytest.raises(ValueError, match="snapshot time .* outside \\[0, t_end=2.0\\]"):
        bw.run(demo, np.where(g.x >= 0.0, 1.0, 0.0), g, t_end=2.0, observe_every=1.0, snapshot_times=times)


def test_run_snapshots_every_requested_time(demo):
    """t = 0 is the initial state, t_end the last step's, and each time in
    between the nearest step's."""
    g = bw.Grid1D(-10.0, 10.0, 0.1, 0.02)
    u0 = np.where(g.x >= 0.0, 1.0, 0.0)
    tr = bw.run(demo, u0, g, t_end=2.0, observe_every=1.0, snapshot_times=(2.0, 0.0, 1.0, 1.001))
    assert [s.t for s in tr.snapshots] == pytest.approx([0.0, 1.0, 1.0, 2.0], abs=1e-9)
    np.testing.assert_array_equal(tr.snapshots[0].u, u0)
    assert tr.snapshots[0].u is not u0


@pytest.mark.parametrize("lo, hi", [(0.0, 1.7), (-0.6, 1.0), (0.0, math.nan)])
def test_run_refuses_initial_data_outside_the_state_band(demo, lo, hi):
    g = bw.Grid1D(-10.0, 10.0, 0.1, 0.02)
    u0 = np.where(g.x >= 0.0, hi, lo)
    with pytest.raises(ValueError, match="leave the state band \\[-0.5, 1.5\\]"):
        bw.run(demo, u0, g, t_end=1.0, observe_every=1.0)


def test_front_position_step_data(grid):
    u = np.where(grid.x >= 0.0, 1.0, 0.0)
    s = bw.SimState(0.0, u, grid)
    pos = bw.front_position(s, 0.3)
    assert -0.05 <= pos <= 0.05


def test_front_position_on_wave(demo_wave, demo_profile, grid):
    s = bw.SimState(0.0, demo_profile(grid.x), grid)
    assert abs(bw.front_position(s, 0.3)) <= grid.dx


def test_front_position_no_front(grid):
    s = bw.SimState(0.0, np.zeros(grid.n_nodes), grid)
    with pytest.raises(NoFront):
        bw.front_position(s, 0.3)


def test_front_position_multiple_crossings(grid):
    u = 0.3 + 0.2 * np.sin(2.0 * np.pi * grid.x / 30.0)
    s = bw.SimState(0.0, u, grid)
    crossings = bw.front_crossings(s, 0.3)
    assert crossings.size > 1
    assert bw.front_position(s, 0.3) == pytest.approx(float(np.median(crossings)))


def test_estimate_speed_synthetic():
    rng = np.random.default_rng(7)
    t = np.arange(0.0, 30.0, 0.5)
    front = 0.8727 * t + rng.normal(0.0, 1e-4, t.size)
    tr = bw.Trajectory(t, front, None, None)
    speed, r2 = bw.estimate_speed(tr, (0.0, 30.0))
    assert speed == pytest.approx(0.8727, abs=1e-3)
    assert r2 > 0.999
    # against an independent least-squares fit
    assert speed == pytest.approx(float(np.polyfit(t, front, 1)[0]), abs=1e-12)


def test_estimate_speed_constant():
    t = np.arange(0.0, 10.0, 0.5)
    tr = bw.Trajectory(t, np.full(t.size, 3.0), None, None)
    speed, _ = bw.estimate_speed(tr, (0.0, 10.0))
    assert speed == 0.0


def test_estimate_speed_insufficient():
    t = np.arange(0.0, 3.0, 0.5)
    tr = bw.Trajectory(t, np.zeros(t.size), None, None)
    with pytest.raises(InsufficientData):
        bw.estimate_speed(tr, (0.0, 1.0))


def test_fit_decay_exact():
    t = np.arange(0.0, 20.0, 0.5)
    d = 0.2 * np.exp(-0.5 * t)
    tr = bw.Trajectory(t, np.zeros(t.size), d, np.zeros(t.size))
    K, kappa, r2 = bw.fit_decay(tr, (0.0, 20.0))
    assert K == pytest.approx(0.2, abs=1e-10)
    assert kappa == pytest.approx(0.5, abs=1e-10)
    assert r2 == pytest.approx(1.0, abs=1e-10)


def test_fit_decay_constant():
    t = np.arange(0.0, 20.0, 0.5)
    tr = bw.Trajectory(t, np.zeros(t.size), np.full(t.size, 0.37), np.zeros(t.size))
    _, kappa, _ = bw.fit_decay(tr, (0.0, 20.0))
    assert kappa == pytest.approx(0.0, abs=1e-14)


def test_fit_decay_errors():
    t = np.arange(0.0, 20.0, 0.5)
    d = np.full(t.size, 0.1)
    d[5] = 0.0
    tr = bw.Trajectory(t, np.zeros(t.size), d, np.zeros(t.size))
    with pytest.raises(NonPositiveDistance):
        bw.fit_decay(tr, (0.0, 20.0))
    tr = bw.Trajectory(t[:4], np.zeros(4), np.full(4, 0.1), np.zeros(4))
    with pytest.raises(InsufficientData):
        bw.fit_decay(tr, (0.0, 20.0))


def test_heat_kernel_eps_values():
    assert bw.heat_kernel_eps(1.0, 1.0, 0.0) == pytest.approx(
        math.exp(-1.0) / (2.0 * math.sqrt(math.pi)), abs=1e-12
    )
    assert bw.heat_kernel_eps(1.0, 1.0, 0.0) == pytest.approx(0.103777, abs=1e-6)
    # monotone in k_inf and in L
    ks = [bw.heat_kernel_eps(1.0, 1.0, k) for k in (0.0, 1.0, 10.0, 100.0)]
    assert all(b < a for a, b in zip(ks, ks[1:]))
    ls = [bw.heat_kernel_eps(1.0, L, 0.0) for L in (1.0, 2.0, 3.0)]
    assert all(b < a for a, b in zip(ls, ls[1:]))
    with pytest.raises(ValueError):
        bw.heat_kernel_eps(0.0, 1.0)
    with pytest.raises(ValueError):
        bw.heat_kernel_eps(1.0, -1.0)


@pytest.mark.parametrize("t_end", [0.5, 1.0, 2.0])
def test_heat_kernel_lower_bound_on_evolved_bump(t_end):
    """Pure diffusion of a nonnegative bump stays above the kernel bound
    times the initial mass on |x| < L."""
    L = 3.0
    g = bw.Grid1D(-20.0, 20.0, 0.05, 0.01, bc="neumann")
    u0 = np.maximum(0.0, 1.0 - g.x**2)
    mass = np.trapezoid(np.where(np.abs(g.x) <= L, u0, 0.0), dx=g.dx)
    s = bw.SimState(0.0, u0.copy(), g)
    n_steps = int(round(t_end / g.dt))
    for _ in range(n_steps):
        s = bw.step(None, s, g)
    inner_min = float(np.min(s.u[np.abs(g.x) < L]))
    assert inner_min >= bw.heat_kernel_eps(t_end, L, 0.0) * mass


@pytest.mark.parametrize("branch", ["q0", "q1"])
def test_reaction_ode_matches_solve_ivp_bitwise(demo, branch):
    """reaction_ode on shooting's RK45 loop gives solve_ivp's 513 values,
    bit for bit."""
    t, q = bw.reaction_ode(demo, branch, 20.0)
    t_ref, q_ref = reference_reaction_ode(demo, branch, 20.0)
    np.testing.assert_array_equal(t, t_ref)
    np.testing.assert_array_equal(q, q_ref)


@pytest.mark.parametrize("t_end", [math.inf, math.nan, 0.0, -1.0])
def test_reaction_ode_refuses_a_non_finite_or_non_positive_end(demo, t_end, monkeypatch):
    """t_end is checked before integrating: toward t_end = inf the loop
    never ends and a NaN one failed late with a step-size error.  The
    integrator raises if reached, so a regression fails instead of hanging."""

    def unreachable(*args, **kwargs):
        raise AssertionError("reaction_ode integrated a refused t_end")

    monkeypatch.setattr(bw.simulator, "_rk45", unreachable)
    monkeypatch.setattr(bw.shooting, "_rk45", unreachable)
    with pytest.raises(ValueError, match="positive and finite"):
        bw.reaction_ode(demo, "q0", t_end)


def test_reaction_ode_limits(demo):
    t, q1 = bw.reaction_ode(demo, "q1", 20.0)
    assert q1[0] == pytest.approx(0.3)
    assert np.all(np.diff(q1) >= -1e-12)
    assert q1[-1] >= 0.999
    assert np.all((q1 >= 0.3 - 1e-9) & (q1 <= 1.0 + 1e-9))
    t, q0 = bw.reaction_ode(demo, "q0", 20.0)
    assert np.all(np.diff(q0) <= 1e-12)
    assert q0[-1] <= 0.001
    assert np.all((q0 >= -1e-9) & (q0 <= 0.3 + 1e-9))
    with pytest.raises(ValueError):
        bw.reaction_ode(demo, "q2", 1.0)


def test_supersub_params_demo(demo, demo_wave):
    p = bw.supersub_params(demo_wave, demo)
    assert p.gamma == pytest.approx(0.5, abs=1e-12)
    assert p.K0 == pytest.approx(1.6, abs=1e-9)
    assert p.K1 == pytest.approx(1.2, abs=1e-9)
    assert p.eps_star > 0.0
    assert p.delta0 == pytest.approx(p.gamma / (p.K0 + p.K1 + p.K2_sep), rel=1e-12)
    assert p.sigma == pytest.approx(
        (p.gamma + p.K0 + p.K1 + p.K2_sep) / (p.gamma * p.eps_star), rel=1e-12
    )
    # M satisfies its defining margins
    prof = bw.WaveProfile(demo_wave)
    assert prof(-p.M) <= demo.a / 2.0 + 1e-9
    assert prof(p.M) >= (1.0 + demo.a) / 2.0 - 1e-9


def test_k2_grows_as_separation_shrinks(demo, demo_wave):
    """The two-sided secant maximum scales like jump/rho: the jump at the
    branch point is f1(a) - f0(a) = 0.74 for the demo."""
    p3 = bw.supersub_params(demo_wave, demo, rho=1e-3)
    p4 = bw.supersub_params(demo_wave, demo, rho=5e-4)
    assert p4.K2_sep > 1.8 * p3.K2_sep / 2.0
    assert p3.K2_sep * 1e-3 == pytest.approx(0.74, abs=0.01)
    assert p4.K2_sep * 5e-4 == pytest.approx(0.74, abs=0.01)


def test_supersub_params_validation(demo, demo_wave):
    with pytest.raises(ValueError):
        bw.supersub_params(demo_wave, demo, M=0.1)  # margins not satisfied
    with pytest.raises(ValueError):
        bw.supersub_params(demo_wave, demo, rho=-1.0)
    corrupt = bw.WaveSolution(
        c_star=demo_wave.c_star,
        z_grid=demo_wave.z_grid.copy(),
        u_values=demo_wave.u_values.copy(),
        w_values=np.zeros_like(demo_wave.w_values),
        derivative_jump_at_0=0.0,
    )
    with pytest.raises(DegenerateProfile):
        bw.supersub_params(corrupt, demo)


def test_envelope_value_limits(demo, demo_wave, demo_profile):
    p = bw.supersub_params(demo_wave, demo)
    delta = min(p.delta0, demo.a / 4.0, (1.0 - demo.a) / 4.0) / 2.0
    x = np.linspace(-5.0, 5.0, 41)
    # t = 0: plain profile +/- delta
    up = bw.envelope_value(demo_wave, p, "plus", x, 0.0, 0.0, delta)
    np.testing.assert_allclose(up, demo_profile(x) + delta, atol=1e-12)
    lo = bw.envelope_value(demo_wave, p, "minus", x, 0.0, 0.0, delta)
    np.testing.assert_allclose(lo, demo_profile(x) - delta, atol=1e-12)
    # x = -z0 at t = 0, minus: a - delta
    val = bw.envelope_value(demo_wave, p, "minus", -1.7, 0.0, 1.7, delta)
    assert val == pytest.approx(demo.a - delta, abs=1e-12)
    # t -> infinity: pure shifted profile
    t = 600.0
    up_inf = bw.envelope_value(demo_wave, p, "plus", x, t, 0.0, delta)
    want = demo_profile(x + demo_wave.c_star * t + p.sigma * delta)
    np.testing.assert_allclose(up_inf, want, atol=1e-12)
    with pytest.raises(ValueError):
        bw.envelope_value(demo_wave, p, "plus", 0.0, 0.0, 0.0, 10.0 * p.delta0)


def test_shift_distance_recovers_known_shift(demo_profile, grid):
    s = bw.SimState(0.0, demo_profile(grid.x - 2.0), grid)
    dist, z_best = bw.shift_distance(s, demo_profile)
    assert z_best == pytest.approx(-2.0, abs=1e-2)
    assert dist <= 5.0 * grid.dx**2


def test_shift_distance_exact_profile(demo_profile, grid):
    s = bw.SimState(0.0, demo_profile(grid.x), grid)
    dist, z_best = bw.shift_distance(s, demo_profile)
    assert dist <= 1e-12
    assert z_best == pytest.approx(0.0, abs=1e-6)


def test_shift_distance_flat_zero_state(demo_wave, grid):
    s = bw.SimState(0.0, np.zeros(grid.n_nodes), grid)
    dist, z_best = bw.shift_distance(s, bw.WaveProfile(demo_wave))
    assert dist >= 0.99  # sup of the profile over the window, near 1
    assert z_best == pytest.approx(0.0, abs=25.0)  # scan stays near center


def _interior(s):
    """The nodes inside the 5% boundary margin: (u_int, x_int)."""
    n = s.grid.n_nodes
    margin = max(1, int(round(0.05 * n)))
    return s.u[margin : n - margin], s.grid.x[margin : n - margin]


def _sup_norm(u_int, x_int, profile, zeta):
    return float(np.max(np.abs(u_int - profile(x_int + zeta))))


def _window(s, profile, c):
    """The front-centred lattice shift and the window's half-width in cells."""
    dx = s.grid.dx
    try:
        center = -bw.front_position(s, profile.a)
    except NoFront:
        center = c * s.t
    return round(center / dx) * dx, int(round(20.0 / dx))


def _reference_shift_distance(s, ws, c):
    """The best shift as a loop over every lattice shift within 20 of the
    front-centred lattice shift, keeping the first minimum, then a
    golden-section refinement over every interior node on the two cells
    around it, keeping the best evaluated point: (distance, zeta_best - c*t).

    The refinement is clipped to the window.  Unclipped, as shift_distance
    once ran it, it reached a cell past the window when the lattice winner
    sat at an end, as on the flat-zero state."""
    profile = bw.WaveProfile(ws)
    u_int, x_int = _interior(s)
    dx = s.grid.dx
    center, k_max = _window(s, profile, c)
    table = profile((x_int[0] + center - k_max * dx) + dx * np.arange(u_int.size + 2 * k_max))
    best_k, best = 0, math.inf
    for k in range(2 * k_max + 1):
        val = float(np.max(np.abs(u_int - table[k : k + u_int.size])))
        if val < best:
            best, best_k = val, k
    best_zeta = center + (best_k - k_max) * dx

    def objective(zeta):
        return _sup_norm(u_int, x_int, profile, zeta)

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    lo = max(best_zeta - dx, center - k_max * dx)
    hi = min(best_zeta + dx, center + k_max * dx)
    p = hi - invphi * (hi - lo)
    q = lo + invphi * (hi - lo)
    fp, fq = objective(p), objective(q)
    while (hi - lo) > 1e-3 * dx:
        if fp < fq:
            hi, q, fq = q, p, fp
            p = hi - invphi * (hi - lo)
            fp = objective(p)
        else:
            lo, p, fp = p, q, fq
            q = lo + invphi * (hi - lo)
            fq = objective(q)
        for zeta, val in ((p, fp), (q, fq)):
            if val < best:
                best, best_zeta = val, zeta
    return best, best_zeta - c * s.t


def _run_states(f, grid, times):
    """States of a run of f from step data, at t = 0 and at the given times."""
    u0 = np.where(grid.x >= 0.0, 1.0, 0.0)
    tr = bw.run(f, u0, grid, t_end=max(times), observe_every=max(times), snapshot_times=times)
    assert [s.t for s in tr.snapshots] == pytest.approx(list(times), abs=1e-9)
    return [bw.SimState(0.0, u0, grid), *tr.snapshots]


@pytest.fixture(scope="module")
def demo_run_states(demo, grid):
    """The 81 observed states of a demo run from step data to t = 40."""
    return _run_states(demo, grid, 0.5 * np.arange(1, 81))


def _solve_wave(f):
    bracket = bw.speed_bracket(bw.slope_bounds(f), f.a)
    return bw.reconstruct_profile(f, bw.find_speed(f, bracket), bracket=bracket)


@pytest.fixture(scope="module")
def slow_run(grid):
    """The wave of piecewise_linear(-1, 0.45), whose front moves at
    c* ~ 0.2, and states of a run from step data."""
    f = bw.piecewise_linear(-1.0, 0.45)
    return _solve_wave(f), _run_states(f, grid, (20.0, 30.0, 40.0))


def _shift_distance_state(kind, profile, grid, run_states):
    x = grid.x
    if kind.startswith("late_run_t"):
        t = float(kind.removeprefix("late_run_t"))
        return next(s for s in run_states if abs(s.t - t) < 1e-9)
    if kind == "shifted_wave":
        u = profile(x - 2.0)
    elif kind == "noisy_wave":
        u = profile(x + 1.3) + np.random.default_rng(11).normal(0.0, 0.02, x.size)
    elif kind == "step":
        u = np.where(x >= 0.0, 1.0, 0.0)
    elif kind == "two_fronts":
        u = np.minimum(profile(x + 8.0), profile(8.0 - x))
    elif kind == "flat_zero":  # F is the profile at the window's right end: least at the left end
        u = np.zeros(x.size)
    elif kind == "tail_bumps":  # the sup sits where x + zeta is past the sampled profile
        assert 18.0 > profile.z_hi and -18.0 < profile.z_lo
        u = profile(x) + 0.03 * np.exp(-((x - 20.0) / 1.5) ** 2) - 0.02 * np.exp(-((x + 20.0) / 1.5) ** 2)
    else:  # noisy_ties: values on a 1/32 lattice, and equal spikes in both flat tails
        rng = np.random.default_rng(23)
        u = np.round((profile(x + 1.3) + rng.normal(0.0, 0.01, x.size)) * 32.0) / 32.0
        u[np.abs(x + 20.0) < 2.0] = 0.125
        u[np.abs(x - 20.0) < 2.0] = 0.875
    return bw.SimState(2.0, u, grid)


@pytest.mark.parametrize(
    "kind",
    ["shifted_wave", "noisy_wave", "step", "two_fronts", "flat_zero",
     "late_run_t20", "late_run_t30", "late_run_t40", "tail_bumps", "noisy_ties",
     "slow_late_run_t20", "slow_late_run_t30", "slow_late_run_t40"],
)
def test_shift_distance_matches_full_scan_bitwise(demo_wave, demo_profile, grid, demo_run_states, slow_run, kind):
    """The distance is the full sup norm at the returned shift, bit for bit,
    and that shift is a minimum over the window: the distance is no worse
    than the full lattice scan with golden-section refinement, nor than any
    shift of the window on a dense grid within two cells of it.  The slow_
    states come from a run of piecewise_linear(-1, 0.45)."""
    if kind.startswith("slow_"):
        ws, states = slow_run
        s = _shift_distance_state(kind.removeprefix("slow_"), None, grid, states)
    else:
        ws = demo_wave
        s = _shift_distance_state(kind, demo_profile, grid, demo_run_states)
    profile = bw.WaveProfile(ws)
    c = ws.c_star
    dist, z_best = bw.shift_distance(s, profile)
    zeta = z_best + c * s.t
    u_int, x_int = _interior(s)
    assert dist == _sup_norm(u_int, x_int, profile, zeta)
    assert dist <= _reference_shift_distance(s, ws, c)[0] + 1e-12
    center, k_max = _window(s, profile, c)
    near = zeta + np.linspace(-2.0 * grid.dx, 2.0 * grid.dx, 401)
    dense = np.clip(near, center - k_max * grid.dx, center + k_max * grid.dx)
    assert dist <= min(_sup_norm(u_int, x_int, profile, z) for z in dense) + 1e-12


def test_profile_level_is_the_branch_point(demo, demo_wave, slow_run):
    """u*(0) = a is a profile node, so a run of the wave's own term finds
    the front at the profile's level."""
    assert bw.WaveProfile(demo_wave).a == demo.a == 0.3
    assert bw.WaveProfile(slow_run[0]).a == 0.45


@pytest.mark.parametrize("term", ["demo", "other_level"])
def test_run_hands_its_front_to_shift_distance(monkeypatch, demo, demo_wave, term):
    """run finds the front once per observation and hands it to
    shift_distance when the reference's level is the term's; each distance
    is the one shift_distance finds on its own, bit for bit."""
    f = demo if term == "demo" else bw.piecewise_linear(-1.0, 0.45)
    original = simulator.shift_distance
    handed = []

    def checking(st, profile, **kwargs):
        handed.append(kwargs["front"])
        got = original(st, profile, **kwargs)
        assert got == original(st, profile)
        return got

    monkeypatch.setattr(simulator, "shift_distance", checking)
    g = bw.Grid1D(-20.0, 20.0, 0.1, 0.02)
    tr = bw.run(f, np.where(g.x >= 0.0, 1.0, 0.0), g, t_end=2.0, observe_every=0.25, reference=demo_wave)
    if term == "demo":
        assert handed == tr.front_positions.tolist()
    else:  # the reference's level 0.3 is not the term's 0.45
        assert handed == [None] * tr.times.size


def test_shift_distance_takes_nan_as_no_front(demo_profile, grid):
    s = bw.SimState(2.0, np.zeros(grid.n_nodes), grid)
    assert bw.shift_distance(s, demo_profile, front=math.nan) == bw.shift_distance(s, demo_profile)


class _RecordingProfile(bw.WaveProfile):
    """A WaveProfile that keeps every array it returns."""

    def __init__(self, ws):
        super().__init__(ws)
        self.outputs = []

    def __call__(self, z):
        out = super().__call__(z)
        self.outputs.append(out)
        return out


def test_shift_distance_returns_the_best_evaluated_shift(demo_wave, demo_run_states):
    """Over the 81 observations of a demo run, the distance is the smallest
    sup norm among the shifts the search evaluated, one profile call each,
    and the search takes at most 20 of them."""
    for s in demo_run_states:
        profile = _RecordingProfile(demo_wave)
        dist, _ = bw.shift_distance(s, profile)
        u_int, _x = _interior(s)
        assert dist == min(float(np.max(np.abs(u_int - out))) for out in profile.outputs)
        assert 2 <= len(profile.outputs) <= 20


def test_shift_distance_exact_off_lattice_shift(demo_profile, grid):
    s = bw.SimState(0.0, demo_profile(grid.x - 1.37), grid)
    dist, z_best = bw.shift_distance(s, demo_profile)
    assert dist <= 1e-15
    assert z_best == pytest.approx(-1.37, abs=1e-9)


_BENCHMARK_TERMS = ["demo", "linear_0.1", "linear_0.3", "linear_0.45", *(f"quartic{i}" for i in range(20))]


def _benchmark_wave(which, demo_wave, quartic_terms):
    """The wave of one of the benchmark's 24 terms: the demo, three
    piecewise-linear terms and the 20 quartics."""
    if which == "demo":
        return demo_wave
    if which.startswith("quartic"):
        return _solve_wave(quartic_terms[int(which[7:])])
    return _solve_wave(bw.piecewise_linear(-1.0, float(which[7:])))


@pytest.mark.parametrize("which", _BENCHMARK_TERMS)
def test_wave_profile_is_nondecreasing(which, demo_wave, quartic_terms):
    """The premise of shift_distance: the profile never decreases, on a
    dense grid over both exponential tails and through the junctions at
    z_lo and z_hi, down to single-ulp steps across them."""
    ws = _benchmark_wave(which, demo_wave, quartic_terms)
    profile = bw.WaveProfile(ws)
    z = [np.linspace(profile.z_lo - 40.0, profile.z_hi + 40.0, 400_001)]
    for end in (profile.z_lo, profile.z_hi):
        z.append(np.linspace(end - 1e-6, end + 1e-6, 2001))
        z.append(end + np.spacing(end) * np.arange(-50, 51))
    z = np.sort(np.concatenate(z))
    assert np.all(np.diff(profile(z)) >= 0.0)


@pytest.mark.parametrize("which", ["demo", "linear_0.45", "quartic8"])
def test_wave_profile_is_the_samples_at_the_nodes(which, demo_wave, quartic_terms):
    """At every sample node the Hermite profile is the sample, bit for bit,
    and its level is the sample at z = 0, the branch point."""
    ws = _benchmark_wave(which, demo_wave, quartic_terms)
    profile = bw.WaveProfile(ws)
    np.testing.assert_array_equal(profile(ws.z_grid), ws.u_values)
    assert profile.a == ws.u_values[ws.z_grid == 0.0][0]


def test_wave_profile_error_against_a_fine_profile(demo, demo_wave):
    """Between the dz = 0.01 samples the profile stays within 1e-9 of the
    same wave sampled at dz = 5e-4 (PCHIP's slope estimates left 2.7e-6)."""
    fine = bw.reconstruct_profile(demo, demo_wave.c_star, dz=5e-4, bracket=demo_wave.bracket)
    inside = (fine.z_grid >= demo_wave.z_grid[0]) & (fine.z_grid <= demo_wave.z_grid[-1])
    error = np.abs(bw.WaveProfile(demo_wave)(fine.z_grid[inside]) - fine.u_values[inside])
    assert error.max() <= 1e-9


@pytest.mark.parametrize("defect", ["over_steep", "negative_slope", "flat", "off_grid"])
def test_wave_profile_refuses_samples_it_cannot_keep_monotone(demo_wave, defect):
    """One slope outside the Fritsch-Carlson disc, a negative slope, two
    equal samples, or samples off a uniform grid through z = 0: the
    constructor raises DegenerateProfile."""
    z, u, w = demo_wave.z_grid.copy(), demo_wave.u_values.copy(), demo_wave.w_values.copy()
    k = int(np.argmax(w))
    if defect == "over_steep":  # alpha = dz*w/du is about 1 at the samples, 4 here
        w[k] *= 4.0
    elif defect == "negative_slope":
        w[k] = -w[k]
    elif defect == "flat":
        u[k + 1] = u[k]
    else:
        z[k] += 1e-3
    ws = dataclasses.replace(demo_wave, z_grid=z, u_values=u, w_values=w)
    with pytest.raises(DegenerateProfile):
        bw.WaveProfile(ws)


def test_wave_profile_at_nan_and_infinities(demo_profile):
    """NaN stays NaN, and the tails reach 0 and 1 at -inf and +inf."""
    out = demo_profile(np.array([math.nan, -math.inf, math.inf, 0.0]))
    assert math.isnan(out[0])
    assert out[1:].tolist() == [0.0, 1.0, 0.3]


def test_run_times_are_step_lattice_times(demo):
    """Each observation and snapshot, and comparison_check's t_at, carries
    the time k*dt of its step k."""
    g = bw.Grid1D(-15.0, 15.0, 0.05, 0.2 * 0.05)  # dt = 0.010000000000000002
    tr = bw.run(demo, np.where(g.x >= 0.0, 1.0, 0.0), g, t_end=4.0, observe_every=0.25, snapshot_times=(1.5, 4.0))
    steps = 25 * np.arange(17)
    assert tr.times.tolist() == (steps * g.dt).tolist()
    assert [s.t for s in tr.snapshots] == [150 * g.dt, 400 * g.dt]
    # At dt = 0.3 the trapezoidal diffusion oscillates, and the ordering
    # breaks worst after 16 steps, where a running sum of dt gives
    # 4.799999999999999.
    g = bw.Grid1D(-10.0, 10.0, 0.1, 0.3)
    lower, upper = np.where(g.x >= 0.5, 1.0, 0.0), np.where(g.x >= -0.5, 1.0, 0.0)
    rep = bw.comparison_check(demo, lower, upper, g, t_end=6.0)
    assert rep.max_violation > 0.0
    assert rep.t_at == 16 * 0.3 == 4.8


def test_default_window_holds_its_end_observation(demo, demo_wave):
    """At the CLI's default dt = 0.2*dx the state after 400 steps is at
    t = 4.000000000000001; the window [t_end/2, t_end] holds it, so both
    fits use the 9 observations from t = 2 to 4."""
    g = bw.Grid1D(-15.0, 15.0, 0.05, 0.2 * 0.05)
    tr = bw.run(demo, np.where(g.x >= 0.0, 1.0, 0.0), g, t_end=4.0, observe_every=0.25, reference=demo_wave)
    assert tr.times[-1] > 4.0
    window = (2.0, 4.0)
    assert simulator._in_window(tr.times, window).tolist() == [False] * 8 + [True] * 9
    slope, _r2 = bw.estimate_speed(tr, window)
    assert slope == simulator._linear_fit(tr.times[8:], tr.front_positions[8:])[0]
    K, _kappa, _r2 = bw.fit_decay(tr, window)
    assert K == math.exp(simulator._linear_fit(tr.times[8:], np.log(tr.shift_distances[8:]))[1])


def test_run_wave_residual_stays_small(demo, demo_wave, demo_profile, grid):
    """The sampled wave is an approximate discrete solution: its best-shift
    distance stays below the discretization-error budget."""
    tr = bw.run(
        demo, lambda x: demo_profile(x), grid, t_end=10.0, observe_every=1.0,
        reference=demo_wave,
    )
    budget = 5.0 * (grid.dx**2 + grid.dt)
    assert np.all(tr.shift_distances <= budget)
    assert np.all(np.isfinite(tr.front_positions))


def test_run_zero_initial_data(demo, demo_wave):
    g = bw.Grid1D(-30.0, 30.0, 0.1, 0.02)
    tr = bw.run(demo, np.zeros(g.n_nodes), g, t_end=1.0, observe_every=0.5,
                reference=demo_wave)
    assert np.all(np.isnan(tr.front_positions))
    assert any("NoFront" in d for d in tr.diagnostics)
    assert np.all(tr.shift_distances >= 0.9)


def test_scheme_order_residual_halves(demo, demo_wave):
    """Halving dx (with dt proportional) cuts the wave-data residual by at
    least 1.8."""
    prof = bw.WaveProfile(demo_wave)
    residuals = []
    for dx in (0.1, 0.05):
        g = bw.Grid1D(-30.0, 30.0, dx, 0.2 * dx)
        tr = bw.run(demo, lambda x: prof(x), g, t_end=5.0, observe_every=5.0,
                    reference=demo_wave)
        residuals.append(tr.shift_distances[-1])
    assert residuals[0] / residuals[1] >= 1.8


def test_comparison_check_identical_and_fixed_points(demo):
    g = bw.Grid1D(-20.0, 20.0, 0.1, 0.02)
    u = np.where(g.x >= 0.0, 1.0, 0.0).astype(float)
    rep = bw.comparison_check(demo, u, u.copy(), g, t_end=1.0)
    assert rep.max_violation == 0.0
    rep = bw.comparison_check(demo, np.zeros(g.n_nodes), np.ones(g.n_nodes), g, t_end=1.0)
    assert rep.max_violation == 0.0
    with pytest.raises(ValueError):
        bw.comparison_check(demo, np.ones(g.n_nodes), np.zeros(g.n_nodes), g, t_end=1.0)


def test_comparison_check_envelopes(demo, demo_wave):
    g = bw.Grid1D(-30.0, 30.0, 0.05, 0.01)
    p = bw.supersub_params(demo_wave, demo)
    delta = min(p.delta0, demo.a / 4.0, (1.0 - demo.a) / 4.0) / 2.0
    lower = bw.envelope_value(demo_wave, p, "minus", g.x, 0.0, 0.0, delta)
    upper = bw.envelope_value(demo_wave, p, "plus", g.x, 0.0, 0.0, delta)
    rep = bw.comparison_check(demo, lower, upper, g, t_end=5.0)
    assert rep.max_violation <= 10.0 * (g.dx**2 + g.dt)


def test_envelope_waves_bound_profile_at_cstar(demo, demo_wave):
    """At c = c*, the wave built from (alpha_lo, beta_hi) lies below the
    profile and the one from (alpha_hi, beta_lo) lies above, pointwise.

    This is the ordering the phase-plane comparison actually gives (the
    steeper left rate decays faster for z < 0).
    """
    b = bw.slope_bounds(demo)
    c = demo_wave.c_star
    check_wave = bw.EnvelopeWave(
        c=c, rate_left=bw.lambda0_plus(c, b.alpha_lo),
        rate_right=bw.lambda1_minus(c, b.beta_hi), a=demo.a,
    )
    hat_wave = bw.EnvelopeWave(
        c=c, rate_left=bw.lambda0_plus(c, b.alpha_hi),
        rate_right=bw.lambda1_minus(c, b.beta_lo), a=demo.a,
    )
    z = demo_wave.z_grid
    lower = bw.envelope_profile(check_wave, z)
    upper = bw.envelope_profile(hat_wave, z)
    assert np.all(lower <= demo_wave.u_values + 1e-6)
    assert np.all(demo_wave.u_values <= upper + 1e-6)


def test_run_flags_multiple_fronts(demo):
    g = bw.Grid1D(-30.0, 30.0, 0.1, 0.02)
    u0 = np.clip(0.3 + 0.2 * np.sin(2.0 * np.pi * g.x / 30.0), 0.0, 1.0)
    tr = bw.run(demo, u0, g, t_end=0.1, observe_every=0.05)
    assert any("MultipleFronts" in d for d in tr.diagnostics)


def test_run_rejects_bad_arguments(demo, grid):
    with pytest.raises(ValueError):
        bw.run(demo, np.zeros(grid.n_nodes), grid, t_end=-1.0, observe_every=0.5)
    with pytest.raises(ValueError):
        bw.run(demo, np.zeros(5), grid, t_end=1.0, observe_every=0.5)
