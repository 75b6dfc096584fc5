"""pde_stability: PDE runs on [-60, 60] to t = 40, one `simulator.run` per
operation.

The reference waves are solved in set-up, so `shooting` shows only in
set-up time.  Four runs at dx = 0.05, dt = 0.01 carry a reference wave
and observe every 0.5: the demo from step data (the C5/C6 experiment),
the demo from wave + 0.05, piecewise_linear(-1, 0.3) from step data and
piecewise_linear(-1, 0.45) from step data, a slow front near a = 1/2
that the lattice can pin.  One more run takes the a = 0.45 step data at
dx = 0.025, dt = 0.005 without a reference, so it is all stepping.
"""

from __future__ import annotations

import statistics

import numpy as np

from bistable_waves import linear_theory, reaction, shooting, simulator

import inputs
from clock import cpu_seconds

T_END = 40.0
OBSERVE_EVERY = 0.5
FIT_WINDOW = (20.0, 40.0)
FLOOR_WINDOW = (10.0, 40.0)
DELTA = 0.05
SLOW_A = 0.45


def _step_data(grid) -> np.ndarray:
    return np.where(grid.x >= 0.0, 1.0, 0.0)


class PdeStability:
    name = "pde_stability"

    def __init__(self):
        self.speed_times: list[float] = []
        self.front_errors: list[float] = []
        self.floors: list[float] = []

    def setup(self) -> None:
        demo = reaction.quadratic_demo()
        linear = reaction.piecewise_linear(-1.0, 0.3)
        slow = reaction.piecewise_linear(-1.0, SLOW_A)
        # Time from the three terms to their speeds, then the waves.
        t0 = cpu_seconds()
        speeds = []
        for term in (demo, linear, slow):
            report = reaction.check_hypotheses(term)
            bracket = linear_theory.speed_bracket(report.slope_bounds, term.a)
            speeds.append((term, bracket, shooting.find_speed(term, bracket)))
        self.speed_times.append(cpu_seconds() - t0)
        demo_wave, linear_wave, slow_wave = (
            shooting.reconstruct_profile(term, c_star, bracket=bracket) for term, bracket, c_star in speeds
        )
        grid = simulator.Grid1D(-60.0, 60.0, 0.05, 0.01)
        fine = simulator.Grid1D(-60.0, 60.0, 0.025, 0.005)
        step, fine_step = _step_data(grid), _step_data(fine)
        perturbed = simulator.WaveProfile(demo_wave)(grid.x) + DELTA
        # name -> (term, initial data, grid, reference wave, speed to compare with)
        self.cases = {
            "demo_step": (demo, step, grid, demo_wave, demo_wave.c_star),
            "demo_wave_plus_delta": (demo, perturbed, grid, demo_wave, demo_wave.c_star),
            "linear_a0.3_step": (linear, step, grid, linear_wave, linear_wave.c_star),
            "linear_a0.45_step": (slow, step, grid, slow_wave, slow_wave.c_star),
            "linear_a0.45_step_dx_half": (slow, fine_step, fine, None, slow_wave.c_star),
        }

    def operations(self):
        return [(name, lambda case=case: self._run(*case)) for name, case in self.cases.items()]

    @staticmethod
    def _run(term, u0, grid, reference, _c_star):
        return simulator.run(term, u0, grid, T_END, OBSERVE_EVERY, reference=reference)

    def check_round(self, results: dict) -> dict[str, list[str]]:
        problems: dict[str, list[str]] = {name: [] for name in results}
        speeds = {}
        for name, tr in results.items():
            _term, _u0, _grid, reference, c_star = self.cases[name]
            # Least-squares slope of the front positions; the front moves
            # toward -x at the wave speed.
            t, x = tr.times, tr.front_positions
            mask = (t >= FIT_WINDOW[0]) & (t <= FIT_WINDOW[1]) & np.isfinite(x)
            speed = -float(np.polyfit(t[mask], x[mask], 1)[0])
            speeds[name] = speed
            rel = abs(speed - c_star) / c_star
            if name in ("demo_step", "linear_a0.3_step") and not rel <= 0.02:
                problems[name].append(f"front speed {speed:.6g} is {rel:.2%} off c*={c_star:.6g}, above 2%")
            if reference is not None:  # the dx = 0.05 runs
                self.front_errors.append(rel)
                d = tr.shift_distances
                if not d[-1] * 10.0 <= d[0]:
                    problems[name].append(f"shift distance fell only from {d[0]:.3g} to {d[-1]:.3g}")
            if name == "demo_step":
                late = (t >= FLOOR_WINDOW[0]) & (t <= FLOOR_WINDOW[1])
                self.floors.append(float(np.median(tr.shift_distances[late])))
        coarse, fine = "linear_a0.45_step", "linear_a0.45_step_dx_half"
        if coarse in speeds and fine in speeds:
            want = inputs.closed_form_speed(SLOW_A)
            err_coarse, err_fine = abs(speeds[coarse] - want), abs(speeds[fine] - want)
            if not err_fine < err_coarse:
                problems[fine].append(
                    f"dx/2 front speed error {err_fine:.3g} is not below the dx one {err_coarse:.3g}"
                )
        return problems

    def metrics(self) -> dict[str, float]:
        return {
            "speed_p50_s": statistics.median(self.speed_times),
            "front_speed_rel_err": max(self.front_errors),
            "shift_distance_floor": statistics.median(self.floors),
        }
