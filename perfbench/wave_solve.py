"""wave_solve: one library call chain per reaction term, from the term to
its sampled wave.

Each operation runs check_hypotheses -> speed_bracket -> find_speed (with
its default monotone spot check) -> reconstruct_profile.  The terms are
the quadratic demo, piecewise_linear(-1, a) for three a, and the tests'
seeded admissible quartics.  `shooting` does nearly all the work and
`simulator` none; the linear terms skip the root search (their bracket
is a single point) and time the profile alone.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

import numpy as np

from bistable_waves import linear_theory, reaction, shooting

import inputs
from clock import cpu_seconds


@dataclass
class Solved:
    bracket: object
    c_star: float
    wave: object
    speed_s: float  # term -> c*: audit, bracket and find_speed


class WaveSolve:
    name = "wave_solve"

    def __init__(self, quartic_seed: int):
        self.quartic_seed = quartic_seed
        self.speed_times: list[float] = []
        self.energy_errors: list[float] = []
        self.linear_distances: list[float] = []

    def setup(self) -> None:
        # name -> (term, a of a piecewise-linear term or None)
        self.terms = {"demo": (reaction.quadratic_demo(), None)}
        for a in inputs.LINEAR_A:
            self.terms[f"linear_a{a}"] = (reaction.piecewise_linear(-1.0, a), a)
        for i, q in enumerate(inputs.random_admissible_quartics(self.quartic_seed)):
            self.terms[f"quartic{i:02d}"] = (q, None)

    def operations(self):
        return [(name, lambda term=term: self._solve(term)) for name, (term, _a) in self.terms.items()]

    @staticmethod
    def _solve(term) -> Solved:
        t0 = cpu_seconds()
        report = reaction.check_hypotheses(term)
        if not report.admissible:
            raise ValueError(f"audit rejected the term: {report.violations[:3]}")
        bracket = linear_theory.speed_bracket(report.slope_bounds, term.a)
        c_star = shooting.find_speed(term, bracket)
        t1 = cpu_seconds()
        wave = shooting.reconstruct_profile(term, c_star, bracket=bracket)
        return Solved(bracket, c_star, wave, t1 - t0)

    def check_round(self, results: dict) -> dict[str, list[str]]:
        problems: dict[str, list[str]] = {}
        for name, solved in results.items():
            bad = problems.setdefault(name, [])
            c, br, wave = solved.c_star, solved.bracket, solved.wave
            self.speed_times.append(solved.speed_s)
            term, a = self.terms[name]
            if a is not None:
                want = inputs.closed_form_speed(a)
                if not abs(c - want) <= 1e-7:
                    bad.append(f"c*={c!r} differs from the closed form {want!r} by more than 1e-7")
                # The sampled wave as a user reads it, by linear
                # interpolation, on a grid ten times finer than its samples.
                z = wave.z_grid
                fine = np.linspace(z[0], z[-1], 10 * (len(z) - 1) + 1)
                read = np.interp(fine, z, wave.u_values)
                self.linear_distances.append(float(np.max(np.abs(read - inputs.closed_form_wave(a, fine)))))
            if not br.c_check - 1e-6 <= c <= br.c_hat + 1e-6:
                bad.append(f"c*={c!r} outside the bracket [{br.c_check!r}, {br.c_hat!r}]")
            # Energy identity of the wave, c* * int_0^1 w du = int_0^1 f du:
            # c* against the speed c_E = int f / int w it implies, as
            # |c* - c_E| / c_E.
            w_integral = float(np.trapezoid(wave.w_values, wave.u_values))
            f_integral = inputs.potential(term)
            energy_err = abs(c * w_integral - f_integral) / abs(f_integral)
            self.energy_errors.append(energy_err)
            if not energy_err <= 1e-5:
                bad.append(f"energy identity off by {energy_err:.3g} (relative), above 1e-5")
            if not wave.derivative_jump_at_0 <= 1e-6:
                bad.append(f"derivative jump {wave.derivative_jump_at_0:.3g} above 1e-6")
            if not np.all(wave.w_values > 0.0):
                bad.append("profile slope w is not positive throughout")
        return problems

    def metrics(self) -> dict[str, float]:
        return {
            "speed_p50_s": statistics.median(self.speed_times),
            # c* against the speed the energy identity gives for its profile.
            "front_speed_rel_err": max(self.energy_errors),
            # Interpolated linear-term waves against their closed form.
            "shift_distance_floor": statistics.median(self.linear_distances),
        }
