"""Inputs and independent reference values for the workloads.

The references here share no code with the package: the closed-form
speed and wave of equal-slope piecewise-linear terms, and exact
polynomial integrals.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import polynomial as npp

# The seed of the quartic set in tests/conftest.py.
QUARTIC_SEED = 20240817
N_QUARTICS = 20
LINEAR_A = (0.1, 0.3, 0.45)


def random_admissible_quartics(seed: int, n: int = N_QUARTICS):
    """The tests' rejection-sampled quartic terms, drawn in the same order
    from the same generator, so the default seed gives the tests' set.

    Branches are f0 = u*g0(u) and f1 = (u - 1)*g1(u) with cubics g0, g1
    kept below -1e-3, which gives the endpoint and sign conditions; a draw
    is kept when the audit admits it and the bracket ordering holds.
    """
    from bistable_waves import reaction  # src is on the path only once run.py has checked it

    rng = np.random.default_rng(seed)

    def cubic() -> np.ndarray:
        return np.array(
            [-rng.uniform(0.4, 2.0), rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0), rng.uniform(-0.5, 0.5)]
        )

    terms = []
    while len(terms) < n:
        for _ in range(1000):
            a = rng.uniform(0.15, 0.42)
            g0, g1 = cubic(), cubic()
            if npp.polyval(np.linspace(0.0, a, 64), g0).max() >= -1e-3:
                continue
            if npp.polyval(np.linspace(a, 1.0, 64), g1).max() >= -1e-3:
                continue
            term = reaction.ReactionTerm(
                a=a,
                f0=reaction.BranchPoly(tuple(np.concatenate([[0.0], g0])), 0.0, a),
                f1=reaction.BranchPoly(tuple(np.convolve([-1.0, 1.0], g1)), a, 1.0),
            )
            report = reaction.check_hypotheses(term)
            if report.admissible and report.remark2_ok:
                terms.append(term)
                break
        else:
            raise RuntimeError(f"quartic rejection sampling failed for seed {seed}")
    return terms


def closed_form_speed(a: float, k: float = -1.0) -> float:
    """c* of piecewise_linear(k, a): (1 - 2a) sqrt(-k) / sqrt(a (1 - a))."""
    return (1.0 - 2.0 * a) * math.sqrt(-k) / math.sqrt(a * (1.0 - a))


def closed_form_wave(a: float, z: np.ndarray, k: float = -1.0) -> np.ndarray:
    """The exact wave of piecewise_linear(k, a) with u(0) = a: a e^{l0 z}
    for z < 0 and 1 + (a - 1) e^{l1 z} for z >= 0, where l0 > 0 > l1 are
    the roots of l^2 - c l + k = 0 at the closed-form speed."""
    c = closed_form_speed(a, k)
    root = math.sqrt(c * c - 4.0 * k)
    l0, l1 = 0.5 * (c + root), 0.5 * (c - root)
    return np.where(z < 0.0, a * np.exp(l0 * np.minimum(z, 0.0)), 1.0 + (a - 1.0) * np.exp(l1 * np.maximum(z, 0.0)))


def exact_integral(coefficients, lo: float, hi: float) -> float:
    """Integral over [lo, hi] of the polynomial with ascending coefficients."""
    return sum(c * (hi ** (k + 1) - lo ** (k + 1)) / (k + 1) for k, c in enumerate(coefficients))


def potential(term) -> float:
    """Integral of f over [0, 1]."""
    return exact_integral(term.f0.coefficients, 0.0, term.a) + exact_integral(term.f1.coefficients, term.a, 1.0)
