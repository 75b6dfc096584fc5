"""The one bracketed root finder, behind both speed searches and the
best-shift search.

The envelope matching residual (linear_theory.match_speed) and the
phase-plane mismatch (shooting.find_speed) are monotone in c, and the
balance of the two halves of the sup norm (simulator.shift_distance) is
monotone in the shift.  Once a sign change is bracketed, Brent's method
(Brent, *Algorithms for Minimization without Derivatives*, 1973) converges
superlinearly while never leaving the bracket.
"""

from __future__ import annotations

from typing import Callable

from scipy.optimize import brentq

# Bracket expansion doubles the upper end; no search looks past c = 2**10.
EXPANSION_CAP = 1024.0


def bracketed_root(
    fn: Callable[[float], float],
    lo: float,
    hi: float,
    f_lo: float,
    f_hi: float,
    tol_f: float,
    xtol: float,
) -> tuple[float, float, int]:
    """Root of fn on [lo, hi] by Brent's method, from known end values of
    opposite sign.

    Stops at the first x with |fn(x)| <= tol_f, or once the bracket is
    narrower than about xtol; after 200 iterations it returns its last
    iterate.  The ends are not evaluated again.  Returns
    (x, fn(x), iterations), where x is always a point fn was evaluated at.
    """
    values = {lo: f_lo, hi: f_hi}

    def g(x: float) -> float:
        v = values.get(x)
        if v is None:
            v = values[x] = fn(x)
        # A residual within tolerance reads as an exact zero, which is
        # brentq's signal to stop at x.
        return 0.0 if abs(v) <= tol_f else v

    x, res = brentq(g, lo, hi, xtol=xtol, maxiter=200, full_output=True, disp=False)
    # brentq wraps g in a self-referencing closure, a cycle that would hold
    # fn, and whatever fn holds, until the cyclic collector runs.
    del fn
    return x, values[x], res.iterations
