"""The one bracketed root finder, behind both speed searches, the phase
paths' collapse point and the best-shift search.

The envelope matching residual (linear_theory.match_speed) and the
phase-plane mismatch (shooting.find_speed) are monotone in c, a collapsing
path's w crosses the floor once on the Taylor step whose end falls through
it (shooting.shoot_half), and the balance of the two halves of the sup
norm (simulator.shift_distance) is monotone in the shift.  Once a sign
change is bracketed, Brent's method (Brent, *Algorithms for Minimization
without Derivatives*, 1973) converges superlinearly while never leaving
the bracket.

The method is _brentq, a transcription of scipy.optimize.brentq's C
routine (scipy/optimize/Zeros/brentq.c) with brentq's default and
smallest rtol.  It evaluates the same points, in the same order, and
returns the same root and iteration count, without importing scipy.

SciPy is distributed under the BSD 3-Clause license:

Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
All rights reserved.

Redistribution and use in source and binary forms, with or without
modification, are permitted provided that the following conditions
are met:

1. Redistributions of source code must retain the above copyright
   notice, this list of conditions and the following disclaimer.

2. Redistributions in binary form must reproduce the above
   copyright notice, this list of conditions and the following
   disclaimer in the documentation and/or other materials provided
   with the distribution.

3. Neither the name of the copyright holder nor the names of its
   contributors may be used to endorse or promote products derived
   from this software without specific prior written permission.

THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
"AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
(INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
"""

from __future__ import annotations

import math
import sys
from typing import Callable

# Bracket expansion doubles the upper end; no search looks past c = 2**10.
EXPANSION_CAP = 1024.0

_RTOL = 4 * sys.float_info.epsilon  # brentq's default, and the smallest it accepts
_MAXITER = 200


def _nan_error(x: float) -> ValueError:
    return ValueError(f"The function value at x={x} is NaN; solver cannot continue.")


def _brentq(
    g: Callable[[float], float], xpre: float, xcur: float, fpre: float, fcur: float, xtol: float
) -> tuple[float, int]:
    """scipy.optimize.brentq(g, xpre, xcur, xtol=xtol, maxiter=200) step for
    step, given g at both ends: returns (root, iterations).  A zero end
    value returns that end after one iteration, the count brentq reports.
    Raises ValueError where brentq does: on a NaN value, or when the end
    values have the same sign bit.  Past 200 iterations it returns the last
    iterate, as brentq does with disp=False.
    """
    fpre, fcur = float(fpre), float(fcur)  # as C reads them
    for x, v in ((xpre, fpre), (xcur, fcur)):
        if math.isnan(v):
            raise _nan_error(x)
    if fpre == 0:
        return xpre, 1
    if fcur == 0:
        return xcur, 1
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for i in range(1, _MAXITER + 1):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + _RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur, i

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                # C gives an infinite or NaN trial step here, which the
                # step test below refuses: the step bisects.
                stry = math.inf
            bound = 3 * abs(sbis) - delta
            if 2 * abs(stry) < (abs(spre) if abs(spre) < bound else bound):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis  # bisect
        else:
            spre = scur = sbis  # bisect

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = float(g(xcur))
        if math.isnan(fcur):
            raise _nan_error(xcur)
    return xcur, _MAXITER


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
    Raises ValueError when fn returns NaN.
    """
    values = {lo: f_lo, hi: f_hi}

    def g(x: float) -> float:
        v = values.get(x)
        if v is None:
            v = values[x] = fn(x)
        # A residual within tolerance reads as an exact zero, which is
        # Brent's signal to stop at x.
        return 0.0 if abs(v) <= tol_f else v

    x, iterations = _brentq(g, float(lo), float(hi), g(lo), g(hi), xtol)
    return x, values[x], iterations
