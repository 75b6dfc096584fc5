"""Taylor series of the phase paths, in plain floats.

A phase path solves w dw/du = c w - f(u) with f polynomial, so every piece
of it is a power series whose coefficients follow from a recurrence: at a
saddle the invariant-manifold series (manifold_series), and about any
point with w > 0 a Taylor step (path_step), in both cases with the
reciprocal series of 1/w that bounds the piece and that the profile march
integrates.  Each stops adding terms once its last two terms, and those
of its reciprocal, are within a tolerance at the distance it must cover.
taylor_shift re-expands a branch about a step's start, and
autonomous_series gives the steps of q' = p(q).  series_value evaluates a
series by Horner, and power_table tabulates the powers that a vectorized
evaluation multiplies by.
"""

from __future__ import annotations

import operator

import numpy as np


def manifold_series(
    a1: float, c: float, b: tuple[float, ...], terms: int, distance: float, tol: float
) -> tuple[tuple[float, ...], list[float]]:
    """The Taylor coefficients a_1, a_2, ... of the manifold
    w(d) = sum_k a_k d^k of w dw/dd = c w - b(d), where
    b(d) = sum_n b_n d^n has b_0 = 0 (b_0 is not read) and a_1 > 0 is the
    manifold's linear rate, and e_0 = 1, e_1, ... of the reciprocal series
    1 / r(d) = 1 + sum_k e_k d^k of r(d) = w(d) / (a_1 d) = 1 + sum_k r_k d^k,
    r_k = a_{k+1} / a_1.  The series stop at a_terms and e_{terms-1}, or at
    the first order k whose last two terms of both, |r_{k-1}|, |r_k|,
    |e_{k-1}| and |e_k| times distance^k, are within tol.

    Matching the powers d^n gives, for n >= 2,
    a_n = -(b_n + sum_{k=2}^{n-1} (n + 1 - k) a_k a_{n+1-k}) / ((n + 1) a_1 - c),
    whose denominator is positive.  The terms k and n + 1 - k of the sum
    share a product and their weights add to n + 1, so the sum is
    (n + 1) / 2 times the plain convolution of a_2, ..., a_{n-1} with
    itself reversed.  The reciprocal follows order by order,
    e_k = -sum_{j=1}^k r_j e_{k-j}."""
    upper = []  # a_2, a_3, ...
    e = [1.0]
    power, fits = 1.0, False
    for n in range(2, terms + 1):
        a_n = -((b[n] if n < len(b) else 0.0) + 0.5 * (n + 1) * sum(map(operator.mul, upper, reversed(upper))))
        a_n /= (n + 1) * a1 - c
        upper.append(a_n)
        e_n = -sum(map(operator.mul, upper, reversed(e))) / a1
        e.append(e_n)
        power *= distance
        last_fits = abs(a_n) * power <= tol * a1 and abs(e_n) * power <= tol
        if fits and last_fits:
            break
        fits = last_fits
    return (a1, *upper), e


def series_value(series: tuple[float, ...], d):
    """w(d) = sum_k series[k-1] * d^k at a float or array d, by Horner."""
    w = 0.0
    for coefficient in reversed(series):
        w = (w + coefficient) * d
    return w


def power_table(d: np.ndarray, n: int) -> np.ndarray:
    """The (n, len(d)) table whose row k - 1 is d^k, by doubling: rows
    k ... 2k - 1 are rows 0 ... k - 1 times d^k."""
    powers = np.empty((n, len(d)))
    powers[:1] = d
    k = 1
    while k < n:
        rows = min(k, n - k)
        np.multiply(powers[:rows], powers[k - 1], out=powers[k : k + rows])
        k *= 2
    return powers


def taylor_shift(coefficients: tuple[float, ...], x0: float, direction: float) -> list[float]:
    """The coefficients of t -> p(x0 + direction * t), ascending in t, for
    the polynomial p of the ascending coefficients, by synthetic division:
    each pass of Horner's scheme at x0 over the quotient left by the last
    one peels off the next Taylor coefficient."""
    b = list(coefficients)
    for k in range(len(b) - 1):
        for j in range(len(b) - 2, k - 1, -1):
            b[j] += x0 * b[j + 1]
    scale = 1.0
    for k in range(1, len(b)):
        scale *= direction
        b[k] *= scale
    return b


def path_step(
    w0: float, c: float, g: list[float], rho: float, terms: int, distance: float, tol: float
) -> tuple[list[float], list[float]]:
    """The Taylor coefficients of a phase path about a regular point, in
    x = t / rho: V_0, V_1, ... of V = W / w0 and E_0, E_1, ... of its
    reciprocal 1 / V, where W(t) solves W dW/dt = c W - g(t) from
    W(0) = w0 > 0 and g(t) = sum_k g_k t^k.  Both stop at the index
    terms - 1, or at the first index k whose last two terms of both,
    |V_{k-1}|, |V_k|, |E_{k-1}| and |E_k| times distance^k, are within tol
    (distance in units of rho).

    Matching powers of t in W W' = c W - g gives
    W_{n+1} = (c W_n - g_n - sum_{j=1}^{n} (n + 1 - j) W_j W_{n+1-j}) / ((n + 1) w0).
    The same series follows from W' = c - g / W with one long convolution
    per order instead of two: 1 / W = E / w0 with
    E_n = -sum_{j=1}^{n} V_j E_{n-j}, E_0 = 1, and then
    (n + 1) V_{n+1} = alpha [n = 0] - sum_k G_k E_{n-k}, where
    alpha = c rho / w0 and G_k = g_k rho^(k+1) / w0^2.  The march needs
    1 / W and the step bound both series, so both come out.  rho scales
    the variable so that the coefficients stay of the size of the ratio of
    rho to the series' radius, where those of W in t would overflow as a
    collapsing path's w, and with it the radius, shrinks."""
    alpha = c * rho / w0
    scale = rho / (w0 * w0)
    big_g = []
    for g_k in g:
        big_g.append(g_k * scale)
        scale *= rho
    v = [alpha - big_g[0]]  # V_1, V_2, ...
    e = [1.0]
    power, fits = 1.0, False
    for k in range(1, terms):
        e_k = -sum(map(operator.mul, v, reversed(e)))
        e.append(e_k)
        power *= distance
        last_fits = abs(v[-1]) * power <= tol and abs(e_k) * power <= tol
        if (fits and last_fits) or k == terms - 1:
            break
        fits = last_fits
        v.append(-sum(map(operator.mul, big_g, reversed(e))) / (k + 1))
    return [1.0, *v], e


def autonomous_series(p: tuple[float, ...], q0: float, terms: int) -> list[float]:
    """Q_0, ..., Q_{terms-1} of the solution q(t) = sum_n Q_n t^n of
    q' = p(q), q(0) = q0, for the polynomial p of the ascending
    coefficients: Q_{n+1} = [p(Q)]_n / (n + 1), with p(Q) by Horner's
    scheme on series, H = p_m, then H -> H Q + p_k down to k = 0, each
    coefficient of each H as soon as the coefficients of Q it needs are
    known."""
    q = [q0]
    h = [[] for _ in p]  # h[k]: the coefficients of H_k so far; H_0 = p(Q)
    for n in range(terms - 1):
        h[-1].append(p[-1] if n == 0 else 0.0)
        for k in range(len(p) - 2, -1, -1):
            h[k].append(sum(map(operator.mul, h[k + 1], reversed(q))) + (p[k] if n == 0 else 0.0))
        q.append(h[0][n] / (n + 1))
    return q
