"""The bracketed root finder shared by both speed searches and the
best-shift search, and its equivalence with scipy.optimize.brentq."""

from __future__ import annotations

import gc
import math
import weakref

import pytest
from hypothesis import assume, given, settings, strategies as st
from numpy.polynomial import polynomial as npp
from scipy.optimize import brentq

from bistable_waves.roots import bracketed_root


def _recording(fn):
    """fn, and the list of (x, fn(x)) pairs of every call made to it."""
    calls = []

    def wrapped(x):
        v = fn(x)
        calls.append((x, v))
        return v

    return wrapped, calls


def _kinked(x):
    """Decreasing, with kinks at 0.2, 0.5 and 0.9 and its root at 1/3 + 1/7."""
    root = 1.0 / 3.0 + 1.0 / 7.0
    return -(x - root) - 4.0 * max(0.0, x - 0.5) - 0.5 * min(0.0, x - 0.2) - 10.0 * max(0.0, x - 0.9)


@pytest.mark.parametrize("tol_f", [0.0, 1e-3])
def test_ends_are_not_evaluated_again(tol_f):
    fn, calls = _recording(_kinked)
    bracketed_root(fn, 0.0, 1.0, _kinked(0.0), _kinked(1.0), tol_f, xtol=1e-14)
    assert calls
    assert all(x not in (0.0, 1.0) for x, _ in calls)


@pytest.mark.parametrize("tol_f", [0.0, 1e-3, 0.05])
def test_returns_a_point_it_evaluated(tol_f):
    fn, calls = _recording(_kinked)
    x, v, iterations = bracketed_root(fn, 0.0, 1.0, _kinked(0.0), _kinked(1.0), tol_f, xtol=1e-14)
    assert (x, v) in calls
    assert iterations >= 1


def test_stops_at_the_first_residual_within_tolerance():
    fn, calls = _recording(_kinked)
    x, v, _ = bracketed_root(fn, 0.0, 1.0, _kinked(0.0), _kinked(1.0), 1e-3, xtol=1e-14)
    assert (x, v) == calls[-1]
    assert abs(v) <= 1e-3
    assert all(abs(w) > 1e-3 for _, w in calls[:-1])


def test_end_within_tolerance_is_returned_without_a_call():
    fn, calls = _recording(_kinked)
    assert bracketed_root(fn, 0.0, 1.0, _kinked(0.0), 1e-4, 1e-3, xtol=1e-14)[:2] == (1.0, 1e-4)
    assert calls == []


@pytest.mark.parametrize("xtol", [1e-6, 1e-12])
def test_zero_tolerance_runs_to_xtol_on_a_kinked_function(xtol):
    """With tol_f = 0 only an exact zero stops the search early, so it
    narrows the evaluated sign change around the root to within xtol."""
    root = 1.0 / 3.0 + 1.0 / 7.0
    fn, calls = _recording(_kinked)
    x, v, _ = bracketed_root(fn, 0.0, 1.0, _kinked(0.0), _kinked(1.0), 0.0, xtol=xtol)
    assert abs(x - root) <= xtol
    points = [(0.0, _kinked(0.0)), (1.0, _kinked(1.0)), *calls]
    left = max(p for p, w in points if w > 0.0)
    right = min(p for p, w in points if w < 0.0)
    assert left < root < right
    assert right - left <= 2.0 * xtol


def test_fn_is_released_on_return():
    """fn is freed when bracketed_root returns, not at the next cyclic
    collection: shift_distance's residual holds a state's nodes, and it
    makes one per observation."""

    class Residual:
        def __call__(self, x):
            return _kinked(x)

    fn = Residual()
    ref = weakref.ref(fn)
    gc.disable()
    try:
        bracketed_root(fn, 0.0, 1.0, _kinked(0.0), _kinked(1.0), 0.0, xtol=1e-12)
        del fn
        assert ref() is None
    finally:
        gc.enable()


def _scipy_bracketed_root(fn, lo, hi, f_lo, f_hi, tol_f, xtol):
    """bracketed_root as it was written over scipy.optimize.brentq: the
    same end-value cache and tolerance rule around scipy's own Brent."""
    values = {lo: f_lo, hi: f_hi}

    def g(x):
        v = values.get(x)
        if v is None:
            v = values[x] = fn(x)
        return 0.0 if abs(v) <= tol_f else v

    x, res = brentq(g, lo, hi, xtol=xtol, maxiter=200, full_output=True, disp=False)
    return x, values[x], res.iterations, res.function_calls


@st.composite
def _polynomial_brackets(draw):
    """A polynomial of degree 1-5 with a root inside [lo, hi], and its
    nonzero end values of opposite sign."""
    coefficients = draw(st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=6))
    lo = draw(st.floats(-3.0, 1.0))
    hi = lo + 10.0 ** draw(st.floats(-8.0, 1.0))
    root = draw(st.floats(lo, hi))
    coefficients[0] -= float(npp.polyval(root, coefficients))

    def fn(x):
        return float(npp.polyval(x, coefficients))

    f_lo, f_hi = fn(lo), fn(hi)
    assume(f_lo != 0.0 and f_hi != 0.0 and math.copysign(1.0, f_lo) != math.copysign(1.0, f_hi))
    return fn, lo, hi, f_lo, f_hi


@settings(max_examples=300, deadline=None)
@given(
    bracket=_polynomial_brackets(),
    tol_f=st.sampled_from([0.0, 1e-12, 1e-6]),
    xtol=st.sampled_from([1e-14, 1e-12, 1e-8]),
)
def test_brent_is_scipys_brentq(bracket, tol_f, xtol):
    """The transcription evaluates the points scipy.optimize.brentq does,
    in the same order, and returns its root and iteration count.  Where an
    end is already within tol_f, brentq returns it after one iteration;
    its C routine leaves the count unset on that path, so only ours is
    checked there."""
    fn, lo, hi, f_lo, f_hi = bracket
    fn_ours, ours = _recording(fn)
    fn_scipy, theirs = _recording(fn)
    x, v, iterations = bracketed_root(fn_ours, lo, hi, f_lo, f_hi, tol_f, xtol)
    x_ref, v_ref, iterations_ref, calls_ref = _scipy_bracketed_root(fn_scipy, lo, hi, f_lo, f_hi, tol_f, xtol)
    assert ours == theirs
    assert (x, v) == (x_ref, v_ref)
    assert iterations == (1 if calls_ref == 2 else iterations_ref)


@pytest.mark.parametrize("nan_at", ["lo", "hi", "third call"])
def test_nan_raises_as_brentq_does(nan_at):
    """A NaN end value or residual raises brentq's ValueError, after the
    same calls."""
    calls = []

    def fn(x):
        calls.append(x)
        return math.nan if len(calls) == 3 else _kinked(x)

    f_lo = math.nan if nan_at == "lo" else _kinked(0.0)
    f_hi = math.nan if nan_at == "hi" else _kinked(1.0)
    with pytest.raises(ValueError) as ref:
        _scipy_bracketed_root(fn, 0.0, 1.0, f_lo, f_hi, 0.0, 1e-12)
    calls_ref, calls[:] = calls[:], []
    with pytest.raises(ValueError) as exc:
        bracketed_root(fn, 0.0, 1.0, f_lo, f_hi, 0.0, 1e-12)
    assert str(exc.value) == str(ref.value)
    assert "is NaN" in str(exc.value)
    assert calls == calls_ref
