"""The bracketed root finder shared by both speed searches and the
best-shift search."""

from __future__ import annotations

import gc
import weakref

import pytest

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
