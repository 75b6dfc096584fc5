"""In-memory spans around calls into the package, and the per-layer
metrics derived from them.

A span is (id, name, start, end, parent, count).  `Tracer.instrument`
replaces every public function of the given modules with a wrapper that
records a span around the call.  The package calls its own functions
through module globals and module attributes, which are looked up at
call time, so calls made inside it (run -> step, find_speed ->
speed_mismatch -> shoot_half, cli.run_command -> shooting.find_speed)
nest under their caller without any change to the package.  A name
bound by `from module import name` keeps the original function, so such
calls (shooting's lambda0_plus and lambda1_minus) are not spanned.

Times are `time.perf_counter`, one monotonic clock for every process on
the machine, so spans that a child process writes line up with the
parent's.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import statistics
import threading
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("reaction", "linear_theory", "shooting", "simulator", "cli")

# The CLI child opens its own span per invocation around cli.main.
_NOT_WRAPPED = {"cli.main", "cli.entrypoint"}

# Calls whose span name carries an argument, so that the two phase-plane
# half paths are timed apart.
_TAGS = {
    "shooting.shoot_half": lambda args, kwargs: kwargs.get("side", args[1] if len(args) > 1 else "?"),
}

# Work counts read off a call's result.
_COUNTS = {
    "shooting.reconstruct_profile": lambda result: len(result.z_grid),
    "simulator.run": lambda result: len(result.times),
}


class Tracer:
    """Records spans in memory; thread-aware (the CLI sweep uses a pool)."""

    def __init__(self, id_prefix: str = "", root_parent: str | None = None):
        self.spans: list[tuple[str, str, float, float, str | None, int | None]] = []
        self._prefix = id_prefix
        self._root_parent = root_parent
        self._ids = itertools.count()
        self._stacks: dict[int, list[str]] = {}
        self._main_ident = threading.main_thread().ident

    def current(self) -> str | None:
        """Id of the innermost span open on the calling thread."""
        stack = self._stacks.get(threading.get_ident())
        if stack:
            return stack[-1]
        # A pool worker's first span belongs to whatever the main thread
        # had open when it handed the work off.
        main = self._stacks.get(self._main_ident)
        if main:
            return main[-1]
        return self._root_parent

    def begin(self, name: str) -> tuple[str, str, float, str | None]:
        parent = self.current()
        sid = f"{self._prefix}{next(self._ids)}"
        self._stacks.setdefault(threading.get_ident(), []).append(sid)
        return sid, name, time.perf_counter(), parent

    def end(self, token: tuple[str, str, float, str | None], count: int | None = None) -> None:
        end = time.perf_counter()
        sid, name, start, parent = token
        self._stacks[threading.get_ident()].pop()
        self.spans.append((sid, name, start, end, parent, count))

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def instrument(self, modules) -> None:
        for module in modules:
            layer = module.__name__.rsplit(".", 1)[-1]
            for attr, fn in list(vars(module).items()):
                name = f"{layer}.{attr}"
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__
                    or name in _NOT_WRAPPED
                ):
                    continue
                setattr(module, attr, self._wrap(name, fn))

    def _wrap(self, name: str, fn):
        tag = _TAGS.get(name)
        counter = _COUNTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = self.begin(f"{name}[{tag(args, kwargs)}]" if tag else name)
            count = None
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    count = counter(result)
                return result
            finally:
                self.end(token, count)

        return wrapper

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps(self.spans), encoding="utf-8")

    def load(self, path: Path) -> None:
        self.spans.extend(tuple(s) for s in json.loads(path.read_text(encoding="utf-8")))


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self._tracer = tracer
        self._name = name
        self.id: str | None = None

    def __enter__(self) -> "_Span":
        self._token = self._tracer.begin(self._name)
        self.id = self._token[0]
        return self

    def __exit__(self, *exc) -> None:
        self._tracer.end(self._token)


# ---------------------------------------------------------------------------
# Per-layer metrics

# Mean inclusive time per call, in seconds.
PER_CALL = {
    "reaction.check_hypotheses_s": "reaction.check_hypotheses",
    "reaction.slope_bounds_s": "reaction.slope_bounds",
    "linear_theory.speed_bracket_s": "linear_theory.speed_bracket",
    "shooting.find_speed_s": "shooting.find_speed",
    "shooting.speed_mismatch_s": "shooting.speed_mismatch",
    "shooting.shoot_half_left_s": "shooting.shoot_half[left]",
    "shooting.shoot_half_right_s": "shooting.shoot_half[right]",
    "shooting.reconstruct_profile_s": "shooting.reconstruct_profile",
    "simulator.run_s": "simulator.run",
    "simulator.step_s": "simulator.step",
    "simulator.shift_distance_s": "simulator.shift_distance",
    "cli.import_s": "cli.import",
    "cli.parse_config_s": "cli.parse_config",
    "cli.check_s": "cli.main[check]",
    "cli.bounds_s": "cli.main[bounds]",
    "cli.speed_s": "cli.main[speed]",
    "cli.profile_s": "cli.main[profile]",
    "cli.simulate_s": "cli.main[simulate]",
    "cli.stability_s": "cli.main[stability]",
    "cli.sweep_s": "cli.sweep",
}

# Mean number of `child` spans under each `parent` span.
PER_PARENT = {
    "shooting.mismatch_evals": ("shooting.find_speed", "shooting.speed_mismatch"),
    "simulator.steps": ("simulator.run", "simulator.step"),
}

# Mean of the count recorded from the call's result.
RESULT_COUNTS = {
    "shooting.profile_samples": "shooting.reconstruct_profile",
    "simulator.observations": "simulator.run",
}

ROUND_SPAN = "bench.round"


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans) -> dict[str, float]:
    """Span id -> its duration minus the part its child spans cover."""
    children: dict[str | None, list[tuple[float, float]]] = defaultdict(list)
    for _sid, _name, start, end, parent, _count in spans:
        children[parent].append((start, end))
    return {
        sid: (end - start) - _covered(children.get(sid, []), start, end)
        for sid, _name, start, end, _parent, _count in spans
    }


def layer_metrics(spans, rounds: int, artifact_bytes: list[int]) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as name -> (value, unit).

    A layer the workload never calls reads 0 (no calls, no time)."""
    by_name: dict[str, list] = defaultdict(list)
    parent_of = {}
    name_of = {}
    for span in spans:
        sid, name, _start, _end, parent, _count = span
        by_name[name].append(span)
        parent_of[sid] = parent
        name_of[sid] = name

    def mean(values) -> float:
        values = list(values)
        return statistics.fmean(values) if values else 0.0

    def has_ancestor(sid: str, ancestor: str) -> bool:
        parent = parent_of.get(sid)
        while parent is not None:
            if name_of.get(parent) == ancestor:
                return True
            parent = parent_of.get(parent)
        return False

    out: dict[str, tuple[float, str]] = {}
    for metric, name in PER_CALL.items():
        out[metric] = (mean(end - start for _, _, start, end, _, _ in by_name[name]), "s")
    for metric, (parent, child) in PER_PARENT.items():
        n_parent = len(by_name[parent])
        n_child = sum(1 for s in by_name[child] if has_ancestor(s[0], parent))
        out[metric] = (n_child / n_parent if n_parent else 0.0, "count")
    for metric, name in RESULT_COUNTS.items():
        out[metric] = (mean(s[5] for s in by_name[name]), "count")
    out["cli.artifact_bytes"] = (mean(artifact_bytes), "count")

    own = self_times(spans)
    per_layer = dict.fromkeys(LAYERS, 0.0)
    for sid, name, _start, _end, _parent, _count in spans:
        layer = name.split(".", 1)[0]
        if layer in per_layer and has_ancestor(sid, ROUND_SPAN):
            per_layer[layer] += own[sid]
    for layer, total in per_layer.items():
        out[f"{layer}.self_s"] = (total / rounds, "s")
    return out
