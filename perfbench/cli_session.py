"""cli_session: one CLI invocation per operation, each a fresh interpreter,
so interpreter start and import are counted.

check, bounds, speed and profile run on the demo config; simulate and
stability on a shortened demo config, so that the PDE is measured in
pde_stability and not here; then a speed sweep over demo-family values
of a that all have a positive wave, and a bounds sweep over
piecewise_linear(-1, a).  The package has
no `__main__`, so `python -m bistable_waves.cli` does nothing; the
session calls bistable_waves.cli.entrypoint explicitly.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import inputs
from clock import cpu_seconds

HERE = Path(__file__).resolve().parent
ENTRYPOINT = "from bistable_waves.cli import entrypoint; entrypoint()"
TIMEOUT_S = 120

CONFIGS = {
    "demo.json": {"reaction": "quadratic_demo"},
    "short.json": {
        "reaction": "quadratic_demo",
        "grid": {"x_min": -15, "x_max": 15, "dx": 0.05, "dt": 0.01},
        "experiment": {"t_end": 6, "observe_every": 0.25, "window": [3, 6]},
        "output": {"snapshot_times": [3, 6]},
    },
    "linear.json": {"reaction": "piecewise_linear(-1, 0.3)"},
}
SPEED_SWEEP_A = (0.2, 0.3, 0.35)
BOUNDS_SWEEP_A = (0.1, 0.2, 0.3, 0.4, 0.45)

COMMANDS = {
    "check": ["check", "--config", "demo.json"],
    "bounds": ["bounds", "--config", "demo.json"],
    "speed": ["speed", "--config", "demo.json"],
    "profile": ["profile", "--config", "demo.json"],
    "simulate": ["simulate", "--config", "short.json"],
    "stability": ["stability", "--config", "short.json"],
    "speed_sweep": ["speed", "--config", "demo.json", "--sweep", "reaction.a=" + ",".join(map(str, SPEED_SWEEP_A))],
    "bounds_sweep": ["bounds", "--config", "linear.json", "--sweep", "reaction.a=" + ",".join(map(str, BOUNDS_SWEEP_A))],
}
# A round runs each command once and `speed` four times.  The speed runs
# give speed_p50_s several samples, put the median operation inside their
# cluster, and double as the byte-identity check.
ROUND = [f"{name}-{k}" for name in COMMANDS for k in range(1, 5 if name == "speed" else 2)]


@dataclass
class Invocation:
    returncode: int
    out: Path
    stderr: str
    cpu_s: float


def _command(op_name: str) -> str:
    return op_name.rsplit("-", 1)[0]


def _digests(out: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


class CliSession:
    name = "cli_session"
    measures_children = True

    def __init__(self, src: Path, work: Path, tracer=None):
        self.work = work
        self.tracer = tracer
        self.env = dict(os.environ, PYTHONPATH=str(src))
        self.env.pop("BW_THREADS", None)  # the sweep pool takes its default size
        self.round = 0
        self.speed_times: list[float] = []
        self.front_errors: list[float] = []
        self.floors: list[float] = []
        self.artifact_bytes: list[int] = []
        self.first_digests: dict[str, dict[str, str]] = {}

    def _invoke(self, name: str, args: list[str]) -> Invocation:
        out = self.work / f"round{self.round}" / name
        argv = [*args, "--out", str(out)]
        if self.tracer is None:
            cmd = [sys.executable, "-c", ENTRYPOINT, *argv]
        else:
            spans_out = self.work / f"spans-{self.round}-{name}.json"
            prefix = f"{name}.{self.round}."
            cmd = [sys.executable, str(HERE / "traced_cli.py"), str(spans_out), self.tracer.current(), prefix, *argv]
        t0 = cpu_seconds()
        proc = subprocess.run(cmd, cwd=self.work, env=self.env, capture_output=True, text=True, timeout=TIMEOUT_S)
        cpu_s = cpu_seconds() - t0
        if self.tracer is not None:
            self.tracer.load(spans_out)
        return Invocation(proc.returncode, out, proc.stderr[-2000:], cpu_s)

    def setup(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        for name, doc in CONFIGS.items():
            (self.work / name).write_text(json.dumps(doc), encoding="utf-8")
        # One untimed invocation writes the bytecode caches and warms the
        # page cache, which every later invocation reuses.
        warm = subprocess.run(
            [sys.executable, "-c", ENTRYPOINT, "check", "--config", "demo.json", "--out", str(self.work / "warmup")],
            cwd=self.work, env=self.env, capture_output=True, text=True, timeout=TIMEOUT_S,
        )
        if warm.returncode != 0:
            raise RuntimeError(f"warm-up invocation exited {warm.returncode}: {warm.stderr[-2000:]}")

    def operations(self):
        self.round += 1
        return [(name, lambda name=name: self._invoke(name, COMMANDS[_command(name)])) for name in ROUND]

    def check_round(self, results: dict) -> dict[str, list[str]]:
        problems: dict[str, list[str]] = {name: [] for name in results}
        speed_digests: dict[str, dict[str, str]] = {}
        for name, inv in results.items():
            command = _command(name)
            if command == "speed":
                self.speed_times.append(inv.cpu_s)
            if inv.returncode != 0:
                problems[name].append(f"exit code {inv.returncode}: {inv.stderr.strip()[-500:]}")
                continue
            digests = _digests(inv.out)
            self.first_digests.setdefault(command, digests)
            if command == "speed":
                speed_digests[name] = digests
            self.artifact_bytes.append(sum(p.stat().st_size for p in inv.out.iterdir()))
            try:
                problems[name].extend(getattr(self, f"_check_{command}")(inv))
            except (OSError, KeyError, ValueError) as exc:
                problems[name].append(f"unreadable artifact: {exc!r}")
        first = min(speed_digests, default=None)
        for name, digests in speed_digests.items():
            if digests != speed_digests[first]:
                problems[name].append(f"speed artifacts differ from those of {first} on the same config")
        return problems

    # -- per-command checks ---------------------------------------------

    @staticmethod
    def _json(inv: Invocation, name: str) -> dict:
        return json.loads((inv.out / name).read_text(encoding="utf-8"))

    @staticmethod
    def _csv(inv: Invocation, name: str) -> list[dict]:
        with (inv.out / name).open(encoding="utf-8", newline="") as fh:
            return list(csv.DictReader(fh))

    def _check_check(self, inv):
        report = self._json(inv, "check.json")["report"]
        return [] if report["h1_ok"] and report["h2_ok"] and report["h3_ok"] else [f"audit rejected the demo: {report}"]

    def _check_bounds(self, inv):
        bracket = self._json(inv, "bounds.json")["bracket"]
        return [] if bracket["ordering_ok"] else [f"demo bracket not ordered: {bracket}"]

    def _check_speed(self, inv):
        doc = self._json(inv, "speed.json")
        c, br = doc["c_star"], doc["bracket"]
        if not br["c_check"] - 1e-6 <= c <= br["c_hat"] + 1e-6:
            return [f"c*={c!r} outside the bracket [{br['c_check']!r}, {br['c_hat']!r}]"]
        return []

    def _check_profile(self, inv):
        doc = self._json(inv, "profile.json")
        missing = [t for t in ("c0", "c_check", "c_under", "c_over", "c_hat", "c_star")
                   if not (inv.out / f"phase_{t}.csv").is_file()]
        bad = [] if doc["c1_ok"] else [f"profile is not C1: jump {doc['derivative_jump']!r}"]
        return bad + [f"phase_{t}.csv missing" for t in missing]

    def _check_simulate(self, inv):
        doc = self._json(inv, "simulate.json")
        snaps = sorted(p.name for p in inv.out.glob("snapshot_t*.csv"))
        bad = [] if len(snaps) == len(CONFIGS["short.json"]["output"]["snapshot_times"]) else [f"snapshots {snaps}"]
        if doc["n_observations"] != len(self._csv(inv, "trajectory.csv")):
            bad.append("trajectory.csv rows differ from n_observations")
        return bad

    def _check_stability(self, inv):
        doc = self._json(inv, "stability.json")
        self.front_errors.append(abs(doc["speed"] - doc["c_star"]) / doc["c_star"])
        lo, hi = doc["window"]
        late = [float(r["shift_distance"]) for r in self._csv(inv, "trajectory.csv") if lo <= float(r["t"]) <= hi]
        self.floors.append(statistics.median(late))
        return [] if doc["speed"] > 0.0 else [f"front speed {doc['speed']!r} is not positive"]

    def _sweep_rows(self, inv, values) -> tuple[list[dict], list[str]]:
        rows = self._json(inv, "sweep.json")["rows"]
        got = [row["value"] for row in rows]
        return rows, [] if got == list(values) else [f"sweep rows {got} differ from the values asked for"]

    def _check_speed_sweep(self, inv):
        rows, bad = self._sweep_rows(inv, SPEED_SWEEP_A)
        for row in rows:
            if row["status"] != "ok":
                bad.append(f"sweep row a={row['value']} failed: {row['status']}")
            elif not row["c_check"] - 1e-6 <= row["c_star"] <= row["c_hat"] + 1e-6:
                bad.append(f"sweep row a={row['value']}: c*={row['c_star']!r} outside its bracket")
        return bad

    def _check_bounds_sweep(self, inv):
        rows, bad = self._sweep_rows(inv, BOUNDS_SWEEP_A)
        for row in rows:
            want = inputs.closed_form_speed(row["value"])
            for key in ("c_check", "c_under", "c_over", "c_hat"):
                if row["status"] != "ok" or not abs(row[key] - want) <= 1e-7:
                    bad.append(f"sweep row a={row['value']}: {key}={row.get(key)!r}, closed form {want!r}")
        return bad

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        return {
            "speed_p50_s": statistics.median(self.speed_times),
            # The stability command's fitted front speed against its c*.
            "front_speed_rel_err": max(self.front_errors),
            # Its median best-shift distance over the fit window.
            "shift_distance_floor": statistics.median(self.floors),
        }

    def report_lines(self) -> list[str]:
        return [
            f"artifact {name}/{file} sha256 {digest}"
            for name, files in sorted(self.first_digests.items())
            for file, digest in files.items()
        ]
