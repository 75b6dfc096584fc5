"""Configuration parsing, subcommands, and deterministic artifact emission.

One JSON config document drives every subcommand.  Each config field
declares its own parse rule for the JSON shape, reading the library's
choice sets (reaction.BranchRule, simulator.BoundaryKind).  Each numeric
limit is a check of the module that enforces it, and its ValueError is
reported under the field's path; presets are built, and checked, by the
reaction module.  A number is a finite JSON number; booleans are not
numbers.  All artifacts are byte-deterministic: floats are formatted with
17 significant digits, JSON field order is fixed, and every JSON artifact
embeds the normalized config and a schema version.

Exit codes: 0 success, 2 validation failure, 3 hypothesis failure,
4 solver failure, 5 simulation divergence.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import tempfile
from dataclasses import MISSING, asdict, dataclass, field, fields
from functools import partial
from pathlib import Path
from typing import Any, Callable, Collection, Iterator, Sequence, get_args

# Each command is one short process whose largest BLAS calls are far too
# small to thread, and OpenBLAS's worker threads spin from the moment the
# library loads.  So a process that starts here runs numpy's and scipy's
# OpenBLAS on one thread; a value the user set wins, and a process that
# loaded numpy before this module keeps its own threads.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import linear_theory, reaction, shooting, simulator
from .errors import BistableWavesError, ConfigError, Divergence, HypothesisFailure

SCHEMA_VERSION = "2"

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_HYPOTHESIS = 3
EXIT_SOLVER = 4
EXIT_DIVERGENCE = 5

_COMMANDS = ("check", "bounds", "speed", "profile", "simulate", "stability")
_SWEEPABLE = ("bounds", "speed")
_PRESET_RE = re.compile(r"^piecewise_linear\(\s*([-+0-9.eE]+)\s*,\s*([-+0-9.eE]+)\s*\)$")


# ---------------------------------------------------------------------------
# Field rules: each takes a field's JSON value and returns the field's value,
# or raises ValueError with the message reported under the field's path.


def _as_float(val: Any) -> float | None:
    """The one number predicate: val as a float if it is an int or a float,
    not a bool, and finite once converted (an int beyond the float range is
    not); None otherwise."""
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        return None
    try:
        x = float(val)
    except OverflowError:
        return None
    return x if math.isfinite(x) else None


def _as_floats(val: Any) -> tuple[float, ...] | None:
    """val as floats if it is a list of numbers; None otherwise."""
    if not isinstance(val, list):
        return None
    xs = [_as_float(v) for v in val]
    return None if None in xs else tuple(xs)


def _finite(val: Any) -> float:
    x = _as_float(val)
    if x is None:
        raise ValueError(f"{val!r} is not a finite number")
    return x


def _positive(val: Any) -> float:
    x = _finite(val)
    if x <= 0.0:
        raise ValueError(f"{x} must be > 0")
    return x


def _owned(check: Callable[[float], float]) -> Callable[[Any], float]:
    """The rule for a finite number whose limits a library check owns."""
    return lambda val: check(_finite(val))


def _numbers(val: Any, nonempty: bool = False) -> tuple[float, ...]:
    xs = _as_floats(val)
    if xs is None or (nonempty and not xs):
        raise ValueError(f"must be a {'non-empty ' * nonempty}list of finite numbers")
    return xs


def _window(val: Any) -> tuple[float, ...]:
    xs = _as_floats(val)
    if xs is None or len(xs) != 2 or not xs[0] < xs[1]:
        raise ValueError(f"{val!r} must be [lo, hi] with lo < hi")
    return xs


def _table(val: Any) -> tuple[tuple[float, ...], ...]:
    rows = [_as_floats(p) for p in val] if isinstance(val, list) and len(val) >= 2 else [None]
    if None in rows or any(len(r) != 2 for r in rows):
        raise ValueError("must be a list of >= 2 [x, u] pairs")
    if any(b[0] <= a[0] for a, b in zip(rows, rows[1:])):
        raise ValueError("x values must be strictly increasing")
    return tuple(rows)


def _directory(val: Any) -> str:
    if not isinstance(val, str) or not val:
        raise ValueError(f"{val!r} must be a non-empty string")
    return val


def _choice(kind: str, names: Collection[str]) -> Callable[[Any], str]:
    """The rule for one of ``names``: a Literal's get_args, or a table's keys."""

    def parse(val: Any) -> str:
        if not isinstance(val, str) or val not in names:
            raise ValueError(f"unknown {kind} {val!r}")
        return val

    return parse


def _rule(parse: Callable[[Any], Any], default: Any = MISSING) -> Any:
    """A config field read by ``parse``; one without a default is required."""
    return field(default=default, metadata={"parse": parse})


# Initial data u(x, 0) by name, from the experiment and the wave's profile.
_INITIAL_DATA: dict[str, Callable[[Any, simulator.WaveProfile], Callable]] = {
    "step": lambda ec, wave: lambda x: np.where(x >= 0.0, 1.0, 0.0),
    "wave": lambda ec, wave: wave,
    "wave_plus_delta": lambda ec, wave: lambda x: wave(x) + ec.delta,
    "custom_table": lambda ec, wave: lambda x: np.interp(x, *np.transpose(ec.custom_table)),
}


# ---------------------------------------------------------------------------
# Configuration model


@dataclass(frozen=True)
class ReactionConfig:
    a: float = _rule(_owned(reaction._check_branch_point))
    f0: tuple[float, ...] = _rule(partial(_numbers, nonempty=True))
    f1: tuple[float, ...] = _rule(partial(_numbers, nonempty=True))
    branch_rule: str = _rule(_choice("branch rule", get_args(reaction.BranchRule)), "right_closed")


@dataclass(frozen=True)
class SolverConfig:
    tol_c: float = _rule(_positive, 1e-10)
    dz: float = _rule(_owned(shooting._check_dz), 1e-2)
    u_eps: float = _rule(_owned(shooting._check_u_eps), 1e-4)
    ode_rtol: float = _rule(_positive, 1e-10)


@dataclass(frozen=True)
class GridConfig:
    x_min: float = _rule(_finite, -60.0)
    x_max: float = _rule(_finite, 60.0)
    dx: float = _rule(_positive, 0.05)
    dt: float = _rule(_positive, None)  # None: 0.2*dx
    bc: str = _rule(_choice("boundary condition", get_args(simulator.BoundaryKind)), "dirichlet01")

    def __post_init__(self) -> None:
        if self.dt is None:
            object.__setattr__(self, "dt", 0.2 * self.dx)


@dataclass(frozen=True)
class ExperimentConfig:
    t_end: float = _rule(_positive, 40.0)
    observe_every: float = _rule(_positive, 0.5)
    initial_condition: str = _rule(_choice("initial condition", _INITIAL_DATA), "step")
    delta: float = _rule(_positive, 0.05)
    window: tuple[float, float] | None = _rule(_window, None)
    custom_table: tuple[tuple[float, float], ...] | None = _rule(_table, None)


@dataclass(frozen=True)
class OutputConfig:
    directory: str = _rule(_directory, "out")
    snapshot_times: tuple[float, ...] = _rule(_numbers, ())


@dataclass(frozen=True)
class RunConfig:
    reaction: ReactionConfig
    solver: SolverConfig = field(default_factory=SolverConfig)
    grid: GridConfig = field(default_factory=GridConfig)
    experiment: ExperimentConfig = field(default_factory=ExperimentConfig)
    output: OutputConfig = field(default_factory=OutputConfig)


def build_term(rc: ReactionConfig) -> reaction.ReactionTerm:
    return reaction.ReactionTerm(
        a=rc.a,
        f0=reaction.BranchPoly(rc.f0, 0.0, rc.a),
        f1=reaction.BranchPoly(rc.f1, rc.a, 1.0),
        branch_rule=rc.branch_rule,  # type: ignore[arg-type]
    )


# ---------------------------------------------------------------------------
# Parsing and validation


def _section(sec: Any, path: str, cls: type, errs: list[tuple[str, str]]) -> Any:
    """Read one config section into ``cls`` by the rule declared on each field.

    Unknown keys are reported first, sorted, then each field's violation in
    declaration order, under ``path.field``.  A missing field takes its
    default, as does null where the default is None; a field without a
    default is required, and a missing one is read as null.  An invalid
    field is reported and takes its default, so later checks see a whole
    section; the result is None only if a required field is invalid.
    """
    if not isinstance(sec, dict):
        errs.append((path, "must be an object"))
        sec = {}
    declared = fields(cls)
    unknown = sorted(set(sec) - {f.name for f in declared})
    errs.extend((f"{path}.{key}", "unknown field") for key in unknown)
    values: dict[str, Any] = {}
    for f in declared:
        val = sec.get(f.name)
        takes_default = f.default is None if f.name in sec else f.default is not MISSING
        if val is None and takes_default:
            continue
        try:
            values[f.name] = f.metadata["parse"](val)
        except ValueError as exc:
            errs.append((f"{path}.{f.name}", str(exc)))
    if any(f.default is MISSING and f.name not in values for f in declared):
        return None
    return cls(**values)


def _reaction(raw: dict, errs: list[tuple[str, str]]) -> ReactionConfig | None:
    """The reaction section: an object of fields, or a preset string."""
    if "reaction" not in raw:
        errs.append(("reaction", "required section missing"))
        return None
    entry = raw["reaction"]
    if isinstance(entry, dict):
        return _section(entry, "reaction", ReactionConfig, errs)
    try:
        t = _preset(entry)
    except ValueError as exc:
        errs.append(("reaction", str(exc)))
        return None
    return ReactionConfig(t.a, t.f0.coefficients, t.f1.coefficients, t.branch_rule)


def _preset(entry: Any) -> reaction.ReactionTerm:
    """The library term that a preset string names.  ValueError if there is
    none, or if the library rejects the preset's arguments."""
    if not isinstance(entry, str):
        raise ValueError("must be a preset string or an object")
    if entry == "quadratic_demo":
        return reaction.quadratic_demo()
    m = _PRESET_RE.match(entry)
    if m is None:
        raise ValueError(f"unknown preset {entry!r}")
    try:
        return reaction.piecewise_linear(float(m.group(1)), float(m.group(2)))
    except ValueError as exc:
        raise ValueError(f"{entry}: {exc}") from None


def _report(errs: list[tuple[str, str]], path: str, check: Callable, *args: Any, **kwargs: Any) -> None:
    """Run a library check, reporting its ValueError under path."""
    try:
        check(*args, **kwargs)
    except ValueError as exc:
        errs.append((path, str(exc)))


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON config document.

    Raises ConfigError carrying every violation found, each with its field
    path.  Defaults are filled in, so serialize(parse(text)) is stable.
    """
    try:
        raw = json.loads(text)
    except ValueError as exc:  # also an integer literal past Python's digit limit
        raise ConfigError([("<document>", f"not valid JSON: {exc}")]) from exc
    if not isinstance(raw, dict):
        raise ConfigError([("<document>", "top level must be an object")])

    sections = {f.name for f in fields(RunConfig)}
    errs = [(key, "unknown section") for key in sorted(set(raw) - sections)]
    rc = _reaction(raw, errs)
    solver = _section(raw.get("solver", {}), "solver", SolverConfig, errs)

    grid = _section(raw.get("grid", {}), "grid", GridConfig, errs)
    if not {"grid.x_min", "grid.x_max", "grid.dx"} & dict(errs).keys():
        # the domain is empty or not a whole number >= 16 of cells
        _report(errs, "grid.dx" if grid.x_min < grid.x_max else "grid.x_min", simulator.Grid1D, **asdict(grid))
    steps_ok = not any(path.startswith("grid.d") for path, _ in errs)  # grid.dx and grid.dt

    experiment = _section(raw.get("experiment", {}), "experiment", ExperimentConfig, errs)
    ic, table = experiment.initial_condition, experiment.custom_table
    if ic == "custom_table" and table is None:
        if "experiment.custom_table" not in dict(errs):  # else it is reported as invalid
            errs.append(("experiment.custom_table", "required when initial_condition=custom_table"))
    # Initial data lies in the simulator's state band; the wave spans (0, 1).
    if ic == "wave_plus_delta":
        _report(errs, "experiment.delta", simulator._check_state_band, experiment.delta, 1.0 + experiment.delta)
    if ic == "custom_table" and table is not None:
        us = [u for _, u in table]
        _report(errs, "experiment.custom_table", simulator._check_state_band, min(us), max(us))
    # Times lie in the run's span [0, t_end], once t_end is valid, and the
    # run takes at most the simulator's cap of steps, once dt is valid too.
    t_end = None if "experiment.t_end" in dict(errs) else experiment.t_end
    if t_end is not None and steps_ok:
        _report(errs, "experiment.t_end", simulator._check_steps, t_end, grid.dt)
    if t_end is not None and experiment.window is not None:
        _report(errs, "experiment.window", simulator._check_window, experiment.window, t_end)

    output = _section(raw.get("output", {}), "output", OutputConfig, errs)
    if t_end is not None:
        # Each snapshot file is named by its state's time, so no two times
        # may take one state, once the grid's steps are valid.
        dt = grid.dt if steps_ok else None
        _report(errs, "output.snapshot_times", simulator._check_snapshot_times, output.snapshot_times, t_end, dt)

    # The term-dependent limit: dt against the explicit-reaction stability
    # bound, once the grid's steps are valid.
    if rc is not None and steps_ok:
        try:
            lipschitz = max(reaction.max_abs_slopes(build_term(rc)))
        except ValueError as exc:  # a slope beyond the float range
            errs.append(("reaction", f"slopes are not finite: {exc}"))
        else:
            _report(errs, "grid.dt", simulator._check_dt, grid.dt, lipschitz)

    if errs:
        raise ConfigError(errs)
    return RunConfig(reaction=rc, solver=solver, grid=grid, experiment=experiment, output=output)


# ---------------------------------------------------------------------------
# Deterministic serialization


def _fmt_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        return "null"
    if x == int(x) and abs(x) < 1e16:
        return repr(int(x))
    return format(x, ".17g")


def _json_text(obj: Any, indent: int = 0) -> str:
    pad = "  " * indent
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple, np.ndarray)):
        items = [_json_text(v, indent + 1) for v in obj]
        if not items:
            return "[]"
        inner = ",\n".join("  " * (indent + 1) + it for it in items)
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(
            "  " * (indent + 1) + json.dumps(str(k)) + ": " + _json_text(v, indent + 1)
            for k, v in obj.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj)}")


def serialize_config(cfg: RunConfig) -> str:
    return _json_text(asdict(cfg)) + "\n"


def _atomic_write(path: Path, text: str) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_json(path: Path, payload: dict) -> None:
    _atomic_write(path, _json_text(payload) + "\n")


def _csv_cell(v: Any) -> str:
    if isinstance(v, (float, np.floating)):
        x = float(v)
        if math.isnan(x):
            return "nan"
        return format(x, ".17g")
    return str(v)


def _write_csv(path: Path, header: Sequence[str], rows: Sequence[Sequence[Any]]) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_csv_cell(v) for v in row) for row in rows)
    _atomic_write(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Command execution


def _artifact(cfg: RunConfig, **payload: Any) -> dict:
    return {"schema_version": SCHEMA_VERSION, "config": asdict(cfg), **payload}


def _write_phase_csvs(
    outdir: Path,
    f: reaction.ReactionTerm,
    bounds: reaction.SlopeBounds,
    speeds: dict[str, float],
    solver: SolverConfig,
    ws: shooting.WaveSolution,
) -> None:
    """Phase-plane CSVs (u, w) of shooting paths with the bounding linear
    paths, one file per labelled speed, each path's nodes as
    shooting.path_nodes extends them toward its equilibrium; at c_star
    they are the paths the wave ws was marched along."""
    for tag, c in speeds.items():
        rows: list[list[Any]] = []
        if tag == "c_star":
            paths = ws.paths
        else:
            paths = [shooting.shoot_half(f, side, c, rtol=solver.ode_rtol) for side in ("left", "right")]
        for path in paths:
            u_nodes, w_nodes = shooting.path_nodes(path)
            if path.side == "left":
                env_lo = linear_theory.lambda0_plus(c, bounds.alpha_hi) * u_nodes
                env_hi = linear_theory.lambda0_plus(c, bounds.alpha_lo) * u_nodes
            else:
                env_lo = linear_theory.lambda1_minus(c, bounds.beta_hi) * (u_nodes - 1.0)
                env_hi = linear_theory.lambda1_minus(c, bounds.beta_lo) * (u_nodes - 1.0)
            rows.extend(
                [path.side, u, w, lo, hi]
                for u, w, lo, hi in zip(u_nodes, w_nodes, env_lo, env_hi)
            )
        _write_csv(outdir / f"phase_{tag}.csv", ["side", "u", "w", "w_env_lo", "w_env_hi"], rows)


def _stages(cfg: RunConfig) -> Iterator[Any]:
    """The chain of stages on one config, run lazily: each item is one
    stage's result, and a caller takes the prefix it needs.

    Yields (term, audit report), then the speed bracket of the term's
    secant-slope bounds, then (c*, find_speed details), then the sampled
    C^1 wave at c*, then (grid, trajectory) of the run from the configured
    initial data, which observes the front and the distance to the wave.
    Past the audit, a term it rejects raises HypothesisFailure: no later
    stage runs on it.
    """
    solver = cfg.solver
    term = build_term(cfg.reaction)
    report = reaction.check_hypotheses(term)
    yield term, report
    if not report.admissible:
        raise HypothesisFailure(
            f"hypothesis audit failed (h1={report.h1_ok}, h2={report.h2_ok}, h3={report.h3_ok})"
        )
    bracket = linear_theory.speed_bracket(report.slope_bounds, term.a)
    yield bracket
    details: dict[str, Any] = {}
    c_star = shooting.find_speed(term, bracket, solver.tol_c, rtol=solver.ode_rtol, details=details)
    yield c_star, details
    ws = shooting.reconstruct_profile(
        term, c_star, u_eps=solver.u_eps, dz=solver.dz, bracket=bracket, rtol=solver.ode_rtol
    )
    yield ws
    grid = simulator.Grid1D(**asdict(cfg.grid))
    ec = cfg.experiment
    travel = ws.c_star * ec.t_end + 10.0
    if grid.x_min > -travel:
        print(
            f"warning: left margin |x_min|={abs(grid.x_min):.6g} < c*.t_end+10={travel:.6g}; "
            "the front may reach the boundary",
            file=sys.stderr,
        )
    tr = simulator.run(
        term,
        _INITIAL_DATA[ec.initial_condition](ec, simulator.WaveProfile(ws)),
        grid,
        ec.t_end,
        ec.observe_every,
        reference=ws,
        snapshot_times=cfg.output.snapshot_times,
    )
    yield grid, tr


def _fit(cfg: RunConfig, tr: simulator.Trajectory, c_star: float) -> dict:
    """Fit stage: the front speed and the exponential decay rate of the
    distance to the wave over the fit window, as the stability payload."""
    ec = cfg.experiment
    window = ec.window if ec.window is not None else (ec.t_end / 2.0, ec.t_end)
    slope, speed_r2 = simulator.estimate_speed(tr, window)
    K, kappa, r2 = simulator.fit_decay(tr, window)
    speed = -slope  # the front drifts toward -inf under the z = x + c t convention
    return {
        "kappa": kappa,
        "K": K,
        "r2": r2,
        "window": list(window),
        "speed": speed,
        "speed_r2": speed_r2,
        "speed_error_vs_cstar": abs(speed - c_star),
        "c_star": c_star,
    }


def _output_dir(cfg: RunConfig, out_dir: str | None) -> Path:
    """The output directory, --out or the config's, created if missing."""
    outdir = Path(out_dir or cfg.output.directory)
    outdir.mkdir(parents=True, exist_ok=True)
    return outdir


def run_command(cmd: str, cfg: RunConfig, out_dir: str | None = None) -> int:
    """Execute one subcommand, writing artifacts to the output directory.

    The commands run prefixes of one chain of stages (``_stages``), audit ->
    bracket -> speed -> profile -> simulate, then fit: each command runs the
    stages up to its own, each once, and writes the artifacts of its own
    stage.  Past ``check``, a term the audit rejects exits 3.
    """
    if cmd not in _COMMANDS:
        raise ValueError(f"unknown command {cmd!r}")
    try:
        return _run_chain(cmd, cfg, _output_dir(cfg, out_dir))
    except HypothesisFailure as exc:
        print(exc, file=sys.stderr)
        return EXIT_HYPOTHESIS
    except Divergence as exc:
        print(f"simulation divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except BistableWavesError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


def _run_chain(cmd: str, cfg: RunConfig, outdir: Path) -> int:
    stages = _stages(cfg)
    term, report = next(stages)
    if cmd == "check":
        _write_json(outdir / "check.json", _artifact(cfg, report=asdict(report)))
        return EXIT_OK if report.admissible else EXIT_HYPOTHESIS

    bracket = next(stages)
    if cmd == "bounds":
        _write_json(outdir / "bounds.json", _artifact(cfg, bracket=asdict(bracket)))
        _write_csv(
            outdir / "bounds.csv",
            ["c_check", "c_under", "c_over", "c_hat", "ordering_ok"],
            [[bracket.c_check, bracket.c_under, bracket.c_over, bracket.c_hat, bracket.ordering_ok]],
        )
        return EXIT_OK

    c_star, details = next(stages)
    if cmd == "speed":
        _write_json(
            outdir / "speed.json",
            _artifact(
                cfg,
                c_star=c_star,
                bracket=asdict(bracket),
                derivative_jump=abs(details["residual"]),  # S(c*), where find_speed stopped
                iterations=details["iterations"],
            ),
        )
        return EXIT_OK

    ws = next(stages)
    if cmd == "profile":
        _write_csv(
            outdir / "profile.csv",
            ["z", "u", "w"],
            list(zip(ws.z_grid, ws.u_values, ws.w_values)),
        )
        _write_phase_csvs(
            outdir,
            term,
            report.slope_bounds,
            {
                "c0": 0.0,
                "c_check": bracket.c_check,
                "c_under": bracket.c_under,
                "c_over": bracket.c_over,
                "c_hat": bracket.c_hat,
                "c_star": c_star,
            },
            cfg.solver,
            ws,
        )
        _write_json(
            outdir / "profile.json",
            _artifact(
                cfg,
                c_star=c_star,
                bracket=asdict(bracket),
                derivative_jump=ws.derivative_jump_at_0,
                c1_ok=shooting.verify_c1(ws),
                z_min=float(ws.z_grid[0]),
                z_max=float(ws.z_grid[-1]),
                n_samples=int(len(ws.z_grid)),
            ),
        )
        return EXIT_OK

    grid, tr = next(stages)
    _write_csv(
        outdir / "trajectory.csv",
        ["t", "front_position", "shift_distance", "z_best"],
        list(zip(tr.times, tr.front_positions, tr.shift_distances, tr.best_shifts)),
    )
    if cmd == "simulate":
        for snap in tr.snapshots:
            _write_csv(
                outdir / f"snapshot_t{snap.t:g}.csv",
                ["x", "u"],
                list(zip(grid.x, snap.u)),
            )
        _write_json(
            outdir / "simulate.json",
            _artifact(
                cfg,
                c_star=c_star,
                n_observations=int(len(tr.times)),
                diagnostics=tr.diagnostics[:200],
            ),
        )
        return EXIT_OK

    _write_json(outdir / "stability.json", _artifact(cfg, **_fit(cfg, tr, c_star)))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parameter sweeps


def _set_by_path(doc: dict, path: str, value: float) -> None:
    parts = path.split(".")
    node = doc
    for p in parts[:-1]:
        nxt = node.get(p)
        if not isinstance(nxt, dict):
            raise ConfigError([(path, "not a numeric leaf of the configuration")])
        node = nxt
    leaf = parts[-1]
    if _as_float(node.get(leaf)) is None:
        raise ConfigError([(path, "not a numeric leaf of the configuration")])
    node[leaf] = value


def _sweep_row(cfg: RunConfig, cmd: str, parameter: str, value: float) -> dict:
    row: dict[str, Any] = {"parameter": parameter, "value": value, "status": "ok"}
    try:
        doc = asdict(cfg)
        _set_by_path(doc, parameter, value)
        stages = _stages(parse_config(_json_text(doc)))
        next(stages)  # the audit: a term it rejects fails the row as HypothesisFailure
        row.update(asdict(next(stages)))
        if cmd == "speed":
            row["c_star"], _ = next(stages)
    except BistableWavesError as exc:
        row["status"] = type(exc).__name__
    return row


def sweep(cfg: RunConfig, parameter: str, values: Sequence[float], cmd: str = "speed") -> list[dict]:
    """Independent solves over a numeric config leaf, one row per value.

    Each row runs the commands' chain of stages on the config with the
    leaf set to the value, up to the bracket, or to c* for ``speed``: the
    audit gates it as it gates the command.  Rows run in input order; a
    failing row gets its error class in the status column, HypothesisFailure
    for a term the audit rejects.
    """
    if cmd not in _SWEEPABLE:
        raise ConfigError([("sweep", f"command {cmd!r} is not sweepable; use one of {_SWEEPABLE}")])
    _set_by_path(asdict(cfg), parameter, 0.0)  # path must be a numeric leaf
    return [_sweep_row(cfg, cmd, parameter, v) for v in values]


def _write_sweep(outdir: Path, cfg: RunConfig, rows: list[dict]) -> None:
    columns = ["parameter", "value", "status", "c_star", "c_check", "c_under", "c_over", "c_hat", "ordering_ok"]
    csv_rows = [[row.get(col, "") for col in columns] for row in rows]
    _write_csv(outdir / "sweep.csv", columns, csv_rows)
    _write_json(outdir / "sweep.json", _artifact(cfg, rows=[{c: r.get(c) for c in columns} for r in rows]))


# ---------------------------------------------------------------------------
# Entry point


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bistable-waves",
        description="Traveling waves of a bistable reaction-diffusion equation "
        "with a jump nonlinearity",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON config document")
        p.add_argument("--out", default=None, help="output directory (default: config output.directory)")
        p.add_argument(
            "--sweep",
            default=None,
            metavar="FIELD=V1,V2,...",
            help="sweep a numeric config leaf over comma-separated values",
        )
    args = parser.parse_args(argv)

    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        cfg = parse_config(text)
        if args.sweep is None:
            return run_command(args.command, cfg, out_dir=args.out)
        field_path, eq, raw_vals = args.sweep.partition("=")
        if not eq:
            print("--sweep expects FIELD=V1,V2,...", file=sys.stderr)
            return EXIT_VALIDATION
        try:
            values = [float(v) for v in raw_vals.split(",") if v.strip() != ""]
        except ValueError:
            print(f"cannot parse sweep values {raw_vals!r}", file=sys.stderr)
            return EXIT_VALIDATION
        rows = sweep(cfg, field_path.strip(), values, cmd=args.command)
    except ConfigError as exc:
        for path, msg in exc.violations:
            print(f"config error at {path}: {msg}", file=sys.stderr)
        return EXIT_VALIDATION
    _write_sweep(_output_dir(cfg, args.out), cfg, rows)
    return EXIT_OK


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
