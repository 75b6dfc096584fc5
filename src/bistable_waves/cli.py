"""Configuration parsing, subcommands, and deterministic artifact emission.

One JSON config document drives every subcommand.  All artifacts are
byte-deterministic: floats are formatted with 17 significant digits, JSON
field order is fixed, and every JSON artifact embeds the normalized config
and a schema version.

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
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from . import linear_theory, reaction, shooting, simulator
from .errors import (
    BistableWavesError,
    BracketFailure,
    ConfigError,
    DegenerateProfile,
    Divergence,
    InsufficientData,
    NonNegativeSlope,
    NonPositiveDistance,
    NoPositiveRoot,
    PathCollapse,
)

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_HYPOTHESIS = 3
EXIT_SOLVER = 4
EXIT_DIVERGENCE = 5

_COMMANDS = ("check", "bounds", "speed", "profile", "simulate", "stability")
_SWEEPABLE = ("bounds", "speed")
_PRESET_RE = re.compile(r"^piecewise_linear\(\s*([-+0-9.eE]+)\s*,\s*([-+0-9.eE]+)\s*\)$")

_SOLVER_FAILURES = (
    NoPositiveRoot,
    BracketFailure,
    PathCollapse,
    NonNegativeSlope,
    DegenerateProfile,
    InsufficientData,
    NonPositiveDistance,
)


# ---------------------------------------------------------------------------
# Configuration model


@dataclass(frozen=True)
class ReactionConfig:
    a: float
    f0: tuple[float, ...]
    f1: tuple[float, ...]
    branch_rule: str = "right_closed"


def _number(default: float | None, *, positive: bool = True) -> Any:
    """A numeric config field: a finite number, and > 0 unless positive=False."""
    return field(default=default, metadata={"positive": positive})


@dataclass(frozen=True)
class SolverConfig:
    eps: float | None = _number(None)
    tol_phi: float = _number(1e-12)
    tol_c: float = _number(1e-10)
    c1_tol: float = _number(1e-6)
    dz: float = _number(1e-2)
    u_eps: float = _number(1e-4)
    ode_rtol: float = _number(1e-10)


@dataclass(frozen=True)
class GridConfig:
    x_min: float = _number(-60.0, positive=False)
    x_max: float = _number(60.0, positive=False)
    dx: float = _number(0.05)
    dt: float = _number(None)  # None: 0.2*dx
    bc: str = "dirichlet01"

    def __post_init__(self) -> None:
        if self.dt is None:
            object.__setattr__(self, "dt", 0.2 * self.dx)


@dataclass(frozen=True)
class ExperimentConfig:
    t_end: float = _number(40.0)
    observe_every: float = _number(0.5)
    initial_condition: str = "step"
    delta: float = _number(0.05)
    window: tuple[float, float] | None = None
    custom_table: tuple[tuple[float, float], ...] | None = None


@dataclass(frozen=True)
class OutputConfig:
    directory: str = "out"
    snapshot_times: tuple[float, ...] = ()


@dataclass(frozen=True)
class RunConfig:
    reaction: ReactionConfig
    solver: SolverConfig = field(default_factory=SolverConfig)
    grid: GridConfig = field(default_factory=GridConfig)
    experiment: ExperimentConfig = field(default_factory=ExperimentConfig)
    output: OutputConfig = field(default_factory=OutputConfig)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["reaction"]["f0"] = list(d["reaction"]["f0"])
        d["reaction"]["f1"] = list(d["reaction"]["f1"])
        exp = d["experiment"]
        if exp["window"] is not None:
            exp["window"] = list(exp["window"])
        if exp["custom_table"] is not None:
            exp["custom_table"] = [list(p) for p in exp["custom_table"]]
        d["output"]["snapshot_times"] = list(d["output"]["snapshot_times"])
        return d


def build_term(rc: ReactionConfig) -> reaction.ReactionTerm:
    return reaction.ReactionTerm(
        a=rc.a,
        f0=reaction.BranchPoly(rc.f0, 0.0, rc.a),
        f1=reaction.BranchPoly(rc.f1, rc.a, 1.0),
        branch_rule=rc.branch_rule,  # type: ignore[arg-type]
    )


# ---------------------------------------------------------------------------
# Parsing and validation


def _expand_reaction(entry: Any, errs: list[tuple[str, str]]) -> ReactionConfig | None:
    if isinstance(entry, str):
        if entry == "quadratic_demo":
            t = reaction.quadratic_demo()
            return ReactionConfig(t.a, t.f0.coefficients, t.f1.coefficients, t.branch_rule)
        m = _PRESET_RE.match(entry)
        if m:
            try:
                k, a = float(m.group(1)), float(m.group(2))
            except ValueError:
                errs.append(("reaction", f"cannot parse preset arguments in {entry!r}"))
                return None
            if not k < 0:
                errs.append(("reaction", f"piecewise_linear slope k={k} must be negative"))
                return None
            if not 0.0 < a < 1.0:
                errs.append(("reaction", f"piecewise_linear a={a} must lie in (0, 1)"))
                return None
            t = reaction.piecewise_linear(k, a)
            return ReactionConfig(t.a, t.f0.coefficients, t.f1.coefficients, t.branch_rule)
        errs.append(("reaction", f"unknown preset {entry!r}"))
        return None
    if not isinstance(entry, dict):
        errs.append(("reaction", "must be a preset string or an object"))
        return None
    ok = True
    a = entry.get("a")
    if not isinstance(a, (int, float)) or not 0.0 < float(a) < 1.0:
        errs.append(("reaction.a", f"branch point {a!r} must be a number in (0, 1)"))
        ok = False
    coeffs: dict[str, tuple[float, ...]] = {}
    for name in ("f0", "f1"):
        c = entry.get(name)
        if (
            not isinstance(c, list)
            or len(c) == 0
            or not all(isinstance(v, (int, float)) and math.isfinite(v) for v in c)
        ):
            errs.append((f"reaction.{name}", "must be a non-empty list of finite numbers"))
            ok = False
        else:
            coeffs[name] = tuple(float(v) for v in c)
    rule = entry.get("branch_rule", "right_closed")
    if rule not in ("left_closed", "right_closed", "average"):
        errs.append(("reaction.branch_rule", f"unknown branch rule {rule!r}"))
        ok = False
    unknown = set(entry) - {"a", "f0", "f1", "branch_rule"}
    if unknown:
        errs.append(("reaction", f"unknown fields {sorted(unknown)}"))
        ok = False
    if not ok:
        return None
    return ReactionConfig(float(a), coeffs["f0"], coeffs["f1"], rule)


def _section(raw: dict, name: str, cls: type, errs: list[tuple[str, str]]) -> tuple[dict, dict]:
    """Read one config section: its raw object, and the values of its
    numeric fields checked against each field's declared limit.  A missing
    field takes its default, as does null where the default is None; an
    invalid one is reported and left out."""
    sec = raw.get(name, {})
    if not isinstance(sec, dict):
        errs.append((name, "must be an object"))
        sec = {}
    declared = fields(cls)
    for key in sorted(set(sec) - {f.name for f in declared}):
        errs.append((f"{name}.{key}", "unknown field"))
    values: dict[str, Any] = {}
    for f in declared:
        if "positive" not in f.metadata:
            continue
        val = sec.get(f.name, f.default)
        if val is None and f.default is None:
            values[f.name] = None
        elif not isinstance(val, (int, float)) or isinstance(val, bool) or not math.isfinite(val):
            errs.append((f"{name}.{f.name}", f"{val!r} is not a finite number"))
        elif f.metadata["positive"] and val <= 0.0:
            errs.append((f"{name}.{f.name}", f"{float(val)} must be > 0"))
        else:
            values[f.name] = float(val)
    return sec, values


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON config document.

    Raises ConfigError carrying every violation found, each with its field
    path.  Defaults are filled in, so serialize(parse(text)) is stable.
    """
    errs: list[tuple[str, str]] = []
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([("<document>", f"not valid JSON: {exc}")]) from exc
    if not isinstance(raw, dict):
        raise ConfigError([("<document>", "top level must be an object")])

    known = {"reaction", "solver", "grid", "experiment", "output"}
    for key in sorted(set(raw) - known):
        errs.append((key, "unknown section"))
    if "reaction" not in raw:
        errs.append(("reaction", "required section missing"))

    rc = _expand_reaction(raw.get("reaction"), errs) if "reaction" in raw else None

    _, solver_values = _section(raw, "solver", SolverConfig, errs)
    solver = SolverConfig(**solver_values)

    g, grid_values = _section(raw, "grid", GridConfig, errs)
    bc = g.get("bc", GridConfig.bc)
    if bc not in ("dirichlet01", "neumann"):
        errs.append(("grid.bc", f"unknown boundary condition {bc!r}"))
        bc = GridConfig.bc
    grid = GridConfig(**grid_values, bc=bc)
    if {"x_min", "x_max", "dx"} <= grid_values.keys():
        try:
            simulator.Grid1D(**asdict(grid))
        except ValueError as exc:  # the domain is empty or not a whole number >= 16 of cells
            errs.append(("grid.dx" if grid.x_min < grid.x_max else "grid.x_min", str(exc)))

    e, experiment_values = _section(raw, "experiment", ExperimentConfig, errs)
    ic = e.get("initial_condition", ExperimentConfig.initial_condition)
    if ic not in ("step", "wave", "wave_plus_delta", "custom_table"):
        errs.append(("experiment.initial_condition", f"unknown initial condition {ic!r}"))
        ic = ExperimentConfig.initial_condition
    window_raw = e.get("window")
    window: tuple[float, float] | None = None
    if window_raw is not None:
        if (
            not isinstance(window_raw, list)
            or len(window_raw) != 2
            or not all(isinstance(v, (int, float)) for v in window_raw)
            or not window_raw[0] < window_raw[1]
        ):
            errs.append(("experiment.window", f"{window_raw!r} must be [lo, hi] with lo < hi"))
        else:
            window = (float(window_raw[0]), float(window_raw[1]))
    table_raw = e.get("custom_table")
    custom_table: tuple[tuple[float, float], ...] | None = None
    if table_raw is not None:
        if (
            not isinstance(table_raw, list)
            or len(table_raw) < 2
            or not all(
                isinstance(p, list) and len(p) == 2
                and all(isinstance(v, (int, float)) and math.isfinite(v) for v in p)
                for p in table_raw
            )
        ):
            errs.append(("experiment.custom_table", "must be a list of >= 2 [x, u] pairs"))
        else:
            xs = [p[0] for p in table_raw]
            if any(b <= a for a, b in zip(xs, xs[1:])):
                errs.append(("experiment.custom_table", "x values must be strictly increasing"))
            else:
                custom_table = tuple((float(p[0]), float(p[1])) for p in table_raw)
    if ic == "custom_table" and custom_table is None and table_raw is None:
        errs.append(("experiment.custom_table", "required when initial_condition=custom_table"))
    experiment = ExperimentConfig(
        **experiment_values, initial_condition=ic, window=window, custom_table=custom_table
    )

    o, _ = _section(raw, "output", OutputConfig, errs)
    directory = o.get("directory", OutputConfig.directory)
    if not isinstance(directory, str) or not directory:
        errs.append(("output.directory", f"{directory!r} must be a non-empty string"))
        directory = OutputConfig.directory
    snaps_raw = o.get("snapshot_times", [])
    snapshot_times: tuple[float, ...] = ()
    if not isinstance(snaps_raw, list) or not all(
        isinstance(v, (int, float)) and math.isfinite(v) for v in snaps_raw
    ):
        errs.append(("output.snapshot_times", "must be a list of finite numbers"))
    else:
        snapshot_times = tuple(float(v) for v in snaps_raw)
    output = OutputConfig(directory=directory, snapshot_times=snapshot_times)

    if solver.u_eps > 1e-3:
        errs.append(("solver.u_eps", f"{solver.u_eps} exceeds the profile truncation cap 1e-3"))

    # Term-dependent limits: dt against the explicit-reaction stability
    # bound, eps against the singular-seed window.
    if rc is not None and not any(path.startswith("grid.d") for path, _ in errs):
        bound = simulator.Grid1D.dt_stability(max(reaction.max_abs_slopes(build_term(rc))))
        if grid.dt > bound:
            errs.append((
                "grid.dt",
                f"dt={grid.dt:.6g} exceeds dt_stability={bound:.6g} "
                f"(={simulator.DT_STABILITY_FACTOR:g}/max(K0,K1))",
            ))
        eps_cap = min(rc.a, 1.0 - rc.a) / 100.0
        if solver.eps is not None and solver.eps > eps_cap:
            errs.append(
                ("solver.eps", f"{solver.eps} exceeds the seed cap min(a, 1-a)/100 = {eps_cap:.6g}")
            )

    if errs:
        raise ConfigError(errs)
    assert rc is not None
    return RunConfig(reaction=rc, solver=solver, grid=grid, experiment=experiment, output=output)


# ---------------------------------------------------------------------------
# Deterministic serialization


def _fmt_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        return "null"
    if x == int(x) and abs(x) < 1e16:
        return repr(int(x)) if float(int(x)) == x else format(x, ".17g")
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
    return _json_text(cfg.to_dict()) + "\n"


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
    out = {"schema_version": SCHEMA_VERSION, "config": cfg.to_dict()}
    out.update(payload)
    return out


def _report_dict(rep: reaction.HypothesisReport) -> dict:
    sb = rep.slope_bounds
    return {
        "h1_ok": rep.h1_ok,
        "h2_ok": rep.h2_ok,
        "h3_ok": rep.h3_ok,
        "h3_integral": rep.h3_integral,
        "remark2_ok": rep.remark2_ok,
        "slope_bounds": None
        if sb is None
        else {
            "alpha_lo": sb.alpha_lo,
            "alpha_hi": sb.alpha_hi,
            "beta_lo": sb.beta_lo,
            "beta_hi": sb.beta_hi,
        },
        "violations": [[h, u, v] for h, u, v in rep.violations[:200]],
    }


def _bracket_dict(br: linear_theory.SpeedBracket) -> dict:
    return {
        "c_check": br.c_check,
        "c_under": br.c_under,
        "c_over": br.c_over,
        "c_hat": br.c_hat,
        "ordering_ok": br.ordering_ok,
    }


def _initial_profile(cfg: RunConfig, ws: shooting.WaveSolution) -> Any:
    ic = cfg.experiment.initial_condition
    if ic == "step":
        return lambda x: np.where(x >= 0.0, 1.0, 0.0)
    if ic == "wave":
        prof = simulator.WaveProfile(ws)
        return lambda x: prof(x)
    if ic == "wave_plus_delta":
        prof = simulator.WaveProfile(ws)
        delta = cfg.experiment.delta
        return lambda x: prof(x) + delta
    table = cfg.experiment.custom_table
    assert table is not None
    xs = np.array([p[0] for p in table])
    us = np.array([p[1] for p in table])
    return lambda x: np.interp(x, xs, us)


def _write_phase_csvs(
    outdir: Path,
    f: reaction.ReactionTerm,
    bounds: reaction.SlopeBounds,
    speeds: dict[str, float],
    solver: SolverConfig,
) -> None:
    """Phase-plane CSVs (u, w) of shooting paths with the bounding linear
    paths, one file per labelled speed."""
    for tag, c in speeds.items():
        rows: list[list[Any]] = []
        for side in ("left", "right"):
            path = shooting.shoot_half(f, side, c, eps=solver.eps, rtol=solver.ode_rtol)
            if side == "left":
                env_lo = linear_theory.lambda0_plus(c, bounds.alpha_hi) * path.u
                env_hi = linear_theory.lambda0_plus(c, bounds.alpha_lo) * path.u
            else:
                env_lo = linear_theory.lambda1_minus(c, bounds.beta_hi) * (path.u - 1.0)
                env_hi = linear_theory.lambda1_minus(c, bounds.beta_lo) * (path.u - 1.0)
            rows.extend(
                [side, u, w, lo, hi]
                for u, w, lo, hi in zip(path.u, path.w, env_lo, env_hi)
            )
        _write_csv(outdir / f"phase_{tag}.csv", ["side", "u", "w", "w_env_lo", "w_env_hi"], rows)


def _bracket(
    term: reaction.ReactionTerm, bounds: reaction.SlopeBounds | None, solver: SolverConfig
) -> tuple[reaction.SlopeBounds, linear_theory.SpeedBracket]:
    """Bracket stage: the speeds of the four envelope waves.

    ``bounds`` are the audit's.  Without them (a sweep row runs no audit,
    or the audit found a secant slope >= 0) they are computed here, which
    raises NonNegativeSlope in the latter case.
    """
    if bounds is None:
        bounds = reaction.slope_bounds(term)
    return bounds, linear_theory.speed_bracket(bounds, term.a, tol=solver.tol_phi)


def _speed(
    term: reaction.ReactionTerm,
    bracket: linear_theory.SpeedBracket,
    solver: SolverConfig,
    *,
    check_monotone: bool = True,
    details: dict | None = None,
) -> float:
    """Speed stage: shoot for c* inside the bracket."""
    return shooting.find_speed(
        term,
        bracket,
        solver.tol_c,
        eps=solver.eps,
        rtol=solver.ode_rtol,
        check_monotone=check_monotone,
        details=details,
    )


def _profile(
    term: reaction.ReactionTerm,
    c_star: float,
    bracket: linear_theory.SpeedBracket,
    solver: SolverConfig,
) -> shooting.WaveSolution:
    """Profile stage: the sampled C^1 wave at c*."""
    return shooting.reconstruct_profile(
        term,
        c_star,
        u_eps=solver.u_eps,
        dz=solver.dz,
        bracket=bracket,
        eps=solver.eps,
        rtol=solver.ode_rtol,
    )


def _simulate(
    cfg: RunConfig, term: reaction.ReactionTerm, ws: shooting.WaveSolution
) -> tuple[simulator.Grid1D, simulator.Trajectory]:
    """Simulate stage: evolve the configured initial data on the configured
    grid, observing the front and the distance to the wave."""
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
        _initial_profile(cfg, ws),
        grid,
        ec.t_end,
        ec.observe_every,
        reference=ws,
        snapshot_times=cfg.output.snapshot_times,
    )
    return grid, tr


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


def run_command(cmd: str, cfg: RunConfig, out_dir: str | None = None) -> int:
    """Execute one subcommand, writing artifacts to the output directory.

    The commands run prefixes of one chain of stages, audit -> bracket ->
    speed -> profile -> simulate -> fit: each command runs the stages up to
    its own, each once, and writes the artifacts of its own stage.
    """
    if cmd not in _COMMANDS:
        raise ValueError(f"unknown command {cmd!r}")
    outdir = Path(out_dir or cfg.output.directory)
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        return _run_chain(cmd, cfg, outdir)
    except _SOLVER_FAILURES as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except Divergence as exc:
        print(f"simulation divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE


def _run_chain(cmd: str, cfg: RunConfig, outdir: Path) -> int:
    solver = cfg.solver
    term = build_term(cfg.reaction)
    report = reaction.check_hypotheses(term)
    if cmd == "check":
        _write_json(outdir / "check.json", _artifact(cfg, report=_report_dict(report)))
        return EXIT_OK if report.admissible else EXIT_HYPOTHESIS
    if not report.admissible:
        print(
            f"hypothesis audit failed (h1={report.h1_ok}, h2={report.h2_ok}, "
            f"h3={report.h3_ok})",
            file=sys.stderr,
        )
        return EXIT_HYPOTHESIS

    bounds, bracket = _bracket(term, report.slope_bounds, solver)
    if cmd == "bounds":
        _write_json(outdir / "bounds.json", _artifact(cfg, bracket=_bracket_dict(bracket)))
        _write_csv(
            outdir / "bounds.csv",
            ["c_check", "c_under", "c_over", "c_hat", "ordering_ok"],
            [[bracket.c_check, bracket.c_under, bracket.c_over, bracket.c_hat, bracket.ordering_ok]],
        )
        return EXIT_OK

    details: dict[str, Any] = {}
    c_star = _speed(term, bracket, solver, details=details)
    if cmd == "speed":
        _write_json(
            outdir / "speed.json",
            _artifact(
                cfg,
                c_star=c_star,
                bracket=_bracket_dict(bracket),
                derivative_jump=abs(details["residual"]),  # S(c*), where find_speed stopped
                iterations=details.get("iterations", 0),
            ),
        )
        return EXIT_OK

    ws = _profile(term, c_star, bracket, solver)
    if cmd == "profile":
        _write_csv(
            outdir / "profile.csv",
            ["z", "u", "w"],
            list(zip(ws.z_grid, ws.u_values, ws.w_values)),
        )
        _write_phase_csvs(
            outdir,
            term,
            bounds,
            {
                "c0": 0.0,
                "c_check": bracket.c_check,
                "c_under": bracket.c_under,
                "c_over": bracket.c_over,
                "c_hat": bracket.c_hat,
                "c_star": c_star,
            },
            solver,
        )
        _write_json(
            outdir / "profile.json",
            _artifact(
                cfg,
                c_star=c_star,
                bracket=_bracket_dict(bracket),
                derivative_jump=ws.derivative_jump_at_0,
                c1_ok=shooting.verify_c1(ws, solver.c1_tol),
                z_min=float(ws.z_grid[0]),
                z_max=float(ws.z_grid[-1]),
                n_samples=int(len(ws.z_grid)),
            ),
        )
        return EXIT_OK

    grid, tr = _simulate(cfg, term, ws)
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
    if leaf not in node or not isinstance(node[leaf], (int, float)) or isinstance(node[leaf], bool):
        raise ConfigError([(path, "not a numeric leaf of the configuration")])
    node[leaf] = value


def _sweep_row(cfg: RunConfig, cmd: str, parameter: str, value: float) -> dict:
    row: dict[str, Any] = {"parameter": parameter, "value": value, "status": "ok"}
    try:
        doc = cfg.to_dict()
        _set_by_path(doc, parameter, value)
        row_cfg = parse_config(_json_text(doc))
        term = build_term(row_cfg.reaction)
        # No audit gate here: a row fails with the solver error it actually
        # hits (e.g. NoPositiveRoot at the degenerate boundary).
        _, bracket = _bracket(term, None, row_cfg.solver)
        row.update(_bracket_dict(bracket))
        if cmd == "speed":
            row["c_star"] = _speed(term, bracket, row_cfg.solver, check_monotone=False)
    except BistableWavesError as exc:
        row["status"] = type(exc).__name__
    return row


def sweep(cfg: RunConfig, parameter: str, values: Sequence[float], cmd: str = "speed") -> list[dict]:
    """Independent solves over a numeric config leaf, one row per value.

    Each row runs the bracket stage, and for ``speed`` the speed stage, on
    the config with the leaf set to the value.  Rows run in input order;
    a failing row gets its error class in the status column.
    """
    if cmd not in _SWEEPABLE:
        raise ConfigError([("sweep", f"command {cmd!r} is not sweepable; use one of {_SWEEPABLE}")])
    _set_by_path(cfg.to_dict(), parameter, 0.0)  # path must be a numeric leaf
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
    except ConfigError as exc:
        for path, msg in exc.violations:
            print(f"config error at {path}: {msg}", file=sys.stderr)
        return EXIT_VALIDATION

    if args.sweep is not None:
        if "=" not in args.sweep:
            print("--sweep expects FIELD=V1,V2,...", file=sys.stderr)
            return EXIT_VALIDATION
        field_path, _, raw_vals = args.sweep.partition("=")
        try:
            values = [float(v) for v in raw_vals.split(",") if v.strip() != ""]
        except ValueError:
            print(f"cannot parse sweep values {raw_vals!r}", file=sys.stderr)
            return EXIT_VALIDATION
        try:
            rows = sweep(cfg, field_path.strip(), values, cmd=args.command)
        except ConfigError as exc:
            for path, msg in exc.violations:
                print(f"config error at {path}: {msg}", file=sys.stderr)
            return EXIT_VALIDATION
        outdir = Path(args.out or cfg.output.directory)
        outdir.mkdir(parents=True, exist_ok=True)
        _write_sweep(outdir, cfg, rows)
        return EXIT_OK

    return run_command(args.command, cfg, out_dir=args.out)


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
