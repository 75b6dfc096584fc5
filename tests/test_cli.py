"""Config parsing, artifact emission, exit codes, sweeps, determinism."""

from __future__ import annotations

import itertools
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import asdict, fields
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bistable_waves as bw
from bistable_waves import cli
from bistable_waves.errors import (
    BistableWavesError,
    BracketFailure,
    ConfigError,
    Divergence,
    InsufficientData,
    NoFront,
    NoPositiveRoot,
    PathCollapse,
)
from conftest import closed_form_speed


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_parse_round_trip():
    cfg = cli.parse_config('{"reaction": "quadratic_demo"}')
    assert cfg.reaction.a == 0.3
    assert cfg.grid.dx == 0.05
    assert cfg.grid.dt == pytest.approx(0.01)
    text = cli.serialize_config(cfg)
    again = cli.parse_config(text)
    assert again == cfg
    assert cli.serialize_config(again) == text


def test_parse_inline_reaction():
    cfg = cli.parse_config(
        json.dumps(
            {
                "reaction": {
                    "a": 0.3,
                    "f0": [0, -1, -1],
                    "f1": [0.2, 0.8, -1],
                    "branch_rule": "right_closed",
                }
            }
        )
    )
    term = cli.build_term(cfg.reaction)
    assert term.eval(0.3) == pytest.approx(0.35)


def test_parse_piecewise_linear_preset():
    cfg = cli.parse_config('{"reaction": "piecewise_linear(-1, 0.3)"}')
    term = cli.build_term(cfg.reaction)
    assert term.slope_at_zero == pytest.approx(-1.0)
    assert term.a == pytest.approx(0.3)


def test_unknown_preset_rejected():
    with pytest.raises(ConfigError) as exc:
        cli.parse_config('{"reaction": "unknown_preset"}')
    assert any(path == "reaction" for path, _ in exc.value.violations)


def test_dt_stability_validation():
    with pytest.raises(ConfigError) as exc:
        cli.parse_config(
            json.dumps({"reaction": "quadratic_demo", "grid": {"dt": 5.0}})
        )
    msgs = [msg for path, msg in exc.value.violations if path == "grid.dt"]
    assert msgs and "dt_stability" in msgs[0]
    # demo term: max |f'| = 1.6, bound 1.9/1.6 = 1.1875
    assert "1.1875" in msgs[0]


def test_validation_aggregates_all_violations():
    doc = {
        "reaction": "nope",
        "grid": {"bc": "weird", "dx": -1.0},
        "experiment": {"t_end": -5.0, "initial_condition": "bang"},
        "output": {"directory": ""},
    }
    with pytest.raises(ConfigError) as exc:
        cli.parse_config(json.dumps(doc))
    paths = {path for path, _ in exc.value.violations}
    assert {"reaction", "grid.bc", "grid.dx", "experiment.t_end",
            "experiment.initial_condition", "output.directory"} <= paths


def test_unknown_fields_reported_in_sorted_order():
    # sorted, so the stderr report does not depend on the string hash seed
    doc = {"reaction": "quadratic_demo", "grid": {"zz": 1, "aa": 2, "mm": 3}, "b": 1, "a": 2}
    with pytest.raises(ConfigError) as exc:
        cli.parse_config(json.dumps(doc))
    assert [path for path, _ in exc.value.violations] == ["a", "b", "grid.aa", "grid.mm", "grid.zz"]


@pytest.mark.parametrize(
    "grid, path",
    [
        ({"x_min": 0.0, "x_max": 1.0, "dx": 0.3}, "grid.dx"),  # 3.33 cells
        ({"x_min": 0.0, "x_max": 1.0, "dx": 0.1}, "grid.dx"),  # 10 cells
        ({"x_min": 1.0, "x_max": 0.0, "dx": 0.01}, "grid.x_min"),  # empty domain
    ],
)
def test_grid_cell_count_validated(grid, path):
    doc = {"reaction": "quadratic_demo", "grid": grid, "experiment": {"t_end": -1.0}}
    with pytest.raises(ConfigError) as exc:
        cli.parse_config(json.dumps(doc))
    paths = [p for p, _ in exc.value.violations]
    assert paths.count(path) == 1 and "experiment.t_end" in paths


def test_solver_limits_validated():
    with pytest.raises(ConfigError) as exc:
        cli.parse_config(json.dumps({"reaction": "quadratic_demo", "solver": {"u_eps": 0.1}}))
    assert "solver.u_eps" in {path for path, _ in exc.value.violations}


@pytest.mark.parametrize("knob", ["eps", "tol_phi", "c1_tol"])
def test_retired_solver_knobs_are_unknown_fields(tmp_path, capsys, knob):
    """The seed cap, the envelope matching tolerance and the C^1 tolerance
    are the library's own constants: a config that sets one is refused."""
    cfgp = write_config(tmp_path, {"reaction": "quadratic_demo", "solver": {knob: 1e-6}})
    assert cli.main(["check", "--config", cfgp, "--out", str(tmp_path / "out")]) == 2
    assert f"config error at solver.{knob}: unknown field" in capsys.readouterr().err


def test_every_config_field_is_named_in_the_readme():
    """Each config field is a key of the README's example config or is
    named there as `section.field`."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    example = json.loads(re.search(r"```json\n(.*?)```", readme, re.S).group(1))
    missing = [
        f"{section}.{f.name}"
        for section, cls in get_type_hints(cli.RunConfig).items()
        for f in fields(cls)
        if f.name not in example.get(section, {}) and f"`{section}.{f.name}`" not in readme
    ]
    assert missing == []


@pytest.mark.parametrize("dz", [1000.0, 1e-9])
def test_profile_dz_outside_the_sample_range_is_refused(tmp_path, monkeypatch, capsys, dz):
    """A dz leaving fewer than 1 or more than the cap of march samples per
    side is refused at parse time (exit 2 at solver.dz); no profile is
    attempted, so nothing is allocated."""
    doc = {"reaction": "quadratic_demo", "solver": {"dz": dz}, "output": {"directory": str(tmp_path / "o")}}
    cfgp = write_config(tmp_path, doc)

    def forbidden(*args, **kwargs):
        raise AssertionError("profile reconstructed with an invalid dz")

    monkeypatch.setattr(cli.shooting, "reconstruct_profile", forbidden)
    assert cli.main(["profile", "--config", cfgp]) == 2
    assert "config error at solver.dz" in capsys.readouterr().err


def test_profile_dz_at_the_sample_cap_parses():
    cfg = cli.parse_config(json.dumps({"reaction": "quadratic_demo", "solver": {"dz": 1e-5}}))
    assert cfg.solver.dz == 1e-5


@pytest.mark.parametrize("preset", ["piecewise_linear(-1, 1.3)", "piecewise_linear(-1, 0)"])
def test_preset_branch_point_named(preset):
    with pytest.raises(ConfigError) as exc:
        cli.parse_config(json.dumps({"reaction": preset}))
    [(path, msg)] = exc.value.violations
    assert path == "reaction"
    assert "branch point a=" in msg and "domain" not in msg


def test_invalid_json_document():
    with pytest.raises(ConfigError):
        cli.parse_config("{not json")
    with pytest.raises(ConfigError):
        cli.parse_config("[1, 2]")


_HUGE = 10**400  # an integer literal beyond the float range
_DEMO_OBJECT = {"a": 0.3, "f0": [0, -1, -1], "f1": [0.2, 0.8, -1]}


@pytest.mark.parametrize(
    "doc, path",
    [
        pytest.param({"reaction": {**_DEMO_OBJECT, "f0": [0, True, -1]}}, "reaction.f0", id="bool_in_f0"),
        pytest.param({"experiment": {"window": [True, 5]}}, "experiment.window", id="bool_in_window"),
        pytest.param(
            {"experiment": {"initial_condition": "custom_table", "custom_table": [[0, 0], [1, True]]}},
            "experiment.custom_table",
            id="bool_in_custom_table",
        ),
        pytest.param({"output": {"snapshot_times": [1, False]}}, "output.snapshot_times", id="bool_in_snapshots"),
        pytest.param({"experiment": {"window": [-math.inf, 5]}}, "experiment.window", id="infinite_window"),
        pytest.param({"grid": {"dx": _HUGE}}, "grid.dx", id="huge_int_dx"),
        pytest.param({"reaction": {**_DEMO_OBJECT, "a": _HUGE}}, "reaction.a", id="huge_int_a"),
        pytest.param({"experiment": {"window": [0, _HUGE]}}, "experiment.window", id="huge_int_window"),
        pytest.param({"reaction": "piecewise_linear(-1e400, 0.3)"}, "reaction", id="overflowing_preset"),
        pytest.param({"grid": {"x_min": -1e308, "x_max": 1e308}}, "grid.dx", id="overflowing_cell_count"),
        pytest.param(  # 2e12 cells, which simulate would allocate
            {"grid": {"x_min": -1e6, "x_max": 1e6, "dx": 1e-6, "dt": 1e-7}}, "grid.dx", id="oversized_grid"
        ),
        pytest.param(
            {"reaction": {"a": 0.3, "f0": [0, -1e308, -1e308], "f1": [1e308, -1e308]}},
            "reaction",
            id="overflowing_slope",
        ),
    ],
)
def test_input_defects_rejected_at_their_path(tmp_path, capsys, doc, path):
    """Booleans in number lists, non-finite numbers, integers past the float
    range, overflowing preset or grid arguments and grids past the node cap
    are validation errors under their field's path, not accepted values or
    crashes."""
    text = json.dumps({"reaction": "quadratic_demo", **doc})
    with pytest.raises(ConfigError) as exc:
        cli.parse_config(text)
    assert [p for p, _ in exc.value.violations] == [path]
    cfgp = tmp_path / "config.json"
    cfgp.write_text(text)
    assert cli.main(["check", "--config", str(cfgp), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"config error at {path}: " in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


_DEMO_LIPSCHITZ = max(bw.max_abs_slopes(bw.quadratic_demo()))  # 1.6


@pytest.mark.parametrize(
    "doc, path, check, args",
    [
        pytest.param({"solver": {"u_eps": 0.5}}, "solver.u_eps", bw.shooting._check_u_eps, (0.5,), id="u_eps"),
        pytest.param({"solver": {"dz": 1000}}, "solver.dz", bw.shooting._check_dz, (1000.0,), id="dz"),
        pytest.param({"solver": {"u_eps": 1e-17}}, "solver.u_eps", bw.shooting._check_u_eps, (1e-17,), id="u_eps_on_1"),
        pytest.param({"grid": {"dt": 5.0}}, "grid.dt", bw.simulator._check_dt, (5.0, _DEMO_LIPSCHITZ), id="dt"),
        pytest.param({"experiment": {"t_end": 1e9}}, "experiment.t_end", bw.simulator._check_steps, (1e9, 0.01), id="steps"),
        pytest.param(
            {"grid": {"dt": 1e-300}, "experiment": {"t_end": 1e10}},
            "experiment.t_end",
            bw.simulator._check_steps,
            (1e10, 1e-300),
            id="steps_overflow",
        ),
        pytest.param(
            {"experiment": {"t_end": 2, "window": [5, 9]}},
            "experiment.window",
            bw.simulator._check_window,
            ((5.0, 9.0), 2.0),
            id="window",
        ),
        pytest.param(
            {"experiment": {"t_end": 2}, "output": {"snapshot_times": [0, 1.0, 1.001, 5]}},
            "output.snapshot_times",
            bw.simulator._check_snapshot_times,
            ((0.0, 1.0, 1.001, 5.0), 2.0),
            id="snapshot_times",
        ),
        pytest.param(
            {"experiment": {"initial_condition": "wave_plus_delta", "delta": 0.7}},
            "experiment.delta",
            bw.simulator._check_state_band,
            (0.7, 1.7),
            id="delta",
        ),
        pytest.param(
            {"experiment": {"initial_condition": "custom_table", "custom_table": [[-1, 0], [0, 0.5], [1, 3]]}},
            "experiment.custom_table",
            bw.simulator._check_state_band,
            (0.0, 3.0),
            id="custom_table",
        ),
    ],
)
def test_owned_limit_reported_with_the_owners_message(tmp_path, monkeypatch, capsys, doc, path, check, args):
    """Each numeric limit is checked by the library module that enforces
    it: the violation at the field's path carries exactly the owner's
    ValueError message, and stability exits 2 before any solve runs."""
    with pytest.raises(ValueError) as owner:
        check(*args)
    text = json.dumps({"reaction": "quadratic_demo", **doc})
    with pytest.raises(ConfigError) as exc:
        cli.parse_config(text)
    assert exc.value.violations == [(path, str(owner.value))]

    def forbidden(*args, **kwargs):
        raise AssertionError("a solve ran on an invalid config")

    monkeypatch.setattr(cli.shooting, "find_speed", forbidden)
    cfgp = write_config(tmp_path, json.loads(text))
    assert cli.main(["stability", "--config", cfgp, "--out", str(tmp_path / "out")]) == 2
    assert f"config error at {path}: {owner.value}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "experiment, output",
    [
        ({"t_end": 2, "window": [-5, 0]}, {}),  # meets [0, t_end] at 0
        ({"t_end": 2, "window": [2, 9]}, {}),  # meets it at t_end
        ({"t_end": 2, "initial_condition": "wave_plus_delta", "delta": 0.5}, {"snapshot_times": [0, 2]}),
        ({"initial_condition": "custom_table", "custom_table": [[-1, -0.5], [1, 1.5]]}, {}),
    ],
)
def test_limits_at_their_edges_parse(experiment, output):
    cli.parse_config(json.dumps({"reaction": "quadratic_demo", "experiment": experiment, "output": output}))


def test_time_limits_skipped_when_t_end_is_invalid():
    doc = {"reaction": "quadratic_demo", "experiment": {"t_end": -1, "window": [50, 60]},
           "output": {"snapshot_times": [50]}}
    with pytest.raises(ConfigError) as exc:
        cli.parse_config(json.dumps(doc))
    assert [p for p, _ in exc.value.violations] == ["experiment.t_end"]


def test_overlong_integer_literal_is_invalid_json():
    # json.loads refuses integers of more than 4300 digits with a plain ValueError
    with pytest.raises(ConfigError) as exc:
        cli.parse_config('{"reaction": "quadratic_demo", "grid": {"dx": 1' + "0" * 5000 + "}}")
    assert [p for p, _ in exc.value.violations] == ["<document>"]


_JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 100),
    st.sampled_from([_HUGE, -_HUGE, 10**20]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=4),
)
_JSON_VALUES = st.recursive(_JSON_SCALARS, lambda inner: st.lists(inner, max_size=4), max_leaves=8)
_SMALL = st.floats(1e-9, 1e-3) | st.sampled_from([1e-4, 1e-3])
# A plausible value per section field; whether the document is valid is left
# to the cross-field checks (cell count, dt stability, table).
_PLAUSIBLE = {
    "reaction": {
        "a": st.floats(0.01, 0.99),
        "f0": st.lists(st.floats(-1e3, 1e3) | st.integers(-3, 3), min_size=1, max_size=4),
        "f1": st.lists(st.floats(-1e3, 1e3) | st.integers(-3, 3), min_size=1, max_size=4),
        "branch_rule": st.sampled_from(get_args(bw.reaction.BranchRule)),
    },
    "solver": {f.name: _SMALL for f in fields(cli.SolverConfig)},
    "grid": {
        "x_min": st.sampled_from([-60, -20.0, -10]),
        "x_max": st.sampled_from([20, 60.0]),
        "dx": st.sampled_from([0.05, 0.1, 0.5]),
        "dt": st.floats(1e-4, 2.0),
        "bc": st.sampled_from(get_args(bw.simulator.BoundaryKind)),
    },
    "experiment": {
        "t_end": st.floats(0.1, 100.0),
        "observe_every": st.floats(0.1, 10.0),
        "initial_condition": st.sampled_from(list(cli._INITIAL_DATA)),
        "delta": st.floats(1e-3, 0.5),
        "window": st.lists(st.floats(-1e6, 1e6) | st.integers(0, 9), min_size=2, max_size=2),
        "custom_table": st.lists(st.floats(-50.0, 50.0), min_size=2, max_size=4).map(
            lambda xs: [[x, 0.5] for x in xs]
        ),
    },
    "output": {
        "directory": st.text(min_size=1, max_size=4),
        "snapshot_times": st.lists(st.floats(-1e3, 1e3) | st.integers(0, 9), max_size=3),
    },
}


@st.composite
def _config_documents(draw):
    """A document whose sections are drawn field by field: in about half
    the documents from plausible values only, else also from any JSON value
    (numbers, huge ints, +-Infinity, NaN, booleans, strings, lists, nulls)."""
    junk = draw(st.booleans())
    doc: dict = {}
    for section, rules in _PLAUSIBLE.items():
        values = {k: (v | _JSON_VALUES) if junk else v for k, v in rules.items()}
        if junk:
            values["unknown"] = _JSON_VALUES
        doc[section] = draw(st.fixed_dictionaries({}, optional=values))
    doc["reaction"] = draw(
        st.sampled_from(["quadratic_demo", "piecewise_linear(-1, 0.3)", "piecewise_linear(-1e400, 0.3)", "x"])
        | st.just(doc["reaction"])
    )
    if junk:
        for section in draw(st.lists(st.sampled_from(list(_PLAUSIBLE)), max_size=2)):
            doc[section] = draw(_JSON_VALUES)
    return doc


@settings(max_examples=400, deadline=None)
@given(doc=_config_documents())
def test_parse_config_rejects_only_with_config_error_and_round_trips(doc):
    """Any JSON document either raises ConfigError or parses to a config
    that its own serialization parses back to, with stable text."""
    try:
        cfg = cli.parse_config(json.dumps(doc))
    except ConfigError:
        return
    text = cli.serialize_config(cfg)
    again = cli.parse_config(text)
    assert again == cfg
    assert cli.serialize_config(again) == text


def test_check_command_demo(tmp_path):
    cfgp = write_config(
        tmp_path, {"reaction": "quadratic_demo", "output": {"directory": str(tmp_path / "out")}}
    )
    assert cli.main(["check", "--config", cfgp]) == 0
    rep = json.loads((tmp_path / "out" / "check.json").read_text())
    assert rep["schema_version"] == cli.SCHEMA_VERSION
    assert rep["report"]["h3_integral"] == pytest.approx(0.459 - 1.0 / 3.0, abs=1e-9)
    assert rep["report"]["remark2_ok"] is True
    assert rep["config"]["reaction"]["a"] == 0.3


def _python(*args: str, env: dict[str, str | None] | None = None) -> subprocess.CompletedProcess:
    """A fresh interpreter with this package's source first on its path.
    env sets variables over this process's environment; a None value
    removes the variable."""
    src = str(Path(cli.__file__).resolve().parents[1])
    full = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    for name, value in (env or {}).items():
        if value is None:
            full.pop(name, None)
        else:
            full[name] = value
    return subprocess.run([sys.executable, *args], env=full, capture_output=True, text=True, timeout=300)


def test_package_root_loads_no_numpy():
    """`import bistable_waves` binds the exception types and nothing
    numeric: no numpy, and no submodule but errors."""
    proc = _python(
        "-c",
        "import json, sys, bistable_waves; "
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'bistable_waves'))))",
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == ["bistable_waves", "bistable_waves.errors"]


_ROOT_PROBE = """
import importlib, json, sys
import bistable_waves as bw

own = {}
for name in bw.__all__:
    value = getattr(bw, name)
    module = importlib.import_module(value.__name__ if name == "errors" else value.__module__)
    own[name] = [module.__name__, value is (module if name == "errors" else getattr(module, name))]
star = {}
exec("from bistable_waves import *", star)
print(json.dumps({
    "own": own,
    "star": sorted(k for k in star if k != "__builtins__"),
    "dir": dir(bw),
    "modules": [getattr(bw, m).__name__ for m in ("linear_theory", "reaction", "roots", "shooting", "simulator")],
}))
"""


def test_package_root_resolves_every_name():
    """In a fresh interpreter, every name of __all__ is its submodule's own
    object, `from bistable_waves import *` binds exactly __all__, dir()
    lists every name, and the numeric submodules are attributes of the
    package before anything imported them."""
    proc = _python("-c", _ROOT_PROBE)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert sorted(seen["own"]) == sorted(bw.__all__)
    assert [name for name, (_module, same) in seen["own"].items() if not same] == []
    assert {module for module, _same in seen["own"].values()} == {
        f"bistable_waves.{m}" for m in ("errors", "linear_theory", "reaction", "shooting", "simulator")
    }
    assert seen["star"] == sorted(bw.__all__)
    assert set(bw.__all__) <= set(seen["dir"])
    assert seen["modules"] == [f"bistable_waves.{m}" for m in ("linear_theory", "reaction", "roots", "shooting", "simulator")]
    with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
        bw.not_a_name


@pytest.mark.parametrize(
    ("before", "preset", "want"),
    [
        pytest.param("", None, "1", id="unset"),
        pytest.param("", "3", "3", id="user-value"),
        pytest.param("import numpy; ", None, None, id="numpy-first"),
    ],
)
def test_cli_import_runs_blas_on_one_thread(before, preset, want):
    """Importing the CLI sets OPENBLAS_NUM_THREADS to 1 before numpy loads,
    keeps a value the user set, and leaves a process that loaded numpy
    first as it was."""
    proc = _python(
        "-c",
        f"{before}import json, os, bistable_waves.cli; print(json.dumps(os.environ.get('OPENBLAS_NUM_THREADS')))",
        env={"OPENBLAS_NUM_THREADS": preset},
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == want


def test_blas_thread_count_leaves_artifacts_unchanged(tmp_path):
    """profile on the demo and simulate on a short demo run write the same
    bytes on one BLAS thread (the CLI's default) and on two."""
    demo = write_config(tmp_path, {"reaction": "quadratic_demo"}, "demo.json")
    short = write_config(
        tmp_path,
        {
            "reaction": "quadratic_demo",
            "grid": {"x_min": -15, "x_max": 15},
            "experiment": {"t_end": 2, "observe_every": 0.25},
            "output": {"snapshot_times": [1, 2]},
        },
        "short.json",
    )
    written = {}
    for threads in (None, "2"):
        for cmd, cfgp in (("profile", demo), ("simulate", short)):
            out = tmp_path / f"{cmd}-{threads}"
            proc = _python("-m", "bistable_waves", cmd, "--config", cfgp, "--out", str(out), env={"OPENBLAS_NUM_THREADS": threads})
            assert proc.returncode == 0, proc.stderr
            written[cmd, threads] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    for cmd in ("profile", "simulate"):
        assert len(written[cmd, None]) >= 3
        assert written[cmd, None] == written[cmd, "2"]


def test_overflowing_slope_prints_the_config_error_alone(tmp_path):
    """f0' = -1e308 - 2e308 u overflows.  The branch refuses the infinite
    coefficient without a numpy warning, so check and simulate, each in a
    fresh interpreter whose warnings would reach stderr, print the config
    error line and nothing else."""
    cfgp = write_config(tmp_path, {"reaction": {"a": 0.3, "f0": [0, -1e308, -1e308], "f1": [1, -1]}})
    for cmd in ("check", "simulate"):
        proc = _python("-m", "bistable_waves", cmd, "--config", cfgp, "--out", str(tmp_path / cmd))
        assert proc.returncode == 2
        [line] = proc.stderr.splitlines()
        assert line.startswith("config error at reaction: ")
        assert not (tmp_path / cmd).exists()


def test_module_entry_point(tmp_path):
    """`python -m bistable_waves` and `python -m bistable_waves.cli` run the
    command, as the console script does."""
    cfgp = write_config(tmp_path, {"reaction": "quadratic_demo"})
    for module in ("bistable_waves", "bistable_waves.cli"):
        out = tmp_path / module
        proc = _python("-m", module, "check", "--config", cfgp, "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        rep = json.loads((out / "check.json").read_text())
        assert rep["report"]["h3_ok"] is True


_SCIPY_PROBE = """
import json, sys
from bistable_waves import cli

def scipy_modules():
    return sorted(name for name in sys.modules if name.startswith("scipy"))

seen = [["import", 0, scipy_modules()]]
for label, argv in json.loads(sys.argv[1]):
    seen.append([label, cli.main(argv), scipy_modules()])
print(json.dumps(seen))
"""


def test_wave_commands_run_without_scipy(tmp_path):
    """Importing the CLI, and running check, bounds, speed, profile and both
    sweeps, loads no scipy module; simulate and stability, which need
    scipy's LAPACK, load scipy.linalg and none of scipy.interpolate,
    scipy.integrate or scipy.special, and succeed.  A fresh interpreter,
    since this one has imported scipy already."""
    demo = write_config(tmp_path, {"reaction": "quadratic_demo"}, "demo.json")
    short = write_config(
        tmp_path,
        {"reaction": "quadratic_demo", "grid": {"x_min": -15, "x_max": 15}, "experiment": {"t_end": 1}},
        "short.json",
    )
    fit = write_config(
        tmp_path,
        {"reaction": "quadratic_demo", "grid": {"x_min": -15, "x_max": 15}, "experiment": {"t_end": 4, "observe_every": 0.25}},
        "fit.json",
    )
    runs = [
        [cmd, [cmd, "--config", demo, "--out", str(tmp_path / cmd)]]
        for cmd in ("check", "bounds", "speed", "profile")
    ]
    runs += [
        [f"{cmd} --sweep", [cmd, "--config", demo, "--out", str(tmp_path / f"{cmd}_sweep"), "--sweep", "reaction.a=0.2,0.3"]]
        for cmd in ("speed", "bounds")
    ]
    runs.append(["simulate", ["simulate", "--config", short, "--out", str(tmp_path / "simulate")]])
    runs.append(["stability", ["stability", "--config", fit, "--out", str(tmp_path / "stability")]])
    proc = _python("-c", _SCIPY_PROBE, json.dumps(runs))
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert [(label, code, modules) for label, code, modules in seen[:-2]] == [
        (label, 0, []) for label in ["import", *(r[0] for r in runs[:-2])]
    ]
    for (label, code, modules), want in zip(seen[-2:], ["simulate", "stability"]):
        assert (label, code) == (want, 0)
        assert "scipy.linalg" in modules
        assert not [m for m in modules if m.split(".")[:2] in (["scipy", "interpolate"], ["scipy", "integrate"], ["scipy", "special"])]


def test_check_command_rejects_symmetric(tmp_path):
    cfgp = write_config(
        tmp_path,
        {"reaction": "piecewise_linear(-1, 0.5)", "output": {"directory": str(tmp_path / "out")}},
    )
    assert cli.main(["check", "--config", cfgp]) == 3
    rep = json.loads((tmp_path / "out" / "check.json").read_text())
    assert rep["report"]["h3_ok"] is False
    assert rep["report"]["h3_integral"] == pytest.approx(0.0, abs=1e-12)


def test_bounds_command(tmp_path):
    out = tmp_path / "out"
    cfgp = write_config(
        tmp_path, {"reaction": "quadratic_demo", "output": {"directory": str(out)}}
    )
    assert cli.main(["bounds", "--config", cfgp]) == 0
    doc = json.loads((out / "bounds.json").read_text())
    assert doc["bracket"]["ordering_ok"] is True
    assert doc["bracket"]["c_check"] == pytest.approx(0.3247, abs=1e-3)
    lines = (out / "bounds.csv").read_text().splitlines()
    assert lines[0] == "c_check,c_under,c_over,c_hat,ordering_ok"
    assert len(lines) == 2


def test_speed_command_linear(tmp_path):
    out = tmp_path / "out"
    cfgp = write_config(
        tmp_path,
        {"reaction": "piecewise_linear(-1, 0.3)", "output": {"directory": str(out)}},
    )
    assert cli.main(["speed", "--config", cfgp]) == 0
    doc = json.loads((out / "speed.json").read_text())
    assert doc["c_star"] == pytest.approx(0.872872, abs=1e-6)
    assert doc["derivative_jump"] <= 1e-8


def test_speed_exit_code_solver_failure(tmp_path):
    # H1-H3 pass for this term but the ordering chain fails: the sharp dip
    # of f0 makes the left rate too steep, so the check pairing has no
    # positive matched speed.
    doc = {
        "reaction": {"a": 0.5, "f0": [0, -0.05, -20.0, 40.0], "f1": [2.0, -2.0]},
        "output": {"directory": str(tmp_path / "out")},
    }
    cfgp = write_config(tmp_path, doc)
    rep = bw.check_hypotheses(cli.build_term(cli.parse_config(json.dumps(doc)).reaction))
    assert rep.admissible and not rep.remark2_ok
    assert cli.main(["speed", "--config", cfgp]) == 4


def test_profile_march_failure_exit_code(tmp_path, capsys):
    """A term whose speed solves but whose slow right tail does not reach
    u = 1 - u_eps within the march's z range: profile exits 4 with the
    march's message rather than raising."""
    doc = {
        "reaction": {"a": 0.5, "f0": [0, -1e-4], "f1": [1.2e-4, -1.2e-4]},
        "output": {"directory": str(tmp_path / "out")},
    }
    cfgp = write_config(tmp_path, doc)
    assert cli.main(["speed", "--config", cfgp]) == 0
    capsys.readouterr()
    assert cli.main(["profile", "--config", cfgp]) == 4
    assert capsys.readouterr().err.startswith("solver failure: profile march did not reach u=0.9999")


def test_profile_command(tmp_path, demo_wave):
    out = tmp_path / "out"
    cfgp = write_config(
        tmp_path, {"reaction": "quadratic_demo", "output": {"directory": str(out)}}
    )
    assert cli.main(["profile", "--config", cfgp]) == 0
    lines = (out / "profile.csv").read_text().splitlines()
    assert lines[0] == "z,u,w"
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    assert np.all(np.diff(data[:, 1]) > 0.0)  # u strictly increasing
    i0 = int(np.argmin(np.abs(data[:, 0])))
    assert data[i0, 1] == pytest.approx(0.3, abs=1e-9)
    # each phase path runs from within 1e-6 min(a, 1 - a) of its saddle up to
    # a, ascending in u, with at least 16 rows, also where the manifold series
    # carries it to a
    d_min = 1e-6 * 0.3
    for tag in ("c0", "c_check", "c_under", "c_over", "c_hat", "c_star"):
        phase = [ln.split(",") for ln in (out / f"phase_{tag}.csv").read_text().splitlines()[1:]]
        left = [float(u) for side, u, *_ in phase if side == "left"]
        right = [float(u) for side, u, *_ in phase if side == "right"]
        assert min(left) <= d_min * (1.0 + 1e-12) and max(left) == 0.3
        assert 1.0 - max(right) <= d_min * (1.0 + 1e-12) and min(right) == 0.3
        for u in (left, right):
            assert len(u) >= 16 and np.all(np.diff(u) > 0.0)
    # shooting paths stay between the bounding linear paths, row by row
    rows = (out / "phase_c_star.csv").read_text().splitlines()[1:]
    for row in rows:
        _side, _u, w, w_lo, w_hi = row.split(",")
        assert float(w_lo) - 1e-6 <= float(w) <= float(w_hi) + 1e-6
    summary = json.loads((out / "profile.json").read_text())
    assert summary["c1_ok"] is True
    assert summary["c_star"] == pytest.approx(demo_wave.c_star, abs=1e-8)


def test_profile_writes_phase_c_star_from_the_wave_paths(tmp_path, monkeypatch):
    """profile shoots two paths per mismatch evaluation, two for the wave
    and two for each phase file but phase_c_star.csv, which reads the
    paths the wave was marched along: 24 shoot_half calls on the demo."""
    out = tmp_path / "out"
    cfgp = write_config(tmp_path, {"reaction": "quadratic_demo", "output": {"directory": str(out)}})
    shots, evaluations = [], []
    real_shoot, real_mismatch = cli.shooting.shoot_half, cli.shooting.speed_mismatch

    def counting_shoot(*args, **kwargs):
        shots.append(args)
        return real_shoot(*args, **kwargs)

    def counting_mismatch(*args, **kwargs):
        evaluations.append(args)
        return real_mismatch(*args, **kwargs)

    monkeypatch.setattr(cli.shooting, "shoot_half", counting_shoot)
    monkeypatch.setattr(cli.shooting, "speed_mismatch", counting_mismatch)
    assert cli.main(["profile", "--config", cfgp]) == 0
    assert len(shots) == 2 * len(evaluations) + 2 + 2 * 5 == 24


def test_simulate_and_stability_commands(tmp_path):
    out = tmp_path / "out"
    doc = {
        "reaction": "quadratic_demo",
        "grid": {"x_min": -20.0, "x_max": 20.0, "dx": 0.1, "dt": 0.02},
        "experiment": {"t_end": 6.0, "observe_every": 0.5, "window": [2.0, 6.0]},
        "output": {"directory": str(out), "snapshot_times": [3.0]},
    }
    cfgp = write_config(tmp_path, doc)
    assert cli.main(["simulate", "--config", cfgp]) == 0
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,front_position,shift_distance,z_best"
    assert len(lines) == 14  # observations at t = 0, 0.5, ..., 6
    assert (out / "snapshot_t3.csv").exists()
    assert json.loads((out / "simulate.json").read_text())["n_observations"] == 13

    assert cli.main(["stability", "--config", cfgp]) == 0
    st = json.loads((out / "stability.json").read_text())
    assert st["speed"] > 0.0
    assert st["window"] == [2.0, 6.0]
    assert "kappa" in st and "K" in st and "r2" in st
    assert st["speed_error_vs_cstar"] < 0.05


def test_stability_window_holds_its_end_observation(tmp_path, capsys):
    """Observation times are k*dt, and a fit window holds those within
    rounding of its ends.  At the default dt = 0.2*dx the state after 400
    steps is at t = 4.000000000000001, and the window [2.25, 4] holds the 8
    observations from 2.25 to 4 that the fits need.  A run to t = 2 observed
    every 0.5 has 2 observations in [1.5, 2], too few to fit."""
    doc = {
        "reaction": "quadratic_demo",
        "grid": {"x_min": -15.0, "x_max": 15.0},
        "experiment": {"t_end": 4.0, "observe_every": 0.25, "window": [2.25, 4.0]},
    }
    out = tmp_path / "out"
    assert cli.main(["stability", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
    times = [float(row.split(",")[0]) for row in (out / "trajectory.csv").read_text().splitlines()[1:]]
    assert times[-1] == 400 * (0.2 * 0.05) > 4.0
    doc["experiment"] = {"t_end": 2.0, "observe_every": 0.5, "window": [1.5, 2.0]}
    capsys.readouterr()
    assert cli.main(["stability", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 4
    assert "2 usable front observations in [1.5, 2.0]" in capsys.readouterr().err


def test_snapshot_at_zero_writes_the_initial_state(tmp_path):
    out = tmp_path / "out"
    doc = {
        "reaction": "quadratic_demo",
        "grid": {"x_min": -20.0, "x_max": 20.0, "dx": 0.1, "dt": 0.02},
        "experiment": {"t_end": 1.0, "observe_every": 0.5},
        "output": {"directory": str(out), "snapshot_times": [0, 1]},
    }
    assert cli.main(["simulate", "--config", write_config(tmp_path, doc)]) == 0
    assert sorted(p.name for p in out.glob("snapshot_t*.csv")) == ["snapshot_t0.csv", "snapshot_t1.csv"]
    rows = (out / "snapshot_t0.csv").read_text().splitlines()[1:]
    x, u = np.array([[float(v) for v in row.split(",")] for row in rows]).T
    np.testing.assert_array_equal(u, np.where(x >= 0.0, 1.0, 0.0))


def test_snapshot_times_taking_one_state_are_refused(tmp_path, capsys):
    """Each snapshot file is named by its state's time, so two requested
    times that round to one step of dt are refused at parse time (exit 2),
    not written over one file."""
    doc = {
        "reaction": "quadratic_demo",
        "grid": {"x_min": -20.0, "x_max": 20.0, "dx": 0.1, "dt": 0.01},
        "experiment": {"t_end": 2.0},
        "output": {"directory": str(tmp_path / "out"), "snapshot_times": [0, 1.0, 1.001]},
    }
    assert cli.main(["simulate", "--config", write_config(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert "config error at output.snapshot_times: snapshot times 1.0 and 1.001 take the same state" in err
    assert not (tmp_path / "out").exists()

    doc["output"]["snapshot_times"] = [0, 1.0, 1.01]  # one step apart
    assert cli.parse_config(json.dumps(doc)).output.snapshot_times == (0.0, 1.0, 1.01)
    # t/dt past the float range is no step a run could take: the step cap
    # refuses t_end, and the snapshot check neither crashes nor reports
    overflowing = {**doc, "grid": {"dt": 1e-300}, "experiment": {"t_end": 1e10}}
    overflowing["output"] = {"snapshot_times": [1e9, 1e10]}
    with pytest.raises(ConfigError) as exc:
        cli.parse_config(json.dumps(overflowing))
    assert [p for p, _ in exc.value.violations] == ["experiment.t_end"]


def test_initial_condition_variants(tmp_path):
    for ic in ("wave", "wave_plus_delta"):
        out = tmp_path / f"out_{ic}"
        doc = {
            "reaction": "quadratic_demo",
            "grid": {"x_min": -20.0, "x_max": 20.0, "dx": 0.1, "dt": 0.02},
            "experiment": {"t_end": 1.0, "observe_every": 0.5,
                           "initial_condition": ic, "delta": 0.05},
            "output": {"directory": str(out)},
        }
        assert cli.main(["simulate", "--config", write_config(tmp_path, doc, f"{ic}.json")]) == 0
    out = tmp_path / "out_table"
    doc = {
        "reaction": "quadratic_demo",
        "grid": {"x_min": -20.0, "x_max": 20.0, "dx": 0.1, "dt": 0.02},
        "experiment": {
            "t_end": 1.0,
            "observe_every": 0.5,
            "initial_condition": "custom_table",
            "custom_table": [[-20.0, 0.0], [0.0, 0.0], [1.0, 1.0], [20.0, 1.0]],
        },
        "output": {"directory": str(out)},
    }
    assert cli.main(["simulate", "--config", write_config(tmp_path, doc, "table.json")]) == 0


def test_custom_table_required():
    with pytest.raises(ConfigError) as exc:
        cli.parse_config(
            json.dumps(
                {"reaction": "quadratic_demo",
                 "experiment": {"initial_condition": "custom_table"}}
            )
        )
    assert any("custom_table" in path for path, _ in exc.value.violations)


def test_sweep_speed_matches_closed_form(tmp_path):
    out = tmp_path / "out"
    cfgp = write_config(
        tmp_path,
        {"reaction": "piecewise_linear(-1, 0.3)", "output": {"directory": str(out)}},
    )
    values = "0.1,0.2,0.3,0.4,0.45,0.5"
    assert cli.main(["speed", "--config", cfgp, "--sweep", f"reaction.a={values}"]) == 0
    doc = json.loads((out / "sweep.json").read_text())
    rows = doc["rows"]
    assert [r["value"] for r in rows] == [0.1, 0.2, 0.3, 0.4, 0.45, 0.5]
    for row in rows[:-1]:
        assert row["status"] == "ok"
        assert row["c_star"] == pytest.approx(closed_form_speed(row["value"]), abs=1e-6)
    assert rows[-1]["status"] == "HypothesisFailure"  # H3 fails at a = 1/2, as for `speed`
    assert rows[-1]["c_star"] is None


def test_sweep_rows_share_the_speed_stage(tmp_path):
    """A sweep row runs the command's own stages, audit gate included: it
    is ok with the command's exact bracket and c* iff the command exits 0,
    and reads HypothesisFailure iff the command exits 3."""
    cases = [
        ("quadratic_demo", [0.2, 0.3]),
        ({"a": 0.3, "f0": [0.01, -1, -1], "f1": [0.2, 0.8, -1]}, [0.3, 0.35]),  # H1 fails: f0(0) = 0.01
        ("piecewise_linear(-1, 0.3)", [0.3, 0.5, 0.6]),  # H3 fails for a >= 1/2
    ]
    for n, (cmd, (reaction, values)) in enumerate(itertools.product(cli._SWEEPABLE, cases)):
        case = tmp_path / f"case{n}"
        case.mkdir()
        cfgp = write_config(case, {"reaction": reaction})
        spec = f"reaction.a={','.join(map(str, values))}"
        assert cli.main([cmd, "--config", cfgp, "--out", str(case / "sweep"), "--sweep", spec]) == 0
        rows = json.loads((case / "sweep" / "sweep.json").read_text())["rows"]
        assert [row["value"] for row in rows] == values
        assert len((case / "sweep" / "sweep.csv").read_text().splitlines()) == 1 + len(values)
        base = cli.parse_config(Path(cfgp).read_text()).reaction
        for row in rows:
            doc = {"reaction": {**asdict(base), "a": row["value"]}}
            out = case / f"a{row['value']}"
            code = cli.main([cmd, "--config", write_config(case, doc, f"a{row['value']}.json"), "--out", str(out)])
            assert code in (0, 3), (cmd, reaction, row)
            assert (row["status"] == "ok") == (code == 0), (cmd, reaction, row)
            assert (row["status"] == "HypothesisFailure") == (code == 3), (cmd, reaction, row)
            if code == 0:
                artifact = json.loads((out / f"{cmd}.json").read_text())
                assert {k: row[k] for k in artifact["bracket"]} == artifact["bracket"]
                assert row["c_star"] == artifact.get("c_star")


def test_sweep_empty_values(tmp_path):
    out = tmp_path / "out"
    cfgp = write_config(
        tmp_path,
        {"reaction": "piecewise_linear(-1, 0.3)", "output": {"directory": str(out)}},
    )
    assert cli.main(["speed", "--config", cfgp, "--sweep", "reaction.a="]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert len(lines) == 1  # header only


def test_sweep_rejects_non_numeric_leaf(tmp_path):
    cfgp = write_config(
        tmp_path, {"reaction": "quadratic_demo", "output": {"directory": str(tmp_path / "o")}}
    )
    assert cli.main(["speed", "--config", cfgp, "--sweep", "grid.bc=1,2"]) == 2
    assert cli.main(["simulate", "--config", cfgp, "--sweep", "reaction.a=0.3"]) == 2


def test_deterministic_artifacts(tmp_path):
    out = tmp_path / "out"
    cfgp = write_config(
        tmp_path, {"reaction": "quadratic_demo", "output": {"directory": str(out)}}
    )
    assert cli.main(["bounds", "--config", cfgp]) == 0
    first = (out / "bounds.json").read_bytes()
    assert cli.main(["bounds", "--config", cfgp]) == 0
    assert (out / "bounds.json").read_bytes() == first
    # 17 significant digits in the artifact: c_check, the matched speed of
    # (-1.3, -0.5, 0.3), which the Brent solve returns to within 1e-16
    assert b"0.32470162523637836" in first


@pytest.mark.parametrize(
    "cmd, module, call, failure",
    [
        ("bounds", "linear_theory", "speed_bracket", NoPositiveRoot),
        ("speed", "shooting", "find_speed", BracketFailure),
        ("profile", "shooting", "reconstruct_profile", PathCollapse),
        ("stability", "simulator", "estimate_speed", InsufficientData),
        ("simulate", "simulator", "run", NoFront),
    ],
)
def test_solver_failure_exit_code_per_stage(tmp_path, monkeypatch, capsys, cmd, module, call, failure):
    assert issubclass(failure, BistableWavesError)
    doc = {
        "reaction": "quadratic_demo",
        "grid": {"x_min": -20.0, "x_max": 20.0, "dx": 0.1, "dt": 0.02},
        "experiment": {"t_end": 1.0, "observe_every": 0.5},
        "output": {"directory": str(tmp_path / "out")},
    }
    cfgp = write_config(tmp_path, doc)

    def fail(*args, **kwargs):
        raise failure("stage failed")

    monkeypatch.setattr(getattr(cli, module), call, fail)
    assert cli.main([cmd, "--config", cfgp]) == 4
    assert "solver failure: stage failed" in capsys.readouterr().err


def test_validation_exit_code(tmp_path):
    cfgp = write_config(tmp_path, {"reaction": "nope"})
    assert cli.main(["check", "--config", cfgp]) == 2
    assert cli.main(["check", "--config", str(tmp_path / "missing.json")]) == 2


def test_divergence_exit_code(tmp_path, monkeypatch):
    out = tmp_path / "out"
    doc = {
        "reaction": "quadratic_demo",
        "grid": {"x_min": -20.0, "x_max": 20.0, "dx": 0.1, "dt": 0.02},
        "experiment": {"t_end": 1.0, "observe_every": 0.5},
        "output": {"directory": str(out)},
    }
    cfgp = write_config(tmp_path, doc)

    def explode(*args, **kwargs):
        raise Divergence("boom", t=0.5)

    monkeypatch.setattr(cli.simulator, "run", explode)
    assert cli.main(["simulate", "--config", cfgp]) == 5


def test_hypothesis_exit_code_for_solver_commands(tmp_path):
    cfgp = write_config(
        tmp_path,
        {"reaction": "piecewise_linear(-1, 0.5)", "output": {"directory": str(tmp_path / "o")}},
    )
    assert cli.main(["speed", "--config", cfgp]) == 3


def test_h2_bump_between_samples_is_a_hypothesis_failure(tmp_path, capsys):
    """f0 reaches +1.5e-7 on a bump narrower than any sample spacing: check
    lists its worst point, and speed stops at the audit."""
    out = tmp_path / "out"
    doc = {
        "reaction": {"a": 0.3, "f0": [0.0, -225.09900989000002, 3000.66, -10000.0], "f1": [20, -20]},
        "grid": {"dt": 0.0005},
        "output": {"directory": str(out)},
    }
    cfgp = write_config(tmp_path, doc)
    assert cli.main(["check", "--config", cfgp]) == 3
    rep = json.loads((out / "check.json").read_text())["report"]
    assert rep["h2_ok"] is False and rep["slope_bounds"] is None
    [[h, u, v]] = rep["violations"]
    assert h == "H2" and u == pytest.approx(0.150033, abs=1e-6) and v == pytest.approx(1.5e-7, rel=1e-3)
    assert cli.main(["speed", "--config", cfgp]) == 3
    assert "hypothesis audit failed" in capsys.readouterr().err


def test_json_float_formatting():
    assert cli._fmt_float(0.1) == "0.10000000000000001"
    assert cli._fmt_float(-60.0) == "-60"
    assert cli._fmt_float(float("nan")) == "null"
    text = cli._json_text({"a": [1.5, True, None, "x"]})
    assert json.loads(text) == {"a": [1.5, True, None, "x"]}
