"""Config parsing, artifact emission, exit codes, sweeps, determinism."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bistable_waves as bw
from bistable_waves import cli
from bistable_waves.errors import ConfigError, Divergence
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


def test_solver_limits_validated():
    with pytest.raises(ConfigError) as exc:
        cli.parse_config(
            json.dumps(
                {"reaction": "quadratic_demo", "solver": {"u_eps": 0.1, "eps": 0.1}}
            )
        )
    paths = {path for path, _ in exc.value.violations}
    assert {"solver.u_eps", "solver.eps"} <= paths


def test_invalid_json_document():
    with pytest.raises(ConfigError):
        cli.parse_config("{not json")
    with pytest.raises(ConfigError):
        cli.parse_config("[1, 2]")


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


def test_module_entry_point(tmp_path):
    """`python -m bistable_waves.cli` runs the command, as the console
    script does."""
    out = tmp_path / "out"
    cfgp = write_config(tmp_path, {"reaction": "quadratic_demo", "output": {"directory": str(out)}})
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "bistable_waves.cli", "check", "--config", cfgp],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    rep = json.loads((out / "check.json").read_text())
    assert rep["report"]["h3_ok"] is True


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
    for tag in ("c0", "c_check", "c_under", "c_over", "c_hat", "c_star"):
        assert (out / f"phase_{tag}.csv").exists()
    # shooting paths stay between the bounding linear paths, row by row
    rows = (out / "phase_c_star.csv").read_text().splitlines()[1:]
    for row in rows:
        _side, _u, w, w_lo, w_hi = row.split(",")
        assert float(w_lo) - 1e-6 <= float(w) <= float(w_hi) + 1e-6
    summary = json.loads((out / "profile.json").read_text())
    assert summary["c1_ok"] is True
    assert summary["c_star"] == pytest.approx(demo_wave.c_star, abs=1e-8)


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
    assert rows[-1]["status"] == "NoPositiveRoot"
    assert rows[-1]["c_star"] is None


def test_sweep_thread_cap_respected(tmp_path, monkeypatch):
    monkeypatch.setenv("BW_THREADS", "1")
    cfg = cli.parse_config('{"reaction": "piecewise_linear(-1, 0.3)"}')
    rows = cli.sweep(cfg, "reaction.a", [0.2, 0.3], cmd="speed")
    assert [r["value"] for r in rows] == [0.2, 0.3]
    assert all(r["status"] == "ok" for r in rows)


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


def test_json_float_formatting():
    assert cli._fmt_float(0.1) == "0.10000000000000001"
    assert cli._fmt_float(-60.0) == "-60"
    assert cli._fmt_float(float("nan")) == "null"
    text = cli._json_text({"a": [1.5, True, None, "x"]})
    assert json.loads(text) == {"a": [1.5, True, None, "x"]}
