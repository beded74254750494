import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mixpar.cli import main
from mixpar.config import ConfigParseError, parse_config
from mixpar.runner import CSV_COLUMNS, run_experiment

SMOKE_KV = """
# smoke study
case = stokes
n = 2
levels = 1
steps = 2
T = 0.5
probes = true
"""

SMOKE_JSON = json.dumps({
    "case": "stokes", "n": 2, "levels": 1, "steps": 2, "T": 0.5,
    "probes": True,
})


def _read_rows(path):
    lines = Path(path).read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
    return header, rows


def test_keyvalue_and_json_configs_agree():
    a = parse_config(SMOKE_KV)
    b = parse_config(SMOKE_JSON)
    assert a == b


def test_config_validation_errors():
    with pytest.raises(ConfigParseError):
        parse_config("case = stokes\nlevels = 0\n")
    with pytest.raises(ConfigParseError):
        parse_config("case = nonsense\n")
    with pytest.raises(ConfigParseError):
        parse_config("case = stokes\nbogus_key = 1\n")
    with pytest.raises(ConfigParseError):
        parse_config('{"case": "stokes", "thresholds": {"err_u_l2X": 3.0}}')
    with pytest.raises(ConfigParseError):
        parse_config("case = eddy2d\nn = 4\n")  # conductor off lattice


def test_smoke_run_writes_one_row(tmp_path):
    cfg = parse_config(SMOKE_KV)
    cfg.out = str(tmp_path / "out")
    code = run_experiment(cfg)
    assert code == 0
    header, rows = _read_rows(tmp_path / "out" / "rates.csv")
    assert header == CSV_COLUMNS
    assert len(rows) == 1
    for key, val in rows[0].items():
        assert np.isfinite(float(val))
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["rates"] is None
    assert summary["passed"] is True
    assert len(summary["block_residual_max"]) == 1
    assert 0.0 <= summary["block_residual_max"][0] <= 1e-10
    assert summary["stability_margin_ok"] == [False]  # (1+2)*0.25 > 1/2
    fill = summary["factor_fill"]
    assert len(fill) == 1
    assert all(isinstance(f, int) and f > 0 for f in fill)


def test_malformed_config_exits_2_without_outputs(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("case = stokes\nlevels = 0\n")
    out = tmp_path / "out"
    code = main(["run", str(bad), "--out", str(out)])
    assert code == 2
    assert not out.exists()


@pytest.mark.parametrize("case, line", [
    ("stokes", "nu = -1"),
    ("stokes", "T = nan"),
    ("stokes", "nu = inf"),
    ("stokes", "eps = 0"),
    ("stokes", "quad_degree = 0"),
    ("stokes", "quad_degree = 1"),
    ("eddy2d", "quad_degree = 0"),
    ("eddy2d", "sigma = 0"),
    ("eddy2d", "mu_mag = 0"),
    ("stokes", "threshold.bogus = 1.0"),
    ("stokes", "xi = nan"),
    ("stokes", "xi = inf"),
    ("stokes", "xi = -5"),
    ("stokes", "pattern = bogus"),
    ("eddy2d", "vtk_every = -1"),
])
def test_nonsense_config_exits_2_without_outputs(tmp_path, case, line):
    bad = tmp_path / "bad.cfg"
    bad.write_text(f"case = {case}\nn = 3\nlevels = 3\nsteps = 2\n{line}\n")
    out = tmp_path / "out"
    assert main(["run", str(bad), "--out", str(out)]) == 2
    assert not out.exists()


def test_eddy_accepts_one_point_rule():
    cfg = parse_config("case = eddy2d\nn = 3\nquad_degree = 1\n")
    assert cfg.quad_degree == 1


def test_negative_vtk_every_flag_exits_2_without_outputs(tmp_path):
    cfg = tmp_path / "ok.cfg"
    cfg.write_text(SMOKE_KV)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--vtk-every", "-1", "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("out", ["f/x", "f"])
def test_uncreatable_output_dir_exits_2_before_any_level(
        tmp_path, monkeypatch, capsys, out):
    from mixpar import runner as runner_mod

    def never(cfg, level, vtk_dir=None):
        raise AssertionError("a level ran")

    monkeypatch.setattr(runner_mod, "run_level", never)
    cfg = tmp_path / "ok.cfg"
    cfg.write_text(SMOKE_KV)
    blocker = tmp_path / "f"
    blocker.touch()
    assert main(["run", str(cfg), "--out", str(tmp_path / out)]) == 2
    assert "output error" in capsys.readouterr().err
    assert blocker.is_file() and blocker.stat().st_size == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["f", "ok.cfg"]


def test_missing_config_exits_2(tmp_path):
    code = main(["run", str(tmp_path / "nope.cfg")])
    assert code == 2


def test_serial_reruns_byte_identical(tmp_path):
    cfg_text = "case = stokes\nn = 2\nlevels = 2\nsteps = 2\nT = 0.5\n"
    path = tmp_path / "det.cfg"
    path.write_text(cfg_text)
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert main(["run", str(path), "--out", str(out), "--jobs", "1"]) == 0
        outs.append((out / "rates.csv").read_bytes())
    assert outs[0] == outs[1]


def test_rate_threshold_failure_exits_1(tmp_path):
    cfg = parse_config(
        "case = stokes\nn = 2\nlevels = 3\nsteps = 2\nT = 0.5\n"
        "probes = false\nthreshold.err_u_l2X = 1.95\n"
    )
    cfg.out = str(tmp_path / "out")
    assert run_experiment(cfg) == 1
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["passed"] is False
    assert summary["rates"]["err_u_l2X"] < 1.95


def test_eddy_smoke_csv_fields_finite(tmp_path):
    cfg = parse_config(
        '{"case": "eddy2d", "n": 3, "levels": 1, "steps": 2, "T": 0.75}'
    )
    cfg.out = str(tmp_path / "out")
    assert run_experiment(cfg) == 0
    header, rows = _read_rows(tmp_path / "out" / "rates.csv")
    assert len(rows) == 1
    vals = {k: float(v) for k, v in rows[0].items()}
    assert all(np.isfinite(v) for v in vals.values())
    assert vals["rel_E_pct"] > 0.0
    assert vals["beta_h"] > 0.0


def test_eddy_three_level_study_meets_thresholds(tmp_path):
    cfg = parse_config(
        '{"case": "eddy2d", "n": 3, "levels": 3, "steps": 5, "T": 0.75}'
    )
    cfg.out = str(tmp_path / "out")
    assert run_experiment(cfg) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["rates"]["err_u_l2X"] >= 0.9
    assert summary["passed"] is True


def test_vtk_snapshots_written(tmp_path):
    cfg = parse_config(
        '{"case": "eddy2d", "n": 3, "levels": 1, "steps": 2, "T": 0.75}'
    )
    cfg.out = str(tmp_path / "out")
    cfg.vtk_every = 1
    assert run_experiment(cfg) == 0
    files = sorted((tmp_path / "out" / "vtk").glob("*.vtk"))
    assert len(files) == 3  # steps 0, 1, 2
    head = files[0].read_text().splitlines()
    assert head[0] == "# vtk DataFile Version 2.0"
    assert "DATASET UNSTRUCTURED_GRID" in head
    assert any(ln.startswith("CELL_DATA") for ln in head)


def test_jobs_flag_accepts_parallel_levels(tmp_path):
    cfg = parse_config("case = stokes\nn = 2\nlevels = 2\nsteps = 2\nT = 0.5\n")
    cfg.out = str(tmp_path / "out")
    cfg.jobs = 2
    assert run_experiment(cfg) == 0
    _, rows = _read_rows(tmp_path / "out" / "rates.csv")
    assert [r["level"] for r in rows] == ["0", "1"]


def test_solver_failure_exits_3(tmp_path, monkeypatch):
    from mixpar import runner as runner_mod
    from mixpar.saddle import SingularSystem

    def boom(cfg, level, vtk_dir=None):
        raise SingularSystem("step 1: injected failure")

    monkeypatch.setattr(runner_mod, "run_level", boom)
    cfg = parse_config(SMOKE_KV)
    cfg.out = str(tmp_path / "out")
    assert runner_mod.run_experiment(cfg) == 3
    assert not (tmp_path / "out").exists()


def test_run_seed_env_is_ignored(tmp_path):
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text("case = stokes\nn = 2\nlevels = 1\nsteps = 2\nT = 0.5\n")
    # the child runs in tmp_path, so hand it the package by absolute path
    src = str(Path(__file__).resolve().parents[1] / "src")
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, RUN_SEED="12345", PYTHONPATH=pythonpath)
    cmd = [sys.executable, "-m", "mixpar.cli", "run", str(cfg_path),
           "--out", str(tmp_path / "o1")]
    subprocess.run(cmd, check=True, env=env, cwd=tmp_path)
    env2 = dict(env, RUN_SEED="99999")
    cmd[-1] = str(tmp_path / "o2")
    subprocess.run(cmd, check=True, env=env2, cwd=tmp_path)
    a = (tmp_path / "o1" / "rates.csv").read_bytes()
    b = (tmp_path / "o2" / "rates.csv").read_bytes()
    assert a == b
