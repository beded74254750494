import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from typing import get_type_hints

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mixpar.cli import command, main
from mixpar.config import ConfigParseError, ExperimentConfig, parse_config
from mixpar.runner import CSV_COLUMNS, run_experiment
from mixpar.saddle import RESIDUAL_TOL

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
    # an integral JSON number reads as an int, thresholds as floats
    c = parse_config('{"case": "stokes", "n": 3.0, "T": 1, '
                     '"thresholds": {"err_u_l2X": 1}}')
    d = parse_config("case = stokes\nn = 3\nT = 1\n"
                     "threshold.err_u_l2X = 1\n")
    assert c == d
    assert type(c.n) is int and type(c.T) is float
    assert type(c.thresholds["err_u_l2X"]) is float
    # an integral number reads as an int in either format
    for spelling, n in (("3.0", 3), ("1e1", 10)):
        text = parse_config(f"case = stokes\nn = {spelling}\n")
        doc = parse_config(f'{{"case": "stokes", "n": {spelling}}}')
        assert text == doc and type(text.n) is int and text.n == n
    with pytest.raises(ConfigParseError):
        parse_config("case = stokes\nn = 2.7\n")


# every field that takes a number or a bool, and a rate floor
_SCALAR_KEYS = [key for key, typ in get_type_hints(ExperimentConfig).items()
                if typ in (int, float, bool)] + ["threshold.err_u_l2X"]


@settings(max_examples=200, derandomize=True, deadline=None)
@given(key=st.sampled_from(_SCALAR_KEYS),
       value=st.one_of(st.booleans(), st.integers(-2, 2 ** 60), st.floats()))
@example(key="n", value=3.0)
@example(key="n", value=1e1)
def test_json_values_and_their_text_spellings_agree(key, value):
    spelling = (("true" if value else "false") if isinstance(value, bool)
                else repr(value))
    metric = key.partition("threshold.")[2]
    doc = {"case": "stokes",
           **({"thresholds": {metric: value}} if metric else {key: value})}
    outcomes = []
    for source in (json.dumps(doc), f"case = stokes\n{key} = {spelling}\n"):
        try:
            outcomes.append(parse_config(source))
        except ConfigParseError:
            outcomes.append(ConfigParseError)
    assert outcomes[0] == outcomes[1]


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
    ("stokes", "quad_degree = 4"),
    ("eddy2d", "sigma = 0"),
    ("eddy2d", "mu_mag = 0"),
    ("stokes", "threshold.bogus = 1.0"),
    ("stokes", "threshold.rel_E_pct = 0.5"),
    ("stokes", "threshold.rel_H_pct = 0.5"),
    ("eddy2d", "threshold.err_lambda_l2M = 0.5"),
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


def test_negative_vtk_every_flag_exits_2_without_outputs(tmp_path):
    cfg = tmp_path / "ok.cfg"
    cfg.write_text(SMOKE_KV)
    out = tmp_path / "out"
    for flag, val in (("--vtk-every", "-1"), ("--jobs", "0")):
        assert main(["run", str(cfg), flag, val, "--out", str(out)]) == 2
        assert not out.exists()


@pytest.mark.parametrize("entry", [
    {"thresholds": {"err_u_l2X": "abc"}},
    {"thresholds": {"err_u_l2X": None}},
    {"thresholds": {"err_u_l2X": True}},
    {"n": 2.7},
    {"steps": True},
    {"levels": None},
    {"T": True},
    {"out": None},
], ids=["threshold-str", "threshold-null", "threshold-bool", "n-float",
        "steps-bool", "levels-null", "T-bool", "out-null"])
def test_json_config_wrong_types_exit_2_without_outputs(tmp_path, capsys,
                                                        entry):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**json.loads(SMOKE_JSON), **entry}))
    out = tmp_path / "out"
    assert main(["run", str(bad), "--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def test_flag_overrides_keep_the_config_thresholds(tmp_path, monkeypatch):
    from mixpar import cli

    seen = []
    monkeypatch.setattr(cli, "run_experiment", lambda cfg: seen.append(cfg))
    path = tmp_path / "t.cfg"
    path.write_text("case = stokes\nthreshold.err_u_l2X = 1.5\n")
    out = str(tmp_path / "o")
    main(["run", str(path), "--jobs", "2", "--vtk-every", "3", "--out", out])
    cfg, = seen
    assert (cfg.jobs, cfg.vtk_every, cfg.out) == (2, 3, out)
    assert cfg.thresholds == parse_config(path.read_text()).thresholds
    assert cfg.thresholds["err_u_l2X"] == 1.5


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


def test_undecodable_config_exits_2_without_outputs(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_bytes(b"case = stokes\nn = 2\xff\n")
    out = tmp_path / "out"
    assert main(["run", str(bad), "--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


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


# no benchmark workload runs a crossed study; the Stokes reference is the
# rates.csv of its config at an earlier, vector-map assembly, and the eddy
# one that of its config before the bubble-free levels took the solver's
# one elimination path
@pytest.mark.parametrize("config, reference, levels", [
    ("case = stokes\npattern = crossed\nn = 4\nlevels = 3\nT = 0.5\n"
     "steps = 4\nnu = 1.0\nprobes = true\nxi = 1.0\n",
     "stokes-crossed-n4-L3.csv", 2),
    ("case = eddy2d\npattern = crossed\nn = 3\nlevels = 3\nT = 0.75\n"
     "steps = 5\nprobes = true\n",
     "eddy-crossed-n3-L3.csv", 3),
], ids=["stokes", "eddy2d"])
def test_crossed_stokes_study_matches_its_reference(tmp_path, config,
                                                    reference, levels):
    cfg = parse_config(config)
    cfg.out = str(tmp_path / "out")
    assert run_experiment(cfg) == 0
    got, want = (path.read_text().splitlines() for path in (
        tmp_path / "out" / "rates.csv",
        Path(__file__).parent / "reference" / reference))
    assert got[0] == want[0]
    header = want[0].split(",")
    got, want = (np.array([[float(v) for v in row.split(",")]
                           for row in rows[1:]]) for rows in (got, want))
    # both probes ran on the first `levels` levels (all but the finest
    # Stokes one, which exceeds DENSE_LIMIT)
    assert (want[:levels, [header.index("beta_h"), header.index("alpha_h")]]
            > 0).all()
    assert np.allclose(got, want, rtol=1e-10, atol=0)


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


def test_parallel_failure_cancels_pending_levels(tmp_path, monkeypatch):
    import time
    from mixpar import runner as runner_mod
    from mixpar.saddle import SingularSystem

    started = []

    def fail_first(cfg, level, vtk_dir=None):
        started.append(level)
        if level == 5:
            raise SingularSystem("step 1: injected failure")
        time.sleep(0.2)

    monkeypatch.setattr(runner_mod, "run_level", fail_first)
    cfg = parse_config("case = stokes\nn = 2\nlevels = 6\nsteps = 2\n"
                       "jobs = 2\n")
    cfg.out = str(tmp_path / "out")
    assert runner_mod.run_experiment(cfg) == 3
    assert not (tmp_path / "out").exists()
    # level 5, the first to start, fails while level 4 runs, and the freed
    # worker may take level 3 before the pool is shut down; nothing later
    # starts
    assert len(started) <= 3


def test_parallel_levels_start_finest_first(monkeypatch):
    import threading
    from mixpar import runner as runner_mod

    started = []
    coarsest_started = threading.Event()

    def record(cfg, level, vtk_dir=None):
        started.append(level)
        if level == 0:
            coarsest_started.set()
        elif level == cfg.levels - 1:
            # the finest level holds its worker until the other worker
            # has taken every coarser level, one after another
            assert coarsest_started.wait(timeout=10)
        return level

    monkeypatch.setattr(runner_mod, "run_level", record)
    cfg = parse_config("case = stokes\nn = 2\nlevels = 5\nsteps = 2\n"
                       "jobs = 2\n")
    assert runner_mod._run_levels(cfg, None) == [0, 1, 2, 3, 4]
    # the two workers take levels 4 and 3 in either order, then 2, 1, 0
    assert sorted(started[:2]) == [3, 4]
    assert started[2:] == [2, 1, 0]


def _tree(root):
    """Every file under root, by relative path, with its bytes."""
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(Path(root).rglob("*")) if p.is_file()}


def test_failed_run_leaves_existing_out_untouched(tmp_path, monkeypatch):
    # level 0 writes its VTK snapshots, then level 1 fails: none of them,
    # and no partial rates.csv, reaches the previous run's outputs
    from mixpar import runner as runner_mod
    from mixpar.saddle import SingularSystem

    real_run_level = runner_mod.run_level
    ran = []

    def fail_second(cfg, level, vtk_dir=None):
        ran.append(level)
        if level == 1:
            raise SingularSystem("step 1: injected failure")
        return real_run_level(cfg, level, vtk_dir)

    monkeypatch.setattr(runner_mod, "run_level", fail_second)
    out = tmp_path / "out"
    (out / "vtk").mkdir(parents=True)
    (out / "rates.csv").write_text("sentinel\n")
    (out / "summary.json").write_text("{}\n")
    (out / "vtk" / "stokes_L0_step0000.vtk").write_text("old\n")
    before = _tree(out)
    cfg = parse_config(SMOKE_KV.replace("levels = 1", "levels = 2"))
    cfg.out, cfg.vtk_every = str(out), 1
    assert runner_mod.run_experiment(cfg) == 3
    assert ran == [0, 1]
    assert _tree(out) == before
    assert sorted(p.name for p in out.iterdir()) == [
        "rates.csv", "summary.json", "vtk"]


def test_run_replaces_its_outputs_and_keeps_other_files(tmp_path):
    out = tmp_path / "out"
    (out / "vtk").mkdir(parents=True)
    (out / "rates.csv").write_text("sentinel\n")
    (out / "notes.txt").write_text("mine\n")
    (out / "vtk" / "other.vtk").write_text("mine\n")
    cfg = parse_config(SMOKE_KV)
    cfg.out, cfg.vtk_every = str(out), 1
    assert run_experiment(cfg) == 0
    files = _tree(out)
    assert files["notes.txt"] == files["vtk/other.vtk"] == b"mine\n"
    assert files["rates.csv"].startswith(",".join(CSV_COLUMNS).encode())
    assert sorted(files) == ["notes.txt", "rates.csv", "summary.json",
                             "vtk/other.vtk", "vtk/stokes_L0_step0000.vtk",
                             "vtk/stokes_L0_step0001.vtk",
                             "vtk/stokes_L0_step0002.vtk"]
    assert sorted(p.name for p in out.iterdir()) == [
        "notes.txt", "rates.csv", "summary.json", "vtk"]


def _broken_errors(*args, **kwargs):
    raise RuntimeError("injected\nsecond line")


@pytest.mark.parametrize("existed", [False, True],
                         ids=["created-out", "existing-out"])
def test_internal_error_exits_4_with_one_line(tmp_path, monkeypatch, capsys,
                                              existed):
    from mixpar import runner as runner_mod
    monkeypatch.setattr(runner_mod, "compute_errors", _broken_errors)
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text(SMOKE_KV)
    out = tmp_path / "out"
    if existed:
        out.mkdir()
    assert command(["run", str(cfg_path), "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err == "internal error: RuntimeError: injected second line\n"
    # like exit 3, only a directory the run created is removed
    assert out.exists() == existed
    # main, which the benchmark drives in-process, lets the bug propagate
    with pytest.raises(RuntimeError, match="injected"):
        main(["run", str(cfg_path), "--out", str(out)])
    assert out.exists() == existed


def test_keyboard_interrupt_is_not_an_internal_error(tmp_path, monkeypatch):
    from mixpar import runner as runner_mod

    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(runner_mod, "compute_errors", interrupted)
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text(SMOKE_KV)
    with pytest.raises(KeyboardInterrupt):
        command(["run", str(cfg_path), "--out", str(tmp_path / "out")])


def _arpack_stuck(*args, **kwargs):
    import scipy.sparse.linalg as spla
    raise spla.ArpackNoConvergence("No convergence", np.empty(0),
                                   np.empty((0, 0)))


def _shifted_factor_singular(*args, **kwargs):
    from mixpar.saddle import SingularSystem
    raise SingularSystem("Factor is exactly singular")


@pytest.mark.parametrize("case", ["stokes", "eddy2d"])
@pytest.mark.parametrize("target, injected", [
    ("eigsh", _arpack_stuck),
    ("SaddleSolver", _shifted_factor_singular),
])
def test_coercivity_probe_failure_exits_3(tmp_path, monkeypatch, capsys,
                                          case, target, injected):
    # the step solves use timestep's own SaddleSolver name, so only the
    # probe's shifted factorization fails
    from mixpar import saddle
    owner = saddle.spla if target == "eigsh" else saddle
    monkeypatch.setattr(owner, target, injected)
    cfg_path = tmp_path / "probe.cfg"
    cfg_path.write_text(f"case = {case}\nn = 3\nlevels = 2\nsteps = 2\n"
                        "probes = true\n")
    out = tmp_path / "out"
    assert main(["run", str(cfg_path), "--out", str(out)]) == 3
    assert "solver failure" in capsys.readouterr().err
    assert not out.exists()


# dt * A underflows to 0, so the step matrix R + dt A is zero on every
# insulator edge (SuperLU crashed on it in symmetric mode)
UNDERFLOWING_STEP = {"case": "eddy2d", "n": 3, "levels": 1, "steps": 1,
                     "probes": False, "T": 1e-300, "mu_mag": 1e300,
                     "pattern": "crossed"}
# B X^-1 B^T overflows in the inf-sup probe
OVERFLOWING_BETA = {"case": "eddy2d", "n": 3, "levels": 1, "steps": 2,
                    "probes": True, "mu_mag": 1e-300, "eps": 1e300}


def _run_quiet(folder, cfg):
    """Exit code and output directory of `mixpar run` on the config dict,
    in-process; warnings are ignored, as the command line only prints
    them."""
    path = Path(folder) / "c.json"
    path.write_text(json.dumps(cfg))
    out = Path(folder) / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = main(["run", str(path), "--out", str(out)])
    return code, out


@pytest.mark.parametrize("cfg", [UNDERFLOWING_STEP, OVERFLOWING_BETA],
                         ids=["underflowing-step", "overflowing-beta"])
def test_extreme_coefficients_exit_3_without_outputs(tmp_path, capsys, cfg):
    code, out = _run_quiet(tmp_path, cfg)
    assert code == 3
    assert "solver failure" in capsys.readouterr().err
    assert not out.exists()


_EXTREMES = [1e-300, 1e-12, 1.0, 1e12, 1e300]


@st.composite
def _configs(draw):
    case = draw(st.sampled_from(["stokes", "eddy2d"]))
    n = st.integers(1, 6) if case == "stokes" else st.sampled_from([3, 6])
    cfg = {"case": case, "n": draw(n), "levels": draw(st.integers(1, 2)),
           "steps": draw(st.integers(1, 4))}
    for key in ("T", "nu", "sigma", "eps", "mu_mag"):
        cfg[key] = draw(st.sampled_from(_EXTREMES))
    cfg["xi"] = draw(st.sampled_from([0.0, 1e-300, 1.0, 1e300]))
    cfg["probes"] = draw(st.booleans())
    cfg["pattern"] = draw(st.sampled_from(["right", "crossed"]))
    return cfg


@settings(max_examples=40, derandomize=True, deadline=None)
@given(cfg=_configs())
@example(cfg=UNDERFLOWING_STEP)
@example(cfg=OVERFLOWING_BETA)
def test_every_config_runs_or_exits_cleanly(cfg):
    with tempfile.TemporaryDirectory() as folder:
        code, out = _run_quiet(folder, cfg)
        assert code in (0, 1, 2, 3)
        if code in (2, 3):
            assert not out.exists()


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


# the validity range (README, CLI): T, nu, sigma, eps, mu_mag and a
# nonzero xi within two decades of 1, with probes on or off
def _decades(width):
    return st.floats(-width, width).map(lambda e: 10.0 ** e)


@st.composite
def _valid_configs(draw):
    case = draw(st.sampled_from(["stokes", "eddy2d"]))
    n = st.integers(1, 4) if case == "stokes" else st.sampled_from([3, 6])
    cfg = {"case": case, "n": draw(n), "levels": draw(st.integers(1, 2)),
           "steps": draw(st.integers(1, 4)), "probes": draw(st.booleans()),
           "pattern": draw(st.sampled_from(["right", "crossed"]))}
    decades = _decades(2.0)
    for key in ("T", "nu", "sigma", "eps", "mu_mag"):
        cfg[key] = draw(decades)
    cfg["xi"] = draw(st.one_of(st.just(0.0), decades))
    return cfg


@settings(max_examples=60, derandomize=True, deadline=None)
@given(cfg=_valid_configs())
# the Stokes n = 1 mesh has no interior vertex, so the coercivity probe
# sees only bubbles; its old ones start mapped to zero there and exited 3
@example(cfg={"case": "stokes", "n": 1, "levels": 2, "steps": 4, "T": 0.86,
              "nu": 1.65, "xi": 0.178, "probes": True})
def test_valid_configs_solve_within_the_residual_tolerance(cfg):
    with tempfile.TemporaryDirectory() as folder:
        code, out = _run_quiet(folder, cfg)
        # at most two levels fit no rate, so no rate can fall short
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert max(summary["block_residual_max"]) <= RESIDUAL_TOL
        # every drawn level is small enough to probe
        assert [p["probed"] for p in summary["probes"]] == \
            [cfg["probes"]] * cfg["levels"]


def test_small_eddy_coercivity_passes_the_residual_guard(tmp_path):
    # alpha_h is 7.5e-4 here: the unlifted probe's solves, conditioned by
    # it, left residuals of 1e-9 relative and exited 3
    cfg = {"case": "eddy2d", "n": 6, "levels": 2, "sigma": 0.020,
           "eps": 9.6, "mu_mag": 0.015, "xi": 0.14, "T": 7.2,
           "probes": True}
    code, out = _run_quiet(tmp_path, cfg)
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert max(summary["block_residual_max"]) <= RESIDUAL_TOL
    assert all(p["probed"] for p in summary["probes"])
