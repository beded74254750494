"""Tests of the benchmark harness: wrapping, span nesting, accounting.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""
import json
import subprocess
import sys
import time

import pytest

import run as bench
import study
import tracing
from mixpar import runner, timestep, vtkio

STUDY_CONFIGS = {
    "stokes": "case = stokes\nn = 2\nlevels = 2\nsteps = 4\nprobes = true\n",
    "eddy2d": "case = eddy2d\nn = 3\nlevels = 2\nsteps = 6\nprobes = true\n",
}

PATCHED = [(runner, name) for name in (
    "run_level", "assemble_load", "structured_mesh", "build_space",
    "interpolate", "assemble_stokes", "assemble_eddy2d", "stokes_case",
    "eddy2d_case", "run", "compute_errors", "estimate_infsup",
    "estimate_garding", "kernel_basis")] + [
    (timestep, "SaddleSolver"), (vtkio, "write_unstructured")]


def _study_argv(tmp_path, case, tag="out"):
    cfg = tmp_path / f"{case}.cfg"
    cfg.write_text(STUDY_CONFIGS[case])
    return ["--", "run", str(cfg), "--jobs", "1", "--vtk-every", "1",
            "--out", str(tmp_path / tag)]


def _traced(tmp_path, case, tag="out"):
    stats = tmp_path / f"{tag}.json"
    code = study.main(["trace", str(stats), *_study_argv(tmp_path, case, tag)])
    assert code == 0
    return json.loads(stats.read_text())


def test_wrappers_restored_after_traced_study(tmp_path):
    originals = [getattr(owner, name) for owner, name in PATCHED]
    _traced(tmp_path, "stokes")
    assert [getattr(owner, name) for owner, name in PATCHED] == originals


def test_wrappers_restored_when_study_raises(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(runner, "compute_errors", broken)
    originals = [getattr(owner, name) for owner, name in PATCHED]
    with pytest.raises(RuntimeError, match="boom"):
        _traced(tmp_path, "stokes")
    assert [getattr(owner, name) for owner, name in PATCHED] == originals


@pytest.mark.parametrize("case", ["stokes", "eddy2d"])
def test_spans_nest(tmp_path, case):
    spans = _traced(tmp_path, case)["spans"]
    roots = [s for s in spans if s[3] == -1]
    assert [s[0] for s in roots] == [tracing.ROOT_SPAN]
    for i, (name, start, end, parent, level) in enumerate(spans):
        assert start <= end
        if parent < 0:
            continue
        p_name, p_start, p_end, _, p_level = spans[parent]
        assert parent < i
        assert p_start <= start and end <= p_end
        if name != tracing.LEVEL_SPAN:
            assert level == p_level
    # children of one parent run one after another
    by_parent = {}
    for _, start, end, parent, _ in spans:
        by_parent.setdefault(parent, []).append((start, end))
    for children in by_parent.values():
        for (_, end), (start, _) in zip(children, children[1:]):
            assert end <= start
    layers = {s[0].split(".", 1)[0] for s in spans}
    assert layers == set(tracing.LAYERS)
    assert {s[4] for s in spans if s[0] == tracing.LEVEL_SPAN} == {0, 1}


def test_self_times_account_for_study_s(tmp_path):
    stats = tmp_path / "stats.json"
    cmd = [sys.executable, str(bench.HERE / "study.py"), "trace", str(stats),
           *_study_argv(tmp_path, "eddy2d")]
    t_start = time.perf_counter()
    subprocess.run(cmd, env=bench.study_env(), check=True, timeout=120,
                   capture_output=True)
    t_exit = time.perf_counter()
    m = tracing.layer_metrics(json.loads(stats.read_text()), t_start, t_exit)
    parts = [m[f"{layer}.self_s"] for layer in tracing.LAYERS]
    parts += [m["runner.import_s"], m["runner.exit_s"]]
    assert all(p >= 0 for p in parts)
    assert sum(parts) == pytest.approx(t_exit - t_start, abs=1e-9)
    assert m["trace.study_s"] == t_exit - t_start


def test_counters_repeat_exactly(tmp_path):
    first = _traced(tmp_path, "stokes", "a")["counters"]
    second = _traced(tmp_path, "stokes", "b")["counters"]
    first.pop("saddle.residual_max")
    second.pop("saddle.residual_max")
    assert first == second
    assert set(first) == {
        "mesh.cells", "spaces.dofs", "assembly.load_calls", "saddle.lu_nnz",
        "saddle.unknowns", "timestep.steps", "problems.points",
        "saddle.probe_calls", "vtkio.files", "vtkio.bytes"}


def test_setup_study_records_only_setup_spans(tmp_path):
    stats = tmp_path / "setup.json"
    assert study.main(["setup", str(stats),
                       *_study_argv(tmp_path, "stokes")]) == 0
    doc = json.loads(stats.read_text())
    names = {s[0] for s in doc["spans"]}
    assert names == {tracing.ROOT_SPAN, tracing.LEVEL_SPAN, "assembly.load"}
    assert set(doc["counters"]) == {"assembly.load_calls"}
    assert tracing.setup_seconds(doc["spans"]) > 0


def test_setup_seconds_sums_level_start_to_first_load():
    spans = [
        ["runner.main", 0.0, 10.0, -1, None],
        ["runner.level", 1.0, 4.0, 0, 0],
        ["assembly.load", 1.5, 1.6, 1, 0],
        ["assembly.load", 1.7, 1.8, 1, 0],
        ["runner.level", 5.0, 9.0, 0, 1],
        ["assembly.load", 7.0, 7.5, 4, 1],
    ]
    assert tracing.setup_seconds(spans) == pytest.approx(0.5 + 2.0)
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 3.0 - 4.0)


@pytest.mark.parametrize("n, pct", [(11, 9), (40, 75), (64, 84), (160, 93)])
def test_tail_percentile_leaves_ten_beyond(n, pct):
    assert tracing.tail_percentile(n) == pct
    values = list(range(n))
    beyond = [v for v in values if v > tracing.percentile(values, pct)]
    assert len(beyond) >= tracing.TAIL_BEYOND
    above = tracing.percentile(values, pct + 1)
    assert len([v for v in values if v > above]) < tracing.TAIL_BEYOND


def test_tail_percentile_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        tracing.tail_percentile(10)


def test_compare_rates_tolerates_round_off_only():
    ref = (bench.HERE / "reference" / "eddy-canonical.csv").read_text()
    assert bench.compare_rates(ref, ref) is None
    header, row, *rest = ref.splitlines()
    cells = row.split(",")
    err = cells[3]
    cells[3] = repr(float(err) * (1 + 1e-9))
    cells[5] = "0.0"      # err_lambda_l2M is zero up to round-off
    assert bench.compare_rates("\n".join([header, ",".join(cells), *rest]),
                               ref) is None
    cells[3] = repr(float(err) * (1 + 1e-4))
    assert "err_u_maxR" in bench.compare_rates(
        "\n".join([header, ",".join(cells), *rest]), ref)
    assert bench.compare_rates("\n".join([header, *rest]), ref) is not None


def test_untraced_timings_scale_by_adjacent_calibrations(monkeypatch):
    cal_times = iter([1.0, 1.0, 2.0, 2.0])
    walls = iter([10.0, 30.0, 40.0])

    class FakeCalibration:
        def time(self):
            return next(cal_times)

    class FakeStudy:
        def __init__(self, *args):
            self.study_s = next(walls)
            self.stats = {"spans": self.study_s / 10, "maxrss_kb": 2048}

    monkeypatch.setattr(bench.calibration, "Calibration", FakeCalibration)
    monkeypatch.setattr(bench, "Study", FakeStudy)
    monkeypatch.setattr(bench, "repeat",
                        lambda seconds, one_round: [one_round(i)
                                                    for i in range(3)])
    monkeypatch.setattr(bench.tracing, "setup_seconds", lambda spans: spans)
    ref = bench.calibration.REFERENCE_S

    studies, metrics, measured = bench.run_untraced("stokes-L5", 1, 0)

    # each study over the mean of the kernel times before and after it:
    # 10 / 1, 30 / 1.5 and 40 / 2 reference seconds
    assert len(studies) == 3
    assert metrics["study_s"] == pytest.approx(20 * ref)
    assert metrics["setup_s"] == pytest.approx(2 * ref)
    assert metrics["peak_rss_mb"] == 2
    assert measured == {"study_s.measured": 30, "setup_s.measured": 3,
                        "calibration_s": 1.5}
