#!/usr/bin/env python3
"""Refinement-study benchmark for mixpar.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every study is a full ``mixpar run`` of the workload's config, at
``--jobs 1``, in a fresh single-threaded process (BLAS and OpenMP pinned to
one thread), started from the ``src/`` tree of this checkout.  Studies run
one at a time, back to back, for about ``--seconds`` (see ``repeat``); at
least one always runs.

Each study is checked: exit code 0, ``passed`` true in ``summary.json``,
and ``rates.csv`` equal to ``perfbench/reference/<workload>.csv`` up to
solver round-off.  A study that fails any check counts in ``failed``, and
``failed / attempted`` is the failed share.  Each reference is the
``rates.csv`` of ``python3 -m mixpar.cli run perfbench/workloads/<config>
--jobs 1 --out DIR`` (plus the workload's extra arguments) with
``PYTHONPATH=src``, written when the benchmark was added.

``--trace 0`` reports the end-to-end metrics, each the median over the
run's studies: ``study_s`` (process start to exit code), ``setup_s``
(summed over levels, level start to the first load call) and
``peak_rss_mb``.  The two timings are rescaled by the machine speed
measured around each study (see calibration.py); the measured medians and
the calibration time are printed beside them.  ``--trace 1`` runs pairs
of one untraced and one traced study, requires the two ``rates.csv``
files to be byte-identical, and reports the per-layer metrics of
tracing.py from the traced study with the (low) median ``study_s``, plus
the tracing overhead: the median over the pairs of traced minus untraced
measured ``study_s``.

The studies are deterministic, so ``--seed`` is recorded but changes no
input.  The last line of standard output is the JSON result; the lines
before it print every metric with its unit, the environment and
``failed_frac``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# workload -> (config under perfbench/workloads, extra `mixpar run` args).
# BENCHMARK.json lists stokes-L5 and eddy-canonical only: eddy-L6 (19 s a
# study) runs by hand, as a third workload costs a third of every run's
# length within the benchmark's total time.
WORKLOADS = {
    "stokes-L5": ("stokes-L5.cfg", ()),
    "eddy-L6": ("eddy-L6.json", ()),
    "eddy-canonical": ("eddy-canonical.json", ("--vtk-every", "1")),
}

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
THREADS = 1
# studies are cut when a run reaches this age, whatever --seconds says
RUN_LIMIT_S = 165

# rates.csv tolerance: far above solver round-off, far below any change
# in the discretization (which moves the errors at the 1e-3 level).  ATOL
# covers columns that are zero up to round-off, such as the eddy
# multiplier error, which reads 1e-17 to 1e-14.
RTOL = 1e-6
ATOL = 1e-12

END_TO_END_UNITS = {"study_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


def unit(name):
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if "_ms_" in name:
        return "ms"
    base = name.removesuffix(".finest").removesuffix(".measured")
    if base.endswith("_s"):
        return "s"
    if base == "vtkio.bytes":
        return "B"
    if base in ("runner.finest_share", "saddle.residual_max"):
        return "ratio"
    return "count"


def study_env():
    env = dict(os.environ)
    env.update({var: str(THREADS) for var in THREAD_VARS})
    env["PYTHONPATH"] = str(SRC)
    return env


def compare_rates(text, reference):
    """None when rates.csv matches the reference, else what differs."""
    rows, ref_rows = text.splitlines(), reference.splitlines()
    if len(rows) != len(ref_rows) or rows[:1] != ref_rows[:1]:
        return "rates.csv header or row count differs from the reference"
    header = ref_rows[0].split(",")
    for row, ref in zip(rows[1:], ref_rows[1:]):
        for col, a, b in zip(header, row.split(","), ref.split(",")):
            if col == "level":
                same = a == b
            else:
                x, y = float(a), float(b)
                same = abs(x - y) <= ATOL + RTOL * max(abs(x), abs(y))
            if not same:
                return f"rates.csv level {ref.split(',')[0]} {col}: {a} != {b}"
    return None


class Study:
    """One study process: its wall time, its records and its verdict."""

    def __init__(self, workload, tag, mode, deadline):
        cfg, extra = WORKLOADS[workload]
        self.out = WORK / tag
        stats_path = WORK / f"{tag}.json"
        cmd = [sys.executable, str(HERE / "study.py"), mode, str(stats_path),
               "--", "run", str(HERE / "workloads" / cfg), "--jobs", "1",
               "--out", str(self.out), *extra]
        self.stats = None
        self.error = None
        self.rates = b""
        self.t_start = time.perf_counter()
        try:
            proc = subprocess.run(cmd, env=study_env(), cwd=WORK,
                                  capture_output=True, text=True,
                                  timeout=max(1.0, deadline - self.t_start))
        except subprocess.TimeoutExpired as err:
            proc, self.error = None, f"timed out after {err.timeout:.0f} s"
        self.t_exit = time.perf_counter()
        self.study_s = self.t_exit - self.t_start
        if proc is None:
            return
        if proc.returncode != 0:
            self.error = (f"exit code {proc.returncode}: "
                          f"{proc.stderr.strip()[-2000:]}")
            return
        self.stats = json.loads(stats_path.read_text())
        summary = json.loads((self.out / "summary.json").read_text())
        self.rates = (self.out / "rates.csv").read_bytes()
        reference = (HERE / "reference" / f"{workload}.csv").read_text()
        if summary.get("passed") is not True:
            self.error = "summary.json: passed is not true"
        else:
            self.error = compare_rates(self.rates.decode(), reference)
        shutil.rmtree(self.out)

    @property
    def ok(self):
        return self.error is None


def run_untraced(workload, seconds, deadline):
    """Studies with the calibration timed before the first and after each.

    Returns the studies, the end-to-end metrics and, for the log only, the
    measured (unscaled) medians and the median calibration time.
    """
    cal = calibration.Calibration()
    cal_s = [cal.time()]
    studies, scales = [], []

    def one_round(i):
        studies.append(Study(workload, f"plain-{i}", "setup", deadline))
        cal_s.append(cal.time())
        scales.append(calibration.REFERENCE_S / statistics.fmean(cal_s[-2:]))

    repeat(seconds, one_round)
    done = [(s, k) for s, k in zip(studies, scales) if s.stats]
    if not done:
        return studies, {}, {}
    setup = [tracing.setup_seconds(s.stats["spans"]) for s, _ in done]
    metrics = {
        "study_s": statistics.median(s.study_s * k for s, k in done),
        "setup_s": statistics.median(
            t * k for t, (_, k) in zip(setup, done)),
        "peak_rss_mb": statistics.median(
            s.stats["maxrss_kb"] / 1024 for s, _ in done),
    }
    measured = {
        "study_s.measured": statistics.median(s.study_s for s, _ in done),
        "setup_s.measured": statistics.median(setup),
        "calibration_s": statistics.median(cal_s),
    }
    return studies, metrics, measured


def run_traced(workload, seconds, deadline):
    studies, per_pair = [], []

    def pair(i):
        plain = Study(workload, f"plain-{i}", "setup", deadline)
        traced = Study(workload, f"traced-{i}", "trace", deadline)
        studies.extend((plain, traced))
        if plain.ok and traced.ok and plain.rates != traced.rates:
            traced.error = "traced rates.csv differs from the untraced one"
        if plain.stats and traced.stats:
            m = tracing.layer_metrics(traced.stats, traced.t_start,
                                      traced.t_exit)
            m["trace.overhead_s"] = traced.study_s - plain.study_s
            per_pair.append(m)

    repeat(seconds, pair)
    if not per_pair:
        return studies, {}, {}
    # one whole traced study, so its self times still add up to its study_s
    middle = statistics.median_low(m["trace.study_s"] for m in per_pair)
    metrics = next(m for m in per_pair if m["trace.study_s"] == middle)
    metrics["trace.overhead_s"] = statistics.median(
        m["trace.overhead_s"] for m in per_pair)
    return studies, metrics, {}


def repeat(seconds, one_round):
    """Run rounds back to back while the next should end near `seconds`.

    The first round always runs.  Another starts while the elapsed time
    plus half the last round's length is under the budget, so a run ends
    within half a round of `seconds` and the number of rounds does not
    flip with small changes in their length.
    """
    t_begin = time.perf_counter()
    i = 0
    while True:
        t_round = time.perf_counter()
        one_round(i)
        i += 1
        now = time.perf_counter()
        if now - t_begin + 0.5 * (now - t_round) >= seconds:
            return


def environment(seed):
    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "threads": THREADS,
        "thread_vars": ",".join(THREAD_VARS),
        "seed": seed,
    }


def check_source_tree():
    """Fail unless mixpar imports from this checkout's src/ tree."""
    if not (SRC / "mixpar" / "cli.py").is_file():
        sys.exit(f"perfbench: no mixpar sources under {SRC}")
    probe = subprocess.run(
        [sys.executable, "-c", "import mixpar.cli; print(mixpar.__file__)"],
        env=study_env(), cwd=WORK, capture_output=True, text=True,
        timeout=60)
    where = Path(probe.stdout.strip() or "?").resolve()
    if probe.returncode != 0 or SRC.resolve() not in where.parents:
        sys.exit(f"perfbench: mixpar does not import from {SRC}: "
                 f"{probe.stderr.strip()[-2000:]}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    t_begin = time.perf_counter()
    # the calibration runs in this process, with a study's thread count
    os.environ.update({var: str(THREADS) for var in THREAD_VARS})
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    try:
        check_source_tree()
        runner = run_traced if args.trace else run_untraced
        studies, metrics, measured = runner(args.workload, args.seconds,
                                            t_begin + RUN_LIMIT_S)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    failed = [s for s in studies if not s.ok]
    for study in failed:
        print(f"perfbench: study failed: {study.error}", file=sys.stderr)
    env = environment(args.seed)
    print(f"workload {args.workload} trace {args.trace} studies "
          f"{len(studies)} failed_frac {len(failed) / len(studies):g}")
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, value in {**metrics, **measured}.items():
        print(f"{name:32s} {value:>18.9g} {unit(name)}")
    result = {
        "correct": not failed and bool(metrics),
        "attempted": len(studies),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit(name)}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
