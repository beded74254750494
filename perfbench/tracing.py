"""Spans around mixpar's layer boundaries, recorded from outside the package.

A ``Tracer`` replaces the module attributes that ``mixpar.runner``,
``mixpar.timestep`` and ``mixpar.vtkio`` look up at call time with timing
wrappers, keeps every span in memory and puts each original back in
``restore()``.  No file of the package is changed.

A span is ``[name, start, end, parent, level]``: ``name`` is
``<layer>.<boundary>`` with the layer named after the mixpar module,
``parent`` is the index of the enclosing span (``-1`` for the root) and
``level`` the refinement level being run (``None`` outside a level).
Counters are recorded at the same boundaries, per level.

``layer_metrics`` turns one traced study into the per-layer metrics the
benchmark reports.  A span's self time is its duration minus the time its
child spans cover, so the self times of all spans add up to the root span.
"""
from __future__ import annotations

import dataclasses
import math
import operator
import os
import statistics
import time
from collections import defaultdict

LAYERS = ("mesh", "spaces", "assembly", "saddle", "timestep", "analysis",
          "problems", "vtkio", "runner")

# metric -> span names whose outermost occurrences it sums (inclusive time)
TIMINGS = {
    "mesh.build_s": ("mesh.build",),
    "spaces.build_s": ("spaces.build", "spaces.interpolate"),
    "assembly.operators_s": ("assembly.operators",),
    "assembly.load_s": ("assembly.load",),
    "saddle.factor_s": ("saddle.factor",),
    "saddle.solve_s": ("saddle.solve",),
    "saddle.probe_s": ("saddle.probe",),
    "timestep.loop_s": ("timestep.loop",),
    "analysis.errors_s": ("analysis.errors",),
    "problems.eval_s": ("problems.case", "problems.eval"),
    "vtkio.write_s": ("vtkio.write",),
}

ROOT_SPAN = "runner.main"
LEVEL_SPAN = "runner.level"
TAIL_BEYOND = 10


class Tracer:
    """In-memory span recorder that patches and restores module attributes."""

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(dict)   # name -> {level: value}
        self.level = None
        self._stack = []
        self._saved = []

    # -- spans and counters -------------------------------------------------

    def open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent,
                           self.level])
        self._stack.append(len(self.spans) - 1)

    def close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def count(self, name, value, op=operator.add):
        per_level = self.counters[name]
        key = self.level
        per_level[key] = op(per_level[key], value) if key in per_level else value

    def call(self, name, fn, *args, **kwargs):
        self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close()

    def wrap(self, fn, name, after=None):
        """Return fn timed as span `name`; after(result, args) may replace it."""
        def traced(*args, **kwargs):
            out = self.call(name, fn, *args, **kwargs)
            return out if after is None else after(out, args)
        traced.__wrapped__ = fn
        return traced

    # -- patching -----------------------------------------------------------

    def patch(self, owner, attr, replacement):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def restore(self):
        """Put every patched attribute back, newest first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def level_wrapper(self, run_level):
        def traced(cfg, level, *args, **kwargs):
            outer, self.level = self.level, level
            try:
                return self.call(LEVEL_SPAN, run_level, cfg, level,
                                 *args, **kwargs)
            finally:
                self.level = outer
        traced.__wrapped__ = run_level
        return traced

    def to_json(self):
        return {
            "spans": self.spans,
            "counters": {name: [[lv, v] for lv, v in per_level.items()]
                         for name, per_level in self.counters.items()},
        }


# -- what gets wrapped -------------------------------------------------------

def install(tracer, full=True):
    """Patch mixpar's layer boundaries; `full=False` records set-up only.

    The set-up-only form wraps the per-level entry and the load, which is
    all ``setup_s`` needs and costs one span per step.
    """
    from mixpar import runner, timestep, vtkio
    from scipy.sparse.linalg import SuperLU

    t = tracer

    def counted(metric, value_of):
        def after(out, args):
            t.count(metric, value_of(out, args))
            return out
        return after

    t.patch(runner, "run_level", t.level_wrapper(runner.run_level))
    t.patch(runner, "assemble_load",
            t.wrap(runner.assemble_load, "assembly.load",
                   counted("assembly.load_calls", lambda out, a: 1)))
    if not full:
        return

    probe_after = counted("saddle.probe_calls", lambda out, a: 1)
    points_after = counted("problems.points", lambda out, a: len(a[0]))

    def case_after(case, args):
        wrapped = {
            f.name: t.wrap(getattr(case, f.name), "problems.eval",
                           points_after)
            for f in dataclasses.fields(case)
            if callable(getattr(case, f.name))
        }
        return dataclasses.replace(case, **wrapped)

    def solver_after(solver, args):
        lus = [v for v in vars(solver).values() if isinstance(v, SuperLU)]
        t.count("saddle.lu_nnz", sum(lu.L.nnz + lu.U.nnz for lu in lus))
        t.count("saddle.unknowns", sum(lu.shape[0] for lu in lus))

        def solve_after(out, solve_args):
            t.count("saddle.residual_max", float(out[2].block_residual), max)
            return out
        solver.solve = t.wrap(solver.solve, "saddle.solve", solve_after)
        return solver

    def vtk_after(out, args):
        t.count("vtkio.files", 1)
        t.count("vtkio.bytes", os.path.getsize(args[0]))
        return out

    targets = [
        (runner, "structured_mesh", "mesh.build",
         counted("mesh.cells", lambda m, a: m.num_cells)),
        (runner, "build_space", "spaces.build",
         counted("spaces.dofs", lambda s, a: s.num_free)),
        (runner, "interpolate", "spaces.interpolate", None),
        (runner, "assemble_stokes", "assembly.operators", None),
        (runner, "assemble_eddy2d", "assembly.operators", None),
        (runner, "stokes_case", "problems.case", case_after),
        (runner, "eddy2d_case", "problems.case", case_after),
        (runner, "run", "timestep.loop",
         counted("timestep.steps", lambda sol, a: sol.grid.N)),
        (runner, "compute_errors", "analysis.errors", None),
        (runner, "estimate_infsup", "saddle.probe", probe_after),
        (runner, "estimate_garding", "saddle.probe", probe_after),
        (runner, "kernel_basis", "saddle.probe", probe_after),
        (timestep, "SaddleSolver", "saddle.factor", solver_after),
        (vtkio, "write_unstructured", "vtkio.write", vtk_after),
    ]
    for owner, attr, name, after in targets:
        t.patch(owner, attr, t.wrap(getattr(owner, attr), name, after))


# -- metrics -----------------------------------------------------------------

def self_times(spans):
    """Duration of each span minus the time its direct children cover."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def setup_seconds(spans):
    """Sum over levels of level start to the level's first load call."""
    starts, firsts = {}, {}
    for name, start, _, _, level in spans:
        if name == LEVEL_SPAN:
            starts[level] = start
        elif name == "assembly.load":
            firsts.setdefault(level, start)
    return sum(firsts[lv] - starts[lv] for lv in starts if lv in firsts)


def tail_percentile(n):
    """Highest whole percentile with at least TAIL_BEYOND samples above it."""
    if n <= TAIL_BEYOND:
        raise ValueError(f"{n} samples leave no percentile with "
                         f"{TAIL_BEYOND} beyond it")
    return math.floor(100 * (n - TAIL_BEYOND) / n)


def percentile(values, pct):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct * len(ordered) / 100))
    return ordered[rank - 1]


def layer_metrics(trace, t_start, t_exit):
    """Per-layer metrics of one traced study process.

    `trace` is ``Tracer.to_json()``; `t_start` and `t_exit` are the clock
    readings of the parent at process start and after the exit code.  The
    layer self times plus ``runner.import_s`` and ``runner.exit_s`` add up
    to ``trace.study_s``.

    Timings are totals over all levels, with ``.finest`` the same timing on
    the finest level.  Per-call ``_p50`` and ``_ptail`` come from the
    finest level's ``timestep.steps.finest`` calls; ``_ptail`` is the
    ``tail_percentile`` of that count (p75 at 40 steps, p84 at 64, p93 at
    160; p50 below 11).  Size counters are the finest level's, event
    counters are totals.
    """
    spans = trace["spans"]
    counters = {name: dict((lv, v) for lv, v in pairs)
                for name, pairs in trace["counters"].items()}
    own = self_times(spans)
    levels = [lv for name, *_, lv in spans if name == LEVEL_SPAN]
    finest = max(levels)
    root = next(s for s in spans if s[0] == ROOT_SPAN)

    out = {}
    for metric, names in TIMINGS.items():
        outer = _outermost(spans, set(names))
        out[metric] = sum(spans[i][2] - spans[i][1] for i in outer)
        out[metric + ".finest"] = sum(spans[i][2] - spans[i][1]
                                      for i in outer if spans[i][4] == finest)
    for layer in LAYERS:
        mine = [i for i, s in enumerate(spans)
                if s[0].split(".", 1)[0] == layer]
        out[f"{layer}.self_s"] = sum(own[i] for i in mine)
        out[f"{layer}.self_s.finest"] = sum(own[i] for i in mine
                                            if spans[i][4] == finest)
    out["runner.import_s"] = root[1] - t_start
    out["runner.exit_s"] = t_exit - root[2]
    level_time = [s[2] - s[1] for s in spans if s[0] == LEVEL_SPAN]
    out["runner.finest_share"] = (
        sum(s[2] - s[1] for s in spans
            if s[0] == LEVEL_SPAN and s[4] == finest) / sum(level_time))

    steps = counters["timestep.steps"][finest]
    tail = tail_percentile(steps) if steps > TAIL_BEYOND else 50
    for metric, name in (("assembly.load_ms", "assembly.load"),
                         ("saddle.solve_ms", "saddle.solve")):
        ms = [1e3 * (s[2] - s[1]) for s in spans
              if s[0] == name and s[4] == finest]
        out[metric + "_p50"] = statistics.median(ms)
        out[metric + "_ptail"] = percentile(ms, tail)

    def total(name):
        return sum(counters.get(name, {}).values())

    def at_finest(name):
        return counters.get(name, {}).get(finest, 0)

    out.update({
        "mesh.cells": at_finest("mesh.cells"),
        "spaces.dofs": at_finest("spaces.dofs"),
        "saddle.lu_nnz": at_finest("saddle.lu_nnz"),
        "saddle.unknowns": at_finest("saddle.unknowns"),
        "saddle.residual_max": max(
            counters.get("saddle.residual_max", {0: 0.0}).values()),
        "saddle.probe_levels": len(counters.get("saddle.probe_calls", {})),
        "timestep.steps": total("timestep.steps"),
        "timestep.steps.finest": steps,
        "assembly.load_calls": total("assembly.load_calls"),
        "problems.points": total("problems.points"),
        "vtkio.files": total("vtkio.files"),
        "vtkio.bytes": total("vtkio.bytes"),
        "trace.study_s": t_exit - t_start,
    })
    return out


def _outermost(spans, names):
    """Indices of spans named in `names` with no ancestor named in it too."""
    picked = []
    for i, span in enumerate(spans):
        if span[0] not in names:
            continue
        parent = span[3]
        while parent >= 0 and spans[parent][0] not in names:
            parent = spans[parent][3]
        if parent < 0:
            picked.append(i)
    return picked
