"""Refinement-study runner: builds levels, steps them, reports rates.

Levels refine mesh and time step together (dt proportional to h).  The
CSV schema of rates.csv is a stability contract; the rooted error
columns come first, their raw squared counterparts are appended after
the probe columns.
"""
from __future__ import annotations

import json
import shutil
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor, as_completed
from pathlib import Path

import numpy as np

from .analysis import LevelResult, compute_errors, fit_rates
from .assembly import (CellTables, assemble_eddy2d, assemble_load,
                       assemble_stokes)
from .mesh import structured_mesh
from .problems import eddy2d_case, stokes_case
from .saddle import (DENSE_LIMIT, SingularSystem, estimate_coercivity,
                     estimate_infsup, named_failures)
# unused here; kept importable because the benchmark tracer patches them
from .saddle import estimate_garding, kernel_basis  # noqa: F401
from .spaces import interpolate  # noqa: F401
from .spaces import build_space
from .timestep import TimeGrid, run
from . import vtkio

__all__ = ["run_experiment", "run_level", "CSV_COLUMNS"]

CSV_COLUMNS = [
    "level", "h", "dt",
    "err_u_maxR", "err_u_l2X", "err_lambda_l2M", "err_dtu",
    "rel_E_pct", "rel_H_pct", "beta_h", "alpha_h",
    "err_u_maxR_sq", "err_u_l2X_sq", "err_lambda_l2M_sq", "err_dtu_sq",
]


def _build_instance(cfg, level):
    n = cfg.n * 2 ** level
    if cfg.case == "stokes":
        case = stokes_case(nu=cfg.nu)
        mesh = structured_mesh(case.domain, n, pattern=cfg.pattern)
        primal = build_space(mesh, "mini", bc="zero_outer")
        mult = build_space(mesh, "p1", bc=None)
        ops = assemble_stokes(primal, mult, nu=cfg.nu)
    else:
        case = eddy2d_case(sigma=cfg.sigma, mu_mag=cfg.mu_mag)
        mesh = structured_mesh(case.domain, n, conductor=case.conductor,
                               pattern=cfg.pattern)
        primal = build_space(mesh, "edge", bc="zero_outer")
        mult = build_space(mesh, "multiplier", bc="zero_outer")
        ops = assemble_eddy2d(primal, mult, sigma=cfg.sigma, eps=cfg.eps,
                              mu_mag=cfg.mu_mag)
    # both cases start from rest, u(., 0) = 0, so run's zero u^0 is exact
    load = lambda t: assemble_load(
        primal, (case.load_factors, case.load_profiles), t)
    grid = TimeGrid(cfg.T, cfg.steps * 2 ** level)
    return mesh, case, ops, grid, load


def run_level(cfg, level, vtk_dir=None):
    mesh, case, ops, grid, load = _build_instance(cfg, level)
    # each step goes into the error sweep and, when it is one, is written
    # as a snapshot; both are built on the first step so that nothing runs
    # between the level's start and its first load, and no history is kept
    sweep = write = None

    def observe(n, u, lam):
        nonlocal sweep, write
        if sweep is None:
            sweep = compute_errors(case, ops, grid)
            write = _snapshot_writer(cfg, level, mesh, ops, vtk_dir)
        sweep.add(n, u, lam)
        if write and (n % cfg.vtk_every == 0 or n == grid.N):
            write(n, u, lam)

    probed = cfg.probes and ops.B.shape[1] <= DENSE_LIMIT
    with named_failures(f"level {level}"):
        solution = run(ops, load, grid, observe)
        beta_h = estimate_infsup(ops) if probed else 0.0
        alpha_h = estimate_coercivity(ops, cfg.xi) if probed else 0.0

    return LevelResult(
        level=level,
        h=mesh.h,
        dt=grid.dt,
        norms=sweep.finish(),
        beta_h=beta_h,
        alpha_h=alpha_h,
        lam_norm_max=sweep.lam_norm_max,
        u_norm_max=sweep.u_norm_max,
        constraint_max=solution.constraint_max,
        block_residual_max=solution.block_residual_max,
        factor_fill=solution.factor_fill,
        stability_margin_ok=(1.0 + 2.0 * cfg.xi) * grid.dt <= 0.5,
        constraint_rel_max=solution.constraint_rel_max,
        n_primal=ops.primal.num_free,
        n_multiplier=ops.multiplier.num_free,
        probed=probed,
    )


def _snapshot_writer(cfg, level, mesh, ops, vtk_dir):
    """write(n, u^n, lam^n), which writes step n's snapshot, or None when
    the level writes none.  Step 0, which is rest, is written here."""
    if vtk_dir is None or cfg.vtk_every <= 0:
        return None
    vtk_dir.mkdir(parents=True, exist_ok=True)
    # the multiplier at the vertices: p1 maps vertex k to DOF k, and the
    # eddy multiplier, which lives on the insulator, reads 0 inside the
    # conductor
    nv = mesh.num_vertices
    vertex_dof = ops.multiplier.vertex_dof
    ok = vertex_dof >= 0
    if cfg.case == "eddy2d":
        # per cell: the weighted average of the field at the six points,
        # which is its centroid value, as the rule integrates the linear
        # Whitney field exactly; and one row of the cellwise constant curl
        tab = CellTables.of(ops.primal)
        nq = len(tab.rule.weights)
        average = tab.rule.weights / tab.rule.weights.sum()
        curl = tab.der[::nq]

    def write(n, u, lam_n):
        path = vtk_dir / f"{cfg.case}_L{level}_step{n:04d}.vtk"
        lam = np.zeros(nv)
        lam[ok] = ops.multiplier.extend(lam_n)[vertex_dof[ok]]
        if cfg.case == "stokes":
            full = ops.primal.extend(u)
            # vector DOF 2k+d is component d at vertex k
            point_data = {"velocity": full[:2 * nv].reshape(nv, 2),
                          "multiplier": lam}
            cell_data = None
        else:
            vals = tab.apply("val", u).reshape(-1, nq, 2)
            point_data = {"multiplier": lam}
            cell_data = {"u": np.einsum("q,cqd->cd", average, vals),
                         "rot_u": curl @ u}
        vtkio.write_unstructured(path, mesh, point_data=point_data,
                                 cell_data=cell_data,
                                 title=f"{cfg.case} step {n}")

    write(0, np.zeros(ops.primal.num_free), np.zeros(ops.multiplier.num_free))
    return write


def _format_row(res):
    rooted = res.norms.rooted()
    vals = {
        "level": res.level,
        "h": res.h,
        "dt": res.dt,
        **rooted,
        "beta_h": res.beta_h,
        "alpha_h": res.alpha_h,
        "err_u_maxR_sq": res.norms.max_R,
        "err_u_l2X_sq": res.norms.l2_X,
        "err_lambda_l2M_sq": res.norms.l2_M,
        "err_dtu_sq": res.norms.dt_R,
    }
    cells = []
    for col in CSV_COLUMNS:
        v = vals[col]
        cells.append(str(v) if col == "level" else f"{v:.12e}")
    return ",".join(cells)


def run_experiment(cfg):
    """Execute the configured refinement study; returns the exit code.

    0: thresholds met (or too few levels to fit rates), 1: a fitted rate
    fell below its threshold, 2: the output directory cannot be created
    (checked before the first level), 3: solver failure.  Any other
    exception is a bug and propagates (`cli.command` reports it as exit
    4).

    Every output is written to a fresh directory inside `cfg.out` and
    moved into place only once every level has succeeded, so a failed
    run leaves an existing `cfg.out` as it was (and removes one it
    created).  Files there that the run does not write stay untouched.
    """
    out = Path(cfg.out)
    created = not out.exists()
    try:
        out.mkdir(parents=True, exist_ok=True)
        stage = Path(tempfile.mkdtemp(prefix=".mixpar-", dir=out))
    except OSError as err:
        if created and out.is_dir():
            shutil.rmtree(out)
        print(f"output error: cannot create {out}: {err}", file=sys.stderr)
        return 2

    vtk_dir = stage / "vtk" if cfg.vtk_every > 0 else None
    try:
        passed = _write_outputs(cfg, stage, _run_levels(cfg, vtk_dir))
        # sorted, a directory comes before the files in it
        for path in sorted(stage.rglob("*")):
            target = out / path.relative_to(stage)
            if path.is_dir():
                target.mkdir(exist_ok=True)
            else:
                path.replace(target)
    except Exception as err:
        if created:
            shutil.rmtree(out)
        if not isinstance(err, SingularSystem):
            raise
        print(f"solver failure: {err}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(stage, ignore_errors=True)
    return 0 if passed else 1


def _run_levels(cfg, vtk_dir):
    if cfg.jobs == 1:
        return [run_level(cfg, lv, vtk_dir) for lv in range(cfg.levels)]
    with ThreadPoolExecutor(max_workers=cfg.jobs) as pool:
        # the finest level, most of the study, starts first
        futures = [pool.submit(run_level, cfg, lv, vtk_dir)
                   for lv in reversed(range(cfg.levels))]
        try:
            for f in as_completed(futures):
                f.result()
        except BaseException:
            # leaving the block waits for every started level, so drop
            # the ones that have not started
            pool.shutdown(cancel_futures=True)
            raise
        return [f.result() for f in reversed(futures)]


def _write_outputs(cfg, out, results):
    """Write rates.csv and summary.json; True if every rate met its floor."""
    csv_path = out / "rates.csv"
    with open(csv_path, "w") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for res in results:
            fh.write(_format_row(res) + "\n")

    rates = {}
    passed = True
    if cfg.levels >= 3:
        hs = [r.h for r in results]
        rates = {m: fit_rates(hs, [r.norms.rooted()[m] for r in results])
                 for m in cfg.thresholds}
        passed = all(rates[m] >= cfg.thresholds[m] for m in rates)

    summary = {
        "case": cfg.case,
        "levels": cfg.levels,
        "h": [r.h for r in results],
        "dt": [r.dt for r in results],
        "dofs_primal": [r.n_primal for r in results],
        "dofs_multiplier": [r.n_multiplier for r in results],
        "rates": rates or None,
        "thresholds": cfg.thresholds,
        "passed": bool(passed),
        "probes": [
            {"level": r.level, "beta_h": r.beta_h, "alpha_h": r.alpha_h,
             "probed": r.probed}
            for r in results
        ],
        "multiplier_norm_max": [r.lam_norm_max for r in results],
        "constraint_residual_max": [r.constraint_max for r in results],
        "block_residual_max": [r.block_residual_max for r in results],
        "factor_fill": [r.factor_fill for r in results],
        "stability_margin_ok": [r.stability_margin_ok for r in results],
    }
    with open(out / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")

    return passed
