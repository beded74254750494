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
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from .analysis import ConvergenceReport, LevelResult, compute_errors
from .assembly import (CellTables, assemble_eddy2d, assemble_load,
                       assemble_stokes)
from .mesh import structured_mesh
from .problems import eddy2d_case, stokes_case
from .saddle import (DENSE_LIMIT, ResidualTooLarge, SingularSystem,
                     estimate_garding, estimate_infsup, kernel_basis)
from .spaces import build_space, interpolate
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
        case = stokes_case(nu=cfg.nu, T=cfg.T)
        mesh = structured_mesh(case.domain, n, pattern=cfg.pattern)
        primal = build_space(mesh, "mini", bc="zero_outer")
        mult = build_space(mesh, "p1", bc=None)
        ops = assemble_stokes(primal, mult, nu=cfg.nu,
                              quad_degree=cfg.quad_degree)
        u0 = primal.restrict(interpolate(primal, lambda p: case.u(p, 0.0)))
        load = lambda t: assemble_load(primal, case.f_vec, t,
                                       quad_degree=cfg.quad_degree)
    else:
        case = eddy2d_case(sigma=cfg.sigma, eps=cfg.eps, mu_mag=cfg.mu_mag,
                           T=cfg.T)
        mesh = structured_mesh(case.domain, n, conductor=case.conductor,
                               pattern=cfg.pattern)
        primal = build_space(mesh, "edge", bc="zero_outer")
        mult = build_space(mesh, "multiplier", bc="zero_outer")
        ops = assemble_eddy2d(primal, mult, sigma=cfg.sigma, eps=cfg.eps,
                              mu_mag=cfg.mu_mag, quad_degree=cfg.quad_degree)
        u0 = np.zeros(primal.num_free)
        load = lambda t: assemble_load(primal, case.f_vec, t,
                                       rot_part=case.f_rot,
                                       quad_degree=cfg.quad_degree)
    grid = TimeGrid(cfg.T, cfg.steps * 2 ** level)
    return mesh, case, ops, grid, u0, load


def run_level(cfg, level, vtk_dir=None):
    mesh, case, ops, grid, u0, load = _build_instance(cfg, level)
    margin_ok = (1.0 + 2.0 * cfg.xi) * grid.dt <= 0.5
    if not margin_ok:
        warnings.warn(
            f"level {level}: (1+2*xi)*dt = {(1 + 2 * cfg.xi) * grid.dt:.3f} "
            "> 1/2; the per-step stability margin is not guaranteed",
            stacklevel=2,
        )
    solution = run(ops, load, grid, u0h=u0)
    norms = compute_errors(solution, case, ops, quad_degree=cfg.quad_degree)

    lam_norm_max = max(
        float(np.sqrt(max(lam @ (ops.M @ lam), 0.0))) for lam in solution.lam
    )
    u_norm_max = max(
        float(np.sqrt(max(u @ (ops.X @ u), 0.0))) for u in solution.u
    )
    constraint_rel_max = max(
        (solution.constraint_residuals[n - 1]
         / (1.0 + float(np.linalg.norm(solution.u[n]))))
        for n in range(1, grid.N + 1)
    )

    beta_h = alpha_h = 0.0
    probed = False
    if cfg.probes and ops.B.shape[1] <= DENSE_LIMIT:
        beta_h = estimate_infsup(ops.X, ops.B, ops.M,
                                 project_out=ops.mean_row)
        alpha_h = estimate_garding(ops.A, ops.R, ops.X,
                                   kernel_basis(ops.B), xi=cfg.xi)
        probed = True

    if vtk_dir is not None and cfg.vtk_every > 0:
        _write_snapshots(cfg, level, mesh, ops, case, solution, vtk_dir)

    return LevelResult(
        level=level,
        h=mesh.h,
        dt=grid.dt,
        norms=norms,
        beta_h=beta_h,
        alpha_h=alpha_h,
        lam_norm_max=lam_norm_max,
        u_norm_max=u_norm_max,
        constraint_max=float(solution.constraint_residuals.max(initial=0.0)),
        block_residual_max=float(solution.block_residuals.max(initial=0.0)),
        factor_fill=solution.factor_fill,
        stability_margin_ok=margin_ok,
        constraint_rel_max=float(constraint_rel_max),
        n_primal=ops.primal.num_free,
        n_multiplier=ops.multiplier.num_free,
        probed=probed,
    )


def _write_snapshots(cfg, level, mesh, ops, case, solution, vtk_dir):
    vtk_dir.mkdir(parents=True, exist_ok=True)
    steps = [n for n in range(solution.grid.N + 1) if n % cfg.vtk_every == 0]
    if solution.grid.N not in steps:
        steps.append(solution.grid.N)
    for n in steps:
        path = vtk_dir / f"{cfg.case}_L{level}_step{n:04d}.vtk"
        if cfg.case == "stokes":
            full = ops.primal.extend(solution.u[n])
            nv = mesh.num_vertices
            vel = np.column_stack([full[0:2 * nv:2], full[1:2 * nv:2]])
            lam = ops.multiplier.extend(solution.lam[n])
            vtkio.write_unstructured(
                path, mesh,
                point_data={"velocity": vel, "multiplier": lam},
                title=f"stokes step {n}",
            )
        else:
            # one-point rule: cell-centroid field and per-cell curl
            tab = CellTables.of(ops.primal, 1)
            lam_full = ops.multiplier.extend(solution.lam[n])
            lam_pts = np.zeros(mesh.num_vertices)
            ok = ops.multiplier.vertex_dof >= 0
            lam_pts[ok] = lam_full[ops.multiplier.vertex_dof[ok]]
            vtkio.write_unstructured(
                path, mesh,
                point_data={"multiplier": lam_pts},
                cell_data={"u": tab.values(solution.u[n]),
                           "rot_u": tab.derivs(solution.u[n])},
                title=f"eddy2d step {n}",
            )


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
    (checked before the first level), 3: solver failure.
    """
    out = Path(cfg.out)
    vtk_dir = out / "vtk" if cfg.vtk_every > 0 else None
    created = not out.exists()
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        print(f"output error: cannot create {out}: {err}", file=sys.stderr)
        return 2

    try:
        if cfg.jobs > 1:
            with ThreadPoolExecutor(max_workers=cfg.jobs) as pool:
                futures = [
                    pool.submit(run_level, cfg, lv, vtk_dir)
                    for lv in range(cfg.levels)
                ]
                results = [f.result() for f in futures]
        else:
            results = [run_level(cfg, lv, vtk_dir) for lv in range(cfg.levels)]
    except (SingularSystem, ResidualTooLarge) as err:
        print(f"solver failure: {err}", file=sys.stderr)
        if created:
            shutil.rmtree(out)
        return 3

    csv_path = out / "rates.csv"
    with open(csv_path, "w") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for res in results:
            fh.write(_format_row(res) + "\n")

    report = ConvergenceReport(cfg.case, results)
    rates = {}
    passed = True
    if cfg.levels >= 3:
        rates = report.rates(cfg.thresholds.keys())
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

    return 0 if passed else 1
