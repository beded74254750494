"""Backward-Euler loop for the per-step saddle systems.

Each step solves

    (R + dt A) u^n + B^T lam^n = dt f(t_n) + R u^{n-1} + B^T lam^{n-1}
    B u^n = 0

starting from rest, u^0 = 0 and lam^0 = 0; the constraint data g is
zero in both problem instances.  The block matrix is time-independent,
so it is factorized once, by a `saddle.SaddleSolver` of the level, and
reused for all steps.
A step needs only the one before it, so a run can hand each step to an
observer and keep no history; its residuals are kept as running maxima.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .saddle import SaddleSolver, named_failures

__all__ = ["TimeGrid", "TimeSeriesSolution", "run"]


@dataclass(frozen=True)
class TimeGrid:
    """Uniform partition of [0, T] into N steps."""

    T: float
    N: int

    def __post_init__(self):
        if (isinstance(self.N, bool)
                or not isinstance(self.N, (int, np.integer)) or self.N < 1):
            raise ValueError("N must be an integer >= 1")
        if not (np.isfinite(self.T) and self.T > 0.0):
            raise ValueError("T must be finite and positive")

    @property
    def dt(self):
        return self.T / self.N


@dataclass
class TimeSeriesSolution:
    """Coefficients (u^n, lam^n) for n = 0..N (None when a run streams
    into an observer), the maxima over the steps of the block residual,
    the constraint residual and that over 1 + ||u^n||, and the fill of
    the bubble-free factorization (SaddleSolver.fill)."""

    u: np.ndarray | None     # (N+1, n_primal_free)
    lam: np.ndarray | None   # (N+1, n_multiplier_free)
    grid: TimeGrid
    block_residual_max: float = 0.0
    constraint_max: float = 0.0
    constraint_rel_max: float = 0.0
    factor_fill: int = 0


def run(ops, load, grid, observe=None):
    """Advance the backward-Euler scheme from rest over the time grid.

    load(t) returns the free-DOF moment vector of f(t).  With `observe`,
    each step n = 1..N ends with observe(n, u^n, lam^n), on fresh arrays
    the observer may keep, and the run stores no history; without it the
    returned solution holds every step.
    """
    nU = ops.A.shape[0]
    nM = ops.B.shape[0]
    dt = grid.dt
    solver = SaddleSolver(ops.R + dt * ops.A, ops)

    u_hist = lam_hist = None
    if observe is None:
        u_hist = np.zeros((grid.N + 1, nU))
        lam_hist = np.zeros((grid.N + 1, nM))

        def observe(n, un, ln):
            u_hist[n] = un
            lam_hist[n] = ln
    block_max = constraint_max = constraint_rel_max = 0.0

    u = np.zeros(nU)
    lam = np.zeros(nM)
    G = np.zeros(nM)
    for n in range(1, grid.N + 1):
        t = n * dt
        F = dt * load(t) + ops.R @ u + solver.BT @ lam
        with named_failures(f"step {n} (t={t:g})"):
            u, lam, info = solver.solve(F, G)
        block_max = max(block_max, info.block_residual)
        constraint_max = max(constraint_max, info.constraint_residual)
        constraint_rel_max = max(constraint_rel_max, info.constraint_residual
                                 / (1.0 + np.linalg.norm(u)))
        observe(n, u, lam)

    return TimeSeriesSolution(u_hist, lam_hist, grid, block_max,
                              constraint_max, float(constraint_rel_max),
                              solver.fill)
