"""Discrete error norms, best-approximation diagnostics, and rate fits.

Error integrands evaluate the exact solution pointwise at quadrature
nodes (never its interpolant) against the discrete coefficient fields.
ErrorNorms stores the squared time-discrete quantities; reported values
are their square roots, so fitted rates read as O(h + dt).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg as spla

from . import mesh as meshmod
from .assembly import CellTables
from .saddle import DENSE_LIMIT, NotDenseFeasible

__all__ = [
    "ErrorNorms", "LevelResult", "ConvergenceReport",
    "compute_errors", "best_approximation", "fit_rates", "r_energy",
    "TooFewLevels",
]


class TooFewLevels(ValueError):
    """Rate fitting needs at least three refinement levels."""


@dataclass
class ErrorNorms:
    """Squared time-discrete error norms plus Test-1 style percentages.

    max_R : max_n <R e^n, e^n>
    l2_X  : dt sum_n ||e^n||_X^2
    l2_M  : dt sum_n ||lam(t_n) - lam_h^n||_M^2
    dt_R  : dt sum_k <R(du/dt(t_k) - dbar u_h^k), same>
    rel_E, rel_H : relative percentage errors of the recovered fields
        (eddy instance only; zero otherwise)
    """

    max_R: float = 0.0
    l2_X: float = 0.0
    l2_M: float = 0.0
    dt_R: float = 0.0
    rel_E: float = 0.0
    rel_H: float = 0.0

    def rooted(self):
        return {
            "err_u_maxR": float(np.sqrt(self.max_R)),
            "err_u_l2X": float(np.sqrt(self.l2_X)),
            "err_lambda_l2M": float(np.sqrt(self.l2_M)),
            "err_dtu": float(np.sqrt(self.dt_R)),
            "rel_E_pct": self.rel_E,
            "rel_H_pct": self.rel_H,
        }


@dataclass
class LevelResult:
    level: int
    h: float
    dt: float
    norms: ErrorNorms
    beta_h: float = 0.0
    alpha_h: float = 0.0
    lam_norm_max: float = 0.0
    u_norm_max: float = 0.0
    constraint_max: float = 0.0
    constraint_rel_max: float = 0.0
    block_residual_max: float = 0.0
    factor_fill: int = 0
    stability_margin_ok: bool = True
    n_primal: int = 0
    n_multiplier: int = 0
    probed: bool = False


@dataclass
class ConvergenceReport:
    case: str
    levels: list = field(default_factory=list)

    def __post_init__(self):
        hs = [lv.h for lv in self.levels]
        if any(b >= a for a, b in zip(hs, hs[1:])):
            raise ValueError("levels must be strictly decreasing in h")

    def rates(self, metrics):
        hs = np.array([lv.h for lv in self.levels])
        out = {}
        for m in metrics:
            vals = np.array([lv.norms.rooted()[m] for lv in self.levels])
            out[m] = fit_rates(hs, vals)
        return out


def r_energy(R, e):
    """Quadratic form <R e, e> of a coefficient vector."""
    e = np.asarray(e, dtype=float)
    return float(e @ (R @ e))


def _sq(a):
    """Squared Euclidean norm per point of (m,), (m, 2) or (m, 2, 2) data."""
    a = a.reshape(len(a), -1)
    return np.einsum("ij,ij->i", a, a)


def _x_norm_terms(case):
    """Exact derivative entering the X norm, and whether X adds the L2 term.

    X is the H1_0 seminorm (Stokes) or the H(curl) norm (eddy); for the
    eddy case M likewise adds the H1 seminorm to the L2 norm.
    """
    if case.kind == "eddy2d":
        return case.rot_u, True
    return case.grad_u, False


def compute_errors(solution, case, ops, quad_degree=4, steps=None):
    """Error norms of a time series against the manufactured case.

    steps, when given, is an inclusive (first, last) step range for the
    time sums; the squared l2-type norms are additive over disjoint
    ranges by construction.
    """
    tu = CellTables.of(ops.primal, quad_degree)
    tm = CellTables.of(ops.multiplier, quad_degree)
    grid = solution.grid
    dt = grid.dt
    n0, n1 = steps if steps is not None else (1, grid.N)
    if not (1 <= n0 <= n1 <= grid.N):
        raise ValueError("invalid step range")

    exact_der, full_norms = _x_norm_terms(case)
    if full_norms:
        cells = tu.cells.repeat(tu.wdet.shape[1])
        w_cond = tu.w * (ops.primal.mesh.cell_subdomain[cells]
                         == meshmod.CONDUCTOR)
        wR = case.coeffs.sigma * w_cond
        grad_lam = case.grad_multiplier or (lambda p, t: np.zeros((len(p), 2)))
    else:
        wR = tu.w

    norms = ErrorNorms()
    relE_num = relE_den = relH_num = relH_den = 0.0
    l2X = l2M = dtR = 0.0
    v_prev = tu.values(solution.u[n0 - 1])
    for n in range(n0, n1 + 1):
        t = n * dt
        u = solution.u[n]
        v = tu.values(u)
        due = case.dudt(tu.qp, t)
        e2 = _sq(case.u(tu.qp, t) - v)
        de2 = _sq(due - (v - v_prev) / dt)
        v_prev = v
        der_e = exact_der(tu.qp, t)
        der2 = float(tu.w @ _sq(der_e - tu.derivs(u)))
        norms.max_R = max(norms.max_R, float(wR @ e2))
        l2X += der2 + (float(tu.w @ e2) if full_norms else 0.0)
        dtR += float(wR @ de2)

        lam = solution.lam[n]
        l2M += float(tm.w @ _sq(case.multiplier(tm.qp, t) - tm.values(lam)))
        if full_norms:
            l2M += float(tm.w @ _sq(grad_lam(tm.qp, t) - tm.derivs(lam)))
            relE_num += float(w_cond @ de2)
            relE_den += float(w_cond @ _sq(due))
            # H = rot(u) / mu_mag; the factor cancels in the ratio
            relH_num += der2
            relH_den += float(tu.w @ _sq(der_e))

    norms.l2_X = dt * l2X
    norms.l2_M = dt * l2M
    norms.dt_R = dt * dtR
    if full_norms:
        norms.rel_E = 100.0 * float(np.sqrt(relE_num / relE_den)) \
            if relE_den > 0 else 0.0
        norms.rel_H = 100.0 * float(np.sqrt(relH_num / relH_den)) \
            if relH_den > 0 else 0.0
    return norms


def best_approximation(space, ops, case, times, quad_degree=4):
    """X-orthogonal projection error of the exact field per time sample.

    A computable upper-bound proxy for the best-approximation infimum
    appearing in the error estimates.
    """
    if space.num_free > DENSE_LIMIT:
        raise NotDenseFeasible(f"{space.num_free} DOFs exceed {DENSE_LIMIT}")
    tab = CellTables.of(space, quad_degree)
    lu = spla.splu(ops.X.tocsc())
    exact_der, full_norms = _x_norm_terms(case)
    out = []
    for t in np.atleast_1d(times):
        ue = case.u(tab.qp, t) if full_norms else None
        de = exact_der(tab.qp, t)
        coef = lu.solve(tab.moments(ue, de))
        err2 = _sq(de - tab.derivs(coef))
        if full_norms:
            err2 += _sq(ue - tab.values(coef))
        out.append(np.sqrt(float(tab.w @ err2)))
    return np.asarray(out)


def fit_rates(hs, errors):
    """Least-squares slope of log(error) versus log(h)."""
    hs = np.asarray(hs, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if hs.size < 3:
        raise TooFewLevels("need at least 3 levels to fit a rate")
    errs = np.clip(errors, 1e-300, None)
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    return float(slope)
