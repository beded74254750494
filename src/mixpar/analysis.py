"""Discrete error norms and convergence-rate fits.

The norms measure the exact solution itself (never its interpolant)
against the discrete coefficient fields.  Each is evaluated exactly as a
quadratic form in an operator the level already holds (R, X, M or
mu_mag A), expanded around the interpolant of the exact field so that
no term cancels (see `_Form`): the profiles are evaluated and
interpolated once per level, and each step costs one sparse product per
norm.  The steps are added as they are solved (`ErrorSweep`), so a level
keeps no history of its coefficients.  The quadrature evaluation of the
same norms, point by point and step by step, lives in tests/ as their
oracle.  ErrorNorms stores the squared time-discrete quantities;
reported values are their square roots, so fitted rates read as
O(h + dt).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import mesh as meshmod
from .assembly import CellTables
from .spaces import interpolate

__all__ = [
    "ErrorNorms", "ErrorSweep", "LevelResult", "compute_errors",
    "fit_rates", "TooFewLevels",
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
    rel_E, rel_H : relative percentage errors of the electric field
        E = du/dt on the conductor and the magnetic field H = rot(u)/mu_mag
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


def _per_row(w, r):
    """r (..., rows), laid out like the fields at the points, with each
    point's rows scaled by its weight w[point]; w is broadcast over a
    (..., points, rows a point) view of r, not repeated."""
    per_point = r.reshape(*r.shape[:-1], len(w), r.shape[-1] // len(w))
    return (w[:, None] * per_point).reshape(r.shape)


class _Form:
    """One squared norm  sum_points w |sum_k a_k P_k - F u|^2  as a
    quadratic form in the free coefficients u.

    F is a point map (field values or derivatives), P_k the exact
    field's profiles at its rows and Q = Fᵀ W F the assembled operator.
    With c_k the interpolant of P_k and d = sum_k a_k c_k - u, the
    residual splits as sum_k a_k (P_k - F c_k) + F d, so the norm is

        aᵀ H a + 2 aᵀ G d + dᵀ Q d,
        H_kl = sum w (P_k - F c_k).(P_l - F c_l),  G_k = Fᵀ W (P_k - F c_k).

    Every term is of the error's size, so nothing cancels.  A form may
    sum several maps (values plus derivatives), each as a piece
    (tab, name, w, r) with F the map `name` of the tables `tab`, w one
    weight per point and r the (K, rows) residuals P - F C at F's rows.
    """

    def __init__(self, Q, pieces):
        self.Q = Q
        self.H = sum(r @ _per_row(w, r).T for *_, w, r in pieces)
        self.G = sum(tab.adjoint(name, r, w) for tab, name, w, r in pieces)

    def __call__(self, a, d):
        sq = a @ self.H @ a + 2.0 * (a @ (self.G @ d)) + d @ (self.Q @ d)
        # round-off may take a vanishing error below 0
        return max(float(sq), 0.0)

    def gram(self, C):
        """sum w P_k.P_l, the Gram matrix of the profiles themselves, from
        P_k = (P_k - F c_k) + F c_k: H + G Cᵀ + C Gᵀ + C Q Cᵀ."""
        GC = self.G @ C.T
        return self.H + GC + GC.T + C @ (self.Q @ C.T)


def _profiles(terms, part, tab, qp, C):
    """The residuals P - F C of the terms' profiles (`value` or `deriv`)
    at the points qp, one row per term, laid out like the fields of the
    table's map F (`val` or `der`), given their interpolants C (K, n)."""
    P = np.array([getattr(term, part)(qp).ravel() for term in terms])
    return tab.residual("val" if part == "value" else "der", P, C)


def _interpolants(terms, space):
    """Free-DOF interpolants of the terms' value profiles, (K, n)."""
    return np.array([interpolate(space, term.value)[space.free]
                     for term in terms]).reshape(len(terms), space.num_free)


class ErrorSweep:
    """The error norms of one level, accumulated step by step.

    Built once per level, where the profiles are evaluated and
    interpolated and the forms are set up.  `add(n, u, lam)` takes the
    steps in order, n = 1..N, from rest, and keeps only u^n (`u_prev`)
    for the next step's difference quotient.  `finish()` returns the
    norms of the steps added so far.

    The sweep also keeps the running maxima of ||lam^n||_M
    (`lam_norm_max`) and ||u^n||_X (`u_norm_max`).
    """

    def __init__(self, case, ops, grid):
        tu = CellTables.of(ops.primal)
        tm = CellTables.of(ops.multiplier)
        # one point layout, so the weights and points of both tables
        w, qp = tu.w, tu.qp
        self.dt = grid.dt
        self.terms = primal, mult = case.terms

        self.C = C = _interpolants(primal, ops.primal)
        self.Cm = Cm = _interpolants(mult, ops.multiplier)

        # X is the H1_0 seminorm (Stokes) or the H(curl) norm (eddy); the
        # eddy M adds the H1 seminorm to the L2 norm, but the exact eddy
        # multiplier has no terms, so its form is dᵀ M d and needs no
        # derivative piece.  The value form is built, and its residual
        # dropped unless the eddy X reads it, before the derivative residual
        # is formed, and the points are dropped before its form is built:
        # the precompute holds at most two residuals and one weighted copy.
        self.M = _Form(ops.M, [
            (tm, "val", w, _profiles(mult, "value", tm, qp, Cm))])
        self.full_norms = case.kind == "eddy2d"
        w_R = w
        if self.full_norms:
            in_cond = ops.primal.mesh.cell_subdomain == meshmod.CONDUCTOR
            w_R = case.coeffs.sigma * w * np.repeat(in_cond,
                                                    len(tu.rule.weights))
        rv = _profiles(primal, "value", tu, qp, C)
        self.R = _Form(ops.R, [(tu, "val", w_R, rv)])
        values = [(tu, "val", w, rv)] if self.full_norms else []
        del rv
        rd = _profiles(primal, "deriv", tu, qp, C)
        del qp
        self.X = _Form(ops.X, values + [(tu, "der", w, rd)])
        if self.full_norms:
            # H = rot(u) / mu_mag; the factor cancels in the ratio, so the
            # magnetic error is the rot part of X, mu_mag A = Dᵀ W D.  The
            # denominators are the exact fields' Gram matrices: sigma E on
            # the conductor, sigma cancelling in the ratio too, and rot u
            self.H = _Form(case.coeffs.mu_mag * ops.A, [(tu, "der", w, rd)])
            self.E_exact, self.H_exact = self.R.gram(C), self.H.gram(C)

        self.max_R = 0.0
        self.l2X = self.l2M = self.dtR = 0.0
        self.relE_den = self.relH_num = self.relH_den = 0.0
        self.u_prev = np.zeros(ops.primal.num_free)
        self.lam_norm_max = self.u_norm_max = 0.0

    def add(self, n, u, lam):
        """Take step n's coefficients."""
        lam_norm = float(np.sqrt(max(lam @ (self.M.Q @ lam), 0.0)))
        u_norm = float(np.sqrt(max(u @ (self.X.Q @ u), 0.0)))
        self.lam_norm_max = max(self.lam_norm_max, lam_norm)
        self.u_norm_max = max(self.u_norm_max, u_norm)

        dt = self.dt
        t = n * dt
        primal, mult = self.terms
        a = np.array([term.a(t) for term in primal])
        da = np.array([term.da(t) for term in primal])
        d = a @ self.C - u
        dd = da @ self.C - (u - self.u_prev) / dt
        self.u_prev = u
        self.max_R = max(self.max_R, self.R(a, d))
        self.l2X += self.X(a, d)
        self.dtR += self.R(da, dd)

        am = np.array([term.a(t) for term in mult])
        self.l2M += self.M(am, am @ self.Cm - lam)
        if self.full_norms:
            self.relE_den += float(da @ self.E_exact @ da)
            self.relH_num += self.H(a, d)
            self.relH_den += float(a @ self.H_exact @ a)

    def finish(self):
        """The norms of the steps added so far."""
        dt = self.dt
        norms = ErrorNorms(max_R=self.max_R, l2_X=dt * self.l2X,
                           l2_M=dt * self.l2M, dt_R=dt * self.dtR)
        if self.full_norms:
            # the electric error is the time-derivative error in R
            norms.rel_E = _percent(self.dtR, self.relE_den)
            norms.rel_H = _percent(self.relH_num, self.relH_den)
        return norms


# the name `mixpar` exports and perfbench's tracer wraps on `runner`
compute_errors = ErrorSweep


def _percent(num, den):
    """100 sqrt(num / den), the relative error of squared sums; 0 if the
    exact field vanishes."""
    return 100.0 * float(np.sqrt(num / den)) if den > 0 else 0.0


def fit_rates(hs, errors):
    """Least-squares slope of log(error) versus log(h)."""
    hs = np.asarray(hs, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if hs.size < 3:
        raise TooFewLevels("need at least 3 levels to fit a rate")
    errs = np.clip(errors, 1e-300, None)
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    return float(slope)
