"""Manufactured problem instances with closed-form data.

Both cases use a stream function times sin(pi t), so the primal field
is divergence free, satisfies the essential boundary condition, and
vanishes at t = 0.  Sources are differentiated by hand and hard-coded;
tests cross-check them against finite differences.

The Stokes multiplier approximated by the scheme is the time primitive
of the physical pressure (the pressure sits inside the time derivative
of the weak form), so the case exposes both: `pressure` for the
physical field and `multiplier` for the quantity the error norms use.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .assembly import CellTables, Coefficients

__all__ = ["ManufacturedCase", "stokes_case", "eddy2d_case",
           "recover_fields", "StokesInstance"]


class StokesInstance(ValueError):
    """Field recovery is only defined for the eddy instance."""


@dataclass(frozen=True)
class ManufacturedCase:
    kind: str
    domain: tuple
    conductor: Optional[tuple]
    coeffs: Coefficients
    T: float
    u: Callable                       # (pts, t) -> (m, 2)
    dudt: Callable                    # (pts, t) -> (m, 2)
    multiplier: Callable              # (pts, t) -> (m,)
    f_vec: Callable                   # (pts, t) -> (m, 2), moment against v
    grad_u: Optional[Callable] = None  # (pts, t) -> (m, 2, 2), Stokes
    rot_u: Optional[Callable] = None   # (pts, t) -> (m,), eddy
    pressure: Optional[Callable] = None
    f_rot: Optional[Callable] = None   # (pts, t) -> (m,), moment against rot v
    f_strong: Optional[Callable] = None
    grad_multiplier: Optional[Callable] = None


# -- transient Stokes ------------------------------------------------------

def _w(s):
    return s * s * (1.0 - s) ** 2

def _dw(s):
    return 2.0 * s - 6.0 * s ** 2 + 4.0 * s ** 3

def _d2w(s):
    return 2.0 - 12.0 * s + 12.0 * s ** 2

def _d3w(s):
    return -12.0 + 24.0 * s


def stokes_case(nu=1.0, T=0.5):
    """Unit-square transient Stokes with stream function x^2(1-x)^2 y^2(1-y)^2.

    u = sin(pi t) curl(psi) is divergence free with zero boundary trace;
    the physical pressure is sin(pi t)(x - 1/2) and has zero mean.
    """

    def u(pts, t):
        x, y = pts[:, 0], pts[:, 1]
        s = np.sin(np.pi * t)
        return np.column_stack([s * _w(x) * _dw(y), -s * _dw(x) * _w(y)])

    def dudt(pts, t):
        x, y = pts[:, 0], pts[:, 1]
        c = np.pi * np.cos(np.pi * t)
        return np.column_stack([c * _w(x) * _dw(y), -c * _dw(x) * _w(y)])

    def grad_u(pts, t):
        x, y = pts[:, 0], pts[:, 1]
        s = np.sin(np.pi * t)
        J = np.empty((len(pts), 2, 2))
        J[:, 0, 0] = s * _dw(x) * _dw(y)
        J[:, 0, 1] = s * _w(x) * _d2w(y)
        J[:, 1, 0] = -s * _d2w(x) * _w(y)
        J[:, 1, 1] = -s * _dw(x) * _dw(y)
        return J

    def pressure(pts, t):
        return np.sin(np.pi * t) * (pts[:, 0] - 0.5)

    def multiplier(pts, t):
        # time primitive of the pressure; this is what lam_h^n tracks
        return (1.0 - np.cos(np.pi * t)) / np.pi * (pts[:, 0] - 0.5)

    def grad_multiplier(pts, t):
        g = np.zeros((len(pts), 2))
        g[:, 0] = (1.0 - np.cos(np.pi * t)) / np.pi
        return g

    def f_vec(pts, t):
        x, y = pts[:, 0], pts[:, 1]
        s = np.sin(np.pi * t)
        c = np.pi * np.cos(np.pi * t)
        f1 = (c * _w(x) * _dw(y)
              - nu * s * (_d2w(x) * _dw(y) + _w(x) * _d3w(y))
              + s)
        f2 = (-c * _dw(x) * _w(y)
              + nu * s * (_d3w(x) * _w(y) + _dw(x) * _d2w(y)))
        return np.column_stack([f1, f2])

    return ManufacturedCase(
        kind="stokes",
        domain=(0.0, 0.0, 1.0, 1.0),
        conductor=None,
        coeffs=Coefficients(nu=nu),
        T=T,
        u=u, dudt=dudt, grad_u=grad_u,
        multiplier=multiplier, grad_multiplier=grad_multiplier,
        pressure=pressure,
        f_vec=f_vec, f_strong=f_vec,
    )


# -- 2D eddy-current analog -------------------------------------------------

def _g(s):
    return s * s * (3.0 - s) ** 2

def _dg(s):
    return 18.0 * s - 18.0 * s ** 2 + 4.0 * s ** 3

def _d2g(s):
    return 18.0 - 36.0 * s + 12.0 * s ** 2

def _d3g(s):
    return -36.0 + 24.0 * s

_GNORM = _g(1.5) ** 2   # stream function normalized to peak 1


def eddy2d_case(sigma=1.0, eps=1.0, mu_mag=1.0, T=0.75):
    """Degenerate eddy analog on [0,3]^2 with conductor [1,2]^2.

    u = sin(pi t) curl(phi) with phi = (x(3-x) y(3-y))^2 / norm, so
    u . t = 0 on the outer boundary, div u = 0, and the flux through the
    closed interface vanishes, making the exact multiplier identically
    zero.  The source enters the discrete load in weak form:
    <f, v> = int_C sigma du/dt . v + int (1/mu_mag) rot(u) rot(v).
    """

    def _in_conductor(pts):
        x, y = pts[:, 0], pts[:, 1]
        return ((x >= 1.0) & (x <= 2.0) & (y >= 1.0) & (y <= 2.0)).astype(float)

    def u(pts, t):
        x, y = pts[:, 0], pts[:, 1]
        s = np.sin(np.pi * t) / _GNORM
        return np.column_stack([s * _g(x) * _dg(y), -s * _dg(x) * _g(y)])

    def dudt(pts, t):
        x, y = pts[:, 0], pts[:, 1]
        c = np.pi * np.cos(np.pi * t) / _GNORM
        return np.column_stack([c * _g(x) * _dg(y), -c * _dg(x) * _g(y)])

    def rot_u(pts, t):
        x, y = pts[:, 0], pts[:, 1]
        s = np.sin(np.pi * t) / _GNORM
        return -s * (_d2g(x) * _g(y) + _g(x) * _d2g(y))

    def multiplier(pts, t):
        return np.zeros(len(pts))

    def f_vec(pts, t):
        return sigma * _in_conductor(pts)[:, None] * dudt(pts, t)

    def f_rot(pts, t):
        return rot_u(pts, t) / mu_mag

    def f_strong(pts, t):
        x, y = pts[:, 0], pts[:, 1]
        s = np.sin(np.pi * t) / _GNORM
        drot_dx = -s * (_d3g(x) * _g(y) + _dg(x) * _d2g(y))
        drot_dy = -s * (_d2g(x) * _dg(y) + _g(x) * _d3g(y))
        curl_rot = np.column_stack([drot_dy, -drot_dx]) / mu_mag
        return f_vec(pts, t) + curl_rot

    return ManufacturedCase(
        kind="eddy2d",
        domain=(0.0, 0.0, 3.0, 3.0),
        conductor=(1.0, 1.0, 2.0, 2.0),
        coeffs=Coefficients(sigma=sigma, eps=eps, mu_mag=mu_mag),
        T=T,
        u=u, dudt=dudt, rot_u=rot_u,
        multiplier=multiplier,
        f_vec=f_vec, f_rot=f_rot, f_strong=f_strong,
    )


def recover_fields(solution, space, case, H0=0.0):
    """Per-step electric and magnetic fields of the eddy instance.

    E_h^k is the backward difference of the primal coefficients over dt
    (an edge-element field, returned as free coefficients for k=1..N);
    H_h^k is the per-cell scalar (rot u_h^k - mu_mag H0) / mu_mag.
    """
    if case.kind != "eddy2d":
        raise StokesInstance("field recovery is undefined for this instance")
    dt = solution.grid.dt
    E = np.diff(solution.u, axis=0) / dt

    rot = CellTables.of(space, 1).der @ solution.u[1:].T   # (cells, N)
    mu = case.coeffs.mu_mag
    H = (rot.T - mu * H0) / mu
    return E, H
