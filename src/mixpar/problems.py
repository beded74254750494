"""Manufactured problem instances with closed-form data.

Both cases use a stream function times sin(pi t), so the primal field
is divergence free, satisfies the essential boundary condition, and
vanishes at t = 0.  Sources are differentiated by hand and hard-coded;
tests cross-check them against finite differences.

Every exact field is separable: a sum of time factors times spatial
profiles, sum_k a_k(t) P_k(pts).  A case holds a small set of named
profiles (`_Profiles`) and its field callables only scale and add them,
so the profiles are evaluated once per quadrature-point array rather
than once per step.  Each profile keeps its values for the last
*read-only* points array it was given (checked with `is`, holding a
reference, so the array is taken as immutable; `CellTables.qp` is such
an array); a writable array is evaluated fresh on every call.

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


class _Profiles:
    """Named spatial profiles of one case, each cached for the last
    read-only points array it was evaluated on (see the module notes)."""

    def __init__(self, **profiles):
        self._profiles = profiles
        self._last = {}                   # name -> (pts, values)

    def __call__(self, name, pts):
        if pts.flags.writeable:
            return self.evaluate(name, pts)
        hit = self._last.get(name)
        if hit is None or hit[0] is not pts:
            hit = self._last[name] = (pts, self.evaluate(name, pts))
        return hit[1]

    def evaluate(self, name, pts):
        return self._profiles[name](pts)

    def field(self, *terms):
        """The (pts, t) callable sum a(t) * P(pts) over (a, name) terms."""
        def f(pts, t):
            vals = [a(t) * self(name, pts) for a, name in terms]
            return sum(vals[1:], vals[0])
        return f


# time factors
def _sin(t):
    return np.sin(np.pi * t)

def _dsin(t):
    return np.pi * np.cos(np.pi * t)

def _int_sin(t):
    # primitive of sin(pi t) vanishing at t = 0
    return (1.0 - np.cos(np.pi * t)) / np.pi


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
    the physical pressure is sin(pi t)(x - 1/2) and has zero mean.  The
    source is f = pi cos(pi t) curl(psi) + sin(pi t)(-nu lap curl(psi) + e1).
    """

    def curl(pts):
        x, y = pts[:, 0], pts[:, 1]
        return np.column_stack([_w(x) * _dw(y), -_dw(x) * _w(y)])

    def jacobian(pts):
        x, y = pts[:, 0], pts[:, 1]
        J = np.empty((len(pts), 2, 2))
        J[:, 0, 0] = _dw(x) * _dw(y)
        J[:, 0, 1] = _w(x) * _d2w(y)
        J[:, 1, 0] = -_d2w(x) * _w(y)
        J[:, 1, 1] = -_dw(x) * _dw(y)
        return J

    def shift(pts):
        return pts[:, 0] - 0.5

    def e1(pts):
        g = np.zeros((len(pts), 2))
        g[:, 0] = 1.0
        return g

    def viscous_pressure(pts):
        # -nu lap curl(psi) + grad(x - 1/2)
        x, y = pts[:, 0], pts[:, 1]
        return np.column_stack([
            1.0 - nu * (_d2w(x) * _dw(y) + _w(x) * _d3w(y)),
            nu * (_d3w(x) * _w(y) + _dw(x) * _d2w(y)),
        ])

    P = _Profiles(curl=curl, jacobian=jacobian, shift=shift, e1=e1,
                  viscous_pressure=viscous_pressure)
    f_vec = P.field((_dsin, "curl"), (_sin, "viscous_pressure"))
    return ManufacturedCase(
        kind="stokes",
        domain=(0.0, 0.0, 1.0, 1.0),
        conductor=None,
        coeffs=Coefficients(nu=nu),
        T=T,
        u=P.field((_sin, "curl")),
        dudt=P.field((_dsin, "curl")),
        grad_u=P.field((_sin, "jacobian")),
        # the multiplier is the time primitive of the pressure; this is
        # what lam_h^n tracks
        multiplier=P.field((_int_sin, "shift")),
        grad_multiplier=P.field((_int_sin, "e1")),
        pressure=P.field((_sin, "shift")),
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

    def curl(pts):
        x, y = pts[:, 0], pts[:, 1]
        return np.column_stack([_g(x) * _dg(y), -_dg(x) * _g(y)]) / _GNORM

    def rot(pts):
        x, y = pts[:, 0], pts[:, 1]
        return -(_d2g(x) * _g(y) + _g(x) * _d2g(y)) / _GNORM

    def sigma_curl(pts):
        # sigma times the conductor indicator times curl(phi)
        x, y = pts[:, 0], pts[:, 1]
        inside = (x >= 1.0) & (x <= 2.0) & (y >= 1.0) & (y <= 2.0)
        return sigma * inside[:, None] * curl(pts)

    def curl_rot(pts):
        x, y = pts[:, 0], pts[:, 1]
        drot_dx = -(_d3g(x) * _g(y) + _dg(x) * _d2g(y))
        drot_dy = -(_d2g(x) * _dg(y) + _g(x) * _d3g(y))
        return np.column_stack([drot_dy, -drot_dx]) / _GNORM

    def multiplier(pts, t):
        return np.zeros(len(pts))

    def sin_mu(t):
        return _sin(t) / mu_mag

    P = _Profiles(curl=curl, rot=rot, sigma_curl=sigma_curl,
                  curl_rot=curl_rot)
    return ManufacturedCase(
        kind="eddy2d",
        domain=(0.0, 0.0, 3.0, 3.0),
        conductor=(1.0, 1.0, 2.0, 2.0),
        coeffs=Coefficients(sigma=sigma, eps=eps, mu_mag=mu_mag),
        T=T,
        u=P.field((_sin, "curl")),
        dudt=P.field((_dsin, "curl")),
        rot_u=P.field((_sin, "rot")),
        multiplier=multiplier,
        f_vec=P.field((_dsin, "sigma_curl")),
        f_rot=P.field((sin_mu, "rot")),
        f_strong=P.field((_dsin, "sigma_curl"), (sin_mu, "curl_rot")),
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
