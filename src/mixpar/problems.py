"""Manufactured problem instances with closed-form data.

Both cases use a stream function times sin(pi t), so the primal field
is divergence free, satisfies the essential boundary condition, and
vanishes at t = 0.  Every spatial profile is derived from one
polynomial stream function (`_stream`); tests check the fields against
hand-written closed forms and finite differences.

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
from numpy.polynomial import Polynomial

from .assembly import Coefficients

__all__ = ["ManufacturedCase", "stokes_case", "eddy2d_case"]


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
    grad_multiplier: Optional[Callable] = None  # (pts, t) -> (m, 2), eddy


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


def _stream(p, scale=1.0):
    """Spatial profiles of the stream function psi = scale p(x) p(y).

    p is a `Polynomial`.  Returns curl psi = (d_y psi, -d_x psi), its
    Jacobian J[:, i, j] = d_j (curl psi)_i, rot curl psi = -lap psi and
    lap curl psi, each a function of a points array (m, 2).
    """
    dx = [scale * p.deriv(k) for k in range(4)]
    dy = [p.deriv(k) for k in range(4)]

    def psi(pts, i, j):
        # d_x^i d_y^j psi, one product at a time so that few point-sized
        # temporaries are alive at once
        return dx[i](pts[:, 0]) * dy[j](pts[:, 1])

    def curl(pts):
        return np.column_stack([psi(pts, 0, 1), -psi(pts, 1, 0)])

    def jacobian(pts):
        d11 = psi(pts, 1, 1)
        J = [d11, psi(pts, 0, 2), -psi(pts, 2, 0), -d11]
        return np.stack(J, axis=-1).reshape(-1, 2, 2)

    def rot_curl(pts):
        return -(psi(pts, 2, 0) + psi(pts, 0, 2))

    def lap_curl(pts):
        return np.column_stack([psi(pts, 2, 1) + psi(pts, 0, 3),
                                -(psi(pts, 3, 0) + psi(pts, 1, 2))])

    return curl, jacobian, rot_curl, lap_curl


# the cases' stream functions; their profiles are pure functions of the
# points, so they are built once here rather than once per case
_PSI = _stream(Polynomial.fromroots([0, 0, 1, 1]))
# peak 1: p(1.5) = 1.5^4 for p = s^2 (3 - s)^2
_PHI = _stream(Polynomial.fromroots([0, 0, 3, 3]), scale=1.0 / 1.5 ** 8)


# -- transient Stokes ------------------------------------------------------

def stokes_case(nu=1.0, T=0.5):
    """Unit-square transient Stokes with stream function x^2(1-x)^2 y^2(1-y)^2.

    u = sin(pi t) curl(psi) is divergence free with zero boundary trace;
    the physical pressure is sin(pi t)(x - 1/2) and has zero mean.  The
    source is f = pi cos(pi t) curl(psi) + sin(pi t)(-nu lap curl(psi) + e1).
    """
    curl, jacobian, _, lap_curl = _PSI

    def shift(pts):
        return pts[:, 0] - 0.5

    def viscous_pressure(pts):
        # -nu lap curl(psi) + grad(x - 1/2)
        return np.array([1.0, 0.0]) - nu * lap_curl(pts)

    P = _Profiles(curl=curl, jacobian=jacobian, shift=shift,
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
        pressure=P.field((_sin, "shift")),
        f_vec=f_vec, f_strong=f_vec,
    )


# -- 2D eddy-current analog -------------------------------------------------

def eddy2d_case(sigma=1.0, eps=1.0, mu_mag=1.0, T=0.75):
    """Degenerate eddy analog on [0,3]^2 with conductor [1,2]^2.

    u = sin(pi t) curl(phi) with phi = (x(3-x) y(3-y))^2 / norm, so
    u . t = 0 on the outer boundary, div u = 0, and the flux through the
    closed interface vanishes, making the exact multiplier identically
    zero.  The source enters the discrete load in weak form:
    <f, v> = int_C sigma du/dt . v + int (1/mu_mag) rot(u) rot(v).
    """
    curl, _, rot, lap_curl = _PHI

    def sigma_curl(pts):
        # sigma times the conductor indicator times curl(phi)
        x, y = pts[:, 0], pts[:, 1]
        inside = (x >= 1.0) & (x <= 2.0) & (y >= 1.0) & (y <= 2.0)
        return sigma * inside[:, None] * curl(pts)

    def curl_rot(pts):
        return -lap_curl(pts)

    def multiplier(pts, t):
        return np.zeros(len(pts))

    def grad_multiplier(pts, t):
        return np.zeros((len(pts), 2))

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
        grad_multiplier=grad_multiplier,
        f_vec=P.field((_dsin, "sigma_curl")),
        f_rot=P.field((sin_mu, "rot")),
        f_strong=P.field((_dsin, "sigma_curl"), (sin_mu, "curl_rot")),
    )
