"""Manufactured problem instances with closed-form data.

Both cases use a stream function times sin(pi t), so the primal field
is divergence free, satisfies the essential boundary condition, and
vanishes at t = 0.  Every spatial profile is derived from one
polynomial stream function (`_stream`); tests check the fields against
hand-written closed forms and finite differences.

Every exact field is separable: a sum of time factors times spatial
profiles, sum_k a_k(t) P_k(pts).  A case lists those terms in its
`terms` field (`Terms` of `Term`s, deliberately not callable), and the
error norms read them: `analysis.compute_errors` interpolates each
profile once per level and evaluates every norm as an exact quadratic
form around that interpolant.  The tests build the exact fields as
callables from the same terms.

The load is separable too: sum_k a_k(t) L_k with moment vectors L_k
that depend on the level only.  A case lists its time factors in
`load_factors` (data, like `terms`) and its profiles in one callable,
`load_profiles(pts)`, which returns one (value, rot) pair per factor,
either part None: the value is tested against v and the rot against
rot v.  `assembly.assemble_load` evaluates the profiles once per level,
on the quadrature points, and each step only combines the moments.
`f_vec` is the value part as a pointwise (pts, t) callable, the form
the dense one-step oracle (acceptance criterion 1) reads.

The Stokes multiplier approximated by the scheme is the time primitive
of the physical pressure (the pressure sits inside the time derivative
of the weak form): its term is (1 - cos pi t)/pi (x - 1/2), and the
pressure is its time derivative sin(pi t)(x - 1/2).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np
from numpy.polynomial import Polynomial

from .assembly import Coefficients

__all__ = ["ManufacturedCase", "Term", "Terms", "stokes_case", "eddy2d_case"]


class Term(NamedTuple):
    """One separable term a(t) P(pts) of an exact field.

    `a` is the time factor and `da` its derivative.  `value` maps points
    (m, 2) to the profile and `deriv` to the derivative the case's norms
    read: the Jacobian (m, 2, 2) of a Stokes velocity, the rot (m,) of
    an eddy field or the gradient (m, 2) of an eddy multiplier; it is
    None where no norm reads it (the Stokes multiplier).
    """

    a: Callable
    da: Callable
    value: Callable
    deriv: Optional[Callable] = None


class Terms(NamedTuple):
    """The terms of a case's exact primal field and multiplier."""

    primal: tuple
    multiplier: tuple = ()


@dataclass(frozen=True)
class ManufacturedCase:
    kind: str
    domain: tuple
    conductor: Optional[tuple]
    coeffs: Coefficients
    terms: Terms                  # the exact fields, term by term
    load_factors: tuple           # the load's time factors a_k(t)
    load_profiles: Callable       # pts -> ((value or None, rot or None), ...)

    @property
    def f_vec(self):
        """The value part of the load, (pts, t) -> (m, 2)."""
        def f(pts, t):
            out = np.zeros((len(pts), 2))
            for a, (value, _) in zip(self.load_factors,
                                     self.load_profiles(pts)):
                if value is not None:
                    out += a(t) * value
            return out
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

def stokes_case(nu=1.0):
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

    def load_profiles(pts):
        return (curl(pts), None), (viscous_pressure(pts), None)

    terms = Terms(
        primal=(Term(_sin, _dsin, curl, jacobian),),
        # the multiplier is the time primitive of the pressure; this is
        # what lam_h^n tracks
        multiplier=(Term(_int_sin, _sin, shift),),
    )
    return ManufacturedCase(
        kind="stokes",
        domain=(0.0, 0.0, 1.0, 1.0),
        conductor=None,
        coeffs=Coefficients(nu=nu),
        terms=terms,
        load_factors=(_dsin, _sin),
        load_profiles=load_profiles,
    )


# -- 2D eddy-current analog -------------------------------------------------

def eddy2d_case(sigma=1.0, mu_mag=1.0):
    """Degenerate eddy analog on [0,3]^2 with conductor [1,2]^2.

    u = sin(pi t) curl(phi) with phi = (x(3-x) y(3-y))^2 / norm, so
    u . t = 0 on the outer boundary, div u = 0, and the flux through the
    closed interface vanishes, making the exact multiplier identically
    zero.  The source enters the discrete load in weak form:
    <f, v> = int_C sigma du/dt . v + int (1/mu_mag) rot(u) rot(v).
    """
    curl, _, rot, _ = _PHI
    conductor = x0, y0, x1, y1 = (1.0, 1.0, 2.0, 2.0)

    def sigma_curl(pts):
        # sigma times the conductor indicator times curl(phi)
        x, y = pts[:, 0], pts[:, 1]
        inside = (x >= x0) & (x <= x1) & (y >= y0) & (y <= y1)
        return sigma * inside[:, None] * curl(pts)

    def sin_mu(t):
        return _sin(t) / mu_mag

    def load_profiles(pts):
        return (sigma_curl(pts), None), (None, rot(pts))

    # the exact multiplier is 0: it has no terms
    terms = Terms(primal=(Term(_sin, _dsin, curl, rot),))
    return ManufacturedCase(
        kind="eddy2d",
        domain=(0.0, 0.0, 3.0, 3.0),
        conductor=conductor,
        coeffs=Coefficients(sigma=sigma, mu_mag=mu_mag),
        terms=terms,
        load_factors=(_dsin, sin_mu),
        load_profiles=load_profiles,
    )
