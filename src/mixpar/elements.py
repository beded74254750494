"""Reference-triangle shape functions and the quadrature rule.

The reference triangle has vertices (0,0), (1,0), (0,1) and area 1/2.
Barycentric coordinates follow the convention lam0 = 1-x-y, lam1 = x,
lam2 = y.  All rule constants are generated in double precision from
closed forms (no typed decimal tables), so stated polynomial exactness
holds to machine accuracy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

__all__ = [
    "QuadratureRule", "SIX_POINT_RULE", "gauss1d", "bubble_values",
    "cell_geometry", "p1_mass_reference", "p1_stiffness",
]


@dataclass(frozen=True)
class QuadratureRule:
    """Quadrature on the reference triangle.

    points are barycentric (nq, 3); weights sum to the reference area 1/2.
    """

    points: np.ndarray
    weights: np.ndarray


def _make_six_point():
    # six-point symmetric rule; orbit parameters from the classical
    # closed forms, evaluated in double precision
    s10 = math.sqrt(10.0)
    t = math.sqrt(38.0 - 44.0 * math.sqrt(0.4))
    b_small = (8.0 - s10 - t) / 18.0
    b_big = (8.0 - s10 + t) / 18.0
    r = math.sqrt(213125.0 - 53320.0 * s10)
    w_small = (620.0 - r) / 3720.0
    w_big = (620.0 + r) / 3720.0
    pts, wts = [], []
    for b, w in ((b_small, w_small), (b_big, w_big)):
        a = 1.0 - 2.0 * b
        pts += [[a, b, b], [b, a, b], [b, b, a]]
        wts += [0.5 * w] * 3
    p, w = np.array(pts), np.array(wts)
    p.setflags(write=False)
    w.setflags(write=False)
    return QuadratureRule(p, w)


# the one rule every level is built from, exact for degree 4
SIX_POINT_RULE = _make_six_point()


def gauss1d(npoints):
    """Gauss-Legendre points and weights on [0, 1]."""
    nodes, wts = leggauss(npoints)
    return 0.5 * (nodes + 1.0), 0.5 * wts


# -- reference shape functions (P1's are the barycentric coordinates) ----

def bubble_values(bary):
    """Cubic bubble 27*lam0*lam1*lam2, equal to 1 at the barycenter."""
    b = np.asarray(bary, dtype=float)
    return 27.0 * b[:, 0] * b[:, 1] * b[:, 2]


# -- per-cell geometry ---------------------------------------------------

def cell_geometry(pts):
    """Areas and physical barycentric gradients of triangles.

    pts is (..., 3, 2); returns areas (...) and gradients (..., 3, 2).
    Raises ValueError when any signed area is <= 0.
    """
    p = np.asarray(pts, dtype=float)
    d1 = p[..., 1, :] - p[..., 0, :]
    d2 = p[..., 2, :] - p[..., 0, :]
    det = d1[..., 0] * d2[..., 1] - d1[..., 1] * d2[..., 0]
    area = 0.5 * det
    if np.any(area <= 0.0):
        raise ValueError("all cells must have positive signed area")
    grads = np.empty(p.shape)
    # grad(lam_k) = perp(p_{k+2} - p_{k+1}) / (2A), perp(v) = (-vy, vx)
    for k in range(3):
        e = p[..., (k + 2) % 3, :] - p[..., (k + 1) % 3, :]
        grads[..., k, 0] = -e[..., 1]
        grads[..., k, 1] = e[..., 0]
    grads /= det[..., None, None]
    return area, grads


def p1_mass_reference():
    """Exact P1 mass matrix on the reference triangle."""
    return np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 24.0


def p1_stiffness(pts):
    """Exact P1 stiffness matrix of the triangle with vertices pts."""
    area, grads = cell_geometry(pts)
    return area * (grads @ grads.T)
