"""Reference-triangle shape functions and quadrature rules.

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
    "QuadratureRule", "DegenerateCell", "gauss1d",
    "p1_values", "bubble_values",
    "cell_geometry", "p1_mass_reference", "p1_stiffness",
]


class DegenerateCell(ValueError):
    """Cell has non-positive area."""


@dataclass(frozen=True)
class QuadratureRule:
    """Quadrature on the reference triangle.

    points are barycentric (nq, 3); weights sum to the reference area 1/2
    and the rule is exact for polynomials up to `degree`.
    """

    degree: int
    points: np.ndarray
    weights: np.ndarray

    @property
    def xy(self):
        """Reference (x, y) coordinates of the quadrature points."""
        return self.points[:, 1:]

    @staticmethod
    def for_degree(degree):
        if degree <= 1:
            return _RULE_DEG1
        if degree <= 2:
            return _RULE_DEG2
        if degree <= 4:
            return _RULE_DEG4
        return _collapsed_rule(degree)


def _frozen(points, weights):
    p = np.asarray(points, dtype=float)
    w = np.asarray(weights, dtype=float)
    p.setflags(write=False)
    w.setflags(write=False)
    return p, w


def _make_deg1():
    p, w = _frozen([[1 / 3, 1 / 3, 1 / 3]], [0.5])
    return QuadratureRule(1, p, w)


def _make_deg2():
    pts = [[2 / 3, 1 / 6, 1 / 6], [1 / 6, 2 / 3, 1 / 6], [1 / 6, 1 / 6, 2 / 3]]
    p, w = _frozen(pts, [1 / 6] * 3)
    return QuadratureRule(2, p, w)


def _make_deg4():
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
    p, w = _frozen(pts, wts)
    return QuadratureRule(4, p, w)


def _collapsed_rule(degree):
    # Duffy-collapsed Gauss product: x = u, y = v*(1-u), jacobian (1-u).
    # m points per direction integrate total degree 2m-2 exactly
    # (u-direction picks up one extra power from the jacobian).
    m = degree // 2 + 2
    nodes, wts = leggauss(m)
    u = 0.5 * (nodes + 1.0)
    wu = 0.5 * wts
    x = np.repeat(u, m)
    v = np.tile(u, m)
    w = np.repeat(wu, m) * np.tile(wu, m) * (1.0 - x)
    y = v * (1.0 - x)
    pts = np.column_stack([1.0 - x - y, x, y])
    p, w = _frozen(pts, w)
    return QuadratureRule(degree, p, w)


_RULE_DEG1 = _make_deg1()
_RULE_DEG2 = _make_deg2()
_RULE_DEG4 = _make_deg4()


def gauss1d(npoints):
    """Gauss-Legendre points and weights on [0, 1]."""
    nodes, wts = leggauss(npoints)
    return 0.5 * (nodes + 1.0), 0.5 * wts


# -- reference shape functions ------------------------------------------

def p1_values(bary):
    """P1 values at barycentric points: identity on the coordinates."""
    return np.asarray(bary, dtype=float)


def bubble_values(bary):
    """Cubic bubble 27*lam0*lam1*lam2, equal to 1 at the barycenter."""
    b = np.asarray(bary, dtype=float)
    return 27.0 * b[:, 0] * b[:, 1] * b[:, 2]


# -- per-cell geometry ---------------------------------------------------

def cell_geometry(pts):
    """Area and physical barycentric gradients of one triangle.

    pts is (3, 2).  Raises DegenerateCell when the signed area is <= 0.
    """
    p = np.asarray(pts, dtype=float)
    d1 = p[1] - p[0]
    d2 = p[2] - p[0]
    det = d1[0] * d2[1] - d1[1] * d2[0]
    area = 0.5 * det
    if area <= 0.0:
        raise DegenerateCell(f"signed area {area} <= 0")
    grads = np.empty((3, 2))
    # grad(lam_k) = perp(p_{k+2} - p_{k+1}) / (2A), perp(v) = (-vy, vx)
    for k in range(3):
        e = p[(k + 2) % 3] - p[(k + 1) % 3]
        grads[k] = (-e[1], e[0])
    grads /= det
    return area, grads


def p1_mass_reference():
    """Exact P1 mass matrix on the reference triangle."""
    return np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 24.0


def p1_stiffness(pts):
    """Exact P1 stiffness matrix of the triangle with vertices pts."""
    area, grads = cell_geometry(pts)
    return area * (grads @ grads.T)
