"""Test-only quadrature: the centroid rule and exact rules of any degree.

The runtime carries only the six-point degree-4 rule
(`elements.SIX_POINT_RULE`).  The centroid rule evaluates a field at the
cell centroids, the oracle of the eddy VTK cell data; the
polynomial-exactness oracles of the manufactured cases and the spaces
integrate degree 6 to 10, which the collapsed (Duffy) rule provides.
"""
import numpy as np
from numpy.polynomial.legendre import leggauss

from mixpar.elements import QuadratureRule

# one point at the barycenter, exact for degree 1
CENTROID = QuadratureRule(np.full((1, 3), 1 / 3), np.array([0.5]))


def collapsed_rule(degree):
    """Rule on the reference triangle exact for total degree `degree`."""
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
    return QuadratureRule(np.column_stack([1.0 - x - y, x, y]), w)
