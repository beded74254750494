import numpy as np
import pytest

from mixpar import (assemble_eddy2d, assemble_stokes, build_space,
                    eddy2d_case, stokes_case, structured_mesh)


def build_stokes(n, nu=1.0, bc="zero_outer", pattern="right"):
    mesh = structured_mesh((0, 0, 1, 1), n, pattern=pattern)
    V = build_space(mesh, "mini", bc=bc)
    Q = build_space(mesh, "p1", bc=None)
    ops = assemble_stokes(V, Q, nu=nu)
    return mesh, V, Q, ops


def build_eddy(n, sigma=1.0, eps=1.0, mu_mag=1.0, pattern="right"):
    mesh = structured_mesh((0, 0, 3, 3), n, conductor=(1, 1, 2, 2),
                           pattern=pattern)
    E = build_space(mesh, "edge", bc="zero_outer")
    MU = build_space(mesh, "multiplier", bc="zero_outer")
    ops = assemble_eddy2d(E, MU, sigma=sigma, eps=eps, mu_mag=mu_mag)
    return mesh, E, MU, ops


def discrete_gradient(mesh, vertex_values):
    """Edge coefficients of the gradient of a P1 vertex function."""
    v = np.asarray(vertex_values)
    return v[mesh.edges[:, 1]] - v[mesh.edges[:, 0]]


@pytest.fixture(scope="session")
def eddy3():
    return build_eddy(3)


@pytest.fixture(scope="session")
def eddy6():
    return build_eddy(6)


@pytest.fixture(scope="session")
def stokes2():
    return build_stokes(2)


@pytest.fixture(scope="session")
def stokes_case_default():
    return stokes_case()


@pytest.fixture(scope="session")
def eddy_case_default():
    return eddy2d_case()
