"""Test-only mesh helpers: midpoint refinement, edge incidence, the
interface pieces of a multiplier space and an invariant checker.

The refinement makes meshes that `structured_mesh` cannot (children of a
crossed or refined mesh), and `check_mesh` is the oracle the mesh
property tests run them through.
"""
import numpy as np

from mixpar.mesh import CONDUCTOR, INSULATOR, OUTER_BOUNDARY, TriMesh


class MeshInvariantError(Exception):
    """A TriMesh invariant failed."""


def uniform_refine(mesh):
    """Split every triangle into 4 congruent children by edge midpoints."""
    nv = mesh.num_vertices
    mids = 0.5 * (mesh.vertices[mesh.edges[:, 0]] + mesh.vertices[mesh.edges[:, 1]])
    vertices = np.vstack([mesh.vertices, mids])

    # midpoint of local edge k (opposite vertex k)
    m = nv + mesh.cell_edges
    v = mesh.cells
    children = np.empty((mesh.num_cells * 4, 3), dtype=np.intp)
    children[0::4] = np.stack([v[:, 0], m[:, 2], m[:, 1]], axis=1)
    children[1::4] = np.stack([v[:, 1], m[:, 0], m[:, 2]], axis=1)
    children[2::4] = np.stack([v[:, 2], m[:, 1], m[:, 0]], axis=1)
    children[3::4] = m
    tags = np.repeat(mesh.cell_subdomain, 4)
    return TriMesh(vertices, children, tags)


def edge_cells(mesh):
    """Incident cells of each edge, (ne, 2) with -1 when absent, by a
    per-cell loop in cell order."""
    cells = np.full((mesh.num_edges, 2), -1, dtype=np.intp)
    for c in range(mesh.num_cells):
        for k in range(3):
            e = mesh.cell_edges[c, k]
            if cells[e, 0] < 0:
                cells[e, 0] = c
            elif cells[e, 1] < 0:
                cells[e, 1] = c
            else:
                raise ValueError(f"edge {e} shared by more than two cells")
    return cells


def interface_pieces(space):
    """The vertex sets that share one DOF of `space` (on the multiplier,
    the connected pieces of the interface), as sorted arrays in order of
    their smallest vertex."""
    on = np.flatnonzero(space.vertex_dof >= 0)
    dofs, counts = np.unique(space.vertex_dof[on], return_counts=True)
    pieces = [on[space.vertex_dof[on] == d] for d in dofs[counts > 1]]
    return sorted(pieces, key=lambda piece: piece[0])


def check_mesh(mesh, expected_area=None):
    """Validate TriMesh invariants, raising MeshInvariantError on failure."""
    p = mesh.vertices[mesh.cells]
    d1, d2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    if np.any(d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0] <= 0.0):
        raise MeshInvariantError("cell with non-positive signed area")

    try:
        incident = edge_cells(mesh)
    except ValueError as err:
        raise MeshInvariantError("non-conforming edge incidence") from err
    counts = (incident >= 0).sum(axis=1)
    if np.any(counts < 1):
        raise MeshInvariantError("non-conforming edge incidence")
    if np.any((counts == 1) != (mesh.edge_tag == OUTER_BOUNDARY)):
        raise MeshInvariantError("boundary edge tagging inconsistent")

    for e in mesh.interface_edges:
        c0, c1 = incident[e]
        t = {mesh.cell_subdomain[c0], mesh.cell_subdomain[c1]}
        if t != {CONDUCTOR, INSULATOR}:
            raise MeshInvariantError("interface edge does not separate subdomains")

    uniq = np.unique(mesh.vertices.round(decimals=14), axis=0)
    if len(uniq) != mesh.num_vertices:
        raise MeshInvariantError("duplicate vertices")

    if expected_area is not None:
        total = float(mesh.cell_areas.sum())
        if abs(total - expected_area) > 1e-12 * max(1.0, abs(expected_area)):
            raise MeshInvariantError(
                f"area sum {total} != expected {expected_area}"
            )
    return True
