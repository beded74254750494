"""Global finite element spaces with DOF maps and essential constraints.

Supported kinds:

* ``p1`` -- continuous piecewise linears, one DOF per vertex.
* ``mini`` -- vector P1 enriched with a cell bubble per component
  (velocity space of the MINI pair); vertex DOFs are interleaved
  (x, y) followed by per-cell bubble pairs.
* ``edge`` -- lowest-order edge elements, one tangential-moment DOF per
  edge, oriented low vertex index -> high vertex index.
* ``multiplier`` -- P1 on the insulator subdomain, zero on the outer
  boundary, with one unknown constant on each connected piece of the
  conductor/insulator interface.  Its DOFs are numbered in order of
  their smallest vertex, one per insulator vertex off the interface and
  one per interface piece.

`build_space` takes one path for every kind: the kind states its DOF
count, cell DOFs, active cells and outer-boundary DOFs, and a shared
tail keeps the DOFs off the outer boundary as the free ones.  Essential
conditions are homogeneous and handled by that split; assembled systems
live on the free DOFs only.
"""
from __future__ import annotations

import numpy as np

from . import mesh as meshmod
from .elements import gauss1d

__all__ = ["FeSpace", "build_space", "interpolate"]


class FeSpace:
    """A global FE space bound to a mesh.

    Attributes
    ----------
    ndof : total DOFs (one per interface piece on the multiplier)
    free : sorted index array of the unconstrained DOFs
    cell_dofs : (n_active_cells, nl) global DOF per cell basis function
    active_cells : cell ids covered by the space (all cells except for
        the multiplier space, which lives on insulator cells)
    vertex_dof, dof_vertex : each vertex's DOF (-1 off the space) and
        each DOF's smallest vertex, for p1 and multiplier; else None
    tables : the space's CellTables, built on first use (see its `of`)
    """

    def __init__(self, mesh, kind, ndof, free, cell_dofs, active_cells,
                 vertex_dof=None, dof_vertex=None):
        self.mesh = mesh
        self.kind = kind
        self.ndof = ndof
        self.free = free
        self.cell_dofs = cell_dofs
        self.active_cells = active_cells
        self.vertex_dof = vertex_dof
        self.dof_vertex = dof_vertex
        self.tables = None
        self._full_to_free = np.full(ndof, -1, dtype=np.intp)
        self._full_to_free[free] = np.arange(len(free))

    @property
    def num_free(self):
        return len(self.free)

    @property
    def num_bubbles(self):
        """Cell-bubble DOFs (mini only): all free, numbered last."""
        return 2 * self.mesh.num_cells if self.kind == "mini" else 0

    def extend(self, free_vec):
        """Full coefficient vector with zeros on constrained DOFs."""
        out = np.zeros(self.ndof)
        out[self.free] = free_vec
        return out

    def free_index(self, full_dof):
        return self._full_to_free[full_dof]


def build_space(mesh, kind, bc="zero_outer"):
    """Build a global space on `mesh`; bc is "zero_outer" or None.

    Each kind states its DOF count, its cell DOFs, its active cells and
    its DOFs on the outer boundary; one shared tail fixes those DOFs
    under "zero_outer" and keeps the others as the free DOFs.
    The multiplier numbers its DOFs in order of their smallest vertex,
    one DOF per insulator vertex off the interface and one per
    connected piece of the interface.
    """
    if bc not in (None, "zero_outer"):
        raise ValueError(f"unknown bc spec {bc!r}")
    nv, nc = mesh.num_vertices, mesh.num_cells
    active_cells = np.arange(nc, dtype=np.intp)
    vertex_dof = dof_vertex = None

    if kind == "p1":
        ndof, cell_dofs = nv, mesh.cells.copy()
        vertex_dof = np.arange(nv, dtype=np.intp)
        dof_vertex = vertex_dof.copy()
        boundary = mesh.outer_vertices
    elif kind == "mini":
        ndof = 2 * nv + 2 * nc
        cell_dofs = np.empty((nc, 8), dtype=np.intp)
        for d in range(2):
            cell_dofs[:, d:6:2] = 2 * mesh.cells + d
            cell_dofs[:, 6 + d] = 2 * nv + 2 * active_cells + d
        boundary = 2 * mesh.outer_vertices[:, None] + np.arange(2)
    elif kind == "edge":
        ndof, cell_dofs = mesh.num_edges, mesh.cell_edges.copy()
        boundary = mesh.outer_edges
    elif kind == "multiplier":
        active_cells = np.where(mesh.cell_subdomain == meshmod.INSULATOR)[0]
        if len(active_cells) == 0:
            raise ValueError("multiplier space needs insulator cells")
        # label each vertex by the smallest vertex joined to it by
        # interface edges: spread the smaller label across every interface
        # edge, and jump each label to its own label (log-many passes),
        # until both ends of every interface edge agree
        label = np.arange(nv, dtype=np.intp)
        a, b = mesh.edges[mesh.interface_edges].T
        while not np.array_equal(label[a], label[b]):
            low = np.minimum(label[a], label[b])
            np.minimum.at(label, a, low)
            np.minimum.at(label, b, low)
            label = label[label]
        # every interface edge borders an insulator cell, so each label
        # is an insulator vertex: the DOF's smallest vertex
        ins_vertices = np.unique(mesh.cells[active_cells])
        dof_vertex, dofs = np.unique(label[ins_vertices], return_inverse=True)
        ndof = len(dof_vertex)
        vertex_dof = np.full(nv, -1, dtype=np.intp)
        vertex_dof[ins_vertices] = dofs
        cell_dofs = vertex_dof[mesh.cells[active_cells]]
        boundary = np.setdiff1d(vertex_dof[mesh.outer_vertices], -1)
    else:
        raise ValueError(f"unknown space kind {kind!r}")

    fixed_mask = np.zeros(ndof, dtype=bool)
    if bc == "zero_outer":
        fixed_mask[boundary] = True
    return FeSpace(mesh, kind, ndof, np.flatnonzero(~fixed_mask), cell_dofs,
                   active_cells, vertex_dof=vertex_dof, dof_vertex=dof_vertex)


def interpolate(space, fn):
    """Interpolate an analytic function at the space's DOF functionals.

    fn maps points (m, 2) to values: (m,) for scalar kinds, (m, 2) for
    mini and edge.  Returns the full coefficient vector; functions lying
    in the space are reproduced exactly.
    """
    mesh = space.mesh
    coef = np.zeros(space.ndof)

    if space.kind == "mini":
        nv = mesh.num_vertices
        vv = fn(mesh.vertices)
        coef[0:2 * nv:2] = vv[:, 0]
        coef[1:2 * nv:2] = vv[:, 1]
        bc_vals = fn(mesh.centroids())
        p1_at_bc = vv[mesh.cells].mean(axis=1)
        bub = bc_vals - p1_at_bc
        coef[2 * nv + 0::2] = bub[:, 0]
        coef[2 * nv + 1::2] = bub[:, 1]
        return coef

    if space.kind == "edge":
        # tangential moment along the global low -> high orientation
        s, w = gauss1d(3)
        p0 = mesh.vertices[mesh.edges[:, 0]]
        vec = mesh.vertices[mesh.edges[:, 1]] - p0
        for sg, wg in zip(s, w):
            pts = p0 + sg * vec
            vals = fn(pts)
            coef += wg * (vals[:, 0] * vec[:, 0] + vals[:, 1] * vec[:, 1])
        return coef

    # p1 and multiplier
    coef[:] = fn(mesh.vertices[space.dof_vertex])
    return coef
