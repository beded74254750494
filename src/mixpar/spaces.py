"""Global finite element spaces with DOF maps and essential constraints.

Supported kinds:

* ``p1`` -- continuous piecewise linears, one DOF per vertex.
* ``mini`` -- vector P1 enriched with a cell bubble per component
  (velocity space of the MINI pair); vertex DOFs are interleaved
  (x, y) followed by per-cell bubble pairs.
* ``edge`` -- lowest-order edge elements, one tangential-moment DOF per
  edge, oriented low vertex index -> high vertex index.
* ``multiplier`` -- P1 on the insulator subdomain, zero on the outer
  boundary, with the DOFs of each interface component aliased to a
  single unknown constant.

Essential conditions are homogeneous and handled by free/fixed DOF
partition; assembled systems live on the free DOFs only.
"""
from __future__ import annotations

import numpy as np

from . import mesh as meshmod
from .elements import gauss1d

__all__ = ["FeSpace", "build_space", "interpolate", "MissingTag"]


class MissingTag(ValueError):
    """The mesh lacks tags required by the requested space."""


class FeSpace:
    """A global FE space bound to a mesh.

    Attributes
    ----------
    ndof : total logical DOFs (after interface aliasing)
    free, fixed : index arrays partitioning range(ndof)
    cell_dofs : (n_active_cells, nl) global DOF per cell basis function
    active_cells : cell ids covered by the space (all cells except for
        the multiplier space, which lives on insulator cells)
    tables : the space's CellTables, built on first use (see its `of`)
    """

    def __init__(self, mesh, kind, ndof, free, fixed, cell_dofs, active_cells,
                 vertex_dof=None, dof_vertex=None, groups=None):
        self.mesh = mesh
        self.kind = kind
        self.ndof = ndof
        self.free = free
        self.fixed = fixed
        self.cell_dofs = cell_dofs
        self.active_cells = active_cells
        self.vertex_dof = vertex_dof
        self.dof_vertex = dof_vertex
        self.groups = groups or []
        self.tables = None
        self._full_to_free = np.full(ndof, -1, dtype=np.intp)
        self._full_to_free[free] = np.arange(len(free))

    @property
    def num_free(self):
        return len(self.free)

    def extend(self, free_vec):
        """Full coefficient vector with zeros on constrained DOFs."""
        out = np.zeros(self.ndof)
        out[self.free] = free_vec
        return out

    def free_index(self, full_dof):
        return self._full_to_free[full_dof]


def _outer_vertex_mask(mesh):
    mask = np.zeros(mesh.num_vertices, dtype=bool)
    mask[mesh.outer_vertices] = True
    return mask


def _partition(ndof, fixed_mask):
    fixed = np.where(fixed_mask)[0].astype(np.intp)
    free = np.where(~fixed_mask)[0].astype(np.intp)
    return free, fixed


def build_space(mesh, kind, bc="zero_outer"):
    """Build a global space on `mesh`; bc is "zero_outer" or None."""
    if bc not in (None, "zero_outer"):
        raise ValueError(f"unknown bc spec {bc!r}")
    all_cells = np.arange(mesh.num_cells, dtype=np.intp)

    if kind == "p1":
        ndof = mesh.num_vertices
        fixed_mask = np.zeros(ndof, dtype=bool)
        if bc == "zero_outer":
            fixed_mask = _outer_vertex_mask(mesh)
        free, fixed = _partition(ndof, fixed_mask)
        vertex_dof = np.arange(ndof, dtype=np.intp)
        return FeSpace(mesh, kind, ndof, free, fixed,
                       mesh.cells.copy(), all_cells,
                       vertex_dof=vertex_dof, dof_vertex=vertex_dof.copy())

    if kind == "mini":
        nv, nc = mesh.num_vertices, mesh.num_cells
        ndof = 2 * nv + 2 * nc
        fixed_mask = np.zeros(ndof, dtype=bool)
        if bc == "zero_outer":
            outer = _outer_vertex_mask(mesh)
            fixed_mask[0:2 * nv:2] = outer
            fixed_mask[1:2 * nv:2] = outer
        free, fixed = _partition(ndof, fixed_mask)
        cell_dofs = np.empty((nc, 8), dtype=np.intp)
        for d in range(2):
            cell_dofs[:, d:6:2] = 2 * mesh.cells + d
            cell_dofs[:, 6 + d] = 2 * nv + 2 * all_cells + d
        return FeSpace(mesh, kind, ndof, free, fixed, cell_dofs, all_cells)

    if kind == "edge":
        ndof = mesh.num_edges
        fixed_mask = np.zeros(ndof, dtype=bool)
        if bc == "zero_outer":
            fixed_mask[mesh.outer_edges] = True
        free, fixed = _partition(ndof, fixed_mask)
        return FeSpace(mesh, kind, ndof, free, fixed,
                       mesh.cell_edges.copy(), all_cells)

    if kind == "multiplier":
        ins_cells = np.where(mesh.cell_subdomain == meshmod.INSULATOR)[0]
        if len(ins_cells) == 0:
            raise MissingTag("multiplier space needs insulator cells")
        ins_vertices = np.unique(mesh.cells[ins_cells])

        # one slot per insulator vertex, then alias each interface
        # component to the slot of its smallest vertex
        slot_of = np.full(mesh.num_vertices, -1, dtype=np.intp)
        slot_of[ins_vertices] = np.arange(len(ins_vertices))
        groups = mesh.interface_components()
        for grp in groups:
            if np.any(slot_of[grp] < 0):
                raise MissingTag("interface vertex missing from insulator")
            slot_of[grp] = slot_of[grp.min()]

        used, inv = np.unique(slot_of[ins_vertices], return_inverse=True)
        dof_of_vertex = np.full(mesh.num_vertices, -1, dtype=np.intp)
        dof_of_vertex[ins_vertices] = inv
        ndof = len(used)

        # each DOF's representative is its smallest vertex
        dof_vertex = np.full(ndof, mesh.num_vertices, dtype=np.intp)
        np.minimum.at(dof_vertex, inv, ins_vertices)

        fixed_mask = np.zeros(ndof, dtype=bool)
        if bc == "zero_outer":
            outer = dof_of_vertex[_outer_vertex_mask(mesh)]
            fixed_mask[outer[outer >= 0]] = True
        free, fixed = _partition(ndof, fixed_mask)
        cell_dofs = dof_of_vertex[mesh.cells[ins_cells]]
        return FeSpace(mesh, kind, ndof, free, fixed, cell_dofs, ins_cells,
                       vertex_dof=dof_of_vertex, dof_vertex=dof_vertex,
                       groups=groups)

    raise ValueError(f"unknown space kind {kind!r}")


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

    if space.kind in ("p1", "multiplier"):
        coef[:] = fn(mesh.vertices[space.dof_vertex])
        return coef

    raise ValueError(f"unknown space kind {space.kind!r}")
