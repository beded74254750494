"""Conforming triangular meshes of axis-aligned rectangles.

Meshes are structured (right-diagonal or crossed squares), carry a
conductor/insulator subdomain tag per cell, and tag every edge as
interior, outer boundary, or conductor/insulator interface.  All
connectivity is built once in the constructor; instances are treated as
immutable and are safe to share read-only across threads.
"""
from __future__ import annotations

import numpy as np

__all__ = [
    "WHOLE", "CONDUCTOR", "INSULATOR",
    "INTERIOR", "OUTER_BOUNDARY", "INTERFACE",
    "TriMesh", "structured_mesh", "uniform_refine", "check_mesh",
    "subdomain_areas", "ConductorNotOnLattice", "MeshInvariantError",
]

# cell subdomain tags
WHOLE = 0
CONDUCTOR = 1
INSULATOR = 2

# edge tags
INTERIOR = 0
OUTER_BOUNDARY = 1
INTERFACE = 2

# local edge k sits opposite local vertex k
_LOCAL_EDGES = ((1, 2), (2, 0), (0, 1))


class ConductorNotOnLattice(ValueError):
    """Conductor rectangle corners must coincide with grid points."""


class MeshInvariantError(Exception):
    """A TriMesh invariant failed."""


def _cross2(a, b):
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


def _signed_areas(vertices, cells):
    p = vertices[cells]
    return 0.5 * _cross2(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])


class TriMesh:
    """2D conforming triangulation with vertex/edge/cell connectivity.

    Attributes
    ----------
    vertices : (nv, 2) float array
    cells : (nc, 3) int array, positively oriented vertex triples
    cell_subdomain : (nc,) int8 array with WHOLE / CONDUCTOR / INSULATOR
    edges : (ne, 2) int array, globally oriented low index -> high index
    cell_edges : (nc, 3) int array, global edge of local edge k
    cell_edge_local : (nc, 3, 2) int array, local vertex indices of the
        global (low, high) endpoints of each cell edge
    edge_cells : (ne, 2) int array, incident cells (-1 when absent)
    edge_tag : (ne,) int8 array with INTERIOR / OUTER_BOUNDARY / INTERFACE
    h : max cell diameter
    """

    def __init__(self, vertices, cells, cell_subdomain=None):
        self.vertices = np.ascontiguousarray(vertices, dtype=float)
        self.cells = np.ascontiguousarray(cells, dtype=np.intp)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise ValueError("vertices must be (nv, 2)")
        if self.cells.ndim != 2 or self.cells.shape[1] != 3:
            raise ValueError("cells must be (nc, 3)")
        nc = len(self.cells)
        if cell_subdomain is None:
            cell_subdomain = np.full(nc, WHOLE, dtype=np.int8)
        self.cell_subdomain = np.asarray(cell_subdomain, dtype=np.int8)
        if self.cell_subdomain.shape != (nc,):
            raise ValueError("cell_subdomain must be (nc,)")

        self.cell_areas = _signed_areas(self.vertices, self.cells)
        if np.any(self.cell_areas <= 0.0):
            raise ValueError("all cells must have positive signed area")

        # global edges, oriented low vertex index -> high vertex index
        # (sorted lexicographically: the key lo * nv + hi orders as (lo, hi))
        pairs = np.sort(self.cells[:, _LOCAL_EDGES], axis=2).reshape(-1, 2)
        nv = len(self.vertices)
        keys, inv = np.unique(pairs[:, 0] * nv + pairs[:, 1],
                              return_inverse=True)
        self.edges = np.column_stack(np.divmod(keys, nv))
        self.cell_edges = inv.reshape(nc, 3).astype(np.intp)
        ne = len(self.edges)

        # incident cells of each edge in cell order: a stable sort of the
        # flat (cell, local edge) list groups each edge's cells ascending
        flat = self.cell_edges.ravel()
        counts = np.bincount(flat, minlength=ne)
        if counts.max(initial=0) > 2:
            e = int(np.argmax(counts > 2))
            raise ValueError(f"edge {e} shared by more than two cells")
        owner = np.argsort(flat, kind="stable") // 3
        first = np.cumsum(counts) - counts
        self.edge_cells = np.full((ne, 2), -1, dtype=np.intp)
        self.edge_cells[:, 0] = owner[first]
        two = counts == 2
        self.edge_cells[two, 1] = owner[first[two] + 1]

        # local vertex positions of the oriented global endpoints
        lo = self.edges[self.cell_edges, 0]   # (nc, 3) global low vertex
        hi = self.edges[self.cell_edges, 1]
        la = (self.cells[:, None, :] == lo[:, :, None]).argmax(axis=2)
        lb = (self.cells[:, None, :] == hi[:, :, None]).argmax(axis=2)
        self.cell_edge_local = np.stack([la, lb], axis=2).astype(np.intp)

        self.edge_tag = np.full(ne, INTERIOR, dtype=np.int8)
        boundary = self.edge_cells[:, 1] < 0
        self.edge_tag[boundary] = OUTER_BOUNDARY
        both = ~boundary
        t0 = self.cell_subdomain[self.edge_cells[both, 0]]
        t1 = self.cell_subdomain[self.edge_cells[both, 1]]
        iface = np.where(
            ((t0 == CONDUCTOR) & (t1 == INSULATOR))
            | ((t0 == INSULATOR) & (t1 == CONDUCTOR))
        )[0]
        self.edge_tag[np.where(both)[0][iface]] = INTERFACE

        self.h = float(self.edge_lengths().max())

    # -- basic sizes ---------------------------------------------------
    @property
    def num_vertices(self):
        return len(self.vertices)

    @property
    def num_cells(self):
        return len(self.cells)

    @property
    def num_edges(self):
        return len(self.edges)

    # -- derived geometry ----------------------------------------------
    def edge_lengths(self):
        d = self.vertices[self.edges[:, 1]] - self.vertices[self.edges[:, 0]]
        return np.hypot(d[:, 0], d[:, 1])

    def centroids(self):
        return self.vertices[self.cells].mean(axis=1)

    @property
    def boundary_edges(self):
        """Edges tagged OUTER_BOUNDARY or INTERFACE."""
        return np.where(self.edge_tag != INTERIOR)[0]

    @property
    def outer_edges(self):
        return np.where(self.edge_tag == OUTER_BOUNDARY)[0]

    @property
    def interface_edges(self):
        return np.where(self.edge_tag == INTERFACE)[0]

    @property
    def outer_vertices(self):
        return np.unique(self.edges[self.outer_edges])

    def interface_components(self):
        """Connected components of the interface, as sorted vertex arrays.

        Components are ordered by their smallest vertex index, so the
        result is deterministic for a given mesh.
        """
        iface = self.interface_edges
        parent = {}

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for e in iface:
            a, b = self.edges[e]
            parent.setdefault(a, a)
            parent.setdefault(b, b)
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)

        groups = {}
        for v in sorted(parent):
            groups.setdefault(find(v), []).append(v)
        return [np.asarray(groups[r], dtype=np.intp) for r in sorted(groups)]


def _lattice_index(coord, start, step, n, tol):
    i = int(round((coord - start) / step))
    if i < 0 or i > n or abs(start + i * step - coord) > tol:
        raise ConductorNotOnLattice(
            f"coordinate {coord} is not a grid point (step {step})"
        )
    return i


def structured_mesh(domain, n, conductor=None, pattern="right"):
    """Triangulate the rectangle `domain` with n subdivisions per axis.

    domain and conductor are (x0, y0, x1, y1) tuples.  The right-diagonal
    pattern produces 2*n^2 cells, the crossed pattern 4*n^2.  When a
    conductor sub-rectangle is given, its corners must lie on the grid
    lattice so that every cell falls entirely inside or outside it.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if pattern not in ("right", "crossed"):
        raise ValueError(f"unknown pattern {pattern!r}")
    x0, y0, x1, y1 = map(float, domain)
    if not (x1 > x0 and y1 > y0):
        raise ValueError("domain must have positive extent")

    xs = np.linspace(x0, x1, n + 1)
    ys = np.linspace(y0, y1, n + 1)
    hx, hy = (x1 - x0) / n, (y1 - y0) / n

    if conductor is not None:
        cx0, cy0, cx1, cy1 = map(float, conductor)
        tol = 1e-12 * max(x1 - x0, y1 - y0)
        i0 = _lattice_index(cx0, x0, hx, n, tol)
        i1 = _lattice_index(cx1, x0, hx, n, tol)
        j0 = _lattice_index(cy0, y0, hy, n, tol)
        j1 = _lattice_index(cy1, y0, hy, n, tol)
        if not (i1 > i0 and j1 > j0):
            raise ValueError("conductor must have positive extent")

    # lattice squares in row-major order (j outer, i inner)
    j, i = np.divmod(np.arange(n * n), n)
    v00 = j * (n + 1) + i
    v10, v01 = v00 + 1, v00 + n + 1
    v11 = v01 + 1
    grid = np.column_stack([np.tile(xs, n + 1), np.repeat(ys, n + 1)])
    if conductor is None:
        square_tags = np.full(n * n, WHOLE, dtype=np.int8)
    else:
        inside = (i0 <= i) & (i < i1) & (j0 <= j) & (j < j1)
        square_tags = np.where(inside, CONDUCTOR, INSULATOR).astype(np.int8)

    if pattern == "right":
        vertices = grid
        corners = [(v00, v10, v11), (v00, v11, v01)]
    else:
        centers = np.column_stack([np.tile(0.5 * (xs[:-1] + xs[1:]), n),
                                   np.repeat(0.5 * (ys[:-1] + ys[1:]), n)])
        vertices = np.vstack([grid, centers])
        ctr = len(grid) + np.arange(n * n)
        corners = [(v00, v10, ctr), (v10, v11, ctr), (v11, v01, ctr),
                   (v01, v00, ctr)]
    # the cells of one square are consecutive
    cells = np.stack([np.stack(c, axis=1) for c in corners], axis=1)
    tags = np.repeat(square_tags, len(corners))
    return TriMesh(vertices, cells.reshape(-1, 3), tags)


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


def subdomain_areas(mesh):
    """Total area per subdomain tag, as a dict."""
    out = {}
    for tag in (WHOLE, CONDUCTOR, INSULATOR):
        sel = mesh.cell_subdomain == tag
        if np.any(sel):
            out[tag] = float(mesh.cell_areas[sel].sum())
    return out


def check_mesh(mesh, expected_area=None):
    """Validate TriMesh invariants, raising MeshInvariantError on failure."""
    if np.any(_signed_areas(mesh.vertices, mesh.cells) <= 0.0):
        raise MeshInvariantError("cell with non-positive signed area")

    counts = (mesh.edge_cells >= 0).sum(axis=1)
    if np.any((counts < 1) | (counts > 2)):
        raise MeshInvariantError("non-conforming edge incidence")
    if np.any((counts == 1) != (mesh.edge_tag == OUTER_BOUNDARY)):
        raise MeshInvariantError("boundary edge tagging inconsistent")

    for e in mesh.interface_edges:
        c0, c1 = mesh.edge_cells[e]
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
