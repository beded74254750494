"""Legacy-VTK ASCII export of meshes and solution snapshots.

Coordinates and field values are printed as ``"{:.12g}".format`` prints
them, vertex indices as ``str`` does.  The POINTS/CELLS/CELL_TYPES text
of a mesh is formatted once per mesh object and reused by every snapshot
of it, so a mesh must not be changed in place once written; each data
block is then one ``%`` operation over its flattened values.
"""
from __future__ import annotations

import weakref

import numpy as np

__all__ = ["write_unstructured", "write_mesh"]

# mesh -> its geometry text; the weak keys keep no level's mesh alive.
# Threads writing the same mesh may at worst format its text twice.
_GEOMETRY = weakref.WeakKeyDictionary()


def write_unstructured(path, mesh, point_data=None, cell_data=None,
                       title="mixpar snapshot"):
    """Write an UNSTRUCTURED_GRID file with optional point/cell fields.

    point_data / cell_data map names to arrays of shape (n,) (scalars)
    or (n, k) with k >= 2 (vectors: the first two columns, padded with a
    zero z component), where n is the number of vertices / cells.
    Raises ValueError for a field of any other shape and for a title
    that spans more than one line, which VTK readers would reject.
    """
    if "\n" in title or "\r" in title:
        raise ValueError("VTK title must be a single line")
    parts = ["# vtk DataFile Version 2.0\n", title,
             "\nASCII\nDATASET UNSTRUCTURED_GRID\n", _geometry(mesh)]
    for block, n, data in (("POINT_DATA", mesh.num_vertices, point_data),
                           ("CELL_DATA", mesh.num_cells, cell_data)):
        if not data:
            continue
        parts.append(f"{block} {n}\n")
        for name, arr in data.items():
            arr = np.asarray(arr)
            if (arr.ndim not in (1, 2) or len(arr) != n
                    or arr.ndim == 2 and arr.shape[1] < 2):
                raise ValueError(
                    f"{block} field {name!r} has shape {arr.shape}; "
                    f"expected ({n},) or ({n}, k) with k >= 2")
            if arr.ndim == 1:
                parts.append(f"SCALARS {name} double 1\n"
                             "LOOKUP_TABLE default\n")
                parts.append(("%.12g\n" * n) % tuple(arr.tolist()))
            else:
                parts.append(f"VECTORS {name} double\n")
                parts.append(_pairs(arr[:, :2]))

    with open(path, "w") as fh:
        fh.write("".join(parts))


def _pairs(xy):
    """Rows of an (n, 2) array as ``x y 0`` lines."""
    return ("%.12g %.12g 0\n" * len(xy)) % tuple(xy.ravel().tolist())


def _geometry(mesh):
    """The POINTS, CELLS and CELL_TYPES blocks of a mesh, formatted once."""
    text = _GEOMETRY.get(mesh)
    if text is None:
        nv, nc = mesh.num_vertices, mesh.num_cells
        text = "".join([
            f"POINTS {nv} double\n", _pairs(mesh.vertices),
            f"CELLS {nc} {4 * nc}\n",
            ("3 %d %d %d\n" * nc) % tuple(mesh.cells.ravel().tolist()),
            f"CELL_TYPES {nc}\n", "5\n" * nc,
        ])
        _GEOMETRY[mesh] = text
    return text


def write_mesh(path, mesh):
    """Mesh-only export carrying the subdomain tag per cell."""
    write_unstructured(
        path, mesh,
        cell_data={"subdomain": mesh.cell_subdomain.astype(float)},
        title="mixpar mesh",
    )
