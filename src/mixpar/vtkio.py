"""Legacy-VTK ASCII export of meshes and solution snapshots."""
from __future__ import annotations

import numpy as np

__all__ = ["write_unstructured", "write_mesh"]

# blocks are formatted column-wise from .tolist() values: a str.format
# of Python numbers is about twice as fast as an f-string per numpy
# scalar and gives the same text
_SCALAR = "{:.12g}".format
_VECTOR = "{:.12g} {:.12g} 0".format
_TRIANGLE = "3 {} {} {}".format


def write_unstructured(path, mesh, point_data=None, cell_data=None,
                       title="mixpar snapshot"):
    """Write an UNSTRUCTURED_GRID file with optional point/cell fields.

    point_data / cell_data map names to arrays of shape (n,) (scalars)
    or (n, 2) (vectors, padded with a zero z component).
    """
    nv, nc = mesh.num_vertices, mesh.num_cells
    lines = [
        "# vtk DataFile Version 2.0",
        title,
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {nv} double",
    ]
    lines.extend(map(_VECTOR, *_columns(mesh.vertices, 2)))
    lines.append(f"CELLS {nc} {4 * nc}")
    lines.extend(map(_TRIANGLE, *_columns(mesh.cells, 3)))
    lines.append(f"CELL_TYPES {nc}")
    lines.extend(["5"] * nc)

    def emit(block, n, data):
        lines.append(f"{block} {n}")
        for name, arr in data.items():
            arr = np.asarray(arr)
            if arr.ndim == 1:
                lines.append(f"SCALARS {name} double 1")
                lines.append("LOOKUP_TABLE default")
                lines.extend(map(_SCALAR, arr.tolist()))
            else:
                lines.append(f"VECTORS {name} double")
                lines.extend(map(_VECTOR, *_columns(arr, 2)))

    if point_data:
        emit("POINT_DATA", nv, point_data)
    if cell_data:
        emit("CELL_DATA", nc, cell_data)

    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _columns(arr, k):
    """The first k columns of a 2D array as Python lists."""
    return np.asarray(arr)[:, :k].T.tolist()


def write_mesh(path, mesh):
    """Mesh-only export carrying the subdomain tag per cell."""
    write_unstructured(
        path, mesh,
        cell_data={"subdomain": mesh.cell_subdomain.astype(float)},
        title="mixpar mesh",
    )
