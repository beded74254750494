import numpy as np
import pytest

from mixpar import structured_mesh
from mixpar.vtkio import write_mesh, write_unstructured


def _reference_writer(path, mesh, point_data=None, cell_data=None,
                      title="mixpar snapshot"):
    """The element-by-element writer the block formatter replaced."""
    nv, nc = mesh.num_vertices, mesh.num_cells
    lines = [
        "# vtk DataFile Version 2.0",
        title,
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {nv} double",
    ]
    for x, y in mesh.vertices:
        lines.append(f"{x:.12g} {y:.12g} 0")
    lines.append(f"CELLS {nc} {4 * nc}")
    for a, b, c in mesh.cells:
        lines.append(f"3 {a} {b} {c}")
    lines.append(f"CELL_TYPES {nc}")
    lines.extend(["5"] * nc)

    def emit(block, n, data):
        lines.append(f"{block} {n}")
        for name, arr in data.items():
            arr = np.asarray(arr)
            if arr.ndim == 1:
                lines.append(f"SCALARS {name} double 1")
                lines.append("LOOKUP_TABLE default")
                lines.extend(f"{v:.12g}" for v in arr)
            else:
                lines.append(f"VECTORS {name} double")
                lines.extend(f"{v[0]:.12g} {v[1]:.12g} 0" for v in arr)

    if point_data:
        emit("POINT_DATA", nv, point_data)
    if cell_data:
        emit("CELL_DATA", nc, cell_data)

    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _awkward(rng, shape):
    """Values of mixed sign and magnitude, with exact integers and zeros."""
    a = rng.standard_normal(shape)
    flat = a.reshape(-1)
    flat[0::7] = np.round(flat[0::7] * 100)          # integer-valued
    flat[1::7] *= 1e-17                              # tiny
    flat[2::7] *= 1e15                               # large
    flat[3::7] = -np.abs(flat[3::7]) * 1e-300        # near underflow
    flat[4::7] = 0.0
    flat[5::7] = -0.0
    return a


@pytest.mark.parametrize("pattern", ["right", "crossed"])
def test_block_writer_bytes_match_reference(tmp_path, pattern):
    mesh = structured_mesh((0, 0, 3, 3), 6, conductor=(1, 1, 2, 2),
                           pattern=pattern)
    rng = np.random.default_rng(5)
    nv, nc = mesh.num_vertices, mesh.num_cells
    fields = dict(
        point_data={"velocity": _awkward(rng, (nv, 2)),
                    "multiplier": _awkward(rng, nv),
                    "index": np.arange(nv) - nv // 2},
        cell_data={"u": _awkward(rng, (nc, 2)),
                   "rot_u": _awkward(rng, nc),
                   "subdomain": mesh.cell_subdomain.astype(float)},
        title=f"check {pattern}",
    )
    write_unstructured(tmp_path / "new.vtk", mesh, **fields)
    _reference_writer(tmp_path / "ref.vtk", mesh, **fields)
    new = (tmp_path / "new.vtk").read_bytes()
    assert new == (tmp_path / "ref.vtk").read_bytes()
    assert b"e-17" in new and b"e+15" in new and b"\n-0\n" in new


def test_mesh_export_matches_reference(tmp_path):
    mesh = structured_mesh((0, 0, 3, 3), 3, conductor=(1, 1, 2, 2))
    write_mesh(tmp_path / "new.vtk", mesh)
    _reference_writer(tmp_path / "ref.vtk", mesh,
                      cell_data={"subdomain":
                                 mesh.cell_subdomain.astype(float)},
                      title="mixpar mesh")
    assert ((tmp_path / "new.vtk").read_bytes()
            == (tmp_path / "ref.vtk").read_bytes())
