import warnings

import numpy as np
import pytest

from mixpar import runner, structured_mesh
from mixpar.assembly import CellTables
from mixpar.config import parse_config
from mixpar.timestep import run
from mixpar.vtkio import write_mesh, write_unstructured
from rules import CENTROID


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


def _cell_data(path, nc):
    """The CELL_DATA fields of a legacy-VTK file, by name."""
    lines = path.read_text().splitlines()
    start = lines.index(f"CELL_DATA {nc}") + 1
    fields = {}
    while start < len(lines):
        kind, name = lines[start].split()[:2]
        first = start + (2 if kind == "SCALARS" else 1)
        rows = [ln.split() for ln in lines[first:first + nc]]
        vals = np.array(rows, dtype=float)
        fields[name] = vals[:, 0] if kind == "SCALARS" else vals[:, :2]
        start = first + nc
    return fields


@pytest.mark.parametrize("pattern", ["right", "crossed"])
def test_eddy_snapshot_cell_data_is_centroid_field_and_curl(tmp_path,
                                                            pattern):
    cfg = parse_config(f"case = eddy2d\nn = 3\nlevels = 1\nsteps = 3\n"
                       f"probes = false\nvtk_every = 1\npattern = {pattern}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        runner.run_level(cfg, 0, vtk_dir=tmp_path)
        # the same level solved again: the solve is deterministic
        mesh, _, ops, grid, load = runner._build_instance(cfg, 0)
        u = run(ops, load, grid).u[grid.N]
    got = _cell_data(tmp_path / f"eddy2d_L0_step{grid.N:04d}.vtk",
                     mesh.num_cells)
    centroid = CellTables(ops.primal, CENTROID)
    # the text holds 12 significant digits, which round a value by up to
    # 5e-12 relative; components that vanish by symmetry are round-off,
    # compared on the scale of the field
    for name, want in (("u", centroid.values(u)),
                       ("rot_u", centroid.derivs(u))):
        scale = np.abs(want).max()
        assert scale > 0.0
        np.testing.assert_allclose(got[name], want, rtol=1e-11,
                                   atol=1e-14 * scale, err_msg=name)
