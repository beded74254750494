import gc
import sys
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from mixpar import runner, structured_mesh, vtkio
from mixpar.assembly import CellTables
from mixpar.config import parse_config
from mixpar.runner import run_experiment
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
    flat[6::35] = np.nan
    flat[13::35] = np.inf
    flat[20::35] = -np.inf
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
                    "index": np.arange(nv) - nv // 2,
                    "big": _beyond_double(nv)},
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
    assert b"\nnan\n" in new and b"\ninf\n" in new and b"\n-inf\n" in new
    assert b"\n9.22337203685e+18\n" in new


def _beyond_double(n):
    """int64 values that a double cannot hold exactly, of both signs."""
    big = np.int64(2**53 + 1) + np.arange(n, dtype=np.int64) * 97_000_000_001
    big[1::2] *= -1
    big[0], big[-1] = np.iinfo(np.int64).max, np.iinfo(np.int64).min
    return big


def test_mesh_export_matches_reference(tmp_path):
    mesh = structured_mesh((0, 0, 3, 3), 3, conductor=(1, 1, 2, 2))
    write_mesh(tmp_path / "new.vtk", mesh)
    _reference_writer(tmp_path / "ref.vtk", mesh,
                      cell_data={"subdomain":
                                 mesh.cell_subdomain.astype(float)},
                      title="mixpar mesh")
    assert ((tmp_path / "new.vtk").read_bytes()
            == (tmp_path / "ref.vtk").read_bytes())


def test_geometry_is_cached_per_mesh_object(tmp_path):
    # equal vertex and cell counts, different coordinates
    small = structured_mesh((0, 0, 1, 1), 6)
    large = structured_mesh((0, 0, 3, 3), 6)
    gc.collect()
    before = len(vtkio._GEOMETRY)
    for k in range(2):
        for name, mesh in (("small", small), ("large", large)):
            fields = dict(point_data={"x": mesh.vertices}, title=name)
            write_unstructured(tmp_path / f"new{k}.vtk", mesh, **fields)
            _reference_writer(tmp_path / "ref.vtk", mesh, **fields)
            assert ((tmp_path / f"new{k}.vtk").read_bytes()
                    == (tmp_path / "ref.vtk").read_bytes())
    assert len(vtkio._GEOMETRY) == before + 2
    dropped = weakref.ref(small)
    del small
    gc.collect()
    assert dropped() is None
    assert len(vtkio._GEOMETRY) == before + 1 and large in vtkio._GEOMETRY


def test_threads_writing_shared_meshes_match_reference(tmp_path):
    meshes = [structured_mesh((0, 0, 1 + k, 1), 5, pattern=pattern)
              for k, pattern in enumerate(("right", "crossed", "right"))]
    want = []
    for k, mesh in enumerate(meshes):
        _reference_writer(tmp_path / f"ref{k}.vtk", mesh,
                          cell_data={"area": mesh.cell_areas})
        want.append((tmp_path / f"ref{k}.vtk").read_bytes())

    def write(job):
        k = job % len(meshes)
        path = tmp_path / f"job{job}.vtk"
        write_unstructured(path, meshes[k],
                           cell_data={"area": meshes[k].cell_areas})
        return path.read_bytes() == want[k]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(write, job) for job in range(48)]
            assert all(f.result(timeout=60) for f in futures)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("text, files", [
    ("case = eddy2d\nn = 3\nlevels = 3\n", 5 + 9 + 17),
    ("case = stokes\nn = 4\nlevels = 2\n", 5 + 9),
], ids=["eddy2d", "stokes"])
def test_parallel_levels_write_the_same_snapshots(tmp_path, text, files):
    snapshots, codes = [], []
    for jobs in (1, 2):
        cfg = parse_config(text + "probes = false\nvtk_every = 1\n")
        cfg.jobs = jobs
        cfg.out = str(tmp_path / f"jobs{jobs}")
        # the coarse eddy levels miss the default rate floors (exit 1)
        codes.append(run_experiment(cfg))
        vtk = tmp_path / f"jobs{jobs}" / "vtk"
        snapshots.append({p.name: p.read_bytes() for p in vtk.iterdir()})
    assert codes[0] == codes[1] in (0, 1)
    assert len(snapshots[0]) == files
    assert snapshots[0] == snapshots[1]


@pytest.mark.parametrize("text", ["case = stokes\nn = 4\n",
                                  "case = eddy2d\nn = 6\n"],
                         ids=["stokes", "eddy2d"])
def test_level_memory_does_not_grow_with_its_snapshots(tmp_path, text):
    # every step is written as it is solved, so a level that writes 8x the
    # snapshots of the same mesh peaks no higher; holding each written
    # step until the level ends added 54 and 66 KiB
    def peak(steps):
        cfg = parse_config(text + f"levels = 1\nsteps = {steps}\n"
                           "probes = false\nvtk_every = 1\n")
        vtk = tmp_path / f"steps{steps}"
        tracemalloc.start()
        try:
            runner.run_level(cfg, 0, vtk)
            traced = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(list(vtk.iterdir())) == steps + 1
        return traced

    peak(8)  # the first level builds what later ones reuse
    assert peak(64) <= peak(8) + 16 * 1024


@pytest.mark.parametrize("case", ["point rows", "cell rows", "one column",
                                  "title newline"])
def test_malformed_fields_are_rejected(tmp_path, case):
    mesh = structured_mesh((0, 0, 1, 1), 2)
    nv, nc = mesh.num_vertices, mesh.num_cells
    fields = {
        "point rows": dict(point_data={"p": np.zeros(nv + 1)}),
        "cell rows": dict(cell_data={"c": np.zeros((nc - 1, 2))}),
        "one column": dict(point_data={"v": np.zeros((nv, 1))}),
        "title newline": dict(title="two\nlines"),
    }[case]
    with pytest.raises(ValueError):
        write_unstructured(tmp_path / "bad.vtk", mesh, **fields)
    assert not (tmp_path / "bad.vtk").exists()


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
    for name, want in (("u", (centroid.val @ u).reshape(-1, 2)),
                       ("rot_u", centroid.der @ u)):
        scale = np.abs(want).max()
        assert scale > 0.0
        np.testing.assert_allclose(got[name], want, rtol=1e-11,
                                   atol=1e-14 * scale, err_msg=name)
