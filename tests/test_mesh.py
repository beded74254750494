import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixpar.mesh import (CONDUCTOR, INSULATOR, WHOLE, ConductorNotOnLattice,
                         TriMesh, check_mesh, structured_mesh,
                         subdomain_areas, uniform_refine)


def test_smallest_right_diagonal_mesh():
    m = structured_mesh((0, 0, 1, 1), 1)
    assert m.num_cells == 2
    assert m.num_vertices == 4
    assert m.num_edges == 5
    assert np.all(m.cell_subdomain == WHOLE)


def test_cell_counts_right_and_crossed():
    assert structured_mesh((0, 0, 1, 1), 3).num_cells == 2 * 9
    assert structured_mesh((0, 0, 1, 1), 3, pattern="crossed").num_cells == 4 * 9


def test_conductor_tagging_on_3x3():
    m = structured_mesh((0, 0, 3, 3), 3, conductor=(1, 1, 2, 2))
    # geometric oracle: count triangles whose centroid lies in [1,2]^2
    c = m.centroids()
    inside = (c[:, 0] > 1) & (c[:, 0] < 2) & (c[:, 1] > 1) & (c[:, 1] < 2)
    assert inside.sum() == 2
    assert np.array_equal(m.cell_subdomain == CONDUCTOR, inside)
    assert (m.cell_subdomain == INSULATOR).sum() == 16
    assert len(m.interface_edges) == 4


def test_conductor_off_lattice_rejected():
    with pytest.raises(ConductorNotOnLattice):
        structured_mesh((0, 0, 3, 3), 3, conductor=(1.5, 1, 2, 2))
    with pytest.raises(ConductorNotOnLattice):
        structured_mesh((0, 0, 3, 3), 2, conductor=(1, 1, 2, 2))


def test_refine_halves_h_exactly():
    m = structured_mesh((0, 0, 1, 1), 2)
    r = uniform_refine(m)
    assert r.h == pytest.approx(m.h / 2, rel=1e-15)


def test_refine_counts():
    m = structured_mesh((0, 0, 1, 1), 1)
    r = uniform_refine(m)
    assert r.num_cells == 8
    assert r.num_vertices == 9
    # Euler relation for midpoint refinement
    assert r.num_vertices == m.num_vertices + m.num_edges


def test_refined_mesh_passes_invariants():
    m = structured_mesh((0, 0, 3, 3), 3, conductor=(1, 1, 2, 2))
    r = uniform_refine(uniform_refine(m))
    assert check_mesh(r, expected_area=9.0)
    assert r.num_cells == 16 * m.num_cells


def test_interface_edges_separate_subdomains():
    m = uniform_refine(structured_mesh((0, 0, 3, 3), 3, conductor=(1, 1, 2, 2)))
    for e in m.interface_edges:
        tags = {m.cell_subdomain[c] for c in m.edge_cells[e] if c >= 0}
        assert tags == {CONDUCTOR, INSULATOR}


def test_boundary_edges_tagging():
    m = structured_mesh((0, 0, 3, 3), 3, conductor=(1, 1, 2, 2))
    assert len(m.outer_edges) == 12
    counts = (m.edge_cells >= 0).sum(axis=1)
    assert np.all(counts[m.outer_edges] == 1)
    assert np.all(counts[m.interface_edges] == 2)
    # the boundary_edges view covers both tags
    assert set(m.boundary_edges) == set(m.outer_edges) | set(m.interface_edges)


def test_interface_components_single_square():
    m = structured_mesh((0, 0, 3, 3), 6, conductor=(1, 1, 2, 2))
    comps = m.interface_components()
    assert len(comps) == 1
    assert len(comps[0]) == 8  # ring of the [1,2]^2 square at spacing 0.5


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 5), refines=st.integers(0, 2),
       pattern=st.sampled_from(["right", "crossed"]))
def test_area_and_orientation_properties(n, refines, pattern):
    m = structured_mesh((0, 0, 2, 1), n, pattern=pattern)
    for _ in range(refines):
        m = uniform_refine(m)
    assert m.cell_areas.sum() == pytest.approx(2.0, rel=1e-12)
    assert np.all(m.cell_areas > 0)
    assert check_mesh(m, expected_area=2.0)


@settings(max_examples=10, deadline=None)
@given(k=st.integers(1, 2), refines=st.integers(1, 2))
def test_subdomain_area_preserved_under_refinement(k, refines):
    m = structured_mesh((0, 0, 3, 3), 3 * k, conductor=(1, 1, 2, 2))
    before = subdomain_areas(m)
    for _ in range(refines):
        m = uniform_refine(m)
    after = subdomain_areas(m)
    assert after[CONDUCTOR] == pytest.approx(before[CONDUCTOR], rel=1e-13)
    assert after[INSULATOR] == pytest.approx(before[INSULATOR], rel=1e-13)
    assert before[CONDUCTOR] == pytest.approx(1.0, rel=1e-12)


def test_trimesh_rejects_negative_orientation():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        TriMesh(verts, np.array([[0, 2, 1]]))


def test_edge_orientation_low_to_high():
    m = structured_mesh((0, 0, 1, 1), 3)
    assert np.all(m.edges[:, 0] < m.edges[:, 1])
    lo = m.cells[np.arange(m.num_cells)[:, None], m.cell_edge_local[:, :, 0]]
    hi = m.cells[np.arange(m.num_cells)[:, None], m.cell_edge_local[:, :, 1]]
    assert np.array_equal(lo, m.edges[m.cell_edges, 0])
    assert np.array_equal(hi, m.edges[m.cell_edges, 1])


def test_mesh_vtk_export(tmp_path):
    from mixpar.vtkio import write_mesh

    m = structured_mesh((0, 0, 3, 3), 3, conductor=(1, 1, 2, 2))
    path = tmp_path / "mesh.vtk"
    write_mesh(path, m)
    lines = path.read_text().splitlines()
    assert lines[0] == "# vtk DataFile Version 2.0"
    assert "DATASET UNSTRUCTURED_GRID" in lines
    assert f"POINTS {m.num_vertices} double" in lines
    assert f"CELLS {m.num_cells} {4 * m.num_cells}" in lines
    assert "SCALARS subdomain double 1" in lines


def _edge_cells_reference(mesh):
    # the per-cell loop the constructor once ran
    edge_cells = np.full((mesh.num_edges, 2), -1, dtype=np.intp)
    for c in range(mesh.num_cells):
        for k in range(3):
            e = mesh.cell_edges[c, k]
            if edge_cells[e, 0] < 0:
                edge_cells[e, 0] = c
            elif edge_cells[e, 1] < 0:
                edge_cells[e, 1] = c
            else:
                raise ValueError(f"edge {e} shared by more than two cells")
    return edge_cells


@pytest.mark.parametrize("pattern", ["right", "crossed"])
def test_edge_cells_match_per_cell_loop(pattern):
    meshes = [
        structured_mesh((0, 0, 1, 1), 5, pattern=pattern),
        uniform_refine(structured_mesh((0, 0, 3, 3), 3, pattern=pattern,
                                       conductor=(1, 1, 2, 2))),
    ]
    for m in meshes:
        assert m.edge_cells.dtype == np.intp
        assert np.array_equal(m.edge_cells, _edge_cells_reference(m))
        # edges are unique and in lexicographic (low, high) order
        lo, hi = m.edges[:, 0], m.edges[:, 1]
        assert np.all((lo[1:] > lo[:-1])
                      | ((lo[1:] == lo[:-1]) & (hi[1:] > hi[:-1])))


def _structured_reference(n, pattern, square_tag):
    # the per-square loops structured_mesh once ran, on the unit square
    xs = ys = np.linspace(0.0, 1.0, n + 1)
    vid = lambda i, j: j * (n + 1) + i
    grid = np.array([(xs[i], ys[j]) for j in range(n + 1)
                     for i in range(n + 1)])
    cells, tags, centers = [], [], []
    for j in range(n):
        for i in range(n):
            v00, v10 = vid(i, j), vid(i + 1, j)
            v01, v11 = vid(i, j + 1), vid(i + 1, j + 1)
            if pattern == "right":
                cells += [(v00, v10, v11), (v00, v11, v01)]
            else:
                ctr = len(grid) + j * n + i
                centers.append((0.5 * (xs[i] + xs[i + 1]),
                                0.5 * (ys[j] + ys[j + 1])))
                cells += [(v00, v10, ctr), (v10, v11, ctr),
                          (v11, v01, ctr), (v01, v00, ctr)]
            tags += [square_tag(i, j)] * (2 if pattern == "right" else 4)
    vertices = np.vstack([grid] + ([np.array(centers)] if centers else []))
    return vertices, np.array(cells), np.array(tags, dtype=np.int8)


@pytest.mark.parametrize("pattern", ["right", "crossed"])
def test_structured_mesh_matches_per_square_loops(pattern):
    def banded(i, j):
        # conductor [1/3, 2/3]^2 on the 6 x 6 lattice
        return CONDUCTOR if 2 <= i < 4 and 2 <= j < 4 else INSULATOR

    for n, conductor, square_tag in (
            (5, None, lambda i, j: WHOLE),
            (6, (1 / 3, 1 / 3, 2 / 3, 2 / 3), banded)):
        m = structured_mesh((0, 0, 1, 1), n, conductor=conductor,
                            pattern=pattern)
        vertices, cells, tags = _structured_reference(n, pattern, square_tag)
        assert np.array_equal(m.vertices, vertices)
        assert np.array_equal(m.cells, cells)
        assert np.array_equal(m.cell_subdomain, tags)


def test_edge_shared_by_three_cells_rejected():
    # three positively oriented triangles on the edge (0,0)-(1,0)
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, 2.0],
                      [0.2, 0.5]])
    cells = np.array([[0, 1, 2], [0, 1, 3], [0, 1, 4]])
    with pytest.raises(ValueError, match="shared by more than two cells"):
        TriMesh(verts, cells)
