import numpy as np
import pytest

from mixpar import build_space, interpolate, structured_mesh
from mixpar.assembly import CellTables
from mixpar.elements import SIX_POINT_RULE
from mixpar.mesh import CONDUCTOR, INSULATOR, TriMesh
from meshes import edge_cells, interface_pieces, uniform_refine
from rules import collapsed_rule


def test_p1_zero_boundary_counts():
    m1 = structured_mesh((0, 0, 1, 1), 1)
    assert build_space(m1, "p1").num_free == 0
    m2 = structured_mesh((0, 0, 1, 1), 2)
    sp2 = build_space(m2, "p1")
    assert sp2.num_free == 1
    # the lone free DOF is the center vertex
    assert np.allclose(m2.vertices[sp2.free[0]], [0.5, 0.5])


def test_free_fixed_partition():
    m = structured_mesh((0, 0, 1, 1), 3)
    outer = m.outer_vertices
    for kind, fixed in (("p1", outer),
                        ("mini", (2 * outer[:, None] + [0, 1]).ravel()),
                        ("edge", m.outer_edges)):
        spc = build_space(m, kind)
        # the free DOFs are the sorted complement of the boundary ones
        assert np.array_equal(spc.free,
                              np.setdiff1d(np.arange(spc.ndof), fixed))


def test_multiplier_space_interface_collapse():
    m = structured_mesh((0, 0, 3, 3), 3, conductor=(1, 1, 2, 2))
    mu = build_space(m, "multiplier")
    # 16 insulator vertices, 4 interface vertices alias to one DOF
    assert mu.ndof == 13
    assert mu.num_free == 1
    grp = interface_pieces(mu)[0]
    assert len(grp) == 4
    dofs = {mu.vertex_dof[v] for v in grp}
    assert len(dofs) == 1
    assert mu.vertex_dof[grp[0]] == mu.free[0]


def test_multiplier_space_excludes_conductor_interior():
    m = structured_mesh((0, 0, 3, 3), 6, conductor=(1, 1, 2, 2))
    mu = build_space(m, "multiplier")
    center = np.where(
        (np.abs(m.vertices[:, 0] - 1.5) < 1e-12)
        & (np.abs(m.vertices[:, 1] - 1.5) < 1e-12)
    )[0][0]
    assert mu.vertex_dof[center] == -1
    # 25 interior vertices - 8 interface (to one group) - 1 conductor center
    assert mu.num_free == 17


def test_multiplier_requires_insulator_cells():
    m = structured_mesh((0, 0, 1, 1), 2)
    with pytest.raises(ValueError, match="needs insulator cells"):
        build_space(m, "multiplier")


def test_deterministic_dof_numbering():
    m = structured_mesh((0, 0, 3, 3), 3, conductor=(1, 1, 2, 2))
    for kind in ("p1", "mini", "edge", "multiplier"):
        a = build_space(m, kind)
        b = build_space(m, kind)
        assert np.array_equal(a.free, b.free)
        assert np.array_equal(a.cell_dofs, b.cell_dofs)


def test_interpolate_p1_reproduces_nodal_values():
    m = structured_mesh((0, 0, 1, 1), 3)
    spc = build_space(m, "p1", bc=None)
    f = lambda p: 2.0 * p[:, 0] - 3.0 * p[:, 1] + 0.25
    coef = interpolate(spc, f)
    assert np.allclose(coef, f(m.vertices), atol=1e-15)


def test_interpolate_edge_constant_reproduction():
    m = structured_mesh((0, 0, 3, 3), 3, conductor=(1, 1, 2, 2))
    spc = build_space(m, "edge", bc=None)
    const = np.array([1.0, 0.5])
    coef = interpolate(spc, lambda p: np.tile(const, (len(p), 1)))
    tab = CellTables(spc, SIX_POINT_RULE)
    vals = np.einsum("cqed,ce->cqd", tab.wvals, coef[spc.cell_dofs])
    assert np.abs(vals - const).max() <= 1e-12


def test_interpolate_edge_reproduces_space_member():
    # a(-y, x) + b lies in the local space on every cell and is globally
    # tangentially continuous
    m = structured_mesh((0, 0, 1, 1), 2)
    spc = build_space(m, "edge", bc=None)
    f = lambda p: np.column_stack([-0.7 * p[:, 1] + 0.2, 0.7 * p[:, 0] - 0.4])
    coef = interpolate(spc, f)
    tab = CellTables(spc, SIX_POINT_RULE)
    vals = np.einsum("cqed,ce->cqd", tab.wvals, coef[spc.cell_dofs])
    exact = f(tab.qp.reshape(-1, 2)).reshape(vals.shape)
    assert np.abs(vals - exact).max() <= 1e-12


def test_interpolate_mini_reproduces_bubble_member():
    m = structured_mesh((0, 0, 1, 1), 2)
    spc = build_space(m, "mini", bc=None)
    lin = lambda p: np.column_stack([p[:, 0] + 0.1, -p[:, 1]])
    coef = interpolate(spc, lin)
    nv = m.num_vertices
    # linear field: bubble coefficients must vanish
    assert np.abs(coef[2 * nv:]).max() <= 1e-13
    coef2 = coef.copy()
    coef2[2 * nv] = 0.8  # add a bubble; reinterpolating must reproduce it

    # evaluate the coefficient field pointwise, then reinterpolate it
    def from_coef(p):
        vals = np.zeros((len(p), 2))
        c4 = coef2[spc.cell_dofs].reshape(m.num_cells, 4, 2)
        # locate each point's cell by brute force (tiny mesh)
        for i, pt in enumerate(p):
            for c, cell in enumerate(m.cells):
                tri = m.vertices[cell]
                A = np.vstack([tri.T, np.ones(3)])
                lam = np.linalg.solve(A, np.array([pt[0], pt[1], 1.0]))
                if lam.min() >= -1e-12:
                    basis = np.concatenate(
                        [lam, [27.0 * lam[0] * lam[1] * lam[2]]]
                    )
                    vals[i] = basis @ c4[c]
                    break
        return vals

    coef3 = interpolate(spc, from_coef)
    assert np.abs(coef3 - coef2).max() <= 1e-12


def test_interpolation_h1_error_halves_per_refinement():
    f = lambda p: np.sin(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1])
    gf = lambda p: np.column_stack([
        np.pi * np.cos(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1]),
        np.pi * np.sin(np.pi * p[:, 0]) * np.cos(np.pi * p[:, 1]),
    ])
    errs = []
    mesh = structured_mesh((0, 0, 1, 1), 4)
    for _ in range(3):
        spc = build_space(mesh, "p1", bc=None)
        coef = interpolate(spc, f)
        tab = CellTables(spc, collapsed_rule(6))
        gh = np.einsum("cmd,cm->cd", tab.grads, coef[spc.cell_dofs])
        ge = gf(tab.qp.reshape(-1, 2)).reshape(mesh.num_cells, -1, 2)
        diff = ge - gh[:, None, :]
        errs.append(np.sqrt((tab.wdet * (diff ** 2).sum(axis=2)).sum()))
        mesh = uniform_refine(mesh)
    ratios = [errs[i] / errs[i + 1] for i in range(2)]
    for r in ratios:
        assert 1.8 < r < 2.3


def test_multiplier_group_function_constant_along_interface():
    m = structured_mesh((0, 0, 3, 3), 6, conductor=(1, 1, 2, 2))
    mu = build_space(m, "multiplier")
    coef = np.zeros(mu.ndof)
    coef[mu.free[0]] = 1.0  # level-2 free DOF ordering: group first by vertex
    grp_dof = mu.vertex_dof[interface_pieces(mu)[0][0]]
    coef[:] = 0.0
    coef[grp_dof] = 1.0
    # zero tangential derivative along every interface edge
    for e in m.interface_edges:
        a, b = m.edges[e]
        va = coef[mu.vertex_dof[a]]
        vb = coef[mu.vertex_dof[b]]
        assert va == vb == 1.0


def test_interpolate_multiplier_uses_group_representative():
    m = structured_mesh((0, 0, 3, 3), 3, conductor=(1, 1, 2, 2))
    mu = build_space(m, "multiplier")
    coef = interpolate(mu, lambda p: p[:, 0] + p[:, 1])
    grp = interface_pieces(mu)[0]
    rep = grp.min()
    got = coef[mu.vertex_dof[grp[0]]]
    assert got == pytest.approx(m.vertices[rep].sum(), rel=1e-15)


@pytest.mark.parametrize("pattern", ["right", "crossed"])
@pytest.mark.parametrize("n, bc", [(3, "zero_outer"), (6, "zero_outer"),
                                   (6, None), (9, "zero_outer")])
def test_multiplier_arrays_match_per_vertex_loops(pattern, n, bc):
    m = structured_mesh((0, 0, 3, 3), n, conductor=(1, 1, 2, 2),
                        pattern=pattern)
    mu = build_space(m, "multiplier", bc=bc)
    # reference: the per-vertex loops the array operations replaced
    dof_of_vertex = mu.vertex_dof
    ins_cells = np.where(m.cell_subdomain == INSULATOR)[0]
    dof_vertex = np.full(mu.ndof, m.num_vertices, dtype=np.intp)
    for v in np.unique(m.cells[ins_cells])[::-1]:
        dof_vertex[dof_of_vertex[v]] = v
    fixed_mask = np.zeros(mu.ndof, dtype=bool)
    if bc == "zero_outer":
        outer = np.zeros(m.num_vertices, dtype=bool)
        outer[m.outer_vertices] = True
        for v in np.where(outer)[0]:
            if dof_of_vertex[v] >= 0:
                fixed_mask[dof_of_vertex[v]] = True
    for got, want in ((mu.dof_vertex, dof_vertex),
                      (mu.free, np.where(~fixed_mask)[0])):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


def _flood_fill_multiplier(mesh, bc):
    """Reference multiplier numbering by a per-vertex flood fill over the
    edges between a conductor and an insulator cell: insulator vertices
    in increasing order, each unvisited one opening the next DOF."""
    incident = edge_cells(mesh)
    sub = mesh.cell_subdomain
    neighbours = {}
    for e, (c0, c1) in enumerate(incident):
        if c1 >= 0 and {sub[c0], sub[c1]} == {CONDUCTOR, INSULATOR}:
            a, b = mesh.edges[e]
            neighbours.setdefault(a, []).append(b)
            neighbours.setdefault(b, []).append(a)
    vertex_dof = np.full(mesh.num_vertices, -1, dtype=np.intp)
    dof_vertex = []
    for v in np.unique(mesh.cells[sub == INSULATOR]):
        if vertex_dof[v] >= 0:
            continue
        vertex_dof[v] = len(dof_vertex)
        stack = [v]
        while stack:
            for w in neighbours.get(stack.pop(), []):
                if vertex_dof[w] < 0:
                    vertex_dof[w] = len(dof_vertex)
                    stack.append(w)
        dof_vertex.append(v)
    fixed_mask = np.zeros(len(dof_vertex), dtype=bool)
    if bc == "zero_outer":
        for e, (c0, c1) in enumerate(incident):
            if c1 < 0:
                for v in mesh.edges[e]:
                    if vertex_dof[v] >= 0:
                        fixed_mask[vertex_dof[v]] = True
    return (vertex_dof, np.asarray(dof_vertex, dtype=np.intp),
            np.flatnonzero(~fixed_mask))


# conductor squares (i, j) of a 5 x 5 lattice on [0,5]^2 and the
# number of interface pieces around them
_CONDUCTOR_LAYOUTS = {
    "two-blocks": ([(1, 1), (3, 2), (3, 3)], 2),
    "blocks-meeting-at-a-vertex": ([(1, 1), (2, 2)], 1),
    "block-on-the-outer-boundary": ([(0, 2), (1, 2)], 1),
}


@pytest.mark.parametrize("pattern", ["right", "crossed"])
@pytest.mark.parametrize("bc", [None, "zero_outer"])
@pytest.mark.parametrize("layout", sorted(_CONDUCTOR_LAYOUTS))
def test_multiplier_numbers_each_interface_piece(layout, bc, pattern):
    squares, pieces = _CONDUCTOR_LAYOUTS[layout]
    grid = structured_mesh((0, 0, 5, 5), 5, pattern=pattern)
    # the cells of one lattice square are consecutive, squares row-major
    per_square = grid.num_cells // 25
    inside = np.zeros(25, dtype=bool)
    inside[[5 * j + i for i, j in squares]] = True
    tags = np.where(np.repeat(inside, per_square), CONDUCTOR, INSULATOR)
    m = TriMesh(grid.vertices, grid.cells, tags)
    mu = build_space(m, "multiplier", bc=bc)
    vertex_dof, dof_vertex, free = _flood_fill_multiplier(m, bc)
    assert len(interface_pieces(mu)) == pieces
    assert mu.ndof == len(dof_vertex)
    for got, want in ((mu.vertex_dof, vertex_dof), (mu.dof_vertex, dof_vertex),
                      (mu.free, free)):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    # a piece on the outer boundary is fixed with it
    touches = layout == "block-on-the-outer-boundary"
    piece_dof = mu.vertex_dof[interface_pieces(mu)[0][0]]
    assert (piece_dof not in mu.free) == (touches and bc == "zero_outer")
