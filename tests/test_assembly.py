import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from mixpar import build_space, interpolate, stokes_case, structured_mesh
from mixpar.analysis import _per_row, compute_errors
from mixpar.assembly import (CellTables, NoConductorCells, SpaceMismatch,
                             assemble_eddy2d, assemble_load, assemble_stokes)
from mixpar.config import parse_config
from mixpar.elements import SIX_POINT_RULE, cell_geometry, p1_mass_reference
from mixpar.mesh import CONDUCTOR, TriMesh
from mixpar.runner import _build_instance, run_level
from mixpar.spaces import MissingTag
from conftest import build_eddy, build_stokes, discrete_gradient
from point_maps import (fields, padded_map, same_bits, vector_maps,
                        vector_moments, vector_stokes)


def test_operator_symmetry_and_psd(eddy6):
    _, _, _, ops = eddy6
    for mat in (ops.R, ops.A):
        sym = abs(mat - mat.T).max()
        assert sym <= 1e-12 * max(1.0, abs(mat).max())
    rng = np.random.default_rng(3)
    for _ in range(10):
        x = rng.standard_normal(ops.R.shape[0])
        assert x @ (ops.R @ x) >= -1e-12 * x @ x
        assert x @ (ops.A @ x) >= -1e-12 * x @ x


def test_stokes_operator_symmetry(stokes2):
    _, _, _, ops = stokes2
    assert abs(ops.R - ops.R.T).max() <= 1e-14
    assert abs(ops.A - ops.A.T).max() <= 1e-14
    # A_dt = R + dt A is PD for the Stokes pair
    A_dt = (ops.R + 0.1 * ops.A).toarray()
    assert np.linalg.eigvalsh(A_dt).min() > 0


def test_stokes_stiffness_kernel_contains_constants():
    mesh, V, Q, ops = build_stokes(3, bc=None)
    const = interpolate(V, lambda p: np.tile([1.0, -2.0], (len(p), 1)))
    resid = ops.A @ const
    interior = np.setdiff1d(np.arange(mesh.num_vertices), mesh.outer_vertices)
    rows = np.concatenate([2 * interior, 2 * interior + 1,
                           np.arange(2 * mesh.num_vertices, V.ndof)])
    assert np.abs(resid[rows]).max() <= 1e-12


def test_stokes_rigid_rotation_divergence_free():
    _, V, Q, ops = build_stokes(3, bc=None)
    rot = interpolate(V, lambda p: np.column_stack([-p[:, 1], p[:, 0]]))
    assert np.abs(ops.B @ rot).max() <= 1e-12


def test_stokes_velocity_mass_single_reference_cell():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    mesh = TriMesh(verts, np.array([[0, 1, 2]]))
    V = build_space(mesh, "mini", bc=None)
    Q = build_space(mesh, "p1", bc=None)
    ops = assemble_stokes(V, Q)
    R = ops.R.toarray()
    # P1 block of each component equals the reference mass matrix
    assert np.abs(R[0:6:2, 0:6:2] - p1_mass_reference()).max() <= 1e-14
    assert np.abs(R[1:6:2, 1:6:2] - p1_mass_reference()).max() <= 1e-14
    assert np.abs(R[0:6:2, 1:6:2]).max() == 0.0


def test_space_mismatch_rejected():
    mesh1 = structured_mesh((0, 0, 1, 1), 2)
    mesh2 = structured_mesh((0, 0, 1, 1), 2)
    V = build_space(mesh1, "mini")
    Q = build_space(mesh2, "p1", bc=None)
    with pytest.raises(SpaceMismatch):
        assemble_stokes(V, Q)
    with pytest.raises(SpaceMismatch):
        assemble_stokes(Q, Q)


def test_eddy_requires_conductor():
    mesh, E, MU, _ = build_eddy(3)
    with pytest.raises(NoConductorCells):
        assemble_eddy2d(E, MU, sigma=0.0)
    plain = structured_mesh((0, 0, 1, 1), 2)
    with pytest.raises(MissingTag):
        build_space(plain, "multiplier")


def test_eddy_mass_vanishes_off_conductor(eddy3):
    mesh, E, MU, ops = eddy3
    # free coefficient vector supported away from conductor cells
    cond_edges = set(np.unique(mesh.cell_edges[mesh.cell_subdomain == CONDUCTOR]))
    v = np.zeros(E.num_free)
    for i, dof in enumerate(E.free):
        if dof not in cond_edges:
            v[i] = 1.0
    assert np.abs(ops.R @ v).max() == 0.0


def test_eddy_mass_pattern_touches_conductor_edges_only(eddy3):
    mesh, E, MU, ops = eddy3
    cond_cells = np.where(mesh.cell_subdomain == CONDUCTOR)[0]
    cond_edges = np.unique(mesh.cell_edges[cond_cells])
    assert len(cond_edges) == 5  # two triangles of one square share a diagonal
    coo = ops.R.tocoo()
    touched = np.union1d(coo.row[coo.data != 0], coo.col[coo.data != 0])
    expected = np.sort([E.free_index(e) for e in cond_edges])
    assert np.array_equal(touched, expected)


def test_eddy_exact_sequence_gradients_in_kernel_of_A(eddy6):
    mesh, E, MU, ops = eddy6
    psi = np.sin(mesh.vertices[:, 0]) * np.cos(2.0 * mesh.vertices[:, 1])
    psi[mesh.outer_vertices] = 0.0
    g = discrete_gradient(mesh, psi)
    assert np.abs(ops.A @ g[E.free]).max() <= 1e-12


@settings(max_examples=20, deadline=None)
@given(sigma=st.floats(0.1, 50.0))
def test_eddy_mass_linear_in_sigma(sigma, eddy3):
    mesh, E, MU, ops1 = eddy3
    ops2 = assemble_eddy2d(E, MU, sigma=sigma)
    d = ops2.R - sigma * ops1.R
    assert abs(d).max() <= 1e-13 * max(1.0, sigma)


def test_load_zero_function(eddy3):
    _, E, _, _ = eddy3
    f = lambda p, t: np.zeros((len(p), 2))
    assert np.all(assemble_load(E, f, 0.3) == 0.0)


def test_load_constant_partition_of_unity():
    mesh = structured_mesh((0, 0, 2, 1), 3)
    spc = build_space(mesh, "p1", bc=None)
    c = 0.7
    load = assemble_load(spc, lambda p, t: np.full(len(p), c), 0.0)
    assert load.sum() == pytest.approx(c * 2.0, rel=1e-13)


def test_load_cubic_polynomial_symbolic_values():
    # single reference cell, f = x^3 against P1: (1/120, 1/30, 1/120)
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    mesh = TriMesh(verts, np.array([[0, 1, 2]]))
    spc = build_space(mesh, "p1", bc=None)
    load = assemble_load(spc, lambda p, t: p[:, 0] ** 3, 0.0)
    assert np.abs(load - np.array([1 / 120, 1 / 30, 1 / 120])).max() <= 1e-13
    # global sum equals the symbolic integral of x^3
    assert load.sum() == pytest.approx(1 / 20, abs=1e-15)


def test_mean_row_is_vertex_area_weights(stokes2):
    mesh, V, Q, ops = stokes2
    assert ops.mean_row.sum() == pytest.approx(1.0, rel=1e-14)
    ones = np.ones(Q.num_free)
    # mean row equals M @ 1 (both are the basis integrals)
    assert np.allclose(ops.mean_row, ops.M @ ones, atol=1e-15)


def test_eddy_constraint_rows_annihilate_kernel_extractor(eddy3):
    from mixpar.saddle import kernel_basis

    _, _, _, ops = eddy3
    Z = kernel_basis(ops.B)
    assert Z.shape[1] == ops.B.shape[1] - ops.B.shape[0]
    assert np.abs(ops.B @ Z).max() <= 1e-12


def _four_spaces():
    _, V, Q, _ = build_stokes(3)
    _, E, MU, _ = build_eddy(3)
    return {"mini": V, "p1": Q, "edge": E, "multiplier": MU}


@pytest.mark.parametrize("kind", ["mini", "p1", "edge", "multiplier"])
def test_moments_adjoint_to_values_and_derivs(kind):
    space = _four_spaces()[kind]
    tab = CellTables.of(space)
    rng = np.random.default_rng(17)
    u = rng.standard_normal(space.num_free)
    vals, ders = fields(space, "val", u), fields(space, "der", u)
    fq = rng.standard_normal(vals.shape)
    dq = rng.standard_normal(ders.shape)
    lhs = tab.moments(fq, dq) @ u
    rhs = np.sum(tab.w * ((fq * vals).reshape(len(tab.w), -1).sum(axis=1)
                          + (dq * ders).reshape(len(tab.w), -1).sum(axis=1)))
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))
    assert np.allclose(tab.moments(fq) + tab.moments(None, dq),
                       tab.moments(fq, dq), rtol=0, atol=1e-13)


@pytest.mark.parametrize("kind", ["mini", "p1", "edge", "multiplier"])
def test_values_and_derivs_match_per_kind_fields(kind):
    space = _four_spaces()[kind]
    tab = CellTables.of(space)
    u = np.random.default_rng(5).standard_normal(space.num_free)
    nc, nq = tab.wdet.shape
    # the tables span every cell; a cell off the space carries no field
    c = np.zeros((nc, space.cell_dofs.shape[1]))
    c[space.active_cells] = space.extend(u)[space.cell_dofs]
    if kind == "mini":
        c4 = c.reshape(nc, 4, 2)
        vals = np.einsum("qs,csd->cqd", tab.vals, c4)
        ders = np.einsum("cqsg,csd->cqdg", tab.grads, c4)
    elif kind == "edge":
        vals = np.einsum("cqed,ce->cqd", tab.wvals, c)
        ders = np.repeat(np.einsum("ce,ce->c", tab.wrot, c), nq)
    else:
        vals = np.einsum("qm,cm->cq", tab.vals, c)
        ders = np.repeat(np.einsum("cmd,cm->cd", tab.grads, c), nq, axis=0)
    assert np.allclose(fields(space, "val", u), vals.ravel(),
                       rtol=0, atol=1e-12)
    assert np.allclose(fields(space, "der", u), ders.ravel(),
                       rtol=0, atol=1e-12)


@pytest.mark.parametrize("case, extra, expected", [
    ("stokes", "", ["mini", "p1"]),
    # the VTK cell data reads the edge space's one table too
    ("eddy2d", "vtk_every = 1\n", ["edge", "multiplier"]),
])
def test_one_level_builds_one_table_per_space_and_degree(
        monkeypatch, tmp_path, case, extra, expected):
    built = []
    init = CellTables.__init__

    def counting_init(self, space, rule=None):
        init(self, space, rule)
        assert self.rule is SIX_POINT_RULE
        built.append(space.kind)

    monkeypatch.setattr(CellTables, "__init__", counting_init)
    n = 2 if case == "stokes" else 3
    for steps in (2, 5):
        built.clear()
        cfg = parse_config(f"case = {case}\nn = {n}\nlevels = 1\n"
                           f"steps = {steps}\nprobes = false\n{extra}")
        run_level(cfg, 0, vtk_dir=tmp_path / f"vtk{steps}")
        assert sorted(built) == sorted(expected)


@pytest.mark.parametrize("pattern", ["right", "crossed"])
def test_stokes_level_builds_only_scalar_velocity_maps(monkeypatch, tmp_path,
                                                       pattern):
    # the load, the error sweep, the probes and the snapshots all read the
    # two scalar maps; none builds a vector map of its own
    widths = []
    point_map = CellTables._point_map

    def spied(self, data, cols):
        P = point_map(self, data, cols)
        if self.kind == "mini":
            widths.append(P.shape[1])
        return P

    monkeypatch.setattr(CellTables, "_point_map", spied)
    cfg = parse_config(f"case = stokes\nn = 3\nlevels = 1\nsteps = 2\n"
                       f"probes = true\npattern = {pattern}\n"
                       f"vtk_every = 1\n")
    res = run_level(cfg, 0, vtk_dir=tmp_path)
    assert res.probed
    assert widths == [res.n_primal // 2] * 2


@pytest.mark.parametrize("pattern", ["right", "crossed"])
@pytest.mark.parametrize("case", ["stokes", "eddy2d"])
def test_every_table_of_a_level_spans_its_mesh_and_stores_only_maps(
        case, pattern):
    cfg = parse_config(f"case = {case}\nn = 3\nlevels = 1\nsteps = 2\n"
                       f"probes = false\npattern = {pattern}\n")
    mesh, exact, ops, grid, load = _build_instance(cfg, 0)
    compute_errors(exact, ops, grid)
    load(grid.dt)
    tables = [CellTables.of(s) for s in (ops.primal, ops.multiplier)]
    # one point layout per level: every cell, times the rule's six points
    for tab in tables:
        npts = len(tab.w)
        assert npts == 6 * mesh.num_cells, tab.kind
        for P in (tab.val, tab.der):
            assert P.shape[0] % npts == 0, tab.kind
    if case == "eddy2d":
        # the multiplier's rows on conductor cells are empty
        on_cond = np.repeat(mesh.cell_subdomain == CONDUCTOR, 6)
        assert on_cond.any()
        for P in (tables[1].val, tables[1].der):
            rows = np.repeat(on_cond, P.shape[0] // len(on_cond))
            assert not np.diff(P.indptr)[rows].any()
            assert np.diff(P.indptr)[~rows].any()
    # weights and points are derived on access, never stored
    for tab in tables:
        assert not {"wdet", "w", "qp"} & set(vars(tab)), tab.kind


# -- the per-kind einsum-and-scatter assembly that the Gram products of
# the point maps replaced, kept as the oracle of the operators

def _scatter(local, row_dofs, col_dofs, shape):
    nr, nc = row_dofs.shape[1], col_dofs.shape[1]
    rows = np.repeat(row_dofs, nc, axis=1).ravel()
    cols = np.tile(col_dofs, (1, nr)).ravel()
    return sp.coo_matrix((local.ravel(), (rows, cols)), shape=shape).tocsr()


def _reduce(mat, row_space, col_space):
    return mat[row_space.free][:, col_space.free]


def _interleave_vector_blocks(scalar_local):
    nc, ns, _ = scalar_local.shape
    out = np.zeros((nc, 2 * ns, 2 * ns))
    out[:, 0::2, 0::2] = scalar_local
    out[:, 1::2, 1::2] = scalar_local
    return out


def _stokes_oracle(V, Q, nu):
    tv, tp = CellTables.of(V), CellTables.of(Q)
    dv, dp = V.cell_dofs, Q.cell_dofs
    sq = lambda s: (s.ndof, s.ndof)
    mass4 = np.einsum("cq,qs,qt->cst", tv.wdet, tv.vals, tv.vals)
    stiff4 = np.einsum("cq,cqsg,cqtg->cst", tv.wdet, tv.grads, tv.grads)
    R = _scatter(_interleave_vector_blocks(mass4), dv, dv, sq(V))
    X = _scatter(_interleave_vector_blocks(stiff4), dv, dv, sq(V))
    div = -np.einsum("cq,qm,cqtd->cmtd", tv.wdet, tp.vals, tv.grads)
    B = _scatter(div.reshape(len(dv), 3, 8), dp, dv,
                 (Q.ndof, V.ndof))
    mp = np.einsum("cq,qm,qn->cmn", tp.wdet, tp.vals, tp.vals)
    M = _scatter(mp, dp, dp, sq(Q))
    mean = np.zeros(Q.ndof)
    np.add.at(mean, dp.ravel(),
              np.einsum("cq,qm->cm", tp.wdet, tp.vals).ravel())
    X = _reduce(X, V, V)
    return {"R": _reduce(R, V, V), "A": nu * X, "B": _reduce(B, Q, V),
            "X": X, "M": _reduce(M, Q, Q), "mean_row": mean[Q.free]}


def _eddy_oracle(E, MU, sigma, eps, mu_mag):
    te, tm = CellTables.of(E), CellTables.of(MU)
    de, dm = E.cell_dofs, MU.cell_dofs
    mesh = E.mesh
    sq = lambda s: (s.ndof, s.ndof)
    mass = np.einsum("cq,cqed,cqfd->cef", te.wdet, te.wvals, te.wvals)
    rot = np.einsum("c,ce,cf->cef", mesh.cell_areas, te.wrot, te.wrot)
    cond = mesh.cell_subdomain == CONDUCTOR
    R = sigma * _scatter(mass[cond], de[cond], de[cond], sq(E))
    A = _scatter(rot, de, de, sq(E)) / mu_mag
    X = _scatter(mass + rot, de, de, sq(E))
    # both tables span every cell; the multiplier's cell DOFs are those
    # of its insulator cells
    ins = MU.active_cells
    b = eps * np.einsum("cq,cqed,cmd->cme", te.wdet[ins], te.wvals[ins],
                        tm.grads[ins])
    B = _scatter(b, dm, de[ins], (MU.ndof, E.ndof))
    m_mass = np.einsum("cq,qm,qn->cmn", tm.wdet[ins], tm.vals, tm.vals)
    m_stiff = np.einsum("c,cmd,cnd->cmn", mesh.cell_areas[ins],
                        tm.grads[ins], tm.grads[ins])
    M = _scatter(m_mass + m_stiff, dm, dm, sq(MU))
    return {"R": _reduce(R, E, E), "A": _reduce(A, E, E),
            "B": _reduce(B, MU, E), "X": _reduce(X, E, E),
            "M": _reduce(M, MU, MU)}


@pytest.mark.parametrize("pattern", ["right", "crossed"])
@pytest.mark.parametrize("case, degree", [("stokes", 4), ("eddy2d", 4)])
def test_operators_match_scatter_assembly(case, degree, pattern):
    if case == "stokes":
        mesh = structured_mesh((0, 0, 1, 1), 4, pattern=pattern)
        V = build_space(mesh, "mini")
        Q = build_space(mesh, "p1", bc=None)
        ops = assemble_stokes(V, Q, nu=0.37)
        want = _stokes_oracle(V, Q, 0.37)
    else:
        mesh = structured_mesh((0, 0, 3, 3), 6, conductor=(1, 1, 2, 2),
                               pattern=pattern)
        E = build_space(mesh, "edge")
        MU = build_space(mesh, "multiplier")
        ops = assemble_eddy2d(E, MU, sigma=2.5, eps=0.4, mu_mag=3.0)
        want = _eddy_oracle(E, MU, 2.5, 0.4, 3.0)
        assert ops.mean_row is None
    # the operators are built from the one degree-4 rule
    for space in (ops.primal, ops.multiplier):
        assert space.tables.rule is SIX_POINT_RULE
    for name, ref in want.items():
        got = getattr(ops, name)
        assert got.shape == ref.shape, name
        assert abs(got - ref).max() <= 1e-14 * abs(ref).max(), name
        if name != "mean_row":
            assert (got.data == 0).sum() == 0, name
    for name in ("R", "A", "X", "M"):
        got = getattr(ops, name)
        assert (got != got.T).nnz == 0, name


def _buffer(a):
    """The array that owns the memory of `a`."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


@pytest.mark.parametrize("n", [3, 16, 64])
@pytest.mark.parametrize("pattern", ["right", "crossed"])
def test_stokes_operators_match_vector_maps_bitwise(pattern, n):
    _, V, Q, ops = build_stokes(n, nu=0.37, pattern=pattern)
    for name, want in vector_stokes(V, Q, 0.37).items():
        assert same_bits(getattr(ops, name), want), name


@pytest.mark.parametrize("n", [3, 16, 64])
@pytest.mark.parametrize("pattern", ["right", "crossed"])
def test_stokes_load_moments_match_vector_maps_bitwise(pattern, n):
    mesh = structured_mesh((0, 0, 1, 1), n, pattern=pattern)
    V = build_space(mesh, "mini")
    case = stokes_case(nu=0.37)
    tab, maps = CellTables.of(V), vector_maps(V)
    w, qp = tab.w, tab.qp
    separable = (case.load_factors, case.load_profiles)
    L = np.array([vector_moments(maps, w, value, rot)
                  for value, rot in case.load_profiles(qp)])
    for t in (0.3, 0.5):
        a = np.array([factor(t) for factor in case.load_factors])
        assert same_bits(assemble_load(V, separable, t), a @ L)
        assert same_bits(assemble_load(V, case.f_vec, t),
                         vector_moments(maps, w, case.f_vec(qp, t)))
    # the Jacobian's adjoint, which no Stokes load reads
    dq = np.random.default_rng(8).standard_normal(maps["der"].shape[0])
    assert same_bits(tab.moments(None, dq), vector_moments(maps, w, None, dq))


@pytest.mark.parametrize("kind", ["mini", "p1", "edge", "multiplier"])
def test_point_maps_store_only_their_entries(kind):
    # the padded map less its exact zeros, entry for entry, in arrays no
    # larger than its entries
    tab = CellTables.of(_four_spaces()[kind])
    for name in ("val", "der"):
        P = getattr(tab, name)
        ref = padded_map(tab, *tab._recipe(name)).copy()
        ref.eliminate_zeros()
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(P, part), getattr(ref, part)), part
        for arr in (P.data, P.indices):
            assert _buffer(arr).nbytes == P.nnz * arr.itemsize, name


@pytest.mark.parametrize("pattern", ["right", "crossed"])
def test_table_products_match_their_einsums_bitwise(pattern):
    spaces = (_instance_spaces("stokes", pattern)[0]
              + _instance_spaces("eddy2d", pattern)[0])
    bary = SIX_POINT_RULE.points
    l0, l1, l2 = bary.T
    lam = bary
    for space in spaces:
        tab = CellTables.of(space)
        # every table spans all of its mesh's cells
        mesh = space.mesh
        pts = mesh.vertices[mesh.cells]
        g = cell_geometry(pts)[1]
        qp = np.einsum("qk,ckd->cqd", bary, pts).reshape(-1, 2)
        assert tab.qp.tobytes() == qp.tobytes(), space.kind
        if space.kind == "mini":
            bubble = 27.0 * (np.einsum("q,cd->cqd", l1 * l2, g[:, 0])
                             + np.einsum("q,cd->cqd", l0 * l2, g[:, 1])
                             + np.einsum("q,cd->cqd", l0 * l1, g[:, 2]))
            assert tab.grads[:, :, 3].tobytes() == bubble.tobytes()
            # the scalar maps' fields and moments are the vector maps',
            # bit for bit, one coefficient vector or several at once
            U = np.random.default_rng(4).standard_normal((3, tab.nfree))
            fq, dq = fields(space, "val", U[0]), fields(space, "der", U[0])
            assert same_bits(tab.moments(fq, dq), vector_moments(
                vector_maps(space), tab.w, fq, dq))
            for name in ("val", "der"):
                P = vector_maps(space)[name]
                assert same_bits(tab.apply(name, U), (P @ U.T).T)
                Z = tab.apply(name, U)
                assert same_bits(tab.adjoint(name, Z, tab.w),
                                 (P.T @ _per_row(tab.w, Z).T).T)
        elif space.kind == "edge":
            s = mesh.cell_edge_sign[:, :, None]
            ga, gb = s * g[:, [1, 2, 0]], s * g[:, [2, 0, 1]]
            wvals = (np.einsum("qe,ced->cqed", lam[:, [1, 2, 0]], gb)
                     - np.einsum("qe,ced->cqed", lam[:, [2, 0, 1]], ga))
            assert tab.wvals.tobytes() == wvals.tobytes()


def _instance_spaces(case, pattern):
    if case == "stokes":
        mesh = structured_mesh((0, 0, 1, 1), 6, pattern=pattern)
        spaces = (build_space(mesh, "mini"), build_space(mesh, "p1", bc=None))
        return spaces, lambda V, Q: assemble_stokes(V, Q, nu=0.37)
    mesh = structured_mesh((0, 0, 3, 3), 6, conductor=(1, 1, 2, 2),
                           pattern=pattern)
    spaces = (build_space(mesh, "edge"), build_space(mesh, "multiplier"))
    return spaces, lambda E, MU: assemble_eddy2d(E, MU, sigma=2.5, eps=0.4,
                                                 mu_mag=3.0)


@pytest.mark.parametrize("pattern", ["right", "crossed"])
@pytest.mark.parametrize("case", ["stokes", "eddy2d"])
def test_point_maps_drop_zeros_without_changing_results(case, pattern):
    spaces, assemble = _instance_spaces(case, pattern)
    ops = assemble(*spaces)
    # fresh spaces whose tables hold the padded maps
    fresh, _ = _instance_spaces(case, pattern)
    for space in fresh:
        tab = CellTables.of(space)
        tab.val = padded_map(tab, *tab._recipe("val"))
        tab.der = padded_map(tab, *tab._recipe("der"))
    rng = np.random.default_rng(2)
    for space, padded in zip(spaces, fresh):
        tab, ref = CellTables.of(space), CellTables.of(padded)
        assert (ref.der.data == 0).any(), space.kind
        for name in ("val", "der"):
            P = getattr(tab, name)
            assert (P.data == 0).sum() == 0, (space.kind, name)
            assert (P != getattr(ref, name)).nnz == 0, (space.kind, name)
        u = rng.standard_normal(tab.nfree)
        vals, ders = fields(space, "val", u), fields(space, "der", u)
        assert np.array_equal(vals, ref.apply("val", u))
        assert np.array_equal(ders, ref.apply("der", u))
        fq = rng.standard_normal(vals.shape)
        dq = rng.standard_normal(ders.shape)
        assert np.array_equal(tab.moments(fq, dq), ref.moments(fq, dq))

    ref = assemble(*fresh)
    for name in ("R", "A", "B", "X", "M"):
        got, want = getattr(ops, name), getattr(ref, name)
        assert got.nnz == want.nnz, name
        assert np.array_equal(got.toarray(), want.toarray()), name
    if case == "stokes":
        assert np.array_equal(ops.mean_row, ref.mean_row)
