from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixpar import build_space
from mixpar.assembly import CellTables
from mixpar.elements import (SIX_POINT_RULE, QuadratureRule, bubble_values,
                             cell_geometry, gauss1d, p1_mass_reference,
                             p1_stiffness)
from mixpar.mesh import TriMesh, structured_mesh
from meshes import uniform_refine
from rules import CENTROID, collapsed_rule

REF = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def _edge_space(verts, cell=(0, 1, 2)):
    """Edge space on the one-cell mesh of verts, all DOFs free."""
    mesh = TriMesh(np.asarray(verts, dtype=float), np.array([cell]))
    return mesh, build_space(mesh, "edge", bc=None)


def _edge_dof(mesh, a, b):
    """Index of the edge between vertices a and b (oriented low -> high)."""
    return int(np.flatnonzero((mesh.edges == sorted((a, b))).all(axis=1))[0])


def _tables_at(space, bary):
    """The runtime edge tables evaluated at barycentric points of the cell."""
    bary = np.asarray(bary, dtype=float)
    return CellTables(space, QuadratureRule(bary, np.ones(len(bary))))


def _points_on_edges(pairs, npts):
    """Barycentric Gauss points along each local edge a -> b, and weights."""
    s, w = gauss1d(npts)
    bary = np.zeros((len(pairs), npts, 3))
    for k, (a, b) in enumerate(pairs):
        bary[k, :, a] = 1.0 - s
        bary[k, :, b] = s
    return bary.reshape(-1, 3), w


def _rule(degree):
    """The centroid rule for degree 1, the runtime rule up to degree 4 and
    the collapsed rule above it."""
    if degree <= 1:
        return CENTROID
    if degree <= 4:
        return SIX_POINT_RULE
    return collapsed_rule(degree)


@pytest.mark.parametrize("degree", [1, 2, 4, 6, 8])
def test_quadrature_integrates_monomials_exactly(degree):
    rule = _rule(degree)
    x, y = rule.points[:, 1], rule.points[:, 2]
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            exact = factorial(a) * factorial(b) / factorial(a + b + 2)
            got = float((rule.weights * x ** a * y ** b).sum())
            assert got == pytest.approx(exact, abs=1e-14)


def test_quadrature_weights_sum_to_reference_area():
    for degree in (1, 2, 4, 8):
        rule = _rule(degree)
        assert rule.weights.sum() == pytest.approx(0.5, abs=1e-14)
        assert np.all(rule.weights > 0)


def test_runtime_rule_is_six_point():
    # the one rule the runtime carries, frozen because every level's
    # tables share it
    rule = SIX_POINT_RULE
    assert rule.points.shape == (6, 3) and rule.weights.shape == (6,)
    assert np.allclose(rule.points.sum(axis=1), 1.0, rtol=0, atol=1e-15)
    assert not rule.points.flags.writeable
    assert not rule.weights.flags.writeable


def test_p1_mass_reference_symbolic_value():
    expected = np.array([[2, 1, 1], [1, 2, 1], [1, 1, 2]], dtype=float) / 24.0
    got = p1_mass_reference()
    assert np.abs(got - expected).max() <= 1e-14
    # row sums are the integrals of the barycentric coordinates
    assert np.allclose(got.sum(axis=1), 1 / 6, atol=1e-15)
    assert np.array_equal(got, got.T)


def test_p1_stiffness_reference_symbolic_value():
    expected = 0.5 * np.array([[2, -1, -1], [-1, 1, 0], [-1, 0, 1]], dtype=float)
    got = p1_stiffness(REF)
    assert np.abs(got - expected).max() <= 1e-14
    assert np.allclose(got.sum(axis=1), 0.0, atol=1e-14)


@settings(max_examples=30, deadline=None)
@given(
    pts=st.lists(st.floats(-2, 2), min_size=6, max_size=6),
    scale=st.floats(0.05, 20.0),
)
def test_p1_stiffness_scale_invariant(pts, scale):
    tri = np.array(pts).reshape(3, 2)
    d1, d2 = tri[1] - tri[0], tri[2] - tri[0]
    area = 0.5 * (d1[0] * d2[1] - d1[1] * d2[0])
    if area < 1e-3:
        return
    k1 = p1_stiffness(tri)
    k2 = p1_stiffness(scale * tri)
    assert np.abs(k1 - k2).max() <= 1e-10 * max(1.0, np.abs(k1).max())
    assert np.abs(k1.sum(axis=1)).max() <= 1e-10


def test_degenerate_cell_rejected():
    flat = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(ValueError, match="positive signed area"):
        p1_stiffness(flat)
    with pytest.raises(ValueError, match="positive signed area"):
        cell_geometry(np.array([[0, 0], [0, 1], [1, 0]], dtype=float))


def _one_cell_geometry(p):
    """Area and barycentric gradients of one (3, 2) triangle, written
    out per cell as the reference for the batched routine."""
    d1 = p[1] - p[0]
    d2 = p[2] - p[0]
    det = d1[0] * d2[1] - d1[1] * d2[0]
    grads = np.empty((3, 2))
    for k in range(3):
        e = p[(k + 2) % 3] - p[(k + 1) % 3]
        grads[k] = (-e[1], e[0])
    grads /= det
    return 0.5 * det, grads


@pytest.mark.parametrize("pattern", ["right", "crossed"])
def test_batched_geometry_matches_one_cell_formula_bitwise(pattern):
    mesh = structured_mesh((0, 0, 3, 3), 3, conductor=(1, 1, 2, 2),
                           pattern=pattern)
    pts = mesh.vertices[mesh.cells]                 # (nc, 3, 2)
    ref = [_one_cell_geometry(p) for p in pts]
    ref_area = np.array([a for a, _ in ref])
    ref_grads = np.array([g for _, g in ref])
    assert mesh.cell_areas.tobytes() == ref_area.tobytes()
    assert mesh.cell_grads.tobytes() == ref_grads.tobytes()
    for batch, area_ref, grads_ref in (
            (pts[5], ref_area[5], ref_grads[5]),
            (pts, ref_area, ref_grads),
            (pts.reshape(2, -1, 3, 2), ref_area.reshape(2, -1),
             ref_grads.reshape(2, -1, 3, 2))):
        area, grads = cell_geometry(batch)
        assert area.shape == area_ref.shape
        assert grads.shape == grads_ref.shape
        assert area.tobytes() == area_ref.tobytes()
        assert grads.tobytes() == grads_ref.tobytes()


def test_clockwise_cell_rejected_in_batch_and_mesh():
    pts = np.tile(REF, (4, 1, 1))
    pts[2] = REF[[0, 2, 1]]
    with pytest.raises(ValueError, match="positive signed area"):
        cell_geometry(pts)
    with pytest.raises(ValueError, match="positive signed area"):
        TriMesh(REF, np.array([[0, 2, 1]]))


def test_edge_curl_magnitude_is_inverse_area():
    for scale in (1.0, 3.0):
        _, space = _edge_space(scale * REF)
        curls = CellTables.of(space).der.toarray()   # (points, DOFs)
        assert np.allclose(np.abs(curls), 1.0 / (0.5 * scale ** 2),
                           rtol=0, atol=1e-14)


def test_edge_curl_orientation_flip():
    # the same triangle with vertices 0 and 1 relabelled: the edge
    # between (0,0) and (1,0) is oriented the other way
    m_fwd, fwd = _edge_space(REF)
    m_rev, rev = _edge_space(REF[[1, 0, 2]], cell=(1, 0, 2))
    i_fwd, i_rev = _edge_dof(m_fwd, 0, 1), _edge_dof(m_rev, 0, 1)
    assert np.array_equal(m_fwd.vertices[m_fwd.edges[i_fwd]],
                          m_rev.vertices[m_rev.edges[i_rev]][::-1])
    t_fwd, t_rev = CellTables.of(fwd), CellTables.of(rev)
    assert np.array_equal(t_fwd.qp, t_rev.qp)
    u_fwd, u_rev = np.eye(3)[i_fwd], np.eye(3)[i_rev]
    assert np.allclose(t_fwd.der @ u_fwd, -(t_rev.der @ u_rev),
                       rtol=1e-15, atol=0)
    assert np.allclose(t_fwd.val @ u_fwd, -(t_rev.val @ u_rev),
                       rtol=0, atol=1e-15)


def _gathered_edge_basis(mesh, bary):
    """The edge basis on every cell from the local positions of each
    edge's global (low, high) endpoints: the gather formula the tables
    once used."""
    _, g = cell_geometry(mesh.vertices[mesh.cells])
    ends = mesh.edges[mesh.cell_edges]                   # (nc, 3, 2)
    loc = (mesh.cells[:, None, None, :]
           == ends[..., None]).argmax(axis=3)            # (nc, 3, 2)
    la, lb = loc[:, :, 0], loc[:, :, 1]
    ga = np.take_along_axis(g, la[:, :, None], axis=1)
    gb = np.take_along_axis(g, lb[:, :, None], axis=1)
    lam = bary
    wvals = (np.einsum("qce,ced->cqed", lam[:, la], gb)
             - np.einsum("qce,ced->cqed", lam[:, lb], ga))
    wrot = 2.0 * (ga[:, :, 0] * gb[:, :, 1] - ga[:, :, 1] * gb[:, :, 0])
    return wvals, wrot


@pytest.mark.parametrize("pattern", ["right", "crossed"])
def test_edge_tables_match_gathered_basis_bitwise(pattern):
    mesh = structured_mesh((0, 0, 3, 3), 3, conductor=(1, 1, 2, 2),
                           pattern=pattern)
    for m in (mesh, uniform_refine(mesh)):
        assert np.any(m.cell_edge_sign < 0)
        space = build_space(m, "edge")
        for rule in (CENTROID, SIX_POINT_RULE):
            tab = CellTables(space, rule)
            wvals, wrot = _gathered_edge_basis(m, rule.points)
            assert tab.wvals.tobytes() == wvals.tobytes()
            assert tab.wrot.tobytes() == wrot.tobytes()


def test_whitney_stokes_line_integral_identity():
    # sum of the three boundary-oriented edge functions: circulation on
    # the boundary equals area times curl
    tri = np.array([[0.2, 0.1], [1.3, 0.4], [0.5, 1.6]])
    area, _ = cell_geometry(tri)
    mesh, space = _edge_space(tri)
    pairs = ((0, 1), (1, 2), (2, 0))
    u = np.zeros(3)
    for a, b in pairs:
        u[_edge_dof(mesh, a, b)] = 1.0 if a < b else -1.0
    bary, w = _points_on_edges(pairs, 4)
    tab = _tables_at(space, bary)
    vals = (tab.val @ u).reshape(len(pairs), -1, 2)
    circulation = sum(w @ (vals[k] @ (tri[b] - tri[a]))
                      for k, (a, b) in enumerate(pairs))
    curl = tab.der @ u
    assert np.ptp(curl) <= 1e-12 * abs(curl[0])
    assert circulation == pytest.approx(area * curl[0], rel=1e-12)
    assert curl[0] == pytest.approx(3.0 / area, rel=1e-12)


def test_edge_tangential_trace_kronecker():
    tri = np.array([[0.0, 0.3], [1.1, 0.0], [0.4, 1.2]])
    mesh, space = _edge_space(tri)
    bary, w = _points_on_edges([tuple(e) for e in mesh.edges], 3)
    vals = _tables_at(space, bary).val.toarray().reshape(3, -1, 2, 3)
    tangents = tri[mesh.edges[:, 1]] - tri[mesh.edges[:, 0]]
    # trace[j, i]: moment of basis function i along edge j
    trace = np.einsum("q,jqdi,jd->ji", w, vals, tangents)
    assert np.allclose(trace, np.eye(3), rtol=0, atol=1e-13)


def test_bubble_vanishes_on_boundary():
    rng = np.random.default_rng(7)
    for _ in range(50):
        edge = rng.integers(3)
        t = rng.uniform()
        lam = np.zeros(3)
        lam[edge] = 0.0
        others = [k for k in range(3) if k != edge]
        lam[others[0]], lam[others[1]] = t, 1.0 - t
        assert bubble_values(lam[None, :])[0] == pytest.approx(0.0, abs=1e-15)
    center = np.array([[1 / 3, 1 / 3, 1 / 3]])
    assert bubble_values(center)[0] == pytest.approx(1.0, rel=1e-15)


def test_p1_partition_of_unity():
    mesh = structured_mesh((0, 0, 1, 1), 2)
    tab = CellTables.of(build_space(mesh, "p1", bc=None))
    vals = tab.val @ np.ones(mesh.num_vertices)
    assert np.allclose(vals, 1.0, rtol=0, atol=1e-15)


def test_whitney_values_reference_edge():
    # w_01 on the reference triangle is (1 - y, x)
    mesh, space = _edge_space(REF)
    pts = np.array([[0.2, 0.3, 0.5], [0.6, 0.1, 0.3]])
    vals = (_tables_at(space, pts).val
            @ np.eye(3)[_edge_dof(mesh, 0, 1)]).reshape(-1, 2)
    x, y = pts[:, 1], pts[:, 2]
    assert np.allclose(vals[:, 0], 1.0 - y, atol=1e-14)
    assert np.allclose(vals[:, 1], x, atol=1e-14)
