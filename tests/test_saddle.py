import dataclasses
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from mixpar import runner, saddle
from mixpar.config import load_config, parse_config
from mixpar.runner import run_experiment
from mixpar.saddle import (SPLU_OPTIONS, SaddleSolver, SingularSystem,
                           _block_matrix, dissection_order,
                           estimate_coercivity, estimate_garding,
                           estimate_infsup, kernel_basis)
from conftest import build_eddy, build_stokes
from meshes import interface_pieces

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
BUILD = {"stokes": build_stokes, "eddy": build_eddy}


def test_two_by_two_by_hand(eddy3):
    # eddy n=3 has one multiplier: A = 2 I and B = e_0ᵀ decouple every
    # unknown but u_0 and lam, which solve [[2, 1], [1, 0]] (u_0, lam) = (1, 0)
    _, _, _, ops = eddy3
    n = ops.B.shape[1]
    B = sp.csr_matrix(np.eye(1, n))
    solver = SaddleSolver(2.0 * sp.identity(n, format="csr"),
                          dataclasses.replace(ops, B=B))
    u, lam, info = solver.solve(np.eye(n)[0], np.array([0.0]))
    assert np.abs(u).max() == pytest.approx(0.0, abs=1e-14)
    assert lam[0] == pytest.approx(1.0, rel=1e-14)
    assert info.block_residual <= 1e-10


def test_constructed_solution_identity_block(eddy3, stokes2):
    # on an eddy level and a Stokes one, whose 16 bubbles the identity
    # block leaves diagonal; without a gauge row, as B^T 1 = 0 does not
    # hold for a random B
    for _, _, _, ops in (eddy3, stokes2):
        rng = np.random.default_rng(11)
        m, n = ops.B.shape
        B = sp.csr_matrix(rng.standard_normal((m, n)))
        w = rng.standard_normal(n)
        solver = SaddleSolver(sp.identity(n, format="csr"),
                              dataclasses.replace(ops, B=B, mean_row=None))
        u, lam, _ = solver.solve(w + B.T @ np.ones(m), B @ w)
        assert np.abs(u - w).max() <= 1e-11
        assert np.abs(lam - 1.0).max() <= 1e-11


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_random_spd_matches_dense_lu_oracle(eddy6, seed):
    # eddy n=6 has 96 primal unknowns, 17 multipliers and no bubbles
    _, _, _, ops = eddy6
    rng = np.random.default_rng(seed)
    m, n = ops.B.shape
    Ad = rng.standard_normal((n, n))
    Ad = Ad @ Ad.T + n * np.eye(n)
    Bd = rng.standard_normal((m, n))
    F = rng.standard_normal(n)
    G = rng.standard_normal(m)
    solver = SaddleSolver(sp.csr_matrix(Ad),
                          dataclasses.replace(ops, B=sp.csr_matrix(Bd)))
    u, lam, _ = solver.solve(F, G)
    K = np.block([[Ad, Bd.T], [Bd, np.zeros((m, m))]])
    z = np.linalg.solve(K, np.concatenate([F, G]))
    scale = max(1.0, np.abs(z).max())
    assert np.abs(np.concatenate([u, lam]) - z).max() <= 1e-11 * scale


def test_singular_system_detected(eddy6):
    # duplicated constraint rows make the block matrix singular
    _, _, _, ops = eddy6
    m, n = ops.B.shape
    B = np.eye(m, n)
    B[1] = B[0]
    with pytest.raises(SingularSystem):
        SaddleSolver(sp.identity(n, format="csr"),
                     dataclasses.replace(ops, B=sp.csr_matrix(B))).solve(
            np.ones(n), np.zeros(m))


def test_non_positive_diagonal_rejected_before_factoring(eddy3):
    _, _, _, ops = eddy3
    n = ops.B.shape[1]
    toy = dataclasses.replace(ops, B=sp.csr_matrix(np.eye(1, n)
                                                   + np.eye(1, n, 1)))
    for bad in (0.0, -1.0, np.nan):
        diag = np.ones(n)
        diag[1] = bad
        with pytest.raises(SingularSystem, match="non-positive diagonal"):
            SaddleSolver(sp.diags(diag, format="csr"), toy)
    # dt * A underflowing to 0 leaves the eddy step matrix R, which is
    # zero on every insulator edge
    assert np.any(ops.R.diagonal() == 0)
    with pytest.raises(SingularSystem, match="non-positive diagonal"):
        SaddleSolver(ops.R + 1e-300 * (ops.A / 1e300), ops)


@pytest.mark.parametrize("level", ["eddy3", "stokes2"])
def test_block_of_the_wrong_size_rejected(request, level):
    _, _, _, ops = request.getfixturevalue(level)
    n = ops.B.shape[1]
    for size in (n - 1, n + 1):
        with pytest.raises(ValueError, match="B column count"):
            SaddleSolver(sp.identity(size, format="csr"), ops)


@pytest.mark.parametrize("level", ["eddy3", "stokes2"])
def test_non_finite_right_hand_side_is_a_solver_failure(request, level):
    _, _, _, ops = request.getfixturevalue(level)
    F = np.ones(ops.B.shape[1])
    F[0] = np.inf
    solver = SaddleSolver(ops.R + 0.1 * ops.A, ops)
    with pytest.raises(SingularSystem, match="non-finite"):
        solver.solve(F, np.zeros(ops.B.shape[0]))


def test_solve_deterministic(eddy3):
    _, _, _, ops = eddy3
    rng = np.random.default_rng(0)
    F = rng.standard_normal(ops.A.shape[0])
    G = rng.standard_normal(ops.B.shape[0])
    u1, l1, _ = SaddleSolver(ops.R + 0.1 * ops.A, ops).solve(F, G)
    u2, l2, _ = SaddleSolver(ops.R + 0.1 * ops.A, ops).solve(F.copy(),
                                                             G.copy())
    assert np.array_equal(u1, u2)
    assert np.array_equal(l1, l2)


def test_bordered_mean_row_pins_pressure(stokes2):
    _, _, _, ops = stokes2
    rng = np.random.default_rng(4)
    F = rng.standard_normal(ops.A.shape[0])
    solver = SaddleSolver(ops.R + 0.25 * ops.A, ops)
    u, lam, info = solver.solve(F, np.zeros(ops.B.shape[0]))
    assert abs(ops.mean_row @ lam) <= 1e-12 * max(1.0, np.abs(lam).max())
    assert info.constraint_residual <= 1e-10


def _dense_gauged_solve(A_dt, B, mean_row, F, G):
    """(u, lam) of the bordered system [[A_dt, B^T, 0], [B, 0, m],
    [0, m^T, 0]], m = mean_row, solved densely: it fixes the gauge
    mean_row @ lam = 0 with one dense row and column."""
    n, m = B.shape[1], B.shape[0]
    Bd = B.toarray()
    mc = mean_row[:, None]
    K = np.block([
        [A_dt.toarray(), Bd.T, np.zeros((n, 1))],
        [Bd, np.zeros((m, m)), mc],
        [np.zeros((1, n)), mc.T, np.zeros((1, 1))],
    ])
    z = np.linalg.solve(K, np.concatenate([F, G, [0.0]]))
    return z[:n], z[n:n + m]


def test_pinned_gauge_matches_dense_bordered_solve():
    _, _, _, ops = build_stokes(4)
    A_dt = ops.R + 0.25 * ops.A
    n, m = ops.B.shape[1], ops.B.shape[0]
    rng = np.random.default_rng(8)
    F = rng.standard_normal(n)
    u, lam, _ = SaddleSolver(A_dt, ops).solve(F, np.zeros(m))
    u_ref, lam_ref = _dense_gauged_solve(A_dt, ops.B, ops.mean_row, F,
                                         np.zeros(m))
    assert np.abs(u - u_ref).max() <= 1e-11 * np.abs(u_ref).max()
    assert np.abs(lam - lam_ref).max() <= 1e-11 * np.abs(lam_ref).max()


def test_pinned_gauge_rejects_incompatible_constraint_data(stokes2):
    # B^T 1 = 0, so B u = G needs 1^T G = 0; the dropped row must not hide it
    _, _, _, ops = stokes2
    m = ops.B.shape[0]
    G = np.zeros(m)
    G[0] = 1.0
    solver = SaddleSolver(ops.R + 0.25 * ops.A, ops)
    with pytest.raises(SingularSystem, match="^residual "):
        solver.solve(np.zeros(ops.B.shape[1]), G)


def test_residual_guard_is_relative_to_the_right_hand_side(stokes2):
    # scaling (F, G) scales the solution and its residual alike, so the
    # relative residual stays: bitwise for a power of two, to round-off
    # otherwise; a zero right-hand side has the zero solution, exactly
    _, _, _, ops = stokes2
    rng = np.random.default_rng(5)
    solver = SaddleSolver(ops.R + 0.25 * ops.A, ops)
    F = rng.standard_normal(ops.B.shape[1])
    G = ops.B @ rng.standard_normal(ops.B.shape[1])
    assert np.hypot(np.linalg.norm(F), np.linalg.norm(G)) > 1.0
    rel = solver.solve(F, G)[2].block_residual
    assert 0.0 < rel <= 1e-14
    assert solver.solve(2.0**-10 * F, 2.0**-10 * G)[2].block_residual == rel
    scaled = solver.solve(1e-3 * F, 1e-3 * G)[2].block_residual
    assert rel / 2 <= scaled <= 2 * rel
    u, lam, info = solver.solve(0.0 * F, 0.0 * G)
    assert not u.any() and not lam.any() and info.block_residual == 0.0


def test_symmetric_ordering_cuts_stokes_fill():
    # SuperLU's default (COLAMD with partial pivoting) on the whole block
    # matrix, and full partial pivoting on top of the symmetric ordering
    # of the factored Schur complement, would each fill at least twice as
    # much here
    _, _, _, ops = build_stokes(32)
    A_dt = (ops.R + ops.A / 64).tocsr()
    solver = SaddleSolver(A_dt, ops)
    B1 = sp.csr_matrix(ops.B)[1:]
    default = spla.splu(sp.bmat([[A_dt, B1.T], [B1, None]], format="csc"))
    assert solver.lu.shape[0] == default.shape[0] - ops.primal.num_bubbles
    assert 0 < solver.fill <= 0.5 * default.nnz
    S = _block_matrix(A_dt, B1, solver.D, solver.order)[0]
    pivoted = spla.splu(S, **dict(SPLU_OPTIONS, diag_pivot_thresh=1.0))
    assert solver.fill <= 0.5 * pivoted.nnz


def test_relaxed_pivoting_keeps_eddy_solves_accurate():
    # without row exchanges (diag_pivot_thresh=0) this residual is about
    # 1e-2 in the dissection order, 0.3 in minimum degree and 5 in K's own
    _, _, _, ops = build_eddy(24)
    rng = np.random.default_rng(24)
    F = rng.standard_normal(ops.A.shape[0])
    solver = SaddleSolver(ops.R + (0.75 / 40) * ops.A, ops)
    _, _, info = solver.solve(F, np.zeros(ops.B.shape[0]))
    assert info.block_residual <= 1e-12


# -- the nested-dissection order of the factored matrix ----------------------

def _factored(ops, A_dt):
    """The bubble-free Schur complement SaddleSolver factors for the (1,1)
    block A_dt, in CSR and in its own numbering (the natural order)."""
    solver = SaddleSolver(A_dt, ops)
    S = _block_matrix(solver.A, solver.B[solver.dropped:], solver.D,
                      np.arange(solver.lu.shape[0]))[0]
    return S.tocsr()


def _unknowns(mesh, V, Q):
    """Vertex, component (0 u_x, 1 u_y, 2 p) and x coordinate of each
    unknown of the factored matrix: the bubbles eliminated and the gauge
    row dropped."""
    dof = V.free[:V.num_free - V.num_bubbles]
    vertex = np.concatenate([dof // 2, Q.dof_vertex[1:]])
    comp = np.concatenate([dof % 2, np.full(Q.num_free - 1, 2)])
    return vertex, comp, mesh.vertices[vertex, 0]


@pytest.mark.parametrize("pattern", ["right", "crossed"])
def test_dissection_order_groups_each_vertex_after_the_bubbles(pattern):
    # the bubbles are eliminated before factoring, so the order has none;
    # each vertex's free unknowns come in one run, velocity first
    mesh, V, Q, ops = build_stokes(6, pattern=pattern)
    order = dissection_order(ops)
    vertex, comp, _ = _unknowns(mesh, V, Q)
    assert len(vertex) == V.num_free - 2 * mesh.num_cells + Q.num_free - 1
    assert np.array_equal(np.sort(order), np.arange(len(vertex)))
    runs = np.split(order, np.flatnonzero(np.diff(vertex[order])) + 1)
    assert len(runs) == len(np.unique(vertex))
    outer = set(mesh.outer_vertices.tolist())
    for run in runs:
        free = [2] if vertex[run[0]] in outer else [0, 1, 2]
        assert comp[run].tolist() == free


@pytest.mark.parametrize("pattern", ["right", "crossed"])
def test_dissection_top_separator_splits_the_matrix(pattern):
    # the order ends with the vertices on x = 1/2, after the left half's
    # vertices and then the right half's; the unknowns on either side
    # share no entry of the factored matrix, whose bubble terms stay
    # within a cell
    mesh, V, Q, ops = build_stokes(8, pattern=pattern)
    order = dissection_order(ops)
    _, _, x = _unknowns(mesh, V, Q)
    on = np.isclose(x, 0.5)
    left = np.flatnonzero(~on & (x < 0.5))
    right = np.flatnonzero(~on & (x > 0.5))
    assert np.all(on[order[-np.count_nonzero(on):]])
    rank = np.argsort(order)
    assert rank[left].max() < rank[right].min()
    S = _factored(ops, (ops.R + ops.A / 16).tocsr())
    assert S[left][:, right].nnz == 0


def _lattice_x(ops):
    """x coordinate of each unknown of the factored matrix, the bubbles
    eliminated and the gauge row dropped: its vertex's or its edge's
    midpoint's; NaN for an interface constant."""
    V, Q = ops.primal, ops.multiplier
    mesh = V.mesh
    vx = mesh.vertices[:, 0]
    primal = (vx[mesh.edges].mean(axis=1) if V.kind == "edge"
              else np.repeat(vx, 2))
    multiplier = vx[Q.dof_vertex]
    multiplier[[Q.vertex_dof[grp[0]] for grp in interface_pieces(Q)]] = np.nan
    dropped = int(ops.mean_row is not None)
    return np.concatenate([primal[V.free[:V.num_free - V.num_bubbles]],
                           multiplier[Q.free][dropped:]])


@pytest.mark.parametrize("pattern", ["right", "crossed"])
@pytest.mark.parametrize("build, n", [
    (build_stokes, 12), (build_stokes, 16), (build_eddy, 6), (build_eddy, 12),
])
def test_dissection_order_separates_the_first_bisection(build, n, pattern):
    # the first cut is the vertical grid line after n // 2 squares; the
    # unknowns strictly on either side share no entry of the factored
    # matrix and come one side after the other, then the line's, with
    # the eddy interface constants last
    mesh, V, Q, ops = build(n, pattern=pattern)
    order = dissection_order(ops)
    x = _lattice_x(ops)
    assert np.array_equal(np.sort(order), np.arange(len(x)))
    interface = np.isnan(x)
    ni = np.count_nonzero(interface)
    assert ni == len(interface_pieces(Q))
    assert np.all(interface[order[len(x) - ni:]])
    x0, x1 = mesh.vertices[:, 0].min(), mesh.vertices[:, 0].max()
    cut = x0 + (x1 - x0) * (n // 2) / n
    with np.errstate(invalid="ignore"):
        on = np.isclose(x, cut)
        lower = np.flatnonzero(~on & (x < cut))
        upper = np.flatnonzero(~on & (x > cut))
    S = _factored(ops, (ops.R + ops.A / n).tocsr())
    assert len(lower) and len(upper) and np.any(on)
    assert S[lower][:, upper].nnz == 0
    rank = np.argsort(order)
    assert rank[lower].max() < rank[upper].min()
    assert rank[upper].max() < rank[on].min()


# the step matrix of configs/stokes.cfg at n (dt = 1/(2n)), its cell
# bubbles eliminated; the whole block matrix fills 345,656, 1,860,840 and
# 2,664,877 entries in the same order, and 437,234, 2,579,410 and
# 3,207,495 in minimum degree
@pytest.mark.parametrize("n, pattern, fill", [
    (32, "right", 297_750),
    (64, "right", 1_667_014),
    (64, "crossed", 2_242_872),
])
def test_dissection_fill_pinned(n, pattern, fill):
    _, _, _, ops = build_stokes(n, pattern=pattern)
    A_dt = (ops.R + (0.5 / n) * ops.A).tocsr()
    assert SaddleSolver(A_dt, ops).fill == fill


def test_stokes_fill_independent_of_nu_and_dt():
    # the symmetric Jacobi equilibration keeps the diagonal pivots of the
    # dissection order; unscaled, nu = 100 (every dt) and nu = 1 at dt =
    # 0.5 filled 106,992 to 113,258 against 48,454
    fills = {}
    for nu in (0.01, 1.0, 100.0):
        _, _, _, ops = build_stokes(16, nu=nu)
        for dt in (1e-3, 1 / 32, 0.5):
            fills[nu, dt] = SaddleSolver(ops.R + dt * ops.A, ops).fill
    assert max(fills.values()) <= 1.01 * fills[1.0, 1 / 32], fills


def _minimum_degree_solve(A_dt, ops, F, G):
    """(u, lam) of the gauged Stokes system through SuperLU's minimum-degree
    order of the Schur complement SaddleSolver factors, built by
    `_block_matrix` in its own numbering, with the same elimination."""
    kept = A_dt.shape[0] - ops.primal.num_bubbles
    D = A_dt.diagonal()[kept:]
    B1 = sp.csr_matrix(ops.B)[1:]
    S, C, CT = _block_matrix(A_dt, B1, D, np.arange(kept + B1.shape[0]))
    lu = spla.splu(S, **dict(SPLU_OPTIONS, permc_spec="MMD_AT_PLUS_A"))
    z = lu.solve(np.concatenate([F[:kept], G[1:]]) - C @ (F[kept:] / D))
    u = np.concatenate([z[:kept], (F[kept:] - CT @ z) / D])
    lam = np.concatenate([[0.0], z[kept:]])
    return u, lam - (ops.mean_row @ lam) / ops.mean_row.sum()


@pytest.mark.parametrize("pattern", ["right", "crossed"])
def test_dissection_solve_matches_minimum_degree_and_dense(pattern):
    _, _, _, ops = build_stokes(6, pattern=pattern)
    A_dt = (ops.R + ops.A / 12).tocsr()
    n, m = ops.B.shape[1], ops.B.shape[0]
    rng = np.random.default_rng(6)
    F = rng.standard_normal(n)
    G = rng.standard_normal(m)
    G -= G.mean()          # 1^T G = 0, as B^T 1 = 0
    u, lam, info = SaddleSolver(A_dt, ops).solve(F, G)
    minimum_degree = _minimum_degree_solve(A_dt, ops, F, G)
    dense = _dense_gauged_solve(A_dt, ops.B, ops.mean_row, F, G)
    for ref_u, ref_lam in (minimum_degree, dense):
        assert np.abs(u - ref_u).max() <= 1e-12 * np.abs(ref_u).max()
        assert np.abs(lam - ref_lam).max() <= 1e-12 * np.abs(ref_lam).max()
    assert info.block_residual <= 1e-12


@pytest.mark.parametrize("pattern", ["right", "crossed"])
@pytest.mark.parametrize("n", [2, 5])
def test_bubble_elimination_matches_dense_oracle(n, pattern):
    # the bubbles eliminated by their diagonal against the dense gauged
    # solve, with 1^T G = 0 and G != 0
    _, V, _, ops = build_stokes(n, pattern=pattern)
    A_dt = (ops.R + ops.A / (2 * n)).tocsr()
    rng = np.random.default_rng(n)
    F = rng.standard_normal(ops.B.shape[1])
    G = rng.standard_normal(ops.B.shape[0])
    G -= G.mean()
    u_ref, lam_ref = _dense_gauged_solve(A_dt, ops.B, ops.mean_row, F, G)
    solver = SaddleSolver(A_dt, ops)
    assert solver.lu.shape[0] == (ops.B.shape[1] - V.num_bubbles
                                  + ops.B.shape[0] - 1)
    u, lam, info = solver.solve(F, G)
    assert np.abs(u - u_ref).max() <= 1e-12 * np.abs(u_ref).max()
    assert np.abs(lam - lam_ref).max() <= 1e-12 * np.abs(lam_ref).max()
    assert info.block_residual <= 1e-13


def test_eliminated_block_must_be_diagonal_and_positive():
    _, _, _, ops = build_stokes(3)
    A_dt = (ops.R + ops.A / 6).tolil()
    n = A_dt.shape[0]
    coupled = A_dt.copy()
    coupled[n - 1, n - 2] = coupled[n - 2, n - 1] = 1e-3
    with pytest.raises(SingularSystem, match="not diagonal"):
        SaddleSolver(coupled.tocsr(), ops)
    for bad in (0.0, -1.0):
        negative = A_dt.copy()
        negative[n - 1, n - 1] = bad
        with pytest.raises(SingularSystem, match="non-positive diagonal"):
            SaddleSolver(negative.tocsr(), ops)


# the step matrix R + dt A of Stokes levels far outside the shipped
# configs (dt = 1/(2n), nu = 1), each with its bubbles eliminated
@pytest.mark.parametrize("pattern", ["right", "crossed"])
@pytest.mark.parametrize("nu", [0.01, 1.0, 100.0])
@pytest.mark.parametrize("n", [4, 16])
def test_bubble_elimination_residual_across_nu_and_dt(n, nu, pattern):
    _, _, _, ops = build_stokes(n, nu=nu, pattern=pattern)
    rng = np.random.default_rng(16)
    F = rng.standard_normal(ops.B.shape[1])
    G = rng.standard_normal(ops.B.shape[0])
    G -= G.mean()
    for dt in (1e-4, 1 / 64, 0.5, 5.0):
        solver = SaddleSolver(ops.R + dt * ops.A, ops)
        assert solver.solve(F, G)[2].block_residual <= saddle.RESIDUAL_TOL


def _bmat_block(A_dt, B1, nb, order):
    """The Schur complement of the last nb primal unknowns through slices,
    scipy's bmat and a sparse difference, then permuted through a COO
    copy: the reference for `_block_matrix`."""
    kept = A_dt.shape[0] - nb
    D = A_dt.diagonal()[kept:]
    C = sp.vstack([A_dt[:kept, kept:], B1[:, kept:]], format="csr")
    scaled = sp.csr_matrix((C.data / D[C.indices], C.indices, C.indptr),
                           shape=C.shape)
    K = sp.bmat([[A_dt[:kept, :kept], B1[:, :kept].T], [B1[:, :kept], None]],
                format="csr") - scaled @ C.T.tocsr()
    rank = np.empty(len(order), dtype=np.intp)
    rank[order] = np.arange(len(order))
    K = K.tocoo()
    return sp.csc_matrix((K.data, (rank[K.row], rank[K.col])),
                         shape=K.shape)


# a Stokes level and an eddy level: the whole block matrix, nothing
# eliminated, in a shuffled order, and the Schur complement the solver
# factors, the bubbles eliminated, in the level's dissection order
@pytest.mark.parametrize("build, n", [(build_stokes, 16), (build_eddy, 12)])
def test_one_pass_block_matrix_matches_bmat(build, n):
    _, _, _, ops = build(n)
    A_dt = (ops.R + (0.5 / n) * ops.A).tocsr()
    solver = SaddleSolver(A_dt, ops)
    B1 = solver.B[solver.dropped:]
    order = np.random.default_rng(n).permutation(sum(B1.shape))
    want = _bmat_block(A_dt, B1, 0, order)
    tracemalloc.start()
    try:
        got = _block_matrix(A_dt, B1, np.empty(0), order)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # int32 triplets (16 bytes an entry) and the CSC copy (12) at most;
    # the bmat route takes about 34 (eddy) and 54 (Stokes)
    assert peak <= 32 * got.nnz
    for got, want in ((got, want), (
            _block_matrix(A_dt, B1, solver.D, solver.order)[0],
            _bmat_block(A_dt, B1, ops.primal.num_bubbles, solver.order))):
        assert got.indices.dtype == got.indptr.dtype == np.int32
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, name),
                                  getattr(want, name)), name
    # the solver factors E S E with E = |diag S|^-1/2, the Stokes S having
    # no zero on its diagonal, and S itself for eddy
    magnitude = np.abs(want.diagonal())
    if np.all(magnitude > 0):
        E = sp.diags(1.0 / np.sqrt(magnitude))
        want = (E @ want @ E).tocsc()
    assert (build is build_stokes) == np.all(magnitude > 0)
    lu = spla.splu(want, **SPLU_OPTIONS)
    assert solver.fill == lu.nnz
    rhs = np.random.default_rng(8).standard_normal(want.shape[0])
    assert solver.lu.solve(rhs).tobytes() == lu.solve(rhs).tobytes()


PROBED_LEVELS = pytest.mark.parametrize("config", [
    "case = stokes\nn = 2\nlevels = 1\nsteps = 2\n",
    "case = eddy2d\nn = 3\nlevels = 1\nsteps = 2\npattern = crossed\n",
], ids=["stokes", "eddy2d-crossed"])


def _run_probed_level(config):
    cfg = parse_config(config)
    assert runner.run_level(cfg, 0).probed
    return cfg


@PROBED_LEVELS
def test_every_runtime_factorization_uses_the_dissection_order(monkeypatch,
                                                               config):
    # a probed level factors three times: the step matrix, the inf-sup
    # probe's X and the coercivity probe's shifted matrix; each factors
    # the level's order, without the space's cell bubbles (Stokes; eddy
    # has none) and the gauge row (Stokes), and leaves the level's
    # operators as assembled
    solvers, levels = [], []
    init = SaddleSolver.__init__

    def recorded(self, A, ops):
        init(self, A, ops)
        solvers.append(self)
        levels.append(ops)
    monkeypatch.setattr(SaddleSolver, "__init__", recorded)
    cfg = _run_probed_level(config)
    ops = runner._build_instance(cfg, 0)[2]
    want = dissection_order(ops)
    (m, n), nb = ops.B.shape, ops.primal.num_bubbles
    dropped = 1 if cfg.case == "stokes" else 0
    assert nb == (2 * ops.primal.mesh.num_cells if cfg.case == "stokes"
                  else 0)
    assert len(solvers) == 3
    for solver in solvers:
        assert np.array_equal(solver.order, want)
        assert solver.lu.shape[0] == n - nb + m - dropped
    fields = {f.name for f in dataclasses.fields(ops)}
    assert all(vars(level).keys() == fields for level in levels)


def _toy_probe_level(eddy6, X, B, M):
    """eddy n=6 (96 primal unknowns, 17 multipliers, no bubbles or gauge)
    with the probe's inner products X and M and the constraint B."""
    _, _, _, ops = eddy6
    return dataclasses.replace(ops, X=sp.csr_matrix(X), B=sp.csr_matrix(B),
                               M=sp.csr_matrix(M))


def test_infsup_trivial_cases(eddy6):
    m, n = eddy6[3].B.shape
    In, Im = np.eye(n), np.eye(m)
    assert estimate_infsup(_toy_probe_level(eddy6, In, np.zeros((m, n)),
                                            Im)) == 0.0
    # B X^-1 B^T = M = I
    level = _toy_probe_level(eddy6, In, np.eye(m, n), Im)
    assert estimate_infsup(level) == pytest.approx(1.0, rel=1e-12)


def test_infsup_overflow_is_a_solver_failure(eddy6):
    # B X^-1 B^T = 1e900 overflows to inf
    m, n = eddy6[3].B.shape
    level = _toy_probe_level(eddy6, 1e-300 * np.eye(n), 1e300 * np.eye(m, n),
                             np.eye(m))
    with np.errstate(all="ignore"), pytest.raises(SingularSystem,
                                                  match="not finite"):
        estimate_infsup(level)


# the inf-sup probe's solves go through the residual guard: eddy n=3 has
# one multiplier (a single solve), the others run Lanczos
@pytest.mark.parametrize("case, n", [("stokes", 4), ("eddy", 3), ("eddy", 6)])
def test_infsup_solves_pass_the_residual_guard(monkeypatch, case, n):
    ops = BUILD[case](n)[3]
    monkeypatch.setattr(saddle, "RESIDUAL_TOL", 0.0)
    with pytest.raises(SingularSystem, match="^inf-sup probe: residual "):
        estimate_infsup(ops)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 1000))
def test_infsup_invariant_under_matched_row_scaling(eddy6, seed):
    rng = np.random.default_rng(seed)
    m, n = eddy6[3].B.shape
    Xd = rng.standard_normal((n, n))
    Xd = Xd @ Xd.T + n * np.eye(n)
    Bd = rng.standard_normal((m, n))
    Md = rng.standard_normal((m, m))
    Md = Md @ Md.T + m * np.eye(m)
    beta = estimate_infsup(_toy_probe_level(eddy6, Xd, Bd, Md))
    D = np.diag(rng.uniform(0.2, 5.0, size=m))
    beta_scaled = estimate_infsup(
        _toy_probe_level(eddy6, Xd, D @ Bd, D @ Md @ D))
    assert beta_scaled == pytest.approx(beta, rel=1e-9)


def test_infsup_mini_uniform_across_levels():
    betas = []
    for n in (2, 4, 8):
        _, _, _, ops = build_stokes(n)
        betas.append(estimate_infsup(ops))
    betas = np.array(betas)
    assert betas.min() > 1e-3
    assert (betas.max() - betas.min()) / betas.max() < 0.25


def test_garding_stokes_alpha_equals_nu():
    for nu in (1.0, 2.5):
        _, _, _, ops = build_stokes(4, nu=nu)
        Z = kernel_basis(ops.B)
        alpha = estimate_garding(ops.A, ops.R, ops.X, Z, xi=0.0)
        assert alpha == pytest.approx(nu, abs=1e-10)


def test_garding_negative_control_zero_mass():
    # with no conductor weighting the curl operator has gradient fields
    # in its kernel, so no xi can make it coercive
    _, E, _, ops = build_eddy(6)
    Z = kernel_basis(ops.B)
    Rzero = sp.csr_matrix(ops.R.shape)
    for xi in (0.0, 1.0, 10.0):
        alpha = estimate_garding(ops.A, Rzero, ops.X, Z, xi=xi)
        assert alpha <= 1e-10


def test_garding_eddy_uniform_across_levels():
    alphas = []
    for n in (3, 6):
        _, _, _, ops = build_eddy(n)
        alphas.append(
            estimate_garding(ops.A, ops.R, ops.X, kernel_basis(ops.B), xi=1.0)
        )
    alphas = np.array(alphas)
    assert alphas.min() > 1e-3
    assert (alphas.max() - alphas.min()) / alphas.max() < 0.25


def test_empty_kernel_raises():
    I3 = sp.identity(3, format="csr")
    with pytest.raises(ValueError, match="discrete kernel is trivial"):
        estimate_garding(I3, I3, I3, np.zeros((3, 0)))


def test_dense_limit_guard():
    with pytest.raises(ValueError, match="4000 primal DOFs exceed 3000"):
        kernel_basis(sp.csr_matrix((1, 4000)))
    I3 = sp.identity(3, format="csr")
    with pytest.raises(ValueError, match="3001 primal DOFs exceed 3000"):
        estimate_garding(I3, I3, I3, np.zeros((3001, 1)))


def test_kernel_basis_without_constraints_is_the_identity():
    assert np.array_equal(kernel_basis(sp.csr_matrix((0, 4))), np.eye(4))


def test_kernel_basis_spans_constraint_kernel(eddy3):
    _, _, _, ops = eddy3
    Z = kernel_basis(ops.B)
    assert np.abs(ops.B @ Z).max() <= 1e-12
    # orthonormal columns
    assert np.abs(Z.T @ Z - np.eye(Z.shape[1])).max() <= 1e-12


def test_solution_map_is_self_adjoint(eddy3):
    # the block matrix is symmetric, so <z1, rhs2> == <z2, rhs1>
    _, _, _, ops = eddy3
    rng = np.random.default_rng(17)
    n, m = ops.B.shape[1], ops.B.shape[0]
    A_dt = ops.R + 0.2 * ops.A
    rhs = [(rng.standard_normal(n), rng.standard_normal(m)) for _ in range(2)]
    solver = SaddleSolver(A_dt, ops)
    sols = [solver.solve(F, G) for F, G in rhs]
    pair01 = sols[0][0] @ rhs[1][0] + sols[0][1] @ rhs[1][1]
    pair10 = sols[1][0] @ rhs[0][0] + sols[1][1] @ rhs[0][1]
    assert pair01 == pytest.approx(pair10, rel=1e-9)


def test_step_matrix_positive_on_discrete_kernel(eddy3):
    # R + dt A is coercive on the kernel even though R is degenerate
    _, _, _, ops = eddy3
    Z = kernel_basis(ops.B)
    for dt in (0.05, 0.2):
        A_dt = (ops.R + dt * ops.A).toarray()
        Ak = Z.T @ A_dt @ Z
        eigs = np.linalg.eigvalsh(0.5 * (Ak + Ak.T))
        assert eigs.min() > 0.0


# -- sparse probes against their dense oracles -------------------------------

def _dense_infsup(X, B, M, project_out=None):
    """beta_h with a dense X solve and an explicit null_space projection."""
    Xd, Bd, Md = X.toarray(), B.toarray(), M.toarray()
    S = Bd @ scipy.linalg.solve(Xd, Bd.T, assume_a="pos")
    S = 0.5 * (S + S.T)
    if project_out is not None:
        Z = scipy.linalg.null_space(np.atleast_2d(project_out))
        S = Z.T @ S @ Z
        Md = Z.T @ Md @ Z
    eigs = scipy.linalg.eigh(S, Md, eigvals_only=True)
    return float(np.sqrt(max(eigs[0], 0.0)))


# every probed level of configs/stokes.cfg (n = 4, 8, 16; n = 32 exceeds
# DENSE_LIMIT) and configs/eddy2d.json (n = 3, 6, 12, 24), then other
# coefficients on the crossed pattern, and that pattern's eddy level 2;
# both probes factor in the level's dissection order with the cell
# bubbles eliminated, as every saddle factorization does
@pytest.mark.parametrize("case, n, kw, xi", [
    *[("stokes", n, {}, 1.0) for n in (4, 8, 16)],
    *[("eddy", n, {}, 1.0) for n in (3, 6, 12, 24)],
    ("stokes", 8, dict(nu=2.5, pattern="crossed"), 1.0),
    ("eddy", 6, dict(sigma=2.5, eps=0.4, mu_mag=3.0, pattern="crossed"),
     0.3),
    ("eddy", 12, dict(pattern="crossed"), 1.0),
    # only bubbles are free
    ("stokes", 1, {}, 1e-3),
    # the ones vector is X-orthogonal to the bottom eigenvector here, so a
    # Lanczos start from it misses that eigenvalue and reads 0.95% high
    ("eddy", 6, dict(mu_mag=0.1, pattern="crossed"), 0.1),
])
def test_sparse_probes_match_dense_oracles(case, n, kw, xi):
    ops = BUILD[case](n, **kw)[3]
    beta = estimate_infsup(ops)
    beta_ref = _dense_infsup(ops.X, ops.B, ops.M, project_out=ops.mean_row)
    assert beta == pytest.approx(beta_ref, rel=1e-10)
    alpha = estimate_coercivity(ops, xi)
    alpha_ref = estimate_garding(ops.A, ops.R, ops.X, kernel_basis(ops.B),
                                 xi=xi)
    assert alpha == pytest.approx(alpha_ref, rel=1e-10)


def test_coercivity_at_xi_zero_is_the_shift():
    for nu in (1.0, 2.5):
        ops = build_stokes(4, nu=nu)[3]
        assert ops.shift == nu
        alpha = estimate_coercivity(ops, 0.0)
        assert alpha == nu
        # the limit xi -> 0 from above: nu + xi * min (R, X) on the kernel
        small = estimate_coercivity(ops, 1e-3)
        assert nu < small < nu + 1e-3
    ops = build_eddy(6)[3]
    assert ops.shift == 0.0
    alpha = estimate_coercivity(ops, 0.0)
    alpha_ref = estimate_garding(ops.A, ops.R, ops.X, kernel_basis(ops.B),
                                 xi=0.0)
    assert alpha <= 1e-10
    assert abs(alpha - alpha_ref) <= 1e-10


def test_sparse_probes_repeat_bitwise(eddy6):
    # the eddy R is degenerate, so this is the lifted probe
    _, _, _, ops = eddy6
    betas = [estimate_infsup(ops) for _ in range(2)]
    alphas = [estimate_coercivity(ops, 1.0) for _ in range(2)]
    assert betas[0] == betas[1]
    assert alphas[0] == alphas[1]


def test_coercivity_without_conductor_mass_is_lifted_to_zero():
    # without the conductor mass, discrete gradients stay in ker A and
    # ker B, so the unlifted saddle matrix would be singular; R = 0 is
    # degenerate, so the probe lifts it and finds the bottom, 0
    _, _, _, ops = build_eddy(6)
    level = dataclasses.replace(ops, R=sp.csr_matrix(ops.R.shape))
    alpha = estimate_coercivity(level, 1.0)
    alpha_ref = estimate_garding(level.A, level.R, level.X,
                                 kernel_basis(level.B), xi=1.0)
    assert abs(alpha) <= 1e-12
    assert abs(alpha - alpha_ref) <= 1e-12


def test_coercivity_lifts_exactly_a_degenerate_r(monkeypatch):
    # the probe factors A + xi R - shift X + s X: on Stokes, A = nu X
    # cancels and R has no zero on its diagonal, so s = 0; on eddy, R
    # vanishes off the conductor, so s = COERCIVITY_LIFT tr(K) / tr(X)
    blocks = []
    build = saddle.SaddleSolver

    def recorded(A, ops):
        blocks.append(A)
        return build(A, ops)
    monkeypatch.setattr(saddle, "SaddleSolver", recorded)
    xi = 0.7
    stokes = build_stokes(6, nu=2.5)[3]
    estimate_coercivity(stokes, xi)
    eddy = build_eddy(6)[3]
    estimate_coercivity(eddy, xi)
    assert len(blocks) == 2
    want = (xi * stokes.R).tocsr()
    got = sp.csr_matrix(blocks[0])
    got.sort_indices()
    want.sort_indices()
    for a, b in ((got.indptr, want.indptr), (got.indices, want.indices),
                 (got.data, want.data)):
        assert a.tobytes() == b.tobytes()
    trace = (eddy.A + xi * eddy.R).diagonal().sum()
    assert blocks[1].diagonal().sum() == pytest.approx(
        (1.0 + saddle.COERCIVITY_LIFT) * trace, rel=1e-13)
    assert saddle.COERCIVITY_LIFT == 0.01


@pytest.mark.parametrize("config", ["eddy2d.json", "stokes.cfg"])
def test_probed_study_rates_independent_of_jobs(tmp_path, config):
    blobs = []
    for jobs in (1, 2):
        cfg = load_config(CONFIGS / config)
        assert cfg.probes
        cfg.jobs = jobs
        cfg.out = str(tmp_path / f"jobs{jobs}")
        assert run_experiment(cfg) == 0
        blobs.append((tmp_path / f"jobs{jobs}" / "rates.csv").read_bytes())
    assert blobs[0] == blobs[1]
