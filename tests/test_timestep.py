import dataclasses
import functools
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from mixpar import saddle
from mixpar.assembly import assemble_load
from mixpar.saddle import SaddleSolver, SingularSystem
from mixpar.timestep import TimeGrid, run
from conftest import build_eddy, build_stokes


def toy_ops(eddy3):
    # eddy n=3 (21 primal unknowns, one multiplier) with R = A = I and
    # B = e_1ᵀ: u_1 = 0, and every other unknown decays on its own
    _, _, _, ops = eddy3
    n = ops.B.shape[1]
    identity = sp.identity(n, format="csr")
    return dataclasses.replace(ops, R=identity, A=identity,
                               B=sp.csr_matrix(np.eye(1, n, 1)))


def unit_load(n):
    f = np.eye(1, n)[0]
    return lambda t: f


def test_scalar_decay_toy(eddy3):
    # u^n = (u^{n-1} + dt) / (1 + dt) from rest for R = A = 1, f = 1
    ops = toy_ops(eddy3)
    n = ops.B.shape[1]
    sol = run(ops, unit_load(n), TimeGrid(1.0, 2))
    assert sol.u[:, 0] == pytest.approx([0.0, 1 / 3, 5 / 9], rel=1e-14)
    assert np.abs(sol.u[:, 1:]).max() == 0.0
    assert np.abs(sol.lam).max() == 0.0
    assert sol.lam.shape == (3, 1)


def test_zero_data_gives_zero_solution(eddy3):
    _, _, _, ops = eddy3
    grid = TimeGrid(0.5, 4)
    sol = run(ops, lambda t: np.zeros(ops.A.shape[0]), grid)
    assert np.abs(sol.u).max() == 0.0
    assert np.abs(sol.lam).max() == 0.0


def test_failed_step_is_reported_with_its_step_and_time(eddy3, monkeypatch):
    # a non-finite load from the second step on makes that solve fail
    _, _, _, ops = eddy3
    n = ops.A.shape[0]

    def load(t):
        return np.full(n, np.nan if t > 0.3 else 1.0)

    with pytest.raises(SingularSystem, match=r"^step 2 \(t=0\.5\): "
                       "factorization produced non-finite solution"):
        run(ops, load, TimeGrid(1.0, 4))
    # so does the residual guard, which no solve passes at a zero tolerance
    monkeypatch.setattr(saddle, "RESIDUAL_TOL", 0.0)
    with pytest.raises(SingularSystem, match=r"^step 1 \(t=0\.25\): "
                       "residual [^ ]+ against right-hand side "):
        run(ops, lambda t: np.ones(n), TimeGrid(1.0, 4))


def test_time_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(1.0, 0)
    with pytest.raises(ValueError):
        TimeGrid(-1.0, 3)
    g = TimeGrid(0.5, 5)
    assert g.dt == pytest.approx(0.1)


@pytest.mark.parametrize("N", [2.5, 2.0, True, "3", None])
def test_time_grid_rejects_a_step_count_that_is_not_an_integer(N):
    # a float count used to fail later inside numpy, and True ran one step
    with pytest.raises(ValueError, match="N must be an integer >= 1"):
        TimeGrid(0.5, N)


def test_time_grid_accepts_numpy_integers(eddy3):
    grid = TimeGrid(0.5, np.int64(4))
    assert grid.dt == 0.125
    ops = toy_ops(eddy3)
    sol = run(ops, unit_load(ops.B.shape[1]), grid)
    assert sol.u.shape == (5, ops.B.shape[1])


@pytest.mark.parametrize("T", [float("nan"), float("inf")])
def test_time_grid_rejects_non_finite_T(T):
    # a NaN or infinite T would only fail later, inside the saddle solver
    with pytest.raises(ValueError, match="T must be finite and positive"):
        TimeGrid(T, 2)


def test_constraint_satisfied_every_step(eddy3, eddy_case_default):
    _, E, _, ops = eddy3
    case = eddy_case_default
    grid = TimeGrid(0.75, 5)
    load = lambda t: assemble_load(
        E, (case.load_factors, case.load_profiles), t)
    sol = run(ops, load, grid)
    for n in range(1, grid.N + 1):
        lhs = np.linalg.norm(ops.B @ sol.u[n])
        assert lhs <= 1e-9 * (1.0 + np.linalg.norm(sol.u[n]))
    assert 0.0 < sol.block_residual_max <= 1e-10


def test_multiplier_shift_property(eddy3):
    # forcing by B^T c moves the multiplier by t_n * c and leaves u alone
    _, E, _, ops = eddy3
    rng = np.random.default_rng(9)
    nU, nM = ops.B.shape[1], ops.B.shape[0]
    base_load = rng.standard_normal(nU)
    c = rng.standard_normal(nM)
    grid = TimeGrid(0.6, 4)
    sol1 = run(ops, lambda t: base_load, grid)
    sol2 = run(ops, lambda t: base_load + ops.B.T @ c, grid)
    scale = max(1.0, np.abs(sol1.u).max())
    assert np.abs(sol2.u - sol1.u).max() <= 1e-10 * scale
    for n in range(grid.N + 1):
        expected = sol1.lam[n] + n * grid.dt * c
        assert np.abs(sol2.lam[n] - expected).max() <= 1e-9 * max(
            1.0, np.abs(expected).max()
        )


def test_observed_run_streams_the_steps_it_would_store(eddy3,
                                                      eddy_case_default):
    _, E, _, ops = eddy3
    case = eddy_case_default
    grid = TimeGrid(0.75, 5)
    load = lambda t: assemble_load(
        E, (case.load_factors, case.load_profiles), t)
    stored = run(ops, load, grid)
    seen = []
    streamed = run(ops, load, grid, lambda *step: seen.append(step))
    assert streamed.u is None and streamed.lam is None
    assert [n for n, _, _ in seen] == list(range(1, grid.N + 1))
    for n, u, lam in seen:
        assert np.array_equal(u, stored.u[n])
        assert np.array_equal(lam, stored.lam[n])
    assert streamed.block_residual_max == stored.block_residual_max
    assert streamed.constraint_max == stored.constraint_max
    assert streamed.constraint_rel_max == stored.constraint_rel_max
    assert streamed.factor_fill == stored.factor_fill


def test_observed_run_holds_no_step_history(eddy6):
    # many steps of a small level: the history would outweigh everything
    # else the loop allocates, so an observed run's peak stays below it
    _, _, _, ops = eddy6
    grid = TimeGrid(1.0, 1000)
    f = np.random.default_rng(4).standard_normal(ops.A.shape[0])
    history = (grid.N + 1) * sum(ops.B.shape) * 8

    def peak(observe=None):
        tracemalloc.start()
        try:
            run(ops, lambda t: f, grid, observe)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak() >= history
    assert peak(lambda n, u, lam: None) < history / 4


def test_factorization_reused_matches_per_step_solves(eddy3, eddy_case_default):
    # the once-factorized run must agree with independent per-step solves
    _, E, _, ops = eddy3
    case = eddy_case_default
    grid = TimeGrid(0.75, 3)
    load = lambda t: assemble_load(
        E, (case.load_factors, case.load_profiles), t)
    sol = run(ops, load, grid)
    A_dt = ops.R + grid.dt * ops.A
    u_prev = np.zeros(ops.B.shape[1])
    lam_prev = np.zeros(ops.B.shape[0])
    for n in range(1, grid.N + 1):
        t = n * grid.dt
        F = grid.dt * load(t) + ops.R @ u_prev + ops.B.T @ lam_prev
        u_prev, lam_prev, _ = SaddleSolver(A_dt, ops).solve(
            F, np.zeros(ops.B.shape[0])
        )
        assert np.abs(sol.u[n] - u_prev).max() <= 1e-12 * max(
            1.0, np.abs(u_prev).max()
        )


# level 2 of configs/stokes.cfg and configs/eddy2d.json, and of the
# latter on the crossed pattern: every step matrix factors in the
# nested-dissection order, the Stokes one with its cell bubbles
# eliminated (60,264 without; minimum degree filled 67,936, 16,326 and
# 138,131; the right eddy level fills more but factors faster, and the
# crossed one at n=48 filled 42.7M, where this order fills 0.83M)
@pytest.mark.parametrize("build, n, grid, fill", [
    (build_stokes, 16, TimeGrid(0.5, 16), 48_454),
    (build_eddy, 12, TimeGrid(0.75, 20), 18_601),
    (functools.partial(build_eddy, pattern="crossed"), 12,
     TimeGrid(0.75, 20), 34_323),
])
def test_step_factorization_order_and_fill(build, n, grid, fill):
    _, _, _, ops = build(n)
    sol = run(ops, lambda t: np.zeros(ops.B.shape[1]), grid)
    assert sol.factor_fill == fill
    assert SaddleSolver(ops.R + grid.dt * ops.A, ops).fill == fill


@pytest.mark.parametrize("pattern", ["right", "crossed"])
@pytest.mark.parametrize("n", [3, 6])
def test_eddy_first_step_matches_dense_solve(n, pattern, eddy_case_default):
    # the first step, factored in the dissection order, against a dense
    # solve of the same assembled block system
    _, E, _, ops = build_eddy(n, pattern=pattern)
    case = eddy_case_default
    grid = TimeGrid(0.75, 5 * n // 3)
    load = lambda t: assemble_load(
        E, (case.load_factors, case.load_profiles), t)
    sol = run(ops, load, grid)
    Bd = ops.B.toarray()
    m = Bd.shape[0]
    K = np.block([[(ops.R + grid.dt * ops.A).toarray(), Bd.T],
                  [Bd, np.zeros((m, m))]])
    z = np.linalg.solve(K, np.concatenate([grid.dt * load(grid.dt),
                                           np.zeros(m)]))
    step = np.concatenate([sol.u[1], sol.lam[1]])
    assert np.abs(step - z).max() <= 1e-11 * np.abs(z).max()
