import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixpar import build_space, interpolate, structured_mesh
from mixpar.analysis import TooFewLevels, compute_errors, fit_rates
from mixpar.assembly import Coefficients, assemble_eddy2d, assemble_load
from mixpar.problems import ManufacturedCase
from mixpar.timestep import TimeGrid, TimeSeriesSolution, run


def _series_case_in_space(E):
    """Exact field a(-y,x)+b scaled by (1-t): lies in the edge space."""
    a, b = 0.4, np.array([0.3, -0.2])

    def u(p, t):
        base = np.column_stack([-a * p[:, 1] + b[0], a * p[:, 0] + b[1]])
        return (1.0 - t) * base

    def dudt(p, t):
        base = np.column_stack([-a * p[:, 1] + b[0], a * p[:, 0] + b[1]])
        return -base

    def rot_u(p, t):
        return np.full(len(p), 2.0 * a * (1.0 - t))

    return ManufacturedCase(
        kind="eddy2d", domain=(0, 0, 3, 3), conductor=(1, 1, 2, 2),
        coeffs=Coefficients(), T=1.0,
        u=u, dudt=dudt, rot_u=rot_u,
        multiplier=lambda p, t: np.zeros(len(p)),
        grad_multiplier=lambda p, t: np.zeros((len(p), 2)),
        f_vec=lambda p, t: np.zeros((len(p), 2)),
    )


def test_exact_reproduction_gives_zero_norms():
    # no-boundary-condition spaces so the affine field lies in the space
    mesh = structured_mesh((0, 0, 3, 3), 3, conductor=(1, 1, 2, 2))
    E = build_space(mesh, "edge", bc=None)
    MU = build_space(mesh, "multiplier", bc=None)
    ops = assemble_eddy2d(E, MU)
    case = _series_case_in_space(E)
    grid = TimeGrid(1.0, 3)
    coef0 = interpolate(E, lambda p: case.u(p, 0.0))
    u = np.array([(1.0 - t) / 1.0 * coef0 for t in grid.times])
    sol = TimeSeriesSolution(u, np.zeros((grid.N + 1, MU.num_free)), grid)
    norms = compute_errors(sol, case, ops)
    for val in (norms.max_R, norms.l2_X, norms.l2_M, norms.dt_R):
        assert val <= 1e-20
    assert norms.rel_E <= 1e-8
    assert norms.rel_H <= 1e-8


def test_l2m_matches_coefficient_quadratic_form(eddy3, eddy_case_default):
    # exact multiplier is zero, so l2_M equals dt * sum lam^T M lam
    _, E, MU, ops = eddy3
    case = eddy_case_default
    grid = TimeGrid(case.T, 4)
    load = lambda t: assemble_load(E, case.f_vec, t, rot_part=case.f_rot)
    sol = run(ops, load, grid)
    norms = compute_errors(sol, case, ops)
    direct = grid.dt * sum(
        sol.lam[n] @ (ops.M @ sol.lam[n]) for n in range(1, grid.N + 1)
    )
    assert norms.l2_M == pytest.approx(direct, rel=1e-10, abs=1e-25)


def test_errors_translation_consistent():
    # adding the same constant field to exact and discrete solutions
    # leaves every norm unchanged
    mesh = structured_mesh((0, 0, 3, 3), 3, conductor=(1, 1, 2, 2))
    E = build_space(mesh, "edge", bc=None)
    MU = build_space(mesh, "multiplier", bc=None)
    ops = assemble_eddy2d(E, MU)
    case = _series_case_in_space(E)
    grid = TimeGrid(1.0, 3)
    rng = np.random.default_rng(21)
    u = rng.standard_normal((grid.N + 1, E.num_free))
    sol = TimeSeriesSolution(u, np.zeros((grid.N + 1, MU.num_free)), grid)
    base = compute_errors(sol, case, ops)

    shift = np.array([0.8, -0.6])
    shift_coef = interpolate(E, lambda p: np.tile(shift, (len(p), 1)))

    case2 = ManufacturedCase(
        kind="eddy2d", domain=case.domain, conductor=case.conductor,
        coeffs=case.coeffs, T=case.T,
        u=lambda p, t: case.u(p, t) + shift,
        dudt=case.dudt, rot_u=case.rot_u,
        multiplier=case.multiplier, grad_multiplier=case.grad_multiplier,
        f_vec=case.f_vec,
    )
    sol2 = TimeSeriesSolution(u + shift_coef[E.free], sol.lam, grid)
    shifted = compute_errors(sol2, case2, ops)
    assert shifted.max_R == pytest.approx(base.max_R, rel=1e-9, abs=1e-18)
    assert shifted.l2_X == pytest.approx(base.l2_X, rel=1e-9, abs=1e-18)
    assert shifted.dt_R == pytest.approx(base.dt_R, rel=1e-9, abs=1e-18)


def test_fit_rates_trivial_sequences():
    hs = [0.4, 0.2, 0.1]
    assert fit_rates(hs, [0.4, 0.2, 0.1]) == pytest.approx(1.0, abs=1e-12)
    assert fit_rates(hs, [0.16, 0.04, 0.01]) == pytest.approx(2.0, abs=1e-12)
    assert fit_rates(hs, [0.3, 0.3, 0.3]) == pytest.approx(0.0, abs=1e-12)


def test_fit_rates_requires_three_levels():
    with pytest.raises(TooFewLevels):
        fit_rates([0.4, 0.2], [1.0, 0.5])


@settings(max_examples=30, deadline=None)
@given(c=st.floats(1e-6, 1e6))
def test_fit_rates_scale_invariant(c):
    hs = [0.8, 0.4, 0.2, 0.1]
    errs = np.array([0.31, 0.17, 0.08, 0.041])
    base = fit_rates(hs, errs)
    assert fit_rates(hs, c * errs) == pytest.approx(base, rel=1e-9)

