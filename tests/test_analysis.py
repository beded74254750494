import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixpar import build_space, interpolate, structured_mesh
from mixpar.analysis import ErrorNorms, ErrorSweep, compute_errors, fit_rates
from mixpar.assembly import (CellTables, Coefficients, OperatorSet,
                             assemble_eddy2d, assemble_load)
from mixpar.problems import (ManufacturedCase, Term, Terms, eddy2d_case,
                             stokes_case)
from mixpar.timestep import TimeGrid, TimeSeriesSolution, run
from conftest import build_eddy, build_stokes
from error_oracle import exact_fields, quadrature_errors, swept_errors
from point_maps import same_bits, vector_forms


_A, _B = 0.4, np.array([0.3, -0.2])


def _base(p):
    """The affine field a(-y, x) + b, which lies in the edge space."""
    return np.column_stack([-_A * p[:, 1] + _B[0], _A * p[:, 0] + _B[1]])


def _base_rot(p):
    return np.full(len(p), 2.0 * _A)


# (1 - t) * base
_SERIES = Term(lambda t: 1.0 - t, lambda t: -1.0, _base, _base_rot)


def _series_case(*terms):
    """An eddy case whose exact field is the given primal terms."""
    return ManufacturedCase(
        kind="eddy2d", terms=Terms(primal=terms),
        domain=(0, 0, 3, 3), conductor=(1, 1, 2, 2),
        coeffs=Coefficients(),
        load_factors=(), load_profiles=lambda p: (),
    )


def _free_spaces():
    # no-boundary-condition spaces so the affine field lies in the space
    mesh = structured_mesh((0, 0, 3, 3), 3, conductor=(1, 1, 2, 2))
    E = build_space(mesh, "edge", bc=None)
    MU = build_space(mesh, "multiplier", bc=None)
    return E, MU, assemble_eddy2d(E, MU)


def test_exact_reproduction_gives_zero_norms():
    E, MU, ops = _free_spaces()
    case = _series_case(_SERIES)
    grid = TimeGrid(1.0, 3)
    coef0 = interpolate(E, lambda p: exact_fields(case).u(p, 0.0))
    u = np.array([(1.0 - n * grid.dt) * coef0 for n in range(grid.N + 1)])
    sol = TimeSeriesSolution(u, np.zeros((grid.N + 1, MU.num_free)), grid)
    norms = swept_errors(sol, case, ops)
    for val in (norms.max_R, norms.l2_X, norms.l2_M, norms.dt_R):
        assert 0.0 <= val <= 1e-20
    assert 0.0 <= norms.rel_E <= 1e-8
    assert 0.0 <= norms.rel_H <= 1e-8


def test_l2m_matches_coefficient_quadratic_form(eddy3, eddy_case_default):
    # exact multiplier is zero, so l2_M equals dt * sum lam^T M lam
    _, E, MU, ops = eddy3
    case = eddy_case_default
    grid = TimeGrid(0.75, 4)
    load = lambda t: assemble_load(
        E, (case.load_factors, case.load_profiles), t)
    sol = run(ops, load, grid)
    norms = swept_errors(sol, case, ops)
    direct = grid.dt * sum(
        sol.lam[n] @ (ops.M @ sol.lam[n]) for n in range(1, grid.N + 1)
    )
    assert norms.l2_M == pytest.approx(direct, rel=1e-10, abs=1e-25)


def test_errors_translation_consistent():
    # adding the same constant field to exact and discrete solutions
    # leaves every norm unchanged
    E, MU, ops = _free_spaces()
    grid = TimeGrid(1.0, 3)
    rng = np.random.default_rng(21)
    u = rng.standard_normal((grid.N + 1, E.num_free))
    sol = TimeSeriesSolution(u, np.zeros((grid.N + 1, MU.num_free)), grid)
    base = swept_errors(sol, _series_case(_SERIES), ops)

    shift = np.array([0.8, -0.6])
    # 1 * shift, a constant field with no rot
    translation = Term(lambda t: 1.0, lambda t: 0.0,
                       lambda p: np.tile(shift, (len(p), 1)),
                       lambda p: np.zeros(len(p)))
    shift_coef = interpolate(E, translation.value)
    sol2 = TimeSeriesSolution(u + shift_coef[E.free], sol.lam, grid)
    shifted = swept_errors(sol2, _series_case(_SERIES, translation), ops)
    assert shifted.max_R == pytest.approx(base.max_R, rel=1e-9, abs=1e-18)
    assert shifted.l2_X == pytest.approx(base.l2_X, rel=1e-9, abs=1e-18)
    assert shifted.dt_R == pytest.approx(base.dt_R, rel=1e-9, abs=1e-18)


def _solved(kind, pattern):
    """A short solve of one case with coefficients away from 1."""
    if kind == "stokes":
        case, T = stokes_case(nu=0.37), 0.5
        _, V, _, ops = build_stokes(8, nu=0.37, pattern=pattern)
    else:
        case, T = eddy2d_case(sigma=2.5, mu_mag=3.0), 0.75
        _, V, _, ops = build_eddy(6, sigma=2.5, eps=0.4, mu_mag=3.0,
                                  pattern=pattern)
    grid = TimeGrid(T, 6)
    load = lambda t: assemble_load(
        V, (case.load_factors, case.load_profiles), t)
    return case, ops, run(ops, load, grid)


@pytest.mark.parametrize("steps", [None, 4], ids=["full", "cut"])
@pytest.mark.parametrize("pattern", ["right", "crossed"])
@pytest.mark.parametrize("kind", ["stokes", "eddy2d"])
def test_forms_match_quadrature_oracle(kind, pattern, steps):
    case, ops, sol = _solved(kind, pattern)
    if steps is not None:
        # the history after `steps` of the N steps, on the same dt
        grid = TimeGrid(steps * sol.grid.dt, steps)
        sol = TimeSeriesSolution(sol.u[:steps + 1], sol.lam[:steps + 1],
                                 grid)
    forms = swept_errors(sol, case, ops)
    oracle = quadrature_errors(sol, case, ops)
    assert forms.max_R > 0.0 and forms.rel_E >= 0.0
    for field in dataclasses.fields(ErrorNorms):
        # the exact eddy multiplier is 0, so its l2_M is round-off
        atol = 1e-24 if (kind, field.name) == ("eddy2d", "l2_M") else 0.0
        assert getattr(forms, field.name) == pytest.approx(
            getattr(oracle, field.name), rel=1e-12, abs=atol), field.name


@pytest.mark.parametrize("kind", ["stokes", "eddy2d"])
def test_sweep_partial_sums_match_oracle_after_each_step(kind):
    # the sweep keeps no history: after each step its norms are the
    # oracle's on the steps so far, and its maxima those of the history
    case, ops, sol = _solved(kind, "right")
    dt = sol.grid.dt
    sweep = compute_errors(case, ops, sol.grid)
    for n in range(1, sol.grid.N + 1):
        sweep.add(n, sol.u[n], sol.lam[n])
        first = TimeSeriesSolution(sol.u[:n + 1], sol.lam[:n + 1],
                                   TimeGrid(n * dt, n))
        got, want = sweep.finish(), quadrature_errors(first, case, ops)
        for field in dataclasses.fields(ErrorNorms):
            atol = 1e-24 if (kind, field.name) == ("eddy2d", "l2_M") else 0.0
            assert getattr(got, field.name) == pytest.approx(
                getattr(want, field.name), rel=1e-12, abs=atol), (n, field)
        assert sweep.lam_norm_max == max(
            float(np.sqrt(max(lam @ (ops.M @ lam), 0.0)))
            for lam in sol.lam[:n + 1])
        assert sweep.u_norm_max == max(
            float(np.sqrt(max(u @ (ops.X @ u), 0.0))) for u in sol.u[:n + 1])
    assert sweep.u_norm_max > 0.0
    # the maxima read the forms' operators; the sweep keeps no OperatorSet
    assert compute_errors is ErrorSweep
    assert sweep.M.Q is ops.M and sweep.X.Q is ops.X
    assert not any(isinstance(v, OperatorSet) for v in vars(sweep).values())
    # the run's constraint maxima read the same history, with G = 0
    constraints = [np.linalg.norm(ops.B @ u) for u in sol.u[1:]]
    assert sol.constraint_max == max(constraints)
    assert sol.constraint_rel_max == max(
        c / (1.0 + np.linalg.norm(u)) for c, u in zip(constraints, sol.u[1:]))


def test_sweep_precompute_holds_one_form_at_a_time(stokes_case_default):
    _, V, _, ops = build_stokes(32)
    case = stokes_case_default
    # the Jacobian residual's rows: four a point, one set per term
    rows = 4 * len(CellTables.of(V).w) * len(case.terms.primal)
    tracemalloc.start()
    try:
        compute_errors(case, ops, TimeGrid(0.5, 4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the Jacobian residual's arrays (eight bytes a value) are the
    # largest: its profiles, their residual and its weighted copy take
    # about 3.6 such arrays; holding every profile and residual at once
    # took about 5.5
    assert peak <= 4 * 8 * rows


@pytest.mark.parametrize("n", [3, 16, 64])
@pytest.mark.parametrize("pattern", ["right", "crossed"])
def test_stokes_forms_match_vector_maps_bitwise(pattern, n,
                                                stokes_case_default):
    _, _, _, ops = build_stokes(n, pattern=pattern)
    case = stokes_case_default
    sweep = compute_errors(case, ops, TimeGrid(0.5, 2))
    for name, (H, G) in vector_forms(case, ops, sweep.C, sweep.Cm).items():
        form = getattr(sweep, name)
        assert same_bits(form.H, H), name
        assert same_bits(form.G, G), name


def _spy_points(monkeypatch):
    """The kinds of the tables whose points are derived from now on."""
    derived = []
    qp = CellTables.qp

    def spied_qp(tab):
        derived.append(tab.kind)
        return qp.fget(tab)

    monkeypatch.setattr(CellTables, "qp", property(spied_qp))
    return derived


def test_eddy_sweep_builds_no_multiplier_points(monkeypatch,
                                                eddy_case_default):
    # the exact eddy multiplier has no terms, so the sweep has no profile
    # to evaluate at the multiplier's points
    _, E, MU, ops = build_eddy(3)
    case = eddy_case_default
    assert case.terms.multiplier == ()
    derived = _spy_points(monkeypatch)
    sweep = compute_errors(case, ops, TimeGrid(0.75, 2))
    sweep.add(1, np.zeros(E.num_free), np.zeros(MU.num_free))
    assert "multiplier" not in derived
    assert "edge" in derived


@pytest.mark.parametrize("build, case", [(build_stokes, stokes_case()),
                                         (build_eddy, eddy2d_case())],
                         ids=["stokes", "eddy"])
def test_sweep_derives_the_points_once(monkeypatch, build, case):
    # both tables of a level share one point layout, so every profile,
    # primal or multiplier, is evaluated at one derivation of the points
    ops = build(3)[3]
    derived = _spy_points(monkeypatch)
    T = 0.5 if case.kind == "stokes" else 0.75
    compute_errors(case, ops, TimeGrid(T, 2))
    assert len(derived) == 1


def test_fit_rates_trivial_sequences():
    hs = [0.4, 0.2, 0.1]
    assert fit_rates(hs, [0.4, 0.2, 0.1]) == pytest.approx(1.0, abs=1e-12)
    assert fit_rates(hs, [0.16, 0.04, 0.01]) == pytest.approx(2.0, abs=1e-12)
    assert fit_rates(hs, [0.3, 0.3, 0.3]) == pytest.approx(0.0, abs=1e-12)


def test_fit_rates_requires_three_levels():
    with pytest.raises(ValueError, match="at least 3 levels"):
        fit_rates([0.4, 0.2], [1.0, 0.5])


@settings(max_examples=30, deadline=None)
@given(c=st.floats(1e-6, 1e6))
def test_fit_rates_scale_invariant(c):
    hs = [0.8, 0.4, 0.2, 0.1]
    errs = np.array([0.31, 0.17, 0.08, 0.041])
    base = fit_rates(hs, errs)
    assert fit_rates(hs, c * errs) == pytest.approx(base, rel=1e-9)

