import warnings

import numpy as np
import pytest

from mixpar import build_space, interpolate, structured_mesh
from mixpar import problems
from mixpar.assembly import CellTables, assemble_load
from mixpar.config import parse_config
from mixpar.elements import QuadratureRule
from mixpar.problems import (StokesInstance, eddy2d_case, recover_fields,
                             stokes_case)
from mixpar.runner import run_level
from mixpar.timestep import TimeGrid, TimeSeriesSolution, run
from conftest import build_eddy


def _fd_t(f, pts, t, h=1e-5):
    return (f(pts, t + h) - f(pts, t - h)) / (2 * h)


def _fd_laplacian(f, pts, t, h=1e-4):
    ex = np.array([h, 0.0])
    ey = np.array([0.0, h])
    return (
        f(pts + ex, t) + f(pts - ex, t) + f(pts + ey, t) + f(pts - ey, t)
        - 4.0 * f(pts, t)
    ) / h ** 2


def _fd_grad(f, pts, t, h=1e-6):
    ex = np.array([h, 0.0])
    ey = np.array([0.0, h])
    gx = (f(pts + ex, t) - f(pts - ex, t)) / (2 * h)
    gy = (f(pts + ey, t) - f(pts - ey, t)) / (2 * h)
    return np.stack([gx, gy], axis=-1)


# -- Stokes case ----------------------------------------------------------

def test_stokes_divergence_free_everywhere():
    case = stokes_case()
    rng = np.random.default_rng(2)
    pts = rng.uniform(0, 1, size=(100, 2))
    for t in rng.uniform(0, case.T, size=5):
        J = case.grad_u(pts, t)
        div = J[:, 0, 0] + J[:, 1, 1]
        assert np.abs(div).max() <= 1e-12


def test_stokes_initial_and_boundary_values():
    case = stokes_case()
    rng = np.random.default_rng(3)
    pts = rng.uniform(0, 1, size=(50, 2))
    assert np.abs(case.u(pts, 0.0)).max() == 0.0
    edge = np.column_stack([np.zeros(20), np.linspace(0, 1, 20)])
    for wall in (edge, edge[:, ::-1], 1.0 - edge):
        assert np.abs(case.u(wall, 0.3)).max() <= 1e-14


def test_stokes_source_matches_finite_differences():
    case = stokes_case(nu=1.0)
    pts = np.array([[0.5, 0.5], [0.3, 0.7], [0.81, 0.19]])
    t = 0.5
    fd = (
        _fd_t(case.u, pts, t)
        - _fd_laplacian(case.u, pts, t)
        + _fd_grad(case.pressure, pts, t)
    )
    assert np.abs(case.f_vec(pts, t) - fd).max() <= 1e-6


def test_stokes_grad_u_matches_finite_differences():
    case = stokes_case()
    pts = np.array([[0.42, 0.58], [0.11, 0.93]])
    fd = _fd_grad(case.u, pts, 0.37, h=1e-6)  # fd[i, d, g] = d_g u_d
    assert np.abs(fd - case.grad_u(pts, 0.37)).max() <= 1e-7


def test_stokes_multiplier_is_pressure_primitive():
    case = stokes_case()
    pts = np.array([[0.25, 0.6], [0.9, 0.1]])
    for t in (0.1, 0.33, 0.48):
        dmu = _fd_t(case.multiplier, pts, t)
        assert np.abs(dmu - case.pressure(pts, t)).max() <= 1e-9
    assert np.abs(case.multiplier(pts, 0.0)).max() == 0.0


def test_stokes_pressure_zero_mean_and_interpolant_mean():
    case = stokes_case()
    mesh = structured_mesh((0, 0, 1, 1), 4)
    Q = build_space(mesh, "p1", bc=None)
    tab = CellTables(Q, QuadratureRule.for_degree(4))
    coef = interpolate(Q, lambda p: case.pressure(p, 0.4))
    vals = np.einsum("qm,cm->cq", tab.vals, coef[tab.dofs])
    assert abs((tab.wdet * vals).sum()) <= 1e-12


def test_stokes_weak_form_consistency():
    # momentum residual of the exact triple against every basis function,
    # with a quadrature exact for all integrands
    case = stokes_case(nu=1.0)
    mesh = structured_mesh((0, 0, 1, 1), 3)
    V = build_space(mesh, "mini", bc="zero_outer")
    tab = CellTables(V, QuadratureRule.for_degree(10))
    pts = tab.qp.reshape(-1, 2)
    nq = tab.rule.weights.size
    t = 0.31
    dut = case.dudt(pts, t).reshape(-1, nq, 2)
    J = case.grad_u(pts, t).reshape(-1, nq, 2, 2)
    P = case.pressure(pts, t).reshape(-1, nq)
    f = case.f_vec(pts, t).reshape(-1, nq, 2)

    loc = np.einsum("cq,qs,cqd->csd", tab.wdet, tab.vals, dut)
    loc += np.einsum("cq,cqsg,cqdg->csd", tab.wdet, tab.grads, J)
    # b(v, d/dt multiplier) = -int pressure * div v
    loc -= np.einsum("cq,cq,cqsd->csd", tab.wdet, P, tab.grads)
    loc -= np.einsum("cq,qs,cqd->csd", tab.wdet, tab.vals, f)
    resid = np.zeros(V.ndof)
    np.add.at(resid, tab.dofs.ravel(), loc.reshape(len(tab.cells), 8).ravel())
    # the identity holds against zero-trace test functions
    assert np.abs(resid[V.free]).max() <= 1e-12


# -- eddy case --------------------------------------------------------------

def test_eddy_initial_value_zero():
    case = eddy2d_case()
    rng = np.random.default_rng(8)
    pts = rng.uniform(0, 3, size=(50, 2))
    assert np.abs(case.u(pts, 0.0)).max() == 0.0


def test_eddy_exact_constraint_against_multiplier_basis():
    # int_D u . grad(mu) = 0 for every multiplier basis function; the
    # integrand is polynomial, so a degree-8 rule is an exact oracle
    case = eddy2d_case()
    for n in (3, 6):
        mesh = structured_mesh((0, 0, 3, 3), n, conductor=(1, 1, 2, 2))
        MU = build_space(mesh, "multiplier")
        tab = CellTables(MU, QuadratureRule.for_degree(8))
        uq = case.u(tab.qp.reshape(-1, 2), 0.37).reshape(
            len(tab.cells), -1, 2
        )
        loc = np.einsum("cq,cqd,cmd->cm", tab.wdet, uq, tab.grads)
        b = np.zeros(MU.ndof)
        np.add.at(b, tab.dofs.ravel(), loc.ravel())
        assert np.abs(b).max() <= 1e-10


def test_eddy_rot_u_matches_finite_differences():
    case = eddy2d_case()
    pts = np.array([[1.5, 1.5], [0.7, 2.2], [2.6, 0.4]])
    t = 0.4
    h = 1e-5
    ex, ey = np.array([h, 0.0]), np.array([0.0, h])
    rot_fd = (
        (case.u(pts + ex, t)[:, 1] - case.u(pts - ex, t)[:, 1]) / (2 * h)
        - (case.u(pts + ey, t)[:, 0] - case.u(pts - ey, t)[:, 0]) / (2 * h)
    )
    assert np.abs(rot_fd - case.rot_u(pts, t)).max() <= 1e-6


def test_eddy_strong_source_matches_finite_differences():
    case = eddy2d_case()
    t = 0.29
    h = 1e-4
    ex, ey = np.array([h, 0.0]), np.array([0.0, h])
    # points inside conductor and insulator, away from the interface
    for pts, sig in ((np.array([[1.5, 1.4]]), 1.0), (np.array([[0.6, 2.5]]), 0.0)):
        curl_rot = np.column_stack([
            (case.rot_u(pts + ey, t) - case.rot_u(pts - ey, t)) / (2 * h),
            -(case.rot_u(pts + ex, t) - case.rot_u(pts - ex, t)) / (2 * h),
        ])
        expected = sig * case.dudt(pts, t) + curl_rot
        assert np.abs(case.f_strong(pts, t) - expected).max() <= 1e-6


def test_eddy_weak_residual_strong_vs_residual_form(eddy3):
    # with exact quadrature the strong-form load and the weak-form load
    # coincide; probe with 50 random test functions
    _, E, _, _ = eddy3
    case = eddy2d_case()
    t = 0.41
    L_strong = assemble_load(E, case.f_strong, t, quad_degree=8)
    L_resid = assemble_load(E, case.f_vec, t, rot_part=case.f_rot,
                            quad_degree=8)
    rng = np.random.default_rng(12)
    scale = max(1.0, np.abs(L_strong).max())
    for _ in range(50):
        v = rng.standard_normal(len(L_strong))
        v /= np.linalg.norm(v)
        assert abs(v @ (L_strong - L_resid)) <= 1e-8 * scale


# -- field recovery ----------------------------------------------------------

def _fake_solution(E, grid, series):
    u = np.zeros((grid.N + 1, E.num_free))
    for k, vec in enumerate(series):
        u[k] = vec
    return TimeSeriesSolution(u, np.zeros((grid.N + 1, 0)), grid)


def test_recover_fields_constant_in_time(eddy3, eddy_case_default):
    _, E, _, _ = eddy3
    grid = TimeGrid(1.0, 4)
    rng = np.random.default_rng(14)
    w = rng.standard_normal(E.num_free)
    sol = _fake_solution(E, grid, [np.zeros_like(w)] + [w] * grid.N)
    Efield, H = recover_fields(sol, E, eddy_case_default)
    assert np.abs(Efield[0] - w / grid.dt).max() <= 1e-12
    assert np.abs(Efield[1:]).max() == 0.0


def test_recover_fields_linear_in_time(eddy3, eddy_case_default):
    _, E, _, _ = eddy3
    grid = TimeGrid(1.0, 5)
    rng = np.random.default_rng(15)
    w = rng.standard_normal(E.num_free)
    sol = _fake_solution(
        E, grid, [k * grid.dt * w for k in range(grid.N + 1)]
    )
    Efield, H = recover_fields(sol, E, eddy_case_default)
    assert np.abs(Efield - w).max() <= 1e-12


def test_recover_fields_rejects_stokes(eddy3):
    _, E, _, _ = eddy3
    grid = TimeGrid(1.0, 2)
    sol = _fake_solution(E, grid, [np.zeros(E.num_free)])
    with pytest.raises(StokesInstance):
        recover_fields(sol, E, stokes_case())


def test_recovered_field_errors_decrease_across_levels():
    from mixpar.analysis import compute_errors

    case = eddy2d_case(T=0.75)
    rels = []
    for lvl, n in enumerate([3, 6, 12]):
        mesh, E, MU, ops = build_eddy(n)
        grid = TimeGrid(case.T, 5 * 2 ** lvl)
        load = lambda t: assemble_load(E, case.f_vec, t, rot_part=case.f_rot)
        sol = run(ops, load, grid)
        norms = compute_errors(sol, case, ops)
        rels.append((norms.rel_E, norms.rel_H))
    for k in range(2):
        assert rels[k + 1][0] < rels[k][0]
        assert rels[k + 1][1] < rels[k][1]


# -- separable fields against the closed forms -------------------------------
#
# The oracles below are the per-field closed forms the cases used before
# their fields were written as time factors times cached spatial profiles.

def _w(s):
    return s * s * (1.0 - s) ** 2

def _dw(s):
    return 2.0 * s - 6.0 * s ** 2 + 4.0 * s ** 3

def _d2w(s):
    return 2.0 - 12.0 * s + 12.0 * s ** 2

def _d3w(s):
    return -12.0 + 24.0 * s


def _closed_form_stokes(nu):
    def u(pts, t):
        x, y = pts[:, 0], pts[:, 1]
        s = np.sin(np.pi * t)
        return np.column_stack([s * _w(x) * _dw(y), -s * _dw(x) * _w(y)])

    def dudt(pts, t):
        x, y = pts[:, 0], pts[:, 1]
        c = np.pi * np.cos(np.pi * t)
        return np.column_stack([c * _w(x) * _dw(y), -c * _dw(x) * _w(y)])

    def grad_u(pts, t):
        x, y = pts[:, 0], pts[:, 1]
        s = np.sin(np.pi * t)
        J = np.empty((len(pts), 2, 2))
        J[:, 0, 0] = s * _dw(x) * _dw(y)
        J[:, 0, 1] = s * _w(x) * _d2w(y)
        J[:, 1, 0] = -s * _d2w(x) * _w(y)
        J[:, 1, 1] = -s * _dw(x) * _dw(y)
        return J

    def pressure(pts, t):
        return np.sin(np.pi * t) * (pts[:, 0] - 0.5)

    def multiplier(pts, t):
        return (1.0 - np.cos(np.pi * t)) / np.pi * (pts[:, 0] - 0.5)

    def grad_multiplier(pts, t):
        g = np.zeros((len(pts), 2))
        g[:, 0] = (1.0 - np.cos(np.pi * t)) / np.pi
        return g

    def f_vec(pts, t):
        x, y = pts[:, 0], pts[:, 1]
        s = np.sin(np.pi * t)
        c = np.pi * np.cos(np.pi * t)
        f1 = (c * _w(x) * _dw(y)
              - nu * s * (_d2w(x) * _dw(y) + _w(x) * _d3w(y))
              + s)
        f2 = (-c * _dw(x) * _w(y)
              + nu * s * (_d3w(x) * _w(y) + _dw(x) * _d2w(y)))
        return np.column_stack([f1, f2])

    return dict(u=u, dudt=dudt, grad_u=grad_u, pressure=pressure,
                multiplier=multiplier, grad_multiplier=grad_multiplier,
                f_vec=f_vec, f_strong=f_vec)


def _g(s):
    return s * s * (3.0 - s) ** 2

def _dg(s):
    return 18.0 * s - 18.0 * s ** 2 + 4.0 * s ** 3

def _d2g(s):
    return 18.0 - 36.0 * s + 12.0 * s ** 2

def _d3g(s):
    return -36.0 + 24.0 * s

_GNORM = _g(1.5) ** 2


def _closed_form_eddy(sigma, mu_mag):
    def in_conductor(pts):
        x, y = pts[:, 0], pts[:, 1]
        return ((x >= 1.0) & (x <= 2.0) & (y >= 1.0) & (y <= 2.0)).astype(float)

    def u(pts, t):
        x, y = pts[:, 0], pts[:, 1]
        s = np.sin(np.pi * t) / _GNORM
        return np.column_stack([s * _g(x) * _dg(y), -s * _dg(x) * _g(y)])

    def dudt(pts, t):
        x, y = pts[:, 0], pts[:, 1]
        c = np.pi * np.cos(np.pi * t) / _GNORM
        return np.column_stack([c * _g(x) * _dg(y), -c * _dg(x) * _g(y)])

    def rot_u(pts, t):
        x, y = pts[:, 0], pts[:, 1]
        s = np.sin(np.pi * t) / _GNORM
        return -s * (_d2g(x) * _g(y) + _g(x) * _d2g(y))

    def multiplier(pts, t):
        return np.zeros(len(pts))

    def f_vec(pts, t):
        return sigma * in_conductor(pts)[:, None] * dudt(pts, t)

    def f_rot(pts, t):
        return rot_u(pts, t) / mu_mag

    def f_strong(pts, t):
        x, y = pts[:, 0], pts[:, 1]
        s = np.sin(np.pi * t) / _GNORM
        drot_dx = -s * (_d3g(x) * _g(y) + _dg(x) * _d2g(y))
        drot_dy = -s * (_d2g(x) * _dg(y) + _g(x) * _d3g(y))
        curl_rot = np.column_stack([drot_dy, -drot_dx]) / mu_mag
        return f_vec(pts, t) + curl_rot

    return dict(u=u, dudt=dudt, rot_u=rot_u, multiplier=multiplier,
                f_vec=f_vec, f_rot=f_rot, f_strong=f_strong)


def _assert_close(new, old):
    assert new.shape == old.shape
    assert np.abs(new - old).max() <= 1e-14 * np.abs(old).max()


@pytest.mark.parametrize("kind", ["stokes", "eddy2d"])
def test_separable_fields_match_closed_forms(kind):
    if kind == "stokes":
        case, oracle = stokes_case(nu=0.7), _closed_form_stokes(0.7)
        mesh = structured_mesh(case.domain, 4)
        space = build_space(mesh, "mini", bc="zero_outer")
    else:
        case = eddy2d_case(sigma=2.5, mu_mag=1.7)
        oracle = _closed_form_eddy(2.5, 1.7)
        mesh = structured_mesh(case.domain, 6, conductor=case.conductor)
        space = build_space(mesh, "edge", bc="zero_outer")
    # two read-only arrays and one writable array
    qp4, qp2 = CellTables.of(space, 4).qp, CellTables.of(space, 2).qp
    rng = np.random.default_rng(21)
    lo, hi = case.domain[0], case.domain[2]
    loose = rng.uniform(lo, hi, size=(200, 2))
    times = (0.0, 0.13, 0.37, case.T)
    for name, exact in oracle.items():
        field = getattr(case, name)
        # every array comes back at each later time, after the others:
        # cached profiles must be rescaled and never mixed up
        for t in times:
            for pts in (qp4, qp2, loose):
                _assert_close(field(pts, t), exact(pts, t))
        # a writable array edited in place is evaluated afresh
        edited = loose.copy()
        field(edited, 0.37)
        edited[:] = rng.uniform(lo, hi, size=edited.shape)
        _assert_close(field(edited, 0.37), exact(edited, 0.37))


@pytest.mark.parametrize("case, expected", [
    ("stokes", {"curl", "jacobian", "shift", "viscous_pressure"}),
    ("eddy2d", {"curl", "rot", "sigma_curl"}),
])
def test_one_level_evaluates_each_profile_once_per_points_array(
        monkeypatch, case, expected):
    calls = []
    evaluate = problems._Profiles.evaluate

    def spy(self, name, pts):
        if not pts.flags.writeable:
            calls.append((name, pts))   # keeps pts alive: ids stay unique
        return evaluate(self, name, pts)

    monkeypatch.setattr(problems._Profiles, "evaluate", spy)
    n = 2 if case == "stokes" else 3
    for steps in (2, 5):
        calls.clear()
        cfg = parse_config(f"case = {case}\nn = {n}\nlevels = 1\n"
                           f"steps = {steps}\nprobes = false\n")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            run_level(cfg, 0)
        keys = [(name, id(pts)) for name, pts in calls]
        assert len(keys) == len(set(keys))
        assert {name for name, _ in calls} == expected
