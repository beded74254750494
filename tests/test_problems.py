import dataclasses

import numpy as np
import pytest

from mixpar import build_space, interpolate, structured_mesh
from mixpar import runner
from mixpar.assembly import CellTables, assemble_load
from mixpar.config import parse_config
from mixpar.problems import eddy2d_case, stokes_case
from mixpar.timestep import TimeGrid, run
from conftest import build_eddy
from error_oracle import exact_fields
from rules import collapsed_rule


def _f_rot(case):
    """The rot part of a case's load, (pts, t) -> (m,), the counterpart
    of `ManufacturedCase.f_vec`."""
    def f(pts, t):
        out = np.zeros(len(pts))
        for a, (_, rot) in zip(case.load_factors, case.load_profiles(pts)):
            if rot is not None:
                out += a(t) * rot
        return out
    return f


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
    grad_u = exact_fields(case).grad_u
    rng = np.random.default_rng(2)
    pts = rng.uniform(0, 1, size=(100, 2))
    for t in rng.uniform(0, 0.5, size=5):
        J = grad_u(pts, t)
        div = J[:, 0, 0] + J[:, 1, 1]
        assert np.abs(div).max() <= 1e-12


def test_stokes_initial_and_boundary_values():
    u = exact_fields(stokes_case()).u
    rng = np.random.default_rng(3)
    pts = rng.uniform(0, 1, size=(50, 2))
    assert np.abs(u(pts, 0.0)).max() == 0.0
    edge = np.column_stack([np.zeros(20), np.linspace(0, 1, 20)])
    for wall in (edge, edge[:, ::-1], 1.0 - edge):
        assert np.abs(u(wall, 0.3)).max() <= 1e-14


def test_stokes_source_matches_finite_differences():
    case = stokes_case(nu=1.0)
    u = exact_fields(case).u
    pts = np.array([[0.5, 0.5], [0.3, 0.7], [0.81, 0.19]])
    t = 0.5
    fd = (
        _fd_t(u, pts, t)
        - _fd_laplacian(u, pts, t)
        + _fd_grad(_stokes_pressure, pts, t)
    )
    assert np.abs(case.f_vec(pts, t) - fd).max() <= 1e-6


def test_stokes_grad_u_matches_finite_differences():
    exact = exact_fields(stokes_case())
    pts = np.array([[0.42, 0.58], [0.11, 0.93]])
    fd = _fd_grad(exact.u, pts, 0.37, h=1e-6)  # fd[i, d, g] = d_g u_d
    assert np.abs(fd - exact.grad_u(pts, 0.37)).max() <= 1e-7


def test_stokes_multiplier_is_pressure_primitive():
    multiplier = exact_fields(stokes_case()).multiplier
    pts = np.array([[0.25, 0.6], [0.9, 0.1]])
    for t in (0.1, 0.33, 0.48):
        dmu = _fd_t(multiplier, pts, t)
        assert np.abs(dmu - _stokes_pressure(pts, t)).max() <= 1e-9
    assert np.abs(multiplier(pts, 0.0)).max() == 0.0


def test_stokes_pressure_zero_mean_and_interpolant_mean():
    case = stokes_case()
    mesh = structured_mesh((0, 0, 1, 1), 4)
    Q = build_space(mesh, "p1", bc=None)
    tab = CellTables.of(Q)
    coef = interpolate(Q, lambda p: _stokes_pressure(p, 0.4))
    vals = np.einsum("qm,cm->cq", tab.vals, coef[Q.cell_dofs])
    assert abs((tab.wdet * vals).sum()) <= 1e-12


def test_stokes_weak_form_consistency():
    # momentum residual of the exact triple against every basis function,
    # with a quadrature exact for all integrands
    case = stokes_case(nu=1.0)
    exact = exact_fields(case)
    mesh = structured_mesh((0, 0, 1, 1), 3)
    V = build_space(mesh, "mini", bc="zero_outer")
    tab = CellTables(V, collapsed_rule(10))
    pts = tab.qp.reshape(-1, 2)
    nq = tab.rule.weights.size
    t = 0.31
    dut = exact.dudt(pts, t).reshape(-1, nq, 2)
    J = exact.grad_u(pts, t).reshape(-1, nq, 2, 2)
    P = _stokes_pressure(pts, t).reshape(-1, nq)
    f = case.f_vec(pts, t).reshape(-1, nq, 2)

    loc = np.einsum("cq,qs,cqd->csd", tab.wdet, tab.vals, dut)
    loc += np.einsum("cq,cqsg,cqdg->csd", tab.wdet, tab.grads, J)
    # b(v, d/dt multiplier) = -int pressure * div v
    loc -= np.einsum("cq,cq,cqsd->csd", tab.wdet, P, tab.grads)
    loc -= np.einsum("cq,qs,cqd->csd", tab.wdet, tab.vals, f)
    resid = np.zeros(V.ndof)
    np.add.at(resid, V.cell_dofs.ravel(), loc.reshape(-1, 8).ravel())
    # the identity holds against zero-trace test functions
    assert np.abs(resid[V.free]).max() <= 1e-12


# -- eddy case --------------------------------------------------------------

def test_eddy_initial_value_zero():
    u = exact_fields(eddy2d_case()).u
    rng = np.random.default_rng(8)
    pts = rng.uniform(0, 3, size=(50, 2))
    assert np.abs(u(pts, 0.0)).max() == 0.0


def test_eddy_exact_constraint_against_multiplier_basis():
    # int_D u . grad(mu) = 0 for every multiplier basis function; the
    # integrand is polynomial, so a degree-8 rule is an exact oracle
    u = exact_fields(eddy2d_case()).u
    for n in (3, 6):
        mesh = structured_mesh((0, 0, 3, 3), n, conductor=(1, 1, 2, 2))
        MU = build_space(mesh, "multiplier")
        tab = CellTables(MU, collapsed_rule(8))
        # the table spans every cell; the multiplier's are the insulator's
        ins = MU.active_cells
        uq = u(tab.qp.reshape(-1, 2), 0.37).reshape(mesh.num_cells, -1, 2)
        loc = np.einsum("cq,cqd,cmd->cm", tab.wdet[ins], uq[ins],
                        tab.grads[ins])
        b = np.zeros(MU.ndof)
        np.add.at(b, MU.cell_dofs.ravel(), loc.ravel())
        assert np.abs(b).max() <= 1e-10


def test_eddy_rot_u_matches_finite_differences():
    exact = exact_fields(eddy2d_case())
    u = exact.u
    pts = np.array([[1.5, 1.5], [0.7, 2.2], [2.6, 0.4]])
    t = 0.4
    h = 1e-5
    ex, ey = np.array([h, 0.0]), np.array([0.0, h])
    rot_fd = (
        (u(pts + ex, t)[:, 1] - u(pts - ex, t)[:, 1]) / (2 * h)
        - (u(pts + ey, t)[:, 0] - u(pts - ey, t)[:, 0]) / (2 * h)
    )
    assert np.abs(rot_fd - exact.rot_u(pts, t)).max() <= 1e-6


def test_eddy_strong_source_matches_finite_differences():
    case = eddy2d_case()
    exact = exact_fields(case)
    t = 0.29
    h = 1e-4
    ex, ey = np.array([h, 0.0]), np.array([0.0, h])
    # points inside conductor and insulator, away from the interface
    for pts, sig in ((np.array([[1.5, 1.4]]), 1.0), (np.array([[0.6, 2.5]]), 0.0)):
        curl_rot = np.column_stack([
            (exact.rot_u(pts + ey, t) - exact.rot_u(pts - ey, t)) / (2 * h),
            -(exact.rot_u(pts + ex, t) - exact.rot_u(pts - ex, t)) / (2 * h),
        ])
        expected = sig * exact.dudt(pts, t) + curl_rot
        f_strong = _eddy_f_strong(case.coeffs.sigma, case.coeffs.mu_mag)
        assert np.abs(f_strong(pts, t) - expected).max() <= 1e-6


def test_eddy_weak_residual_strong_vs_residual_form(eddy3):
    # with exact quadrature the strong-form load and the weak-form load
    # coincide; probe with 50 random test functions
    _, E, _, _ = eddy3
    case = eddy2d_case()
    t = 0.41
    tab = CellTables(E, collapsed_rule(8))
    L_strong = tab.moments(_eddy_f_strong(1.0, 1.0)(tab.qp, t))
    L_resid = tab.moments(case.f_vec(tab.qp, t), _f_rot(case)(tab.qp, t))
    rng = np.random.default_rng(12)
    scale = max(1.0, np.abs(L_strong).max())
    for _ in range(50):
        v = rng.standard_normal(len(L_strong))
        v /= np.linalg.norm(v)
        assert abs(v @ (L_strong - L_resid)) <= 1e-8 * scale


# -- electric and magnetic field errors -------------------------------------

def test_recovered_field_errors_decrease_across_levels():
    from error_oracle import swept_errors

    case = eddy2d_case()
    rels = []
    for lvl, n in enumerate([3, 6, 12]):
        mesh, E, MU, ops = build_eddy(n)
        grid = TimeGrid(0.75, 5 * 2 ** lvl)
        load = lambda t: assemble_load(
            E, (case.load_factors, case.load_profiles), t)
        sol = run(ops, load, grid)
        norms = swept_errors(sol, case, ops)
        rels.append((norms.rel_E, norms.rel_H))
    for k in range(2):
        assert rels[k + 1][0] < rels[k][0]
        assert rels[k + 1][1] < rels[k][1]


# -- separable fields against the closed forms -------------------------------
#
# The oracles below are hand-written closed forms of every field, kept
# independent of the stream-function derivation in `problems._stream`.

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

    def multiplier(pts, t):
        return (1.0 - np.cos(np.pi * t)) / np.pi * (pts[:, 0] - 0.5)

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

    return dict(u=u, dudt=dudt, grad_u=grad_u, multiplier=multiplier,
                f_vec=f_vec)


def _stokes_pressure(pts, t):
    """The physical Stokes pressure, the multiplier's time derivative."""
    return np.sin(np.pi * t) * (pts[:, 0] - 0.5)


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

    def grad_multiplier(pts, t):
        return np.zeros((len(pts), 2))

    def f_vec(pts, t):
        return sigma * in_conductor(pts)[:, None] * dudt(pts, t)

    def f_rot(pts, t):
        return rot_u(pts, t) / mu_mag

    return dict(u=u, dudt=dudt, rot_u=rot_u, multiplier=multiplier,
                grad_multiplier=grad_multiplier, f_vec=f_vec, f_rot=f_rot)


def _eddy_f_strong(sigma, mu_mag):
    """The strong eddy source sigma chi_C du/dt + curl rot(u) / mu_mag."""
    f_vec = _closed_form_eddy(sigma, mu_mag)["f_vec"]

    def f_strong(pts, t):
        x, y = pts[:, 0], pts[:, 1]
        s = np.sin(np.pi * t) / _GNORM
        drot_dx = -s * (_d3g(x) * _g(y) + _dg(x) * _d2g(y))
        drot_dy = -s * (_d2g(x) * _dg(y) + _g(x) * _d3g(y))
        curl_rot = np.column_stack([drot_dy, -drot_dx]) / mu_mag
        return f_vec(pts, t) + curl_rot
    return f_strong


def _assert_close(new, old, rtol=1e-14):
    assert new.shape == old.shape
    assert np.abs(new - old).max() <= rtol * np.abs(old).max()


def _case_and_oracle(kind):
    """A case with coefficients away from 1, its closed forms and the
    primal space of a small mesh."""
    if kind == "stokes":
        case, oracle = stokes_case(nu=0.7), _closed_form_stokes(0.7)
        mesh = structured_mesh(case.domain, 4)
        return case, oracle, build_space(mesh, "mini", bc="zero_outer")
    case = eddy2d_case(sigma=2.5, mu_mag=1.7)
    oracle = _closed_form_eddy(2.5, 1.7)
    mesh = structured_mesh(case.domain, 6, conductor=case.conductor)
    return case, oracle, build_space(mesh, "edge", bc="zero_outer")


@pytest.mark.parametrize("kind", ["stokes", "eddy2d"])
def test_separable_fields_match_closed_forms(kind):
    case, oracle, space = _case_and_oracle(kind)
    T = 0.5 if kind == "stokes" else 0.75
    rng = np.random.default_rng(21)
    lo, hi = case.domain[0], case.domain[2]
    points = (CellTables.of(space).qp, rng.uniform(lo, hi, size=(200, 2)))
    fields = vars(exact_fields(case)) | {"f_vec": case.f_vec,
                                         "f_rot": _f_rot(case)}
    for name, exact in oracle.items():
        for t in (0.0, 0.13, 0.37, T):
            for pts in points:
                _assert_close(fields[name](pts, t), exact(pts, t))


@pytest.mark.parametrize("kind", ["stokes", "eddy2d"])
def test_separable_load_matches_closed_form_moments(kind):
    case, oracle, space = _case_and_oracle(kind)
    T = 0.5 if kind == "stokes" else 0.75
    tab = CellTables.of(space)
    # a second case on the same space must get moments of its own
    other = ((stokes_case(nu=1.3), _closed_form_stokes(1.3))
             if kind == "stokes" else
             (eddy2d_case(sigma=0.4, mu_mag=2.2), _closed_form_eddy(0.4, 2.2)))
    for case, oracle in ((case, oracle), other):
        f_rot = oracle.get("f_rot", lambda pts, t: None)
        load = (case.load_factors, case.load_profiles)
        # every time twice: the moments built at the first call are reused
        for t in (0.0, 0.13, 0.37, T) * 2:
            expected = tab.moments(oracle["f_vec"](tab.qp, t),
                                   f_rot(tab.qp, t))
            _assert_close(assemble_load(space, load, t), expected, 1e-13)
            if kind == "stokes":
                _assert_close(assemble_load(space, case.f_vec, t), expected,
                              1e-13)


@pytest.mark.parametrize("case", ["stokes", "eddy2d"])
def test_one_level_evaluates_the_load_profiles_once(monkeypatch, case):
    calls, spaces = [], []
    make_case = getattr(runner, f"{case}_case")

    def spied_case(**kwargs):
        made = make_case(**kwargs)

        def load_profiles(pts):
            calls.append(pts)
            return made.load_profiles(pts)
        return dataclasses.replace(made, load_profiles=load_profiles)

    assemble_load = runner.assemble_load

    def recorded_load(space, f, t):
        spaces.append(space)
        return assemble_load(space, f, t)

    monkeypatch.setattr(runner, f"{case}_case", spied_case)
    monkeypatch.setattr(runner, "assemble_load", recorded_load)
    n = 2 if case == "stokes" else 3
    for steps in (2, 5):
        calls.clear()
        spaces.clear()
        cfg = parse_config(f"case = {case}\nn = {n}\nlevels = 1\n"
                           f"steps = {steps}\nprobes = false\n")
        runner.run_level(cfg, 0)
        assert len(spaces) == steps
        assert len(calls) == 1
        # the tables derive their points on access, so compare by value
        assert np.array_equal(calls[0], CellTables.of(spaces[0]).qp)
