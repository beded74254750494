"""The exact fields of a case as callables, and the quadrature oracle of
the error norms.

`exact_fields` builds the exact-field callables from a case's terms.
`quadrature_errors` evaluates the discrete fields and the exact fields
at every quadrature point of every step and sums the weighted squares.
The library's error sweep (`analysis.compute_errors`) evaluates the same
norms as quadratic forms in the assembled operators, one step at a time;
`swept_errors` feeds it a whole history, and the tests compare the two.
"""
from types import SimpleNamespace

import numpy as np

from mixpar import mesh as meshmod
from mixpar.analysis import ErrorNorms, compute_errors
from mixpar.assembly import CellTables
from point_maps import fields


def _field(pairs, shape):
    """The (pts, t) callable sum a(t) * P(pts) over (a, P) pairs; `shape`
    is the per-point shape, which an empty sum needs."""
    def f(pts, t):
        out = np.zeros((len(pts), *shape))
        for a, P in pairs:
            out += a(t) * P(pts)
        return out
    return f


def exact_fields(case):
    """The exact fields of `case`, each a (pts, t) callable summing its
    terms: u, dudt and multiplier, plus grad_u (Stokes) or rot_u and
    grad_multiplier (eddy)."""
    primal, mult = case.terms
    fields = dict(u=_field([(t.a, t.value) for t in primal], (2,)),
                  dudt=_field([(t.da, t.value) for t in primal], (2,)),
                  multiplier=_field([(t.a, t.value) for t in mult], ()))
    der = [(t.a, t.deriv) for t in primal]
    if case.kind == "stokes":
        fields["grad_u"] = _field(der, (2, 2))
    else:
        fields["rot_u"] = _field(der, ())
        fields["grad_multiplier"] = _field(
            [(t.a, t.deriv) for t in mult], (2,))
    return SimpleNamespace(**fields)


def swept_errors(solution, case, ops):
    """The library's error norms of a stored history, whose step 0 need
    not be rest."""
    sweep = compute_errors(case, ops, solution.grid)
    sweep.u_prev = solution.u[0]
    for n in range(1, solution.grid.N + 1):
        sweep.add(n, solution.u[n], solution.lam[n])
    return sweep.finish()


def _sq(a):
    """Squared Euclidean norm per point of (m,), (m, 2) or (m, 2, 2) data."""
    a = a.reshape(len(a), -1)
    return np.einsum("ij,ij->i", a, a)


def quadrature_errors(solution, case, ops):
    """Error norms of a time series against the manufactured case."""
    tu = CellTables.of(ops.primal)
    tm = CellTables.of(ops.multiplier)
    exact = exact_fields(case)
    grid = solution.grid
    dt = grid.dt

    # X is the H1_0 seminorm (Stokes) or the H(curl) norm (eddy); for the
    # eddy case M likewise adds the H1 seminorm to the L2 norm
    full_norms = case.kind == "eddy2d"
    exact_der = exact.rot_u if full_norms else exact.grad_u
    # every table lays its points out over all cells; the multiplier
    # lives on the insulator cells only (eddy), so its weights are masked
    tag = ops.primal.mesh.cell_subdomain.repeat(len(tu.rule.weights))
    if full_norms:
        w_cond = tu.w * (tag == meshmod.CONDUCTOR)
        wR = case.coeffs.sigma * w_cond
        wM = tm.w * (tag == meshmod.INSULATOR)
    else:
        wR = wM = tu.w

    norms = ErrorNorms()
    relE_num = relE_den = relH_num = relH_den = 0.0
    l2X = l2M = dtR = 0.0
    # the primal field is a 2-vector at each point (MINI and edge alike)
    V, MU = ops.primal, ops.multiplier
    v_prev = fields(V, "val", solution.u[0]).reshape(-1, 2)
    for n in range(1, grid.N + 1):
        t = n * dt
        u = solution.u[n]
        v = fields(V, "val", u).reshape(-1, 2)
        due = exact.dudt(tu.qp, t)
        e2 = _sq(exact.u(tu.qp, t) - v)
        de2 = _sq(due - (v - v_prev) / dt)
        v_prev = v
        der_e = exact_der(tu.qp, t)
        der2 = float(tu.w @ _sq(der_e
                                - fields(V, "der", u).reshape(der_e.shape)))
        norms.max_R = max(norms.max_R, float(wR @ e2))
        l2X += der2 + (float(tu.w @ e2) if full_norms else 0.0)
        dtR += float(wR @ de2)

        lam = solution.lam[n]
        l2M += float(wM @ _sq(exact.multiplier(tm.qp, t)
                              - fields(MU, "val", lam)))
        if full_norms:
            l2M += float(wM @ _sq(exact.grad_multiplier(tm.qp, t)
                                  - fields(MU, "der", lam).reshape(-1, 2)))
            relE_num += float(w_cond @ de2)
            relE_den += float(w_cond @ _sq(due))
            # H = rot(u) / mu_mag; the factor cancels in the ratio
            relH_num += der2
            relH_den += float(tu.w @ _sq(der_e))

    norms.l2_X = dt * l2X
    norms.l2_M = dt * l2M
    norms.dt_R = dt * dtR
    if full_norms:
        norms.rel_E = 100.0 * float(np.sqrt(relE_num / relE_den)) \
            if relE_den > 0 else 0.0
        norms.rel_H = 100.0 * float(np.sqrt(relH_num / relH_den)) \
            if relH_den > 0 else 0.0
    return norms
