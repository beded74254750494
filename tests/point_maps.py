"""Test-only point maps: padded maps, and the vector MINI maps that the
scalar MINI tables replaced, kept as their oracle.

The MINI tables hold scalar P1+bubble maps, and `CellTables.apply` and
`adjoint` read the vector fields from them by reshaping the interleaved
coefficients.  `vector_maps` builds the maps those fields once came
from, over the interleaved free DOFs: `val` with rows (point,
component) and `der` with rows (point, component, direction), by the
recipe the tables used before.  `fields` is how the tests read a field
from a table: on mini it checks the table's field against the vector
map's, bit for bit.  `vector_stokes`, `vector_moments` and
`vector_forms` are the operators, load moments and error forms of those
maps, computed the way the library computed them; the library's must
equal them bitwise.
"""
import weakref

import numpy as np
import scipy.sparse as sp

from mixpar.analysis import _per_row
from mixpar.assembly import CellTables, _gram


def padded_map(tab, data, cols, ncols=None):
    """A point map with one stored slot per local basis function, exact
    zeros included (a constrained DOF's slot holds 0 in column 0).  It
    has the table's map width unless `ncols` is given."""
    shape = tab.wdet.shape + np.broadcast_shapes(data.shape, cols.shape)[2:]
    free = cols >= 0
    data = np.broadcast_to(np.where(free, data, 0.0), shape).ravel()
    cols = np.broadcast_to(np.where(free, cols, 0), shape).ravel()
    width = shape[-1]
    if ncols is None:
        ncols = tab.nfree // tab.ncomp
    return sp.csr_matrix(
        (data, cols, np.arange(0, len(data) + 1, width)),
        shape=(len(data) // width, ncols))


_VECTOR_MAPS = weakref.WeakKeyDictionary()


def vector_maps(space):
    """The point maps of `space` over its free DOFs, as {"val", "der"}:
    the table's own maps, or on mini the vector maps of the earlier
    recipe, with their exact zeros dropped (built once per space)."""
    tab = CellTables.of(space)
    if space.kind != "mini":
        return {"val": tab.val, "der": tab.der}
    if space in _VECTOR_MAPS:
        return _VECTOR_MAPS[space]
    nc = space.mesh.num_cells
    cols = np.full((nc, 8), -1, dtype=np.int32)
    cols[space.active_cells] = space.free_index(space.cell_dofs)
    # DOF 2s+d is scalar basis s times the unit vector e_d
    vcols = cols[:, None].reshape(nc, 1, 4, 2).transpose(0, 1, 3, 2)
    recipes = {"val": (tab.vals[None, :, None, :], vcols),
               "der": (tab.grads.transpose(0, 1, 3, 2)[:, :, None],
                       vcols[:, :, :, None])}
    maps = {}
    for name, (data, cols) in recipes.items():
        P = padded_map(tab, data, cols, space.num_free)
        P.eliminate_zeros()
        maps[name] = P
    _VECTOR_MAPS[space] = maps
    return maps


def fields(space, name, u):
    """The field `name` ("val" or "der") of the free coefficients u at
    the table's points, read through `CellTables.apply`; on mini it must
    equal the vector map's product bitwise."""
    got = CellTables.of(space).apply(name, u)
    if space.kind == "mini":
        assert same_bits(got, vector_maps(space)[name] @ u), name
    return got


def vector_stokes(velocity, pressure, nu):
    """The Stokes operators as the Gram products of the vector maps."""
    v = vector_maps(velocity)
    tp = CellTables.of(pressure)
    w = tp.w
    # Jacobian rows are (d_x v_x, d_y v_x, d_x v_y, d_y v_y) per point
    div = v["der"][0::4] + v["der"][3::4]
    X = _gram(v["der"], w)
    return {"R": _gram(v["val"], w), "A": nu * X,
            "B": -_gram(tp.val, w, div), "X": X, "M": _gram(tp.val, w),
            "mean_row": tp.val.T @ w}


def vector_moments(maps, w, fq, dq=None):
    """valᵀ(w·fq) + derᵀ(w·dq) of the maps; either may be None."""
    out = np.zeros(maps["val"].shape[1])
    if fq is not None:
        out += maps["val"].T @ _per_row(w, np.ravel(fq))
    if dq is not None:
        out += maps["der"].T @ _per_row(w, np.ravel(dq))
    return out


def _residuals(terms, part, F, qp, C):
    P = np.array([getattr(term, part)(qp).ravel() for term in terms]
                 ).reshape(len(terms), F.shape[0])
    P -= (F @ C.T).T
    return P


def vector_forms(case, ops, C, Cm):
    """The (H, G) pairs of the Stokes error forms R, X and M, from the
    vector maps and the interpolants C (primal) and Cm (multiplier)."""
    primal, mult = case.terms
    v = vector_maps(ops.primal)
    tm = CellTables.of(ops.multiplier)
    w, qp = tm.w, tm.qp

    def form(F, r):
        return (r @ _per_row(w, r).T, (F.T @ _per_row(w, r).T).T)

    return {"R": form(v["val"], _residuals(primal, "value", v["val"], qp, C)),
            "X": form(v["der"], _residuals(primal, "deriv", v["der"], qp, C)),
            "M": form(tm.val, _residuals(mult, "value", tm.val, qp, Cm))}


def same_bits(got, want):
    """Whether two arrays or CSR matrices hold the same bits: shape,
    index arrays and values."""
    if sp.issparse(want):
        return (got.shape == want.shape
                and all(np.array_equal(getattr(got, part),
                                       getattr(want, part))
                        for part in ("indptr", "indices"))
                and got.data.tobytes() == want.data.tobytes())
    return got.shape == want.shape and got.tobytes() == want.tobytes()
