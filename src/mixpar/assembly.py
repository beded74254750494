"""Global operator assembly for the Stokes and eddy-current instances.

Every operator is a weighted Gram product Pᵀ diag(w) Q of the sparse
point maps of `CellTables` (field values or derivatives at the
quadrature points), so the operators, the load and the error norms use
one quadrature path.  The maps act on free coefficients, so operators
live on the free DOFs of their spaces (essential conditions are
homogeneous), and they store no exact zeros.  Sparse products run in a
fixed order, so serial runs produce bitwise-identical matrices.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.io
import scipy.sparse as sp

from . import mesh as meshmod
from .elements import QuadratureRule, bubble_values, p1_values
from .spaces import FeSpace

__all__ = [
    "Coefficients", "OperatorSet", "CellTables",
    "assemble_stokes", "assemble_eddy2d", "assemble_load",
    "export_matrix", "import_matrix",
    "SpaceMismatch", "NoConductorCells",
]


class SpaceMismatch(ValueError):
    """Spaces passed to an assembly routine do not fit together."""


class NoConductorCells(ValueError):
    """The degenerate mass term has empty support."""


@dataclass(frozen=True)
class Coefficients:
    nu: float = 1.0
    sigma: float = 1.0
    eps: float = 1.0
    mu_mag: float = 1.0   # magnetic coefficient; 'mu' names the multiplier


@dataclass
class OperatorSet:
    """Assembled free-DOF operators of one problem instance.

    R is the (possibly degenerate) operator inside the time derivative,
    A the stiffness-like operator, B the constraint operator (rows are
    multiplier DOFs).  X and M are the primal and multiplier inner
    product matrices used for norms and the inf-sup/coercivity
    probes; mean_row is
    the pressure mean-value functional (Stokes only).
    """

    R: sp.spmatrix
    A: sp.spmatrix
    B: sp.spmatrix
    X: sp.spmatrix
    M: sp.spmatrix
    primal: FeSpace
    multiplier: FeSpace
    coeffs: Coefficients = field(default_factory=Coefficients)
    mean_row: np.ndarray | None = None


class CellTables:
    """Quadrature geometry and basis data per active cell of a space.

    The one way to evaluate a discrete field at quadrature points.  Built
    once per space and quadrature degree (see `of`) and shared by the
    operator assembly, the load, the error norms, the projections and the
    field recovery.

    Kind-agnostic data over the flat list of quadrature points: `qp`
    (m, 2, read-only), weights `w` (m,), and two sparse maps from free
    coefficients, built on first use: `val` to the field values and `der`
    to the gradient (p1, multiplier), the Jacobian (mini) or the scalar
    curl (edge).  `values`, `derivs` and `moments` sit on top of them,
    and every operator is a weighted product of them (see `_gram`).

    Per-kind local basis data, from which the maps are built: p1 /
    multiplier carry `vals` (nq, 3) and `grads` (nc, 3, 2); mini carries
    `vals` (nq, 4) and `grads` (nc, nq, 4, 2) for the scalar P1+bubble
    basis; edge carries `wvals` (nc, nq, 3, 2) and `wrot` (nc, 3).
    """

    def __init__(self, space, rule=None):
        if rule is None:
            rule = QuadratureRule.for_degree(4)
        self.rule = rule
        mesh = space.mesh
        cells = space.active_cells
        pts = mesh.vertices[mesh.cells[cells]]          # (nc, 3, 2)
        d1 = pts[:, 1] - pts[:, 0]
        d2 = pts[:, 2] - pts[:, 0]
        det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
        # physical gradients of the barycentric coordinates
        g = np.empty((len(cells), 3, 2))
        for k in range(3):
            e = pts[:, (k + 2) % 3] - pts[:, (k + 1) % 3]
            g[:, k, 0] = -e[:, 1]
            g[:, k, 1] = e[:, 0]
        g /= det[:, None, None]

        bary = rule.points
        self.qp = np.einsum("qk,ckd->cqd", bary, pts).reshape(-1, 2)
        # read-only, so the manufactured cases may cache their spatial
        # profiles on this array (see problems.py)
        self.qp.flags.writeable = False
        self.wdet = np.outer(det, rule.weights)  # weights sum to A per cell
        self.w = self.wdet.ravel()
        self.dofs = space.cell_dofs
        self.cells = cells
        self.nfree = space.num_free
        # free column of each cell DOF, -1 on constrained DOFs
        cols = space.free_index(self.dofs).astype(np.int32)[:, None]

        # (data, cols) recipes of the maps, broadcast over missing axes:
        # data[c, q, *shape, j] is local basis function j's contribution at
        # point q of cell c and cols[c, 0, *shape, j] its free column;
        # _shapes are the per-point shapes of the values and derivatives
        kind = space.kind
        if kind in ("p1", "multiplier"):
            self.vals = p1_values(bary)
            self.grads = g
            self._val = (self.vals[None], cols)
            self._der = (g.transpose(0, 2, 1)[:, None], cols[:, :, None])
            self._shapes = (), (2,)
        elif kind == "mini":
            vals = np.empty((len(bary), 4))
            vals[:, :3] = p1_values(bary)
            vals[:, 3] = bubble_values(bary)
            self.vals = vals
            grads = np.empty((len(cells), len(bary), 4, 2))
            grads[:, :, :3, :] = g[:, None, :, :]
            l0, l1, l2 = bary[:, 0], bary[:, 1], bary[:, 2]
            grads[:, :, 3, :] = 27.0 * (
                np.einsum("q,cd->cqd", l1 * l2, g[:, 0])
                + np.einsum("q,cd->cqd", l0 * l2, g[:, 1])
                + np.einsum("q,cd->cqd", l0 * l1, g[:, 2])
            )
            self.grads = grads
            # DOF 2s+d is scalar basis s times the unit vector e_d
            vcols = cols.reshape(len(cells), 1, 4, 2).transpose(0, 1, 3, 2)
            self._val = (vals[None, :, None, :], vcols)
            self._der = (grads.transpose(0, 1, 3, 2)[:, :, None],
                         vcols[:, :, :, None])
            self._shapes = (2,), (2, 2)
        elif kind == "edge":
            loc = mesh.cell_edge_local[cells]           # (nc, 3, 2)
            la, lb = loc[:, :, 0], loc[:, :, 1]
            ga = np.take_along_axis(g, la[:, :, None], axis=1)
            gb = np.take_along_axis(g, lb[:, :, None], axis=1)
            lam = p1_values(bary)                       # (nq, 3)
            la_vals = lam[:, la]                        # (nq, nc, 3)
            lb_vals = lam[:, lb]
            wvals = (
                np.einsum("qce,ced->cqed", la_vals, gb)
                - np.einsum("qce,ced->cqed", lb_vals, ga)
            )
            self.wvals = wvals
            self.wrot = 2.0 * (
                ga[:, :, 0] * gb[:, :, 1] - ga[:, :, 1] * gb[:, :, 0]
            )
            self._val = (wvals.transpose(0, 1, 3, 2), cols[:, :, None])
            self._der = (self.wrot[:, None], cols)
            self._shapes = (2,), ()
        else:
            raise ValueError(f"unknown space kind {kind!r}")

    @classmethod
    def of(cls, space, quad_degree=4):
        """The tables of `space` for a quadrature degree, cached on it."""
        tab = space.tables.get(quad_degree)
        if tab is None:
            tab = cls(space, QuadratureRule.for_degree(quad_degree))
            space.tables[quad_degree] = tab
        return tab

    def _point_map(self, data, cols):
        # every row keeps one slot per local basis function: a constrained
        # DOF's slot holds an explicit zero in column 0, so the arrays are
        # built in place with no masked copies
        shape = self.wdet.shape + np.broadcast_shapes(data.shape,
                                                      cols.shape)[2:]
        free = cols >= 0
        data = np.where(free, data, 0.0)
        cols = np.where(free, cols, 0)
        width = shape[-1]
        nnz = int(np.prod(shape))
        return sp.csr_matrix(
            (np.broadcast_to(data, shape).ravel(),
             np.broadcast_to(cols, shape).ravel(),
             np.arange(0, nnz + 1, width, dtype=cols.dtype)),
            shape=(nnz // width, self.nfree))

    @cached_property
    def val(self):
        return self._point_map(*self._val)

    @cached_property
    def der(self):
        return self._point_map(*self._der)

    def values(self, u):
        """Field values at the points from free coefficients u."""
        return (self.val @ u).reshape(-1, *self._shapes[0])

    def derivs(self, u):
        """Gradient, Jacobian or scalar curl at the points (see `der`)."""
        return (self.der @ u).reshape(-1, *self._shapes[1])

    def moments(self, fq, dq=None):
        """valᵀ(w·fq) + derᵀ(w·dq) over the free DOFs; either may be None."""
        out = np.zeros(self.nfree)
        if fq is not None:
            out += self.val.T @ self._weighted(fq)
        if dq is not None:
            out += self.der.T @ self._weighted(dq)
        return out

    def _weighted(self, a):
        a = np.asarray(a, dtype=float).reshape(len(self.w), -1)
        return (self.w[:, None] * a).ravel()


def _gram(P, w, Q=None):
    """Pᵀ diag(w) Q of two point maps (Q defaults to P), no stored zeros.

    w holds one weight per quadrature point, shared by that point's rows.
    Both factors are scaled by √w, so Pᵀ diag(w) P is exactly symmetric.
    """
    s = np.sqrt(w)
    Ps = _scale_rows(P, s)
    Qs = Ps if Q is None else _scale_rows(Q, s)
    G = (Ps.T @ Qs).tocsr()
    G.eliminate_zeros()
    return G


def _scale_rows(P, s):
    """P with each point's rows scaled by s[point]; shares P's index
    arrays, so it must not be modified in place."""
    s = np.repeat(s, P.shape[0] // len(s))
    return sp.csr_matrix(
        (P.data * np.repeat(s, np.diff(P.indptr)), P.indices, P.indptr),
        shape=P.shape)


def _rows_at(P, pts, npts):
    """The rows of point map P at the points pts, out of npts points."""
    k = P.shape[0] // npts
    return P[(k * pts[:, None] + np.arange(k)).ravel()]


def assemble_stokes(velocity, pressure, nu=1.0, quad_degree=4):
    """Operators of the transient Stokes instance on the MINI pair.

    R is the vector L2 mass, A = nu * vector stiffness, and
    B[q, v] = -int q div(v), so the multiplier equation reads B u = 0.
    X (the H1_0 inner product) is the Gram matrix of the Jacobian map,
    making A = nu * X an exact matrix identity.
    """
    if velocity.mesh is not pressure.mesh:
        raise SpaceMismatch("velocity and pressure live on different meshes")
    if velocity.kind != "mini" or pressure.kind != "p1":
        raise SpaceMismatch("expected mini velocity and p1 pressure")
    tv = CellTables.of(velocity, quad_degree)
    tp = CellTables.of(pressure, quad_degree)

    # Jacobian rows are (d_x v_x, d_y v_x, d_x v_y, d_y v_y) per point
    div = tv.der[0::4] + tv.der[3::4]
    X = _gram(tv.der, tv.w)
    return OperatorSet(
        R=_gram(tv.val, tv.w),
        A=nu * X,
        B=-_gram(tp.val, tp.w, div),
        X=X,
        M=_gram(tp.val, tp.w),
        primal=velocity,
        multiplier=pressure,
        coeffs=Coefficients(nu=nu),
        mean_row=tp.val.T @ tp.w,
    )


def assemble_eddy2d(edge, multiplier, sigma=1.0, eps=1.0, mu_mag=1.0,
                    quad_degree=4):
    """Operators of the 2D eddy-current instance on edge elements.

    R is the sigma-weighted edge mass restricted to conductor cells,
    A = (1/mu_mag) * rot-rot, and B[m, v] = eps * int_{insulator}
    v . grad(m).  X is the H(curl) inner product with unit weights and
    M the H1 inner product of the multiplier space.
    """
    if edge.mesh is not multiplier.mesh:
        raise SpaceMismatch("edge and multiplier live on different meshes")
    if edge.kind != "edge" or multiplier.kind != "multiplier":
        raise SpaceMismatch("expected edge primal and multiplier spaces")
    in_cond = (edge.mesh.cell_subdomain[edge.active_cells]
               == meshmod.CONDUCTOR)
    if not in_cond.any() or sigma <= 0.0:
        raise NoConductorCells("degenerate mass term has empty support")

    te = CellTables.of(edge, quad_degree)
    tm = CellTables.of(multiplier, quad_degree)
    nq = te.wdet.shape[1]
    cond = np.flatnonzero(np.repeat(in_cond, nq))
    # the multiplier's points are the edge table's points on its cells
    ins = (np.searchsorted(te.cells, tm.cells)[:, None] * nq
           + np.arange(nq)).ravel()
    rot = _gram(te.der, te.w)
    return OperatorSet(
        R=sigma * _gram(_rows_at(te.val, cond, len(te.w)), te.w[cond]),
        A=rot / mu_mag,
        B=eps * _gram(tm.der, tm.w, _rows_at(te.val, ins, len(te.w))),
        X=_gram(te.val, te.w) + rot,
        M=_gram(tm.val, tm.w) + _gram(tm.der, tm.w),
        primal=edge,
        multiplier=multiplier,
        coeffs=Coefficients(sigma=sigma, eps=eps, mu_mag=mu_mag),
        mean_row=None,
    )


def assemble_load(space, f, t, rot_part=None, quad_degree=4):
    """Quadrature load vector int f(t) . basis (+ int rot_part rot basis).

    f maps (points (m, 2), t) to (m,) for scalar kinds or (m, 2) for
    vector kinds.  rot_part, for edge spaces only, adds the moment of a
    scalar field against the basis curls (the weak-form contribution of
    a magnetization-like source).  Returns the free-DOF vector.
    """
    tab = CellTables.of(space, quad_degree)
    rq = None if rot_part is None else rot_part(tab.qp, t)
    return tab.moments(f(tab.qp, t), rq)


def export_matrix(path, mat):
    """Write a matrix in MatrixMarket coordinate format."""
    scipy.io.mmwrite(str(path), sp.coo_matrix(mat))


def import_matrix(path):
    """Read a MatrixMarket file back as CSR."""
    return sp.csr_matrix(scipy.io.mmread(str(path)))
