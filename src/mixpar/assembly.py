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

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from . import mesh as meshmod
from .elements import SIX_POINT_RULE, bubble_values
from .spaces import FeSpace

__all__ = [
    "Coefficients", "OperatorSet", "CellTables",
    "assemble_stokes", "assemble_eddy2d", "assemble_load",
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
    mean_row: np.ndarray | None = None


class CellTables:
    """Quadrature geometry and basis data of a space over its mesh.

    The one way to evaluate a discrete field at quadrature points.  Built
    once per space on the six-point rule (see `of`) and shared by the
    operator assembly, the load, the error norms and the VTK output.
    Every table of a level has one point layout, all of the mesh's cells
    times the rule's points; a cell the space does not cover (the eddy
    multiplier's conductor cells) has empty rows in the maps.  Areas,
    gradients, edge signs, weights and points are derived from the mesh
    and the rule on access: a table stores only its maps and its load.

    Kind-agnostic data over the flat list of quadrature points: weights
    `w` (m,), the points `qp` (m, 2), and, built on first use, two
    sparse maps from free coefficients: `val` to the field values and
    `der` to the gradient (p1, multiplier), the Jacobian (mini) or the
    scalar curl (edge).  A field's values at the points are `val @ u`;
    `moments` applies the transposes, and every operator is a weighted
    product of the maps (see `_gram`).  `load` holds the moments of the
    last separable load (see `assemble_load`).

    Per-kind local basis data, from which the maps are built, computed
    on access rather than kept, as the maps hold all a level needs: p1 /
    multiplier have `vals` (nq, 3) and `grads` (nc, 3, 2); mini has
    `vals` (nq, 4) and `grads` (nc, nq, 4, 2) for the scalar P1+bubble
    basis; edge has `wvals` (nc, nq, 3, 2) and `wrot` (nc, 3).
    """

    def __init__(self, space, rule):
        self.kind = space.kind
        self.rule = rule
        self._mesh = mesh = space.mesh
        self.load = None
        self.nfree = space.num_free
        # free column of each cell DOF, -1 on constrained DOFs and on
        # every cell the space does not cover
        cols = np.full((mesh.num_cells, space.cell_dofs.shape[1]), -1,
                       dtype=np.int32)
        cols[space.active_cells] = space.free_index(space.cell_dofs)
        self._cols = cols[:, None]

    @property
    def wdet(self):
        # weights sum to the area per cell
        return np.outer(2.0 * self._mesh.cell_areas, self.rule.weights)

    @property
    def w(self):
        return self.wdet.ravel()

    @property
    def qp(self):
        # the three barycentric terms summed in order (a matmul would
        # round differently)
        bary = self.rule.points
        pts = self._mesh.vertices[self._mesh.cells]  # (nc, 3, 2)
        return (bary[:, 0, None] * pts[:, None, 0]
                + bary[:, 1, None] * pts[:, None, 1]
                + bary[:, 2, None] * pts[:, None, 2]).reshape(-1, 2)

    @property
    def vals(self):
        bary = self.rule.points
        if self.kind == "mini":
            return np.column_stack([bary, bubble_values(bary)])
        return bary

    @property
    def grads(self):
        # physical gradients of the barycentric coordinates
        g = self._mesh.cell_grads
        if self.kind != "mini":
            return g
        l0, l1, l2 = self.rule.points.T
        grads = np.empty((len(g), len(l0), 4, 2))
        grads[:, :, :3, :] = g[:, None, :, :]
        grads[:, :, 3, :] = 27.0 * (
            (l1 * l2)[:, None] * g[:, None, 0]
            + (l0 * l2)[:, None] * g[:, None, 1]
            + (l0 * l1)[:, None] * g[:, None, 2]
        )
        return grads

    def _edge_ends(self):
        # local edge k runs from vertex k+1 to k+2; signing both endpoint
        # gradients turns it to the global low -> high edge
        s = self._mesh.cell_edge_sign[:, :, None]  # (nc, 3, 1)
        g = self.grads
        return s * g[:, [1, 2, 0]], s * g[:, [2, 0, 1]]

    @property
    def wvals(self):
        ga, gb = self._edge_ends()
        lam = self.rule.points                          # (nq, 3)
        return (lam[:, [1, 2, 0], None] * gb[:, None]
                - lam[:, [2, 0, 1], None] * ga[:, None])

    @property
    def wrot(self):
        ga, gb = self._edge_ends()
        return 2.0 * self._mesh.cell_edge_sign * (
            ga[:, :, 0] * gb[:, :, 1] - ga[:, :, 1] * gb[:, :, 0])

    def _recipe(self, name):
        """(data, cols) of the map `name` ("val" or "der"), broadcast over
        missing axes: data[c, q, *shape, j] is local basis function j's
        contribution at point q of cell c and cols[c, 0, *shape, j] its
        free column."""
        cols = self._cols
        if self.kind in ("p1", "multiplier"):
            if name == "val":
                return self.vals[None], cols
            return self.grads.transpose(0, 2, 1)[:, None], cols[:, :, None]
        if self.kind == "mini":
            # DOF 2s+d is scalar basis s times the unit vector e_d
            vcols = cols.reshape(len(cols), 1, 4, 2).transpose(0, 1, 3, 2)
            if name == "val":
                return self.vals[None, :, None, :], vcols
            return (self.grads.transpose(0, 1, 3, 2)[:, :, None],
                    vcols[:, :, :, None])
        if name == "val":
            return self.wvals.transpose(0, 1, 3, 2), cols[:, :, None]
        return self.wrot[:, None], cols

    @classmethod
    def of(cls, space):
        """The tables of `space` on the six-point rule, cached on it."""
        if space.tables is None:
            space.tables = cls(space, SIX_POINT_RULE)
        return space.tables

    def _point_map(self, data, cols):
        # laid out with one slot per local basis function (a constrained
        # DOF's slot holds a zero in column 0), then every exact zero is
        # dropped, constrained slots and vanishing gradient components
        # alike, so no product with the map pays for them
        shape = ((self._mesh.num_cells, len(self.rule.weights))
                 + np.broadcast_shapes(data.shape, cols.shape)[2:])
        free = cols >= 0
        slots = np.zeros(shape)
        np.copyto(slots, data, where=free)
        slot_cols = np.zeros(shape, dtype=cols.dtype)
        np.copyto(slot_cols, cols, where=free)
        width = shape[-1]
        P = sp.csr_matrix(
            (slots.ravel(), slot_cols.ravel(),
             np.arange(0, slots.size + 1, width, dtype=cols.dtype)),
            shape=(slots.size // width, self.nfree))
        P.eliminate_zeros()
        if P.nnz < slots.size:
            # the pruned arrays may be views into the full-size ones
            P.data, P.indices = P.data.copy(), P.indices.copy()
        return P

    @cached_property
    def val(self):
        return self._point_map(*self._recipe("val"))

    @cached_property
    def der(self):
        return self._point_map(*self._recipe("der"))

    def moments(self, fq, dq=None):
        """valᵀ(w·fq) + derᵀ(w·dq) over the free DOFs; either may be None."""
        out = np.zeros(self.nfree)
        if fq is not None:
            out += self.val.T @ _per_row(self.w, np.ravel(fq))
        if dq is not None:
            out += self.der.T @ _per_row(self.w, np.ravel(dq))
        return out


def _per_row(w, r):
    """r (..., rows), laid out like a point map's rows, with each
    point's rows scaled by its weight w[point]."""
    return np.repeat(w, r.shape[-1] // len(w)) * r


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


def assemble_stokes(velocity, pressure, nu=1.0):
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
    tv = CellTables.of(velocity)
    tp = CellTables.of(pressure)

    # Jacobian rows are (d_x v_x, d_y v_x, d_x v_y, d_y v_y) per point
    div = tv.der[0::4] + tv.der[3::4]
    w = tv.w  # one point layout, so the weights of both tables
    X = _gram(tv.der, w)
    return OperatorSet(
        R=_gram(tv.val, w),
        A=nu * X,
        B=-_gram(tp.val, w, div),
        X=X,
        M=_gram(tp.val, w),
        primal=velocity,
        multiplier=pressure,
        mean_row=tp.val.T @ w,
    )


def assemble_eddy2d(edge, multiplier, sigma=1.0, eps=1.0, mu_mag=1.0):
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
    in_cond = edge.mesh.cell_subdomain == meshmod.CONDUCTOR
    if not in_cond.any() or sigma <= 0.0:
        raise NoConductorCells("degenerate mass term has empty support")

    te = CellTables.of(edge)
    tm = CellTables.of(multiplier)
    w = te.w  # one point layout, so the weights of both tables
    rot = _gram(te.der, w)
    return OperatorSet(
        R=sigma * _gram(te.val, w * np.repeat(in_cond, len(te.rule.weights))),
        A=rot / mu_mag,
        B=eps * _gram(tm.der, w, te.val),
        X=_gram(te.val, w) + rot,
        M=_gram(tm.val, w) + _gram(tm.der, w),
        primal=edge,
        multiplier=multiplier,
        mean_row=None,
    )


def assemble_load(space, f, t):
    """Free-DOF load vector of f at time t.

    f is either a pointwise callable, mapping (points (m, 2), t) to (m,)
    for scalar kinds or (m, 2) for vector kinds, whose moments against
    the basis are taken afresh; or a separable load (factors, profiles)
    as a case lists it (see problems.py).  Its moments L (K, n_free),
    one row per (value, rot) profile pair, come from one
    `profiles(tab.qp)` pass on the first call with those profiles and
    are kept on the space's tables; every call returns a(t) @ L.
    """
    tab = CellTables.of(space)
    if callable(f):
        return tab.moments(f(tab.qp, t))
    factors, profiles = f
    if tab.load is None or tab.load[0] is not profiles:
        tab.load = profiles, np.array([tab.moments(value, rot)
                                       for value, rot in profiles(tab.qp)])
    return np.array([a(t) for a in factors]) @ tab.load[1]
