"""Global operator assembly for the Stokes and eddy-current instances.

Every operator is a weighted Gram product Pᵀ diag(w) Q of the sparse
point maps of `CellTables` (field values or derivatives at the
quadrature points), so the operators, the load and the error norms use
one quadrature path.  The maps act on free coefficients, so operators
live on the free DOFs of their spaces (essential conditions are
homogeneous), and they store no exact zeros.  The MINI velocity space is
one scalar P1+bubble space per component, so its maps are scalar and its
vector operators are the scalar Gram products interleaved as S ⊗ I₂.
Sparse products run in a fixed order, so serial runs produce
bitwise-identical matrices.
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
    `der` to the gradient (p1, multiplier, mini) or the scalar curl
    (edge).  The mini maps are scalar: their columns are the scalar free
    layout, the free vertices then the bubbles, and the free vector DOF
    2s+d is scalar function s times e_d (`ncomp` = 2 components, 1 on
    every other kind).  `apply` takes coefficient vectors to the field
    at the points, mini fields with value rows (point, component) and
    Jacobian rows (point, component, direction); `adjoint` and `moments`
    apply the transposes, and every operator is a weighted product of
    the maps (see `_gram`).  `load` holds the moments of the last
    separable load (see `assemble_load`).

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
        self.ncomp = k = 2 if self.kind == "mini" else 1
        # free column of each scalar cell function, -1 on constrained DOFs
        # and on every cell the space does not cover: a mini cell's DOFs
        # are (function, component) pairs whose free DOFs are 2s, 2s+1 or
        # both constrained, and -1 // 2 stays -1
        cell_dofs = space.cell_dofs[:, ::k]
        cols = np.full((mesh.num_cells, cell_dofs.shape[1]), -1,
                       dtype=np.int32)
        cols[space.active_cells] = space.free_index(cell_dofs) // k
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
        if self.kind == "edge":
            if name == "val":
                return self.wvals.transpose(0, 1, 3, 2), cols[:, :, None]
            return self.wrot[:, None], cols
        # the scalar bases: gradients per cell (p1, multiplier) or per
        # point (mini), rows (point, direction)
        if name == "val":
            return self.vals[None], cols
        g = self.grads
        if g.ndim == 3:
            g = g[:, None]
        return g.transpose(0, 1, 3, 2), cols[:, :, None]

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
            shape=(slots.size // width, self.nfree // self.ncomp))
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

    def _rows(self, P):
        # (points, scalar rows a point) of the map P
        m = self._mesh.num_cells * len(self.rule.weights)
        return m, P.shape[0] // m

    def _fields(self, name, C):
        # the fields of the coefficient rows C (K, nfree) as a view (K,
        # points, ncomp, scalar rows a point) of one product with the map:
        # the components of each row go side by side as its columns
        P, k = getattr(self, name), self.ncomp
        m, r = self._rows(P)
        K, n = len(C), P.shape[1]
        Y = P @ C.reshape(K, n, k).transpose(1, 0, 2).reshape(n, K * k)
        return Y.reshape(m, r, K, k).transpose(2, 0, 3, 1)

    def apply(self, name, C):
        """The map `name` ("val" or "der") applied to the coefficient
        vectors C (..., nfree): the fields at the points, (..., rows),
        with each component's rows after its point's (mini: value rows
        (point, component), Jacobian rows (point, component, direction))."""
        F = self._fields(name, np.reshape(C, (-1, self.nfree)))
        return F.reshape(*np.shape(C)[:-1], np.prod(F.shape[1:], dtype=int))

    def residual(self, name, V, C):
        """V - apply(name, C) for the coefficient rows C (K, nfree) and
        point values V of K rows laid out like the fields (any shape),
        computed in V's memory: (K, rows)."""
        F = self._fields(name, C)
        V = V.reshape(F.shape)
        V -= F
        return V.reshape(len(F), np.prod(F.shape[1:], dtype=int))

    def adjoint(self, name, Z, w):
        """The weighted transpose of `apply`: Fᵀ diag(w) Z for Z (...,
        rows) laid out like the fields and w one weight per point, as
        (..., nfree)."""
        P, k = getattr(self, name), self.ncomp
        m, r = self._rows(P)
        lead = np.shape(Z)[:-1]
        K = int(np.prod(lead))
        # the weighted copy is laid out as the map's rows need, so the
        # reshape copies nothing
        Z = np.multiply(w[:, None, None, None],
                        np.reshape(Z, (K, m, k, r)).transpose(1, 3, 0, 2),
                        order="C")
        Y = P.T @ Z.reshape(m * r, K * k)
        return Y.reshape(P.shape[1], K, k).transpose(1, 0, 2).reshape(
            *lead, self.nfree)

    def moments(self, fq, dq=None):
        """valᵀ(w·fq) + derᵀ(w·dq) over the free DOFs; either may be None."""
        out = np.zeros(self.nfree)
        if fq is not None:
            out += self.adjoint("val", np.ravel(fq), self.w)
        if dq is not None:
            out += self.adjoint("der", np.ravel(dq), self.w)
        return out


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


def _interleave(S):
    """S ⊗ I₂ of a CSR matrix S: row 2s+d holds row s of S at the columns
    2t+d, in S's order, one CSR build and no products."""
    c = np.diff(S.indptr)
    indptr = np.empty(2 * len(c) + 1, dtype=S.indptr.dtype)
    indptr[0::2] = 2 * S.indptr
    indptr[1::2] = S.indptr[:-1] + S.indptr[1:]
    # entry e of row s goes to slot indptr[s] + e of row 2s, and c[s]
    # slots further, into row 2s+1
    first = np.repeat(S.indptr[:-1], c) + np.arange(S.nnz)
    second = first + np.repeat(c, c)
    data = np.empty(2 * S.nnz)
    indices = np.empty(2 * S.nnz, dtype=S.indices.dtype)
    data[first] = data[second] = S.data
    indices[first] = 2 * S.indices
    indices[second] = 2 * S.indices + 1
    return sp.csr_matrix((data, indices, indptr),
                         shape=(2 * S.shape[0], 2 * S.shape[1]))


def assemble_stokes(velocity, pressure, nu=1.0):
    """Operators of the transient Stokes instance on the MINI pair.

    R is the vector L2 mass, A = nu * vector stiffness, and
    B[q, v] = -int q div(v), so the multiplier equation reads B u = 0.
    X (the H1_0 inner product) is the Gram matrix of the Jacobian,
    making A = nu * X an exact matrix identity.  The velocity maps are
    scalar, so R and X are the scalar mass and stiffness interleaved as
    R_s ⊗ I₂ and X_s ⊗ I₂, and div(v) reads the gradient row of each
    component's direction.
    """
    if velocity.mesh is not pressure.mesh:
        raise SpaceMismatch("velocity and pressure live on different meshes")
    if velocity.kind != "mini" or pressure.kind != "p1":
        raise SpaceMismatch("expected mini velocity and p1 pressure")
    tv = CellTables.of(velocity)
    tp = CellTables.of(pressure)

    # div of vector DOF 2s+d at point p is d_d of scalar function s: the
    # gradient rows (p, d) of the scalar map become row p's column 2s+d
    der = tv.der
    parity = np.arange(der.shape[0], dtype=der.indices.dtype) % 2
    div = sp.csr_matrix(
        (der.data, 2 * der.indices + np.repeat(parity, np.diff(der.indptr)),
         der.indptr[::2]), shape=(der.shape[0] // 2, velocity.num_free))
    w = tv.w  # one point layout, so the weights of both tables
    X = _interleave(_gram(der, w))
    return OperatorSet(
        R=_interleave(_gram(tv.val, w)),
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
