"""Per-step block saddle solves and discrete inf-sup / coercivity probes.

The block system K = [[A_dt, B^T], [B, 0]] is factored without any
dense border row or column, by SuperLU (deterministic for a fixed
input) in symmetric mode: rows and columns in the caller's order, and
diagonal pivots kept unless below 0.1 of their column's largest entry
(see SPLU_OPTIONS).  The runtime's order is `dissection_order`, one
nested dissection of the mesh lattice for Stokes and eddy alike, which
fills 28% less than minimum degree on Stokes n=64, 39% less on eddy n=96.
The MINI cell bubbles, which that order ranks first, couple to no other
bubble: the solver eliminates them by their diagonal and factors only
the Schur complement of the other unknowns, which on Stokes n=64 has
12,162 of K's 28,546 unknowns and fills 1,667,014 against K's 1,860,840.

Both runtime probes run shift-invert Lanczos through a `SaddleSolver`:
`estimate_infsup` on the Schur pencil (B X^{-1} B^T, M) and
`estimate_coercivity` on the kernel pencil.  `kernel_basis` and
`estimate_garding` are their dense oracles, guarded to desk-scale sizes.
"""
from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = [
    "SaddleSolver", "dissection_order", "kernel_basis",
    "estimate_infsup", "estimate_coercivity", "estimate_garding",
    "SingularSystem", "ResidualTooLarge", "NotDenseFeasible", "EmptyKernel",
    "DENSE_LIMIT", "RESIDUAL_TOL", "SPLU_OPTIONS",
]

DENSE_LIMIT = 3000
# relative block residual above which a solve is rejected
RESIDUAL_TOL = 1e-10
# K is structurally symmetric: keep the diagonal pivots its order relies
# on.  Full partial pivoting (diag_pivot_thresh=1.0) undoes the order;
# 0.0 keeps tiny diagonal pivots and loses the accuracy of the eddy
# solves (relative residual 1e-2 at n=24).
SPLU_OPTIONS = dict(permc_spec="NATURAL", diag_pivot_thresh=0.1,
                    options={"SymmetricMode": True})


class SingularSystem(RuntimeError):
    """Factorization failed or produced non-finite values, a (1,1) block
    has a diagonal entry that is not positive, a probe matrix is not
    finite, or an eigensolver iterating on a factorization did not
    converge."""


class ResidualTooLarge(RuntimeError):
    """Solve finished but the block residual exceeds the tolerance."""


class NotDenseFeasible(ValueError):
    """Dense probe requested beyond the desk-scale DOF limit."""


class EmptyKernel(ValueError):
    """The discrete kernel is trivial; the coercivity probe is vacuous."""


class SolveInfo(NamedTuple):
    block_residual: float
    constraint_residual: float


class SaddleSolver:
    """Factor the block matrix once and solve for many right-hand sides.

    SuperLU factors K[order][:, order] in the order given, a
    permutation of K's unknowns (K as it stands without one).  `solve`
    takes and returns unpermuted vectors, and the residual guard checks
    the unpermuted system, with `BT`, the CSR B^T formed once.

    The last `eliminate` primal unknowns (the MINI cell bubbles, which
    `dissection_order` ranks first) must couple to no other of their
    kind: their block D of A_dt is diagonal, and `order` ranks them
    first.  They are eliminated by D before factoring, so SuperLU
    factors only the Schur complement S = K_rr - C D^{-1} C^T of the
    remaining unknowns r, with C = [A_rb; B_b] their coupling, in
    `order` without them.  Each solve forms r - C D^{-1} F_b, solves
    with S and recovers u_b = (F_b - C^T z_r) / D.

    `fill` is the number of L and U entries SuperLU stores: `SuperLU.nnz`
    of the bubble-free factor, of S (of K when nothing is eliminated);
    building the L and U matrices to count them would add about 30 MiB
    to the peak memory of a Stokes study at n=64.

    With `mean_row`, lam is unique only up to a constant (B^T 1 = 0): the
    first constraint row is left out of the factored matrix and lam is
    shifted so that mean_row @ lam = 0.  The residual guard checks the
    full system, so an incompatible G (1^T G != 0) is still rejected.
    """

    def __init__(self, A_dt, B, mean_row=None, order=None, eliminate=0):
        self.n = A_dt.shape[0]
        if B.shape[1] != self.n:
            raise ValueError("B column count does not match A_dt")
        self.A_dt = sp.csr_matrix(A_dt)
        self.B = sp.csr_matrix(B)
        self.mean_row = mean_row
        self.dropped = 0 if mean_row is None else 1
        # every valid (1,1) block has a positive diagonal; a zero one (say
        # dt * A underflowing off the conductor) can crash SuperLU
        diagonal = self.A_dt.diagonal()
        if not np.all(diagonal > 0):
            raise SingularSystem("(1,1) block has a non-positive diagonal")
        size = self.n + self.B.shape[0] - self.dropped
        self.kept = kept = self.n - eliminate
        if order is None:
            order = np.r_[kept:self.n, :kept, self.n:size]
        elif not np.all((order[:eliminate] >= kept)
                        & (order[:eliminate] < self.n)):
            raise ValueError("order does not rank the eliminated unknowns "
                             "first")
        B1 = self.B[self.dropped:]
        self.C = None
        if eliminate:
            bb = self.A_dt[kept:, kept:].tocoo()
            if np.any(bb.data[bb.row != bb.col]):
                raise SingularSystem("eliminated block is not diagonal")
            self.D = diagonal[kept:]
            self.C = sp.vstack([self.A_dt[:kept, kept:], B1[:, kept:]],
                               format="csr")
            self.CT = self.C.T.tocsr()
            scaled = self.C.copy()
            scaled.data /= self.D[scaled.indices]
            schur = scaled @ self.CT
            del scaled
            # the rest of the order, in the numbering of S's unknowns
            order = order[eliminate:]
            order = np.where(order >= self.n, order - eliminate, order)
            K = _block_matrix(self.A_dt[:kept, :kept], B1[:, :kept], order,
                              schur)
            del schur
        else:
            K = _block_matrix(self.A_dt, B1, order)
        self.order = order
        try:
            self.lu = spla.splu(K, **SPLU_OPTIONS)
        except RuntimeError as err:
            raise SingularSystem(str(err)) from err
        self.fill = self.lu.nnz
        # formed after the factorization, whose peak memory it would add to
        self.BT = self.B.T.tocsr()

    def solve(self, F, G):
        kept = self.kept
        rhs = np.concatenate([F[:kept], G[self.dropped:]])
        if self.C is not None:
            rhs -= self.C @ (F[kept:] / self.D)
        z = np.empty_like(rhs)
        z[self.order] = self.lu.solve(rhs[self.order])
        u = z[:kept]
        if self.C is not None:
            u = np.concatenate([u, (F[kept:] - self.CT @ z) / self.D])
        lam = np.concatenate([np.zeros(self.dropped), z[kept:]])
        if not (np.all(np.isfinite(u)) and np.all(np.isfinite(lam))):
            raise SingularSystem("factorization produced non-finite solution")
        if self.mean_row is not None:
            lam -= (self.mean_row @ lam) / self.mean_row.sum()
        constraint = float(np.linalg.norm(self.B @ u - G))
        primal = float(np.linalg.norm(self.A_dt @ u + self.BT @ lam - F))
        # relative to the right-hand side; a zero one must be met exactly
        residual = float(np.hypot(primal, constraint))
        scale = float(np.hypot(np.linalg.norm(F), np.linalg.norm(G)))
        if residual > RESIDUAL_TOL * scale:
            raise ResidualTooLarge(
                f"residual {residual:.3e} against right-hand side {scale:.3e}")
        return u, lam, SolveInfo(residual / (scale or 1.0), constraint)


def _block_matrix(A_dt, B1, order, schur=None):
    """K = [[A_dt, B1ᵀ], [B1, 0]] - schur in CSC, with `order` as
    K[order][:, order].

    One COO pass with int32 indices: entry (i, j) goes to (rank[i],
    rank[j]), where rank inverts `order`, duplicates summed, and the
    triplets are freed on return.  Built directly, as fancy indexing of
    a sparse matrix may warn.
    """
    n = A_dt.shape[0]
    size = n + B1.shape[0]
    A = A_dt.tocoo(copy=False)
    B = B1.tocoo(copy=False)
    W = sp.coo_matrix((size, size)) if schur is None else schur.tocoo()
    rows = np.concatenate([A.row, B.col, B.row + n, W.row], dtype=np.int32)
    cols = np.concatenate([A.col, B.row + n, B.col, W.col], dtype=np.int32)
    data = np.concatenate([A.data, B.data, B.data, -W.data])
    del A, B, W
    rank = np.empty(size, dtype=np.int32)
    rank[order] = np.arange(size, dtype=np.int32)
    rows = rank[rows]
    cols = rank[cols]
    return sp.csc_matrix((data, (rows, cols)), shape=(size, size))


def dissection_order(ops):
    """Nested-dissection order of the unknowns of the block matrix K.

    Each free unknown sits on the doubled mesh lattice: a vertex DOF
    (velocity, pressure or multiplier) at twice its vertex's lattice
    index, an edge DOF at the sum of its two ends'.  The cell bubbles,
    on no lattice point, come first: eliminating one couples only the
    unknowns at its cell's vertices.  The eddy multiplier's interface
    constants, each shared by the vertices of an interface component,
    couple the whole interface and come last.  The lattice points in
    between are bisected recursively along the middle grid line of the
    longer side of their box (the vertical line on a tie).  No cell
    straddles a grid line, so the points on it separate the two halves
    (no entry of K couples them), and they are ordered after both.
    Boxes of at most 2x2 squares are leaves, their points and a
    separator's in lexicographic (y, x) order, and the unknowns of one
    point keep their order in K (a Stokes vertex's free u_x, u_y, p).
    The pressure row dropped for the gauge (`mean_row`, see
    SaddleSolver) is left out.  Lattice indices come from the vertex
    coordinates, where the crossed pattern's square centres sit between
    the grid lines.
    """
    V, Q = ops.primal, ops.multiplier
    xs, ix = np.unique(V.mesh.vertices[:, 0], return_inverse=True)
    ys, iy = np.unique(V.mesh.vertices[:, 1], return_inverse=True)
    width, height = 2 * len(xs) - 1, 2 * len(ys) - 1
    span = 2 if V.mesh.num_vertices == len(xs) * len(ys) else 4  # per square

    @functools.cache
    def ranks(w, h):
        # each point's rank in a w x h box's order (doubled-lattice steps):
        # an (h + 1, w + 1) grid, increasing; cached, as only sizes matter
        on_y = h > w
        longer = h if on_y else w
        # a leaf's, and the separator's before its offset: (y, x) order
        grid = np.arange((h + 1) * (w + 1)).reshape(h + 1, w + 1)
        if longer > 2 * span:
            cut = longer // (2 * span) * span
            lower = ranks(w, cut) if on_y else ranks(cut, h)
            upper = ranks(w, h - cut) if on_y else ranks(w - cut, h)
            # rows across the cut axis, so the halves are row slices
            along, lower, upper = ((grid, lower, upper) if on_y
                                   else (grid.T, lower.T, upper.T))
            along[:cut] = lower[:cut]
            along[cut + 1:] = upper[1:] + (lower.max() + 1)
            along[cut] += lower.max() + upper.max() + 2
        return grid

    # each unknown's point as 1 + y * width + x; 0 (a bubble) puts it
    # first and `last` (an interface constant) last
    last = width * height + 1
    at = 2 * (iy * width + ix) + 1
    if V.kind == "edge":
        primal = at[V.mesh.edges].sum(axis=1) // 2
    else:
        primal = np.concatenate([np.repeat(at, 2),
                                 np.zeros(V.num_bubbles, np.intp)])
    shared = np.bincount(Q.vertex_dof[Q.vertex_dof >= 0]) > 1
    multiplier = np.where(shared, last, at[Q.dof_vertex])
    dropped = int(ops.mean_row is not None)
    code = np.concatenate([primal[V.free], multiplier[Q.free][dropped:]])
    lattice = ranks(width - 1, height - 1).ravel()
    rank = np.concatenate([[-1], lattice, [lattice.max() + 1]])
    return np.argsort(rank[code], kind="stable")


def kernel_basis(B):
    """Orthonormal basis of the discrete kernel {v : B v = 0}, dense."""
    n = B.shape[1]
    if n > DENSE_LIMIT:
        raise NotDenseFeasible(f"{n} primal DOFs exceed {DENSE_LIMIT}")
    if B.shape[0] == 0:
        return np.eye(n)
    return scipy.linalg.null_space(np.asarray(B.todense()))


def _bottom_eigenvalue(what, solve, M):
    """Smallest eigenvalue of a positive semidefinite pencil (K, M), where
    solve(y) returns K^{-1} y, by shift-invert Lanczos about 0 from
    solve(M start), with start a seeded normal vector, so repeated calls
    agree bitwise."""
    n = M.shape[0]
    inv = spla.LinearOperator((n, n), dtype=float, matvec=solve)
    start = np.random.default_rng(0).standard_normal(n)
    v0 = inv @ (M @ start)
    if not np.any(v0):
        # K^{-1} M start underflowed: K's entries are beyond float range
        raise SingularSystem(f"{what}: the pencil is not finite")
    if n == 1:
        # ARPACK needs more unknowns than eigenvalues
        return start[0] / v0[0]
    try:
        # in shift-invert mode ARPACK reads only the shape of its A; a basis
        # of at most 8 vectors, not its default 20, takes fewer solves
        mu = spla.eigsh(inv, k=1, M=M, sigma=0.0, which="LM", OPinv=inv,
                        v0=v0, ncv=min(n, 8), tol=1e-10,
                        return_eigenvectors=False)
    except spla.ArpackError as err:
        raise SingularSystem(f"{what}: {err}") from err
    return mu[0]


def estimate_infsup(X, B, M, mean_row=None, order=None, eliminate=0):
    """Discrete inf-sup constant of b over the given inner products.

    Computed as sqrt of the smallest eigenvalue of the generalized
    problem  B X^{-1} B^T q = beta^2 M q, through a `SaddleSolver` of X
    factored in `order`, its last `eliminate` primal unknowns eliminated
    by their diagonal: the solve with right-hand side (0, q) returns
    lam = -(B X^{-1} B^T)^{-1} q.  `mean_row`, when given, restricts
    the multiplier space to its kernel (the pressure mean for the Stokes
    pair).  It must be M 1 with B^T 1 = 0, and pins the solver's gauge;
    each q is projected onto 1^T q = 0 along it, which makes 1 an
    eigenvector of the solves for the eigenvalue 0.  A zero B gives 0;
    any other rank-deficient B leaves the saddle matrix singular, and
    the probe raises.
    """
    n = X.shape[0]
    first = 0 if mean_row is None else 1
    if B.shape[0] <= first or sp.csr_matrix(B).count_nonzero() == 0:
        return 0.0
    solver = SaddleSolver(X, B, mean_row, order, eliminate)
    zeros = np.zeros(n)

    def solve(q):
        if mean_row is not None:
            q = q - mean_row * (q.sum() / mean_row.sum())
        return -solver.solve(zeros, q)[1]
    beta2 = _bottom_eigenvalue("inf-sup probe", solve, M)
    return float(np.sqrt(max(beta2, 0.0)))


def estimate_coercivity(A, R, X, B, xi, shift, mean_row=None, order=None,
                        lift=0.0, eliminate=0):
    """Coercivity constant of A + xi R on the discrete kernel, sparsely.

    Returns shift + the smallest eigenvalue of (A + xi R - shift X, X)
    on {v : B v = 0}, the sparse counterpart of `estimate_garding`.
    `shift` must be the smallest eigenvalue of (A, X) on that kernel,
    known from the discretization (nu for Stokes, where A = nu X; 0 for
    eddy, where discrete gradients supported in the conductor lie in
    ker A and ker B), and xi >= 0.  The shifted pencil (K, X) is then
    positive semidefinite, and shift-invert Lanczos about 0 finds the
    bottom of (K + s X, X), less s, with s = lift tr(K) / tr(X).  Each
    step solves the saddle system of K + s X, factored in `order` (with
    `mean_row` pinning the multiplier gauge and the last `eliminate`
    primal unknowns eliminated, as in `SaddleSolver`); the residual of
    that solve grows as 1 / (bottom + s), so the lift keeps a small
    bottom within RESIDUAL_TOL.  At xi = 0, K is singular on the
    kernel and the answer is `shift` itself.
    """
    if xi == 0:
        return float(shift)
    K = (A - shift * X) + xi * R
    s = lift * K.diagonal().sum() / X.diagonal().sum()
    solver = SaddleSolver(K + s * X, B, mean_row, order, eliminate)
    zeros = np.zeros(B.shape[0])
    mu = _bottom_eigenvalue("coercivity probe",
                            lambda y: solver.solve(y, zeros)[0], X)
    return float(shift + mu - s)


def estimate_garding(A, R, X, kernel, xi=1.0):
    """Coercivity constant of A + xi R on the discrete kernel.

    `kernel` is a dense basis of {v : B v = 0} (see kernel_basis).
    Returns the smallest generalized eigenvalue of
    Z^T (A + xi R) Z  versus  Z^T X Z.
    """
    Z = np.asarray(kernel)
    if Z.ndim != 2 or Z.shape[1] == 0:
        raise EmptyKernel("discrete kernel is trivial")
    if Z.shape[0] > DENSE_LIMIT:
        raise NotDenseFeasible(f"{Z.shape[0]} primal DOFs exceed {DENSE_LIMIT}")
    Ak = Z.T @ ((A + xi * R) @ Z)
    Ak = 0.5 * (Ak + Ak.T)
    Xk = Z.T @ (X @ Z)
    Xk = 0.5 * (Xk + Xk.T)
    eigs = scipy.linalg.eigh(Ak, Xk, eigvals_only=True)
    return float(eigs[0])
