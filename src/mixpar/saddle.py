"""Per-step block saddle solves and discrete inf-sup / coercivity probes.

The block system K = [[A, B^T], [B, 0]] of a level is factored without
any dense border row or column, by SuperLU (deterministic for a fixed
input) in symmetric mode: rows and columns in one order, and diagonal
pivots kept unless below 0.1 of their column's largest entry (see
SPLU_OPTIONS).  A `SaddleSolver` is built from the (1,1) block A and
the level's `OperatorSet`, which gives the rest of its layout: B, the
gauge row it drops, the MINI cell bubbles it eliminates by their
diagonal (they couple to no other bubble) and the order of the
unknowns left, `dissection_order`, one nested dissection of the mesh
lattice for Stokes and eddy alike, computed once per level.  It fills
28% less than minimum degree on Stokes n=64 and 39% less on eddy n=96.
On Stokes n=64 the Schur complement SuperLU factors has 12,162 of K's
28,546 unknowns and fills 1,667,014 against K's 1,860,840, for nu and
dt across the validity range, as it is equilibrated (unscaled: 8,822,634
at nu = 100).

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
    """Factor a level's block matrix once and solve for many right-hand sides.

    K = [[A, B^T], [B, 0]] couples the given (1,1) block A to the level's
    constraint B; `ops`, the level's `OperatorSet`, also gives the gauge
    `mean_row` and the primal space's cell bubbles, its last
    `num_bubbles` unknowns (none on the edge space).  A bubble couples to
    no other: their block D of A must be diagonal, and it is eliminated
    by D before factoring, so SuperLU factors only the Schur complement
    S = K_rr - C D^{-1} C^T of the remaining unknowns r, with C = [A_rb;
    B_b] their coupling, in the level's `dissection_order`, computed on
    its first factorization and kept on `ops`.  Each solve forms
    r - C D^{-1} F_b, solves with S and recovers u_b = (F_b - C^T z_r) / D.
    SuperLU factors E S E, symmetric Jacobi equilibration (Duff & Pralet
    2005) with E = |diag S|^{-1/2} (`scale`), when S has no zero on its
    diagonal (every Stokes S; the eddy multiplier block is zero, so E = I
    there), solves E S E y = E r and sets z = E y.
    `solve` takes and returns vectors in K's numbering, and the residual
    guard checks the whole system, with `BT`, the CSR B^T formed once.

    `fill` is the number of L and U entries SuperLU stores: `SuperLU.nnz`
    of E S E; building the L and U matrices to count them would add about
    30 MiB to the peak memory of a Stokes study at n=64.

    With `mean_row`, lam is unique only up to a constant (B^T 1 = 0): the
    first constraint row is left out of the factored matrix and lam is
    shifted so that mean_row @ lam = 0.  The residual guard checks the
    full system, so an incompatible G (1^T G != 0) is still rejected.
    """

    def __init__(self, A, ops):
        n = A.shape[0]
        self.B = sp.csr_matrix(ops.B)
        if self.B.shape[1] != n:
            raise ValueError("B column count does not match A")
        self.A = sp.csr_matrix(A)
        self.mean_row = ops.mean_row
        self.dropped = int(ops.mean_row is not None)
        # every valid (1,1) block has a positive diagonal; a zero one (say
        # dt * A underflowing off the conductor) can crash SuperLU
        diagonal = self.A.diagonal()
        if not np.all(diagonal > 0):
            raise SingularSystem("(1,1) block has a non-positive diagonal")
        self.kept = n - ops.primal.num_bubbles
        self.D = diagonal[self.kept:]
        self.order = _level_order(ops)
        S, self.C, self.CT = _block_matrix(self.A, self.B[self.dropped:],
                                           self.D, self.order)
        # E S E in place, so the matrix is never held twice
        magnitude = np.abs(S.diagonal())
        self.scale = (1.0 / np.sqrt(magnitude) if np.all(magnitude > 0)
                      else np.ones(len(magnitude)))
        S.data *= self.scale[S.indices]
        S.data *= np.repeat(self.scale, np.diff(S.indptr))
        try:
            self.lu = spla.splu(S, **SPLU_OPTIONS)
        except RuntimeError as err:
            raise SingularSystem(str(err)) from err
        self.fill = self.lu.nnz
        # formed after the factorization, whose peak memory it would add to
        self.BT = self.B.T.tocsr()

    def solve(self, F, G):
        kept = self.kept
        rhs = np.concatenate([F[:kept], G[self.dropped:]])
        rhs -= self.C @ (F[kept:] / self.D)
        z = np.empty_like(rhs)
        z[self.order] = self.scale * self.lu.solve(self.scale
                                                   * rhs[self.order])
        u = np.concatenate([z[:kept], (F[kept:] - self.CT @ z) / self.D])
        lam = np.concatenate([np.zeros(self.dropped), z[kept:]])
        if not (np.all(np.isfinite(u)) and np.all(np.isfinite(lam))):
            raise SingularSystem("factorization produced non-finite solution")
        if self.mean_row is not None:
            lam -= (self.mean_row @ lam) / self.mean_row.sum()
        constraint = float(np.linalg.norm(self.B @ u - G))
        primal = float(np.linalg.norm(self.A @ u + self.BT @ lam - F))
        # relative to the right-hand side; a zero one must be met exactly
        residual = float(np.hypot(primal, constraint))
        scale = float(np.hypot(np.linalg.norm(F), np.linalg.norm(G)))
        if residual > RESIDUAL_TOL * scale:
            raise ResidualTooLarge(
                f"residual {residual:.3e} against right-hand side {scale:.3e}")
        return u, lam, SolveInfo(residual / (scale or 1.0), constraint)


def _level_order(ops):
    """`dissection_order(ops)`, computed on the level's first call and kept
    on `ops` for the others."""
    if "_order" not in vars(ops):
        ops._order = dissection_order(ops)
    return ops._order


def _block_matrix(A, B1, D, order):
    """(S, C, Cᵀ): the Schur complement S = K_rr - C D^{-1} C^T of
    K = [[A, B1ᵀ], [B1, 0]] in CSC, with `order` as S[order][:, order],
    and the coupling C = [A_rb; B1_b] and its transpose in CSR.  The
    unknowns b are the last len(D) of A (none for an empty D), whose
    block of A must be diagonal, with diagonal D; r are the others,
    numbered as in K without b.  A is symmetric: of its rows b only that
    block is read.

    One COO pass with int32 indices splits K's entries into those of
    K_rr and of C; entry (i, j) of S goes to (rank[i], rank[j]), where
    rank inverts `order`, duplicates summed, and the triplets are freed
    on return.  Built directly, as fancy indexing of a sparse matrix may
    warn.
    """
    kept = A.shape[0] - len(D)
    size = kept + B1.shape[0]
    A = A.tocoo(copy=False)
    B = B1.tocoo(copy=False)
    rows_r, cols_r = A.row < kept, A.col < kept
    if np.any(A.data[~rows_r & ~cols_r & (A.row != A.col)]):
        raise SingularSystem("eliminated block is not diagonal")
    rr, rb, br = rows_r & cols_r, rows_r & ~cols_r, B.col < kept
    C = sp.csr_matrix((np.concatenate([A.data[rb], B.data[~br]]),
                       (np.concatenate([A.row[rb], B.row[~br] + kept]),
                        np.concatenate([A.col[rb], B.col[~br]]) - kept)),
                      shape=(size, len(D)))
    CT = C.T.tocsr()
    scaled = C.copy()
    scaled.data /= D[scaled.indices]
    W = (scaled @ CT).tocoo()
    del scaled, rows_r, cols_r, rb
    Br = B.row[br] + kept
    rows = np.concatenate([A.row[rr], B.col[br], Br, W.row], dtype=np.int32)
    cols = np.concatenate([A.col[rr], Br, B.col[br], W.col], dtype=np.int32)
    data = np.concatenate([A.data[rr], B.data[br], B.data[br], -W.data])
    del A, B, W, Br, rr, br
    rank = np.empty(size, dtype=np.int32)
    rank[order] = np.arange(size, dtype=np.int32)
    rows = rank[rows]
    cols = rank[cols]
    return sp.csc_matrix((data, (rows, cols)), shape=(size, size)), C, CT


def dissection_order(ops):
    """Nested-dissection order of the unknowns SuperLU factors.

    Those are the unknowns of the block matrix K without the cell bubbles,
    which `SaddleSolver` eliminates first (eliminating one couples only
    the unknowns at its cell's vertices), and without the pressure row
    dropped for the gauge (`mean_row`), numbered as in K without them.
    Each sits on the doubled mesh lattice: a vertex DOF (velocity,
    pressure or multiplier) at twice its vertex's lattice index, an edge
    DOF at the sum of its two ends'.  The eddy multiplier's interface
    constants, each shared by the vertices of an interface component,
    couple the whole interface and come last.  The lattice points in
    between are bisected recursively along the middle grid line of the
    longer side of their box (the vertical line on a tie).  No cell
    straddles a grid line, so the points on it separate the two halves
    (no entry of K couples them), and they are ordered after both.
    Boxes of at most 2x2 squares are leaves, their points and a
    separator's in lexicographic (y, x) order, and the unknowns of one
    point keep their order in K (a Stokes vertex's free u_x, u_y, p).
    Lattice indices come from the vertex coordinates, where the crossed
    pattern's square centres sit between the grid lines.
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

    # each unknown's point as y * width + x; `last` (an interface
    # constant) puts it last
    last = width * height
    at = 2 * (iy * width + ix)
    if V.kind == "edge":
        primal = at[V.mesh.edges].sum(axis=1) // 2
    else:
        primal = np.repeat(at, 2)
    shared = np.bincount(Q.vertex_dof[Q.vertex_dof >= 0]) > 1
    multiplier = np.where(shared, last, at[Q.dof_vertex])
    dropped = int(ops.mean_row is not None)
    code = np.concatenate([primal[V.free[:V.num_free - V.num_bubbles]],
                           multiplier[Q.free][dropped:]])
    lattice = ranks(width - 1, height - 1).ravel()
    rank = np.append(lattice, lattice.max() + 1)
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


def estimate_infsup(ops):
    """Discrete inf-sup constant of the level's b over X and M.

    Computed as sqrt of the smallest eigenvalue of the generalized
    problem  B X^{-1} B^T q = beta^2 M q, through a `SaddleSolver` of X:
    the solve with right-hand side (0, q) returns
    lam = -(B X^{-1} B^T)^{-1} q.  The gauge `mean_row`, when the level
    has one, restricts the multiplier space to its kernel (the pressure
    mean for the Stokes pair).  It is M 1 with B^T 1 = 0, and pins the
    solver's gauge; each q is projected onto 1^T q = 0 along it, which
    makes 1 an eigenvector of the solves for the eigenvalue 0.  A zero B
    gives 0; any other rank-deficient B leaves the saddle matrix
    singular, and the probe raises.
    """
    mean_row = ops.mean_row
    first = 0 if mean_row is None else 1
    if ops.B.shape[0] <= first or sp.csr_matrix(ops.B).count_nonzero() == 0:
        return 0.0
    solver = SaddleSolver(ops.X, ops)
    zeros = np.zeros(ops.X.shape[0])

    def solve(q):
        if mean_row is not None:
            q = q - mean_row * (q.sum() / mean_row.sum())
        return -solver.solve(zeros, q)[1]
    beta2 = _bottom_eigenvalue("inf-sup probe", solve, ops.M)
    return float(np.sqrt(max(beta2, 0.0)))


def estimate_coercivity(ops, xi, shift, lift):
    """Coercivity constant of A + xi R on the level's discrete kernel,
    sparsely.

    Returns shift + the smallest eigenvalue of (A + xi R - shift X, X)
    on {v : B v = 0}, the sparse counterpart of `estimate_garding`.
    `shift` must be the smallest eigenvalue of (A, X) on that kernel,
    known from the discretization (nu for Stokes, where A = nu X; 0 for
    eddy, where discrete gradients supported in the conductor lie in
    ker A and ker B), and xi >= 0.  The shifted pencil (K, X) is then
    positive semidefinite, and shift-invert Lanczos about 0 finds the
    bottom of (K + s X, X), less s, with s = lift tr(K) / tr(X).  Each
    step solves the saddle system of K + s X through a `SaddleSolver`;
    the residual of that solve grows as 1 / (bottom + s), so the lift
    keeps a small bottom within RESIDUAL_TOL.  At xi = 0, K is singular
    on the kernel and the answer is `shift` itself.
    """
    if xi == 0:
        return float(shift)
    X = ops.X
    K = (ops.A - shift * X) + xi * ops.R
    s = lift * K.diagonal().sum() / X.diagonal().sum()
    solver = SaddleSolver(K + s * X, ops)
    zeros = np.zeros(ops.B.shape[0])
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
