"""Per-step block saddle solves and discrete inf-sup / coercivity probes.

The block system K = [[A_dt, B^T], [B, 0]] is factored without any
dense border row or column.  Solves use a sparse LU factorization
(deterministic for a fixed input) in SuperLU's symmetric mode: a
minimum-degree ordering of the pattern of K^T + K, applied to rows and
columns alike, and diagonal pivots kept unless they fall below 0.1 of
the largest entry in their column (see SPLU_OPTIONS).

The runtime probes are sparse: `estimate_infsup` factors X and solves
for all of B^T at once, keeping only a dense eigensolve the width of the
multiplier space; `estimate_coercivity` runs shift-invert Lanczos on
the kernel pencil through a `SaddleSolver`.  `kernel_basis` and
`estimate_garding` are their dense oracles, guarded to desk-scale sizes.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = [
    "SaddleSolver", "kernel_basis",
    "estimate_infsup", "estimate_coercivity", "estimate_garding",
    "SingularSystem", "ResidualTooLarge", "NotDenseFeasible", "EmptyKernel",
    "DENSE_LIMIT", "RESIDUAL_TOL", "SPLU_OPTIONS",
]

DENSE_LIMIT = 3000
# relative block residual above which a solve is rejected
RESIDUAL_TOL = 1e-10
# K is structurally symmetric: order K^T + K by minimum degree and keep
# the diagonal pivots that ordering relies on.  Full partial pivoting
# (diag_pivot_thresh=1.0) undoes the ordering and fills more than the
# default COLAMD; 0.0 keeps tiny diagonal pivots and loses all accuracy
# on the eddy matrix (relative residual about 10).
SPLU_OPTIONS = dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.1,
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

    `fill` is the number of L and U entries SuperLU stores
    (`SuperLU.nnz`; building the L and U matrices to count them would
    add about 30 MiB to the peak memory of a Stokes study at n=64).

    With `mean_row`, lam is unique only up to a constant (B^T 1 = 0): the
    first constraint row is left out of the factored matrix and lam is
    shifted so that mean_row @ lam = 0.  The residual guard checks the
    full system, so an incompatible G (1^T G != 0) is still rejected.
    """

    def __init__(self, A_dt, B, mean_row=None):
        self.n = A_dt.shape[0]
        if B.shape[1] != self.n:
            raise ValueError("B column count does not match A_dt")
        self.A_dt = sp.csr_matrix(A_dt)
        self.B = sp.csr_matrix(B)
        self.mean_row = mean_row
        self.dropped = 0 if mean_row is None else 1
        # every valid (1,1) block has a positive diagonal; a zero one (say
        # dt * A underflowing off the conductor) can crash SuperLU
        if not np.all(self.A_dt.diagonal() > 0):
            raise SingularSystem("(1,1) block has a non-positive diagonal")
        B1 = self.B[self.dropped:]
        K = sp.bmat([[self.A_dt, B1.T], [B1, None]], format="csc")
        try:
            self.lu = spla.splu(K, **SPLU_OPTIONS)
        except RuntimeError as err:
            raise SingularSystem(str(err)) from err
        self.fill = self.lu.nnz

    def solve(self, F, G):
        z = self.lu.solve(np.concatenate([F, G[self.dropped:]]))
        if not np.all(np.isfinite(z)):
            raise SingularSystem("factorization produced non-finite solution")
        u = z[: self.n]
        lam = np.concatenate([np.zeros(self.dropped), z[self.n :]])
        if self.mean_row is not None:
            lam -= (self.mean_row @ lam) / self.mean_row.sum()
        constraint = float(np.linalg.norm(self.B @ u - G))
        primal = float(np.linalg.norm(self.A_dt @ u + self.B.T @ lam - F))
        scale = max(1.0, float(np.hypot(np.linalg.norm(F), np.linalg.norm(G))))
        rel = float(np.hypot(primal, constraint)) / scale
        if rel > RESIDUAL_TOL:
            raise ResidualTooLarge(f"relative residual {rel:.3e}")
        return u, lam, SolveInfo(rel, constraint)


def kernel_basis(B):
    """Orthonormal basis of the discrete kernel {v : B v = 0}, dense."""
    n = B.shape[1]
    if n > DENSE_LIMIT:
        raise NotDenseFeasible(f"{n} primal DOFs exceed {DENSE_LIMIT}")
    if B.shape[0] == 0:
        return np.eye(n)
    return scipy.linalg.null_space(np.asarray(B.todense()))


def estimate_infsup(X, B, M, project_out=None):
    """Discrete inf-sup constant of b over the given inner products.

    Computed as sqrt of the smallest eigenvalue of the generalized
    problem  B X^{-1} B^T q = beta^2 M q, with X factored sparsely.
    `project_out`, when given, restricts the multiplier space to its
    kernel (the pressure mean for the Stokes pair).  It must be M z for
    a null vector z of B^T (mean_row = M 1 with B^T 1 = 0): z is then an
    eigenvector for the eigenvalue 0, and the restricted spectrum is the
    full one without it.
    """
    n = X.shape[0]
    if n > DENSE_LIMIT:
        raise NotDenseFeasible(f"{n} primal DOFs exceed {DENSE_LIMIT}")
    first = 0 if project_out is None else 1
    if B.shape[0] <= first:
        return 0.0
    B = sp.csr_matrix(B)
    Y = spla.splu(sp.csc_matrix(X)).solve(B.T.toarray())
    S = B @ Y
    S = 0.5 * (S + S.T)
    if not np.all(np.isfinite(S)):
        raise SingularSystem("inf-sup probe: B X^-1 B^T is not finite")
    Md = sp.csr_matrix(M).toarray()
    eig = scipy.linalg.eigh(S, Md, eigvals_only=True,
                            subset_by_index=[first, first])
    return float(np.sqrt(max(eig[0], 0.0)))


def estimate_coercivity(A, R, X, B, xi, shift, mean_row=None):
    """Coercivity constant of A + xi R on the discrete kernel, sparsely.

    Returns shift + the smallest eigenvalue of (A + xi R - shift X, X)
    on {v : B v = 0}, the sparse counterpart of `estimate_garding`.
    `shift` must be the smallest eigenvalue of (A, X) on that kernel,
    known from the discretization (nu for Stokes, where A = nu X; 0 for
    eddy, where discrete gradients supported in the conductor lie in
    ker A and ker B), and xi >= 0.  The shifted pencil is then positive
    semidefinite, so shift-invert Lanczos about 0 finds its bottom; each
    step is one solve of the saddle system of A + xi R - shift X (with
    `mean_row` pinning the multiplier gauge as in `SaddleSolver`).  At
    xi = 0 that matrix is singular on the kernel and the answer is
    `shift` itself.  The start vector is fixed, so repeated calls agree
    bitwise.
    """
    if xi == 0:
        return float(shift)
    K = (A - shift * X) + xi * R
    solver = SaddleSolver(K, B, mean_row)
    n = K.shape[0]
    zeros = np.zeros(B.shape[0])
    inv = spla.LinearOperator((n, n), dtype=float,
                              matvec=lambda y: solver.solve(y, zeros)[0])
    try:
        mu = spla.eigsh(K, k=1, M=X, sigma=0.0, which="LM", OPinv=inv,
                        v0=inv @ (X @ np.ones(n)), return_eigenvectors=False)
    except spla.ArpackError as err:
        raise SingularSystem(f"coercivity probe: {err}") from err
    return float(shift + mu[0])


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
