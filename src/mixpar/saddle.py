"""Per-step block saddle solves and discrete inf-sup / coercivity probes.

The block system is [[A_dt, B^T], [B, 0]], optionally bordered by a
scalar mean-value row that pins the pressure gauge without breaking
symmetry.  Solves use a sparse LU factorization (deterministic for a
fixed input); probes are dense and guarded to desk-scale sizes.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = [
    "BlockSaddleSystem", "SaddleSolver", "solve", "kernel_basis",
    "estimate_infsup", "estimate_garding",
    "SingularSystem", "ResidualTooLarge", "NotDenseFeasible", "EmptyKernel",
    "DENSE_LIMIT",
]

DENSE_LIMIT = 3000


class SingularSystem(RuntimeError):
    """Factorization failed or produced non-finite values."""


class ResidualTooLarge(RuntimeError):
    """Solve finished but the block residual exceeds the tolerance."""


class NotDenseFeasible(ValueError):
    """Dense probe requested beyond the desk-scale DOF limit."""


class EmptyKernel(ValueError):
    """The discrete kernel is trivial; the coercivity probe is vacuous."""


class SolveInfo(NamedTuple):
    block_residual: float
    constraint_residual: float


@dataclass
class BlockSaddleSystem:
    """One per-step system: A_dt u + B^T lam = F, B u (+ m s) = G."""

    A_dt: sp.spmatrix
    B: sp.spmatrix
    F: np.ndarray
    G: np.ndarray
    mean_row: np.ndarray | None = None


class SaddleSolver:
    """Factor the block matrix once and solve for many right-hand sides."""

    def __init__(self, A_dt, B, mean_row=None, residual_tol=1e-10):
        self.n = A_dt.shape[0]
        self.m = B.shape[0]
        if B.shape[1] != self.n:
            raise ValueError("B column count does not match A_dt")
        self.residual_tol = residual_tol
        blocks = [[A_dt, B.T], [B, None]]
        if mean_row is not None:
            mcol = sp.csr_matrix(
                (mean_row, (np.arange(self.m), np.zeros(self.m, dtype=np.intp))),
                shape=(self.m, 1),
            )
            blocks = [
                [A_dt, B.T, None],
                [B, None, mcol],
                [None, mcol.T, None],
            ]
        self.K = sp.bmat(blocks, format="csc")
        self.B = sp.csr_matrix(B)
        self.mean_row = mean_row
        try:
            self.lu = spla.splu(self.K)
        except RuntimeError as err:
            raise SingularSystem(str(err)) from err

    def solve(self, F, G):
        rhs = np.zeros(self.K.shape[0])
        rhs[: self.n] = F
        rhs[self.n : self.n + self.m] = G
        z = self.lu.solve(rhs)
        if not np.all(np.isfinite(z)):
            raise SingularSystem("factorization produced non-finite solution")
        scale = max(1.0, float(np.linalg.norm(rhs)))
        rel = float(np.linalg.norm(self.K @ z - rhs)) / scale
        if rel > self.residual_tol:
            raise ResidualTooLarge(f"relative residual {rel:.3e}")
        u = z[: self.n]
        lam = z[self.n : self.n + self.m]
        constraint = float(np.linalg.norm(self.B @ u - G))
        return u, lam, SolveInfo(rel, constraint)


def solve(system, residual_tol=1e-10):
    """Solve one BlockSaddleSystem; returns (u, lam, SolveInfo)."""
    solver = SaddleSolver(system.A_dt, system.B, system.mean_row, residual_tol)
    return solver.solve(system.F, system.G)


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
    problem  B X^{-1} B^T q = beta^2 M q.  `project_out`, when given, is
    a row functional whose kernel the multiplier space is restricted to
    (the pressure mean for the Stokes pair).
    """
    n = X.shape[0]
    if n > DENSE_LIMIT:
        raise NotDenseFeasible(f"{n} primal DOFs exceed {DENSE_LIMIT}")
    Xd = np.asarray(sp.csr_matrix(X).todense())
    Bd = np.asarray(sp.csr_matrix(B).todense())
    Md = np.asarray(sp.csr_matrix(M).todense())
    S = Bd @ scipy.linalg.solve(Xd, Bd.T, assume_a="pos")
    S = 0.5 * (S + S.T)
    if project_out is not None:
        Z = scipy.linalg.null_space(np.atleast_2d(project_out))
        S = Z.T @ S @ Z
        Md = Z.T @ Md @ Z
    if S.shape[0] == 0:
        return 0.0
    eigs = scipy.linalg.eigh(S, Md, eigvals_only=True)
    return float(np.sqrt(max(eigs[0], 0.0)))


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
