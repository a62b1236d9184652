"""Small batched linear-algebra kernels on stacks of tiny matrices.

Everything here operates on arrays of shape (m, q, q) / (m, q, k) with q
of the order of a handful; loops run over q only, so the cost is a few
vectorized operations per batch.  Sigma^{-1} x products are always routed
through the stored Cholesky factor (two triangular solves); explicit
inverses are formed only by solving against the identity.

For q = 1, ``chol_inverse`` is 1 / P / P, the floating-point operations
of its q-loops; the likelihood's scalar path forms Sigma^{-1} through it
and does its other q = 1 arithmetic itself.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "solve_lower",
    "solve_upper_t",
    "chol_solve",
    "chol_inverse",
    "phi_lower",
    "logdet_from_chol",
]


def solve_lower(L: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Solve L X = B by forward substitution; L (m,q,q) lower, B (m,q,k)."""
    q = L.shape[-1]
    diag = L.diagonal(0, 1, 2)[:, :, None]
    X = np.empty_like(B)
    for i in range(q):
        acc = B[:, i]
        if i:
            acc = acc - np.einsum("mj,mjk->mk", L[:, i, :i], X[:, :i])
        np.divide(acc, diag[:, i], out=X[:, i])
    return X


def solve_upper_t(L: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Solve L' X = B by back substitution; L (m,q,q) lower, B (m,q,k)."""
    q = L.shape[-1]
    diag = L.diagonal(0, 1, 2)[:, :, None]
    X = np.empty_like(B)
    for i in range(q - 1, -1, -1):
        acc = B[:, i]
        if i < q - 1:
            # row i of L' is L[:, i+1:, i]
            acc = acc - np.einsum("mj,mjk->mk", L[:, i + 1 :, i], X[:, i + 1 :])
        np.divide(acc, diag[:, i], out=X[:, i])
    return X


def chol_solve(P: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Solve (P P') X = B given the lower Cholesky factor P."""
    vector = B.ndim == 2
    if vector:
        B = B[:, :, None]
    X = solve_upper_t(P, solve_lower(P, B))
    return X[:, :, 0] if vector else X


def chol_inverse(P: np.ndarray) -> np.ndarray:
    """(P P')^{-1} via triangular solves against the identity."""
    m, q = P.shape[0], P.shape[-1]
    if q == 1:
        return 1.0 / P / P
    eye = np.broadcast_to(np.eye(q), (m, q, q)).copy()
    return chol_solve(P, eye)


def phi_lower(M: np.ndarray) -> np.ndarray:
    """Strict lower triangle plus half the diagonal, on the last two axes."""
    q = M.shape[-1]
    out = np.tril(M, -1)
    idx = np.arange(q)
    out[..., idx, idx] = 0.5 * M[..., idx, idx]
    return out


def logdet_from_chol(P: np.ndarray) -> np.ndarray:
    """log det(P P') per batch entry: twice the log-diagonal sum."""
    idx = np.arange(P.shape[-1])
    return 2.0 * np.sum(np.log(P[..., idx, idx]), axis=-1)
