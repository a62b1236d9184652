"""Cholesky factorizations and triangular solves: no other module runs either.

``cholesky_or_none`` is the one failure rule (the lower factor, or None
where LAPACK rejects the matrix or its factor is not finite, as for a NaN
or +inf entry); the Newton ridge, the batched factor of the model's Sigma
blocks, a fit's standard errors and ``ancillary.cholesky_lower`` all use
it.  Single p x p factors are solved
with LAPACK ``dtrtrs``; stacks of (m, q, q) factors, q a handful, with
forward/back substitution looping over q.  Sigma^{-1} x products go
through the factor; inverses solve against the identity.

The q = 1 rule: a q = 1 Sigma is factored as sqrt(sigma), which gives
LAPACK's bits and fails unless 0 < sigma < inf, as the failure rule does,
and inverted as 1 / P / P, the floating-point operations of the q-loops.
The likelihood's scalar path does its other q = 1 arithmetic itself.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dtrtrs as _dtrtrs


def cholesky_or_none(S: np.ndarray) -> np.ndarray | None:
    """Lower Cholesky factor of S (one matrix or a stack), or None where it fails (the module's rule)."""
    try:
        L = np.linalg.cholesky(S)
    except np.linalg.LinAlgError:
        return None
    return L if np.isfinite(L).all() else None


def cholesky_blocks(sigma: np.ndarray):
    """(P, None) with P the lower factors of the stack sigma (m, q, q), or (None, k).

    k is the first batch position that does not factor.  q = 1 takes the
    module's q = 1 rule; a q >= 2 failure is bisected over the batch.
    """
    if sigma.shape[-1] == 1:
        ok = (sigma > 0.0) & (sigma < np.inf)
        if not ok.all():
            return None, int(ok.argmin())
        return np.sqrt(sigma), None
    P = cholesky_or_none(sigma)
    if P is not None:
        return P, None
    # the first failure lies in [lo, hi), and sigma[:lo] factors
    lo, hi = 0, sigma.shape[0]
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if cholesky_or_none(sigma[lo:mid]) is None:
            hi = mid
        else:
            lo = mid
    return None, lo


RIDGE_TRIES = 60


def ridge_cholesky(H: np.ndarray):
    """(tau, L) with L the Cholesky factor of H + tau I: modified Newton's ridge.

    tau is the first of the sequence 0, t_1, 2 t_1, 4 t_1, ... (t_1 =
    1e-10 max(max_i |H_ii|, 1), at most RIDGE_TRIES terms) for which
    H + tau I factors; None when none does (Nocedal & Wright 2006, §3.4).
    tau = 0 factors H itself.  After it fails, the first term above the
    Gershgorin bound max_i (sum_{j != i} |H_ij| - H_ii) >= -lambda_min(H),
    or else the last term, is factored and the terms below it are bisected,
    which finds the first term that factors since factoring is monotone in
    tau (in exact arithmetic).  So no term factors when the last does not,
    as for a non-finite H (its bound is NaN or +inf).  When rounding keeps
    the term above the bound from factoring, the terms are tried in order.
    """
    L = cholesky_or_none(H)
    if L is not None:
        return 0.0, L
    eye = np.eye(H.shape[0])
    base = max(np.abs(np.diag(H)).max(), 1.0)
    taus = [0.0]  # taus[k] is the k-th term; taus[0] failed
    while len(taus) < RIDGE_TRIES:
        taus.append(max(2.0 * taus[-1], 1e-10 * base))
    absH = np.abs(H)
    with np.errstate(over="ignore", invalid="ignore"):
        bound = (absH.sum(axis=1) - np.diag(absH) - np.diag(H)).max()
    above = next((k for k in range(1, RIDGE_TRIES) if taus[k] > bound), None)
    lo, hi = 0, RIDGE_TRIES - 1 if above is None else above
    L = cholesky_or_none(H + taus[hi] * eye)
    if L is None:
        if above is None:
            return None
        for tau in taus[1:]:
            L = cholesky_or_none(H + tau * eye)
            if L is not None:
                return tau, L
        return None
    while hi - lo > 1:  # taus[lo] fails, taus[hi] factors
        mid = (lo + hi) // 2
        Lmid = cholesky_or_none(H + taus[mid] * eye)
        if Lmid is None:
            lo = mid
        else:
            hi, L = mid, Lmid
    return taus[hi], L


def _trsolve(Lt, b, trans):
    """Solve L x = b (trans=1) or L' x = b (trans=0) given Lt = L', lower L.

    The LAPACK call ``scipy.linalg.solve_triangular`` makes for a C-ordered
    L, with its finiteness check and without its argument handling.
    """
    if not (np.isfinite(Lt).all() and np.isfinite(b).all()):
        raise ValueError("array must not contain infs or NaNs")
    x, info = _dtrtrs(Lt, b, lower=0, trans=trans)
    if info:
        raise np.linalg.LinAlgError(f"singular matrix: resolution failed at diagonal {info - 1}")
    return x


def cho_solve(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(L L')^{-1} b for a lower Cholesky factor L."""
    return _trsolve(L.T, _trsolve(L.T, b, 1), 0)


def inverse_diag(L: np.ndarray) -> np.ndarray:
    """diag((L L')^{-1}) as squared column norms of L^{-1}.

    One vector triangular solve per column: a multi-column solve would
    wake a BLAS helper thread that then spins between calls.
    """
    p = L.shape[0]
    eye = np.eye(p)
    out = np.empty(p)
    for j in range(p):
        col = _trsolve(L.T, eye[j], 1)
        out[j] = col @ col
    return out


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


def lower_inverse(P: np.ndarray) -> np.ndarray:
    """P^{-1} by forward substitution against the identity."""
    return solve_lower(P, np.broadcast_to(np.eye(P.shape[-1]), P.shape).copy())


def chol_inverse(P: np.ndarray) -> np.ndarray:
    """(P P')^{-1}: back substitution against P^{-1}, or 1 / P / P for q = 1."""
    if P.shape[-1] == 1:
        return 1.0 / P / P
    return solve_upper_t(P, lower_inverse(P))


def chol_derivative(P: np.ndarray, dS: np.ndarray, support=slice(None)) -> np.ndarray:
    """dP_r = P Phi(P^{-1} dS_r P^{-T}), which solves dP_r P' + P dP_r' = dS_r, for P (m,q,q), dS (m,p,q,q).

    dP_r is formed for r in ``support`` (zero off it, where dS_r must be
    zero); a non-finite P or P^{-1} takes every r.
    """
    Pinv = lower_inverse(P)
    S = support if np.isfinite(Pinv.sum() + P.sum()) else slice(None)
    M = np.einsum("mab,mrbc,mdc->mrad", Pinv, dS[:, S], Pinv)
    dP = np.zeros(dS.shape)
    dP[:, S] = np.einsum("mab,mrbc->mrac", P, phi_lower(M))
    return dP


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
