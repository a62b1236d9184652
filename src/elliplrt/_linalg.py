"""Cholesky factorizations and triangular solves: no other module runs either,
save the likelihood's q = 1 solves, which divide by P twice (w = z / P / P
in stage 0, N = M / P / P in the scalar assembly).

``cholesky_or_none`` is the one failure rule (the lower factor, or None
where LAPACK rejects the matrix or its factor is not finite, as for a NaN
or +inf entry); the Newton ridge, a fit's standard errors and
``ancillary.cholesky_lower`` use it.  ``cholesky_blocks`` forms the
model's P, Sigma^{-1} and log|Sigma| together and adds one clause: a
Sigma fails where Sigma^{-1} is not finite, so every product downstream
reads a finite inverse.  A q >= 2 stack that LAPACK rejects is scanned
from the front, one Sigma at a time, for its first failure: the built-in
model 2 gives every row of a block the same Sigma, so its rejected stacks
fail at row 0.  Single p x p factors are solved with LAPACK
``dtrtrs``; stacks of (m, q, q) factors, q a handful, with forward/back
substitution looping over q.

The q = 1 rule: a q = 1 Sigma is factored as sqrt(sigma), which gives
LAPACK's bits, and inverted as 1 / P / P, the floating-point operations
of the q-loops; log|Sigma| is 2 log P for every q.
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
    """((P, Sigma^{-1}, log|Sigma|), None) for the stack sigma (m, q, q), or (None, k).

    k is the first batch position with no factor P or with a P or
    Sigma^{-1} that is not finite.  q = 1 takes the module's q = 1 rule.
    When LAPACK rejects a q >= 2 stack, its Sigma are factored one at a
    time from the front up to the first that fails, at row j (row 0 for
    model 2's simulated blocks, whose Sigma are one matrix); the rows
    before it are then factored together and inverted, to find an earlier
    Sigma^{-1} that overflows.
    """
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        if sigma.shape[-1] == 1:
            P, k = np.sqrt(sigma), sigma.shape[0]
            Sinv, logdet = 1.0 / P / P, 2.0 * np.log(P[:, 0, 0])
        else:
            P, k = cholesky_or_none(sigma), sigma.shape[0]
            if P is None:
                k = next(j for j in range(k) if cholesky_or_none(sigma[j]) is None)
                if k == 0:  # no factor to invert
                    return None, 0
                P = cholesky_or_none(sigma[:k])
            Sinv = solve_upper_t(P, lower_inverse(P))
            logdet = 2.0 * np.log(P.diagonal(0, 1, 2)).sum(axis=-1)
    if k == sigma.shape[0] and np.isfinite(P).all() and np.isfinite(Sinv).all():
        Sinv.setflags(write=False)
        return (P, Sinv, logdet), None
    ok = np.isfinite(P).all(axis=(1, 2)) & np.isfinite(Sinv).all(axis=(1, 2))
    return None, k if ok.all() else int(ok.argmin())


RIDGE_TRIES = 60


def ridge_cholesky(H: np.ndarray):
    """(tau, L) with L the Cholesky factor of H + tau I: modified Newton's ridge.

    tau is the first of the sequence 0, t_1, 2 t_1, 4 t_1, ... (t_1 =
    1e-10 max(max_i |H_ii|, 1), at most RIDGE_TRIES terms) for which
    H + tau I factors; None when none does (Nocedal & Wright 2006, §3.4).
    tau = 0 factors H itself.  After it fails, the last term is factored
    and the terms below it are bisected, which finds the first term that
    factors since factoring is monotone in tau (in exact arithmetic).  So
    no term factors when the last does not, as for a non-finite H.
    """
    L = cholesky_or_none(H)
    if L is not None:
        return 0.0, L
    eye = np.eye(H.shape[0])
    t1 = 1e-10 * max(np.abs(np.diag(H)).max(), 1.0)

    def term(k):  # the k-th term, k >= 1: doubling is exact
        return t1 * 2.0 ** (k - 1)

    lo, hi = 0, RIDGE_TRIES - 1
    L = cholesky_or_none(H + term(hi) * eye)
    if L is None:
        return None
    while hi - lo > 1:  # term lo fails, term hi factors
        mid = (lo + hi) // 2
        Lmid = cholesky_or_none(H + term(mid) * eye)
        if Lmid is None:
            lo = mid
        else:
            hi, L = mid, Lmid
    return term(hi), L


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


def chol_derivative(P: np.ndarray, dS: np.ndarray, support: slice) -> np.ndarray:
    """dP_r = P Phi(P^{-1} dS_r P^{-T}), which solves dP_r P' + P dP_r' = dS_r, for P (m,q,q), dS (m,p,q,q).

    dP_r is formed for r in the range ``support`` and is zero off it,
    where dS_r must be zero.  P^{-1} is finite for the factors of
    ``cholesky_blocks``, so the skipped products are exact zeros.
    """
    Pinv = lower_inverse(P)
    M = np.einsum("mab,mrbc,mdc->mrad", Pinv, dS[:, support], Pinv)
    dP = np.zeros(dS.shape)
    dP[:, support] = np.einsum("mab,mrbc->mrac", P, phi_lower(M))
    return dP


def phi_lower(M: np.ndarray) -> np.ndarray:
    """Strict lower triangle plus half the diagonal, on the last two axes."""
    q = M.shape[-1]
    out = np.tril(M, -1)
    idx = np.arange(q)
    out[..., idx, idx] = 0.5 * M[..., idx, idx]
    return out
