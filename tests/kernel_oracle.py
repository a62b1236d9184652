"""Full-support assembly of J, the score, U' and the double-tilde J.

This is the per-block kernel as it was before the likelihood restricted
the Sigma-derivative products to the parameters Sigma depends on: every
4-D product runs over all p parameters, with the naive einsum layouts.
The optimized kernel in ``elliplrt.likelihood`` must reproduce it bit
for bit; ``tests/test_kernel.py`` compares the two with ``np.array_equal``.

The oracle keeps its own copies of the hand-rolled triangular solves,
the log-determinant and the einsum stage 0, with no q = 1 shortcut, so
the package's q = 1 fast paths are compared with the general arithmetic
and not with themselves.
"""

import numpy as np

from elliplrt._linalg import phi_lower


def solve_lower(L, B):
    """Solve L X = B by forward substitution; L (m,q,q) lower, B (m,q,k)."""
    q = L.shape[-1]
    X = np.empty_like(B)
    for i in range(q):
        acc = B[:, i]
        if i:
            acc = acc - np.einsum("mj,mjk->mk", L[:, i, :i], X[:, :i])
        X[:, i] = acc / L[:, i, i, None]
    return X


def solve_upper_t(L, B):
    """Solve L' X = B by back substitution; L (m,q,q) lower, B (m,q,k)."""
    q = L.shape[-1]
    X = np.empty_like(B)
    for i in range(q - 1, -1, -1):
        acc = B[:, i]
        if i < q - 1:
            acc = acc - np.einsum("mj,mjk->mk", L[:, i + 1 :, i], X[:, i + 1 :])
        X[:, i] = acc / L[:, i, i, None]
    return X


def chol_solve(P, B):
    """Solve (P P') X = B given the lower Cholesky factor P."""
    vector = B.ndim == 2
    if vector:
        B = B[:, :, None]
    X = solve_upper_t(P, solve_lower(P, B))
    return X[:, :, 0] if vector else X


def chol_inverse(P):
    m, q = P.shape[0], P.shape[-1]
    eye = np.broadcast_to(np.eye(q), (m, q, q)).copy()
    return chol_solve(P, eye)


def logdet_from_chol(P):
    idx = np.arange(P.shape[-1])
    return 2.0 * np.sum(np.log(P[..., idx, idx]), axis=-1)


def _block_core(family, be, z):
    q = z.shape[1]
    w = chol_solve(be.P, z)
    u = np.maximum(np.einsum("ma,ma->m", z, w), 0.0)
    v, vdot = family.weights(u, q, clamp=True)
    return w, u, v, vdot


def _residuals(ev, z_blocks):
    return z_blocks if z_blocks is not None else [be.data.y - be.mu for be in ev.blocks]


def _stage0(family, ev, z_blocks=None):
    """Per block (z, w, v, vdot), recomputed: never the stage 0 cached on ``ev``."""
    out = []
    for be, z in zip(ev.blocks, _residuals(ev, z_blocks)):
        w, _, v, vdot = _block_core(family, be, z)
        out.append((z, w, v, vdot))
    return out


def loglik(family, ev, z_blocks=None):
    """The log-likelihood, summed block by block as stage 0 sums it."""
    total = 0.0
    for be, z in zip(ev.blocks, _residuals(ev, z_blocks)):
        u = _block_core(family, be, z)[1]
        total += float(np.sum(-0.5 * logdet_from_chol(be.P) + family.log_g(u, be.data.q)))
    return total


def _first_order(be, w):
    Sinv = chol_inverse(be.P)
    alpha = np.einsum("mra,ma->mr", be.dmu, w)
    Cw = np.einsum("mrab,mb->mra", be.dsigma, w)
    return Sinv, alpha, Cw


def _t_kernel(be, z, v, vdot, Sinv, alpha, Cw):
    SC = np.einsum("mab,mrbc->mrac", Sinv, be.dsigma)
    A = -np.einsum("mrac,mcd->mrad", SC, Sinv)
    kappa = np.einsum("ma,mrab,mb->mr", z, A, z)
    coef = 2.0 * vdot[:, None] * alpha - vdot[:, None] * kappa
    T = coef[:, :, None] * z[:, None, :] + v[:, None, None] * (be.dmu + Cw)
    return A, kappa, T


def score_and_info(family, ev, z_blocks=None):
    """(score, symmetrized J) at ev.theta, optionally with overridden residuals."""
    p = ev.p
    U = np.zeros(p)
    J = np.zeros((p, p))
    for be, (z, w, v, vdot) in zip(ev.blocks, _stage0(family, ev, z_blocks)):
        Sinv, alpha, Cw = _first_order(be, w)
        dmu, C = be.dmu, be.dsigma
        wCw = np.einsum("ma,mra->mr", w, Cw)
        trSC = np.einsum("mab,mrba->mr", Sinv, C)
        U += np.einsum("m,mr->r", v, alpha + 0.5 * wCw) - 0.5 * trSC.sum(axis=0)

        A, kappa, T = _t_kernel(be, z, v, vdot, Sinv, alpha, Cw)
        TS = np.einsum("mra,mab->mrb", T, Sinv)
        term1 = np.einsum("mrb,msb->mrs", TS, dmu)

        zz = z[:, :, None] * z[:, None, :]
        coef_B = -vdot[:, None] * alpha + 0.5 * vdot[:, None] * kappa
        B = (
            coef_B[:, :, None, None] * zz[:, None]
            - v[:, None, None, None] * z[:, None, :, None] * dmu[:, :, None, :]
            - 0.5 * C
        )
        trBA = np.einsum("mrab,msba->mrs", B, A)

        M = be.sigma - v[:, None, None] * zz
        N = chol_solve(be.P, M)
        CN = np.einsum("msbc,mca->msba", C, N)
        E = np.einsum("mrab,msba->mrs", A, CN)
        if be.d2sigma is not None:
            K = np.einsum("mab,mbc->mac", N, Sinv)
            E = E + 0.5 * np.einsum("mrsab,mba->mrs", be.d2sigma, K)
        if be.d2mu is not None:
            E = E - v[:, None, None] * np.einsum("ma,mrsa->mrs", w, be.d2mu)

        J += (term1 + trBA + E).sum(axis=0)
    return U, 0.5 * (J + J.T)


def cholesky_derivatives(eval_hat):
    """dP of every block over all p parameters."""
    out = []
    for be in eval_hat.blocks:
        Pinv = solve_lower(be.P, np.broadcast_to(np.eye(be.data.q), be.P.shape).copy())
        M = np.einsum("mab,mrbc,mdc->mrad", Pinv, be.dsigma, Pinv)
        out.append(np.einsum("mab,mrbc->mrac", be.P, phi_lower(M)))
    return out


def sample_space_gradients(eval_at, bundle, family, dPs):
    """(l', U') with the full-support T kernel; ``dPs`` from cholesky_derivatives."""
    p = eval_at.p
    ell = np.zeros(p)
    Uprime = np.zeros((p, p))
    for be, be_hat, bb, dP in zip(eval_at.blocks, bundle.eval_hat.blocks, bundle.blocks, dPs):
        z = np.einsum("mab,mb->ma", bb.P, bb.a) + be_hat.mu - be.mu
        w, u, v, vdot = _block_core(family, be, z)
        Rhat = np.einsum("mrab,mb->mra", dP, bb.a) + be_hat.dmu
        ell += -np.einsum("m,mra,ma->r", v, Rhat, w)
        Sinv, alpha, Cw = _first_order(be, w)
        _, _, Q = _t_kernel(be, z, v, vdot, Sinv, alpha, Cw)
        QS = np.einsum("mra,mab->mrb", Q, Sinv)
        Uprime += np.einsum("mrb,msb->rs", QS, Rhat)
    return ell, Uprime


def doubletilde_info(eval_tilde, bundle, family):
    z_blocks = [np.einsum("mab,mb->ma", be.P, bb.a) for be, bb in zip(eval_tilde.blocks, bundle.blocks)]
    return score_and_info(family, eval_tilde, z_blocks)[1]
