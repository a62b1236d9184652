"""Log-likelihood, score vector and observed information for the elliptical model.

The log-likelihood is sum_i [ -1/2 log|Sigma_i| + log g(u_i) ] with
u_i = z_i' Sigma_i^{-1} z_i and z_i = y_i - mu_i.  The score is assembled
in the algebraically simplified form

    U_r = sum_i [ v_i d_ir' Sigma_i^{-1} z_i - tr(Sigma_i^{-1} C_ir)/2
                  + v_i z_i' Sigma_i^{-1} C_ir Sigma_i^{-1} z_i / 2 ],

which is identical to the block form U = F' H s (the materialized
Kronecker variant is kept as a test oracle).  The observed information is
assembled per observation from

    J_rs = sum_i [ T_ir' Sigma_i^{-1} d_is + tr(B_ir A_is) + E_irs ],

with A_ir = -Sigma_i^{-1} C_ir Sigma_i^{-1} and the T/B/E terms below; it
equals the negative Hessian of the log-likelihood.  The T term comes from
``_t_kernel``, which the sample-space derivative U' of the ancillary
module shares.  J is symmetrized by averaging after assembly; raw
relative asymmetry above 1e-8 triggers a warning.

All routines accept an optional residual override so that the
information matrix can be evaluated with residuals reconstructed through
the ancillary (z_i = P_i a_i) instead of y_i - mu_i.

Assembly runs in two stages.  Stage 0 needs only mu, Sigma and its
Cholesky factor: per block it forms z, w = Sigma^{-1} z, u and the
weights, and sums the log-likelihood.  For the default residuals it is
cached on the ModelEval, so a line search can test a trial point on its
log-likelihood alone and finish the score and information of an accepted
point from the same stage 0, with the same arithmetic as a one-pass
assembly.

The C_r = dSigma/dtheta_r products (A_r, kappa_r, tr(B_r A_s), A_r C_s N)
of q >= 2 blocks are formed only on the support S of dSigma, the
parameters with a nonzero C_r (``BlockEval.sigma_support``); off S they
are exact zeros, and skipping them leaves every other float unchanged.
Sigma^{-1}, S and C on S are computed once per evaluation (S and C on S
once per block when dSigma does not depend on theta) and shared by J, the
score, U' and the double-tilde J at that theta.  Blocks where Sigma,
Sigma^{-1}, dmu, dSigma, the residuals or the weights are not all finite
run the same products over every r, so that the zeros off S meet the
non-finite factor and NaN and inf propagate as before; over every r they
equal the full products bit for bit.

Layout rule: einsum's output inherits its operands' memory layout, and a
contraction over two axes (``mrab,msba->mrs``) sums in an order that the
layout sets.  C on S is stored as (m, b, (r, c)) so the products with
Sigma^{-1} and N run their inner loop over the long (r, c) axis; their
results (Sigma^{-1} C, A and C N) are then copied to C-contiguous
(m, r, a, b) arrays before kappa, tr(B A) or E reads them.  The traces
tr(X_r Y_s) run as one contraction over the flattened (a, b) axis of X
and of Y transposed, which sums in the order the two-axis einsum over
C-contiguous operands did.  ``tests/kernel_oracle.py`` keeps the
full-support assembly; the kernel must equal it bit for bit.  E keeps
the association (A C N + d2Sigma K / 2) - v w' d2mu, and the terms are
added to J as (T + tr(B A)) + E.

Scalar path, in the assembly only: the ancillary stage, run
once per test, takes q = 1 blocks through the general block code.  Stage 0
sends each q = 1 block down ``_scalar_terms``, which works on (m,)
residuals and weights and (m, p) slices of dmu and dSigma, over every r.
Each einsum contraction there is a single-term sum, which is its one
product as long as the product keeps einsum's operand order (three
operands associate left to right: kappa = (z A) z).  einsum adds that
product to a zero, which can only turn -0.0 into +0.0, and every output is
a sum started at +0.0, where the sign of a zero does not survive.  Solves
are two divisions by P, log|Sigma| is 2 log P and 2 vdot is vdot + vdot
(exact, as 2.0 * vdot is).  The score's einsum, its column sums and J's
sum over observations keep their operand shapes and memory layouts, so
they add in the same order.  A q = 1 Sigma is factored as sqrt(sigma)
(``model._chol_blocks``), which fails where LAPACK fails: at sigma <= 0,
-0.0 and -inf included; NaN and +inf pass through.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._linalg import chol_inverse, chol_solve, logdet_from_chol
from .families import EllipticalFamily
from .model import ModelEval, _bk_layout

__all__ = ["ScoreInfo", "loglik", "score", "observed_info", "score_info"]

ASYMMETRY_WARN = 1e-8


@dataclass
class ScoreInfo:
    """Likelihood, score and observed information at one theta."""

    loglik: float
    score: np.ndarray  # (p,)
    info: np.ndarray | None  # (p,p), symmetrized
    per_obs_u: np.ndarray  # (n,)
    per_obs_v: np.ndarray  # (n,)
    clamped: list  # observation indices where the weight clamp fired


def _residuals(ev: ModelEval, z_blocks):
    if z_blocks is not None:
        return z_blocks
    return [be.data.y - be.mu for be in ev.blocks]


@dataclass
class _Stage0:
    """Per-block (terms, z, w, v, vdot), per-observation u and v, and the log-likelihood."""

    family: EllipticalFamily
    blocks: list
    loglik: float
    per_u: np.ndarray
    per_v: np.ndarray
    clamped: list


def _block_core(family: EllipticalFamily, be, z):
    """Shared per-block quantities: w = Sigma^{-1} z, u, weights."""
    w = chol_solve(be.P, z)
    u = np.maximum(np.einsum("ma,ma->m", z, w), 0.0)  # rounding can produce tiny negatives at exact fits
    v, vdot = family._weights(u, z.shape[1], clamp=True)
    return w, u, v, vdot


def _stage0(family: EllipticalFamily, ev: ModelEval, z_blocks=None) -> _Stage0:
    """Stage 0 of the assembly, cached on ``ev`` for the default residuals; it picks each block's path."""
    if z_blocks is None and ev.stage0 is not None and ev.stage0.family is family:
        return ev.stage0
    n = ev.n
    st = _Stage0(family, [], 0.0, np.empty(n), np.empty(n), [])
    for be, z in zip(ev.blocks, _residuals(ev, z_blocks)):
        q = be.data.q
        if q == 1:  # ``_block_core`` on (m,) residuals: w = z / P / P
            z, P = z[:, 0], be.P[:, 0, 0]
            w = z / P / P
            u = np.maximum(z * w, 0.0)
            v, vdot = family._weights(u, 1, clamp=True)
            logdet = 2.0 * np.log(P)
            st.blocks.append((_scalar_terms, z, w, v, vdot))
        else:
            w, u, v, vdot = _block_core(family, be, z)
            logdet = logdet_from_chol(be.P)
            st.blocks.append((_block_terms, z, w, v, vdot))
        st.per_u[be.data.idx] = u
        st.per_v[be.data.idx] = v
        if family.kind == "power_exponential" and family.lam != 1.0:
            hit = be.data.idx[u < 1e-12]
            st.clamped.extend(int(i) for i in hit)
        st.loglik += float((-0.5 * logdet + family._log_g(u, q)).sum())
    if z_blocks is None:
        ev.stage0 = st
    return st


def _sigma_inverse(be):
    """Sigma^{-1} of a block, formed once per evaluation and kept on it."""
    if be.sinv is None:
        be.sinv = chol_inverse(be.P)
        be.sinv.setflags(write=False)
    return be.sinv


def _first_order(be, w):
    """Sigma^{-1}, alpha_r = d_r' Sigma^{-1} z and C_r Sigma^{-1} z of one block."""
    alpha = np.einsum("mra,ma->mr", be.dmu, w)
    Cw = np.einsum("mrab,mb->mra", be.dsigma, w)
    return _sigma_inverse(be), alpha, Cw


def _support(be, *operands):
    """(S, dSigma on S in (m, b, (r, c)) layout), with S every r when a factor is not finite.

    Off S = ``be.sigma_support`` the dSigma products are exact zeros as
    long as the factors they would multiply are finite.  A non-finite
    factor takes the products over every r, so 0 * inf still gives NaN
    where it did.
    """
    factors = (be.sinv, be.sigma, be.dmu, be.dsigma) + operands
    if np.isfinite(np.concatenate([x.ravel() for x in factors])).all():
        return be.sigma_support, be.dsigma_bk
    return slice(None), _bk_layout(be.dsigma)


def _unpack(X, axes):
    """An (m, a, (r, c)) product as a C-contiguous 4-D array with ``axes`` of (m, a, r, c)."""
    m, q, k = X.shape
    return np.ascontiguousarray(X.reshape(m, q, k // q, q).transpose(axes))


def _trace_products(X, Yt):
    """tr(X_r Y_s) for C-contiguous X (m, r, a, b) and Yt (m, s, a, b) = Y transposed.

    One contraction over the flattened (a, b) axis, summed in the order
    ``einsum("mrab,msba->mrs", X, Y)`` sums for a C-contiguous Y.
    """
    m, r, q, _ = X.shape
    return np.einsum("mrk,msk->mrs", X.reshape(m, r, q * q), Yt.reshape(m, Yt.shape[1], q * q))


def _t_kernel(be, z, v, vdot, Sinv, alpha, Cw, S, C_bk):
    """(A_r, kappa_r, T_r) of one block, shared by J and the sample-space U'.

    A_r = -Sigma^{-1} C_r Sigma^{-1}, kappa_r = z' A_r z and
    T_r = (2 vdot alpha_r - vdot kappa_r) z + v (d_r + C_r Sigma^{-1} z).
    A and kappa are formed for r in S only: off S they are exact zeros.
    """
    SC = _unpack(np.einsum("mab,mbk->mak", Sinv, C_bk), (0, 2, 1, 3))  # (m, r, a, c)
    A = -np.einsum("mrac,mcd->mrad", SC, Sinv)
    kappa = np.einsum("ma,mrab,mb->mr", z, A, z)
    coef = 2.0 * vdot[:, None] * alpha
    coef[:, S] -= vdot[:, None] * kappa
    T = coef[:, :, None] * z[:, None, :] + v[:, None, None] * (be.dmu + Cw)
    return A, kappa, T


def _block_terms(be, z, w, v, vdot, U, J):
    """Add a q >= 2 block's score to U and its J, summed over observations, to J (None: skip)."""
    Sinv, alpha, Cw = _first_order(be, w)
    dmu, C = be.dmu, be.dsigma
    if U is not None:
        wCw = np.einsum("ma,mra->mr", w, Cw)
        trSC = np.einsum("mab,mrba->mr", Sinv, C)
        U += np.einsum("m,mr->r", v, alpha + 0.5 * wCw) - 0.5 * trSC.sum(axis=0)
    if J is not None:
        S, C_bk = _support(be, z, w, v, vdot)
        A, kappa, T = _t_kernel(be, z, v, vdot, Sinv, alpha, Cw, S, C_bk)
        TS = np.einsum("mra,mab->mrb", T, Sinv)
        term = np.einsum("mrb,msb->mrs", TS, dmu)

        zz = z[:, :, None] * z[:, None, :]
        coef_B = -vdot[:, None] * alpha
        coef_B[:, S] += 0.5 * vdot[:, None] * kappa
        B = (
            coef_B[:, :, None, None] * zz[:, None]
            - v[:, None, None, None] * z[:, None, :, None] * dmu[:, :, None, :]
            - 0.5 * C
        )
        M = be.sigma - v[:, None, None] * zz
        N = chol_solve(be.P, M)  # Sigma^{-1} M
        term[:, :, S] += _trace_products(B, np.ascontiguousarray(A.transpose(0, 1, 3, 2)))
        # (C_s N)' through C's exact symmetry: CNt[s, a, b] = sum_c N[c, a] C_s[c, b]
        CNt = _unpack(np.einsum("mca,mck->mak", N, C_bk), (0, 2, 1, 3))
        SS = (slice(None), S, S) if isinstance(S, slice) else (slice(None), S[:, None], S)
        E = np.zeros_like(term)
        E[SS] = _trace_products(A, CNt)  # A C N is zero off S x S
        # E = (A C N + d2Sigma K / 2) - v w' d2mu
        if be.d2sigma is not None:
            K = np.einsum("mab,mbc->mac", N, Sinv)  # Sigma^{-1} M Sigma^{-1}
            E += 0.5 * np.einsum("mrsab,mba->mrs", be.d2sigma, K)
        if be.d2mu is not None:
            E -= v[:, None, None] * np.einsum("ma,mrsa->mrs", w, be.d2mu)
        term += E
        J += term.sum(axis=0)


def _scalar_terms(be, z, w, v, vdot, U, J):
    """``_block_terms`` of a q = 1 block: the same products over every r, as (m, p) and (m, p, p) arrays.

    Sigma^{-1} C is shared by the score's trace and A; 2 vdot is vdot + vdot.
    """
    Sinv, d, C = _sigma_inverse(be)[:, 0, 0], be.dmu[:, :, 0], be.dsigma[:, :, 0, 0]
    zc, wc, vd = z[:, None], w[:, None], vdot[:, None]
    SC, alpha, Cw = Sinv[:, None] * C, d * wc, C * wc
    if U is not None:
        U += np.einsum("m,mr->r", v, alpha + 0.5 * (wc * Cw)) - 0.5 * SC.sum(axis=0)
    if J is not None:
        A = -(SC * Sinv[:, None])
        kappa = zc * A * zc
        T = ((vd + vd) * alpha - vd * kappa) * zc + v[:, None] * (d + Cw)
        P = be.P[:, 0, 0]
        term = (T * Sinv[:, None])[:, :, None] * d[:, None, :]
        zz = z * z
        B = (-vd * alpha + 0.5 * vd * kappa) * zz[:, None] - (v * z)[:, None] * d - 0.5 * C
        N = (be.sigma[:, 0, 0] - v * zz) / P / P  # Sigma^{-1} M
        term += B[:, :, None] * A[:, None, :]
        E = A[:, :, None] * (C * N[:, None])[:, None, :]
        if be.d2sigma is not None:
            E += 0.5 * (be.d2sigma[:, :, :, 0, 0] * (N * Sinv)[:, None, None])
        if be.d2mu is not None:
            E -= v[:, None, None] * (w[:, None, None] * be.d2mu[:, :, :, 0])
        term += E
        J += term.sum(axis=0)


def _assemble_impl(family: EllipticalFamily, ev: ModelEval, z_blocks, want_score, want_info):
    p = ev.p
    U = np.zeros(p)
    J = np.zeros((p, p))
    st = _stage0(family, ev, z_blocks)
    for be, (terms, *block) in zip(ev.blocks, st.blocks):
        terms(be, *block, U if want_score else None, J if want_info else None)

    info = None
    if want_info:
        sym = 0.5 * (J + J.T)
        scale = float(np.abs(sym).max())
        if 0.0 < scale < math.inf:
            raw_asym = float(np.abs(J - J.T).max()) / scale
            if ASYMMETRY_WARN < raw_asym < math.inf:
                warnings.warn(
                    f"observed information asymmetry {raw_asym:.2e} exceeds {ASYMMETRY_WARN:.0e}",
                    RuntimeWarning,
                    stacklevel=3,
                )
        info = sym
    return ScoreInfo(
        loglik=st.loglik,
        score=U,
        info=info,
        per_obs_u=st.per_u,
        per_obs_v=st.per_v,
        clamped=list(st.clamped),
    )


def loglik(family: EllipticalFamily, ev: ModelEval, z_blocks=None) -> float:
    """Log-likelihood at ev.theta (optionally with overridden residuals).

    Runs stage 0 only: no derivative of mu or Sigma is computed.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return _stage0(family, ev, z_blocks).loglik


def score(family: EllipticalFamily, ev: ModelEval) -> np.ndarray:
    """Score vector at ev.theta."""
    return _assemble_impl(family, ev, None, want_score=True, want_info=False).score


def observed_info(family: EllipticalFamily, ev: ModelEval, z_blocks=None) -> np.ndarray:
    """Observed information matrix (negative Hessian) at ev.theta.

    ``z_blocks`` overrides the residuals per block; this is how the
    double-tilde information (residuals reconstructed through the
    ancillary) is obtained from the same assembly.
    """
    return _assemble_impl(family, ev, z_blocks, want_score=False, want_info=True).info


def score_info(family: EllipticalFamily, ev: ModelEval, want_info: bool = True) -> ScoreInfo:
    """Log-likelihood, score and (optionally) observed information.

    Stage 0 is reused when it is already cached on ``ev``.
    """
    return _assemble_impl(family, ev, None, want_score=True, want_info=want_info)
