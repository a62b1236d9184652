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

The two entry points, ``loglik`` and ``score_info``, accept a residual
override so that J can be evaluated with residuals reconstructed through
the ancillary (z_i = P_i a_i) instead of y_i - mu_i.

Every block arrives with its Cholesky factor P, Sigma^{-1} and
log|Sigma| (``BlockEval``), all finite, so no step here forms an inverse
or a determinant.  Assembly runs in two stages.  Stage 0 needs only mu
and the factor: per block it forms z, w = Sigma^{-1} z, u and the
weights, and sums the log-likelihood.  For the default residuals it is
cached on the ModelEval, so a line search can test a trial point on its
log-likelihood alone and finish the score and information of an accepted
point from the same stage 0, with the same arithmetic as a one-pass
assembly.

Support rule: the C_r = dSigma/dtheta_r products (A_r, kappa_r,
tr(B_r A_s), A_r C_s N) of every q >= 2 block are formed only on the
support S of dSigma, the smallest range of parameters that holds every
nonzero (or non-finite) C_r.  Off S they are exact zeros, and skipping
them leaves every other float unchanged; a zero C_r inside S gives the
products the full-support assembly forms for it.  S and C on S are
computed here alone (``_sigma_support``), once per block through
``DataBlock.derived`` when dSigma does not depend on theta and on every
call otherwise; they serve J, the score, U' and the double-tilde J, and S
restricts the ancillary bundle's dP_r (``_linalg.chol_derivative``).
NaN and inf in the residuals, dmu or dSigma propagate into J, the score,
dP, l', U' and the double-tilde J as in the full-support oracle; the
cases are in ``tests/test_kernel.py``, ``test_nonfinite_*``.

Layout rule: einsum's output inherits its operands' memory layout, and a
contraction over two axes (``mrab,msba->mrs``) sums in an order that the
layout sets.  C on S is stored as (m, b, (r, c)), C[i, r, b, c] at
[i, b, r q + c], so the products with Sigma^{-1} and N run their inner
loop over the long (r, c) axis; their results (Sigma^{-1} C, A and C N)
are then copied to C-contiguous (m, r, a, b) arrays before kappa,
tr(B A) or E reads them.  The traces tr(X_r Y_s) run as one contraction
over the flattened (a, b) axis of X and of Y transposed, which sums in
the order the two-axis einsum over C-contiguous operands did.
``tests/kernel_oracle.py`` keeps the full-support assembly; the kernel
must equal it bit for bit.  E keeps the association
(A C N + d2Sigma K / 2) - v w' d2mu, and the terms are added to J as
(T + tr(B A)) + E.

Scalar path: the q = 1 rules for Sigma (the factor sqrt(sigma), the
inverse 1 / P / P and log|Sigma| = 2 log P) live in ``_linalg``; here
(``_stage0`` and ``_scalar_terms``) q = 1 blocks only take a different
assembly.  The ancillary stage, run once per test, takes q = 1 blocks
through the general block code.  Stage 0 sends each q = 1 block down
``_scalar_terms``, on (m,) residuals and weights and (m, p) slices of dmu
and dSigma, over every r.  Each einsum contraction there is a single-term
sum, its one product in einsum's operand order (three operands associate
left to right: kappa = (z A) z); einsum adds it to a zero, which can only
turn -0.0 into +0.0, a sign no output sum keeps.  Solves are two divisions
by P (w = z / P / P in ``_stage0``, N = M / P / P in ``_scalar_terms``),
the one triangular solve run outside ``_linalg``: ``chol_solve`` takes the
same bits but slows a q = 1 stage 0 by about a fifth.  2 vdot is
vdot + vdot.  The score's einsum, its column sums and
J's sum over observations keep their operand shapes and memory layouts, so
they add in the same order.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._linalg import chol_solve
from .families import EllipticalFamily
from .model import ModelEval

__all__ = ["ScoreInfo", "loglik", "score_info"]

ASYMMETRY_WARN = 1e-8


@dataclass
class ScoreInfo:
    """Likelihood, score and observed information at one theta."""

    loglik: float
    score: np.ndarray  # (p,)
    info: np.ndarray | None  # (p,p), symmetrized
    per_obs_u: np.ndarray  # (n,)
    clamped: list  # observation indices where the weight clamp fired


@dataclass
class _Stage0:
    """Per-block (terms, z, w, v, vdot), per-observation u, and the log-likelihood."""

    family: EllipticalFamily
    blocks: list
    loglik: float
    per_u: np.ndarray
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
    st = _Stage0(family, [], 0.0, np.empty(ev.n), [])
    zs = [be.data.y - be.mu for be in ev.blocks] if z_blocks is None else z_blocks
    for be, z in zip(ev.blocks, zs):
        q = be.data.q
        if q == 1:  # ``_block_core`` on (m,) residuals: w = z / P / P
            z, P = z[:, 0], be.P[:, 0, 0]
            w = z / P / P
            u = np.maximum(z * w, 0.0)
            v, vdot = family._weights(u, 1, clamp=True)
            st.blocks.append((_scalar_terms, z, w, v, vdot))
        else:
            w, u, v, vdot = _block_core(family, be, z)
            st.blocks.append((_block_terms, z, w, v, vdot))
        st.per_u[be.data.idx] = u
        st.clamped.extend(be.data.idx[family._clamped(u)].tolist())
        st.loglik += float((-0.5 * be.logdet + family._log_g(u, q)).sum())
    if z_blocks is None:
        ev.stage0 = st
    return st


def _nonzero_params(C: np.ndarray) -> slice:
    """The smallest range of r holding every nonzero (or non-finite) C_r; slice(0, 0) if none."""
    m, p = C.shape[:2]
    nz = np.flatnonzero(C.reshape(m, p, -1).any(axis=(0, 2)))
    if nz.size == 0:
        return slice(0, 0)
    return slice(int(nz[0]), int(nz[-1]) + 1)


def _support_layout(C: np.ndarray):
    """(S, C on S in the (m, b, (r, c)) layout of the module docstring)."""
    S = _nonzero_params(C)
    C_S = C[:, S]
    m, s, q, _ = C_S.shape
    C_bk = np.ascontiguousarray(C_S.transpose(0, 2, 1, 3)).reshape(m, q, s * q)
    C_bk.setflags(write=False)
    return S, C_bk


def _sigma_support(be):
    """(S, dSigma on S in (m, b, (r, c)) layout) of a block, cached as the module docstring says."""
    return be.data.derived("dsigma_support", be.dsigma, _support_layout)


def _first_order(be, w):
    """alpha_r = d_r' Sigma^{-1} z and C_r Sigma^{-1} z of one block."""
    return np.einsum("mra,ma->mr", be.dmu, w), np.einsum("mrab,mb->mra", be.dsigma, w)


def _unpack(X, axes):
    """An (m, a, (r, c)) product as a C-contiguous 4-D array with ``axes`` of (m, a, r, c)."""
    m, q, k = X.shape
    return np.ascontiguousarray(X.reshape(m, q, k // q, q).transpose(axes))


def _trace_products(X, Yt):
    """tr(X_r Y_s) for C-contiguous X (m, r, a, b) and Yt (m, s, a, b) = Y transposed (the layout rule)."""
    m, r, q, _ = X.shape
    return np.einsum("mrk,msk->mrs", X.reshape(m, r, q * q), Yt.reshape(m, Yt.shape[1], q * q))


def _t_kernel(be, z, v, vdot, alpha, Cw, S, C_bk):
    """(A_r, kappa_r, T_r) of one block, shared by J and the sample-space U'.

    A_r = -Sigma^{-1} C_r Sigma^{-1}, kappa_r = z' A_r z and
    T_r = (2 vdot alpha_r - vdot kappa_r) z + v (d_r + C_r Sigma^{-1} z),
    A and kappa for r in S only.
    """
    SC = _unpack(np.einsum("mab,mbk->mak", be.sinv, C_bk), (0, 2, 1, 3))  # (m, r, a, c)
    A = -np.einsum("mrac,mcd->mrad", SC, be.sinv)
    kappa = np.einsum("ma,mrab,mb->mr", z, A, z)
    coef = 2.0 * vdot[:, None] * alpha
    coef[:, S] -= vdot[:, None] * kappa
    T = coef[:, :, None] * z[:, None, :] + v[:, None, None] * (be.dmu + Cw)
    return A, kappa, T


def _block_terms(be, z, w, v, vdot, U, J):
    """Add a q >= 2 block's score to U and its J, summed over observations, to J (None: skip)."""
    alpha, Cw = _first_order(be, w)
    Sinv, dmu, C = be.sinv, be.dmu, be.dsigma
    wCw = np.einsum("ma,mra->mr", w, Cw)
    trSC = np.einsum("mab,mrba->mr", Sinv, C)
    U += np.einsum("m,mr->r", v, alpha + 0.5 * wCw) - 0.5 * trSC.sum(axis=0)
    if J is not None:
        S, C_bk = _sigma_support(be)
        A, kappa, T = _t_kernel(be, z, v, vdot, alpha, Cw, S, C_bk)
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
        E = np.zeros_like(term)
        E[:, S, S] = _trace_products(A, CNt)  # A C N is zero off S x S
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
    Sinv, d, C = be.sinv[:, 0, 0], be.dmu[:, :, 0], be.dsigma[:, :, 0, 0]
    zc, wc, vd = z[:, None], w[:, None], vdot[:, None]
    SC, alpha, Cw = Sinv[:, None] * C, d * wc, C * wc
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


def loglik(family: EllipticalFamily, ev: ModelEval) -> float:
    """Log-likelihood at ev.theta.

    Runs stage 0 only: no derivative of mu or Sigma is computed.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return _stage0(family, ev).loglik


def score_info(family: EllipticalFamily, ev: ModelEval, want_info: bool = True, z_blocks=None) -> ScoreInfo:
    """Log-likelihood, score and (optionally) observed information at ev.theta.

    ``z_blocks`` overrides the residuals per block; this is how the
    double-tilde information (residuals reconstructed through the
    ancillary) is obtained from the same assembly.  Stage 0 is reused
    when it is already cached on ``ev``.
    """
    p = ev.p
    U = np.zeros(p)
    J = np.zeros((p, p))
    st = _stage0(family, ev, z_blocks)
    for be, (terms, *block) in zip(ev.blocks, st.blocks):
        terms(be, *block, U, J if want_info else None)

    info = None
    if want_info:
        sym = 0.5 * (J + J.T)
        # one reduction over the symmetric and antisymmetric parts
        scale, asym = np.abs((sym, J - J.T)).max(axis=(1, 2)).tolist()
        if 0.0 < scale < math.inf:
            raw_asym = asym / scale
            if ASYMMETRY_WARN < raw_asym < math.inf:
                warnings.warn(
                    f"observed information asymmetry {raw_asym:.2e} exceeds {ASYMMETRY_WARN:.0e}",
                    RuntimeWarning,
                    stacklevel=2,
                )
        info = sym
    return ScoreInfo(
        loglik=st.loglik,
        score=U,
        info=info,
        per_obs_u=st.per_u,
        clamped=list(st.clamped),
    )
