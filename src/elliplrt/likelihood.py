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
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ._linalg import chol_inverse, chol_solve, logdet_from_chol
from .families import EllipticalFamily
from .model import ModelEval

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
    per_obs_vdot: np.ndarray  # (n,)
    clamped: list  # observation indices where the weight clamp fired


def _residuals(ev: ModelEval, z_blocks):
    if z_blocks is not None:
        return z_blocks
    return [be.data.y - be.mu for be in ev.blocks]


@dataclass
class _Stage0:
    """Per-block (z, w, v, vdot), per-observation u, v, vdot and the log-likelihood."""

    family: EllipticalFamily
    blocks: list
    loglik: float
    per_u: np.ndarray
    per_v: np.ndarray
    per_vdot: np.ndarray
    clamped: list


def _block_core(family: EllipticalFamily, be, z):
    """Shared per-block quantities: w = Sigma^{-1} z, u, weights, logdet."""
    q = z.shape[1]
    w = chol_solve(be.P, z)
    u = np.einsum("ma,ma->m", z, w)
    u = np.maximum(u, 0.0)  # rounding can produce tiny negatives at exact fits
    v, vdot = family.weights(u, q, clamp=True)
    return w, u, v, vdot


def _stage0(family: EllipticalFamily, ev: ModelEval, z_blocks=None) -> _Stage0:
    """Stage 0 of the assembly; cached on ``ev`` for the default residuals."""
    if z_blocks is None and ev.stage0 is not None and ev.stage0.family is family:
        return ev.stage0
    n = ev.n
    st = _Stage0(family, [], 0.0, np.empty(n), np.empty(n), np.empty(n), [])
    for be, z in zip(ev.blocks, _residuals(ev, z_blocks)):
        q = be.data.q
        w, u, v, vdot = _block_core(family, be, z)
        st.blocks.append((z, w, v, vdot))
        st.per_u[be.data.idx] = u
        st.per_v[be.data.idx] = v
        st.per_vdot[be.data.idx] = vdot
        if family.kind == "power_exponential" and family.lam != 1.0:
            hit = be.data.idx[u < 1e-12]
            st.clamped.extend(int(i) for i in hit)
        st.loglik += float(np.sum(-0.5 * logdet_from_chol(be.P) + family.log_g(u, q)))
    if z_blocks is None:
        ev.stage0 = st
    return st


def _first_order(be, w):
    """Sigma^{-1}, alpha_r = d_r' Sigma^{-1} z and C_r Sigma^{-1} z of one block."""
    Sinv = chol_inverse(be.P)
    alpha = np.einsum("mra,ma->mr", be.dmu, w)
    Cw = np.einsum("mrab,mb->mra", be.dsigma, w)
    return Sinv, alpha, Cw


def _t_kernel(be, z, v, vdot, Sinv, alpha, Cw):
    """(A_r, kappa_r, T_r) of one block, shared by J and the sample-space U'.

    A_r = -Sigma^{-1} C_r Sigma^{-1}, kappa_r = z' A_r z and
    T_r = (2 vdot alpha_r - vdot kappa_r) z + v (d_r + C_r Sigma^{-1} z).
    """
    SC = np.einsum("mab,mrbc->mrac", Sinv, be.dsigma)
    A = -np.einsum("mrac,mcd->mrad", SC, Sinv)
    kappa = np.einsum("ma,mrab,mb->mr", z, A, z)
    coef = 2.0 * vdot[:, None] * alpha - vdot[:, None] * kappa
    T = coef[:, :, None] * z[:, None, :] + v[:, None, None] * (be.dmu + Cw)
    return A, kappa, T


def _assemble_impl(family: EllipticalFamily, ev: ModelEval, z_blocks, want_score, want_info):
    p = ev.p
    U = np.zeros(p)
    J = np.zeros((p, p))
    st = _stage0(family, ev, z_blocks)

    for be, (z, w, v, vdot) in zip(ev.blocks, st.blocks):
        Sinv, alpha, Cw = _first_order(be, w)
        dmu, C = be.dmu, be.dsigma
        wCw = np.einsum("ma,mra->mr", w, Cw)
        trSC = np.einsum("mab,mrba->mr", Sinv, C)

        if want_score:
            U += np.einsum("m,mr->r", v, alpha + 0.5 * wCw) - 0.5 * trSC.sum(axis=0)

        if want_info:
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
            N = chol_solve(be.P, M)  # Sigma^{-1} M
            CN = np.einsum("msbc,mca->msba", C, N)
            E = np.einsum("mrab,msba->mrs", A, CN)
            if be.d2sigma is not None:
                K = np.einsum("mab,mbc->mac", N, Sinv)  # Sigma^{-1} M Sigma^{-1}
                E = E + 0.5 * np.einsum("mrsab,mba->mrs", be.d2sigma, K)
            if be.d2mu is not None:
                E = E - v[:, None, None] * np.einsum("ma,mrsa->mrs", w, be.d2mu)

            J += (term1 + trBA + E).sum(axis=0)

    info = None
    if want_info:
        sym = 0.5 * (J + J.T)
        scale = np.max(np.abs(sym))
        if np.isfinite(scale) and scale > 0:
            raw_asym = np.max(np.abs(J - J.T)) / scale
            if np.isfinite(raw_asym) and raw_asym > ASYMMETRY_WARN:
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
        per_obs_vdot=st.per_vdot,
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
