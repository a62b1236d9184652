"""Approximate ancillary, Cholesky derivatives and sample-space derivatives.

The ancillary vector of observation i is a_i = P_i^{-1}(y_i - mu_i)
evaluated at the unrestricted MLE, where P_i is the lower Cholesky factor
of Sigma_i.  Holding a fixed, the data are reconstructed as
y_i = P_i a_i + mu_i; derivatives of the log-likelihood with respect to
the MLE (l', U') and the information matrix with residuals reconstructed
at the restricted estimate (the double-tilde J) are what the adjustment
factors of the modified test statistics consume.

Cholesky-factor derivatives use the identity dP = P Phi(P^{-1} dS P^{-T})
with Phi = strict lower triangle plus half the diagonal (the batched
kernel ``_linalg.chol_derivative``); the elementwise recursion is kept as
a test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import chol_derivative, cholesky_or_none, solve_lower
from .families import EllipticalFamily
from .likelihood import _block_core, _first_order, _sigma_support, _t_kernel, score_info
from .model import ModelEval

__all__ = [
    "AncillaryBundle",
    "SampleSpaceDerivs",
    "cholesky_lower",
    "cholesky_derivative",
    "build_ancillary",
    "sample_space_gradients",
    "doubletilde_info",
]


def cholesky_lower(S: np.ndarray) -> np.ndarray:
    """Lower-triangular P with P P' = S; raises on non-SPD input."""
    S = np.asarray(S, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {S.shape}")
    if not np.allclose(S, S.T, rtol=0.0, atol=1e-8 * max(1.0, np.max(np.abs(S)))):
        raise ValueError("matrix is not symmetric")
    P = cholesky_or_none(S)
    if P is None:
        raise ValueError("matrix is not positive definite")
    return P


def cholesky_derivative(P: np.ndarray, dS: np.ndarray) -> np.ndarray:
    """Directional derivative of the Cholesky factor: d chol(S)[dS].

    Given P = chol(S) and a symmetric perturbation dS, returns the lower
    triangular dP with dP P' + P dP' = dS, via dP = P Phi(P^{-1} dS P^{-T}):
    the batched kernel of ``build_ancillary`` on a batch of one.
    """
    P = np.asarray(P, dtype=float)
    dS = np.asarray(dS, dtype=float)
    if np.min(np.abs(np.diag(P))) == 0.0:
        raise ValueError("Cholesky factor is singular")
    return chol_derivative(P[None], dS[None, None])[0, 0]


# ---------------------------------------------------------------------------
# Ancillary bundle
# ---------------------------------------------------------------------------


@dataclass
class BundleBlock:
    a: np.ndarray  # (m, q) ancillary vectors
    P: np.ndarray  # (m, q, q) Cholesky factors at theta-hat
    dP: np.ndarray  # (m, p, q, q) their parameter derivatives at theta-hat


@dataclass
class AncillaryBundle:
    """Ancillary vectors with hat-level Cholesky factors and derivatives.

    Blocks are aligned with the blocks of ``eval_hat``; the reconstruction
    identity P_i a_i + mu_i(theta_hat) = y_i holds per observation.
    """

    eval_hat: ModelEval
    blocks: list


def build_ancillary(fit_hat) -> AncillaryBundle:
    """Construct the ancillary bundle at the unrestricted MLE.

    ``fit_hat`` must be a converged unrestricted fit; the bundle is built
    from its cached model evaluation ``fit_hat.eval_``.
    """
    if not fit_hat.converged:
        raise ValueError("ancillary construction requires a converged unrestricted fit")
    ev = fit_hat.eval_
    blocks = []
    for be in ev.blocks:
        z = be.data.y - be.mu
        a = solve_lower(be.P, z[:, :, None])[:, :, 0]
        # dP_r is zero where dSigma_r is
        blocks.append(BundleBlock(a=a, P=be.P, dP=chol_derivative(be.P, be.dsigma, _sigma_support(be)[0])))
    return AncillaryBundle(eval_hat=ev, blocks=blocks)


# ---------------------------------------------------------------------------
# Sample-space derivatives
# ---------------------------------------------------------------------------


@dataclass
class SampleSpaceDerivs:
    """Derivatives with respect to the MLE entering the adjustment factors."""

    ell_hat_prime: np.ndarray  # (p,) l' at theta-hat
    ell_tilde_prime: np.ndarray  # (p,) l' at theta-tilde
    U_tilde_prime: np.ndarray  # (p,p) U' at theta-tilde; [r,s] = d l'_s / d theta_r
    J_doubletilde: np.ndarray  # (p,p)


def _reconstructed_blocks(eval_at: ModelEval, bundle: AncillaryBundle, family: EllipticalFamily):
    """Per block (be, z, w, v, vdot, R-hat, the block's l') at eval_at.theta, a fixed.

    z_i = P-hat_i a_i + mu-hat_i - mu_i and R-hat_ir = dP_ir a_i + dmu-hat_ir.
    """
    for be, be_hat, bb in zip(eval_at.blocks, bundle.eval_hat.blocks, bundle.blocks):
        if not np.array_equal(be.data.idx, be_hat.data.idx):
            raise ValueError("evaluation and bundle block layouts do not match")
        z = np.einsum("mab,mb->ma", bb.P, bb.a) + be_hat.mu - be.mu
        w, _, v, vdot = _block_core(family, be, z)
        Rhat = np.einsum("mrab,mb->mra", bb.dP, bb.a) + be_hat.dmu
        yield be, z, w, v, vdot, Rhat, -np.einsum("m,mra,ma->r", v, Rhat, w)


def _ell_prime(eval_at: ModelEval, bundle: AncillaryBundle, family: EllipticalFamily) -> np.ndarray:
    """l' alone, with the bits ``sample_space_gradients`` gives it: no Q, no U'."""
    return sum((ell for *_, ell in _reconstructed_blocks(eval_at, bundle, family)), np.zeros(eval_at.p))


def sample_space_gradients(eval_at: ModelEval, bundle: AncillaryBundle, family: EllipticalFamily):
    """(l', U') at eval_at.theta, holding the ancillary fixed.

    l'_r = sum_i (a_i' dP_ir' + dmu-hat_ir') Sigma_i^{-1} (-v_i z_i) and
    U'[r,s] = sum_i (a_i' dP_is' + dmu-hat_is') Sigma_i^{-1} Q_ir, where
    z_i = P-hat_i a_i + mu-hat_i - mu_i, every non-hat quantity is
    evaluated at eval_at.theta, and

    Q_ir = 2 vdot_i z_i (d_ir' Sigma_i^{-1} z_i) + v_i d_ir
           - vdot_i z_i (z_i' A_ir z_i) + v_i C_ir Sigma_i^{-1} z_i,

    the T term of the observed information at these residuals.
    """
    p = eval_at.p
    ell = np.zeros(p)
    Uprime = np.zeros((p, p))
    for be, z, w, v, vdot, Rhat, ell_block in _reconstructed_blocks(eval_at, bundle, family):
        ell += ell_block
        alpha, Cw = _first_order(be, w)
        _, _, Q = _t_kernel(be, z, v, vdot, alpha, Cw, *_sigma_support(be))
        QS = np.einsum("mra,mab->mrb", Q, be.sinv)
        Uprime += np.einsum("mrb,msb->rs", QS, Rhat)
    return ell, Uprime


def doubletilde_info(eval_tilde: ModelEval, bundle: AncillaryBundle, family: EllipticalFamily) -> np.ndarray:
    """Observed information at theta-tilde with reconstructed residuals.

    Residuals are z_i = P_i(theta-tilde) a_i instead of y_i - mu_i, so the
    squared radius is u_i = a_i' P_i' Sigma_i^{-1} P_i a_i; the assembly is
    otherwise the ordinary observed-information one.  At
    theta-tilde = theta-hat this reproduces J(theta-hat) exactly.
    """
    z_blocks = [np.einsum("mab,mb->ma", be.P, bb.a) for be, bb in zip(eval_tilde.blocks, bundle.blocks)]
    return score_info(family, eval_tilde, True, z_blocks).info
