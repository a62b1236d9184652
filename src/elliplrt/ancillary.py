"""Approximate ancillary, Cholesky derivatives and sample-space derivatives.

The ancillary vector of observation i is a_i = P_i^{-1}(y_i - mu_i)
evaluated at the unrestricted MLE, where P_i is the lower Cholesky factor
of Sigma_i.  Holding a fixed, the data are reconstructed as
y_i = P_i a_i + mu_i; derivatives of the log-likelihood with respect to
the MLE (l', U') and the information matrix with residuals reconstructed
at the restricted estimate (the double-tilde J) are what the adjustment
factors of the modified test statistics consume.

Cholesky-factor derivatives use the identity dP = P Phi(P^{-1} dS P^{-T})
with Phi = strict lower triangle plus half the diagonal; the elementwise
recursion is kept as a test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from ._linalg import phi_lower, solve_lower
from .families import EllipticalFamily
from .likelihood import _block_core, _first_order, _support, _t_kernel, observed_info
from .likelihood import _scalar_core, _scalar_first_order, _scalar_t_kernel
from .model import Dataset, ModelEval, ModelSpec, evaluate

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
    try:
        return np.linalg.cholesky(S)
    except np.linalg.LinAlgError:
        raise ValueError("matrix is not positive definite") from None


def cholesky_derivative(P: np.ndarray, dS: np.ndarray) -> np.ndarray:
    """Directional derivative of the Cholesky factor: d chol(S)[dS].

    Given P = chol(S) and a symmetric perturbation dS, returns the lower
    triangular dP with dP P' + P dP' = dS, via dP = P Phi(P^{-1} dS P^{-T}).
    """
    P = np.asarray(P, dtype=float)
    dS = np.asarray(dS, dtype=float)
    if np.min(np.abs(np.diag(P))) == 0.0:
        raise ValueError("Cholesky factor is singular")
    X = scipy.linalg.solve_triangular(P, dS, lower=True)
    X = scipy.linalg.solve_triangular(P, X.T, lower=True).T
    return P @ phi_lower(X)


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


def build_ancillary(fit_hat, data: Dataset, model: ModelSpec, family: EllipticalFamily) -> AncillaryBundle:
    """Construct the ancillary bundle at the unrestricted MLE.

    ``fit_hat`` must be a converged unrestricted fit; its cached model
    evaluation is reused when present.
    """
    if not fit_hat.converged:
        raise ValueError("ancillary construction requires a converged unrestricted fit")
    ev = getattr(fit_hat, "eval_", None)
    if ev is None:
        ev = evaluate(model, fit_hat.theta, data)
    blocks = []
    for be in ev.blocks:
        z = be.data.y - be.mu
        if be.data.q == 1:
            # a = z / P, dP_r = P (P^{-1} C_r P^{-1}) / 2 over every r; C-contiguous, as the np.zeros below
            P, Pinv = be.P[:, 0], 1.0 / be.P[:, 0]
            dP = np.empty(be.dsigma.shape)
            np.multiply(P, 0.5 * (Pinv * be.dsigma[:, :, 0, 0] * Pinv), out=dP[:, :, 0, 0])
            blocks.append(BundleBlock(a=z / P, P=be.P, dP=dP))
            continue
        a = solve_lower(be.P, z[:, :, None])[:, :, 0]
        Pinv = solve_lower(be.P, np.broadcast_to(np.eye(be.data.q), be.P.shape).copy())
        # dP_r is zero where dSigma_r is; a non-finite factor keeps every r
        S = be.sigma_support if np.isfinite(Pinv.sum() + be.P.sum()) else slice(None)
        M = np.einsum("mab,mrbc,mdc->mrad", Pinv, be.dsigma[:, S], Pinv)
        dP = np.zeros(be.dsigma.shape)
        dP[:, S] = np.einsum("mab,mrbc->mrac", be.P, phi_lower(M))
        blocks.append(BundleBlock(a=a, P=be.P, dP=dP))
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
        if be.data.q == 1:  # (m,) residuals and (m, p) R-hat; the sums keep their operand shapes
            a = bb.a[:, 0]
            z = bb.P[:, 0, 0] * a + be_hat.mu[:, 0] - be.mu[:, 0]
            w, _, v, vdot = _scalar_core(family, be, z)
            Rhat = bb.dP[:, :, 0, 0] * a[:, None] + be_hat.dmu[:, :, 0]
            yield be, z, w, v, vdot, Rhat, -np.einsum("m,mra,ma->r", v, Rhat[:, :, None], w[:, None])
            continue
        z = np.einsum("mab,mb->ma", bb.P, bb.a) + be_hat.mu - be.mu
        w, _, v, vdot = _block_core(family, be, z)
        Rhat = np.einsum("mrab,mb->mra", bb.dP, bb.a) + be_hat.dmu
        yield be, z, w, v, vdot, Rhat, -np.einsum("m,mra,ma->r", v, Rhat, w)


def _ell_prime(eval_at: ModelEval, bundle: AncillaryBundle, family: EllipticalFamily) -> np.ndarray:
    """l' alone, with the bits ``sample_space_gradients`` gives it: no Q, no U'."""
    ell = np.zeros(eval_at.p)
    for *_, ell_block in _reconstructed_blocks(eval_at, bundle, family):
        ell += ell_block
    return ell


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
        if be.data.q == 1:
            Sinv, SC, alpha, Cw = _scalar_first_order(be, w)
            QS = _scalar_t_kernel(be, z, v, vdot, Sinv, SC, alpha, Cw)[2] * Sinv[:, None]
            Uprime += np.einsum("mrb,msb->rs", QS[:, :, None], Rhat[:, :, None])
            continue
        Sinv, alpha, Cw = _first_order(be, w)
        S, C_bk = _support(be, z, w, v, vdot)
        _, _, Q = _t_kernel(be, z, v, vdot, Sinv, alpha, Cw, S, C_bk)
        QS = np.einsum("mra,mab->mrb", Q, Sinv)
        Uprime += np.einsum("mrb,msb->rs", QS, Rhat)
    return ell, Uprime


def doubletilde_info(eval_tilde: ModelEval, bundle: AncillaryBundle, family: EllipticalFamily) -> np.ndarray:
    """Observed information at theta-tilde with reconstructed residuals.

    Residuals are z_i = P_i(theta-tilde) a_i instead of y_i - mu_i, so the
    squared radius is u_i = a_i' P_i' Sigma_i^{-1} P_i a_i; the assembly is
    otherwise the ordinary observed-information one.  At
    theta-tilde = theta-hat this reproduces J(theta-hat) exactly.
    """
    z_blocks = []
    for be, bb in zip(eval_tilde.blocks, bundle.blocks):
        z_blocks.append(be.P[:, :, 0] * bb.a if be.data.q == 1 else np.einsum("mab,mb->ma", be.P, bb.a))
    return observed_info(family, eval_tilde, z_blocks=z_blocks)
