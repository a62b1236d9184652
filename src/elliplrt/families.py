"""Elliptical distribution families: density generators, weights, samplers.

A q-variate elliptical density has the form |Sigma|^(-1/2) g(u) with
u = z' Sigma^{-1} z.  Three generators are supported: normal, Student-t
(fixed degrees of freedom ``nu``) and power exponential (fixed shape
``lam``).  The shape parameters are known constants, never estimated.

The weight functions v = -2 W_g(u) and vdot = -2 W_g'(u), where
W_g = d log g / du, are what the likelihood machinery needs; everything
family-specific downstream enters only through them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

__all__ = ["EllipticalFamily", "SingularWeightError", "FAMILY_KINDS"]

FAMILY_KINDS = ("normal", "student_t", "power_exponential")

# u below this is treated as zero when guarding the power-exponential
# weight singularity.
_U_CLAMP = 1e-12


class SingularWeightError(ValueError):
    """Raised when a weight function is unbounded at the requested u."""


def _check_uq(u, q):
    u = np.asarray(u, dtype=float)
    if q < 1 or int(q) != q:
        raise ValueError(f"dimension q must be a positive integer, got {q!r}")
    if np.any(u < 0):
        raise ValueError("squared Mahalanobis distance u must be nonnegative")
    return u


def _shape(kind: str, name: str, value) -> float:
    """``float(value)`` for a finite positive shape; a ValueError naming it otherwise (a bool too)."""
    try:
        shape = np.nan if isinstance(value, (bool, np.bool_)) else float(value)
    except (TypeError, ValueError):
        shape = np.nan
    if not 0.0 < shape < np.inf:
        raise ValueError(f"{kind} requires a finite {name} > 0, got {value!r}")
    return shape


@functools.cache
def _log_consts(family, q: int):
    """The u-free terms of log g for (family, q), computed once.

    Student-t: a - b - c of log g = a - b - c - d(u).  Power exponential:
    the pair (a + b - c - d, f) of log g = a + b - c - d - e(u) - f, so
    that log g keeps its left-to-right association (const - e(u)) - f.
    """
    if family.kind == "student_t":
        nu = family.nu
        return gammaln(0.5 * (nu + q)) - gammaln(0.5 * nu) - 0.5 * q * np.log(np.pi * nu)
    lam = family.lam
    head = np.log(lam) + gammaln(0.5 * q) - (0.5 * q / lam) * np.log(2.0) - 0.5 * q * np.log(np.pi)
    return head, gammaln(0.5 * q / lam)


@dataclass(frozen=True)
class EllipticalFamily:
    """One of the supported elliptical error families.

    Parameters
    ----------
    kind : str
        "normal", "student_t" or "power_exponential".
    nu : float, optional
        Degrees of freedom; required iff kind == "student_t".
    lam : float, optional
        Shape parameter; required iff kind == "power_exponential".

    A shape is stored as a float; a missing, non-finite or non-positive
    shape, or one the kind does not take, is a ValueError naming it
    (``lam`` is named ``lambda``, as in ``--lambda`` and the config).
    """

    kind: str
    nu: float | None = None
    lam: float | None = None

    def __post_init__(self):
        if self.kind not in FAMILY_KINDS:
            raise ValueError(f"unknown family kind {self.kind!r}; expected one of {FAMILY_KINDS}")
        takes = {"student_t": "nu", "power_exponential": "lam"}.get(self.kind)
        for name, label in (("nu", "nu"), ("lam", "lambda")):
            value = getattr(self, name)
            if name == takes:
                object.__setattr__(self, name, _shape(self.kind, label, value))
            elif value is not None:
                raise ValueError(f"the {self.kind} family takes no {label}, got {value!r}")

    # -- constructors -----------------------------------------------------

    @classmethod
    def normal(cls) -> "EllipticalFamily":
        return cls("normal")

    @classmethod
    def student_t(cls, nu: float) -> "EllipticalFamily":
        return cls("student_t", nu=nu)

    @classmethod
    def power_exponential(cls, lam: float) -> "EllipticalFamily":
        return cls("power_exponential", lam=lam)

    # -- density generator -------------------------------------------------

    def log_g(self, u, q: int):
        """log of the density generating function at u for dimension q.

        Vectorized over u.  Normal: -u/2 - (q/2) log(2 pi).  Student-t:
        the t_q(nu) generator.  Power exponential: the PE_q(lam) generator,
        which collapses to the normal one at lam = 1.
        """
        return self._log_g(_check_uq(u, q), q)

    def _log_g(self, u: np.ndarray, q: int):
        """``log_g`` for a float array u >= 0 and a valid q, unchecked."""
        if self.kind == "normal":
            return -0.5 * u - 0.5 * q * np.log(2.0 * np.pi)
        if self.kind == "student_t":
            return _log_consts(self, q) - 0.5 * (self.nu + q) * np.log1p(u / self.nu)
        head, tail = _log_consts(self, q)
        return head - 0.5 * u**self.lam - tail

    # -- weight functions --------------------------------------------------

    def weights(self, u, q: int, clamp: bool = False):
        """Weights (v, vdot) = (-2 W_g(u), -2 W_g'(u)) at u, dimension q.

        Vectorized over u.  With ``clamp=True`` the power-exponential
        singularity at u = 0 (lam != 1) is guarded by flooring u at 1e-12;
        likelihood evaluation uses this, and ``fit`` flags the near-zero
        residuals of the point it returns.  Without clamping, u = 0 raises
        SingularWeightError for power_exponential with lam != 1.
        """
        return self._weights(_check_uq(u, q), q, clamp)

    def _clamped(self, u: np.ndarray) -> np.ndarray:
        """Where the clamp fires: u < 1e-12 for power_exponential with lam != 1; read by ``_weights`` and ``fit``."""
        if self.kind == "power_exponential" and self.lam != 1.0:
            return u < _U_CLAMP
        return np.zeros(u.shape, dtype=bool)

    def _weights(self, u: np.ndarray, q: int, clamp: bool):
        """``weights`` for a float array u >= 0 and a valid q, unchecked."""
        if self.kind == "normal":
            return np.ones_like(u), np.zeros_like(u)
        if self.kind == "student_t":
            nu = self.nu
            denom = nu + u
            v = (nu + q) / denom
            return v, -(nu + q) / denom**2
        lam = self.lam
        if clamp:
            u = np.where(self._clamped(u), _U_CLAMP, u)
        elif lam != 1.0 and np.any(u == 0):
            raise SingularWeightError(
                f"power_exponential weights are unbounded at u=0 for lam={lam}"
            )
        v = lam * u ** (lam - 1.0)
        vdot = lam * (lam - 1.0) * u ** (lam - 2.0)
        return v, vdot

    # -- sampler -----------------------------------------------------------

    def sample_spherical(self, q: int, rng: np.random.Generator, size: int | None = None):
        """Draw from the spherical law El_q(0, I_q).

        Returns shape (q,) for size=None, else (size, q).  Student-t draws
        use the normal/chi-square mixture; power-exponential draws combine
        a uniform direction with a radius R = w^(1/(2 lam)),
        w ~ Gamma(q/(2 lam), scale 2), so that ||draw||^2 has density
        proportional to u^(q/2-1) g(u).
        """
        if q < 1 or int(q) != q:
            raise ValueError(f"dimension q must be a positive integer, got {q!r}")
        m = 1 if size is None else int(size)
        z = rng.standard_normal((m, q))
        if self.kind == "normal":
            out = z
        elif self.kind == "student_t":
            w = rng.chisquare(self.nu, size=m)
            out = z * np.sqrt(self.nu / w)[:, None]
        else:
            lam = self.lam
            s = z / np.linalg.norm(z, axis=1, keepdims=True)
            w = rng.gamma(shape=0.5 * q / lam, scale=2.0, size=m)
            out = s * (w ** (0.5 / lam))[:, None]
        return out[0] if size is None else out

    # -- misc ---------------------------------------------------------------

    def label(self) -> str:
        if self.kind == "student_t":
            return f"student_t(nu={self.nu:g})"
        if self.kind == "power_exponential":
            return f"power_exponential(lambda={self.lam:g})"
        return "normal"
