"""Hermite functions, Gauss-Hermite quadrature, and Mehler kernels.

The normalized Hermite functions on R are generated by the stable
recurrence

    h_0(x)     = pi^(-1/4) exp(-x^2/2)
    h_1(x)     = sqrt(2) x h_0(x)
    h_{k+1}(x) = x sqrt(2/(k+1)) h_k(x) - sqrt(k/(k+1)) h_{k-1}(x)

and form an orthonormal basis of L^2(R).  Tensor products
Phi_mu(x) = h_{mu_1}(x_1) ... h_{mu_d}(x_d) are eigenfunctions of the
harmonic oscillator -Delta + |x|^2 with eigenvalue 2|mu| + d.  The
degree-k projection kernel

    Phi_k(x, x') = sum_{|mu| = k} Phi_mu(x) Phi_mu(x')

has the Mehler generating function, valid for 0 < r < 1:

    sum_k r^k Phi_k(x, x') = pi^(-d/2) (1 - r^2)^(-d/2)
        exp( -((1 + r^2)/(1 - r^2)) (|x|^2 + |x'|^2)/2
             + 2 r x.x' / (1 - r^2) )

The closed form is evaluated in log space so that moderately large
|x|, |x'| underflow gracefully instead of overflowing intermediates.
"""
from __future__ import annotations

import numpy as np
from numpy.polynomial.hermite import hermgauss

from .errors import DomainError, InvalidParameterError

__all__ = [
    "gauss_hermite",
    "hermite_eval",
    "hermite_all",
    "phi_mu",
    "multi_indices",
    "compositions",
    "projection_kernel",
    "mehler_closed_form",
    "mehler_partial_sum",
]


def hermite_all(kmax: int, x) -> np.ndarray:
    """Evaluate h_0 .. h_kmax at x.

    Parameters
    ----------
    kmax : int
        Highest degree, >= 0.
    x : array_like
        Evaluation points, any shape.

    Returns
    -------
    ndarray, shape (kmax+1,) + x.shape
        out[k] = h_k(x).  Underflow to zero far in the Gaussian tail is
        expected and harmless.
    """
    if kmax < 0:
        raise InvalidParameterError("kmax must be >= 0")
    x = np.asarray(x, dtype=float)
    out = np.empty((kmax + 1,) + x.shape, dtype=float)
    out[0] = np.pi ** -0.25 * np.exp(-0.5 * x * x)
    if kmax >= 1:
        out[1] = np.sqrt(2.0) * x * out[0]
    for k in range(1, kmax):
        out[k + 1] = x * np.sqrt(2.0 / (k + 1)) * out[k] \
            - np.sqrt(k / (k + 1.0)) * out[k - 1]
    return out


def hermite_eval(k: int, x) -> np.ndarray:
    """h_k(x) via the normalized recurrence."""
    return hermite_all(k, x)[k]


def phi_mu(mu, x) -> np.ndarray:
    """Tensor Hermite function Phi_mu at points x.

    x has shape (..., d) with d = len(mu); the last axis is the
    coordinate axis.
    """
    mu = tuple(int(m) for m in mu)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape[-1] != len(mu):
        raise InvalidParameterError(
            f"x last axis {x.shape[-1]} != len(mu) {len(mu)}")
    out = np.ones(x.shape[:-1], dtype=float)
    for j, m in enumerate(mu):
        out = out * hermite_eval(m, x[..., j])
    return out


def gauss_hermite(M: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite rule of order M (weight e^{-x^2} on R), as the
    pair (nodes, weights).

    Nodes are the roots of the degree-M Hermite polynomial, symmetric
    about 0; weights are positive and sum to sqrt(pi).  The rule
    integrates g(x) e^{-x^2} exactly for polynomial g up to degree
    2M - 1.
    """
    if M < 1:
        raise InvalidParameterError("M must be >= 1")
    return hermgauss(M)


def compositions(k: int, d: int) -> np.ndarray:
    """All multi-indices mu in N^d with |mu| = k, lexicographic order."""
    if d < 1:
        raise InvalidParameterError("d must be >= 1")
    if k < 0:
        raise InvalidParameterError("k must be >= 0")
    if d == 1:
        return np.array([[k]], dtype=np.int64)
    rows = []
    for first in range(k + 1):
        for rest in compositions(k - first, d - 1):
            rows.append([first, *rest])
    return np.array(rows, dtype=np.int64)


def multi_indices(d: int, K: int) -> np.ndarray:
    """All mu with |mu| <= K, ordered by total degree then lexicographic."""
    blocks = [compositions(k, d) for k in range(K + 1)]
    return np.concatenate(blocks, axis=0)


def _shell_sums(K: int, r: float, x: np.ndarray,
                xp: np.ndarray) -> np.ndarray:
    """r^k Phi_k(x, x') for k = 0 .. K, stacked on a new first axis.

    x and xp are float arrays of shape (..., d) that broadcast.  Phi_mu
    factors over the axes, so the degree-k shell of the product is entry
    k of the Cauchy product of the axis sequences
    a_j[k] = (r^k h_k(x_j)) h_k(x'_j), truncated at degree K: d - 1
    convolutions of length K + 1, whatever the shell sizes
    C(k + d - 1, d - 1).
    """
    x, xp = np.broadcast_arrays(x, xp)
    powers = (r ** np.arange(K + 1)).reshape((-1,) + (1,) * x.ndim)
    seq = powers * hermite_all(K, x) * hermite_all(K, xp)
    out = seq[..., 0]
    for j in range(1, x.shape[-1]):
        a = seq[..., j]
        out = np.array([np.sum(out[:k + 1] * a[k::-1], axis=0)
                        for k in range(K + 1)])
    return out


def projection_kernel(k: int, x, xp) -> np.ndarray:
    """Degree-k projection kernel sum_{|mu|=k} Phi_mu(x) Phi_mu(x').

    x and xp have shape (..., d) and must broadcast against each other.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    xp = np.atleast_1d(np.asarray(xp, dtype=float))
    if xp.shape[-1] != x.shape[-1]:
        raise InvalidParameterError("x and x' dimension mismatch")
    return _shell_sums(k, 1.0, x, xp)[k]


def mehler_closed_form(r: float, x, xp, d: int) -> np.ndarray:
    """Closed-form value of sum_k r^k Phi_k(x, x'), 0 < r < 1.

    Evaluated as exp(log prefactor + exponent); strictly positive.
    """
    if not (0.0 < r < 1.0):
        raise DomainError(f"r must lie in (0, 1), got {r}")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    xp = np.atleast_1d(np.asarray(xp, dtype=float))
    if x.shape[-1] != d or xp.shape[-1] != d:
        raise InvalidParameterError("x, x' must have last axis of length d")
    one_minus = 1.0 - r * r
    log_pref = -0.5 * d * (np.log(np.pi) + np.log(one_minus))
    sq = np.sum(x * x, axis=-1) + np.sum(xp * xp, axis=-1)
    quad = -0.5 * ((1.0 + r * r) / one_minus) * sq \
        + (2.0 * r / one_minus) * np.sum(x * xp, axis=-1)
    return np.exp(log_pref + quad)


def mehler_partial_sum(K_sum: int, r: float, x, xp, d: int) -> np.ndarray:
    """Partial sum sum_{k <= K_sum} r^k Phi_k(x, x').

    Converges to the closed form as K_sum grows, with geometric tail
    O(r^{K_sum+1} / (1 - r)) on compact sets.
    """
    if K_sum < 0:
        raise InvalidParameterError("K_sum must be >= 0")
    if not (0.0 < r < 1.0):
        raise DomainError(f"r must lie in (0, 1), got {r}")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    xp = np.atleast_1d(np.asarray(xp, dtype=float))
    if x.shape[-1] != d or xp.shape[-1] != d:
        raise InvalidParameterError("x, x' must have last axis of length d")
    shells = _shell_sums(K_sum, r, x, xp)
    acc = np.zeros(shells.shape[1:], dtype=float)
    for k in range(K_sum, -1, -1):   # small terms first
        acc = acc + shells[k]
    return acc
