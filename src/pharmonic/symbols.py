"""Phase-space symbols of the functional calculus and their quantization.

The building block is the semigroup symbol p_t(x, tau, xi), a complex
Gaussian in phase space whose exponent b grows linearly in t at small
times.  Fractional-power and Riesz-transform symbols are Gamma-weighted
time integrals of p_t, mirroring the kernel route but on the symbol
side.  Symbols here never depend on rho; that is structural (the
operator commutes with rho translations) and the evaluation signatures
enforce it.

Normalization: p_t_symbol carries the classical (2 pi)^(-d/2) prefactor
of the Weyl-style display.  The quantization used for cross-checks,
T_sigma f(z) = (2 pi)^(-(d+1)) iint e^(i(z-z')w) sigma(x, w) f(z') dz' dw,
sends the constant symbol 1 to the identity, so the fractional-power
and Riesz symbols are built from the prefactor-free exponential; with
the prefactor kept, T_{p_0} would be (2 pi)^(-d/2) Id instead of Id and
every cross-route comparison would be off by that constant.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from . import grid
from .errors import (AliasingWarning, InvalidParameterError, QuadratureError,
                     _warn_at_caller)
from .grid import UniformBox
from .heat_kernel import t_quadrature
from .report import Report

__all__ = [
    "SymbolFn",
    "SampleDomain",
    "b_symbol",
    "p_t_symbol",
    "sigma_alpha",
    "riesz_symbol",
    "sigma_symbol_fn",
    "riesz_symbol_fn",
    "constant_symbol_fn",
    "frequency_symbol_fn",
    "gm_bound_estimate",
    "symbol_decay_report",
    "quantize",
]


def _broadcast_point(x, tau, xi, d: int):
    """Normalize x and xi to (..., d) and tau to an array, and check that
    the three batch shapes broadcast.  Nothing is broadcast here: the
    evaluators keep tau apart from (x, xi)."""
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    xi = np.atleast_1d(np.asarray(xi, dtype=np.float64))
    if x.shape[-1] != d:
        if d == 1:
            x = x[..., None]
        else:
            raise InvalidParameterError(f"x must have last axis {d}")
    if xi.shape[-1] != d:
        if d == 1:
            xi = xi[..., None]
        else:
            raise InvalidParameterError(f"xi must have last axis {d}")
    tau = np.asarray(tau, dtype=np.float64)
    np.broadcast_shapes(x.shape[:-1], tau.shape, xi.shape[:-1])
    return x, tau, xi


def b_symbol(t, x, tau, xi):
    """Exponent of the semigroup symbol:
    b = (|x|^2+|xi|^2)/2 tanh 2t + 2i x.xi sech 2t sinh^2 t + t tau^2."""
    t = np.asarray(t, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    xi = np.asarray(xi, dtype=np.float64)
    tau = np.asarray(tau, dtype=np.float64)
    sq = np.sum(x * x, axis=-1) + np.sum(xi * xi, axis=-1)
    dot = np.sum(x * xi, axis=-1)
    return (0.5 * sq * np.tanh(2.0 * t)
            + 2.0j * dot * np.sinh(t) ** 2 / np.cosh(2.0 * t)
            + t * tau ** 2)


def _dt_b_coeffs(t):
    """Coefficients of the analytic time derivative of b,
    db/dt = (|x|^2+|xi|^2) sech^2 2t + 2i x.xi sech 2t tanh 2t + tau^2:
    returns (sech^2 2t, 2 sech 2t tanh 2t).  The cross term simplifies
    because sinh 2t - 2 tanh 2t sinh^2 t = tanh 2t."""
    sech = 1.0 / np.cosh(2.0 * t)
    return sech ** 2, 2.0 * sech * np.tanh(2.0 * t)


def p_t_symbol(t, x, tau, xi, d: int):
    """Semigroup symbol with the classical (2 pi)^(-d/2) prefactor."""
    if np.any(np.asarray(t) < 0):
        raise InvalidParameterError("t must be nonnegative")
    x, tau, xi = _broadcast_point(x, tau, xi, d)
    return ((2.0 * math.pi) ** (-d / 2.0)
            * np.exp(-0.5 * d * np.log(np.cosh(2.0 * t))
                     - b_symbol(t, x, tau, xi)))


class _TimeNodes(NamedTuple):
    """Nodes and weights of int_0^inf t^(gamma-1) F(t) dt with the
    per-node coefficients of the prefactor-free p_t:
    t^(gamma-1) (cosh 2t)^(-d/2) e^(-b)
        = e^(logc - (|x|^2+|xi|^2) A - i x.xi B) e^(-t tau^2)."""
    t: np.ndarray
    w: np.ndarray
    logc: np.ndarray    # (gamma-1) log t - (d/2) log cosh 2t
    A: np.ndarray       # tanh(2t) / 2
    B: np.ndarray       # 2 sinh^2 t / cosh 2t


def _time_nodes(gamma_: float, d: int, refine: bool) -> _TimeNodes:
    t, w = t_quadrature(gamma_, d).nodes(refine)
    cosh2 = np.cosh(2.0 * t)
    return _TimeNodes(t, w,
                      (gamma_ - 1.0) * np.log(t) - 0.5 * d * np.log(cosh2),
                      0.5 * np.tanh(2.0 * t), 2.0 * np.sinh(t) ** 2 / cosh2)


def _slab(a, sl, batch_axis: int):
    """a[..., sl] on its last batch axis (batch_axis = -1, or -2 for an
    (..., d) point array); an array without that axis, or with it
    broadcast (length 1), is returned whole."""
    if a.ndim < -batch_axis or a.shape[batch_axis] == 1:
        return a
    return a[(Ellipsis, sl) + (slice(None),) * (-batch_axis - 1)]


# a phase below 2^-27 has cos rounding to 1 and sin to the phase itself
_PHASE_EXACT = 2.0 ** -27
# largest (x, xi) block and tau block, in bytes, contracted by one GEMM
_GEMM_BYTES = 16 << 20


def _take(buf, shape):
    """The first prod(shape) elements of the flat buffer buf, as a
    C-contiguous array of that shape."""
    return buf[:math.prod(shape)].reshape(shape)


def _fill(nodes: _TimeNodes, sq, dot, out, work):
    """out[..., 0, :] + i out[..., 1, :] = w_k e^(logc_k - sq A_k - i dot B_k)
    for sq and dot with a trailing node axis of length 1.

    The magnitude w_k e^(logc_k - sq A_k) (one real exp,
    grid._exp_floored: an exact 0 or at least 2^-500) and the phase
    -dot B_k are built in contiguous (..., K) arrays, and each plane of
    out is written once.  cos and sin of the phase come from one tan,
    u = tan(phase / 2): with v = 1 / (1 + u^2), cos = (1 - u^2) v and
    sin = 2u v, within 3e-16 absolute of the exact values
    (numpy's float64 cos and sin are scalar loops, its tan is
    vectorized).  That runs only on the nodes where the block's largest
    |phase| reaches _PHASE_EXACT: B_k rises with t_k, so those nodes
    are a suffix, and on the rest cos and sin round to 1 and to the
    phase itself.  The magnitude, the phase, u, u^2 and v are the
    leading parts of the five rows of work, a float64 (5, n) buffer
    with n at least out.size / 2, so a caller that fills many slabs
    makes them once.  (Built in out's strided planes instead, each
    ufunc runs as many short inner loops of K, and the symbols stencil
    was measured a fifth slower.)"""
    shape = out.shape[:-2] + (nodes.t.size,)
    mag, phase = _take(work[0], shape), _take(work[1], shape)
    np.multiply(sq, -nodes.A, out=mag)
    mag += nodes.logc
    grid._exp_floored(mag)
    mag *= nodes.w
    np.multiply(dot, -nodes.B, out=phase)
    k = int(np.searchsorted(float(np.abs(dot).max(initial=0.0)) * nodes.B,
                            _PHASE_EXACT))
    re = out[..., 0, :]
    re[..., :k] = mag[..., :k]
    if k < nodes.t.size:
        u, u2, inv = (_take(w, shape[:-1] + (nodes.t.size - k,))
                      for w in work[2:])
        np.multiply(phase[..., k:], 0.5, out=u)
        np.tan(u, out=u)
        np.square(u, out=u2)
        np.add(u2, 1.0, out=inv)
        np.divide(1.0, inv, out=inv)
        np.subtract(1.0, u2, out=u2)
        u2 *= inv
        np.multiply(mag[..., k:], u2, out=re[..., k:])
        u += u
        np.multiply(u, inv, out=phase[..., k:])
    np.multiply(mag, phase, out=out[..., 1, :])


def _times(out, f):
    """Multiply the complex block out[..., 0, :] + i out[..., 1, :] by f
    in place."""
    re, im = out[..., 0, :], out[..., 1, :]
    cross = re * f.imag
    re *= f.real
    re -= im * f.imag
    im *= f.real
    im += cross


def _is_outer(a: tuple, b: tuple) -> bool:
    """No axis of the broadcast of shapes a and b is longer than 1 in
    both."""
    n = max(len(a), len(b))
    a, b = (1,) * (n - len(a)) + a, (1,) * (n - len(b)) + b
    return all(p == 1 or q == 1 for p, q in zip(a, b))


def _node_sums(nodes: _TimeNodes, x, tau, xi, factors=(None,)) -> list:
    """sum_k w_k t_k^(gamma-1) (cosh 2t_k)^(-d/2) e^(-b(t_k)) F_k for each
    F in factors (None stands for 1), on the broadcast point shape of
    x[..., 0], tau and xi[..., 0].

    The tau term of b is apart from the (x, xi) terms, so each summand
    is E_k(tau) G_k(x, xi): E_k = e^(-t_k tau^2), a real array on tau's
    own shape, and G_k = w_k e^(logc_k - |x, xi|^2 A_k - i x.xi B_k) on
    the broadcast shape of x and xi, held as its real and imaginary
    parts (_fill).  A factor f(x, xi, sq, dot) (the points, sq =
    |x|^2+|xi|^2 and dot = x.xi with a trailing node axis) multiplies
    into G in place, so it also scales the sums after it: callers pass
    at most one, last.  The node axis is contracted in real arithmetic,
    and G is built once for every tau:

    - when tau runs only on axes that x and xi lack or hold at length
      1 (quantize's box) and both blocks fit in _GEMM_BYTES, by one
      GEMM of the whole (x, xi) block, built in slabs of
      grid._SLAB_BYTES, against the (tau, node) block;
    - otherwise (_derivative_stencil's groups stacked on a leading
      axis of x and xi against its tau rows, scattered points) the last
      batch axis of the point shape is walked in slabs, each slab's
      (x, xi, node) block G and (tau, node) block E together within
      grid._SLAB_BYTES (an array whose last batch axis is broadcast is
      not sliced), so E is built once per tau row and slab and G once
      per group and slab; the node axis is contracted point by point,
      one (2, K) @ (K, 1) product each, so no (x, tau, xi, node) array
      exists and a point of a stack gets the bits it gets alone (a
      GEMM per point would not).

    Each result is a function of its own point alone, whatever the
    slabs and whatever else tau holds.
    """
    sq = np.sum(x * x, axis=-1) + np.sum(xi * xi, axis=-1)
    dot = np.sum(x * xi, axis=-1)
    if _is_outer(sq.shape, tau.shape) and 8 * nodes.t.size * (
            2 * sq.size + tau.size) <= _GEMM_BYTES:
        return _gemm_sums(nodes, x, tau, xi, sq, dot, factors)
    shape = np.broadcast_shapes(sq.shape, tau.shape)
    sums = [np.empty(shape, dtype=np.complex128) for _ in factors]
    n_t = nodes.t.size
    step = max(1, grid._SLAB_BYTES // (8 * n_t * (
        2 * math.prod(sq.shape[:-1]) + math.prod(tau.shape[:-1]))))
    # the first slab is the largest: its E, G and _fill work, made once
    first = slice(0, step)
    n_pts, n_tau = _slab(sq, first, -1).size, _slab(tau, first, -1).size
    e_buf, g_buf = np.empty(n_tau * n_t), np.empty(2 * n_pts * n_t)
    work = np.empty((5, n_pts * n_t))
    for i in range(0, shape[-1], step):
        sl = slice(i, i + step)
        x_s, xi_s = _slab(x, sl, -2), _slab(xi, sl, -2)
        sq_s = _slab(sq, sl, -1)[..., None]
        dot_s = _slab(dot, sl, -1)[..., None]
        tau_s = _slab(tau, sl, -1)[..., None]
        e = _take(e_buf, tau_s.shape[:-1] + (n_t,))
        grid._exp_floored(np.multiply(-nodes.t, tau_s ** 2, out=e))
        g = _take(g_buf, sq_s.shape[:-1] + (2, n_t))
        _fill(nodes, sq_s, dot_s, g, work)
        for out, f in zip(sums, factors):
            if f is not None:
                _times(g, f(x_s, xi_s, sq_s, dot_s))
            r = np.matmul(g, e[..., :, None])
            out[..., sl].real, out[..., sl].imag = r[..., 0, 0], r[..., 1, 0]
    return sums


def _gemm_sums(nodes: _TimeNodes, x, tau, xi, sq, dot, factors) -> list:
    """_node_sums when tau and (x, xi) run on disjoint axes: the points
    of (x, xi) flattened to X rows, G as an (X, 2, K) block, one GEMM
    (T, K) @ (K, 2X) per factor against the T taus; its rows read as
    complex (T, X) and are put back on the broadcast point shape."""
    pts = sq.shape
    n = max(len(pts), tau.ndim)
    d = x.shape[-1]
    x = np.broadcast_to(x, pts + (d,)).reshape(-1, d)
    xi = np.broadcast_to(xi, pts + (d,)).reshape(-1, d)
    sq, dot = sq.reshape(-1, 1), dot.reshape(-1, 1)
    e = grid._exp_floored(-nodes.t * tau.reshape(-1, 1) ** 2)
    g = np.empty((sq.shape[0], 2, nodes.t.size))
    step = max(1, grid._SLAB_BYTES // (16 * nodes.t.size))
    work = np.empty((5, min(step, sq.shape[0]) * nodes.t.size))
    for i in range(0, sq.shape[0], step):
        sl = slice(i, i + step)
        _fill(nodes, sq[sl], dot[sl], g[sl], work)
    del work
    # axes (tau_0, pts_0, tau_1, pts_1, ...): of each pair at most one
    # is longer than 1, so merging the pairs gives the point shape
    pairs = np.arange(2 * n).reshape(2, n).T.ravel()
    shape = np.broadcast_shapes(pts, tau.shape)
    sums = []
    for f in factors:
        if f is not None:
            for i in range(0, sq.shape[0], step):
                sl = slice(i, i + step)
                _times(g[sl], f(x[sl], xi[sl], sq[sl], dot[sl]))
        r = np.matmul(e, g.reshape(-1, nodes.t.size).T).view(np.complex128)
        r = r.reshape((1,) * (n - tau.ndim) + tau.shape
                      + (1,) * (n - len(pts)) + pts)
        sums.append(r.transpose(pairs).reshape(shape))
    return sums


def _check_refined(value, refined, what: str):
    scale = max(float(np.abs(value).max()), 1e-300)
    err = float(np.abs(refined - value).max()) / scale
    if err > 1e-3:
        raise QuadratureError(
            f"{what} quadrature unstable under refinement: {err:.3e}")
    return err


def _sigma_quad(x, tau, xi, alpha: float, d: int, refine: bool):
    """sigma_alpha by one pass of the node sum.

    alpha < 0: sum_k w_k t_k^(-alpha-1) p_(t_k) / Gamma(-alpha).
    0 < alpha < 1: the integrand t^(-alpha) p_t (d tanh 2t + db/dt) is
    two contractions, the (x, xi) part of the polynomial and tau^2
    times the plain sum, over Gamma(1 - alpha).
    """
    if alpha < 0:
        nodes = _time_nodes(-alpha, d, refine)
        return _node_sums(nodes, x, tau, xi)[0] / math.gamma(-alpha)
    nodes = _time_nodes(1.0 - alpha, d, refine)
    sech2, cross = _dt_b_coeffs(nodes.t)
    tanh2 = 2.0 * nodes.A

    def poly(x, xi, sq, dot):
        return (d * tanh2 + sq * sech2) + 1.0j * (dot * cross)

    plain, with_poly = _node_sums(nodes, x, tau, xi, (None, poly))
    return (with_poly + tau ** 2 * plain) / math.gamma(1.0 - alpha)


def sigma_alpha(x, tau, xi, alpha: float, d: int, with_error: bool = False):
    """Fractional-power symbol by time quadrature (order 2 alpha).

    alpha < 0: (1/Gamma(-alpha)) int t^(-alpha-1) p_t dt;
    0 < alpha < 1: the first-derivative route with -d/dt p_t expanded
    analytically as p_t (d tanh 2t + db/dt).  Prefactor-free
    normalization (see module docstring).  with_error reruns at doubled
    quadrature order and raises QuadratureError above 1e-3 relative.
    """
    if alpha == 0 or alpha >= 1:
        raise InvalidParameterError(
            "sigma_alpha needs alpha < 0 or 0 < alpha < 1")
    x, tau, xi = _broadcast_point(x, tau, xi, d)
    val = _sigma_quad(x, tau, xi, alpha, d, refine=False)
    if with_error:
        err = _check_refined(val, _sigma_quad(x, tau, xi, alpha, d, True),
                             f"sigma_alpha({alpha})")
        return val, err
    return val


def _riesz_quad(j: int, x, tau, xi, d: int, refine: bool):
    """riesz_symbol by one pass of the node sum: j = 0 multiplies the
    plain sum by -i tau; j >= 1 puts x_j (1 + tanh 2t) - i xi_j sech 2t,
    which is x_j - i xi_j + db/dx_j, into the (x, xi) factor."""
    nodes = _time_nodes(0.5, d, refine)
    if j == 0:
        return -1.0j * tau * _node_sums(nodes, x, tau, xi)[0] \
            / math.sqrt(math.pi)
    grow = 1.0 + 2.0 * nodes.A
    sech = 1.0 / np.cosh(2.0 * nodes.t)

    def factor(x, xi, sq, dot):
        return x[..., j - 1, None] * grow - 1.0j * (xi[..., j - 1, None]
                                                    * sech)

    return _node_sums(nodes, x, tau, xi, (factor,))[0] / math.sqrt(math.pi)


def riesz_symbol(j: int, x, tau, xi, d: int, with_error: bool = False):
    """Symbol of the Riesz transform A_j H^(-1/2) (order 0).

    j = 0 gives (1/sqrt pi) int t^(-1/2) (-i tau) p_t dt; 1 <= j <= d
    gives (1/sqrt pi) int t^(-1/2) (x_j - i xi_j + db/dx_j) p_t dt,
    the exact symbol of (x_j - d/dx_j) T_{sigma_(-1/2)} under the
    e^(izw) quantization used here: the derivative acting on e^(ixxi)
    brings down -i xi_j, acting on sigma brings up +db/dx_j.  The signs
    are convention-bound and pinned by the ladder cross-check tests.
    Evaluated like sigma_alpha: the tau factor of p_t on tau's shape,
    the (x, xi) factor with the j >= 1 polynomial on theirs, and one
    contraction over the time nodes.
    """
    if not 0 <= j <= d:
        raise InvalidParameterError(f"j = {j} outside 0..{d}")
    x, tau, xi = _broadcast_point(x, tau, xi, d)
    val = _riesz_quad(j, x, tau, xi, d, refine=False)
    if with_error:
        err = _check_refined(val, _riesz_quad(j, x, tau, xi, d, True),
                             f"riesz_symbol({j})")
        return val, err
    return val


# ---------------------------------------------------------------------------
# symbol objects and membership estimation

@dataclass(frozen=True)
class SymbolFn:
    """A rho-independent phase-space symbol with a declared order.

    fn(x, tau, xi) receives broadcastable arrays, x and xi with a
    trailing d axis, and tau may run along axes that x and xi lack or
    hold at length 1, and they along axes that tau lacks.  It returns
    an array that broadcasts to their common batch shape.
    quantize passes each variable on its own box axis, and
    _derivative_stencil passes a stack of shifted (x, xi) groups,
    (G, 1, P, d), against a stack of tau shifts, (m, P); both rely on
    this.
    """
    fn: Callable
    order: float
    label: str

    def __call__(self, x, tau, xi):
        return self.fn(x, tau, xi)


def sigma_symbol_fn(alpha: float, d: int) -> SymbolFn:
    return SymbolFn(lambda x, tau, xi: sigma_alpha(x, tau, xi, alpha, d),
                    order=2.0 * alpha, label=f"frac_power({alpha})")


def riesz_symbol_fn(j: int, d: int) -> SymbolFn:
    return SymbolFn(lambda x, tau, xi: riesz_symbol(j, x, tau, xi, d),
                    order=0.0, label=f"riesz({j})")


def constant_symbol_fn(value: complex = 1.0) -> SymbolFn:
    return SymbolFn(lambda x, tau, xi: np.full(np.asarray(tau).shape, value,
                                               dtype=np.complex128),
                    order=0.0, label="constant")


def frequency_symbol_fn() -> SymbolFn:
    """i tau: the symbol of the rho derivative (order 1)."""
    return SymbolFn(lambda x, tau, xi: 1.0j * np.asarray(tau,
                                                         dtype=np.float64),
                    order=1.0, label="i*tau")


@dataclass(frozen=True)
class SampleDomain:
    """Dyadic product shells in (|x|, |tau|, |xi|) with random directions.

    Magnitude levels are {0, 1, 2, 4, ..., cap} per factor, all triples
    combined, per_shell random direction draws each; axis-aligned
    points are included so pure-frequency suprema are attained.
    """
    d: int
    cap: float = 64.0
    per_shell: int = 4
    seed: int = 0

    def magnitudes(self) -> np.ndarray:
        n = int(round(math.log2(self.cap)))
        return np.concatenate([[0.0], 2.0 ** np.arange(n + 1)])

    # equal domains hash alike: every gm_bound_estimate call on a
    # domain or its doubled() copy shares one build of the points
    @functools.lru_cache(maxsize=8)
    def points(self):
        """(x, tau, xi) sample arrays, built once per domain and
        read-only."""
        mags = self.magnitudes()
        if len(mags) < 5:
            raise InvalidParameterError("domain needs >= 4 dyadic shells")
        rng = np.random.default_rng(self.seed)
        xs, taus, xis = [], [], []

        def direction(k):
            v = rng.standard_normal(k)
            norm = np.linalg.norm(v)
            return v / norm if norm > 0 else np.eye(k)[0]

        for mx in mags:
            for mt in mags:
                for mxi in mags:
                    for _ in range(self.per_shell):
                        xs.append(mx * direction(self.d))
                        taus.append(mt * (1.0 if rng.uniform() < 0.5
                                          else -1.0))
                        xis.append(mxi * direction(self.d))
        # axis-aligned: pure x, pure tau, pure xi at every magnitude
        for m in mags[1:]:
            xs.extend([m * np.eye(self.d)[0], np.zeros(self.d),
                       np.zeros(self.d)])
            taus.extend([0.0, m, 0.0])
            xis.extend([np.zeros(self.d), np.zeros(self.d),
                        m * np.eye(self.d)[0]])
        arrays = np.array(xs), np.array(taus), np.array(xis)
        for a in arrays:
            a.flags.writeable = False
        return arrays

    def doubled(self) -> "SampleDomain":
        return replace(self, cap=2.0 * self.cap)


def _bracket(x, tau, xi, kind: str) -> np.ndarray:
    if kind == "combined":
        s = (np.linalg.norm(x, axis=-1) + np.abs(tau)
             + np.linalg.norm(xi, axis=-1))
    elif kind == "omega":
        s = np.abs(tau) + np.linalg.norm(xi, axis=-1)
    else:
        raise InvalidParameterError(f"unknown weight kind {kind!r}")
    return np.sqrt(1.0 + s * s)


def _derivative_stencil(symbol: SymbolFn, x, tau, xi, r: int):
    """All |beta| <= r central-difference derivatives at each sample.

    Variables are (x_1..x_d, tau, xi_1..xi_d); steps are relative,
    1e-3 * max(1, |X|) per sample.  Returns a list of (|beta|, values).

    A stencil point is a spec of (variable, sign) shifts.  Specs that
    differ only in their tau shift share (x, xi) and form a group, and
    the groups with the same tau shifts go in one symbol call: their
    shifted x and xi stacked as (G, 1, P, d) against the taus as
    (m, P).  At r = 2 that is two calls, the 1 + 4d groups against the
    rows (tau, tau + h, tau - h) and the 8d^2 - 4d mixed groups against
    tau alone, each cut into chunks of at most grid._SLAB_BYTES of
    stacked (x, xi) and (G, m, P) result.  An evaluator builds its
    (x, xi) part once per group and its tau part once per row, and
    each spec keeps its own row of the result.
    """
    d = x.shape[-1]
    n_var = 2 * d + 1
    mag = np.sqrt(np.sum(x ** 2, axis=-1) + tau ** 2
                  + np.sum(xi ** 2, axis=-1))
    h = 1e-3 * np.maximum(1.0, mag)

    specs = [()]
    if r >= 1:
        specs += [((v, s),) for v in range(n_var) for s in (+1, -1)]
    if r >= 2:
        specs += [((v1, s1), (v2, s2))
                  for v1 in range(n_var) for v2 in range(v1 + 1, n_var)
                  for s1 in (+1, -1) for s2 in (+1, -1)]
    # a spec shifts tau at most once: group by the other shifts, and
    # the groups by their tau shifts, one symbol call each
    groups = {}
    for spec in specs:
        key = tuple((var, sg) for var, sg in spec if var != d)
        shift = sum(sg for var, sg in spec if var == d)
        groups.setdefault(key, []).append((shift, spec))
    calls = {}
    for key, members in groups.items():
        calls.setdefault(tuple(sg for sg, _ in members), []).append(key)

    # one evaluation per (x, xi), shared across every derivative
    vals = {}
    for shifts, keys in calls.items():
        taus = np.stack([tau + sg * h if sg else tau for sg in shifts])
        step = max(1, grid._SLAB_BYTES
                   // (tau.size * (16 * d + 16 * len(shifts))))
        for i in range(0, len(keys), step):
            chunk = keys[i:i + step]
            xx = np.repeat(x[None], len(chunk), axis=0)
            xxi = np.repeat(xi[None], len(chunk), axis=0)
            for g, key in enumerate(chunk):
                for var, sg in key:
                    if var < d:
                        xx[g, ..., var] += sg * h
                    else:
                        xxi[g, ..., var - d - 1] += sg * h
            rows = np.broadcast_to(symbol(xx[:, None], taus, xxi[:, None]),
                                   (len(chunk),) + taus.shape)
            for g, key in enumerate(chunk):
                for row, (_, spec) in zip(rows[g], groups[key]):
                    vals[spec] = row

    center = vals[()]
    out = [(0, center)]
    if r >= 1:
        for v in range(n_var):
            plus, minus = vals[((v, +1),)], vals[((v, -1),)]
            out.append((1, (plus - minus) / (2.0 * h)))
            if r >= 2:
                out.append((2, (plus - 2.0 * center + minus) / h ** 2))
        if r >= 2:
            for v1 in range(n_var):
                for v2 in range(v1 + 1, n_var):
                    mixed = (vals[((v1, +1), (v2, +1))]
                             - vals[((v1, +1), (v2, -1))]
                             - vals[((v1, -1), (v2, +1))]
                             + vals[((v1, -1), (v2, -1))]) / (4.0 * h ** 2)
                    out.append((2, mixed))
    return out


def _ratio(a, base, power):
    """a / base ** power, taken in logs where base ** power is not a
    normal double (it underflowed or overflowed at a large |power|), so
    a representable quotient stays finite."""
    tiny, huge = np.finfo(np.float64).tiny, np.finfo(np.float64).max
    with np.errstate(over="ignore", under="ignore", divide="ignore",
                     invalid="ignore"):
        den = base ** power
        out = a / den
        off = ~((den >= tiny) & (den <= huge))
        if off.any():
            out[off] = np.exp(np.log(a[off]) - power * np.log(base[off]))
    return out


def _normalized_sups(symbol: SymbolFn, dom: SampleDomain, r: int,
                     weights) -> dict:
    """{weight: {|beta|: sup |D^beta sigma| / <w>^(m - |beta|)}} over the
    points of dom, m = symbol.order, for each weight kind in weights,
    all from one evaluation of the order-r stencil.  A NaN ratio makes
    its sup NaN."""
    m = symbol.order
    x, tau, xi = dom.points()
    stencil = _derivative_stencil(symbol, x, tau, xi, r)
    out = {}
    for weight in weights:
        bracket = _bracket(x, tau, xi, weight)
        best = {}
        for order, vals in stencil:
            ratio = _ratio(np.abs(vals), bracket, m - order)
            best[order] = float(np.maximum(best.get(order, 0.0),
                                           ratio.max()))
        out[weight] = best
    return out


def _gm_report(symbol: SymbolFn, domain: SampleDomain, r: int,
               weight: str, base: dict, wide: dict) -> Report:
    """The metrics of gm_bound_estimate from the sups of orders 0..r on
    domain (base) and on domain.doubled() (wide)."""
    rep = Report(suite="symbols",
                 params={"label": symbol.label, "m": symbol.order, "r": r,
                         "cap": domain.cap, "weight": weight})
    for order in range(r + 1):
        sup_w = float(np.maximum(wide[order], base[order]))
        rep.add(f"sup_order_{order}", sup_w, None, np.isfinite(sup_w),
                f"normalized |D^beta|, |beta| = {order}")
        rep.add_growth(f"stability_order_{order}", base[order], sup_w,
                       "doubling the domain cap")
    return rep


def gm_bound_estimate(symbol: SymbolFn, domain: SampleDomain, r: int = 0,
                      weight: str = "combined") -> Report:
    """Empirical membership check: |D^beta sigma| <= C <w>^(m - |beta|)
    with m = symbol.order.

    Sups of the normalized derivatives over the sample domain, compared
    against the same sups with the domain cap doubled; PASS iff the
    ratio stays below STABILITY_LIMIT (the constants are existential,
    only stability is claimed).
    """
    if r not in (0, 1, 2):
        raise InvalidParameterError("derivative order r must be 0, 1 or 2")
    base, wide = (_normalized_sups(symbol, dom, r, (weight,))[weight]
                  for dom in (domain, domain.doubled()))
    return _gm_report(symbol, domain, r, weight, base, wide)


def symbol_decay_report(alpha: float, d: int, domain: SampleDomain
                        ) -> Report:
    """|sigma_alpha| <= C <|x|+|w|>^(2 alpha) over the shells, plus the
    S_(1,0)-style frequency-only weight for the class inclusion, and
    |D^beta sigma_alpha| <= C <|x|+|w|>^(2 alpha - |beta|) for
    |beta| <= 2 (deriv_*, as gm_bound_estimate with r = 2), each stable
    to STABILITY_LIMIT.

    All of them are read off one evaluation of the order-2 stencil per
    domain, so sigma_alpha runs twice per domain (more often past the
    byte budget of a call, see _derivative_stencil).
    """
    rep = Report(suite="symbols", params={"alpha": alpha, "d": d,
                                          "cap": domain.cap})
    sym = sigma_symbol_fn(alpha, d)
    base, wide = (_normalized_sups(sym, dom, 2, ("combined", "omega"))
                  for dom in (domain, domain.doubled()))
    for weight in ("combined", "omega"):
        rep.extend(_gm_report(sym, domain, 0, weight, base[weight],
                              wide[weight]), prefix=f"{weight}_")
    rep.extend(_gm_report(sym, domain, 2, "combined", base["combined"],
                          wide["combined"]), prefix="deriv_")
    return rep


# ---------------------------------------------------------------------------
# quantization on a uniform box (d = 1)

def quantize(symbol: SymbolFn, values: np.ndarray, box: UniformBox
             ) -> np.ndarray:
    """Kohn-Nirenberg quantization T_sigma f on a 2-D uniform box.

    T_sigma f(z) = (2 pi)^(-2) iint e^(i(z-z')w) sigma(x, w) f(z') dz' dw,
    realized as a full FFT of f, one evaluation of sigma on the whole
    (x, tau, xi) box grid (passed as broadcastable axes, so a symbol
    evaluator sees each variable on its own axis), one inverse FFT over
    tau and one phase contraction over xi.  The constant symbol
    reproduces f exactly up to roundoff.
    """
    if len(box.counts) != 2:
        raise InvalidParameterError("quantization implemented for d = 1 "
                                    "(two-dimensional phase-space box)")
    values = np.asarray(values)
    if values.shape != tuple(box.counts):
        raise InvalidParameterError("values shape does not match the box")
    n_r, n_x = box.counts
    taus, xis = box.freq_axes()
    xs = box.axes()[1]
    fhat = np.fft.fft2(values)
    # boundary spectral mass: energy at the Nyquist rings
    power = np.abs(fhat) ** 2
    ring = (power[n_r // 2, :].sum() + power[:, n_x // 2].sum())
    total = power.sum()
    if total > 0 and ring / total > 1e-6:
        _warn_at_caller(
            f"boundary spectral energy {ring / total:.2e} exceeds "
            "1.0e-06; the box under-resolves the field", AliasingWarning)
    # axes (x, tau, xi), each variable with its trailing d = 1 axis
    sig = np.broadcast_to(symbol(xs[:, None, None, None], taus[None, :, None],
                                 xis[None, None, :, None]), (n_x, n_r, n_x))
    col = np.fft.ifft(sig * fhat, axis=1)
    # plain index-space DFT phases on both sides: the box-offset phase
    # e^(i W w) of the forward transform cancels against the inverse,
    # sigma itself is evaluated at the true frequencies
    idx = np.arange(n_x)
    phase = np.exp(2.0j * math.pi * idx[:, None] * idx / n_x) / n_x
    return np.ascontiguousarray(np.matmul(col, phase[..., None])[..., 0].T)
