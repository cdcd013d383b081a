"""Physical-space route: heat kernel, fractional-power kernels, bounds.

The heat semigroup e^(-tH) has the explicit kernel

    E(t, z, z') = 2^(-(d+2)/2) pi^(-(d+1)/2) t^(-1/2) (sinh 2t)^(-d/2)
                  * exp(-B(t, z, z'))

with the quadratic form B; grouping the prefactor as
(4 pi t)^(-1/2) (2 pi sinh 2t)^(-d/2) splits E into a free Gaussian in
rho times a product of one-dimensional oscillator kernels in x, which
is what heat_apply_kernel exploits.  Fractional powers come from Gamma-
weighted time integrals of E: the pointwise kernels of H^(-alpha) by
the log-t trapezoid of TQuadrature, and (H + s)^alpha f on a grid, for
both signs of alpha, by the single formula of frac_power_kernel.
Everything here is independent of the eigenbasis route in
spectral.py, so agreement between the two is a meaningful check and
not a tautology.

On a grid the kernel acts on a stack of float64 fields, shape
(B,) + grid.shape; H is a real operator, so a complex field runs as
its real and imaginary parts, two real fields (_real_image).
_heat_stack applies e^(-tH) to the whole stack, one rho matrix and
one x matrix per t, contracting axis by axis into two reused work
buffers.  heat_apply_kernel is one field's stack; frac_power_kernel
adds 6 + n weighted applies into one accumulator, each weight folded
into its rho matrix, the series head taken as six weighted semigroup
differences and the rest as an n-node panel sized to its error budget
(_frac_nodes, n = 20 for the default d = 3 gate); the hls checks run
a whole family's members as one stack, up to grid._SLAB_BYTES
(_frac_power_images).

Points z are packed as arrays (..., d+1) with z[..., 0] = rho and
z[..., 1:] = x.
"""
from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from . import grid
from .errors import (
    DomainError,
    InvalidParameterError,
    QuadratureError,
    ResolutionWarning,
    SingularPointError,
    TruncationWarning,
    _warn_at_caller,
)
from .grid import Field, Grid, _contract_axis
from .report import Report

__all__ = [
    "TQuadrature",
    "t_quadrature",
    "b_quadratic",
    "heat_kernel_E",
    "log_heat_kernel_E",
    "heat_apply_kernel",
    "k_alpha",
    "psi_alpha",
    "sample_pairs",
    "kernel_bound_report",
    "frac_power_kernel",
    "schur_weighted_report",
]


def _logsinh(y: np.ndarray) -> np.ndarray:
    """log(sinh y) for y > 0, stable at both ends."""
    y = np.asarray(y, dtype=np.float64)
    small = y < 1e-6
    safe = np.where(small, 1.0, y)
    return np.where(small, np.log(y) + y * y / 6.0,
                    safe + np.log1p(-np.exp(-2.0 * safe)) - np.log(2.0))


def _split_z(z: np.ndarray):
    z = np.asarray(z, dtype=np.float64)
    return z[..., 0], z[..., 1:]


def b_quadratic(t, z, zp) -> np.ndarray:
    """The exponent B(t,z,z') of the heat kernel.

    B = 1/4 (2 coth 2t - tanh t) |x-x'|^2 + (tanh t)/4 |x+x'|^2
        + (rho-rho')^2 / (4t)
    """
    t = np.asarray(t, dtype=np.float64)
    rho, x = _split_z(z)
    rhop, xp = _split_z(zp)
    dsq = np.sum((x - xp) ** 2, axis=-1)
    ssq = np.sum((x + xp) ** 2, axis=-1)
    coth2t = 1.0 / np.tanh(2.0 * t)
    return (0.25 * (2.0 * coth2t - np.tanh(t)) * dsq
            + 0.25 * np.tanh(t) * ssq
            + (rho - rhop) ** 2 / (4.0 * t))


def log_heat_kernel_E(t, z, zp, d: int) -> np.ndarray:
    t = np.asarray(t, dtype=np.float64)
    pref = (-(d + 2) / 2.0 * math.log(2.0)
            - (d + 1) / 2.0 * math.log(math.pi)
            - 0.5 * np.log(t)
            - d / 2.0 * _logsinh(2.0 * t))
    return pref - b_quadratic(t, z, zp)


def heat_kernel_E(t, z, zp, d: int | None = None) -> np.ndarray:
    """Heat kernel value; strictly positive, underflows gracefully."""
    if d is None:
        d = np.asarray(z).shape[-1] - 1
    return np.exp(log_heat_kernel_E(t, z, zp, d))


# ---------------------------------------------------------------------------
# time quadrature for the Gamma-weighted integrals

def _gl_panels(edges: np.ndarray, order: int):
    """Composite Gauss-Legendre nodes/weights over consecutive panels."""
    xg, wg = np.polynomial.legendre.leggauss(order)
    a = edges[:-1][:, None]
    b = edges[1:][:, None]
    nodes = 0.5 * (b - a) * xg[None, :] + 0.5 * (a + b)
    weights = 0.5 * (b - a) * np.tile(wg, (len(edges) - 1, 1))
    return nodes.ravel(), weights.ravel()


_LOG_T_STEP = 0.15


def _log_t_step(alpha: float, refine: bool) -> float:
    """_LOG_T_STEP up to alpha = 10 and shrinking like alpha^(-1/2)
    above, halved by refine: t^(alpha-1) e^(-td) peaks at (alpha-1)/d
    with a width of about alpha^(-1/2) in log t, which _LOG_T_STEP
    resolves to roundoff up to alpha = 10."""
    h = _LOG_T_STEP * math.sqrt(min(1.0, 10.0 / alpha))
    return h / (2.0 if refine else 1.0)


@dataclass(frozen=True)
class TQuadrature:
    """Node/weight rule for integrals int_0^inf t^(alpha-1) F(t) dt.

    The trapezoid rule in y = log t (exponentially convergent here;
    Trefethen and Weideman, SIAM Rev. 56, 2014): nodes t_max e^(-k h)
    down to t_lo <= 1e-16 and weights h t, so a caller sums
    w t^(alpha-1) F(t).  The weight of t_lo also carries the lattice
    continued below it with F frozen, h t_lo e^(-alpha h)/(1 - e^(-alpha h)),
    which keeps alpha << 1 exact.  h = 0.15 (refine halves it) is the
    coarsest step that resolves integrands with a c/t term, the Bessel-K
    form with 2 sqrt(c lambda) <= 28, to 3e-14; 0.2 leaves 5e-9 and 0.3
    leaves 5e-4.  Above alpha = 10 the step shrinks like alpha^(-1/2),
    with the width of the integrand's peak in log t (_log_t_step): a
    row integral errs by 2e-16 at alpha = 10 and by at most 8e-15 up to
    alpha = 80, where 0.15 throughout erred 8.3e-11 at alpha = 30 and
    2.2e-6 at 60.
    """
    alpha: float
    t_max: float

    def nodes(self, refine: bool = False):
        h = _log_t_step(self.alpha, refine)
        n = math.ceil(math.log(self.t_max / 1e-16) / h)
        t = self.t_max * np.exp(-h * np.arange(n, -1, -1, dtype=np.float64))
        w = h * t
        w[0] /= -math.expm1(-self.alpha * h)
        return t, w


def t_quadrature(alpha: float, d: int) -> TQuadrature:
    """The rule for the kernels of H^(-alpha) in d oscillator axes.

    The integrand decays like t^(alpha-1) e^(-td).  At alpha <= 1 it is
    cut at t_max = max(40/d, 2), where e^(-td) has fallen by e^(-40).
    Above 1 it peaks at t_p = (alpha-1)/d, and t_max reaches the same
    margin past the peak: t_max = s t_p where t^(alpha-1) e^(-td) is
    e^(-40) times its peak value, s - 1 - log s = 40/(alpha-1), solved
    by Newton's method from the right (the left side is convex in s).
    """
    if alpha <= 0:
        raise InvalidParameterError("kernel order alpha must be positive")
    if d < 1:
        raise InvalidParameterError("the kernel needs d >= 1 oscillator axes")
    t_max = max(40.0 / d, 2.0)
    if alpha > 1.0:
        m = 40.0 / (alpha - 1.0)
        s = 2.0 * (1.0 + m)
        for _ in range(100):
            step = (s - 1.0 - math.log(s) - m) / (1.0 - 1.0 / s)
            s -= step
            if step <= 1e-15 * s:
                break
        t_max = max(t_max, s * (alpha - 1.0) / d)
    return TQuadrature(alpha, t_max=t_max)


def k_alpha(z, zp, alpha: float, with_error: bool = False):
    """Kernel of H^(-alpha) by time quadrature.

    Points need d >= 1 oscillator coordinates; points with
    |z - z'| < 1e-3 are refused when 2 alpha <= d + 1 (the kernel is
    genuinely singular on the diagonal there).
    """
    z = np.asarray(z, dtype=np.float64)
    zp = np.asarray(zp, dtype=np.float64)
    d = z.shape[-1] - 1
    quad = t_quadrature(alpha, d)
    s = np.sqrt(np.sum((z - zp) ** 2, axis=-1))
    if 2 * alpha <= d + 1 and np.any(s < 1e-3):
        raise SingularPointError(
            "points within 1e-3 of the diagonal with 2 alpha <= d+1")

    def run(refine):
        t, w = quad.nodes(refine)
        logs = ((alpha - 1.0) * np.log(t)
                + log_heat_kernel_E(t, z[..., None, :], zp[..., None, :], d))
        return np.sum(w * np.exp(logs), axis=-1) / math.gamma(alpha)

    val = run(False)
    if with_error:
        ref = run(True)
        err = float(np.max(np.abs(val - ref)
                           / np.maximum(np.abs(ref), 1e-300)))
        if err > 1e-3:
            raise QuadratureError(
                f"time quadrature unstable: doubling changes the result "
                f"by {err:.2e}")
        return val, err
    return val


def psi_alpha(s, alpha: float, d: int):
    """Comparison profile for the kernel bounds, split at s = 1.

    s < 1: s^(2 alpha - (d+1)) below the critical order, |log s| at it,
    1 above; s >= 1: e^(-s^2/16).
    """
    s = np.asarray(s, dtype=np.float64)
    if np.any(s <= 0):
        raise InvalidParameterError("psi_alpha needs s > 0")
    near = s < 1.0
    crit = (d + 1) / 2.0
    out = np.empty_like(s)
    if alpha < crit:
        out[near] = s[near] ** (2 * alpha - (d + 1))
    elif alpha == crit:
        out[near] = np.abs(np.log(s[near]))
    else:
        out[near] = 1.0
    out[~near] = np.exp(-s[~near] ** 2 / 16.0)
    return out


def sample_pairs(d: int, n: int, seed: int):
    """n point pairs with log-uniform separations in [0.05, 5], the
    first point uniform in [-4, 4]^(d+1), packed (n, d+1)."""
    rng = np.random.default_rng(seed)
    z = np.empty((n, d + 1))
    z[:, 0] = rng.uniform(-4.0, 4.0, n)
    z[:, 1:] = rng.uniform(-4.0, 4.0, (n, d))
    s = np.exp(rng.uniform(np.log(0.05), np.log(5.0), n))
    u = rng.standard_normal((n, d + 1))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    return z, z + s[:, None] * u


def kernel_bound_report(alpha: float, d: int, levels) -> Report:
    """Check sup K_alpha / Psi_alpha over refinement levels of samples.

    levels is a sequence of (z, zp) arrays; the sup is tracked over the
    cumulative union, and the check passes when the final sup is finite
    and the last refinement changed it by less than STABILITY_LIMIT.
    Near-diagonal samples (s < 1) also check the matching lower bound
    K_alpha >= c e^(-|x+x'|^2) s^(2 alpha - (d+1)) with some c > 0.
    """
    rep = Report(suite="kernel-bounds",
                 params={"alpha": alpha, "d": d, "levels": len(levels)})
    sups = []
    low_cs = []
    err_max = 0.0
    for z, zp in levels:
        val, err = k_alpha(z, zp, alpha, with_error=True)
        err_max = max(err_max, err)
        s = np.sqrt(np.sum((z - zp) ** 2, axis=-1))
        ratio = val / psi_alpha(s, alpha, d)
        sups.append(max(ratio.max(), sups[-1] if sups else 0.0))
        near = s < 1.0
        if near.any():
            _, x = _split_z(z)
            _, xp = _split_z(zp)
            wall = np.exp(-np.sum((x + xp) ** 2, axis=-1)[near])
            low = val[near] / (wall * s[near] ** (2 * alpha - (d + 1)))
            low_cs.append(float(low.min()))
    final = sups[-1]
    rep.add("sup_kernel_over_psi", final, None, np.isfinite(final),
            "cumulative sup over sampled pairs")
    if len(sups) >= 2:
        rep.add_growth("refinement_growth", sups[-2], sups[-1],
                       "last refinement level")
    if low_cs:
        c_min = min(low_cs)
        rep.add("lower_bound_constant", c_min, None, c_min > 0,
                "min of K / (e^(-|x+x'|^2) s^(2a-(d+1))) near the diagonal")
    rep.add("quadrature_rel_err", err_max, 1e-3, err_max < 1e-3,
            "node-doubling estimate")
    return rep


# ---------------------------------------------------------------------------
# kernel application on a grid

def _rho_heat_matrix(grid: Grid, t: float, scale: float = 1.0) -> np.ndarray:
    """Periodized free heat kernel matrix on the rho grid, weights and
    scale folded in.

    Images beyond the window replicate the DFT's periodic continuation;
    enough are taken that the truncation error is below 1e-15.  Entry
    (i, j) depends only on the offset (i - j) mod N_rho, so the images
    are summed once for the N_rho offsets k drho, k in [-N/2, N/2),
    and the circulant matrix is indexed out of that row.  The offsets
    and the circulant index are per-grid constants (Grid._rho_offsets,
    Grid._rho_circulant); the images are summed m = -m_max .. m_max in
    order, one row each.  scale multiplies the row before the matrix
    is indexed out of it, so a quadrature weight costs N_rho products.
    """
    L = grid.L_rho
    m_max = int(np.ceil(np.sqrt(4.0 * t * 40.0) / (2 * L))) + 1
    if m_max > 32:
        _warn_at_caller(
            f"diffusion length at t = {t} needs {m_max} window images; "
            "capping at 32", TruncationWarning)
        m_max = 32
    m = np.arange(-m_max, m_max + 1)
    row = np.exp(-(grid._rho_offsets + 2.0 * L * m[:, None]) ** 2
                 / (4.0 * t)).sum(axis=0)
    row = row * grid.drho / np.sqrt(4.0 * math.pi * t)
    row *= scale
    return row[grid._rho_circulant]


def _x_heat_matrix(grid: Grid, t: float) -> np.ndarray:
    """One-axis oscillator kernel matrix with compensated weights folded
    in, from the per-grid node constants Grid._x_sum_sq and
    Grid._x_product.

    Past the float range of sinh 2t (t > 355), coth 2t is 1 and
    csch 2t is 2 e^(-2t) to rounding, and the prefactor
    (2 pi sinh 2t)^(-1/2) enters the exponent through _logsinh, so a
    large t gives the matrix's underflowed values instead of an
    OverflowError.
    """
    try:
        sinh2t = math.sinh(2.0 * t)
    except OverflowError:
        out = grid._x_product * (2.0 * math.exp(-2.0 * t))
        out -= 0.5 * grid._x_sum_sq
        out -= 0.5 * (math.log(2.0 * math.pi) + float(_logsinh(2.0 * t)))
        np.exp(out, out=out)
    else:
        coth2t = math.cosh(2.0 * t) / sinh2t
        out = -0.5 * coth2t * grid._x_sum_sq
        out += grid._x_product / sinh2t
        np.exp(out, out=out)
        out *= 1.0 / math.sqrt(2.0 * math.pi * sinh2t)
    out *= grid.weights_x[None, :]
    return out


def _heat_stack(g: Grid, stack: np.ndarray, t: float,
                bufs: tuple[np.ndarray, np.ndarray] | None = None,
                scale: float = 1.0) -> np.ndarray:
    """scale e^(-tH) on every field of the float64 (B,) + g.shape stack.

    The two matrices are built once; the axes are contracted in order
    rho, x_1, .., x_d by grid._contract_axis, each into one of the two
    stack-shaped work buffers bufs in turn (two new ones when bufs is
    None), so stack is only read and nothing is allocated per axis.
    Returns the buffer written last.  scale is folded into the rho
    matrix.
    """
    if bufs is None:
        bufs = (np.empty_like(stack), np.empty_like(stack))
    mat = _rho_heat_matrix(g, t, scale)
    mx = _x_heat_matrix(g, t)
    src = stack
    for axis in range(1, g.d + 2):
        src = _contract_axis(src, mat, axis, out=bufs[axis % 2])
        mat = mx
    return src


def _real_image(apply: Callable[..., np.ndarray], g: Grid,
                values: np.ndarray, *args) -> np.ndarray:
    """apply(g, stack, *args), a map of float64 (B,) + g.shape stacks,
    on one field's values.  A float64 field runs as a one-field stack,
    uncopied.  The kernels are real, so a complex field runs as its
    real and imaginary parts, two real fields in turn, and its image is
    exactly their two images."""
    if not np.iscomplexobj(values):
        return apply(g, np.ascontiguousarray(values)[None], *args)[0]
    out = np.empty(values.shape, dtype=np.complex128)
    for part, vals in ((out.real, values.real), (out.imag, values.imag)):
        part[...] = apply(g, np.ascontiguousarray(vals)[None], *args)[0]
    return out


def heat_apply_kernel(field: Field, t: float) -> Field:
    """e^(-tH) f by physical-space quadrature of the kernel.

    rho by trapezoid with periodic images, each x axis by the
    compensated Gauss-Hermite rule; the kernel factorizes, so the cost
    is a matrix per axis rather than a dense (d+1)-dimensional one.
    The matrices are built per call from per-grid constants cached on
    the Grid (node products, rho offsets, circulant index), never
    cached per t: one run can use hundreds of distinct t.  They are
    real: a float64 field runs through _heat_stack (which
    frac_power_kernel also drives) as a one-field stack, giving a
    float64 result, and a complex field as its real and imaginary
    parts, two real applies.  t must be positive and finite; a large t
    gives the underflowed result.
    """
    if not 0.0 < t < math.inf:
        raise InvalidParameterError("t must be positive and finite")
    return Field(field.grid, _real_image(_heat_stack, field.grid,
                                         field.values, t))


# ---------------------------------------------------------------------------
# fractional powers through the kernel route

# the relative accuracy the kernel route resolves: its time floor
# (_kernel_t_floor) and its fractional-power panel (_frac_nodes)
_RESOLUTION = 1e-8


def _kernel_t_floor(grid: Grid) -> float:
    """Smallest t the kernel application resolves to _RESOLUTION.

    The Gauss-Hermite error for the oscillator kernel at time t decays
    like (c/(c+2))^(M-K) with c = (coth 2t - 1)/2, and the rho
    trapezoid aliases like e^(-t (2 pi/drho)^2); both floors combined.
    The model is deliberately conservative (measurements beat it by an
    order of magnitude or two).
    """
    m_eff = max(grid.M - grid.K, 4)
    q = _RESOLUTION ** (1.0 / m_eff)
    c = 2.0 * q / (1.0 - q)
    t_gh = 0.5 * math.atanh(1.0 / (2.0 * c + 1.0))
    t_rho = math.log(1.0 / _RESOLUTION) * (grid.drho / (2.0 * math.pi)) ** 2
    floor = max(t_gh, t_rho, 5e-3)
    if floor > 0.2:
        _warn_at_caller(
            f"kernel resolution floor t = {floor:.3f} is large (M - K = "
            f"{grid.M - grid.K} Hermite headroom); fractional powers will "
            "lose accuracy, increase M", ResolutionWarning)
    return floor


def _head_weights(tf: float, alpha: float, shift: float
                  ) -> tuple[float, np.ndarray, np.ndarray]:
    """The head on (0, tf] as c_0 f - sum_i gamma_i e^(-t_i H) f.

    The head is sum_(m=0..3) (-1)^m tf^(m-alpha)/(m! (m-alpha))
    (H+s)^m f = sum_k b_k H^k f by the binomial rule.  H^k f, k = 1..3,
    comes from semigroup differences only (no eigenbasis):
    f - e^(-tH) f = sum_m (-1)^(m+1) t^m/m! H^m f, sampled on a short
    geometric ladder of six resolvable times t_i = tf 1.5^i, is a
    Vandermonde system for the leading powers.  Its columns are scaled
    by the top node to keep it well conditioned, and it is inverted
    once: H^k f = sum_i r_ki (f - e^(-t_i H) f) with r_k a row of the
    inverse.  So the head is (b_0 + sum_i gamma_i) f
    - sum_i gamma_i e^(-t_i H) f with gamma_i = sum_k b_k r_ki, six
    weighted applies and one multiple of f.  Returns c_0, the t_i and
    the gamma_i.
    """
    ts = tf * 1.5 ** np.arange(6)
    s = ts[-1]
    m = np.arange(1, 7)
    a = (-1.0) ** (m + 1) * (ts[:, None] / s) ** m / np.cumprod(m)
    rows = np.linalg.inv(a)[:3] / s ** np.arange(1, 4)[:, None]
    c = [(-1) ** m * tf ** (m - alpha) / (math.factorial(m) * (m - alpha))
         for m in range(4)]
    b = [sum(c[m] * math.comb(m, k) * shift ** (m - k) for m in range(k, 4))
         for k in range(4)]
    gamma = np.asarray(b[1:]) @ rows
    return b[0] + float(gamma.sum()), ts, gamma


_FRAC_LADDER = (12, 16, 20, 24, 28, 32, 40, 48, 64)


@functools.lru_cache(maxsize=64)
def _frac_nodes(tf: float, rate: float, alpha: float) -> int:
    """Node count of the fractional-power panel over [tf, 40/rate],
    rate = d + shift: the first of _FRAC_LADDER (else its last) whose
    panel meets _RESOLUTION.

    The panel sums t^(-alpha-1) e^(-t mu) for each eigenvalue mu >=
    rate of H + shift; its error is measured against the panel with
    twice the nodes, relative to the whole integral Gamma(-alpha)
    mu^alpha, as a sup over 120 log-spaced mu in [rate, 40/tf] (past
    40/tf the panel's integrand is below e^(-40)).  The mu are a
    continuous range, not the grid's eigenvalues, so the count depends
    on tf, rate and alpha alone and the route stays spectrum-free.
    """
    edges = np.log([tf, 40.0 / rate])
    mu = np.geomspace(rate, 40.0 / tf, 120)[:, None]
    scale = abs(math.gamma(-alpha)) * mu[:, 0] ** alpha

    def panel(n: int) -> np.ndarray:
        y, wy = _gl_panels(edges, n)
        return np.exp(-alpha * y - mu * np.exp(y)) @ wy

    for n in _FRAC_LADDER:
        if np.max(np.abs(panel(n) - panel(2 * n)) / scale) <= _RESOLUTION:
            return n
    return _FRAC_LADDER[-1]


def _frac_power_stack(g: Grid, stack: np.ndarray, alpha: float,
                      shift: float) -> np.ndarray:
    """(H + shift)^alpha on every field of the float64 stack, by the
    formula of frac_power_kernel.

    The 6 + _frac_nodes applies share one pair of work buffers, and
    each apply's weight (-gamma_i of the head, the node weight of the
    panel) is folded into its rho matrix, so an apply adds into the
    accumulator in one pass.
    """
    if alpha == 0 or not (-(g.d + 1) / 2.0 < alpha < 1.0):
        raise InvalidParameterError(
            f"alpha = {alpha} outside (-(d+1)/2, 1) minus 0")
    if not math.isfinite(shift):
        raise InvalidParameterError("shift must be finite")
    if shift != 0.0 and alpha >= 0:
        raise InvalidParameterError(
            "shift is supported for negative alpha only")
    if g.d + shift <= 0:
        raise DomainError(
            f"d + shift = {g.d + shift:g} <= 0: (H + shift)^alpha has no "
            "decaying semigroup representation")
    tf = _kernel_t_floor(g)
    c0, t_head, gamma = _head_weights(tf, alpha, shift)
    rate = g.d + shift
    y, wy = _gl_panels(np.log([tf, 40.0 / rate]),
                       _frac_nodes(tf, rate, alpha))
    t = np.exp(y)
    ts = np.concatenate([t_head, t])
    ws = np.concatenate([-gamma, wy * np.exp(-alpha * y - shift * t)])
    bufs = (np.empty_like(stack), np.empty_like(stack))
    acc = c0 * stack
    for ti, wi in zip(ts, ws):
        acc += _heat_stack(g, stack, float(ti), bufs, float(wi))
    acc *= 1.0 / math.gamma(-alpha)
    return acc


def _frac_power_images(fields: Iterable[Field], alpha: float,
                       shift: float) -> Iterator[tuple[Field, Field]]:
    """(f, (H + shift)^alpha f) for each of fields in turn, by the
    kernel route of frac_power_kernel.

    The fields, float64 and on one grid, run stacked: one
    _frac_power_stack per max(1, grid._SLAB_BYTES // f.values.nbytes)
    consecutive fields, so 6 + _frac_nodes stacked applies serve a
    whole group (the 40 members of a default d = 1 four-fold family are
    one group; a 32 x 32^3 member is a group of its own, uncopied).
    fields is read one group at a time.
    """
    fields = iter(fields)
    for f in fields:
        group = [f, *itertools.islice(
            fields, max(1, grid._SLAB_BYTES // f.values.nbytes) - 1)]
        stack = (np.stack([h.values for h in group]) if len(group) > 1
                 else np.ascontiguousarray(f.values)[None])
        images = _frac_power_stack(f.grid, stack, alpha, shift)
        yield from ((h, Field(h.grid, k)) for h, k in zip(group, images))


def frac_power_kernel(field: Field, alpha: float, shift: float = 0.0) -> Field:
    """(H + shift)^alpha f for alpha in (-(d+1)/2, 1) \\ {0}, kernel route.

    One Gamma integral of the semigroup for both signs of alpha (s the
    shift, [.] 1 when true and 0 otherwise):

        (H+s)^alpha f = Gamma(-alpha)^(-1)
            int_0^inf t^(-alpha-1) (e^(-t(H+s)) f - [alpha > 0] f) dt.

    For alpha < 0 this is the usual Gamma-weighted heat integral, for
    0 < alpha < 1 Balakrishnan's form, since -alpha/Gamma(1-alpha) =
    1/Gamma(-alpha).  The unresolvable head (0, t_f] is the series
    sum_(m=0..3) (-1)^m t_f^(m-alpha)/(m! (m-alpha)) (H+s)^m f, with
    H f, H^2 f, H^3 f estimated from semigroup differences, so no
    spectral information enters; for alpha > 0 its m = 0 term is
    exactly -int_(t_f)^inf t^(-alpha-1) f dt.  The head is taken as
    six weighted differences: a multiple of f minus six weighted
    applies (_head_weights).  The rest is one n-point Gauss-Legendre
    panel in y = log t over [t_f, 40/(d + s)], one heat apply per node,
    6 + n applies in all; n is the smallest count of a short ladder
    whose panel errs by at most _RESOLUTION relative to the image
    (_frac_nodes, a function of t_f, d + s and alpha: 20 for the
    default d = 3 gate, 26 applies).  Only s = 0 is
    supported for alpha > 0, and d + s must be positive and finite.
    Accuracy requires comfortable Hermite headroom (M well above K)
    and a smooth, Gaussian-decaying field.

    A float64 field runs as a one-field stack through _heat_stack, a
    complex field as its real and imaginary parts, two real fields: one
    pair of work buffers and one accumulator per real field, each
    apply's weight folded into its rho matrix, and no intermediate
    Field.
    """
    return Field(field.grid, _real_image(_frac_power_stack, field.grid,
                                         field.values, alpha, shift))


# ---------------------------------------------------------------------------
# weighted Schur sums

def _moment_integral(x_sq, alpha: float, d: int, order: float) -> np.ndarray:
    """int |x|^(2 order) K_alpha(z, z') dz as a function of x_sq = |x'|^2.

    The rho direction has unit mass.  In x the heat kernel is the mass
    (cosh 2t)^(-d/2) e^(-|x'|^2 tanh(2t)/2) times a normal law with mean
    x'/cosh 2t and variance s^2 = tanh 2t per axis, whose absolute
    moment is (2 s^2)^order Gamma(order + d/2)/Gamma(d/2)
    1F1(-order; d/2; -|x'|^2/sinh 4t).  K_alpha is symmetric, so order
    0 is also the row integral int K_alpha(z, z') dz'.  At small t and
    large order the 1F1 overflows while the power underflows; those
    nodes take the product from _large_z_moment.
    """
    from scipy.special import hyp1f1    # kept out of the package import

    t, w = t_quadrature(alpha, d).nodes()
    x_sq = np.asarray(x_sq, dtype=np.float64)[..., None]
    s_sq = np.tanh(2.0 * t)
    # past t ~ 177 (large alpha) sinh 4t and cosh^2 2t overflow to inf,
    # which gives z and |mu|^2 their exact limit 0
    with np.errstate(over="ignore"):
        vals = np.exp((alpha - 1.0) * np.log(t)
                      - 0.5 * d * np.log(np.cosh(2.0 * t))
                      - 0.5 * x_sq * s_sq)
        z = x_sq / np.sinh(4.0 * t)
        mu_sq = x_sq / np.cosh(2.0 * t) ** 2
    m = hyp1f1(-order, 0.5 * d, -z)
    big = np.isinf(m)
    m[big] = 0.0            # filled below; (2 s^2)^order may be 0 there
    m *= (2.0 * s_sq) ** order
    if np.any(big):
        m[big] = _large_z_moment(np.broadcast_to(mu_sq, m.shape)[big],
                                 np.broadcast_to(z, m.shape)[big], 0.5 * d,
                                 order)
    vals *= m
    return np.sum(w * vals, axis=-1) \
        * (math.gamma(order + 0.5 * d) / math.gamma(0.5 * d)) \
        / math.gamma(alpha)


def _large_z_moment(mu_sq, z, b: float, order: float) -> np.ndarray:
    """(2 s^2)^order 1F1(-order; b; -z) at the z where the 1F1
    overflows.  With 2 s^2 z = |mu|^2 it is |mu|^(2 order)
    Gamma(b)/Gamma(order + b) times the large-z series
    sum_k (-order)_k (1 - order - b)_k / (k! z^k) (DLMF 13.7.2), whose
    e^(-z) companion is far below roundoff at such z.  The terms fall
    to roundoff as k passes order (to 0 when order is an integer), so
    the sum stops once every term is below 1e-17 of it.  The prefactor
    is taken in logs, so no factor overflows or underflows on the way.
    """
    term = np.ones_like(z)
    total = term.copy()
    k = 0
    while np.any(np.abs(term) > 1e-17 * total):
        term *= (k - order) * (k + 1 - order - b) / ((k + 1) * z)
        total += term
        k += 1
    return np.exp(order * np.log(mu_sq) + math.lgamma(b)
                  - math.lgamma(order + b)) * total


def schur_weighted_report(alpha: float, d: int) -> Report:
    """Schur test for the weighted operator |x|^(2 alpha) H^(-alpha).

    Row side: sup_z |x(z)|^(2 alpha) int K_alpha(z, z') dz'.  Column
    side: sup_{z'} int |x|^(2 alpha) K_alpha(z, z') dz.  Both inner
    integrals are closed forms in space under the time integral
    (_moment_integral of order 0 and alpha), for every d, and depend on
    |x|^2 alone.  Each sup is over the radii r_k = k 6 sqrt(d) / n,
    k = 0 .. n, out to the corner of [-6, 6]^d, with n = 24; both must
    be finite and grow by less than STABILITY_LIMIT when n doubles
    (a grid that contains the first).  The column integrand can peak at
    x = 0, which the grid holds.
    """
    n_samples = 24
    rep = Report(suite="weighted-decay",
                 params={"alpha": alpha, "d": d, "n": n_samples})
    for side, order in (("row", 0.0), ("column", alpha)):
        sups = []
        for n in (n_samples, 2 * n_samples):
            x_sq = (np.arange(n + 1) * (6.0 * math.sqrt(d) / n)) ** 2
            vals = x_sq ** (alpha - order) \
                * _moment_integral(x_sq, alpha, d, order)
            sups.append(float(np.max(vals)))
        s1, s2 = sups
        rep.add(f"{side}_sup", s2, None, np.isfinite(s2),
                f"weighted {side} integrals")
        rep.add_growth(f"{side}_refinement_growth", s1, s2,
                       f"doubling the {side} samples")
    return rep
