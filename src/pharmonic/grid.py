"""Mixed Fourier-Hermite grids and fields on R^(d+1).

A point is z = (rho, x) with rho on a uniform periodic grid over
[-L_rho, L_rho) and x on a tensor Gauss-Hermite grid in R^d.  The DFT
frequencies in rho are tau_n = pi n / L_rho for n in
{-N_rho/2, ..., N_rho/2 - 1}; Hermite degrees are truncated at total
degree |mu| <= K.

Gauss-Hermite weights are stored pre-multiplied by exp(+node^2), so a
plain weighted sum approximates the unweighted integral over R^d of any
integrand that decays at least like a Gaussian.
"""
from __future__ import annotations

import functools
import math
import warnings
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidParameterError,
    NonFiniteSampleError,
    TruncationWarning,
)
from .hermite import gauss_hermite, hermite_all, multi_indices

__all__ = [
    "Grid",
    "Field",
    "UniformBox",
    "make_grid",
    "sample",
    "lp_norm",
    "inner",
    "box_lp_norm",
    "resample",
]


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class Grid:
    d: int
    N_rho: int
    L_rho: float
    K: int
    M: int
    nodes_x: np.ndarray      # (M,) Gauss-Hermite nodes, one axis, reused per dim
    weights_x: np.ndarray    # (M,) compensated weights w * exp(node^2)
    rho: np.ndarray          # (N_rho,) uniform points, left-closed
    tau: np.ndarray          # (N_rho,) frequencies in FFT storage order
    mu: np.ndarray           # (n_mu, d) multi-indices, degree-then-lex order
    mu_abs: np.ndarray       # (n_mu,) total degrees
    hermite_table: np.ndarray  # (K+1, M) h_k at the nodes

    @property
    def drho(self) -> float:
        return 2.0 * self.L_rho / self.N_rho

    @property
    def n_mu(self) -> int:
        return self.mu.shape[0]

    @property
    def x_shape(self) -> tuple[int, ...]:
        return (self.M,) * self.d

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.N_rho,) + self.x_shape

    def x_weight(self) -> np.ndarray:
        """Tensor of compensated x-quadrature weights, shape (M,)*d."""
        w = self.weights_x
        out = w
        for _ in range(self.d - 1):
            out = np.multiply.outer(out, w)
        return out

    @functools.cached_property
    def _cell_weight(self) -> np.ndarray:
        """x_weight() * drho, the quadrature weight of one grid cell,
        built once per grid and read-only."""
        return _read_only(self.x_weight() * self.drho)

    # Per-grid constants of the heat-kernel matrices (heat_kernel's
    # _rho_heat_matrix and _x_heat_matrix), built once and read-only.

    @functools.cached_property
    def _rho_offsets(self) -> np.ndarray:
        """The N_rho offsets k drho, k in FFT order 0, 1, .., -N/2, .., -1."""
        return _read_only(np.fft.fftfreq(self.N_rho, d=1.0 / self.N_rho)
                          * self.drho)

    @functools.cached_property
    def _rho_circulant(self) -> np.ndarray:
        """(i - j) mod N_rho, the index of entry (i, j) in an offset row."""
        k = np.arange(self.N_rho)
        return _read_only((k[:, None] - k[None, :]) % self.N_rho)

    @functools.cached_property
    def _x_sum_sq(self) -> np.ndarray:
        """x_i^2 + x_j^2 over pairs of nodes of one x axis."""
        xs = self.nodes_x
        return _read_only(xs[:, None] ** 2 + xs[None, :] ** 2)

    @functools.cached_property
    def _x_product(self) -> np.ndarray:
        """x_i x_j over pairs of nodes of one x axis."""
        xs = self.nodes_x
        return _read_only(xs[:, None] * xs[None, :])

    def eigenvalues(self, shift: float = 0.0) -> np.ndarray:
        """lambda + shift = tau^2 + 2|mu| + d + shift, shape (N_rho, n_mu)."""
        return (self.tau ** 2)[:, None] + 2.0 * self.mu_abs[None, :] + self.d + shift

    def mode_index(self, mu) -> int:
        """Row of the multi-index mu in the coefficient layout."""
        mu = np.asarray(mu, dtype=np.int64)
        hits = np.nonzero((self.mu == mu).all(axis=1))[0]
        if hits.size == 0:
            raise InvalidParameterError(f"multi-index {tuple(mu)} not on grid")
        return int(hits[0])


# a grid may hold 16 times the points of the largest default grid,
# 32 x 32^3, and C(K + d, d) Hermite modes up to this limit
_MAX_POINTS = 2 ** 24
_MAX_MODES = 2 ** 16


def make_grid(d: int, N_rho: int, L_rho: float, K: int, M: int) -> Grid:
    """Build the mixed grid; validates the resolution contract M >= K + 1,
    numpy's axis limit and the size limits _MAX_POINTS and _MAX_MODES."""
    if d < 1:
        raise InvalidParameterError("d must be >= 1")
    if N_rho < 2 or (N_rho & (N_rho - 1)) != 0:
        raise InvalidParameterError("N_rho must be a power of two, >= 2")
    if L_rho <= 0:
        raise InvalidParameterError("L_rho must be positive")
    if K < 0:
        raise InvalidParameterError("K must be >= 0")
    if M < K + 1:
        raise InvalidParameterError(f"M = {M} violates M >= K + 1 = {K + 1}")
    # an L_rho too large or too small for float64 gives inf or NaN
    # points; the multipliers take tau^2, up to (pi N_rho / (2 L_rho))^2
    with np.errstate(over="ignore", invalid="ignore"):
        rho = -L_rho + (2.0 * L_rho / N_rho) * np.arange(N_rho)
        n_int = np.fft.fftfreq(N_rho, d=1.0 / N_rho)  # 0, 1, .., -N/2, .., -1
        tau = (np.pi / L_rho) * n_int
        finite = np.isfinite(rho).all() and np.isfinite(tau * tau).all()
    if not finite:
        raise InvalidParameterError(
            f"L_rho = {L_rho!r} gives rho points or squared frequencies "
            "that are not finite")
    # sizes by arithmetic alone, before any multi-index is listed; the
    # exponent is capped because M^25 > 2^24 for every M >= 2 and 1^d = 1
    points = N_rho * M ** min(d, 25)
    if points > _MAX_POINTS:
        raise InvalidParameterError(
            f"grid of N_rho * M^d = {N_rho} * {M}^{d} points exceeds "
            f"{_MAX_POINTS}")
    modes = math.comb(K + d, d)
    if modes > _MAX_MODES:
        raise InvalidParameterError(
            f"C(K + d, d) = {modes} Hermite modes exceed {_MAX_MODES}")
    # a field has d + 1 axes and a kernel stack d + 2; probe the
    # installed numpy's axis limit (64 in numpy 2, 32 in numpy 1)
    try:
        np.empty((1,) * min(d + 2, 65))
    except ValueError as e:
        raise InvalidParameterError(
            f"d = {d} needs arrays of {d + 2} axes, more than numpy "
            f"{np.__version__} allows") from e
    nodes, weights = gauss_hermite(M)
    comp = weights * np.exp(nodes ** 2)
    if not np.isfinite(comp).all() or (comp <= 0).any():
        raise InvalidParameterError("compensated weights are not positive finite")
    mu = multi_indices(d, K)
    return Grid(
        d=d, N_rho=N_rho, L_rho=float(L_rho), K=K, M=M,
        nodes_x=nodes, weights_x=comp,
        rho=rho, tau=tau, mu=mu, mu_abs=mu.sum(axis=1),
        hermite_table=hermite_all(K, nodes),
    )


@dataclass(frozen=True, eq=False)
class Field:
    """Values on the mixed grid, shape (N_rho,) + (M,)*d: float64 for a
    real field, complex128 otherwise."""
    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.values.shape != self.grid.shape:
            raise InvalidParameterError(
                f"field shape {self.values.shape} != grid shape {self.grid.shape}")
        if not np.isfinite(self.values).all():
            raise NonFiniteSampleError("field contains non-finite entries")

    def __add__(self, other: "Field") -> "Field":
        return Field(self.grid, self.values + other.values)

    def __sub__(self, other: "Field") -> "Field":
        return Field(self.grid, self.values - other.values)

    def __mul__(self, c) -> "Field":
        return Field(self.grid, self.values * c)

    __rmul__ = __mul__


def sample(grid: Grid, fn) -> Field:
    """Sample fn(rho, x_1, ..., x_d) on the grid.

    The arguments passed to fn broadcast to the field shape
    (N_rho, M, ..., M).  Real samples give a float64 field, complex
    ones a complex128 field.  Non-finite samples raise.
    """
    mesh_rho = grid.rho.reshape((grid.N_rho,) + (1,) * grid.d)
    xs = []
    for axis in range(grid.d):
        shp = [1] * (grid.d + 1)
        shp[axis + 1] = grid.M
        xs.append(grid.nodes_x.reshape(shp))
    values = np.asarray(fn(mesh_rho, *xs))
    values = np.array(np.broadcast_to(values, grid.shape),
                      dtype=np.result_type(values, np.float64))
    if not np.isfinite(values).all():
        raise NonFiniteSampleError("sampled function returned non-finite values")
    return Field(grid, values)


def lp_norm(field: Field, p: float) -> float:
    """L^p norm by grid quadrature (trapezoid in rho, Gauss-Hermite in x).

    Accurate when |field|^p decays at least like exp(-|x|^2) in x; for
    heavy-tailed integrands use a UniformBox and box_lp_norm instead.
    p = inf returns the grid maximum.  One field-sized temporary is
    made: |f| is raised to p and weighted in place, the same operations
    on the same contiguous shape as sum(w * |f|^p), so the bits match.
    """
    if p != np.inf and p < 1:
        raise InvalidParameterError("p must be >= 1 or inf")
    a = np.abs(field.values).astype(np.float64, copy=False)
    if p == np.inf:
        return float(a.max())
    a **= p
    a *= field.grid._cell_weight
    return float(np.sum(a) ** (1.0 / p))


def inner(f: Field, g: Field) -> complex:
    """Sesquilinear inner product, conjugate on the second argument."""
    ga, gb = f.grid, g.grid
    if ga is not gb and (ga.d, ga.N_rho, ga.L_rho, ga.K, ga.M) != \
            (gb.d, gb.N_rho, gb.L_rho, gb.K, gb.M):
        raise InvalidParameterError("fields live on different grids")
    w = f.grid._cell_weight
    return complex(np.sum(w * f.values * np.conjugate(g.values)))


@dataclass(frozen=True)
class UniformBox:
    """Uniform tensor grid on a centered box, axis 0 is rho.

    half_widths[i] = R_i and counts[i] = n_i give points
    -R_i + k 2R_i/n_i for k = 0..n_i-1 (left-closed, origin included
    since counts are even).
    """
    half_widths: tuple[float, ...]
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.half_widths) != len(self.counts):
            raise InvalidParameterError("half_widths and counts length mismatch")
        if len(self.counts) < 1:
            raise InvalidParameterError("box needs at least one axis")
        if any(r <= 0 for r in self.half_widths):
            raise InvalidParameterError("half widths must be positive")
        if any(n < 2 or n % 2 for n in self.counts):
            raise InvalidParameterError("counts must be even and >= 2")

    @property
    def ndim(self) -> int:
        return len(self.counts)

    def axes(self) -> list[np.ndarray]:
        return [-r + (2.0 * r / n) * np.arange(n)
                for r, n in zip(self.half_widths, self.counts)]

    def spacings(self) -> list[float]:
        return [2.0 * r / n for r, n in zip(self.half_widths, self.counts)]

    def mirror_orbits(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Orbits of the reflection s -> -s on axis i.

        Point k mirrors point n - k; -R (k = 0) and the origin
        (k = n/2) mirror themselves, so the axis has n/2 + 1 orbits.
        Returns the representative indices 0..n/2, the closed left half
        [-R, 0], and each point's orbit index min(k, n - k); np.bincount
        of the latter gives the orbit sizes.  Off dyadic widths a point
        and its mirror image can differ by an ulp, so an even function
        read at the representative matches the mirror point to roundoff.
        """
        n = self.counts[i]
        k = np.arange(n)
        return k[:n // 2 + 1], np.minimum(k, n - k)

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacings()))

    def freq_axes(self) -> list[np.ndarray]:
        """Conjugate frequencies per axis, FFT storage order."""
        return [2.0 * np.pi * np.fft.fftfreq(n, d=h)
                for n, h in zip(self.counts, self.spacings())]

    def mesh(self) -> list[np.ndarray]:
        return list(np.meshgrid(*self.axes(), indexing="ij"))

    def radius_sq(self) -> np.ndarray:
        return _sum_sq(self.axes())


def _sum_sq(axes) -> np.ndarray:
    """sum_i a_i^2 over the tensor grid of the 1-D arrays axes, axis i
    of the result running along axes[i]."""
    out = 0.0
    for i, ax in enumerate(axes):
        shp = [1] * len(axes)
        shp[i] = ax.size
        out = out + ax.reshape(shp) ** 2
    return out


def _contract_axis(arr: np.ndarray, mat: np.ndarray, axis: int,
                   out: np.ndarray | None = None) -> np.ndarray:
    """The (m, n) matrix mat applied along one length-n axis of a
    C-contiguous array, a length-m axis in its place: one matmul on the
    (pre, n, post) view, a single 2-D GEMM when post = 1, no transpose.
    The result goes to out when given (C-contiguous, of the result's
    size and dtype, not overlapping arr; a view of it is returned), else
    to a new array.

    A real mat meets a complex arr as real numbers when post > 1: the
    float64 view of the (pre, n, post) array is (pre, n, 2 post), the
    (re, im) pair one more trailing axis, so one real GEMM does the work
    with no copy and no complex matrix.  Only post = 1 promotes mat to
    complex; callers order their axes so that this step is the one on
    the smallest array.

    The eigenbasis and the heat kernel both factor into one matrix per
    axis (sum factorisation), so every transform and kernel apply on
    the mixed grid is a sequence of these contractions.
    """
    shape = arr.shape
    n = shape[axis]
    m = mat.shape[0]
    pre = math.prod(shape[:axis])
    post = math.prod(shape[axis + 1:])
    out_shape = shape[:axis] + (m,) + shape[axis + 1:]
    if post == 1:
        res = np.matmul(arr.reshape(pre, n), mat.T,
                        out=None if out is None else out.reshape(pre, m))
    elif np.iscomplexobj(arr) and not np.iscomplexobj(mat):
        res = np.matmul(mat, arr.reshape(pre, n, post).view(np.float64),
                        out=None if out is None else
                        out.reshape(pre, m, post).view(np.float64))
        res = res.view(np.complex128)
    else:
        res = np.matmul(mat, arr.reshape(pre, n, post),
                        out=None if out is None else
                        out.reshape(pre, m, post))
    return res.reshape(out_shape)


def box_lp_norm(values: np.ndarray, box: UniformBox, p: float) -> float:
    """L^p norm of samples on a uniform box, as a Riemann cell sum."""
    if p != np.inf and p < 1:
        raise InvalidParameterError("p must be >= 1 or inf")
    a = np.abs(np.asarray(values)).astype(np.float64, copy=False)
    if p == np.inf:
        return float(a.max()) if a.size else 0.0
    a **= p
    return float((np.sum(a) * box.cell_volume) ** (1.0 / p))


def resample(field: Field, box: UniformBox) -> np.ndarray:
    """Evaluate the truncated Fourier-Hermite series of field on a box.

    The box must have 1 + d axes matching the field's grid.  Warns with
    TruncationWarning when the relative coefficient energy in the top
    Hermite shell or the top rho-frequency ring exceeds 1e-6, since
    the series truncation then limits off-grid accuracy.  The series is
    summed one axis at a time: the rho plane waves first, on the small
    degree cube, then h_k at the box points on x_d, .., x_1, so the
    step that writes the box is a real GEMM on the float view
    (_contract_axis).  The result is float64 for a real field and
    complex128 otherwise.
    """
    # layering: the transform lives one level up
    from .spectral import forward

    return _x_series(*_box_series(forward(field), box))


# rho rows per slab of _series_slabs: as many as fit in this many bytes
# of complex128, and at least one
_SLAB_BYTES = 2 << 20


def _box_series(coeffs, box: UniformBox
                ) -> tuple[np.ndarray, list[np.ndarray]]:
    """The series of coeffs summed over rho only: the rho plane waves
    applied to the degree cube, shape (n_rho_box, K+1, ..., K+1), and
    the (n_i, K+1) tables h_k(x_i) that _x_series applies to the rest.
    The rows are complex, or float64 when spectral._is_real_series
    holds: the series is then a real field, its rows are their real
    part (the Nyquist term read as c_N cos(tau_N rho)), and the x steps
    are real GEMMs.

    Checks the box and warns, for resample and _box_lp_norm_coeffs.
    """
    from .spectral import _TAIL_TOL, _is_real_series, _to_cube, tail_energy

    g = coeffs.grid
    if box.ndim != g.d + 1:
        raise InvalidParameterError("box dimension must be d + 1")
    tail = tail_energy(coeffs)
    if tail > _TAIL_TOL:
        warnings.warn(
            f"coefficient tail energy {tail:.3e} exceeds {_TAIL_TOL:.1e}; "
            "resampled values limited by series truncation",
            TruncationWarning, stacklevel=3)
    axes = box.axes()
    phases = np.exp(1j * np.outer(axes[0], g.tau))    # (n_rho_box, N_rho)
    rows = _contract_axis(_to_cube(g, coeffs.data), phases, 0)
    if _is_real_series(coeffs.data):
        rows = np.ascontiguousarray(rows.real)
    return rows, [hermite_all(g.K, a).T for a in axes[1:]]


def _x_series(rows: np.ndarray, tables: list[np.ndarray],
              bufs: list[np.ndarray] | None = None) -> np.ndarray:
    """Finish the box series of _box_series on some of its rho rows,
    x_d first and x_1 last: on complex rows only the x_d step, on the
    degree cube, is a complex post = 1 GEMM; float64 rows take real
    GEMMs throughout.  bufs, when given, holds one C-contiguous work
    buffer per step (_series_slabs), each with at least as many rows as
    rows; step k writes the leading rows of bufs[k], and a view of the
    last one is returned."""
    for k, axis in enumerate(range(len(tables), 0, -1)):
        rows = _contract_axis(rows, tables[axis - 1], axis,
                              None if bufs is None
                              else bufs[k][:rows.shape[0]])
    return rows


def _series_slabs(rows: np.ndarray, tables: list[np.ndarray]
                  ) -> Iterator[np.ndarray]:
    """_x_series(rows, tables) one slab of rho rows at a time, in order:
    as many rows as fit in _SLAB_BYTES of complex128, and at least one.
    The steps write into work buffers made once for the whole walk, so
    each slab is a view that the next one overwrites: a consumer reads
    (or changes) a slab before it asks for the next.  The series at
    the grid nodes (spectral._grid_rows) and on a box (_box_series)
    both run through here."""
    step = max(1, _SLAB_BYTES // (16 * math.prod(t.shape[0]
                                                  for t in tables)))
    shape = [min(step, rows.shape[0])] + list(rows.shape[1:])
    bufs = []
    for axis in range(len(tables), 0, -1):
        shape[axis] = tables[axis - 1].shape[0]
        bufs.append(np.empty(shape, dtype=rows.dtype))
    for i in range(0, rows.shape[0], step):
        yield _x_series(rows[i:i + step], tables, bufs)


# every GEMM operand is an exact 0 or at least _TINY, so no product of
# two is subnormal; below _LOG_TINY an exponent is sent to -inf, since
# exp is many times slower on arguments whose result underflows
_TINY = 2.0 ** -500
_LOG_TINY = -500.0 * math.log(2.0)


def _exp_floored(arg: np.ndarray) -> np.ndarray:
    """e^arg in place, with every value below _TINY an exact 0."""
    np.copyto(arg, -np.inf, where=arg < _LOG_TINY)
    return np.exp(arg, out=arg)


def _pow_nonneg(a: np.ndarray, e: float,
                root: np.ndarray | None = None) -> np.ndarray:
    """a^e for a float64 array a >= 0 and e > 0, overwriting a.

    When 4e is an integer, a^e = a^j a^(r/4) with e = j + r/4: a^j by
    repeated squaring in place, a^(1/2) by one square root and a^(1/4)
    by a second, each pass far cheaper than a pow per point.  The
    square root goes to root, a work buffer of a's shape, when given
    (a new array otherwise), and a^(1/4) is taken from it in place.  At
    e = 1 and 2 the result (a and a*a) has the bits of pow; other
    exponents are within a few ulps of it.  Any other e takes one pow.
    """
    n = 4.0 * e
    if not (n > 0 and n.is_integer()):
        a **= e
        return a
    j, r = divmod(int(n), 4)
    if r:
        root = np.sqrt(a, out=root)
        if r == 1:
            np.sqrt(root, out=root)
        elif r == 3:
            root *= np.sqrt(root)
    else:
        root = None
    power = None
    while j:
        if j & 1:
            if power is None:
                power = a if j == 1 else a.copy()
            else:
                power *= a
        j >>= 1
        if j:
            a *= a
    if power is None:
        return root
    if root is not None:
        power *= root
    return power


def _box_lp_norm_coeffs(coeffs, box: UniformBox, p: float,
                        weight: np.ndarray | None = None) -> float:
    """box_lp_norm(weight * resample(...), box, p) from coefficients
    forward(field) the caller already holds, same check and warning as
    resample, with no box-sized array: the series is finished and
    summed one slab of rho rows at a time.

    A complex slab is squared in place on its float view and its
    (re, im) pairs added, s = |f|^2; a weight enters squared, s w^2.
    |f w|^p is then s^(p/2), which _pow_nonneg takes from products and
    at most two square roots when 2p is an integer and with one pow
    otherwise.  When the series is a real field
    (spectral._is_real_series) the slabs are float64: with no weight
    and 2p an integer, |v|^p is taken from |v| itself, with at most
    one square root (v^2 sqrt|v| at p = 2.5); otherwise s = v v is one
    in-place square.  p = inf returns sqrt(max w^2 s).  A slab holds as
    many rows as fit in _SLAB_BYTES of complex128 on either path.

    A weighted sum can overflow where the norm does not: s w^2 and its
    p/2-th power leave the double range first, as for |x|^(2 alpha) at
    large alpha and p > 2.  Such a sum is taken again with the weight
    scaled by 2^-e, e the binary exponent of its largest entry
    (math.frexp), and the norm multiplied back by 2^e, which is exact
    in binary.  A sum that stays finite keeps its bits.
    """
    if p != np.inf and p < 1:
        raise InvalidParameterError("p must be >= 1 or inf")
    rows, tables = _box_series(coeffs, box)
    if weight is None:
        return _slab_norm(rows, tables, box, p, None)
    with np.errstate(over="ignore", invalid="ignore"):
        norm = _slab_norm(rows, tables, box, p, weight)
    if math.isfinite(norm):
        return norm
    e = math.frexp(float(np.max(np.abs(weight))))[1]
    return math.ldexp(_slab_norm(rows, tables, box, p,
                                 np.ldexp(weight, -e)), e)


def _slab_norm(rows: np.ndarray, tables: list[np.ndarray],
               box: UniformBox, p: float, weight: np.ndarray | None
               ) -> float:
    """The slab loop of _box_lp_norm_coeffs on the rows and tables of
    _box_series: each slab of _series_slabs is squared (or its modulus
    taken) in place, and the square root of _pow_nonneg goes to one work
    buffer made at the first slab."""
    w2 = None if weight is None else np.broadcast_to(np.square(weight),
                                                     box.counts)
    abs_power = (w2 is None and p != np.inf
                 and float(2 * p).is_integer())
    root = None
    acc = 0.0
    i = 0
    for v in _series_slabs(rows, tables):
        h = v.shape[0]
        if np.iscomplexobj(v):
            v = v.view(np.float64)
            v *= v
            a, e = v[..., 0::2] + v[..., 1::2], 0.5 * p
        elif abs_power:
            a, e = np.abs(v, out=v), p
        else:
            v *= v
            a, e = v, 0.5 * p
        if w2 is not None:
            a *= w2[i:i + h]
        if p == np.inf:
            acc = max(acc, float(a.max()))
        else:
            if root is None:
                root = np.empty(a.shape)
            acc += float(np.sum(_pow_nonneg(a, e, root[:h])))
        i += h
    if p == np.inf:
        return math.sqrt(acc)
    return float((acc * box.cell_volume) ** (1.0 / p))
