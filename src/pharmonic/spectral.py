"""Diagonalization of H = -d^2/drho^2 - Delta_x + |x|^2 on the mixed grid.

The joint eigenfunctions are e^(i tau rho) Phi_mu(x) with eigenvalue
lambda = tau^2 + 2|mu| + d, so any operator given by a function of H
acts diagonally on the coefficient array c[n, mu] of

    f(rho, x) = sum_n sum_mu c[n, mu] e^(i tau_n rho) Phi_mu(x).

With rho_j = -L + j*drho and tau_n = pi n / L the plane-wave factor at
the grid points is (-1)^n e^(2 pi i n j / N), hence the (-1)^n sign
fix-ups around the FFT below.  Plancherel on the cylinder reads
||f||_2^2 = 2 L sum |c|^2.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidParameterError,
    SingularMultiplierError,
    TruncationWarning,
)
from .grid import Field, Grid, _contract_axis, _x_series

__all__ = [
    "SpectralCoeffs",
    "forward",
    "inverse",
    "plancherel_norm",
    "apply_multiplier",
    "power_multiplier",
    "spectral_frac_power",
    "heat_spectral",
    "mode_field",
    "tail_energy",
]


@dataclass(frozen=True, eq=False)
class SpectralCoeffs:
    """Coefficients c[n, mu], rho-frequency in FFT order, modes in grid.mu order."""
    grid: Grid
    data: np.ndarray  # (N_rho, n_mu) complex

    def __post_init__(self) -> None:
        want = (self.grid.N_rho, self.grid.n_mu)
        if self.data.shape != want:
            raise InvalidParameterError(
                f"coefficient shape {self.data.shape} != {want}")


def _alt_sign(grid: Grid) -> np.ndarray:
    """(-1)^n for the FFT-ordered integer frequencies, shape (N_rho, 1)."""
    n = np.fft.fftfreq(grid.N_rho, d=1.0 / grid.N_rho).astype(np.int64)
    return (1 - 2 * (n & 1)).astype(np.float64)[:, None]


def _to_cube(grid: Grid, data: np.ndarray) -> np.ndarray:
    """Scatter (N_rho, n_mu) rows to the dense degree cube
    (N_rho, K+1, ..., K+1) of data's dtype, zero off the admissible
    multi-indices."""
    cube = np.zeros((grid.N_rho,) + (grid.K + 1,) * grid.d,
                    dtype=data.dtype)
    cube[(slice(None),) + tuple(grid.mu.T)] = data
    return cube


def _from_cube(grid: Grid, cube: np.ndarray) -> np.ndarray:
    """Gather the admissible multi-indices of a (N_rho, K+1, ..., K+1)
    degree cube into the (N_rho, n_mu) coefficient layout."""
    return cube[(slice(None),) + tuple(grid.mu.T)]


def _is_real_series(data: np.ndarray) -> bool:
    """Whether the (N_rho, n_mu) coefficients data describe a real
    field: c[-n] = conj c[n] bit for bit, which makes the DC and
    Nyquist rows real.  forward of a float64 field and band_limited
    draws pass.  The Nyquist plane wave pairs with no other frequency;
    the real series reads it as c_N cos(tau_N rho), the real
    trigonometric interpolant, which is e^(i tau_N rho) on the grid."""
    n = data.shape[0]
    return np.array_equal(data, np.conj(data[(-np.arange(n)) % n]))


def forward(field: Field) -> SpectralCoeffs:
    """Project onto the eigenbasis.

    Exact (to rounding) for fields that are band-limited in rho and of
    Hermite degree <= K in x: the compensated Gauss-Hermite rule with
    M >= K + 1 nodes integrates the degree <= 2K products exactly, and
    the DFT is alias-free below the Nyquist ring.  Each x axis is
    projected in place, x_1 first, then the admissible degrees are
    gathered and the rho axis transformed by the FFT.  The real
    weighted Hermite table meets a complex field as a real GEMM on its
    float view (grid._contract_axis); x_1 first makes the step that
    reads the whole field one of these, and leaves the complex
    post = 1 step, x_d, to the smallest array.

    A float64 field takes real GEMMs throughout and an rfft in rho; the
    negative frequencies are the exact conjugates of the positive ones,
    so its coefficients pass _is_real_series.
    """
    g = field.grid
    wtab = g.hermite_table * g.weights_x[None, :]     # (K+1, M)
    u = field.values
    for axis in range(1, g.d + 1):
        u = _contract_axis(u, wtab, axis)
    u = _from_cube(g, u)
    if np.iscomplexobj(u):
        c = np.fft.fft(u, axis=0)
    else:
        half = g.N_rho // 2 + 1
        c = np.empty(u.shape, dtype=np.complex128)
        c[:half] = np.fft.rfft(u, axis=0)
        c[half:] = np.conj(c[half - 2:0:-1])
    return SpectralCoeffs(g, _alt_sign(g) * c / g.N_rho)


def _grid_rows(coeffs: SpectralCoeffs
               ) -> tuple[np.ndarray, list[np.ndarray]]:
    """The series of coeffs summed over rho only, at the grid's rho
    points: the degree cube of rho rows, float64 when
    _is_real_series(coeffs.data), else complex128, and the tables
    h_k(node) that grid._x_series (or grid._series_slabs, a slab of
    rows at a time) applies to finish it on the grid; see inverse."""
    g = coeffs.grid
    u = g.N_rho * np.fft.ifft(_alt_sign(g) * coeffs.data, axis=0)
    if _is_real_series(coeffs.data):
        u = u.real
    return _to_cube(g, u), [g.hermite_table.T] * g.d


def _grid_series(coeffs: SpectralCoeffs) -> np.ndarray:
    """The series of coeffs on the grid points, float64 when
    _is_real_series(coeffs.data), else complex128; see inverse."""
    return _x_series(*_grid_rows(coeffs))


def inverse(coeffs: SpectralCoeffs) -> Field:
    """Evaluate the series back on the grid points: inverse FFT in rho,
    scatter to the degree cube, then h_k(node) on x_d, .., x_1 in place.

    The reverse of forward's order: the complex post = 1 step, x_d,
    runs on the degree cube, and every later step, the one that writes
    the whole field included, is a real GEMM on the float view
    (grid._contract_axis).  Coefficients that pass _is_real_series give
    a float64 Field: only the real part of the rho step is kept, and
    every x step is a real GEMM on half the bytes.
    """
    return Field(coeffs.grid, _grid_series(coeffs))


def plancherel_norm(coeffs: SpectralCoeffs) -> float:
    """L^2 norm from coefficients: sqrt(2 L sum |c|^2)."""
    g = coeffs.grid
    return float(np.sqrt(2.0 * g.L_rho * np.sum(np.abs(coeffs.data) ** 2)))


# the tail_energy above which spectral_frac_power (alpha > 0) and the
# box series (grid.resample, grid._box_lp_norm_coeffs) warn
_TAIL_TOL = 1e-6


def tail_energy(coeffs: SpectralCoeffs) -> float:
    """Relative coefficient energy in the top Hermite shell and Nyquist ring."""
    g = coeffs.grid
    c = coeffs.data
    total = float(np.sum(np.abs(c) ** 2))
    if total == 0.0:
        return 0.0
    top_shell = float(np.sum(np.abs(c[:, g.mu_abs == g.K]) ** 2))
    n = np.abs(np.fft.fftfreq(g.N_rho, d=1.0 / g.N_rho))
    top_ring = float(np.sum(np.abs(c[n >= g.N_rho // 2 - 1, :]) ** 2))
    return (top_shell + top_ring) / total


def apply_multiplier(coeffs: SpectralCoeffs, m: np.ndarray) -> SpectralCoeffs:
    """Multiply coefficients by m(tau, mu), shape (N_rho, n_mu) or scalar."""
    m = np.asarray(m)
    if not np.isfinite(m).all():
        raise SingularMultiplierError("multiplier has non-finite entries")
    return SpectralCoeffs(coeffs.grid, coeffs.data * m)


def power_multiplier(grid: Grid, alpha: float, shift: float = 0.0) -> np.ndarray:
    """(lambda + shift)^alpha on the grid's modes.

    Raises SingularMultiplierError when the power is undefined on some
    mode: a non-positive base with negative or fractional alpha.
    """
    base = grid.eigenvalues(shift)
    if alpha < 0 and (base <= 0).any():
        raise SingularMultiplierError(
            f"(lambda + {shift})^{alpha}: base reaches "
            f"{base.min():.6g} <= 0 on the grid")
    if alpha != int(alpha) and (base < 0).any():
        raise SingularMultiplierError(
            f"(lambda + {shift})^{alpha}: fractional power of negative base")
    return np.power(base, alpha)


def spectral_frac_power(field: Field, alpha: float, shift: float = 0.0
                        ) -> Field:
    """(H + shift)^alpha f through the eigenbasis.

    For alpha > 0 the top modes are amplified, so a coefficient tail
    energy above _TAIL_TOL means the answer is truncation-limited; that
    case warns rather than fails.
    """
    c = forward(field)
    if alpha > 0 and tail_energy(c) > _TAIL_TOL:
        warnings.warn(
            f"relative tail energy {tail_energy(c):.3e} exceeds "
            f"{_TAIL_TOL:.1e}; positive power amplifies truncation error",
            TruncationWarning, stacklevel=2)
    return inverse(apply_multiplier(c, power_multiplier(field.grid, alpha, shift)))


def heat_spectral(field: Field, t: float) -> Field:
    """e^(-t H) f through the eigenbasis; t must be positive."""
    if t <= 0:
        raise InvalidParameterError("t must be positive")
    c = forward(field)
    return inverse(apply_multiplier(c, np.exp(-t * field.grid.eigenvalues())))


def mode_field(grid: Grid, n: int, mu) -> Field:
    """The eigenfunction e^(i tau_n rho) Phi_mu(x) as a grid field.

    n is the integer rho-frequency (tau = pi n / L), admissible range
    -N_rho/2 <= n < N_rho/2.
    """
    if not (-grid.N_rho // 2 <= n < grid.N_rho // 2):
        raise InvalidParameterError(f"frequency index {n} outside the grid")
    c = np.zeros((grid.N_rho, grid.n_mu), dtype=np.complex128)
    c[n % grid.N_rho, grid.mode_index(mu)] = 1.0
    return inverse(SpectralCoeffs(grid, c))
