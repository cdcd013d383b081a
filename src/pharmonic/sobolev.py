"""Adapted Sobolev norms: potential and ladder families, their
equivalence, weighted decay, and the strict-inclusion demonstrations.

The potential norm of order alpha is ||H^(alpha/2) f||_p with the power
applied spectrally; the ladder norm of integer order k sums ||A_j1 ...
A_jm f||_p over all (2d+1)^m ladder tuples with m <= k.  Both are
computed by grid quadrature, so p = 4 norms are exact only while
4K <= 2M - 1; the reports only ever compare ratios of the same
quadrature, which is what the equivalence statements need.

Strict inclusions are demonstrated by the two classical witnesses: a
slow-decay profile pushed through the flat-Laplacian Bessel multiplier
(unbounded |x|^alpha-weighted norms), and a slow-rho profile times a
single Hermite mode pushed through H^(-alpha/2) (unbounded
|rho|^alpha-weighted norms).  Finite runs certify non-stabilization
over dyadic radii, never a limit.
"""
from __future__ import annotations

import math
import warnings
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import InvalidParameterError, ResolutionWarning
from .grid import (Field, Grid, UniformBox, _box_lp_norm_coeffs,
                   _series_slabs, _sum_sq, box_lp_norm, inner, lp_norm,
                   resample, sample)
from .hermite import hermite_eval
from .ladder import _grad_coeffs, _grad_norms, riesz
from .report import Report
from .spectral import (SpectralCoeffs, _grid_rows, forward, inverse,
                       spectral_frac_power)

__all__ = [
    "TestFamily",
    "potential_norm",
    "ladder_norm",
    "equivalence_report",
    "riesz_on_potential_check",
    "weighted_decay_check",
    "strict_inclusion_demo",
]

_KINDS = ("band_limited", "gaussian")


@dataclass(frozen=True)
class TestFamily:
    """Seeded, reproducible field family; member i depends only on
    (seed, i).  The base members are the head of the enlarged family,
    of size members, that every boundedness check also scores."""
    kind: str
    count: int
    seed: int = 0

    __test__ = False        # not a pytest class, despite the name

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise InvalidParameterError(f"unknown family kind {self.kind!r}")
        if self.count < 1:
            raise InvalidParameterError("family needs at least one member")

    @property
    def size(self) -> int:
        """Member count of the enlarged family, four times the base."""
        return 4 * self.count

    def member(self, grid: Grid, i: int) -> Field:
        """Member i, which every family of this kind and seed with more
        than i members shares."""
        return _make_member(self.kind, grid,
                            np.random.default_rng([self.seed, i]))

    def coeffs(self, grid: Grid, i: int) -> SpectralCoeffs:
        """Member i in the eigenbasis, without a grid field where the
        kind allows: band_limited members are defined by their
        coefficients, of which member is the inverse (one draw for
        both); gaussian members are forward(member)."""
        rng = np.random.default_rng([self.seed, i])
        if self.kind == "band_limited":
            return _band_limited_coeffs(grid, rng)
        return forward(_make_member(self.kind, grid, rng))

    def draw(self, grid: Grid, i: int
             ) -> tuple[SpectralCoeffs, Iterable[np.ndarray]]:
        """Member i's coefficients and its values on the grid, from one
        draw, the values as consecutive slabs of rho rows whose
        concatenation is member(grid, i).values bit for bit.
        band_limited gives its coefficients and the slabs of their grid
        series (grid._series_slabs, with no grid-sized array; each slab
        is overwritten by the next), gaussian gives forward(member) and
        the sampled member's values as one slab."""
        rng = np.random.default_rng([self.seed, i])
        if self.kind == "band_limited":
            c = _band_limited_coeffs(grid, rng)
            return c, _series_slabs(*_grid_rows(c))
        f = _make_member(self.kind, grid, rng)
        return forward(f), [f.values]

    def members(self, grid: Grid) -> list[Field]:
        """The base members 0 .. count - 1."""
        return [self.member(grid, i) for i in range(self.count)]

    def extras(self, grid: Grid) -> Iterator[Field]:
        """Members count .. size - 1, each built as it is consumed, so
        a d = 3 family never holds more than its base at once."""
        return (self.member(grid, i) for i in range(self.count, self.size))


def _band_limited_coeffs(grid: Grid, rng) -> SpectralCoeffs:
    # random coefficients under a smooth decay envelope, zeroed on the
    # top two Hermite shells and the outer half of the tau ring so
    # ladder chains and positive powers stay inside the representation;
    # below K = 2 that band is empty
    if grid.K < 2:
        raise InvalidParameterError(
            f"a band_limited family needs K >= 2, got K = {grid.K}")
    n_idx = np.fft.fftfreq(grid.N_rho) * grid.N_rho
    keep_n = np.abs(n_idx) <= grid.N_rho // 4
    env_n = np.exp(-(n_idx / max(grid.N_rho / 8.0, 1.0)) ** 2)
    env_mu = np.exp(-(grid.mu_abs / max(grid.K / 3.0, 1.0)) ** 2)
    keep_mu = grid.mu_abs <= grid.K - 2
    data = (rng.standard_normal((grid.N_rho, len(grid.mu_abs)))
            + 1j * rng.standard_normal((grid.N_rho, len(grid.mu_abs))))
    data *= env_n[:, None] * env_mu[None, :]
    data[~keep_n, :] = 0.0
    data[:, ~keep_mu] = 0.0
    # Hermitian symmetry in the rho frequencies makes the field real
    flipped = np.conj(data[(-np.arange(grid.N_rho)) % grid.N_rho, :])
    data = 0.5 * (data + flipped)
    return SpectralCoeffs(grid, data)


def _make_member(kind: str, grid: Grid, rng) -> Field:
    if kind == "band_limited":
        return inverse(_band_limited_coeffs(grid, rng))
    # gaussian
    r0 = rng.uniform(-1.5, 1.5)
    x0 = rng.uniform(-1.0, 1.0, grid.d)
    a = rng.uniform(0.6, 1.6)
    b = rng.uniform(0.7, 1.4)

    def gauss(r, *xs):
        out = np.exp(-a * (r - r0) ** 2)
        for x, c in zip(xs, x0):
            out = out * np.exp(-b * (x - c) ** 2 / 2.0)
        return out

    return sample(grid, gauss)


# ---------------------------------------------------------------------------
# the two norm families

def potential_norm(field: Field, alpha: float, p: float) -> float:
    """||H^(alpha/2) f||_p, the positive power applied spectrally."""
    if alpha < 0:
        raise InvalidParameterError("potential_norm needs alpha >= 0")
    if alpha == 0:
        return lp_norm(field, p)
    return lp_norm(spectral_frac_power(field, alpha / 2.0), p)


def ladder_norm(field: Field, k: int, p: float) -> float:
    """||f||_p plus ||A_j1 ... A_jm f||_p over every ladder tuple,
    m <= k, indices in {0, +-1, ..., +-d}: the order-1 norms of f, then,
    at k = 2, those of each of its ladder images (ladder._grad_norms)."""
    if k not in (1, 2):
        raise InvalidParameterError("ladder order k must be 1 or 2")
    c = forward(field)
    total = sum(_grad_norms(c, p), lp_norm(field, p))
    if k == 2:
        for first in _grad_coeffs(c):
            total = sum(_grad_norms(first, p), total)
    return total


def _nonzero(value: float) -> bool:
    return np.isfinite(value) and value > 0


def equivalence_report(grid: Grid, family: TestFamily,
                       pairs: tuple[tuple[int, float], ...]) -> Report:
    """Bracket of ladder_norm / potential_norm over the family for each
    (k, p) in pairs, its metrics prefixed k{k}p{p:g}_, then the
    inclusion chain at order 1, p = 2, on the base members.

    The bracket passes iff the ratios stay in (0, inf) and its width
    grows by less than 2, not STABILITY_LIMIT, when the family is
    enlarged four-fold (TestFamily.size).  Each member is built once
    and scored for every pair.

    The chain ranks three quadratic forms: the rho^2-augmented (full
    Hermite) form dominates the oscillator form <H f, f> termwise, and
    the flat Bessel form ||f||^2 + ||grad f||^2 is at most 2 <H f, f>,
    since the spectrum starts at d and the potential term is
    nonnegative.  The two flat forms are read on _decay_box by the FFT.
    """
    rep = Report(suite="sobolev-equivalence",
                 params={"d": grid.d, "pairs": [list(pr) for pr in pairs],
                         "kind": family.kind, "count": family.count,
                         "enlarged": family.size, "seed": family.seed})

    def one(f: Field, k: int, p: float) -> float:
        denom = potential_norm(f, float(k), p)
        if not _nonzero(denom):
            return np.nan
        return ladder_norm(f, k, p) / denom

    # one row per member, one column per pair; the base is the head
    base_members = family.members(grid)
    vals = np.array([[one(f, k, p) for k, p in pairs] for f in
                     chain(base_members, family.extras(grid))])
    for (k, p), col in zip(pairs, vals.T):
        pre = f"k{k}p{p:g}_"
        base = col[:family.count][np.isfinite(col[:family.count])]
        wide = col[np.isfinite(col)]
        lo, hi = float(wide.min()), float(wide.max())
        rep.add(pre + "ratio_min", lo, None, _nonzero(lo), "enlarged family")
        rep.add(pre + "ratio_max", hi, None, _nonzero(hi), "enlarged family")
        rep.add_growth(pre + "bracket_growth",
                       float(base.max()) / float(base.min()), hi / lo,
                       f"family {family.count} -> {family.size}", limit=2.0)

    box = _decay_box(grid)
    zeta_sq = _sum_sq(box.freq_axes())
    scale = box.cell_volume / np.prod(box.counts)
    rho = box.axes()[0].reshape((-1,) + (1,) * (box.ndim - 1))
    sup_h_over_herm = 0.0
    sup_cl_over_h = 0.0
    for f in base_members:
        h_form = float(np.real(inner(spectral_frac_power(f, 1.0), f)))
        on_box = resample(f, box)
        hermite_form = h_form + box_lp_norm(rho * on_box, box, 2.0) ** 2
        if hermite_form <= 0:
            continue
        fhat = np.fft.fftn(on_box)
        classical_form = float(np.sum((1.0 + zeta_sq) * np.abs(fhat) ** 2)
                               * scale)
        sup_h_over_herm = max(sup_h_over_herm, h_form / hermite_form)
        sup_cl_over_h = max(sup_cl_over_h, classical_form / h_form)
    rep.add("oscillator_over_hermite_sup", sup_h_over_herm, 1.0 + 1e-10,
            sup_h_over_herm <= 1.0 + 1e-10,
            "termwise: the rho^2 term is nonnegative")
    rep.add("classical_over_oscillator_sup", sup_cl_over_h, 2.0 + 1e-8,
            sup_cl_over_h <= 2.0 + 1e-8,
            "||f||^2 + ||grad f||^2 <= 2 <H f, f>")
    return rep


def riesz_on_potential_check(js: tuple[int, ...], alpha: float, p: float,
                             grid: Grid, family: TestFamily) -> Report:
    """Empirical sup of ||R_j f||_(alpha,p) / ||f||_(alpha,p) for each j
    in js, its metrics prefixed j{j}_; PASS iff it grows by less than
    STABILITY_LIMIT on the enlarged family.  Each member is built once
    and scored for every j.
    """
    rep = Report(suite="riesz",
                 params={"js": list(js), "alpha": alpha, "p": p,
                         "d": grid.d, "kind": family.kind,
                         "seed": family.seed})

    def ratios(f: Field) -> list[float]:
        denom = potential_norm(f, alpha, p)
        if not _nonzero(denom):
            return [0.0] * len(js)
        return [potential_norm(riesz(j, f), alpha, p) / denom for j in js]

    # one row per member, the base at the head
    vals = [ratios(f) for f in
            chain(family.members(grid), family.extras(grid))]
    for col, j in enumerate(js):
        base = max(row[col] for row in vals[:family.count])
        wide = max(row[col] for row in vals)
        rep.add(f"j{j}_operator_ratio_sup", wide, None, np.isfinite(wide),
                "potential-norm ratio over enlarged family")
        rep.add_growth(f"j{j}_refinement_growth", base, wide,
                       f"family {family.count} -> {family.size}")
    return rep


# ---------------------------------------------------------------------------
# weighted decay

def _space_weight(box: UniformBox, alpha: float) -> np.ndarray:
    # |x|^alpha on the box, broadcast over the rho axis
    return (_sum_sq(box.axes()[1:]) ** (alpha / 2.0))[None, ...]


def _decay_box(grid: Grid) -> UniformBox:
    # the rho window at the grid's spacing, |x| <= 8 on 48 points per axis
    return UniformBox((grid.L_rho,) + (8.0,) * grid.d,
                      (grid.N_rho,) + (48,) * grid.d)


def weighted_decay_check(alpha: float, p: float, grid: Grid,
                         family: TestFamily) -> Report:
    """sup over the family of || |x|^(2 alpha) H^(-alpha) f ||_p / ||f||_p
    on a uniform box, stable to STABILITY_LIMIT on the enlarged family,
    plus the corollary form || |x|^alpha g ||_p for g = H^(-alpha/2) f."""
    if alpha < 0:
        raise InvalidParameterError("alpha must be nonnegative")
    box = _decay_box(grid)
    rep = Report(suite="weighted-decay",
                 params={"alpha": alpha, "p": p, "d": grid.d,
                         "kind": family.kind, "seed": family.seed})
    w_op = _space_weight(box, 2.0 * alpha)
    w_cor = _space_weight(box, alpha)

    def one(f: Field):
        denom = lp_norm(f, p)
        if not _nonzero(denom):
            return 0.0, 0.0
        op = _box_lp_norm_coeffs(forward(spectral_frac_power(f, -alpha)),
                                 box, p, w_op) / denom
        cor = _box_lp_norm_coeffs(
            forward(spectral_frac_power(f, -alpha / 2.0)),
            box, p, w_cor) / denom
        return op, cor

    # the base family is the head of the enlarged one
    vals = [one(f) for f in
            chain(family.members(grid), family.extras(grid))]
    base_op = max(op for op, _ in vals[:family.count])
    wide_op = max(op for op, _ in vals)
    rep.add("weighted_operator_sup", wide_op, None, np.isfinite(wide_op),
            "|| |x|^2a H^-a f ||_p / ||f||_p")
    rep.add_growth("refinement_growth", base_op, wide_op,
                   f"family {family.count} -> {family.size}")
    sup_cor = max(cor for _, cor in vals)
    rep.add("corollary_weighted_sup", sup_cor, None, np.isfinite(sup_cor),
            "|| |x|^a g ||_p for g = H^(-a/2) f")
    return rep


# ---------------------------------------------------------------------------
# strict inclusion witnesses

# the witnesses' window half-width, and the p-th-power mass growth
# across the radii that certifies non-stabilization
_HALF_WIDTH = 48.0
_MASS_GROWTH = 2.0


def _bessel_power(a: np.ndarray, b: np.ndarray, box: UniformBox,
                  alpha: float) -> np.ndarray:
    """(I - Laplacian)^(alpha/2) of the separable field a(rho) b(x) on
    the 2-D box, by the Fourier multiplier.

    The spectrum of the product is the outer product of the line
    spectra, fft(a) and rfft(b): b is real, so its half spectrum holds
    all of it.  The multiplier is real and even, so it applies on the
    half spectrum and irfft2 returns the real result.
    """
    tau, xi = box.freq_axes()
    fhat = np.outer(np.fft.fft(a), np.fft.rfft(b))
    fhat *= (1.0 + tau[:, None] ** 2
             + xi[None, :fhat.shape[1]] ** 2) ** (alpha / 2.0)
    return np.fft.irfft2(fhat, s=box.counts)


def strict_inclusion_demo(which: str, alpha: float, p: float,
                          radii: tuple[float, ...] = (4.0, 8.0, 16.0, 32.0),
                          control: bool = False,
                          n_points: int = 1024) -> Report:
    """Weighted norms of the two strict-inclusion witnesses over nested
    boxes; d = 1.

    which = "f1": f1 = (I - Laplacian)^(-alpha/2) g1 with the slow
    product profile g1; the report tracks || |x|^alpha f1 ||_p over
    |z| <= R.  which = "f2": f2 = H^(-alpha/2) [slow rho profile times
    the ground Hermite mode], tracked with weight |rho|^alpha.  PASS iff
    the weighted norms increase strictly across the radii and the
    p-th-power mass grows by more than _MASS_GROWTH overall (the
    norm itself is also reported); control = True swaps in a Gaussian
    profile, for which the same numbers must stabilize instead.  Both
    witnesses live on the window |z| <= _HALF_WIDTH.
    """
    if which not in ("f1", "f2"):
        raise InvalidParameterError("which must be 'f1' or 'f2'")
    if not 0.0 < alpha < 1.0:
        raise InvalidParameterError("alpha must lie in (0, 1)")
    if not 1.0 < p < math.inf:
        raise InvalidParameterError("p must lie in (1, inf)")
    if len(radii) < 4 or np.any(np.diff(radii) <= 0):
        raise InvalidParameterError("need >= 4 strictly increasing radii")
    if radii[-1] > _HALF_WIDTH / 1.4:
        raise InvalidParameterError("largest radius too close to the box "
                                    f"boundary at {_HALF_WIDTH:g}")
    decay = 1.0 / p + alpha
    rep = Report(suite="inclusions",
                 params={"which": which, "alpha": alpha, "p": p,
                         "radii": list(radii), "control": control,
                         "half_width": _HALF_WIDTH, "n": n_points})

    if which == "f1":
        box = UniformBox((_HALF_WIDTH, _HALF_WIDTH), (n_points, n_points))
        rho_ax, x_ax = box.axes()
        rr, xx = rho_ax[:, None], x_ax[None, :]
        if control:
            line = lambda v: np.exp(-v ** 2 / 2.0)
        else:
            line = lambda v: (1.0 + np.abs(v)) ** -decay
        f = _bessel_power(line(rho_ax), line(x_ax), box, -alpha)
        weighted = np.abs(xx) ** alpha * np.abs(f)
        inside = lambda R: (np.abs(rr) <= R) & (np.abs(xx) <= R)
        cell = box.cell_volume
    else:
        h = 2.0 * _HALF_WIDTH / n_points
        rho = -_HALF_WIDTH + h * np.arange(n_points)
        if control:
            prof = np.exp(-rho ** 2 / 2.0)
        else:
            prof = (1.0 + np.abs(rho)) ** -decay
        tau = 2.0 * np.pi * np.fft.fftfreq(n_points, d=h)
        lam = tau ** 2 + 1.0
        line = np.fft.ifft(lam ** (-alpha / 2.0) * np.fft.fft(prof))
        # the Hermite factor is weight-independent; fold its L^p norm
        xg = np.linspace(-10, 10, 2001)
        phi = hermite_eval(0, xg)
        phi_p = (np.trapezoid(np.abs(phi) ** p, xg)) ** (1.0 / p)
        weighted = np.abs(rho) ** alpha * np.abs(line) * phi_p
        rr = rho
        inside = lambda R: np.abs(rr) <= R
        cell = h

    norms = []
    for R in radii:
        mass = float(np.sum(weighted[inside(R)] ** p) * cell)
        norms.append(mass ** (1.0 / p))
    for k, (R, v) in enumerate(zip(radii, norms)):
        rep.add(f"weighted_norm_R{int(R)}", v, None, np.isfinite(v),
                f"box radius {R}")
    diffs_increase = norms[0] > 0 and all(b > a for a, b in
                                          zip(norms, norms[1:]))
    if not control and not diffs_increase:
        warnings.warn("weighted norms are not monotone across the radii; "
                      "the box resolution is too coarse for this witness",
                      ResolutionWarning, stacklevel=2)
    if norms[0] > 0:
        growth_norm = norms[-1] / norms[0]
    else:
        # degenerate run: the innermost radius captured no weighted mass
        growth_norm = 0.0
    growth_mass = growth_norm ** p
    if control:
        rep.add("monotone", float(diffs_increase), None, True,
                "nested boxes, nonnegative integrand")
        rep.add("mass_growth", growth_mass, 1.0 + 0.01,
                growth_mass < 1.01, "Gaussian control must stabilize")
    else:
        rep.add("monotone", float(diffs_increase), None, diffs_increase,
                "strictly increasing across radii")
        rep.add("mass_growth", growth_mass, _MASS_GROWTH,
                growth_mass > _MASS_GROWTH,
                f"p-th power mass, R {radii[0]} -> {radii[-1]}")
        rep.add("norm_growth", growth_norm, None,
                np.isfinite(growth_norm), "same growth on the norm scale")
    return rep
