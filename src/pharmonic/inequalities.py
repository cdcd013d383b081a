"""Adapted Hardy-Littlewood-Sobolev, Gagliardo-Nirenberg-Sobolev and
Hardy inequality checks, plus the sharp-exponent failure demos.

Boundedness claims are verified empirically: the operator ratio is
maximized over a reproducible random family and accepted only when
enlarging the family four-fold and doubling the quadrature box both
move the sup by less than a stability factor.  Divergence claims are
demonstrated on the classical witness sequences (concentrating
Gaussians, the log-corrected borderline profile), which must show
monotone growth whose increments refuse to decay.

Every field that feeds an L^q norm with q != 2 goes through the
kernel route of the fractional power, resampled to a uniform box that
is auto-sized from the family's measured decay.  The spectral route
is computed alongside on every member and the two must agree to 1e-3
in relative L^2 before any norm is trusted (consistency gate).  That
gate needs generous Hermite headroom, so the default grids keep the
band limit K small and the node count M large; families should be
synthesized inside the band (band_limited is safe everywhere).
"""
from __future__ import annotations

import math
import warnings
from collections.abc import Iterable, Iterator
from itertools import chain

import numpy as np

from .errors import (DomainError, InvalidParameterError, QuadratureError,
                     ResolutionWarning)
from .grid import (_TINY, Field, Grid, UniformBox, _box_lp_norm_coeffs,
                   _exp_floored, lp_norm, make_grid)
from .heat_kernel import (_frac_power_images, _gl_panels, k_alpha,
                          t_quadrature)
from .ladder import _grad_norms
from .report import Report
from .sobolev import TestFamily, potential_norm
from .spectral import (SpectralCoeffs, forward, plancherel_norm,
                       spectral_frac_power)

GATE_TOL = 1e-3
_PROFILE_EPS = 0.1

_TAGS = ("hls", "gns", "hardy")


# ---------------------------------------------------------------------------
# exponent windows

def _admissible(p: float, q: float, gap: float, gap_name: str) -> None:
    """1/p - gap <= 1/q < 1/p, the HLS/GNS exponent window; gap_name
    spells gap in the error message."""
    if p < 1.0 or q < 1.0:
        raise InvalidParameterError("exponents must be >= 1")
    lo, hi = 1.0 / p - gap, 1.0 / p
    inv = 1.0 / q
    if not (lo - 1e-12 <= inv < hi - 1e-12):
        raise InvalidParameterError(
            f"1/q = {inv:.6g} outside [{lo:.6g}, {hi:.6g}); required: "
            f"1/p - {gap_name} <= 1/q < 1/p")


def check_exponents(tag: str, alpha: float, p: float, q: float,
                    d: int) -> None:
    """Raise InvalidParameterError unless (alpha, p, q, d) lies in the
    exponent window of the inequality tag ("hls", "gns" or "hardy").
    Unused exponent slots (q for hardy, alpha for gns) are ignored."""
    if tag not in _TAGS:
        raise InvalidParameterError(f"unknown tag {tag!r}")
    if d < 1:
        raise InvalidParameterError("d must be a positive integer")
    dim = d + 1.0
    if tag == "hls":
        if not 0.0 < alpha < dim:
            raise InvalidParameterError("alpha must lie in (0, d+1)")
        _admissible(p, q, alpha / dim, "alpha/(d+1)")
    elif tag == "gns":
        if d < 3:
            raise InvalidParameterError("gns requires d >= 3")
        _admissible(p, q, 1.0 / dim, "1/(d+1)")
    else:  # hardy
        if p not in (2.0, 4.0):
            raise InvalidParameterError("hardy supports p in {2, 4}")
        if not 0.0 < alpha < dim / p:
            raise InvalidParameterError(
                "hardy needs 0 < alpha < (d+1)/p")


# ---------------------------------------------------------------------------
# shared plumbing

def _default_grid(d: int) -> Grid:
    # kernel-route heads need Hermite headroom well past the band limit
    if d == 1:
        return make_grid(1, 64, 10.0, 8, 40)
    return make_grid(d, 32, 8.0, 8, 32)


def _measured_box(g: Grid, members: Iterable[Iterable[np.ndarray]],
                  counts: tuple[int, ...]) -> UniformBox:
    """Box sized so every member has decayed below 1e-6 relative
    amplitude at the boundary, padded by 1.3 and capped by the grid
    windows.

    Each member is given as consecutive slabs of rho rows of its values
    on the grid g, real or complex, whose concatenation is the member
    (TestFamily.draw, or [Field.values] for a whole field).  A slab is
    read once and |f| twice before the next is asked for, so members,
    and a member's slabs, may be built as they are consumed: the rho
    profile is the max over each rho row, and the x profiles come from
    the max over rho, folded slab by slab into an array of one rho
    row.  max is exact, so the box does not depend on the slabs."""
    coords = [g.rho] + [g.nodes_x] * g.d
    caps = [g.L_rho] + [float(np.max(np.abs(g.nodes_x)))] * g.d
    need = [0.0] * (g.d + 1)
    for slabs in members:
        rows, over_rho = [], None
        for values in slabs:
            a = np.abs(values)
            rows.append(a.reshape(a.shape[0], -1).max(axis=1))
            top = a.max(axis=0)
            over_rho = top if over_rho is None else np.maximum(
                over_rho, top, out=over_rho)
        rho_prof = np.concatenate(rows)
        peak = float(rho_prof.max())
        if peak == 0.0:
            continue
        profs = [rho_prof] + [
            over_rho.max(axis=tuple(i for i in range(g.d) if i != ax))
            for ax in range(g.d)]
        for ax, prof in enumerate(profs):
            live = coords[ax][prof > 1e-6 * peak]
            if live.size:
                need[ax] = max(need[ax], float(np.max(np.abs(live))))
    half = [min(max(1.3 * n, 1.0), cap) for n, cap in zip(need, caps)]
    return UniformBox(tuple(half), tuple(counts))


def _family_grid(d: int, grid: Grid | None) -> Grid:
    g = grid if grid is not None else _default_grid(d)
    if g.d != d:
        raise InvalidParameterError("grid dimension does not match d")
    return g


def _boxes(g: Grid, members: Iterable[Iterable[np.ndarray]]
           ) -> tuple[UniformBox, UniformBox]:
    """The box measured on the members' grid values, each member given
    as slabs of rho rows (_measured_box), and that box with its counts
    doubled."""
    box = _measured_box(g, members,
                        (64, 64) if g.d == 1 else (24,) * (g.d + 1))
    return box, UniformBox(box.half_widths,
                           tuple(2 * n for n in box.counts))


def _family_setup(family: TestFamily, d: int, grid: Grid | None
                  ) -> tuple[list[Field], Iterator[Field], UniformBox,
                             UniformBox]:
    """The base members, the extras of the four-fold family (consumed
    once), the box measured on the base, and that box with its counts
    doubled."""
    g = _family_grid(d, grid)
    base = family.members(g)
    return (base, family.extras(g)) + _boxes(g, ([f.values] for f in base))


def _sup_stats(rep: Report, name: str, base: list[float],
               extra: list[float], fine: list[float],
               prefix: str = "") -> None:
    sup_base = max(base)
    sup_all = max([sup_base] + extra)
    sup_fine = max(fine)
    rep.add(name, sup_all, None, bool(np.isfinite(sup_all)),
            note=f"max over {len(base) + len(extra)} fields")
    rep.add_growth(prefix + "family_growth", sup_base, sup_all,
                   "sup change, family x4")
    rep.add_growth(prefix + "box_change", min(sup_fine, sup_base),
                   max(sup_fine, sup_base),
                   "sup change, box counts x2 (inert for q = 2)")


# ---------------------------------------------------------------------------
# HLS

def _ratio_hls(f: Field, k: Field, alpha: float, p: float, q: float,
               box: UniformBox, box_fine: UniformBox | None,
               shift: float) -> tuple[float, float, float]:
    """Gate and ratios of one member f, with k = (H + shift)^(-alpha/2) f
    by the kernel route."""
    s = spectral_frac_power(f, -0.5 * alpha, shift=shift)
    ref = lp_norm(s, 2.0)
    rel = lp_norm(k - s, 2.0) / ref if ref > 0.0 else 0.0
    if rel > GATE_TOL:
        raise QuadratureError(
            f"kernel and spectral routes disagree ({rel:.2e} relative L^2 "
            f"> {GATE_TOL:g}); this grid cannot support the check")
    den = lp_norm(f, p)
    if den == 0.0:
        raise InvalidParameterError("zero field in family")
    if q == 2.0:
        r = lp_norm(k, 2.0) / den
        return rel, r, r
    ck = forward(k)
    r0 = _box_lp_norm_coeffs(ck, box, q) / den
    r1 = r0
    if box_fine is not None:
        r1 = _box_lp_norm_coeffs(ck, box_fine, q) / den
    return rel, r0, r1


def _hls_core(alpha: float, p: float, q: float, d: int, shift: float,
              family: TestFamily, grid: Grid | None) -> Report:
    base, extra, box, fine = _family_setup(family, d, grid)
    # the kernel images run stacked, one slab of members at a time: the
    # whole default d = 1 family at once, a d = 3 member on its own, so
    # a d = 3 family still never holds more than its base at once
    n = len(base)
    got = [_ratio_hls(f, k, alpha, p, q, box, fine if i < n else None, shift)
           for i, (f, k) in enumerate(_frac_power_images(
               chain(base, extra), -0.5 * alpha, shift))]
    got, got_e = got[:n], got[n:]
    worst = max(r for r, _, _ in got + got_e)
    rep = Report(suite="hls",
                 params={"alpha": alpha, "p": p, "q": q, "d": d,
                         "shift": shift, "kind": family.kind,
                         "count": family.count, "seed": family.seed})
    rep.add("gate_rel_max", worst, GATE_TOL, worst <= GATE_TOL,
            note="kernel vs spectral fractional power, relative L^2")
    _sup_stats(rep, "operator_sup", [r for _, r, _ in got],
               [r for _, r, _ in got_e], [r for _, _, r in got])
    return rep


def hls_check(alpha: float, p: float, q: float, d: int,
              family: TestFamily, grid: Grid | None = None) -> Report:
    """Empirical sup of |H^(-alpha/2) f|_q / |f|_p over the family.

    Requires 0 < alpha < d+1 and 1/p - alpha/(d+1) <= 1/q < 1/p.  The
    power is applied through the kernel route and cross-checked
    against the spectral route on every member; q != 2 norms are box
    quadratures on an auto-sized UniformBox.  PASS needs a finite sup
    that moves by less than STABILITY_LIMIT under a four-fold family
    enlargement and a doubling of the box resolution.
    """
    check_exponents("hls", alpha, p, q, d)
    return _hls_core(alpha, p, q, d, 0.0, family, grid)


def shifted_hls_check(alpha: float, p: float, q: float, d: int, a: float,
                      family: TestFamily, grid: Grid | None = None
                      ) -> Report:
    """Same sup for (H + a)^(-alpha/2), a in {+2, -2}, with the same
    STABILITY_LIMIT verdict.

    a = -2 drops the spectral bottom to d - 2, so d >= 3 is required
    for a decaying semigroup.  a = +2 shrinks the kernel pointwise and
    the sup should land below the unshifted one.
    """
    if a not in (2.0, -2.0):
        raise InvalidParameterError("a must be +2 or -2")
    if a == -2.0 and d < 3:
        raise DomainError("a = -2 needs d >= 3: H - 2 is not positive")
    check_exponents("hls", alpha, p, q, d)
    return _hls_core(alpha, p, q, d, float(a), family, grid)


# ---------------------------------------------------------------------------
# GNS

def _ratio_gns(c: SpectralCoeffs, p: float, q: float, box: UniformBox,
               box_fine: UniformBox | None) -> tuple[float, float]:
    den = sum(_grad_norms(c, p))
    if den == 0.0:
        raise InvalidParameterError("zero field in family")
    if q == 2.0:
        r = plancherel_norm(c) / den
        return r, r
    r0 = _box_lp_norm_coeffs(c, box, q) / den
    r1 = r0
    if box_fine is not None:
        r1 = _box_lp_norm_coeffs(c, box_fine, q) / den
    return r0, r1


def gns_check(p: float, q: float, d: int, family: TestFamily,
              grid: Grid | None = None) -> Report:
    """Empirical sup of |f|_q / sum_j |A_j f|_p (all 2d+1 components).

    Requires d >= 3 and 1/p - 1/(d+1) <= 1/q < 1/p.  The gradient norm
    is the l^1 combination of component L^p norms, computed by grid
    quadrature; at p = 2 each is read off the coefficient moduli
    instead, which is the same grid quadrature to rounding
    (Gauss-Hermite and the rho trapezoid are exact on the band-limited
    image, see ladder._grad_norms).  The q norm uses the auto-sized box
    when q != 2, and plancherel_norm, the same quadrature, when q = 2.

    Every member is scored from its coefficients, and no array the
    size of a grid field is made for a band_limited family: each base
    member is drawn once (TestFamily.draw), its coefficients kept and
    its box measured on the slabs of its real grid series, one slab of
    rho rows at a time; the extras are drawn as coefficients only
    (TestFamily.coeffs).  The box norms of band_limited coefficients
    are summed on real slabs (grid._box_lp_norm_coeffs).  PASS needs a
    sup that moves by less than STABILITY_LIMIT, as in hls_check.
    """
    check_exponents("gns", 1.0, p, q, d)
    g = _family_grid(d, grid)
    n = family.count
    base = []

    def base_slabs() -> Iterator[Iterable[np.ndarray]]:
        for i in range(n):
            c, slabs = family.draw(g, i)
            base.append(c)
            yield slabs

    box, fine = _boxes(g, base_slabs())
    got = [_ratio_gns(c, p, q, box, fine) for c in base]
    got_e = [_ratio_gns(family.coeffs(g, i), p, q, box, None)
             for i in range(n, family.size)]
    rep = Report(suite="gns",
                 params={"p": p, "q": q, "d": d, "kind": family.kind,
                         "count": family.count, "seed": family.seed})
    _sup_stats(rep, "gradient_ratio_sup", [r for r, _ in got],
               [r for r, _ in got_e], [r for _, r in got])
    return rep


# ---------------------------------------------------------------------------
# Hardy

def _singular_weight(box: UniformBox, alpha: float) -> np.ndarray:
    r2 = box.radius_sq()
    with np.errstate(divide="ignore"):
        w = r2 ** (-0.5 * alpha)
    # drop the cell containing the origin; its node can carry float
    # rounding residue when the half-width is not dyadic, so test
    # against the cell size rather than against zero
    w[r2 <= (0.25 * min(box.spacings())) ** 2] = 0.0
    return w


def hardy_check(alpha: float, p: float, d: int, family: TestFamily,
                grid: Grid | None = None) -> Report:
    """Empirical sup of | |z|^(-alpha) f |_p / |H^(alpha/2) f|_p.

    Requires p in {2, 4} and 0 < alpha < (d+1)/p.  For alpha = 1 with
    p < d+1 the gradient-controlled variant
    | |z|^(-1) f |_p / sum_j |A_j f|_p is reported as well.  Each sup
    passes when it moves by less than STABILITY_LIMIT, as in hls_check.
    """
    check_exponents("hardy", alpha, p, 2.0, d)
    base, extra, box, fine = _family_setup(family, d, grid)
    w0 = _singular_weight(box, alpha)
    w1 = _singular_weight(fine, alpha)
    grad_variant = alpha == 1.0 and p < d + 1

    def worker(f: Field, with_fine: bool):
        den = potential_norm(f, alpha, p)
        if den == 0.0:
            raise InvalidParameterError("zero field in family")
        c = forward(f)
        num0 = _box_lp_norm_coeffs(c, box, p, w0)
        num1 = num0
        if with_fine:
            num1 = _box_lp_norm_coeffs(c, fine, p, w1)
        gden = sum(_grad_norms(c, p)) if grad_variant else math.inf
        return num0, num1, den, gden

    got = [worker(f, True) for f in base]
    got_e = [worker(f, False) for f in extra]
    rep = Report(suite="hardy",
                 params={"alpha": alpha, "p": p, "d": d,
                         "kind": family.kind, "count": family.count,
                         "seed": family.seed})
    _sup_stats(rep, "hardy_sup", [n0 / dn for n0, _, dn, _ in got],
               [n0 / dn for n0, _, dn, _ in got_e],
               [n1 / dn for _, n1, dn, _ in got])
    if grad_variant:
        _sup_stats(rep, "gradient_sup",
                   [n0 / gd for n0, _, _, gd in got],
                   [n0 / gd for n0, _, _, gd in got_e],
                   [n1 / gd for _, n1, _, gd in got], prefix="gradient_")
    return rep


# ---------------------------------------------------------------------------
# endpoint demos

# Trend classification: a sequence counts as divergent when it grows
# monotonically and its increments refuse to decay.  The floors encode
# what "refuse" means per demo.  L^1 witnesses: subcritical increments
# decay geometrically at rate 2^(-2(1/q - 1/q*)) (measured 0.86 at
# q = 1.2, alpha = 1/2, seven levels) while critical and supercritical
# ones sit at 0.97 and above; exponents within a few percent of q*
# cannot be resolved at these depths.  Linf witness: the borderline
# profile's increments decay harmonically (measured 0.96) while its
# smooth control decays geometrically (0.71 for alpha = 1/2).
_L1_RATIO_FLOOR = 0.92
_LINF_RATIO_FLOOR = 0.90

# two-scale quadrature for the L^1-range images: a coarse global box
# plus a fine core window; all widths are dyadic so the coarse lattice
# tiles the window exactly
_OUT_HALF, _OUT_N = 8.0, 512
_CORE_HALF, _CORE_N = 0.25, 512

# equal polar angles of the Linf-range center value, a multiple of 4
_N_THETA = 32


def _trend(rep: Report, seq: list[float], stem: str, notes: list[str],
           expected_divergent: bool, ratio_floor: float,
           threshold_note: str) -> None:
    for i, v in enumerate(seq):
        rep.add(f"{stem}{i}", v, None,
                bool(np.isfinite(v)) and v >= 0.0, note=notes[i])
    d_prev = seq[-2] - seq[-3]
    d_last = seq[-1] - seq[-2]
    monotone = all(b > a for a, b in zip(seq, seq[1:]))
    if d_prev > 0.0:
        ratio = d_last / d_prev
    else:
        ratio = math.inf if d_last > 0.0 else 0.0
    divergent = monotone and ratio >= ratio_floor
    rep.add("monotone", 1.0 if monotone else 0.0, None,
            monotone or not expected_divergent,
            note="strict increase across levels")
    rep.add("increment_ratio", ratio, ratio_floor, True,
            note="last increment over previous; floor separates the "
                 "verdicts")
    ok = divergent == expected_divergent
    rep.add("trend_matches", 1.0 if ok else 0.0, None, ok,
            note=("expected "
                  + ("divergent" if expected_divergent else "bounded")
                  + "; " + threshold_note))
    if expected_divergent and not divergent:
        warnings.warn(
            "expected divergence plateaued; resolution or level count "
            "is insufficient", ResolutionWarning, stacklevel=3)


def _gauss_image_axes(sigma: float, t: np.ndarray, amp: np.ndarray,
                      rho: np.ndarray, x: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray]:
    """e^(-tH) applied to the unit-mass Gaussian of width sigma, in
    closed form, split into a rho factor, scaled by amp per node, and
    one x-axis factor.

    The x factor is the Mehler integral of a Gaussian, again Gaussian:
    amplitude (cosh 2t + sinh 2t / s^2)^(-1/2) and exponent
    -(coth 2t + s^2) / (2 (1 + s^2 coth 2t)) x^2; the algebra was
    reduced so that no large-coth cancellation occurs at small t.
    sigma = 1 reproduces e^(-t) times the stationary profile, which is
    the ground-mode eigenvalue check used in the tests.

    Both factors are GEMM operands, so every entry is an exact 0 or at
    least _TINY: the exponents go through _exp_floored, and the whole
    factor, prefactor and amp included, is floored after.
    """
    s2 = sigma * sigma
    tt = t[:, None]
    u = amp[:, None] * ((1.0 + 2.0 * tt / s2) ** -0.5 * _exp_floored(
        -rho[None, :] ** 2 / (2.0 * (s2 + 2.0 * tt))))
    ch, sh = np.cosh(2.0 * tt), np.sinh(2.0 * tt)
    coth = ch / sh
    v = (ch + sh / s2) ** -0.5 * _exp_floored(
        -x[None, :] ** 2 * (coth + s2) / (2.0 * (1.0 + s2 * coth)))
    for f in (u, v):
        f[f < _TINY] = 0.0
    return u, v


def _l1_image(sigma: float, alpha: float, t: np.ndarray, w: np.ndarray,
              box: UniformBox) -> np.ndarray:
    """H^(-alpha/2) f_sigma for the unit-mass width-sigma Gaussian,
    d = 1, in closed form under the time quadrature: one GEMM of the two
    image factors over the nodes.  The image is even in rho and in x, so
    it is built on the mirror-orbit representatives of box's axes only
    (UniformBox.mirror_orbits), shape (n_rho/2 + 1, n_x/2 + 1)."""
    gam = 0.5 * alpha
    amp = w * t ** (gam - 1.0) / math.gamma(gam) \
        * (2.0 * math.pi * sigma * sigma) ** -1.0
    reps = [ax[box.mirror_orbits(i)[0]] for i, ax in enumerate(box.axes())]
    u, v = _gauss_image_axes(sigma, t, amp, *reps)
    return u.T @ v


def _orbit_sizes(box: UniformBox, hole: float = math.inf) -> np.ndarray:
    """Per mirror orbit of box axis 0, the number of its points that lie
    in [-hole, hole): 1 or 2 each, and 1 for an orbit that the window's
    open end cuts in half."""
    _, orbit = box.mirror_orbits(0)
    ax = box.axes()[0]
    return np.bincount(orbit[(ax >= -hole) & (ax < hole)],
                       minlength=box.counts[0] // 2 + 1).astype(np.float64)


def _l1_cell_sum(sigma: float, alpha: float, q: float, t: np.ndarray,
                 w: np.ndarray, box: UniformBox, hole: float = 0.0
                 ) -> float:
    """Riemann cell sum of |H^(-alpha/2) f_sigma|^q over the square box,
    less the cells in the window [-hole, hole)^2.  Each pair of orbit
    representatives is weighted by the product of its orbit sizes, the
    window's share by the sizes of the orbits' parts inside it."""
    a = np.abs(_l1_image(sigma, alpha, t, w, box)) ** q
    m = _orbit_sizes(box)
    total = m @ a @ m
    if hole:
        m_w = _orbit_sizes(box, hole)
        total -= m_w @ a @ m_w
    return box.cell_volume * float(total)


def _l1_image_q_norm(sigma: float, alpha: float, q: float,
                     t: np.ndarray, w: np.ndarray) -> float:
    """|H^(-alpha/2) f_sigma|_q on the two-scale box: the core window
    is removed at the coarse spacing and re-added at the fine one."""
    out = UniformBox((_OUT_HALF, _OUT_HALF), (_OUT_N, _OUT_N))
    core = UniformBox((_CORE_HALF, _CORE_HALF), (_CORE_N, _CORE_N))
    total = _l1_cell_sum(sigma, alpha, q, t, w, out, _CORE_HALF) \
        + _l1_cell_sum(sigma, alpha, q, t, w, core)
    return total ** (1.0 / q)


def _radial_nodes(r_lo: float, r_hi: float):
    n_pan = max(2, int(np.ceil(np.log2(r_hi / r_lo))))
    edges = r_lo * (r_hi / r_lo) ** (np.arange(n_pan + 1) / n_pan)
    return _gl_panels(edges, 10)


def _center_value(fr, delta: float, alpha: float) -> float:
    """int_{delta <= |z| <= 1/2} K_{alpha/2}(0, z) fr(|z|) dz, d = 1.

    The angular rule has _N_THETA equal nodes 2 pi k / _N_THETA.  The
    kernel at the center depends on rho^2 and x^2 only, so the nodes
    fall into orbits of theta -> -theta and theta -> pi - theta: one
    node per orbit, k = 0 .. _N_THETA/4, weighted by its size, 2 at
    theta = 0 and pi/2 and 4 between."""
    r, wr = _radial_nodes(delta, 0.5)
    th = 2.0 * np.pi * np.arange(_N_THETA // 4 + 1) / _N_THETA
    size = np.full(th.size, 4.0)
    size[[0, -1]] = 2.0
    zp = np.empty((r.size, th.size, 2))
    zp[:, :, 0] = r[:, None] * np.cos(th)[None, :]
    zp[:, :, 1] = r[:, None] * np.sin(th)[None, :]
    ker = k_alpha(np.zeros(2), zp, 0.5 * alpha)
    ang = (ker @ size) * (2.0 * np.pi / _N_THETA)
    return float(np.sum(wr * r * fr(r) * ang))


def _profile_lp(alpha: float, kappa: float, p: float) -> float:
    """|f|_p of the borderline profile, polar quadrature from 1e-6 with
    the closed-form inner remainder added when alpha p = d + 1 (the
    integral converges too slowly there to truncate honestly)."""
    r, wr = _radial_nodes(1e-6, 0.5)
    vals = (r ** -alpha * np.log(1.0 / r) ** -kappa) ** p
    total = 2.0 * np.pi * float(np.sum(wr * r * vals))
    if kappa * p > 1.0 and abs(alpha * p - 2.0) < 1e-12:
        total += 2.0 * np.pi \
            * np.log(1e6) ** (1.0 - kappa * p) / (kappa * p - 1.0)
    return total ** (1.0 / p)


def hls_endpoint_demo(which: str, alpha: float, d: int, exponent: float,
                      levels: int = 7, control: bool = False) -> Report:
    """Sharp-exponent dichotomy demos at the ends of the HLS range.

    which = "L1-range": f_n are unit-mass Gaussians of width 2^-n and
    the reported sequence is |H^(-alpha/2) f_n|_q with q = exponent,
    evaluated in closed form (the heat flow of a Gaussian is Gaussian)
    on a two-scale box, so no spectral grid enters.  Below
    q* = (d+1)/(d+1-alpha) the sequence stabilizes; at or above q* its
    increments keep growing.

    which = "Linf-range": the borderline profile
    |z|^(-alpha) (log 1/|z|)^(-(alpha/(d+1))(1+eps)) 1_{|z| <= 1/2}
    lies in L^p for p = exponent <= p* = (d+1)/alpha, yet the value
    H^(-alpha/2)f(0), integrated in polar coordinates down to
    shrinking inner cutoffs 2^-m, grows without stabilizing.  For
    exponent > p* the demo verifies the bounded direction instead:
    sup |H^(-alpha/2) f|_inf / |f|_p over a Gaussian family.

    control = True swaps in a smooth non-concentrating input, which
    must stabilize.  Implemented for d = 1; higher d would need the
    sphere quadratures this package does not carry.
    """
    if which not in ("L1-range", "Linf-range"):
        raise InvalidParameterError("which must be L1-range or Linf-range")
    if d != 1:
        raise InvalidParameterError("endpoint demos are implemented "
                                    "for d = 1")
    if not 0.0 < alpha < d + 1.0:
        raise InvalidParameterError("alpha must lie in (0, d+1)")
    if exponent < 1.0:
        raise InvalidParameterError("exponent must be >= 1")
    if not 3 <= levels <= 8:
        raise InvalidParameterError("levels must lie in [3, 8]")
    rep = Report(suite="hls",
                 params={"which": which, "alpha": alpha, "d": d,
                         "exponent": exponent, "levels": levels,
                         "control": control})

    if which == "L1-range":
        q = float(exponent)
        q_star = (d + 1.0) / (d + 1.0 - alpha)
        t, w = t_quadrature(0.5 * alpha, d).nodes()
        if control:
            # the same input at every level: one norm, repeated
            sigs = [1.0] * levels
            norms = [_l1_image_q_norm(1.0, alpha, q, t, w)] * levels
        else:
            sigs = [2.0 ** -n for n in range(levels)]
            norms = [_l1_image_q_norm(s, alpha, q, t, w) for s in sigs]
        expected_divergent = (not control) and q >= q_star - 1e-12
        notes = [f"sigma = {s:g}, q = {q:g}" for s in sigs]
        _trend(rep, norms, "norm_level_", notes, expected_divergent,
               _L1_RATIO_FLOOR, f"q* = {q_star:.6g}")
        return rep

    p = float(exponent)
    p_star = (d + 1.0) / alpha
    if p > p_star + 1e-12:
        # bounded direction: p beyond the threshold
        g = _default_grid(d)
        fam = TestFamily("gaussian", 8, seed=11)

        def ratio(f: Field) -> float:
            img = spectral_frac_power(f, -0.5 * alpha)
            return lp_norm(img, np.inf) / lp_norm(f, p)

        sup_b = max(ratio(f) for f in fam.members(g))
        sup_a = max([sup_b] + [ratio(f) for f in fam.extras(g)])
        rep.add("bounded_sup", sup_a, None, bool(np.isfinite(sup_a)),
                note=f"sup |H^(-a/2)f|_inf / |f|_p, p > p* = {p_star:g}")
        growth = rep.add_growth("family_growth", sup_b, sup_a,
                                "sup change, family x4")
        rep.add("trend_matches", 1.0, None, growth.passed,
                note="expected bounded; p beyond the L^inf threshold")
        return rep

    kappa = (alpha / (d + 1.0)) * (1.0 + _PROFILE_EPS)
    if control:
        def fr(r):
            return np.exp(-2.0 * r * r)
    else:
        def fr(r):
            return r ** -alpha * np.log(1.0 / r) ** -kappa
        rep.add("profile_lp_norm", _profile_lp(alpha, kappa, p), None,
                True, note=f"witness membership |f|_p, p = {p:g} <= "
                           f"p* = {p_star:g}, eps = {_PROFILE_EPS:g}")
    deltas = [2.0 ** -(m + 2) for m in range(levels)]
    vals = [_center_value(fr, dl, alpha) for dl in deltas]
    notes = [f"inner cutoff {dl:g}" for dl in deltas]
    _trend(rep, vals, "value_level_", notes, not control,
           _LINF_RATIO_FLOOR, f"p* = {p_star:.6g}")
    return rep
