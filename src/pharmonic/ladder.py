"""Ladder operators, Riesz transforms, and their exact identities.

The first-order factors of H are A_0 = -d/drho, the raising operators
A_j = -d/dx_j + x_j for 1 <= j <= d, and the lowering operators
A_{-j} = d/dx_j + x_j.  On the eigenbasis they act by

    A_0:   c[n, mu] -> -i tau_n c[n, mu]
    A_j:   contributes sqrt(2 mu_j) c[n, mu - e_j] at mu
    A_{-j}: contributes sqrt(2 (mu_j + 1)) c[n, mu + e_j] at mu

so every operator in this module is coefficientwise-exact; residual
checks test identities, not discretization, and take coefficients.
Raising pushes the top
degree shell past the cutoff; that energy is dropped, loudly if it
matters (see apply_A).

The commutation shifts come from the eigenvalue bookkeeping: raising
adds 2 to lambda, so A_j F(H) = F(H - 2) A_j and A_{-j} F(H) =
F(H + 2) A_{-j}; A_0 commutes with the calculus outright.
"""
from __future__ import annotations

from dataclasses import replace
from typing import Iterator

import numpy as np

from .errors import (
    InvalidParameterError,
    SingularMultiplierError,
    TruncationError,
)
from .grid import Field, Grid
from .report import Report
from .spectral import (
    SpectralCoeffs,
    _from_cube,
    _power,
    _series_norm,
    _to_cube,
    apply_multiplier,
    forward,
    inverse,
    plancherel_norm,
)

__all__ = [
    "apply_A",
    "riesz",
    "grad_H",
    "commute_check",
    "duality_check",
    "inverse_riesz_check",
    "commute_matrix_report",
]

# input energy allowed on the top shell before raising is meaningless
_RAISE_TAIL_TOL = 1e-8


def _check_top_shell(g: Grid, energy: np.ndarray) -> None:
    """Raise TruncationError when the top degree shell |mu| = K, which
    raising drops, carries more than _RAISE_TAIL_TOL of the energy;
    energy is |c|^2 in the (N_rho, n_mu) layout."""
    total = float(np.sum(energy))
    top = float(np.sum(energy[:, g.mu_abs == g.K]))
    if total > 0 and top > _RAISE_TAIL_TOL * total:
        raise TruncationError(
            f"top degree shell carries {top / total:.3e} of the energy; "
            "raising would drop it (refine K)")


def apply_A(j: int, coeffs: SpectralCoeffs) -> SpectralCoeffs:
    """Apply the ladder operator with index j in {-d, ..., d} to coefficients.

    Raising (j > 0) shifts degrees up, so coefficients on the top shell
    |mu| = K would leave the representation; they are dropped, and if
    they carry more than 1e-8 of the total energy the call raises
    TruncationError instead of silently biasing norms.
    """
    g = coeffs.grid
    if abs(j) > g.d:
        raise InvalidParameterError(f"ladder index {j} outside |j| <= {g.d}")
    if j == 0:
        return SpectralCoeffs(g, (-1j * g.tau)[:, None] * coeffs.data)
    if j > 0:
        _check_top_shell(g, np.abs(coeffs.data) ** 2)
    cube = _to_cube(g, coeffs.data)
    axis = abs(j)                       # cube axis for x_j is axis j
    low = [slice(None)] * cube.ndim
    high = [slice(None)] * cube.ndim
    low[axis] = slice(0, g.K)
    high[axis] = slice(1, g.K + 1)
    # raising moves degree k-1 to k, lowering k to k-1; both scale by sqrt(2k)
    src, dst = (low, high) if j > 0 else (high, low)
    shape = [1] * cube.ndim
    shape[axis] = g.K
    out = np.zeros_like(cube)
    out[tuple(dst)] = (np.sqrt(2.0 * np.arange(1, g.K + 1)).reshape(shape)
                       * cube[tuple(src)])
    return SpectralCoeffs(g, _from_cube(g, out))


def riesz(j: int, field: Field) -> Field:
    """Riesz transform R_j f = A_j H^(-1/2) f."""
    return inverse(apply_A(j, _power(forward(field), -0.5)))


def _grad_coeffs(coeffs: SpectralCoeffs) -> Iterator[SpectralCoeffs]:
    """The 2d+1 ladder images of coeffs one at a time, in the order of
    grad_H: A_0, A_1..A_d, A_{-1}..A_{-d}.  A caller that inverts and
    reduces them holds one field-sized array, not 2d+1."""
    d = coeffs.grid.d
    for j in [0] + list(range(1, d + 1)) + list(range(-1, -d - 1, -1)):
        yield apply_A(j, coeffs)


def grad_H(field: Field) -> list[Field]:
    """The 2d+1 first-order components (A_0 f, A_1..A_d f, A_{-1}..A_{-d} f)."""
    return [inverse(c) for c in _grad_coeffs(forward(field))]


def _grad_norms(coeffs: SpectralCoeffs, p: float) -> list[float]:
    """The 2d+1 norms |A_j f|_p of f = inverse(coeffs), in grad_H's order.

    At p = 2 each is read off the coefficient moduli, with no ladder
    image built: A_j moves each mode to one mode, so with e = |c|^2
    summed over tau_n and mu,

        |A_0 f|_2^2    = 2 L sum tau^2 e,
        |A_j f|_2^2    = 2 L sum 2 (mu_j + 1) e over |mu| < K (raising
                         drops the top shell, with apply_A's
                         TruncationError when it carries energy),
        |A_{-j} f|_2^2 = 2 L sum 2 mu_j e,

    plancherel_norm(apply_A(j, coeffs)) to rounding.  That is the grid
    L^2 norm of the image to rounding, not an approximation of it: the
    image has Hermite degree <= K, the Gauss-Hermite rule with
    M >= K + 1 nodes is exact on every h_k h_l with k, l <= K, and the
    N-point trapezoid sum in rho is exact on products of two
    frequencies in [-N/2, N/2).  Other p evaluate each component on
    the grid, one at a time: the 2d+1 components of a d = 3 member are
    ~118 MB when held together, and freeing that much at once lets the
    allocator return it to the OS, to be faulted back in for the next
    member.
    """
    if p != 2.0:
        return [_series_norm(a, p) for a in _grad_coeffs(coeffs)]
    g = coeffs.grid
    e = np.abs(coeffs.data) ** 2
    _check_top_shell(g, e)
    per_mode = e.sum(axis=0)
    mu = g.mu.T.astype(np.float64)                  # (d, n_mu)
    sq = np.concatenate([[g.tau ** 2 @ e.sum(axis=1)],
                         (2.0 * (mu + 1.0) * (g.mu_abs < g.K)) @ per_mode,
                         2.0 * mu @ per_mode])
    return np.sqrt(2.0 * g.L_rho * sq).tolist()


def _rel_residual(a: SpectralCoeffs, b: SpectralCoeffs) -> float:
    """Relative L^2 distance of the two series, by Plancherel."""
    den = max(np.linalg.norm(a.data), np.linalg.norm(b.data))
    return float(np.linalg.norm(a.data - b.data) / den) if den else 0.0


def _power_on_support(coeffs: SpectralCoeffs, alpha: float,
                      shift: float) -> SpectralCoeffs:
    """(H + shift)^alpha restricted to the modes the input lives on.

    After a raising operator the bottom modes hold structural zeros, so
    a shifted power that is singular there is still well defined on the
    image.  Modes where the power is undefined must carry (numerically)
    no energy; the multiplier is zeroed there.
    """
    base = coeffs.grid.eigenvalues(shift)
    bad = base <= 0 if alpha < 0 else (base < 0) & (alpha != int(alpha))
    total = float(np.sum(np.abs(coeffs.data) ** 2))
    stray = float(np.sum(np.abs(coeffs.data[bad]) ** 2))
    if total > 0 and stray > 1e-26 * total:
        raise SingularMultiplierError(
            f"(lambda + {shift})^{alpha} undefined on modes carrying "
            f"{stray / total:.3e} of the energy")
    m = np.zeros_like(base)
    m[~bad] = np.power(base[~bad], alpha)
    return apply_multiplier(coeffs, m)


def commute_check(j: int, alpha: float, coeffs: SpectralCoeffs,
                  tol: float = 1e-10) -> Report:
    """Residuals of the commutation identities for the index j.

    j = 0 checks that A_0 commutes with H^alpha.  j > 0 checks
    A_j H^alpha = (H-2)^alpha A_j and H^alpha A_j = A_j (H+2)^alpha;
    j < 0 the mirrored pair.  The identities that apply (H-2)^alpha
    before lowering touch the bottom of the spectrum, so they need
    d >= 3 for fractional alpha (lambda - 2 >= d - 2 must stay
    positive); the singular-multiplier error propagates otherwise.
    """
    rep = Report(suite="commute",
                 params={"j": j, "alpha": alpha, "d": coeffs.grid.d})

    def power(cc, shift=0.0):
        return _power_on_support(cc, alpha, shift)

    if j == 0:
        r = _rel_residual(apply_A(0, power(coeffs)),
                          power(apply_A(0, coeffs)))
        rep.add("A0_commutes", r, tol, r < tol, "spectral route, exact identity")
        return rep
    # A_j H^a f = (H-s)^a A_j f ; H^a A_j f = A_j (H+s)^a f, where
    # raising (j > 0) shifts by s = 2 and lowering by s = -2
    s = 2.0 if j > 0 else -2.0
    tag = "raise" if j > 0 else "lower"
    cj = apply_A(j, coeffs)
    for name, lhs, rhs in (
            ("pre_shift", apply_A(j, power(coeffs)), power(cj, shift=-s)),
            ("post_shift", power(cj), apply_A(j, power(coeffs, shift=s)))):
        r = _rel_residual(lhs, rhs)
        rep.add(f"{tag}_{name}", r, tol, r < tol,
                "spectral route, exact identity")
    return rep


# the (alpha, j) matrix of commute_matrix_report
_COMMUTE_ALPHAS = (-1.0, -0.5, 0.5)
_COMMUTE_JS = (0, 1, -1)


def commute_matrix_report(coeffs: SpectralCoeffs,
                          tol: float = 1e-10) -> Report:
    """All commutation residuals over the (j, alpha) matrix of
    _COMMUTE_JS and _COMMUTE_ALPHAS, one report."""
    rep = Report(suite="commute",
                 params={"alphas": list(_COMMUTE_ALPHAS),
                         "js": list(_COMMUTE_JS), "d": coeffs.grid.d})
    for a in _COMMUTE_ALPHAS:
        for j in _COMMUTE_JS:
            sub = commute_check(j, a, coeffs, tol=tol)
            rep.metrics.extend(replace(m, name=f"{m.name}[j={j},alpha={a}]")
                               for m in sub.metrics)
    return rep


def duality_check(coeffs: SpectralCoeffs) -> Report:
    """Compare I = <f, f> with S = sum_j <R_j f, R_j f>.

    Both are read off the coefficient moduli by Plancherel, S from the
    ladder images of H^(-1/2) f.  Mode-wise S/I is (tau^2 + 4|mu| +
    2d)/(tau^2 + 2|mu| + d), which lies in [1, 2], so the two-sided
    bound I <= S <= 2I is asserted.  A constant-2 identity, which the
    factor only attains at the bottom mode, cannot hold; the report
    carries that observation.
    """
    I = plancherel_norm(coeffs) ** 2
    S = sum(n ** 2 for n in _grad_norms(_power(coeffs, -0.5), 2.0))
    rep = Report(suite="duality", params={"d": coeffs.grid.d})
    rep.add("I", I, None, True, "inner product")
    rep.add("S", S, None, True, "sum over 2d+1 Riesz components")
    if I > 0:
        ok = (I <= S * (1 + 1e-12)) and (S <= 2 * I * (1 + 1e-12))
        rep.add("sandwich_I_le_S_le_2I", S / I, 2.0, ok,
                "two-sided bound; an exact constant-2 identity is "
                "attained only at the bottom mode")
    return rep


def inverse_riesz_check(coeffs: SpectralCoeffs, p: float) -> Report:
    """Check ||H^(1/2) f||_p against sum_j ||A_j f||_p.

    For p = 2 the mode-wise bound lambda <= tau^2 + 4|mu| + 2d makes
    ||H^(1/2) f||_2^2 <= sum_j ||A_j f||_2^2 sharp; the report carries
    the empirical ratio for any p.
    """
    if p < 1:
        raise InvalidParameterError("p must be >= 1")
    lhs = _series_norm(_power(coeffs, 0.5), p)
    norms = _grad_norms(coeffs, p)
    rhs = sum(norms)
    rep = Report(suite="inverse_riesz",
                 params={"p": p, "d": coeffs.grid.d})
    rep.add("lhs_half_power_norm", lhs, None, True, "spectral H^(1/2)")
    rep.add("rhs_ladder_sum", rhs, None, True, "2d+1 ladder components")
    ratio = lhs / rhs if rhs > 0 else 0.0
    if p == 2:
        # sharp constant 1 at p=2, mode-wise inequality
        sq_rhs = np.sqrt(sum(n ** 2 for n in norms))
        ok = lhs <= sq_rhs * (1 + 1e-12)
        rep.add("p2_sharp_ratio", lhs / sq_rhs if sq_rhs else 0.0, 1.0, ok,
                "l2 aggregation: lambda <= tau^2 + 4|mu| + 2d mode-wise")
    rep.add("empirical_ratio", ratio, None, True, "lhs / sum of norms")
    return rep
