"""Package acceptance: twelve end-to-end criteria, one verdict line each.

Every criterion prints CRITERION n: PASS/FAIL with the measured
numbers (and is one pytest item, so -v also shows one line per
criterion).  Two slices are strict xfails whose docstrings and reasons
carry the analysis: the Mehler r=0.9 relative-error slice (float64
truncation floor) and the strict-inclusion growth on the norm scale
(log-growth arithmetic).  They are implemented faithfully and left
red; the passing criteria cover the attainable readings.  A third
xfail slice covers the kernel-envelope ratio at the critical order
2 alpha = d+1, where the pinned envelope vanishes at unit separation.
"""
import time

import numpy as np
import pytest

from pharmonic import (
    SpectralCoeffs,
    TestFamily,
    apply_multiplier,
    forward,
    inverse,
    lp_norm,
    make_grid,
    mode_field,
    power_multiplier,
    sample,
)
from pharmonic.cli import _parser, build_config, run_suite
from pharmonic.grid import UniformBox, resample
from pharmonic.heat_kernel import (kernel_bound_report, sample_pairs,
                                   schur_weighted_report)
from pharmonic.hermite import mehler_closed_form, mehler_partial_sum
from pharmonic.inequalities import (gns_check, hardy_check, hls_check,
                                    hls_endpoint_demo, shifted_hls_check)
from pharmonic.ladder import (_power_on_support, apply_A,
                              commute_matrix_report, duality_check, grad_H,
                              riesz)
from pharmonic.sobolev import potential_norm, strict_inclusion_demo
from pharmonic.spectral import spectral_frac_power
from pharmonic.symbols import (SampleDomain, gm_bound_estimate, quantize,
                               riesz_symbol_fn, sigma_symbol_fn)


def verdict(n, ok, detail):
    print(f"CRITERION {n:2d}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {n}: {detail}"


def suite_report(name, *extra):
    cfg = build_config(_parser().parse_args(["--suite", name, *extra]))
    return run_suite(cfg)


def metric(rep, name):
    return next(m for m in rep.metrics if m.name == name)


def band_limited(g, seed, margin=2):
    """Random coefficients vanishing on the top shells and Nyquist ring."""
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((g.N_rho, g.n_mu)) \
        + 1j * rng.standard_normal((g.N_rho, g.n_mu))
    data[:, g.mu_abs > g.K - margin] = 0.0
    n = np.abs(np.fft.fftfreq(g.N_rho, d=1.0 / g.N_rho))
    data[n >= g.N_rho // 2 - margin, :] = 0.0
    return inverse(SpectralCoeffs(g, data))


@pytest.fixture(scope="module")
def semigroup_suite():
    t0 = time.perf_counter()
    rep = suite_report("semigroup")
    return rep, time.perf_counter() - t0


# -- 1: Mehler identity on the 5x5 grid -------------------------------------

def test_criterion_01_mehler_identity():
    t0 = time.perf_counter()
    pts = np.linspace(-2.0, 2.0, 5)
    X, XP = np.meshgrid(pts, pts, indexing="ij")
    worst = 0.0
    for r in (0.3, 0.5):
        closed = mehler_closed_form(r, X[..., None], XP[..., None], 1)
        part = mehler_partial_sum(60, r, X[..., None], XP[..., None], 1)
        worst = max(worst, float(np.max(np.abs(part - closed)
                                        / np.abs(closed))))
    elapsed = time.perf_counter() - t0
    verdict(1, worst < 1e-10 and elapsed < 1.0,
            f"r<=0.5 rel err {worst:.2e} < 1e-10, {elapsed:.2f}s; "
            f"r=0.9 slice is a strict xfail")


R09_ANALYSIS = """The r=0.9, K_sum=60 slice cannot meet 1e-6 relative:
at (x,x') = (-2,2) the closed form is ~1.3e-33 while the truncated sum
is ~-1.75e-5 in exact arithmetic (the alternating tail terms only fall
below the kernel value near k ~ 650), a relative error of ~1e+28 that
no float64 summation order can repair.  The identity is correct; the
truncation depth is what fails.  Kept red rather than loosened."""


@pytest.mark.xfail(strict=True, reason=R09_ANALYSIS)
def test_criterion_01_r09_slice():
    pts = np.linspace(-2.0, 2.0, 5)
    X, XP = np.meshgrid(pts, pts, indexing="ij")
    closed = mehler_closed_form(0.9, X[..., None], XP[..., None], 1)
    part = mehler_partial_sum(60, 0.9, X[..., None], XP[..., None], 1)
    rel = float(np.max(np.abs(part - closed) / np.abs(closed)))
    print(f"CRITERION  1 (r=0.9 slice): FAIL expected, rel err {rel:.2e}")
    assert rel < 1e-6


# -- 2, 3: two-route semigroup agreement and the closed-form flow -----------

def test_criterion_02_two_route_semigroup(semigroup_suite):
    rep, elapsed = semigroup_suite
    rels = [metric(rep, f"two_route_rel_t{t:g}").value
            for t in (0.1, 0.5, 2.0)]
    ok = max(rels) < 1e-6 and elapsed < 30.0
    verdict(2, ok, f"max rel {max(rels):.2e} < 1e-6, {elapsed:.1f}s")


def test_criterion_03_closed_form_flow(semigroup_suite):
    rep, _ = semigroup_suite
    errs = [metric(rep, f"closed_form_max_err_t{t:g}").value
            for t in (0.1, 0.5, 2.0)]
    verdict(3, max(errs) < 1e-8, f"max grid err {max(errs):.2e} < 1e-8")


# -- 4: power calculus -------------------------------------------------------

def test_criterion_04_power_calculus():
    t0 = time.perf_counter()
    rep = suite_report("powers")
    elapsed = time.perf_counter() - t0
    law = metric(rep, "semigroup_law_rel").value
    comp = metric(rep, "power_composition_rel").value
    kern = max(metric(rep, "kernel_vs_spectral_alpha0.5").value,
               metric(rep, "kernel_vs_spectral_alpha-0.5").value)
    ok = law < 1e-12 and comp < 1e-12 and kern < 1e-4 and elapsed < 60.0
    verdict(4, ok, f"law {law:.2e}, composition {comp:.2e} < 1e-12; "
                   f"kernel route {kern:.2e} < 1e-4; {elapsed:.1f}s")


# -- 5: commutation identities and the single-mode oracle -------------------

def test_criterion_05_commutation():
    g = make_grid(d=3, N_rho=8, L_rho=4.0, K=6, M=8)
    rep = commute_matrix_report(band_limited(g, 7))
    worst = max(m.value for m in rep.metrics)

    g0 = make_grid(d=3, N_rho=8, L_rho=4.0, K=3, M=5)
    c = forward(mode_field(g0, 0, (0, 0, 0)))
    r1 = apply_A(1, apply_multiplier(c, power_multiplier(g0, -0.5))).data
    r2 = _power_on_support(apply_A(1, c), -0.5, -2.0).data
    i = g0.mode_index((1, 0, 0))
    want = np.sqrt(2.0) / np.sqrt(3.0)
    oracle = max(abs(r1[0, i] - want), abs(r2[0, i] - want)) / want
    ok = rep.all_passed and worst < 1e-10 and oracle < 1e-12
    verdict(5, ok, f"{len(rep.metrics)} residuals, worst {worst:.2e} "
                   f"< 1e-10; mode oracle rel {oracle:.1e}")


# -- 6: kernel two-sided bounds ----------------------------------------------

def _bound_levels():
    return [sample_pairs(1, 40 * 2 ** i, seed=10 + i) for i in range(3)]


def test_criterion_06_kernel_bounds():
    t0 = time.perf_counter()
    bad = []
    lows = []
    for alpha in (0.5, 1.0, 1.5):
        levels = _bound_levels()
        full = kernel_bound_report(alpha, 1, levels)
        low = metric(full, "lower_bound_constant").value
        lows.append(low)
        if not low > 0:
            bad.append(f"alpha={alpha}: lower bound {low:.2e}")
        if alpha == 1.0:
            continue  # sup stability at the critical order: xfail slice
        first = kernel_bound_report(alpha, 1, levels[:2])
        growths = (metric(first, "refinement_growth").value,
                   metric(full, "refinement_growth").value)
        sup = metric(full, "sup_kernel_over_psi").value
        if not (np.isfinite(sup) and max(growths) < 1.5
                and full.all_passed):
            bad.append(f"alpha={alpha}: sup {sup:.3g}, growths "
                       f"{growths[0]:.3f}/{growths[1]:.3f}")
    elapsed = time.perf_counter() - t0
    verdict(6, not bad and elapsed < 300.0,
            "; ".join(bad) or f"alpha 0.5/1.5 sups stable < 1.5; lower "
                              f"bound positive at all three alphas (min "
                              f"{min(lows):.2e}); critical-order sup "
                              f"slice is a strict xfail; {elapsed:.0f}s")


CRITICAL_ORDER_ANALYSIS = """At the critical order 2 alpha = d+1 the
envelope's near branch |log s| vanishes as s -> 1- while the kernel at
unit separation is strictly positive, so K/Psi grows like K(1)/(1-s)
toward the region boundary (measured 9.9 at s = 0.99, 33 at s = 0.997)
and the sampled sup tracks whichever draw lands closest to s = 1:
refinement cannot stabilize it over the pinned separation range
[0.05, 5].  The s -> 0 side is healthy (K and |log s| share the same
log growth).  alpha = 0.5 and 1.5 have envelopes bounded away from
zero on the near region and pass; this slice stays red."""


@pytest.mark.xfail(strict=True, reason=CRITICAL_ORDER_ANALYSIS)
def test_criterion_06_critical_order_slice():
    levels = _bound_levels()
    first = kernel_bound_report(1.0, 1, levels[:2])
    full = kernel_bound_report(1.0, 1, levels)
    growths = (metric(first, "refinement_growth").value,
               metric(full, "refinement_growth").value)
    print(f"CRITERION  6 (critical-order slice): FAIL expected, "
          f"refinement growths {growths[0]:.3f}/{growths[1]:.3f}")
    assert max(growths) < 1.5


# -- 7: weighted Schur rows and columns --------------------------------------

def test_criterion_07_weighted_schur():
    rep = schur_weighted_report(0.5, 1)
    row = metric(rep, "row_sup").value
    col = metric(rep, "column_sup").value
    verdict(7, rep.all_passed, f"row sup {row:.3g}, column sup {col:.3g}, "
                               f"both finite and refinement-stable")


# -- 8: duality sandwich on random fields ------------------------------------

def test_criterion_08_duality_sandwich():
    checked = 0
    flagged = False
    worst = 0.0
    for d, g in ((1, make_grid(1, 32, 8.0, 8, 12)),
                 (3, make_grid(3, 8, 4.0, 6, 8))):
        for seed in range(10):
            f = band_limited(g, 100 * d + seed)
            rep = duality_check(f)
            m = metric(rep, "sandwich_I_le_S_le_2I")
            assert m.passed, f"d={d} seed={seed}: ratio {m.value}"
            worst = max(worst, m.value)
            flagged = flagged or "bottom mode" in m.note
            checked += 1
    ok = checked == 20 and worst <= 2.0 + 1e-12 and flagged
    verdict(8, ok, f"20 fields, max S/I {worst:.6f} in [1,2]; constant-2 "
                   f"display discrepancy flagged in the report note")


# -- 9: symbol class membership and quantization cross-checks ----------------

def test_criterion_09_symbols():
    dom = SampleDomain(d=1, cap=64.0, per_shell=2, seed=0)
    sig = gm_bound_estimate(sigma_symbol_fn(-0.5, 1), dom, r=2)
    riesz_ok = all(
        gm_bound_estimate(riesz_symbol_fn(j, 1), dom, r=0).all_passed
        for j in (0, 1))

    g = make_grid(1, 64, 10.0, 24, 32)
    f = sample(g, lambda r, x: np.pi ** -0.25
               * np.exp(-0.5 * (r ** 2 + x ** 2)))
    box = UniformBox((8.0, 8.0), (48, 48))
    fbox = resample(f, box)

    def rel(a, b):
        return float(np.linalg.norm(a - b) / np.linalg.norm(b))

    q_sig = rel(quantize(sigma_symbol_fn(-0.5, 1), fbox, box),
                resample(spectral_frac_power(f, -0.5), box))
    q_rsz = rel(quantize(riesz_symbol_fn(0, 1), fbox, box),
                resample(riesz(0, f), box))
    ok = sig.all_passed and riesz_ok and q_sig < 1e-3 and q_rsz < 1e-3
    verdict(9, ok, f"order -1 membership stable to cap 128 with r<=2 "
                   f"derivatives; Riesz symbols S^0-bounded; quantization "
                   f"vs spectral {q_sig:.1e}, vs ladder {q_rsz:.1e} < 1e-3")


# -- 10: Sobolev norm equivalence --------------------------------------------

def test_criterion_10_sobolev_equivalence():
    rep = suite_report("sobolev-equivalence")
    growths = {name: metric(rep, f"{name}_bracket_growth").value
               for name in ("k1p2", "k2p2", "k1p4")}
    stable = rep.all_passed and max(growths.values()) < 2.0

    g = make_grid(1, 32, 8.0, 8, 12)
    lam = g.eigenvalues()
    mid = lam + (2.0 * g.mu_abs[None, :] + g.d)
    coeffwise = bool(np.all(lam <= mid) and np.all(mid <= 2.0 * lam))
    sandwich = True
    for seed in range(10):
        f = band_limited(g, 300 + seed)
        pn2 = potential_norm(f, 1.0, 2.0) ** 2
        s = sum(lp_norm(c, 2.0) ** 2 for c in grad_H(f))
        sandwich &= pn2 <= s * (1 + 1e-12) and s <= 2 * pn2 * (1 + 1e-12)
    verdict(10, stable and coeffwise and sandwich,
            f"bracket growths {', '.join(f'{k} {v:.3f}' for k, v in growths.items())} "
            f"< 2; p=2 sandwich exact mode-wise and on 10 fields")


# -- 11: strict inclusions ----------------------------------------------------

def test_criterion_11_strict_inclusions():
    bad = []
    details = []
    for which in ("f1", "f2"):
        rep = strict_inclusion_demo(which, 0.5, 2.0)
        vals = {m.name: m.value for m in rep.metrics}
        if not (rep.all_passed and vals["monotone"] == 1.0
                and vals["mass_growth"] > 2.0):
            bad.append(f"{which}: growth {vals['mass_growth']:.3f}")
        details.append(f"{which} mass x{vals['mass_growth']:.2f}")
        ctl = strict_inclusion_demo(which, 0.5, 2.0, control=True)
        cv = {m.name: m.value for m in ctl.metrics}
        last_two = cv["weighted_norm_R32"] / cv["weighted_norm_R16"]
        if not (ctl.all_passed and abs(last_two - 1.0) < 0.01):
            bad.append(f"{which} control R16->R32 {last_two:.4f}")
    verdict(11, not bad,
            "; ".join(bad) or f"{details[0]}, {details[1]} monotone > 2; "
                              f"Gaussian controls flat to < 1% on the "
                              f"last two radii; norm-scale slice xfail")


NORM_SCALE_ANALYSIS = """Both witnesses carry p-th-power mass
a + c log R over |z| <= R, so at p = 2 the norm-scale ratio across
{4, 8, 16, 32} is the square root of the mass-scale ratio: measured
mass growth 3.79 (f1) and 3.07 (f2) gives norm growth 1.95 and 1.75,
under 2 at the pinned radii for every admissible box, while larger
radii would clear it (the growth is genuinely unbounded).  The
criterion holds on the mass scale, asserted by the passing test;
this literal norm-scale slice stays red by log arithmetic."""


@pytest.mark.xfail(strict=True, reason=NORM_SCALE_ANALYSIS)
def test_criterion_11_norm_scale_slice():
    growths = []
    for which in ("f1", "f2"):
        rep = strict_inclusion_demo(which, 0.5, 2.0)
        growths.append({m.name: m.value
                        for m in rep.metrics}["norm_growth"])
    print(f"CRITERION 11 (norm-scale slice): FAIL expected, norm growth "
          f"f1 {growths[0]:.3f}, f2 {growths[1]:.3f}")
    assert min(growths) > 2.0


# -- 12: integral inequalities and the endpoint dichotomy ---------------------

def test_criterion_12_inequalities():
    t0 = time.perf_counter()
    fam = TestFamily("band_limited", 10, seed=2)
    reports = {
        "hls": hls_check(0.5, 2.0, 4.0, 1, fam),
        "shifted+2": shifted_hls_check(0.5, 2.0, 4.0, 1, 2.0, fam),
        "shifted-2 d3": shifted_hls_check(0.5, 2.0, 8.0 / 3.0, 3, -2.0,
                                          fam),
        "gns d3": gns_check(2.0, 2.5, 3, fam),
        "hardy": hardy_check(0.75, 2.0, 1, fam),
    }
    bad = [k for k, r in reports.items() if not r.all_passed]

    below = hls_endpoint_demo("L1-range", 0.5, 1, 1.2)
    at_q = hls_endpoint_demo("L1-range", 0.5, 1, 4.0 / 3.0)
    above = hls_endpoint_demo("L1-range", 0.5, 1, 1.5)
    if not metric(below, "trend_matches").passed:
        bad.append("q=1.2 not bounded")
    for tag, rep in (("q=q*", at_q), ("q=1.5", above)):
        if not (metric(rep, "trend_matches").passed
                and metric(rep, "monotone").value == 1.0):
            bad.append(f"{tag} not monotone-divergent")
    elapsed = time.perf_counter() - t0
    verdict(12, not bad and elapsed < 900.0,
            "; ".join(bad) or f"five checks refinement-stable; dichotomy "
                              f"at q*=4/3 reproduced; {elapsed:.0f}s")
