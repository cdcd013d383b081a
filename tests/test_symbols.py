"""Phase-space symbols, membership estimation, and quantization.

Frozen reference values were computed with mpmath at 40 digits by direct
quadrature of the time integrals.  The Riesz reference at x=0, xi=e1,
tau=0 uses the simplification 1 - 2 sech(2t) sinh(t)^2 = sech(2t), so
the integrand collapses to (cosh 2t)^(-3/2) e^(-tanh(2t)/2).
"""
import math
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pharmonic import (
    AliasingWarning,
    InvalidParameterError,
    SampleDomain,
    UniformBox,
    b_symbol,
    constant_symbol_fn,
    frequency_symbol_fn,
    gm_bound_estimate,
    make_grid,
    p_t_symbol,
    quantize,
    resample,
    riesz,
    riesz_symbol,
    riesz_symbol_fn,
    sample,
    sigma_alpha,
    sigma_symbol_fn,
    spectral_frac_power,
    symbol_decay_report,
)
from pharmonic import cli
from pharmonic import grid as grid_module
from pharmonic import symbols as symbols_module
from pharmonic.heat_kernel import t_quadrature
from pharmonic.symbols import (SymbolFn, _derivative_stencil, _dt_b_coeffs,
                               _fill, _node_sums, _time_nodes, _TimeNodes)

SIGMA_NEG_ORACLE = 0.4832342617041933     # alpha=-1/2 at (x,tau,xi)=(0,2,0)
SIGMA_POS_ORACLE = 2.1742003677378541 - 0.0109868530931185j
#                                         alpha=+1/2 at (0.7, 2.0, -0.4)
RIESZ1_ORACLE = -0.7037145794219654j      # j=1 at x=0, xi=1, tau=0
RIESZ0_ORACLE = -0.9664685234083865j      # j=0 at tau=2


def dt_b(t, x, tau, xi):
    """db/dt assembled from the coefficients the alpha > 0 route uses."""
    sech2, cross = _dt_b_coeffs(t)
    sq = np.sum(x * x, axis=-1) + np.sum(xi * xi, axis=-1)
    dot = np.sum(x * xi, axis=-1)
    return sq * sech2 + 1.0j * dot * cross + tau ** 2


class TestBSymbol:
    def test_pure_tau(self):
        # x = xi = 0 leaves only the t tau^2 term
        for t, tau in ((0.3, 1.7), (2.0, -0.5)):
            assert b_symbol(t, 0.0, tau, 0.0) == pytest.approx(t * tau ** 2)

    def test_swap_symmetry(self):
        x = np.array([0.4, -1.1])
        xi = np.array([0.9, 0.2])
        a = b_symbol(0.7, x, 1.3, xi)
        b = b_symbol(0.7, xi, 1.3, x)
        assert a == pytest.approx(b, rel=1e-14)

    def test_time_derivative_matches_finite_difference(self):
        x = np.array([[0.6]])
        xi = np.array([[-0.8]])
        tau = np.array([1.1])
        for t in (1e-4, 0.05, 0.8):
            h = 1e-6 * max(t, 1e-2)
            fd = (b_symbol(t + h, x, tau, xi)
                  - b_symbol(t - h, x, tau, xi)) / (2.0 * h)
            an = dt_b(t, x, tau, xi)
            assert np.abs(fd - an).max() < 1e-6 * abs(an).max()

    def test_time_derivative_at_zero(self):
        # d/dt b -> |x|^2 + |xi|^2 + tau^2 as t -> 0+
        x = np.array([[0.6]])
        xi = np.array([[-0.8]])
        tau = np.array([1.1])
        lim = 0.6 ** 2 + 0.8 ** 2 + 1.1 ** 2
        val = dt_b(1e-9, x, tau, xi)
        assert val.real == pytest.approx(lim, rel=1e-12)
        assert abs(val.imag) < 1e-8


class TestPtSymbol:
    def test_t_zero_is_constant(self):
        for d, expect in ((1, (2 * math.pi) ** -0.5),
                          (2, (2 * math.pi) ** -1.0)):
            got = p_t_symbol(0.0, np.zeros(d), 0.7, np.ones(d), d)
            assert got == pytest.approx(expect, rel=1e-14)

    def test_negative_t_rejected(self):
        with pytest.raises(InvalidParameterError):
            p_t_symbol(-0.1, 0.0, 0.0, 0.0, 1)

    def test_small_t_gaussian_bound(self):
        # |p_t| <= c_d e^(-c t |X|^2) with c close to 1 for small t
        rng = np.random.default_rng(3)
        x = rng.uniform(-6, 6, (40, 1))
        xi = rng.uniform(-6, 6, (40, 1))
        tau = rng.uniform(-6, 6, 40)
        c_d = (2 * math.pi) ** -0.5
        xsq = x[:, 0] ** 2 + xi[:, 0] ** 2 + tau ** 2
        for t in (1e-3, 1e-2, 0.1):
            p = np.abs(p_t_symbol(t, x, tau, xi, 1))
            assert np.all(p <= c_d * np.exp(-0.9 * t * xsq) + 1e-300)

    def test_large_t_decay(self):
        # for t >= 1: |p_t| <= 2 c_d e^(-t d/2) e^(-0.4 |X|^2)
        rng = np.random.default_rng(4)
        x = rng.uniform(-3, 3, (40, 1))
        xi = rng.uniform(-3, 3, (40, 1))
        tau = rng.uniform(-3, 3, 40)
        c_d = (2 * math.pi) ** -0.5
        xsq = x[:, 0] ** 2 + xi[:, 0] ** 2 + tau ** 2
        for t in (1.0, 2.0, 4.0):
            p = np.abs(p_t_symbol(t, x, tau, xi, 1))
            bound = 2.0 * c_d * np.exp(-t / 2.0) * np.exp(-0.4 * xsq)
            assert np.all(p <= bound + 1e-300)


class TestSigmaAlpha:
    def test_origin_oracle(self):
        got = sigma_alpha(0.0, 2.0, 0.0, -0.5, 1)
        assert complex(got).real == pytest.approx(SIGMA_NEG_ORACLE,
                                                  rel=1e-10)
        assert abs(complex(got).imag) < 1e-14

    def test_positive_route_oracle(self):
        got = complex(sigma_alpha(0.7, 2.0, -0.4, 0.5, 1))
        assert got == pytest.approx(SIGMA_POS_ORACLE, rel=1e-10)

    def test_large_tau_asymptotics(self):
        # Laplace: sigma_(-1/2)(0, tau, 0) ~ 1/|tau|
        got = complex(sigma_alpha(0.0, 32.0, 0.0, -0.5, 1))
        assert abs(got * 32.0 - 1.0) < 0.1

    def test_invalid_alpha(self):
        for bad in (0.0, 1.0, 1.5):
            with pytest.raises(InvalidParameterError):
                sigma_alpha(0.0, 1.0, 0.0, bad, 1)

    def test_with_error_is_small(self):
        val, err = sigma_alpha(0.3, 1.0, -0.2, -0.5, 1, with_error=True)
        assert err < 1e-8
        assert val == pytest.approx(
            sigma_alpha(0.3, 1.0, -0.2, -0.5, 1), rel=1e-12)

    def test_vectorized_matches_scalar(self):
        taus = np.array([0.5, 1.0, 2.0])
        vec = sigma_alpha(0.0, taus, 0.0, -0.5, 1)
        for k, tau in enumerate(taus):
            assert vec[k] == pytest.approx(
                complex(sigma_alpha(0.0, tau, 0.0, -0.5, 1)), rel=1e-13)


class TestRieszSymbol:
    def test_j0_vanishes_at_tau_zero(self):
        got = riesz_symbol(0, np.array([0.5]), 0.0, np.array([0.3]), 1)
        assert abs(complex(got)) == 0.0

    def test_j0_oracle(self):
        got = complex(riesz_symbol(0, 0.0, 2.0, 0.0, 1))
        assert got == pytest.approx(RIESZ0_ORACLE, rel=1e-10)

    def test_j1_oracle(self):
        got = complex(riesz_symbol(1, 0.0, 0.0, 1.0, 1))
        assert got == pytest.approx(RIESZ1_ORACLE, rel=1e-10)

    def test_index_range(self):
        with pytest.raises(InvalidParameterError):
            riesz_symbol(2, 0.0, 0.0, 0.0, 1)
        with pytest.raises(InvalidParameterError):
            riesz_symbol(-1, 0.0, 0.0, 0.0, 1)

    def test_bounded_on_samples(self):
        # S^0 behaviour: uniformly bounded over the dyadic shells
        dom = SampleDomain(d=1, cap=64.0, per_shell=2, seed=5)
        for j in (0, 1):
            rep = gm_bound_estimate(riesz_symbol_fn(j, 1), dom, r=0)
            assert rep.all_passed, rep.failures()
            sup = rep.metrics[0].value
            assert np.isfinite(sup) and sup < 5.0

    def test_with_error_is_small(self):
        val, err = riesz_symbol(1, 0.2, 0.7, -0.1, 1, with_error=True)
        assert err < 1e-8


class TestGmBound:
    def test_constant_symbol(self):
        dom = SampleDomain(d=1, cap=16.0, per_shell=2, seed=1)
        rep = gm_bound_estimate(constant_symbol_fn(), dom, r=0)
        assert rep.all_passed
        assert rep.metrics[0].value == pytest.approx(1.0, abs=1e-12)

    def test_frequency_symbol(self):
        # |i tau| <= <|x|+|w|>: sup approaches 1 from below on shells
        dom = SampleDomain(d=1, cap=64.0, per_shell=2, seed=1)
        rep = gm_bound_estimate(frequency_symbol_fn(), dom, r=1)
        assert rep.all_passed, rep.failures()
        by_name = {m.name: m.value for m in rep.metrics}
        assert 0.99 < by_name["sup_order_0"] <= 1.0 + 1e-9
        assert by_name["sup_order_1"] == pytest.approx(1.0, abs=1e-9)

    def test_sigma_half_is_order_minus_one(self):
        dom = SampleDomain(d=1, cap=32.0, per_shell=2, seed=2)
        rep = gm_bound_estimate(sigma_symbol_fn(-0.5, 1), dom, r=0)
        assert rep.all_passed, rep.failures()

    def test_sup_leaving_zero_is_unstable(self):
        # zero on |tau| <= cap, one beyond: doubling the cap moves the
        # sup from 0 to 1, which no finite constant makes stable
        step = SymbolFn(lambda x, tau, xi: np.where(np.abs(tau) > 64.0,
                                                    1.0, 0.0),
                        order=0.0, label="step")
        dom = SampleDomain(d=1, cap=64.0, per_shell=1)
        by_name = {m.name: m for m in
                   gm_bound_estimate(step, dom, r=0).metrics}
        assert by_name["sup_order_0"].value == 1.0
        stab = by_name["stability_order_0"]
        assert stab.value == math.inf and not stab.passed

    def test_nan_value_makes_the_sup_fail(self):
        # a NaN ratio used to vanish: max(0.0, nan) is 0.0
        nan_at_zero = SymbolFn(lambda x, tau, xi: np.where(tau == 0.0,
                                                           np.nan, 1.0),
                               order=0.0, label="nan")
        dom = SampleDomain(d=1, cap=16.0, per_shell=1)
        sup = gm_bound_estimate(nan_at_zero, dom, r=0).metrics[0]
        assert sup.name == "sup_order_0"
        assert math.isnan(sup.value) and not sup.passed

    def test_invalid_r(self):
        dom = SampleDomain(d=1, cap=16.0)
        with pytest.raises(InvalidParameterError):
            gm_bound_estimate(constant_symbol_fn(), dom, r=3)

    def test_domain_needs_four_shells(self):
        with pytest.raises(InvalidParameterError):
            SampleDomain(d=1, cap=4.0).points()

    def test_decay_report_includes_frequency_weight(self):
        # G^m in S^m_(1,0) for m <= 0: the <w>-weighted sup also stable
        dom = SampleDomain(d=1, cap=32.0, per_shell=2, seed=3)
        rep = symbol_decay_report(-0.5, 1, dom)
        assert rep.all_passed, rep.failures()
        names = {m.name for m in rep.metrics}
        assert any(n.startswith("omega_") for n in names)
        assert any(n.startswith("combined_") for n in names)

    def test_decay_report_equals_the_separate_estimates(self):
        dom = SampleDomain(d=1, cap=16.0, per_shell=2, seed=3)
        sym = sigma_symbol_fn(-0.5, 1)
        want = [replace(m, name=prefix + m.name)
                for prefix, r, weight in (("combined_", 0, "combined"),
                                          ("omega_", 0, "omega"),
                                          ("deriv_", 2, "combined"))
                for m in gm_bound_estimate(sym, dom, r=r,
                                           weight=weight).metrics]
        assert symbol_decay_report(-0.5, 1, dom).metrics == want

    def test_suite_evaluates_each_point_set_once(self, tmp_path):
        """The default symbols suite: 19 stencil points on the domain
        and on its doubled copy, in 9 groups of one (x, xi) each, the 5
        groups with tau shifts one sigma_alpha call and the 4 mixed
        groups another, shared by the decay and the derivative sups of
        both weights."""
        seen = []
        real = symbols_module.sigma_alpha

        def spy(x, tau, xi, *args, **kwargs):
            seen.append(b"".join(np.ascontiguousarray(a).tobytes()
                                 for a in (x, tau, xi)))
            return real(x, tau, xi, *args, **kwargs)

        with mock.patch.object(symbols_module, "sigma_alpha", spy):
            code = cli.main(["--suite", "symbols",
                             "--out", str(tmp_path / "s.csv")])
        assert code == 0
        assert len(seen) == 4 and len(set(seen)) == 4


@pytest.fixture(scope="module")
def quant_setup():
    grid = make_grid(1, 64, 10.0, 24, 32)
    f = sample(grid, lambda r, x: np.pi ** -0.25
               * np.exp(-0.5 * (r ** 2 + x ** 2)))
    box = UniformBox((8.0, 8.0), (48, 48))
    return grid, f, box, resample(f, box)


@pytest.fixture(scope="module")
def sigma_half_applied(quant_setup):
    _, _, box, fbox = quant_setup
    return quantize(sigma_symbol_fn(-0.5, 1), fbox, box)


def rel_l2(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


class TestQuantize:
    def test_identity(self, quant_setup):
        _, _, box, fbox = quant_setup
        out = quantize(constant_symbol_fn(), fbox, box)
        assert rel_l2(out, fbox) < 1e-10

    def test_sigma_half_matches_spectral(self, quant_setup,
                                         sigma_half_applied):
        _, f, box, _ = quant_setup
        target = resample(spectral_frac_power(f, -0.5), box)
        assert rel_l2(sigma_half_applied, target) < 1e-3

    @pytest.mark.parametrize("j", [0, 1])
    def test_riesz_matches_ladder(self, quant_setup, j):
        # pins the convention-bound signs in the riesz symbol
        _, f, box, fbox = quant_setup
        target = resample(riesz(j, f), box)
        got = quantize(riesz_symbol_fn(j, 1), fbox, box)
        assert rel_l2(got, target) < 1e-3

    def test_composition_order_adds(self, quant_setup, sigma_half_applied):
        # T_(-1/2) T_(-1/2) f vs the sigma_(-1) route
        _, f, box, fbox = quant_setup
        twice = quantize(sigma_symbol_fn(-0.5, 1), sigma_half_applied, box)
        direct = quantize(sigma_symbol_fn(-1.0, 1), fbox, box)
        assert rel_l2(twice, direct) < 1e-3
        spectral = resample(spectral_frac_power(f, -1.0), box)
        assert rel_l2(twice, spectral) < 1e-3

    def test_aliasing_warning_on_tight_box(self, quant_setup):
        grid, f, _, _ = quant_setup
        tight = UniformBox((2.5, 2.5), (16, 16))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")   # resample truncation chatter
            vals = resample(f, tight)
        with pytest.warns(AliasingWarning):
            quantize(constant_symbol_fn(), vals, tight)

    def test_shape_mismatch(self, quant_setup):
        _, _, box, fbox = quant_setup
        with pytest.raises(InvalidParameterError):
            quantize(constant_symbol_fn(), fbox[:-1], box)

    def test_box_must_be_two_dimensional(self):
        box3 = UniformBox((4.0, 4.0, 4.0), (8, 8, 8))
        with pytest.raises(InvalidParameterError):
            quantize(constant_symbol_fn(), np.zeros((8, 8, 8)), box3)

    def test_rho_independence_is_structural(self):
        # SymbolFn evaluation takes (x, tau, xi) only; there is no rho
        # argument to depend on
        sym = constant_symbol_fn()
        assert sym(np.zeros((1, 1)), np.zeros(1), np.zeros((1, 1))).shape \
            == (1,)


# ---------------------------------------------------------------------------
# the node-sum evaluator against the full-broadcast formulas it replaced:
# copies of the old bodies, which exponentiate b on the whole
# (x, tau, xi, node) batch

def broadcast_reference_point(x, tau, xi, d):
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    xi = np.atleast_1d(np.asarray(xi, dtype=np.float64))
    if x.shape[-1] != d:
        x = x[..., None]
    if xi.shape[-1] != d:
        xi = xi[..., None]
    tau = np.asarray(tau, dtype=np.float64)
    batch = np.broadcast_shapes(x.shape[:-1], tau.shape, xi.shape[:-1])
    return (np.broadcast_to(x, batch + (d,)), np.broadcast_to(tau, batch),
            np.broadcast_to(xi, batch + (d,)))


def log_p_free_reference(t, x, tau, xi, d):
    return -0.5 * d * np.log(np.cosh(2.0 * t)) - b_symbol(t, x, tau, xi)


def sigma_reference(x, tau, xi, alpha, d, refine=False):
    x, tau, xi = broadcast_reference_point(x, tau, xi, d)
    xx, tt, xxi = x[..., None, :], tau[..., None], xi[..., None, :]
    if alpha < 0:
        gamma_ = -alpha
        t, w = t_quadrature(gamma_, d).nodes(refine)
        logs = (gamma_ - 1.0) * np.log(t) + log_p_free_reference(
            t, xx, tt, xxi, d)
        return np.sum(w * np.exp(logs), axis=-1) / math.gamma(gamma_)
    t, w = t_quadrature(1.0 - alpha, d).nodes(refine)
    sq = np.sum(xx * xx, axis=-1) + np.sum(xxi * xxi, axis=-1)
    dot = np.sum(xx * xxi, axis=-1)
    sech = 1.0 / np.cosh(2.0 * t)
    dt_b_ = sq * sech ** 2 + 2.0j * dot * sech * np.tanh(2.0 * t) + tt ** 2
    vals = np.exp(log_p_free_reference(t, xx, tt, xxi, d)) \
        * (d * np.tanh(2.0 * t) + dt_b_)
    return np.sum(w * t ** (-alpha) * vals, axis=-1) / math.gamma(1.0 - alpha)


def riesz_reference(j, x, tau, xi, d, refine=False):
    x, tau, xi = broadcast_reference_point(x, tau, xi, d)
    t, w = t_quadrature(0.5, d).nodes(refine)
    xx, tt, xxi = x[..., None, :], tau[..., None], xi[..., None, :]
    p = np.exp(log_p_free_reference(t, xx, tt, xxi, d))
    if j == 0:
        factor = -1.0j * tt
    else:
        dxj_b = (xx[..., j - 1] * np.tanh(2.0 * t) + 2.0j * xxi[..., j - 1]
                 * np.sinh(t) ** 2 / np.cosh(2.0 * t))
        factor = xx[..., j - 1] - 1.0j * xxi[..., j - 1] + dxj_b
    return np.sum(w * t ** -0.5 * factor * p, axis=-1) / math.sqrt(math.pi)


def reference_error(value, refined):
    scale = max(float(np.abs(value).max()), 1e-300)
    return float(np.abs(refined - value).max()) / scale


def assert_elementwise_close(got, want, rel):
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= rel * np.abs(want)), \
        float(np.max(np.abs(got - want) / np.maximum(np.abs(want), 1e-300)))


def symbol_points(d, shape, seed):
    """x, tau, xi in [-12, 12] with exact zeros sprinkled in.  shape
    "scattered" gives (n,) batches; otherwise (n_x, n_tau, n_xi) is a
    tensor-product grid passed as broadcastable axes."""
    rng = np.random.default_rng(seed)
    if shape == "scattered":
        n = int(rng.integers(1, 24))
        x_shape, tau_shape, xi_shape = (n, d), (n,), (n, d)
    else:
        nx, nt, nxi = (int(k) for k in rng.integers(1, 6, size=3))
        x_shape, tau_shape, xi_shape = (nx, 1, 1, d), (1, nt, 1), \
            (1, 1, nxi, d)
    out = []
    for sh in (x_shape, tau_shape, xi_shape):
        v = rng.uniform(-12.0, 12.0, sh)
        v[rng.uniform(size=sh) < 0.2] = 0.0
        out.append(v)
    return out


alphas = st.one_of(st.floats(-1.99, -0.01), st.floats(0.01, 0.99))
point_shapes = st.sampled_from(["scattered", "tensor"])


class TestSymbolsFactored:
    @settings(max_examples=40, deadline=None)
    @given(d=st.integers(1, 3), alpha=alphas, shape=point_shapes,
           seed=st.integers(0, 2 ** 32 - 1))
    def test_sigma_equals_broadcast_reference(self, d, alpha, shape, seed):
        x, tau, xi = symbol_points(d, shape, seed)
        got, err = sigma_alpha(x, tau, xi, alpha, d, with_error=True)
        want = sigma_reference(x, tau, xi, alpha, d)
        assert_elementwise_close(got, want, 1e-13)
        assert_elementwise_close(sigma_alpha(x, tau, xi, alpha, d), want,
                                 1e-13)
        want_err = reference_error(
            want, sigma_reference(x, tau, xi, alpha, d, refine=True))
        # both are roundoff-level differences of converged sums
        assert abs(err - want_err) <= 1e-13

    @settings(max_examples=40, deadline=None)
    @given(d=st.integers(1, 3), data=st.data(), shape=point_shapes,
           seed=st.integers(0, 2 ** 32 - 1))
    def test_riesz_equals_broadcast_reference(self, d, data, shape, seed):
        j = data.draw(st.integers(0, d))
        x, tau, xi = symbol_points(d, shape, seed)
        got, err = riesz_symbol(j, x, tau, xi, d, with_error=True)
        want = riesz_reference(j, x, tau, xi, d)
        assert_elementwise_close(got, want, 1e-13)
        want_err = reference_error(
            want, riesz_reference(j, x, tau, xi, d, refine=True))
        assert abs(err - want_err) <= 1e-13


def quantize_by_rows(symbol, values, box):
    """The per-x-row loop quantize replaced (without the aliasing check)."""
    n_r, n_x = box.counts
    taus, xis = box.freq_axes()
    xs = box.axes()[1]
    fhat = np.fft.fft2(values)
    out = np.empty(values.shape, dtype=np.complex128)
    idx = np.arange(n_x)
    for m, x_val in enumerate(xs):
        sig = symbol(np.full(xis.shape, x_val)[None, :],
                     taus[:, None], xis[None, :])
        col = np.fft.ifft(sig * fhat, axis=0)
        phase = np.exp(2.0j * math.pi * m * idx / n_x) / n_x
        out[:, m] = col @ phase
    return out


class TestQuantizeOneCall:
    @pytest.mark.parametrize("symbol", [
        constant_symbol_fn(), frequency_symbol_fn(), sigma_symbol_fn(-0.5, 1),
        riesz_symbol_fn(0, 1), riesz_symbol_fn(1, 1)],
        ids=lambda s: s.label)
    def test_equals_row_loop(self, quant_setup, symbol):
        _, _, box, fbox = quant_setup
        got = quantize(symbol, fbox, box)
        want = quantize_by_rows(symbol, fbox, box)
        assert got.shape == want.shape and got.flags.c_contiguous
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_symbol_called_once_per_box(self, quant_setup):
        _, _, box, fbox = quant_setup
        inner = sigma_symbol_fn(-0.5, 1)
        shapes = []

        def counted(x, tau, xi):
            shapes.append(np.broadcast_shapes(x.shape[:-1], tau.shape,
                                              xi.shape[:-1]))
            return inner(x, tau, xi)

        quantize(SymbolFn(counted, inner.order, inner.label), fbox, box)
        n_r, n_x = box.counts
        assert shapes == [(n_x, n_r, n_x)]


class TestSampleDomainPoints:
    def test_built_once_and_read_only(self):
        dom = SampleDomain(d=2, cap=16.0, per_shell=2, seed=3)
        pts = dom.points()
        assert SampleDomain(d=2, cap=16.0, per_shell=2, seed=3).points() \
            is pts
        assert dom.doubled().points() is dom.doubled().points()
        for a in pts:
            assert not a.flags.writeable
        # the cache hands back what a direct build draws
        for a, b in zip(pts, SampleDomain.points.__wrapped__(dom)):
            assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# the grouped stencil and the slabbed node sums against their one-piece
# forms, bit for bit

def stencil_by_spec(symbol, x, tau, xi, r):
    """The stencil with one symbol call per spec, which the grouped
    _derivative_stencil replaced."""
    d = x.shape[-1]
    n_var = 2 * d + 1
    mag = np.sqrt(np.sum(x ** 2, axis=-1) + tau ** 2
                  + np.sum(xi ** 2, axis=-1))
    h = 1e-3 * np.maximum(1.0, mag)

    def pt(spec):
        xx, tt, xxi = x.copy(), tau.copy(), xi.copy()
        for var, sg in spec:
            if var < d:
                xx[..., var] = xx[..., var] + sg * h
            elif var == d:
                tt = tt + sg * h
            else:
                xxi[..., var - d - 1] = xxi[..., var - d - 1] + sg * h
        return np.broadcast_to(symbol(xx, tt, xxi), tau.shape)

    specs = [()]
    if r >= 1:
        specs += [((v, s),) for v in range(n_var) for s in (+1, -1)]
    if r >= 2:
        specs += [((v1, s1), (v2, s2))
                  for v1 in range(n_var) for v2 in range(v1 + 1, n_var)
                  for s1 in (+1, -1) for s2 in (+1, -1)]
    vals = {spec: pt(spec) for spec in specs}
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


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and a.dtype == b.dtype
            and np.ascontiguousarray(a).tobytes()
            == np.ascontiguousarray(b).tobytes())


STENCIL_SYMBOLS = {
    "sigma(-0.5)": lambda d: sigma_symbol_fn(-0.5, d),
    "sigma(0.5)": lambda d: sigma_symbol_fn(0.5, d),
    "riesz(0)": lambda d: riesz_symbol_fn(0, d),
    "riesz(1)": lambda d: riesz_symbol_fn(1, d),
    "constant": lambda d: constant_symbol_fn(),
    "frequency": lambda d: frequency_symbol_fn(),
}


class TestGroupedStencil:
    @pytest.mark.parametrize("name", sorted(STENCIL_SYMBOLS))
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("r", [0, 1, 2])
    def test_equals_one_call_per_spec(self, name, d, r):
        symbol = STENCIL_SYMBOLS[name](d)
        x, tau, xi = SampleDomain(d=d, cap=16.0, per_shell=1,
                                  seed=5).points()
        got = _derivative_stencil(symbol, x, tau, xi, r)
        want = stencil_by_spec(symbol, x, tau, xi, r)
        assert [order for order, _ in got] == [order for order, _ in want]
        for (_, g), (_, w) in zip(got, want):
            assert same_bits(g, w)

    @pytest.mark.parametrize("d", [1, 2])
    def test_one_call_per_x_xi_group(self, d):
        # r = 2: the groups are the non-tau shifts, (2d choose <= 2)
        # with signs; the 1 + 2n groups with tau shifts go in one call
        # against three tau rows, the mixed ones in another against tau
        x, tau, xi = SampleDomain(d=d, cap=16.0, per_shell=1,
                                  seed=5).points()
        shapes = []

        def counted(xx, tt, xxi):
            shapes.append((xx.shape, tt.shape, xxi.shape))
            return np.broadcast_to(1.0j * tt, tt.shape)

        _derivative_stencil(SymbolFn(counted, 1.0, "i*tau"), x, tau, xi, 2)
        n, P = 2 * d, tau.size
        mixed = 4 * n * (n - 1) // 2
        assert shapes == [((1 + 2 * n, 1, P, d), (3, P), (1 + 2 * n, 1, P, d)),
                          ((mixed, 1, P, d), (1, P), (mixed, 1, P, d))]

    def test_stacked_groups_within_the_byte_budget(self):
        # d = 8: 33 groups with tau shifts and 480 mixed ones, in chunks
        # whose shifted (x, xi) and result stay within grid._SLAB_BYTES
        x, tau, xi = SampleDomain(d=8, cap=16.0, per_shell=2,
                                  seed=5).points()
        calls = []

        def counted(xx, tt, xxi):
            calls.append((xx.shape[0], tt.shape[0],
                          xx.nbytes + xxi.nbytes
                          + 16 * math.prod(np.broadcast_shapes(
                              xx.shape[:-1], tt.shape))))
            return 1.0j * tt

        _derivative_stencil(SymbolFn(counted, 1.0, "i*tau"), x, tau, xi, 2)
        assert sum(g for g, m, _ in calls if m == 3) == 1 + 4 * 8
        assert sum(g for g, m, _ in calls if m == 1) == 8 * 8 ** 2 - 4 * 8
        assert len(calls) > 2
        assert all(size <= grid_module._SLAB_BYTES for _, _, size in calls)


def slab_points(case, d, rng):
    """x, tau, xi of each point shape _node_sums is called with."""
    def u(*shape):
        return rng.uniform(-6.0, 6.0, shape)

    if case == "0-d":
        return u(d), np.asarray(u()), u(d)
    if case == "scattered":
        return u(37, d), u(37), u(37, d)
    if case == "grouped":
        return u(1, 37, d), u(3, 37), u(1, 37, d)
    return u(6, 1, 1, d), u(1, 5, 1), u(1, 1, 7, d)    # quantize's box


def factor_sums(nodes, x, tau, xi):
    """Both factor paths: the plain sum, then a factor that reads the
    slab's points as well as sq and dot."""
    def factor(xx, xxi, sq, dot):
        return (sq + xx[..., 0, None] * nodes.A) \
            - 1.0j * (dot + xxi[..., -1, None] * nodes.B)

    return _node_sums(nodes, x, tau, xi, (None, factor))


class TestSlabbedNodeSums:
    @pytest.mark.parametrize("slab", [64, 3000, 40000])
    @pytest.mark.parametrize("case", ["0-d", "scattered", "grouped",
                                      "box"])
    @pytest.mark.parametrize("d", [1, 2])
    def test_equals_one_slab(self, slab, case, d):
        x, tau, xi = slab_points(case, d, np.random.default_rng([d, slab]))
        nodes = _time_nodes(0.5, d, False)
        with mock.patch.object(grid_module, "_SLAB_BYTES", 1 << 40):
            want = (_node_sums(nodes, x, tau, xi)
                    + factor_sums(nodes, x, tau, xi))
        with mock.patch.object(grid_module, "_SLAB_BYTES", slab):
            got = (_node_sums(nodes, x, tau, xi)
                   + factor_sums(nodes, x, tau, xi))
        assert len(got) == len(want) == 3
        for g, w in zip(got, want):
            assert same_bits(g, w)

    @pytest.mark.parametrize("d", [1, 2])
    def test_grouped_rows_equal_single_calls(self, d):
        # the (m, P) tau stack against one (1, P) call per row, in
        # slabs of one point
        x, tau, xi = slab_points("grouped", d, np.random.default_rng(d))
        nodes = _time_nodes(0.5, d, False)
        with mock.patch.object(grid_module, "_SLAB_BYTES", 64):
            got = factor_sums(nodes, x, tau, xi)
        for k in range(tau.shape[0]):
            want = factor_sums(nodes, x, tau[k:k + 1], xi)
            for g, w in zip(got, want):
                assert same_bits(g[k:k + 1], w)

    @pytest.mark.parametrize("evaluate", [
        lambda x, tau, xi: sigma_alpha(x, tau, xi, -0.5, 1),
        lambda x, tau, xi: sigma_alpha(x, tau, xi, 0.5, 1),
        lambda x, tau, xi: riesz_symbol(1, x, tau, xi, 1)],
        ids=["sigma(-0.5)", "sigma(0.5)", "riesz(1)"])
    def test_public_evaluators_do_not_see_the_slabs(self, evaluate):
        x, tau, xi = slab_points("box", 1, np.random.default_rng(11))
        want = evaluate(x, tau, xi)
        with mock.patch.object(grid_module, "_SLAB_BYTES", 3000):
            assert same_bits(evaluate(x, tau, xi), want)


def node_sums_by_complex_exp(nodes, x, tau, xi, factors=(None,)):
    """The direct formula _node_sums replaced: one complex exp of the
    whole (point, node) block, the weights w e^(-t tau^2) on the tau
    side, and a sum over the node axis."""
    sq = (np.sum(x * x, axis=-1) + np.sum(xi * xi, axis=-1))[..., None]
    dot = np.sum(x * xi, axis=-1)[..., None]
    g = np.exp(nodes.logc - sq * nodes.A - 1.0j * (dot * nodes.B))
    e = nodes.w * np.exp(-nodes.t * tau[..., None] ** 2)
    sums = []
    for f in factors:
        if f is not None:
            g = g * f(x, xi, sq, dot)
        sums.append(np.sum(e * g, axis=-1))
    return sums


def node_sum_points(layout, d, scale, rng):
    """x, tau, xi of a layout _node_sums is called with; x and xi are
    scaled by scale (1e-5 keeps every phase x.xi B_k below 2^-27) and
    about a fifth of the x entries are exact zeros (x.xi = 0)."""
    if layout == "scalar":
        shapes = (d,), (), (d,)
    elif layout == "grouped":
        n = int(rng.integers(1, 40))
        shapes = (1, n, d), (3, n), (1, n, d)
    else:                                   # quantize's box
        nx, nt, nxi = (int(k) for k in rng.integers(1, 7, size=3))
        shapes = (nx, 1, 1, d), (1, nt, 1), (1, 1, nxi, d)
    x, tau, xi = (rng.uniform(-6.0, 6.0, sh) for sh in shapes)
    x[rng.uniform(size=x.shape) < 0.2] = 0.0
    return x * scale, np.asarray(tau), xi * scale


class TestNodeSumsAgainstComplexExp:
    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(1, 3),
           layout=st.sampled_from(["grouped", "box", "scalar"]),
           gamma_=st.floats(0.05, 2.5),
           scale=st.sampled_from([1.0, 1e-2, 1e-5]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_within_roundoff_of_the_largest_value(self, d, layout, gamma_,
                                                  scale, seed):
        x, tau, xi = node_sum_points(layout, d, scale,
                                     np.random.default_rng(seed))
        nodes = _time_nodes(gamma_, d, False)

        def factor(xx, xxi, sq, dot):
            return (sq + xx[..., 0, None] * nodes.A) \
                - 1.0j * (dot + xxi[..., -1, None] * nodes.B)

        got = _node_sums(nodes, x, tau, xi, (None, factor))
        want = node_sums_by_complex_exp(nodes, x, tau, xi, (None, factor))
        for g, w in zip(got, want):
            assert g.shape == w.shape and g.dtype == np.complex128
            top = float(np.abs(w).max())
            assert float(np.abs(g - w).max()) <= 2e-15 * top


class TestFillPhase:
    def test_phase_factors_against_cos_and_sin(self):
        # _fill's cos and sin from one tan, at phases +-B_k for B_k
        # rising from 2^-27 to 1e9 and at odd multiples of pi; below
        # 2^-27 they are exactly 1 and the phase
        rng = np.random.default_rng(0)
        tiny = np.array([1e-300, 1e-12, 2.0 ** -28, 2.0 ** -27.5])
        odd = 2.0 * np.concatenate([np.arange(10000),
                                    rng.integers(0, 10 ** 8, 2000)]) + 1.0
        b = np.unique(np.concatenate([
            tiny, np.geomspace(2.0 ** -27, 1e9, 20001),
            rng.uniform(0.0, 10.0, 4000), odd * math.pi]))
        k = tiny.size
        nodes = _TimeNodes(np.arange(1.0, b.size + 1.0), np.ones(b.size),
                           np.zeros(b.size), np.zeros(b.size), b)
        dot = np.array([[-1.0], [1.0]])
        out = np.empty((2, 2, b.size))
        _fill(nodes, np.zeros((2, 1)), dot, out)
        phase = -dot * b
        assert np.all(out[:, 0, :k] == 1.0)
        assert np.array_equal(out[:, 1, :k], phase[:, :k])
        assert float(np.abs(out[:, 0] - np.cos(phase)).max()) <= 4e-16
        assert float(np.abs(out[:, 1] - np.sin(phase)).max()) <= 4e-16
