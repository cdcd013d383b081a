"""Heat kernel, fractional-power kernels, and the bound reports.

Frozen reference values were computed with mpmath at 40 digits from the
closed-form kernel, using the algebraically equivalent grouping
B = coth(2t)(|x|^2+|x'|^2)/2 - x.x'/sinh(2t) + (rho-rho')^2/(4t) as an
independent path to the quadratic form.
"""
import ast
import math
import pathlib
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.special
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pharmonic
from pharmonic import (
    DomainError,
    InvalidParameterError,
    SingularPointError,
    b_quadratic,
    b_symbol,
    frac_power_kernel,
    heat_apply_kernel,
    heat_kernel_E,
    heat_spectral,
    hls_check,
    inner,
    k_alpha,
    kernel_bound_report,
    lp_norm,
    make_grid,
    mode_field,
    psi_alpha,
    sample,
    sample_pairs,
    schur_weighted_report,
    sigma_alpha,
    spectral_frac_power,
    t_quadrature,
)
import pharmonic.grid as grid_module
import pharmonic.heat_kernel as hk
import pharmonic.inequalities as inequalities
from pharmonic.cli import _parser, build_config, run_suite
from pharmonic.grid import Field
from pharmonic.errors import (QuadratureError, ResolutionWarning,
                              TruncationWarning)
from pharmonic.sobolev import TestFamily
from pharmonic.heat_kernel import (_gl_panels, _moment_integral,
                                   _rho_heat_matrix, _x_heat_matrix,
                                   log_heat_kernel_E)

B_PAIR_ORACLE = 0.8439639393033420      # t=0.5, z=(0.3,1.2), z'=(-0.4,0.5)
E_PAIR_ORACLE = 0.06312990531165657
E_DIAG_ORACLE = 0.3118003146695300      # t=0.25, x=x'=0, rho=rho', d=1
ROW_INT_ORACLE = 0.7348669703439213     # t=0.4, x=0.7: (cosh)^(-1/2) e^(-x^2 tanh/2)
K_ALPHA_ORACLE = 0.07011791031417245    # alpha=3/4, z=(0.5,1), z'=(-0.3,0.2)


def pinned_field(g):
    # the acceptance field: ground Hermite mode times a rho Gaussian
    return sample(g, lambda r, x: np.pi ** -0.25 * np.exp(-x ** 2 / 2)
                  * np.exp(-r ** 2 / 2))


class TestKernelFormula:
    def test_b_quadratic_oracle(self):
        z = np.array([0.3, 1.2])
        zp = np.array([-0.4, 0.5])
        assert b_quadratic(0.5, z, zp) == pytest.approx(B_PAIR_ORACLE,
                                                        rel=1e-14)

    def test_b_zero_at_coincident_origin(self):
        z = np.array([0.7, 0.0])
        assert b_quadratic(0.3, z, z) == pytest.approx(0.0, abs=1e-15)

    def test_b_symmetry(self):
        rng = np.random.default_rng(2)
        z = rng.normal(size=(8, 4))
        zp = rng.normal(size=(8, 4))
        np.testing.assert_allclose(b_quadratic(0.7, z, zp),
                                   b_quadratic(0.7, zp, z), rtol=1e-13)

    def test_e_oracle_and_symmetry(self):
        z = np.array([0.3, 1.2])
        zp = np.array([-0.4, 0.5])
        assert heat_kernel_E(0.5, z, zp) == pytest.approx(E_PAIR_ORACLE,
                                                          rel=1e-14)
        assert heat_kernel_E(0.5, zp, z) == pytest.approx(E_PAIR_ORACLE,
                                                          rel=1e-14)

    def test_e_diagonal_prefactor(self):
        z = np.array([1.1, 0.0])
        assert heat_kernel_E(0.25, z, z) == pytest.approx(E_DIAG_ORACLE,
                                                          rel=1e-14)

    def test_b_direct_arithmetic_point(self):
        # t=0.5, x=1, x'=0, rho=rho'
        z = np.array([0.2, 1.0])
        zp = np.array([0.2, 0.0])
        expect = 0.25 * (2.0 / math.tanh(1.0) - math.tanh(0.5)) \
            + math.tanh(0.5) / 4.0
        assert b_quadratic(0.5, z, zp) == pytest.approx(expect, rel=1e-14)

    def test_e_factorizes_rho_part(self):
        # E / [(4 pi t)^(-1/2) e^(-(rho-rho')^2/4t)] must not depend on
        # the rho coordinates
        rng = np.random.default_rng(11)
        x = rng.normal(size=2)
        xp = rng.normal(size=2)
        t = 0.6
        ratios = []
        for rho, rhop in ((0.0, 0.0), (1.3, -0.7), (-2.0, 2.5)):
            z = np.concatenate([[rho], x])
            zp = np.concatenate([[rhop], xp])
            free = (4 * math.pi * t) ** -0.5 \
                * math.exp(-(rho - rhop) ** 2 / (4 * t))
            ratios.append(heat_kernel_E(t, z, zp) / free)
        assert ratios[1] == pytest.approx(ratios[0], rel=1e-13)
        assert ratios[2] == pytest.approx(ratios[0], rel=1e-13)

    def test_e_positive(self):
        rng = np.random.default_rng(5)
        z = rng.normal(size=(20, 3))
        zp = rng.normal(size=(20, 3))
        for t in (0.01, 0.5, 5.0):
            assert np.all(heat_kernel_E(t, z, zp) > 0)

    def test_log_e_stable_at_tiny_t(self):
        z = np.array([0.3, 0.4])
        zp = np.array([0.3001, 0.4])
        v = log_heat_kernel_E(np.array([1e-40, 1e-20]), z, zp, 1)
        assert np.all(np.isfinite(v) | (v == -np.inf))
        assert np.all(np.exp(v) == 0.0)  # separation kills the integrand

    def test_mass_against_row_formula(self):
        # int E(t, z, z') dz' = (cosh 2t)^(-d/2) e^(-|x|^2 tanh(2t)/2):
        # box quadrature against the closed form validates the kernel
        # normalization independently of any grid machinery
        t, x0 = 0.4, 0.7
        z = np.array([0.2, x0])
        r, wr = _gl_panels(np.linspace(-14, 14, 57), 6)
        x, wx = _gl_panels(np.linspace(-9, 9, 37), 6)
        zp = np.stack(np.meshgrid(r, x, indexing="ij"), axis=-1)
        vals = heat_kernel_E(t, z, zp)
        mass = float(np.sum(vals * wr[:, None] * wx[None, :]))
        assert mass == pytest.approx(ROW_INT_ORACLE, rel=1e-10)

    def test_chapman_kolmogorov(self):
        s = t = 0.3
        r, wr = _gl_panels(np.linspace(-12, 12, 49), 6)
        x, wx = _gl_panels(np.linspace(-8, 8, 33), 6)
        w = np.stack(np.meshgrid(r, x, indexing="ij"), axis=-1).reshape(-1, 2)
        ww = (wr[:, None] * wx[None, :]).ravel()
        rng = np.random.default_rng(7)
        for _ in range(5):
            z = rng.uniform(-2, 2, 2)
            zp = rng.uniform(-2, 2, 2)
            lhs = np.sum(ww * heat_kernel_E(s, z, w) * heat_kernel_E(t, w, zp))
            rhs = heat_kernel_E(s + t, z, zp)
            assert lhs == pytest.approx(rhs, rel=1e-6)


def dense_apply(field, t, images):
    """e^(-tH) f as one dense quadrature of heat_kernel_E over the grid,
    summing the rho images m = -images..images of the periodic window."""
    g = field.grid
    mesh = np.stack(np.meshgrid(g.rho, *([g.nodes_x] * g.d), indexing="ij"),
                    axis=-1).reshape(-1, g.d + 1)
    dense = np.zeros((mesh.shape[0], mesh.shape[0]))
    for m in range(-images, images + 1):
        shifted = mesh.copy()
        shifted[:, 0] += 2.0 * g.L_rho * m
        dense += heat_kernel_E(t, shifted[:, None, :], mesh[None, :, :])
    wq = np.tile((g.drho * g.x_weight()).ravel(), g.N_rho)
    return ((dense * wq[None, :]) @ field.values.ravel()).reshape(g.shape)


def assert_matches_dense(out, ref):
    scale = np.abs(ref).max()
    np.testing.assert_allclose(out, ref, rtol=1e-12, atol=1e-14 * scale)


def tensordot_apply(field, t):
    """The apply as first written: the full N^2 image sum in rho and one
    tensordot per axis, kept as the reference for the factored kernel."""
    g = field.grid
    m_max = min(int(np.ceil(np.sqrt(4.0 * t * 40.0) / (2 * g.L_rho))) + 1, 32)
    diff = g.rho[:, None] - g.rho[None, :]
    acc = np.zeros_like(diff)
    for m in range(-m_max, m_max + 1):
        acc += np.exp(-(diff + 2.0 * g.L_rho * m) ** 2 / (4.0 * t))
    rho_mat = acc * g.drho / np.sqrt(4.0 * math.pi * t)
    out = np.tensordot(rho_mat, field.values, axes=([1], [0]))
    mx = _x_heat_matrix(g, t)
    for _ in range(g.d):
        out = np.tensordot(out, mx, axes=([1], [1]))
    return out


class TestHeatApply:
    def test_matches_dense_kernel_matrix(self):
        # the factorized per-axis application must equal a dense
        # quadrature of E itself (images are negligible at this t, L)
        g = make_grid(d=1, N_rho=32, L_rho=10.0, K=10, M=14)
        f = sample(g, lambda r, x: np.exp(-0.4 * r ** 2 - 0.6 * x ** 2
                                          + 0.3 * x))
        # one image each side: the same periodic continuation across the cut
        assert_matches_dense(heat_apply_kernel(f, 0.3).values,
                             dense_apply(f, 0.3, images=1))

    def test_ground_mode_eigenvalue(self):
        g = make_grid(d=1, N_rho=64, L_rho=10.0, K=6, M=24)
        phi0 = sample(g, lambda r, x: np.pi ** -0.25 * np.exp(-x ** 2 / 2))
        for t in (0.2, 1.0):
            out = heat_apply_kernel(phi0, t)
            exact = Field(g, phi0.values * math.exp(-t * g.d))
            assert lp_norm(out - exact, 2) / lp_norm(exact, 2) < 1e-8

    def test_two_route_agreement(self):
        g = make_grid(d=1, N_rho=128, L_rho=12.0, K=24, M=32)
        f = pinned_field(g)
        for t in (0.1, 0.5, 2.0):
            a = heat_apply_kernel(f, t)
            b = heat_spectral(f, t)
            assert lp_norm(a - b, 2) / lp_norm(b, 2) < 1e-6

    def test_two_route_agreement_d2(self):
        g = make_grid(d=2, N_rho=32, L_rho=10.0, K=8, M=20)
        f = sample(g, lambda r, x, y: np.exp(-0.5 * (r ** 2 + x ** 2 + y ** 2)
                                             + 0.2 * x * y))
        a = heat_apply_kernel(f, 0.5)
        b = heat_spectral(f, 0.5)
        assert lp_norm(a - b, 2) / lp_norm(b, 2) < 1e-6

    def test_positivity_preserved(self):
        g = make_grid(d=1, N_rho=64, L_rho=10.0, K=8, M=16)
        f = sample(g, lambda r, x: np.exp(-r ** 2 - x ** 2))
        out = heat_apply_kernel(f, 0.7)
        assert out.values.real.min() > -1e-14

    def test_zero_field(self):
        g = make_grid(d=1, N_rho=32, L_rho=8.0, K=4, M=8)
        f = Field(g, np.zeros(g.shape))
        assert np.all(heat_apply_kernel(f, 0.5).values == 0)

    def test_rejects_nonpositive_time(self):
        g = make_grid(d=1, N_rho=32, L_rho=8.0, K=4, M=8)
        f = sample(g, lambda r, x: np.exp(-r ** 2 - x ** 2))
        with pytest.raises(InvalidParameterError):
            heat_apply_kernel(f, 0.0)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_rejects_nonfinite_time(self, t):
        g = make_grid(d=1, N_rho=32, L_rho=8.0, K=4, M=8)
        f = sample(g, lambda r, x: np.exp(-r ** 2 - x ** 2))
        with pytest.raises(InvalidParameterError):
            heat_apply_kernel(f, t)

    def test_time_past_the_sinh_range(self):
        # sinh 2t overflows a float past t ~ 355, while e^(-tH) f of a
        # ground mode constant in rho is e^(-t) f, still a float at 400
        g = make_grid(d=1, N_rho=32, L_rho=8.0, K=6, M=16)
        f = sample(g, lambda r, x: np.pi ** -0.25 * np.exp(-x ** 2 / 2)
                   * np.ones_like(r))
        out = heat_apply_kernel(f, 400.0).values
        want = heat_spectral(f, 400.0).values
        scale = np.abs(want).max()
        assert scale > 0.0
        assert np.abs(out - want).max() <= 1e-12 * scale

    def test_huge_time_underflows(self):
        g = make_grid(d=1, N_rho=32, L_rho=8.0, K=4, M=8)
        f = sample(g, lambda r, x: np.exp(-r ** 2 - x ** 2))
        with pytest.warns(TruncationWarning):
            out = heat_apply_kernel(f, 1e6)
        assert not out.values.any()


class TestHeatApplyFactored:
    """The real-plane, per-axis matmul apply against independent routes."""

    def test_complex_field_matches_dense(self):
        g = make_grid(d=1, N_rho=16, L_rho=6.0, K=8, M=12)
        f = mode_field(g, 3, (1,)) + sample(
            g, lambda r, x: np.exp(-0.5 * r ** 2 - 0.5 * x ** 2))
        assert np.abs(f.values.imag).max() > 0.1
        out = heat_apply_kernel(f, 0.4)
        assert out.values.dtype == np.complex128
        assert_matches_dense(out.values, dense_apply(f, 0.4, images=2))

    def test_large_time_short_window_matches_dense(self):
        # t = 5 on a window of length 4 needs 9 images each side: the
        # circulant row must carry the wrap of every one of them
        g = make_grid(d=1, N_rho=16, L_rho=2.0, K=6, M=10)
        f = sample(g, lambda r, x: np.exp(-r ** 2 - 0.5 * x ** 2 + 0.4 * r))
        out = heat_apply_kernel(f, 5.0)
        assert_matches_dense(out.values, dense_apply(f, 5.0, images=12))

    def test_d2_matches_dense(self):
        g = make_grid(d=2, N_rho=8, L_rho=5.0, K=5, M=8)
        f = sample(g, lambda r, x, y: np.exp(-0.5 * (r ** 2 + x ** 2 + y ** 2)
                                             + 0.3 * x * y - 0.2 * r))
        out = heat_apply_kernel(f, 0.3)
        assert_matches_dense(out.values, dense_apply(f, 0.3, images=2))

    def test_real_dtype_kept(self):
        g = make_grid(d=1, N_rho=16, L_rho=6.0, K=8, M=12)
        f = Field(g, np.exp(-0.5 * g.rho[:, None] ** 2
                            - 0.5 * g.nodes_x[None, :] ** 2))
        out = heat_apply_kernel(f, 0.7)
        assert out.values.dtype == np.float64
        assert_matches_dense(out.values, dense_apply(f, 0.7, images=2))

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(1, 3), log2_n=st.integers(1, 4),
           m=st.integers(2, 7), L=st.floats(1.0, 10.0),
           log_t=st.floats(-3.0, 1.3), imag=st.booleans(),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_equals_tensordot_reference(self, d, log2_n, m, L, log_t, imag,
                                        seed):
        # t <= 20 with L >= 1 keeps the image count under the cap of
        # 32, where the periodized matrix is exactly circulant
        g = make_grid(d=d, N_rho=2 ** log2_n, L_rho=L, K=m - 1, M=m)
        rng = np.random.default_rng(seed)
        values = rng.standard_normal(g.shape) + 0j
        if imag:
            values += 1j * rng.standard_normal(g.shape)
        f = Field(g, values)
        t = 10.0 ** log_t
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = heat_apply_kernel(f, t).values
            # the roundoff scale of a positive kernel sum is K|f|, not
            # Kf: at large t a signed input cancels to far below it
            scale = heat_apply_kernel(Field(g, np.abs(values)), t).values
        ref = tensordot_apply(f, t)
        assert np.abs(out - ref).max() <= 1e-14 * np.abs(scale).max()


def loop_rho_heat_matrix(grid, t):
    """The rho kernel matrix as first written: offsets and circulant
    index rebuilt per call, one image per loop step."""
    L = grid.L_rho
    n = grid.N_rho
    m_max = min(int(np.ceil(np.sqrt(4.0 * t * 40.0) / (2 * L))) + 1, 32)
    diff = np.fft.fftfreq(n, d=1.0 / n) * grid.drho
    row = np.zeros_like(diff)
    for m in range(-m_max, m_max + 1):
        row += np.exp(-(diff + 2.0 * L * m) ** 2 / (4.0 * t))
    row = row * grid.drho / np.sqrt(4.0 * math.pi * t)
    k = np.arange(n)
    return row[(k[:, None] - k[None, :]) % n]


def direct_x_heat_matrix(grid, t):
    """The x kernel matrix as first written, node products per call."""
    xs = grid.nodes_x
    sinh2t = math.sinh(2.0 * t)
    coth2t = math.cosh(2.0 * t) / sinh2t
    expo = (-0.5 * coth2t * (xs[:, None] ** 2 + xs[None, :] ** 2)
            + xs[:, None] * xs[None, :] / sinh2t)
    pref = 1.0 / math.sqrt(2.0 * math.pi * sinh2t)
    return pref * np.exp(expo) * grid.weights_x[None, :]


class TestKernelMatrices:
    """The per-call matrices from per-grid constants, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(1, 3), log2_n=st.integers(1, 7),
           L=st.floats(0.25, 10.0), m=st.integers(1, 40),
           log_t=st.floats(-4.0, 2.5))
    @example(d=1, log2_n=4, L=0.5, m=8, log_t=2.5)      # past the cap
    def test_equal_to_loop_builders(self, d, log2_n, L, m, log_t):
        g = make_grid(d=d, N_rho=2 ** log2_n, L_rho=L, K=min(m - 1, 3), M=m)
        t = 10.0 ** log_t
        capped = int(np.ceil(np.sqrt(160.0 * t) / (2 * L))) + 1 > 32
        for _ in range(2):      # the warning fires on every call
            with warnings.catch_warnings(record=True) as got:
                warnings.simplefilter("always")
                rho = _rho_heat_matrix(g, t)
            assert [w.category for w in got] == \
                [TruncationWarning] * capped
            assert rho.tobytes() == loop_rho_heat_matrix(g, t).tobytes()
            assert _x_heat_matrix(g, t).tobytes() == \
                direct_x_heat_matrix(g, t).tobytes()

    def test_constants_per_grid_and_read_only(self):
        a = make_grid(d=1, N_rho=16, L_rho=4.0, K=4, M=8)
        b = make_grid(d=1, N_rho=16, L_rho=6.0, K=4, M=8)
        assert not np.array_equal(a._rho_offsets, b._rho_offsets)
        assert np.array_equal(b._rho_offsets, 1.5 * a._rho_offsets)
        for name in ("_rho_offsets", "_rho_circulant", "_x_sum_sq",
                     "_x_product"):
            const = getattr(a, name)
            assert getattr(a, name) is const        # built once
            assert not const.flags.writeable
            with pytest.raises(ValueError):
                const[0] = 1


class TestTimeRule:
    """t_quadrature against closed forms of int t^(g-1) F(t) dt.

    The rule for dimension d is built for integrands that decay at
    least like e^(-d t), the bottom of the spectrum of H, so the decay
    rates drawn here are at least d.
    """

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(1, 3), g=st.floats(0.05, 2.5),
           log_lam=st.floats(0.0, 5.0), refine=st.booleans())
    def test_gamma_closed_form(self, d, g, log_lam, refine):
        # sum w t^(g-1) e^(-lam t) / Gamma(g) = lam^(-g)
        lam = max(10.0 ** log_lam, float(d))
        t, w = t_quadrature(g, d).nodes(refine)
        got = np.sum(w * t ** (g - 1.0) * np.exp(-lam * t)) / math.gamma(g)
        assert got == pytest.approx(lam ** -g, rel=1e-11, abs=0.0)

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(1, 3), g=st.floats(0.05, 2.5),
           log_lam=st.floats(0.0, 3.0), z=st.floats(0.01, 28.0))
    @example(d=1, g=2.5, log_lam=1.4256, z=28.0)   # h = 0.2 errs by 5e-9
    def test_bessel_k_closed_form(self, d, g, log_lam, z):
        # a c/t term, as in the kernel at separation 2 sqrt(c):
        # int t^(g-1) e^(-lam t - c/t) dt = 2 (c/lam)^(g/2) K_g(z) with
        # z = 2 sqrt(c lam).  lam >= 2d puts the tail past t_max = 40/d
        # below e^(-50) of the integral, so only the step is tested.
        lam = max(10.0 ** log_lam, 2.0 * d)
        c = z * z / (4.0 * lam)
        t, w = t_quadrature(g, d).nodes()
        got = np.sum(w * t ** (g - 1.0) * np.exp(-lam * t - c / t))
        want = 2.0 * (c / lam) ** (g / 2.0) * scipy.special.kv(g, z)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_cut_grows_only_past_alpha_one(self, d):
        # up to alpha = 1 the cut stays at max(40/d, 2); above it t_max
        # lies past the peak (alpha-1)/d, where t^(alpha-1) e^(-td) has
        # fallen e^(-40) below its peak
        for alpha in (0.05, 0.5, 1.0):
            assert t_quadrature(alpha, d).t_max == max(40.0 / d, 2.0)
        for alpha in (1.5, 5.0, 30.0):
            t_max = t_quadrature(alpha, d).t_max
            peak = (alpha - 1.0) / d
            assert t_max > max(40.0 / d, peak)
            drop = ((alpha - 1.0) * math.log(t_max / peak)
                    - d * (t_max - peak))
            assert drop == pytest.approx(-40.0, rel=1e-12)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_node_budget(self, d):
        for g in (0.05, 0.5, 2.5):
            t, w = t_quadrature(g, d).nodes()
            assert t.size <= 300
            assert t[0] <= 1e-16

    def test_sigma_alpha_near_one_matches_quad(self):
        # alpha = 0.9 puts t^(-0.9) under the integral; scipy's
        # algebraic-weight rule takes the singularity on (0, 1]
        alpha, d = 0.9, 1
        x, tau, xi = 0.7, 2.0, -0.4

        def minus_dt_p(t):
            # -d/dt of (cosh 2t)^(-d/2) e^(-b)
            db = ((x * x + xi * xi) / np.cosh(2.0 * t) ** 2
                  + 2.0j * x * xi * np.tanh(2.0 * t) / np.cosh(2.0 * t)
                  + tau ** 2)
            return (np.cosh(2.0 * t) ** (-d / 2.0)
                    * np.exp(-b_symbol(t, np.array([x]), tau, np.array([xi])))
                    * (d * np.tanh(2.0 * t) + db))

        def integral(part):
            head = scipy.integrate.quad(
                lambda t: part(minus_dt_p(t)), 0.0, 1.0, weight="alg",
                wvar=(-alpha, 0.0), epsabs=0.0, epsrel=1e-13, limit=200)[0]
            tail = scipy.integrate.quad(
                lambda t: t ** -alpha * part(minus_dt_p(t)), 1.0, 40.0,
                epsabs=0.0, epsrel=1e-13, limit=200)[0]
            return head + tail

        want = complex(integral(np.real), integral(np.imag)) \
            / math.gamma(1.0 - alpha)
        got = complex(sigma_alpha(x, tau, xi, alpha, d))
        assert abs(got - want) <= 1e-10 * abs(want)


class TestKAlpha:
    def test_oracle_value(self):
        z = np.array([0.5, 1.0])
        zp = np.array([-0.3, 0.2])
        v, err = k_alpha(z, zp, 0.75, with_error=True)
        assert v == pytest.approx(K_ALPHA_ORACLE, rel=1e-10)
        assert err < 1e-10

    def test_scipy_quad_cross_check(self):
        # independent integrator over the same integrand
        z = np.array([0.4, -0.8])
        zp = np.array([-0.6, 0.5])
        alpha = 0.6

        def integrand(t):
            return t ** (alpha - 1.0) * heat_kernel_E(t, z, zp)

        ref = sum(scipy.integrate.quad(integrand, a, b, epsabs=1e-13,
                                       epsrel=1e-12)[0]
                  for a, b in ((0, 1), (1, 10), (10, 80)))
        ref /= math.gamma(alpha)
        assert k_alpha(z, zp, alpha) == pytest.approx(ref, rel=1e-9)

    def test_symmetry(self):
        z, zp = sample_pairs(2, 12, seed=9)
        np.testing.assert_allclose(k_alpha(z, zp, 0.8), k_alpha(zp, z, 0.8),
                                   rtol=1e-12)

    def test_spectral_oracle_operator_form(self):
        # int k_alpha(z, z') g(z') dz' = H^(-alpha) g: the kernel is
        # s^(-1)-singular on the diagonal in d=1 at alpha=1/2, so the
        # pairing is evaluated by exchanging the z' and t integrals;
        # the inner z' integral of E is then heat_apply_kernel and the
        # t integral is the same Gamma-weighted quadrature as k_alpha
        g = make_grid(d=1, N_rho=128, L_rho=12.0, K=24, M=128)
        f = pinned_field(g)
        paired = frac_power_kernel(f, -0.5)
        oracle = spectral_frac_power(f, -0.5)
        assert lp_norm(paired - oracle, 2) / lp_norm(oracle, 2) < 1e-5

    def test_domain_errors(self):
        z = np.array([0.5, 1.0])
        zp = np.array([-0.3, 0.2])
        with pytest.raises(InvalidParameterError):
            k_alpha(z, zp, -0.5)
        for d in (1, 2, 3):
            with pytest.raises(InvalidParameterError):
                t_quadrature(0.0, d)

    @pytest.mark.parametrize("alpha", [0.3, 0.7])
    def test_one_coordinate_points_refused(self, alpha):
        # points without an oscillator axis have no e^(-td) decay
        with pytest.raises(InvalidParameterError):
            k_alpha(np.array([0.5]), np.array([-0.3]), alpha)
        with pytest.raises(InvalidParameterError):
            t_quadrature(alpha, 0)

    def test_singular_point_refused(self):
        z = np.array([0.5, 1.0])
        with pytest.raises(SingularPointError):
            k_alpha(z, z + 1e-5, 0.5)
        # above the critical order the diagonal is fine
        assert np.isfinite(k_alpha(z, z + 1e-5, 1.5))


class TestPsiAlpha:
    def test_branch_values(self):
        assert psi_alpha(0.5, 0.5, 1) == pytest.approx(2.0, rel=1e-14)
        assert psi_alpha(0.5, 1.0, 1) == pytest.approx(abs(math.log(0.5)),
                                                       rel=1e-14)
        assert psi_alpha(0.5, 1.5, 1) == 1.0
        assert psi_alpha(2.0, 0.5, 1) == pytest.approx(math.exp(-0.25),
                                                       rel=1e-14)

    def test_vector_and_validation(self):
        s = np.array([0.1, 0.9, 1.0, 3.0])
        out = psi_alpha(s, 0.5, 1)
        assert out.shape == s.shape
        assert np.all(out > 0)
        with pytest.raises(InvalidParameterError):
            psi_alpha(np.array([0.5, 0.0]), 0.5, 1)


class TestBoundReports:
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    def test_kernel_bound_report(self, alpha):
        levels = [sample_pairs(1, 40, seed=11 + i) for i in range(2)]
        rep = kernel_bound_report(alpha, 1, levels)
        assert rep.all_passed, rep.failures()
        by_name = {m.name: m for m in rep.metrics}
        assert by_name["lower_bound_constant"].value > 0

    def test_no_blowup_above_critical_order(self):
        # alpha > (d+1)/2: kernel stays bounded down to s = 1e-3
        z = np.tile(np.array([0.3, 0.0]), (5, 1))
        s = np.array([1e-1, 1e-2, 5e-3, 2e-3, 1e-3])
        zp = z.copy()
        zp[:, 1] += s
        v = k_alpha(z, zp, 1.5)
        assert np.all(np.isfinite(v))
        assert v.max() < 1.0

    def test_schur_weighted_report(self):
        rep = schur_weighted_report(0.5, 1)
        assert rep.all_passed, rep.failures()

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_schur_weighted_report_seed_186(self, d):
        # named for the random draw (seed 186) whose column sample once
        # landed next to a node of the old fixed x-quadrature; d > 1 had
        # no column side at all then.  The sups now run over radii.
        rep = schur_weighted_report(0.5, d)
        assert rep.all_passed, rep.failures()

    @pytest.mark.parametrize("alpha", [5.0, 10.0, 80.0])
    def test_schur_d3_column_peak_at_the_origin(self, alpha):
        # at d = 3 the column integrand peaks at x = 0 (107.7 at
        # alpha = 5, about 1 past |x| = 8): both radial grids must
        # hold that peak, so the doubled grid barely moves the sup
        rep = schur_weighted_report(alpha, 3)
        assert rep.all_passed, rep.failures()
        by_name = {m.name: m for m in rep.metrics}
        assert by_name["column_refinement_growth"].value < 1.05

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    def test_column_moment_against_mpmath(self, d, alpha):
        # the x-moment of a normal law with mean x'/cosh 2t and variance
        # tanh 2t per axis; at alpha = 1 it is the elementary second
        # moment d s^2 + |m|^2, which pins the constants of the 1F1 form
        xp_sq = 6.76
        mp = mpmath.mp.clone()
        mp.dps = 20

        def integrand(t):
            s_sq = mp.tanh(2 * t)
            m_sq = xp_sq / mp.cosh(2 * t) ** 2
            if alpha == 1.0:
                moment = d * s_sq + m_sq
            else:
                moment = ((2 * s_sq) ** alpha * mp.gamma(alpha + d / 2.0)
                          / mp.gamma(d / 2.0)
                          * mp.hyp1f1(-alpha, d / 2.0, -m_sq / (2 * s_sq)))
            return (t ** (alpha - 1) * mp.cosh(2 * t) ** (-d / 2.0)
                    * mp.exp(-xp_sq * s_sq / 2) * moment)

        want = mp.quad(integrand, [0, 1e-3, 0.1, 1, 10, mp.inf]) \
            / mp.gamma(alpha)
        assert float(_moment_integral(xp_sq, alpha, d, alpha)) == \
            pytest.approx(float(want), rel=1e-12)

    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("alpha", [20.0, 30.0, 30.5])
    def test_column_moment_at_large_order(self, d, alpha):
        # at these orders scipy's 1F1 overflows at the small-t nodes,
        # where (2 s^2)^alpha underflows: the node sum of the same rule
        # with mpmath's moment, which forms neither, is the reference
        xp_sq = 30.0
        mp = mpmath.mp.clone()
        mp.dps = 30
        t, w = t_quadrature(alpha, d).nodes()
        want = mp.mpf(0)
        for tk, wk in zip(t, w):
            tk = mp.mpf(float(tk))
            s_sq = mp.tanh(2 * tk)
            moment = ((2 * s_sq) ** alpha
                      * mp.hyp1f1(-alpha, d / 2.0,
                                  -xp_sq / mp.sinh(4 * tk)))
            want += (float(wk) * tk ** (alpha - 1)
                     * mp.cosh(2 * tk) ** (-d / 2.0)
                     * mp.exp(-xp_sq * s_sq / 2) * moment)
        want *= mp.gamma(alpha + d / 2.0) / mp.gamma(d / 2.0) \
            / mp.gamma(alpha)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = float(_moment_integral(xp_sq, alpha, d, alpha))
        assert got == pytest.approx(float(want), rel=1e-12)


    @pytest.mark.parametrize("alpha", [20.0, 25.0, 30.0, 40.0, 60.0, 80.0])
    def test_row_integral_at_large_order_against_mpmath(self, alpha):
        # t^(alpha-1) e^(-t) peaks at t = alpha - 1: cut at a fixed
        # t_max = 40 this row integral erred -1.8e-5, -7.8e-4 and
        # -1.2e-2 at alpha = 20, 25, 30; with the cut past the peak and a
        # fixed log-t step it erred 8.3e-11, -4.3e-9, 2.2e-6 and -4.5e-5
        # at alpha = 30, 40, 60, 80.  The reference runs to infinity.
        mp = mpmath.mp.clone()
        mp.dps = 30
        want = mp.quad(lambda t: t ** (alpha - 1) / mp.sqrt(mp.cosh(2 * t)),
                       [0, 1, alpha - 1, 2 * alpha, mp.inf]) \
            / mp.gamma(alpha)
        got = float(_moment_integral(0.0, alpha, 1, 0.0))
        assert got == pytest.approx(float(want), rel=1e-13)

    @pytest.mark.parametrize("order", [0.0, 2.0])
    def test_moment_past_the_overflow_of_sinh(self, order):
        # alpha = 80 puts nodes past t = 177, where sinh 4t and
        # cosh^2 2t overflow; the terms take their limit 0 silently
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert t_quadrature(80.0, 1).t_max > 180.0
            got = float(_moment_integral(4.0, 80.0, 1, order))
        assert np.isfinite(got) and got > 0.0


class TestFracPowerKernel:
    def test_two_route_agreement(self):
        g = make_grid(d=1, N_rho=128, L_rho=12.0, K=24, M=128)
        f = pinned_field(g)
        for alpha in (-0.5, -0.25, 0.25, 0.5, 0.9):
            kf = frac_power_kernel(f, alpha)
            sf = spectral_frac_power(f, alpha)
            assert lp_norm(kf - sf, 2) / lp_norm(sf, 2) < 1e-4

    def test_composition_returns_identity(self):
        g = make_grid(d=1, N_rho=128, L_rho=12.0, K=24, M=128)
        f = pinned_field(g)
        comp = frac_power_kernel(frac_power_kernel(f, -0.5), 0.5)
        assert lp_norm(comp - f, 2) / lp_norm(f, 2) < 1e-3

    def test_scalar_reduction_on_ground_mode(self):
        # constant in rho, ground Hermite mode: eigenvalue d, so the
        # output must be d^alpha times the input (= 1 at d = 1)
        g = make_grid(d=1, N_rho=128, L_rho=12.0, K=24, M=128)
        phi0 = sample(g, lambda r, x: np.pi ** -0.25 * np.exp(-x ** 2 / 2))
        out = frac_power_kernel(phi0, 0.5)
        ratio = out.values[64, 64].real / phi0.values[64, 64].real
        assert abs(ratio - 1.0) < 1e-5

    def test_range_validation(self):
        g = make_grid(d=1, N_rho=32, L_rho=8.0, K=4, M=16)
        f = sample(g, lambda r, x: np.exp(-r ** 2 - x ** 2))
        for bad in (0.0, 1.0, 1.3, -1.0, -2.5):
            with pytest.raises(InvalidParameterError):
                frac_power_kernel(f, bad)

    def test_adjoint_symmetry(self):
        # H^alpha is self-adjoint; the kernel route must inherit this
        g = make_grid(d=1, N_rho=64, L_rho=10.0, K=12, M=64)
        f = sample(g, lambda r, x: np.exp(-0.6 * r ** 2 - 0.5 * x ** 2))
        h = sample(g, lambda r, x: (x + 0.3) * np.exp(-0.5 * r ** 2
                                                      - 0.7 * x ** 2))
        lhs = inner(frac_power_kernel(f, -0.5), h)
        rhs = inner(f, frac_power_kernel(h, -0.5))
        assert abs(lhs - rhs) / abs(lhs) < 1e-6


    @pytest.mark.parametrize("route", ["heat_apply_kernel", "frac_power_kernel",
                                       "frac_power_kernel_complex",
                                       "hls_check"])
    def test_kernel_warnings_name_the_call_site(self, route):
        # the capped-images TruncationWarning and the resolution-floor
        # ResolutionWarning are raised at different depths of the
        # kernel route; each names the line here that called into the
        # package.  On L_rho = 0.5 a t past 6 needs more than 32
        # images; on M - K = 2 the time floor is past 0.2.
        narrow = make_grid(1, 8, 0.5, 4, 6)
        f = TestFamily("band_limited", 2, seed=0).member(narrow, 0)
        with warnings.catch_warnings(record=True) as got:
            warnings.simplefilter("always")
            if route == "heat_apply_kernel":
                heat_apply_kernel(f, 10.0)
            elif route == "frac_power_kernel":
                frac_power_kernel(f, -0.25)
            elif route == "frac_power_kernel_complex":
                frac_power_kernel(f + 1j * f, -0.25)
            else:
                with pytest.raises(QuadratureError):
                    hls_check(0.5, 2.0, 4.0, 1,
                              TestFamily("band_limited", 2, seed=0),
                              grid=make_grid(1, 8, 6.0, 4, 6))
        want = {"heat_apply_kernel": {TruncationWarning},
                "hls_check": {ResolutionWarning}}.get(
                    route, {TruncationWarning, ResolutionWarning})
        assert {w.category for w in got} == want
        assert all(w.filename == __file__ for w in got)


class TestFracPowerRealPath:
    """A field is real iff its values are float64: a real sample runs
    as a one-field stack, any complex field as its real and imaginary
    parts, two real fields."""

    @pytest.mark.parametrize("alpha,shift", [(-0.5, 0.0), (0.5, 0.0),
                                             (-0.5, 2.0)])
    def test_zero_imaginary_part_runs_real(self, alpha, shift, monkeypatch):
        # a real sample is float64 and runs as one one-field stack; its
        # values with a zero imaginary part are a complex field, two
        # one-field stacks per apply, and give the real field's bits
        import pharmonic.heat_kernel as hk
        g = make_grid(d=1, N_rho=32, L_rho=8.0, K=8, M=24)
        f = sample(g, lambda r, x: np.exp(-0.5 * (r - 0.3) ** 2
                                          - 0.6 * x ** 2) * (1 + 0.4 * x))
        assert f.values.dtype == np.float64
        seen = []
        apply = hk._heat_stack

        def spy(g, stack, t, bufs=None, scale=1.0):
            seen.append((stack.dtype, stack.shape))
            return apply(g, stack, t, bufs, scale)

        monkeypatch.setattr(hk, "_heat_stack", spy)
        nodes = []
        spy_on_nodes(monkeypatch, nodes)
        out = frac_power_kernel(f, alpha, shift=shift)
        assert set(seen) == {(np.dtype(np.float64), (1,) + g.shape)}
        # 6 applies for the head's semigroup differences, one per node
        assert len(seen) == 6 + nodes[0]
        assert out.values.dtype == np.float64
        seen.clear()
        two = frac_power_kernel(Field(g, f.values + 0j), alpha, shift=shift)
        assert set(seen) == {(np.dtype(np.float64), (1,) + g.shape)}
        assert len(seen) == 2 * (6 + nodes[0])
        assert two.values.dtype == np.complex128
        assert not two.values.imag.any()
        assert two.values.real.tobytes() == out.values.tobytes()

    @pytest.mark.parametrize("alpha,shift", [(-0.5, 0.0), (0.5, 0.0),
                                             (-0.5, 2.0)])
    def test_real_path_has_the_two_plane_bits(self, alpha, shift):
        # a complex field's real part runs as a real field of its own,
        # so the complex image's real part has the real image's bits
        g = make_grid(d=1, N_rho=32, L_rho=8.0, K=8, M=24)
        re = sample(g, lambda r, x: np.exp(-0.5 * r ** 2 - 0.5 * x ** 2)
                    * (1 + 0.3 * r)).values.real.copy()
        im = sample(g, lambda r, x: np.exp(-0.7 * (r - 0.2) ** 2
                                           - 0.6 * x ** 2)).values.real.copy()
        out = frac_power_kernel(Field(g, re + 1j * im), alpha, shift=shift)
        want = frac_power_kernel(Field(g, re), alpha, shift=shift)
        assert out.values.real.tobytes() == want.values.tobytes()

    @pytest.mark.parametrize("alpha,shift", [(-0.5, 0.0), (0.5, 0.0),
                                             (-0.5, 2.0)])
    def test_complex_field_is_two_real_fields(self, alpha, shift):
        # bit for bit, for the heat apply and the fractional power, on
        # grids with the Hermite headroom the kernel route resolves
        for d, k, m in [(1, 8, 24), (2, 2, 18), (3, 2, 18)]:
            g = make_grid(d=d, N_rho=32, L_rho=6.0, K=k, M=m)
            f = random_fields(g, "complex", 1, seed=d)[0]
            re = Field(g, f.values.real.copy())
            im = Field(g, f.values.imag.copy())
            for image in (lambda h: heat_apply_kernel(h, 0.4),
                          lambda h: frac_power_kernel(h, alpha, shift)):
                out = image(f).values
                assert out.dtype == np.complex128
                assert out.real.tobytes() == image(re).values.tobytes()
                assert out.imag.tobytes() == image(im).values.tobytes()


def random_fields(g, kind, n, seed):
    """n random fields on g: real dtype, complex, complex with a zero
    imaginary part (still a complex field), or those three in turn
    ("mixed")."""
    rng = np.random.default_rng(seed)
    kinds = ["real", "complex", "zero_imag"] if kind == "mixed" else [kind]
    out = []
    for i in range(n):
        values = rng.standard_normal(g.shape)
        k = kinds[i % len(kinds)]
        if k == "complex":
            values = values + 1j * rng.standard_normal(g.shape)
        elif k == "zero_imag":
            values = values + 0j
        out.append(Field(g, values))
    return out


def spy_on(monkeypatch, name, seen):
    """Record the stack shape of every call to heat_kernel.<name>."""
    real = getattr(hk, name)

    def spy(g, stack, *args):
        seen.append(stack.shape)
        return real(g, stack, *args)

    monkeypatch.setattr(hk, name, spy)


def spy_on_nodes(monkeypatch, counts):
    """Record the panel node count of every fractional power."""
    real = hk._frac_nodes

    def spy(*args):
        counts.append(real(*args))
        return counts[-1]

    monkeypatch.setattr(hk, "_frac_nodes", spy)


class TestStackedRoute:
    """The member-stacked kernel route against one field at a time."""

    @pytest.mark.parametrize("d,n_rho,m", [(1, 16, 12), (2, 8, 10),
                                           (3, 8, 6)])
    @pytest.mark.parametrize("b", [1, 3])
    @pytest.mark.parametrize("kind", ["real", "complex", "zero_imag",
                                      "mixed"])
    def test_stacked_apply_is_single_applies(self, d, n_rho, m, b, kind):
        # the real fields of the kind: each float64 field, and the real
        # and imaginary parts of each complex one
        g = make_grid(d=d, N_rho=n_rho, L_rho=6.0, K=m - 2, M=m)
        fields = random_fields(g, kind, b, seed=10 * d + b)
        parts = [p.copy() for f in fields for p in (
            (f.values.real, f.values.imag) if np.iscomplexobj(f.values)
            else (f.values,))]
        stack = np.stack(parts)
        bufs = (np.empty_like(stack), np.empty_like(stack))
        out = hk._heat_stack(g, stack, 0.4, bufs)
        assert any(np.shares_memory(out, buf) for buf in bufs)
        for part, got in zip(parts, out):
            want = heat_apply_kernel(Field(g, part), 0.4).values
            assert want.dtype == np.float64
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("planes", [None, 3, 2])
    @pytest.mark.parametrize("alpha,shift", [(0.5, 0.0), (0.5, 2.0)])
    def test_hls_images_are_per_member_powers(self, planes, alpha, shift,
                                              monkeypatch):
        # the default d = 1 hls family, 40 members in one stack, or
        # forced into stacks of `planes` planes by a smaller slab
        g = inequalities._default_grid(1)
        if planes is not None:
            monkeypatch.setattr(grid_module, "_SLAB_BYTES",
                                8 * planes * math.prod(g.shape))
        scored = []
        ratio = inequalities._ratio_hls

        def keep(f, k, *args):
            scored.append((f, k.values.copy()))
            return ratio(f, k, *args)

        monkeypatch.setattr(inequalities, "_ratio_hls", keep)
        stacks = []
        spy_on(monkeypatch, "_frac_power_stack", stacks)
        family = TestFamily("band_limited", 10, seed=3)
        if shift == 0.0:
            inequalities.hls_check(alpha, 2.0, 4.0, 1, family)
        else:
            inequalities._hls_core(alpha, 2.0, 4.0, 1, shift, family, None)
        per_stack = 40 if planes is None else planes
        assert [s[0] for s in stacks] == \
            [per_stack] * (40 // per_stack) + [40 % per_stack] * (
                40 % per_stack > 0)
        assert [f.values.tobytes() for f, _ in scored] == [
            family.member(g, i).values.tobytes() for i in range(40)]
        for f, k in scored:
            want = frac_power_kernel(f, -0.5 * alpha, shift=shift).values
            assert k.tobytes() == want.tobytes()

    def test_default_hls_suite_is_one_stacked_power(self, monkeypatch):
        # one stacked apply per time for the whole family, not one per
        # member and time
        seen, nodes = [], []
        spy_on(monkeypatch, "_heat_stack", seen)
        spy_on_nodes(monkeypatch, nodes)
        rep = run_suite(build_config(_parser().parse_args(["--suite",
                                                           "hls"])))
        assert rep.all_passed
        assert len(nodes) == 1
        assert seen == [(40, 64, 40)] * (6 + nodes[0])

    def test_d3_power_peak_memory(self):
        # a band_limited member is one float64 plane, run uncopied: two
        # work buffers and the accumulator are three planes (25.2 MB),
        # plus the small kernel matrices
        g = make_grid(3, 32, 8.0, 8, 32)
        f = TestFamily("band_limited", 1, seed=0).member(g, 0)
        assert f.values.dtype == np.float64
        tracemalloc.start()
        try:
            frac_power_kernel(f, -0.25, shift=-2.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.1 * f.values.nbytes


class TestPanelBudget:
    """The fractional-power panel's node count against its error budget,
    on the grid's own eigenvalues (which the count never sees)."""

    @staticmethod
    def panel_error(g, alpha, shift, n):
        # the n-node panel against a 128-node one, relative to the whole
        # integral Gamma(-alpha) mu^alpha, over the spectrum of H + shift
        tf = hk._kernel_t_floor(g)
        mu = np.unique(g.eigenvalues(shift))[:, None]
        edges = np.log([tf, 40.0 / (g.d + shift)])

        def panel(m):
            y, wy = _gl_panels(edges, m)
            return np.exp(-alpha * y - mu * np.exp(y)) @ wy

        scale = abs(math.gamma(-alpha)) * mu[:, 0] ** alpha
        return np.max(np.abs(panel(n) - panel(128)) / scale)

    @pytest.mark.parametrize("shape", [
        (1, 64, 10.0, 8, 40),       # default family grids
        (3, 32, 8.0, 8, 32),
        (1, 128, 12.0, 24, 128),    # powers
        (1, 128, 10.0, 8, 40),      # N_rho x 2
        (3, 64, 8.0, 8, 32),
        (1, 64, 10.0, 12, 40),      # K + 4
        (3, 32, 8.0, 12, 32),
        (2, 32, 8.0, 8, 32),
    ])
    def test_chosen_count_meets_the_budget(self, shape):
        g = make_grid(*shape)
        d = g.d
        tf = hk._kernel_t_floor(g)
        for alpha in (-(d + 1) / 2.0 + 0.01, -0.5, -0.25, 0.5, 0.99):
            shifts = (0.0, 2.0, -(d - 0.5)) if alpha < 0 else (0.0,)
            for shift in shifts:
                n = hk._frac_nodes(tf, d + shift, alpha)
                err = self.panel_error(g, alpha, shift, n)
                assert err <= hk._RESOLUTION, (alpha, shift, n, err)

    @pytest.mark.parametrize("shape,alpha,shift,want", [
        ((3, 32, 8.0, 8, 32), -0.25, -2.0, 20),     # the d = 3 gate
        ((1, 128, 12.0, 24, 128), 0.5, 0.0, 20),    # powers
        ((1, 128, 12.0, 24, 128), -0.5, 0.0, 24),
        ((1, 128, 12.0, 24, 128), -0.99, -0.5, 28),  # a long panel
    ])
    def test_counts(self, shape, alpha, shift, want):
        # a fixed 24 errs by 1.6e-7 on the long panel
        g = make_grid(*shape)
        tf = hk._kernel_t_floor(g)
        assert hk._frac_nodes(tf, g.d + shift, alpha) == want
        if want > 24:
            assert self.panel_error(g, alpha, shift, 24) > 1e-7


class TestShiftedPower:
    def test_two_route_agreement(self):
        g = make_grid(d=1, N_rho=128, L_rho=12.0, K=24, M=128)
        f = pinned_field(g)
        kf = frac_power_kernel(f, -0.25, shift=2.0)
        sf = spectral_frac_power(f, -0.25, shift=2.0)
        assert lp_norm(kf - sf, 2) / lp_norm(sf, 2) < 1e-5

    def test_round_trip_against_spectral_inverse(self):
        g = make_grid(d=1, N_rho=64, L_rho=10.0, K=8, M=40)
        f = sample(g, lambda r, x: np.exp(-0.5 * (r - 0.4) ** 2
                                          - 0.5 * x ** 2))
        k = frac_power_kernel(f, -0.5, shift=2.0)
        back = spectral_frac_power(k, 0.5, shift=2.0)
        assert lp_norm(back - f, 2) / lp_norm(f, 2) < 1e-3

    def test_shift_shrinks_positive_images(self):
        # e^(-t(H+2)) = e^(-2t) e^(-tH): the shifted kernel is smaller,
        # so on a nonnegative input the image norm must drop
        g = make_grid(d=1, N_rho=64, L_rho=10.0, K=8, M=40)
        f = sample(g, lambda r, x: np.exp(-0.5 * r ** 2 - 0.5 * x ** 2))
        plain = lp_norm(frac_power_kernel(f, -0.5), 2)
        shifted = lp_norm(frac_power_kernel(f, -0.5, shift=2.0), 2)
        assert shifted < plain

    def test_shift_rejected_for_positive_alpha(self):
        g = make_grid(d=1, N_rho=32, L_rho=8.0, K=4, M=16)
        f = sample(g, lambda r, x: np.exp(-r ** 2 - x ** 2))
        with pytest.raises(InvalidParameterError):
            frac_power_kernel(f, 0.5, shift=2.0)

    @pytest.mark.parametrize("shift", [math.nan, math.inf])
    def test_nonfinite_shift_rejected(self, shift):
        g = make_grid(d=1, N_rho=32, L_rho=8.0, K=4, M=16)
        f = sample(g, lambda r, x: np.exp(-r ** 2 - x ** 2))
        with pytest.raises(InvalidParameterError):
            frac_power_kernel(f, -0.5, shift=shift)

    def test_shift_below_spectral_bottom_rejected(self):
        # d = 1: H - 2 has spectrum down to -1, no decaying heat flow
        g = make_grid(d=1, N_rho=32, L_rho=8.0, K=4, M=16)
        f = sample(g, lambda r, x: np.exp(-r ** 2 - x ** 2))
        with pytest.raises(DomainError):
            frac_power_kernel(f, -0.5, shift=-2.0)


class TestRouteIndependence:
    """The kernel and symbol routes never touch eigenbasis data; if they
    did, their agreement with the eigenbasis route would prove nothing."""

    @pytest.mark.parametrize("module", ["heat_kernel", "symbols"])
    def test_no_eigenbasis_imports_or_names(self, module):
        path = pathlib.Path(pharmonic.__file__).with_name(f"{module}.py")
        tree = ast.parse(path.read_text())
        modules = {"spectral", "ladder", "sobolev"}
        names = {"eigenvalues", "forward", "inverse", "hermite_all"}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                assert not set((node.module or "").split(".")) & modules
            if isinstance(node, ast.alias):         # every imported name
                assert not set(node.name.split(".")) & (modules | names)
            used = {getattr(node, "id", None), getattr(node, "attr", None),
                    getattr(node, "asname", None)}
            assert not used & names, ast.dump(node)
