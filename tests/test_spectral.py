import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pharmonic import (
    AliasingWarning,
    Field,
    InvalidParameterError,
    SingularMultiplierError,
    SpectralCoeffs,
    TruncationWarning,
    UniformBox,
    apply_multiplier,
    forward,
    heat_spectral,
    inner,
    inverse,
    lp_norm,
    make_grid,
    mode_field,
    phi_mu,
    plancherel_norm,
    power_multiplier,
    resample,
    sample,
    spectral_frac_power,
    tail_energy,
)
from pharmonic import spectral as spectral_module
from pharmonic.grid import (_box_lp_norm_coeffs, _box_series, _x_series,
                            box_lp_norm)
from pharmonic.heat_kernel import frac_power_kernel, heat_apply_kernel
from pharmonic.hermite import hermite_all, hermite_eval
from pharmonic.ladder import apply_A, riesz
from pharmonic.spectral import _alt_sign, _grid_series, _is_real_series
from pharmonic.symbols import constant_symbol_fn, quantize


def _random_coeffs(g, seed=0):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((g.N_rho, g.n_mu)) \
        + 1j * rng.standard_normal((g.N_rho, g.n_mu))
    return SpectralCoeffs(g, data)


def test_round_trip():
    for d in (1, 2):
        g = make_grid(d=d, N_rho=32, L_rho=6.0, K=6, M=10)
        c = _random_coeffs(g, seed=d)
        back = forward(inverse(c))
        assert np.abs(back.data - c.data).max() < 1e-13 * np.abs(c.data).max()


def test_pure_mode_coefficient():
    g = make_grid(d=2, N_rho=32, L_rho=6.0, K=6, M=10)
    f = mode_field(g, 3, (2, 1))
    c = forward(f).data
    i = g.mode_index((2, 1))
    assert abs(c[3, i] - 1.0) < 1e-13
    c[3, i] = 0.0
    assert np.abs(c).max() < 1e-13


def test_negative_frequency_mode():
    g = make_grid(d=1, N_rho=16, L_rho=5.0, K=3, M=5)
    f = mode_field(g, -4, (1,))
    want = sample(g, lambda rho, x: np.exp(-1j * (4 * np.pi / 5.0) * rho)
                  * phi_mu(np.array([1]), x[..., None]))
    assert np.abs(f.values - want.values).max() < 1e-12
    with pytest.raises(InvalidParameterError):
        mode_field(g, 8, (0,))  # Nyquist+ frequency not representable


def test_plancherel():
    g = make_grid(d=1, N_rho=64, L_rho=7.0, K=10, M=14)
    c = _random_coeffs(g, seed=3)
    f = inverse(c)
    assert plancherel_norm(c) == pytest.approx(lp_norm(f, 2), rel=1e-12)
    # and against the inner product
    assert plancherel_norm(c) ** 2 == pytest.approx(inner(f, f).real, rel=1e-12)


def test_eigenvalues_floor():
    g = make_grid(d=2, N_rho=16, L_rho=5.0, K=4, M=6)
    lam = g.eigenvalues()
    assert lam.min() == pytest.approx(g.d)  # bottom of the spectrum
    assert lam.shape == (g.N_rho, g.n_mu)


def test_multiplier_is_diagonal_action():
    # H f on an eigenmode is lambda f
    g = make_grid(d=1, N_rho=16, L_rho=5.0, K=4, M=6)
    f = mode_field(g, 2, (3,))
    lam = (2 * np.pi / 5.0) ** 2 + 2 * 3 + 1
    g_out = inverse(apply_multiplier(forward(f), g.eigenvalues()))
    assert np.abs(g_out.values - lam * f.values).max() < 1e-10


def test_power_semigroup_law():
    g = make_grid(d=1, N_rho=32, L_rho=6.0, K=8, M=12)
    f = inverse(_random_coeffs(g, seed=5))
    # random coefficients fill the top shell; the tail warning is moot here
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        half = spectral_frac_power(spectral_frac_power(f, 0.5), 0.5)
        full = spectral_frac_power(f, 1.0)
    num = lp_norm(half - full, 2)
    den = lp_norm(full, 2)
    assert num < 1e-12 * den


def test_power_inverse_composition():
    g = make_grid(d=1, N_rho=32, L_rho=6.0, K=8, M=12)
    f = inverse(_random_coeffs(g, seed=6))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        back = spectral_frac_power(spectral_frac_power(f, -0.5), 0.5)
    assert lp_norm(back - f, 2) < 1e-12 * lp_norm(f, 2)


def test_singular_multiplier_detection():
    g = make_grid(d=1, N_rho=16, L_rho=5.0, K=4, M=6)
    # lambda - 2 reaches -1 at the bottom mode
    with pytest.raises(SingularMultiplierError):
        power_multiplier(g, -0.5, shift=-2.0)
    with pytest.raises(SingularMultiplierError):
        power_multiplier(g, 0.5, shift=-2.0)
    # integer positive powers tolerate sign changes
    m = power_multiplier(g, 1.0, shift=-2.0)
    assert m.min() < 0
    with pytest.raises(SingularMultiplierError):
        apply_multiplier(_random_coeffs(g), np.full((16, g.n_mu), np.nan))


def test_heat_closed_form_gaussian():
    # e^{-tH} of e^{-rho^2/2} Phi_0 separates: free heat flow in rho,
    # pure e^{-td} decay of the ground mode in x
    g = make_grid(d=1, N_rho=128, L_rho=16.0, K=4, M=8)
    f = sample(g, lambda rho, x: np.exp(-rho ** 2 / 2)
               * phi_mu(np.array([0]), x[..., None]))
    for t in (0.1, 0.5, 2.0):
        got = heat_spectral(f, t)
        s = 1.0 + 2.0 * t
        want = sample(g, lambda rho, x, s=s, t=t: np.exp(-t * g.d) * s ** -0.5
                      * np.exp(-rho ** 2 / (2 * s))
                      * phi_mu(np.array([0]), x[..., None]))
        assert np.abs(got.values - want.values).max() < 1e-8


def test_heat_requires_positive_time():
    g = make_grid(d=1, N_rho=16, L_rho=5.0, K=2, M=4)
    f = mode_field(g, 0, (0,))
    with pytest.raises(InvalidParameterError):
        heat_spectral(f, 0.0)


def test_positive_power_tail_warning():
    g = make_grid(d=1, N_rho=16, L_rho=5.0, K=4, M=6)
    f = mode_field(g, 0, (g.K,))
    with pytest.warns(TruncationWarning):
        spectral_frac_power(f, 0.5)


def _tail_field(g, tail):
    """A real field whose tail_energy is tail: the ground mode plus the
    top-shell mode, energies 1 - tail and tail."""
    c = np.zeros((g.N_rho, g.n_mu), dtype=np.complex128)
    c[0, g.mode_index((0,))] = np.sqrt(1.0 - tail)
    c[0, g.mode_index((g.K,))] = np.sqrt(tail)
    return inverse(SpectralCoeffs(g, c))


def _ring_values(n, ring):
    """Box values whose fft2 puts the share ring of its energy on the
    Nyquist rings: a constant plus the rho-Nyquist alternation."""
    alt = (-1.0) ** np.arange(n)[:, None] * np.ones((1, n))
    return np.sqrt(1.0 - ring) + np.sqrt(ring) * alt


@pytest.mark.parametrize("route", ["spectral_frac_power", "resample",
                                   "quantize"])
def test_tail_warnings_fire_above_1e_6_only(route):
    # each route warns on a tail share just above 1e-6, never just below
    g = make_grid(d=1, N_rho=16, L_rho=5.0, K=4, M=6)
    box = UniformBox((2.0, 2.0), (8, 8))

    def run(tail):
        if route == "spectral_frac_power":
            f = _tail_field(g, tail)
            assert tail_energy(forward(f)) == pytest.approx(tail, rel=1e-6)
            spectral_frac_power(f, 0.5)
        elif route == "resample":
            resample(_tail_field(g, tail), box)
        else:
            quantize(constant_symbol_fn(), _ring_values(8, tail), box)

    category = AliasingWarning if route == "quantize" else TruncationWarning
    with pytest.warns(category, match="1.0e-06"):
        run(1.01e-6)
    with warnings.catch_warnings(record=True) as got:
        warnings.simplefilter("always")
        run(0.99e-6)
    assert [w for w in got if issubclass(w.category, category)] == []


# The transforms as first written, one tensordot per x axis that consumes
# the leading axis and appends the new one at the end; kept as the
# reference for the in-place per-axis contractions.

def _scatter(g, data):
    cube = np.zeros((g.N_rho,) + (g.K + 1,) * g.d, dtype=np.complex128)
    cube[(slice(None),) + tuple(g.mu.T)] = data
    return cube


def tensordot_forward(field):
    g = field.grid
    u = field.values
    wtab = g.hermite_table * g.weights_x[None, :]
    for _ in range(g.d):
        u = np.tensordot(u, wtab, axes=([1], [1]))
    u = u[(slice(None),) + tuple(g.mu.T)]
    return _alt_sign(g) * np.fft.fft(u, axis=0) / g.N_rho


def tensordot_inverse(coeffs):
    g = coeffs.grid
    out = _scatter(g, g.N_rho * np.fft.ifft(_alt_sign(g) * coeffs.data,
                                            axis=0))
    for _ in range(g.d):
        out = np.tensordot(out, g.hermite_table, axes=([1], [0]))
    return out


def tensordot_resample(field, box):
    g = field.grid
    axes = box.axes()
    out = _scatter(g, tensordot_forward(field))
    for axis in range(g.d):
        out = np.tensordot(out, hermite_all(g.K, axes[axis + 1]),
                           axes=([1], [0]))
    phases = np.exp(1j * np.outer(axes[0], g.tau))
    return np.tensordot(phases, out, axes=([1], [0]))


def assert_rel_close(out, ref, rel):
    assert out.shape == ref.shape
    assert np.abs(out - ref).max() <= rel * np.abs(ref).max()


grids = st.builds(
    lambda d, log2_n, L, K, extra: make_grid(d=d, N_rho=2 ** log2_n,
                                             L_rho=L, K=K, M=K + 1 + extra),
    d=st.integers(1, 3), log2_n=st.integers(1, 5), L=st.floats(1.0, 10.0),
    K=st.integers(0, 6), extra=st.integers(0, 3))


class TestTransformsFactored:
    @settings(max_examples=50, deadline=None)
    @given(g=grids, seed=st.integers(0, 2 ** 32 - 1))
    def test_forward_inverse_equal_tensordot_reference(self, g, seed):
        rng = np.random.default_rng(seed)
        f = Field(g, rng.standard_normal(g.shape)
                  + 1j * rng.standard_normal(g.shape))
        assert_rel_close(forward(f).data, tensordot_forward(f), 1e-14)
        c = _random_coeffs(g, seed=seed)
        assert_rel_close(inverse(c).values, tensordot_inverse(c), 1e-14)

    @settings(max_examples=50, deadline=None)
    @given(g=grids, seed=st.integers(0, 2 ** 32 - 1),
           half=st.lists(st.floats(0.5, 8.0), min_size=4, max_size=4),
           half_counts=st.lists(st.integers(1, 6), min_size=4, max_size=4))
    def test_resample_equals_tensordot_reference(self, g, seed, half,
                                                 half_counts):
        box = UniformBox(tuple(half[:g.d + 1]),
                         tuple(2 * n for n in half_counts[:g.d + 1]))
        rng = np.random.default_rng(seed)
        f = Field(g, rng.standard_normal(g.shape)
                  + 1j * rng.standard_normal(g.shape))
        with warnings.catch_warnings():
            # random fields fill the top shell; the warning is not tested here
            warnings.simplefilter("ignore", TruncationWarning)
            out = resample(f, box)
        assert_rel_close(out, tensordot_resample(f, box), 1e-14)

    @settings(max_examples=50, deadline=None)
    @given(g=grids, seed=st.integers(0, 2 ** 32 - 1))
    def test_round_trip_band_limited(self, g, seed):
        c = _random_coeffs(g, seed=seed)
        f = inverse(c)
        assert_rel_close(forward(f).data, c.data, 1e-13)
        assert_rel_close(inverse(forward(f)).values, f.values, 1e-13)


@settings(max_examples=50, deadline=None)
@given(g=grids, seed=st.integers(0, 2 ** 32 - 1))
def test_plancherel_on_ladder_images(g, seed):
    # the grid L^2 quadrature of a truncated series is its coefficient
    # norm: Gauss-Hermite with M >= K + 1 is exact on h_k h_l (k, l <= K)
    # and the rho trapezoid on two frequencies in [-N/2, N/2); so for
    # random coefficients and each of their ladder images the two agree
    # to rounding (raising needs an empty top shell, so it acts on c_low)
    c = _random_coeffs(g, seed=seed)
    low = c.data.copy()
    low[:, g.mu_abs == g.K] = 0.0
    c_low = SpectralCoeffs(g, low)
    images = [c] + [apply_A(j, c_low if j > 0 else c)
                    for j in range(-g.d, g.d + 1)]
    for im in images:
        want = plancherel_norm(im)
        assert abs(lp_norm(inverse(im), 2) - want) <= 1e-13 * want


# ---------------------------------------------------------------------------
# real series: exactly Hermitian coefficients summed on real arrays


def _hermitian_coeffs(g, seed):
    """Random coefficients with c[-n] = conj c[n] bit for bit, so real
    DC and Nyquist rows: the band_limited construction without envelope
    or band limit."""
    c = _random_coeffs(g, seed=seed).data
    c = 0.5 * (c + np.conj(c[(-np.arange(g.N_rho)) % g.N_rho]))
    return SpectralCoeffs(g, c)


class TestRealSeries:
    @settings(max_examples=40, deadline=None)
    @given(d=st.integers(1, 3), log2_n=st.integers(1, 4),
           L=st.floats(1.0, 8.0), K=st.integers(0, 4),
           extra=st.integers(0, 2),
           half=st.lists(st.floats(0.5, 6.0), min_size=4, max_size=4),
           half_counts=st.lists(st.integers(1, 5), min_size=4, max_size=4),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_real_path_matches_complex_path(self, d, log2_n, L, K, extra,
                                            half, half_counts, seed):
        g = make_grid(d, 2 ** log2_n, L, K, K + 1 + extra)
        c = _hermitian_coeffs(g, seed)
        assert _is_real_series(c.data)
        f = inverse(c)
        assert f.values.dtype == np.float64
        with mock.patch.object(spectral_module, "_is_real_series",
                               lambda data: False):
            ref = inverse(c).values
        tol = 1e-15 * np.abs(ref).max()
        assert np.abs(f.values - ref).max() <= tol

        box = UniformBox(tuple(half[:d + 1]),
                         tuple(2 * n for n in half_counts[:d + 1]))
        w = np.random.default_rng(seed).uniform(0.0, 2.0, box.counts)
        with warnings.catch_warnings():
            # random coefficients fill the top shell; not tested here
            warnings.simplefilter("ignore", TruncationWarning)
            assert _box_series(c, box)[0].dtype == np.float64
            vals = resample(f, box)
            for p in (1.0, 2.5, 4.0, np.inf):
                for weight in (None, w):
                    got = _box_lp_norm_coeffs(c, box, p, weight)
                    want = box_lp_norm(vals if weight is None
                                       else weight * vals, box, p)
                    assert abs(got - want) <= 1e-14 * want

    @settings(max_examples=30, deadline=None)
    @given(d=st.integers(1, 3), log2_n=st.integers(2, 4),
           K=st.integers(0, 3), row=st.integers(1, 2 ** 4),
           col=st.integers(0, 2 ** 8), seed=st.integers(0, 2 ** 32 - 1))
    def test_one_ulp_asymmetry_takes_complex_path(self, d, log2_n, K, row,
                                                  col, seed):
        g = make_grid(d, 2 ** log2_n, 4.0, K, K + 1)
        c = _hermitian_coeffs(g, seed).data
        n = 1 + row % (g.N_rho // 2 - 1)        # paired with -n
        m = col % g.n_mu
        c[n, m] = np.nextafter(c[n, m].real, np.inf) + 1j * c[n, m].imag
        assert not _is_real_series(c)
        bad = SpectralCoeffs(g, c)
        assert _grid_series(bad).dtype == np.complex128
        box = UniformBox((1.0,) * (d + 1), (4,) * (d + 1))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            assert _box_series(bad, box)[0].dtype == np.complex128

    def test_real_nyquist_row_takes_real_path(self):
        # the real series reads the Nyquist plane wave as a cosine: its
        # box values are the real part of the complex path's, which
        # also holds the sine between the grid points
        g = make_grid(1, 8, 4.0, 2, 3)
        c = _hermitian_coeffs(g, 3)
        c.data[g.N_rho // 2, 0] = 1.0
        assert _is_real_series(c.data)
        box = UniformBox((3.0, 2.0), (10, 6))
        with warnings.catch_warnings():
            # random coefficients fill the top shell; not tested here
            warnings.simplefilter("ignore", TruncationWarning)
            vals = _x_series(*_box_series(c, box))
            with mock.patch.object(spectral_module, "_is_real_series",
                                   lambda data: False):
                ref = _x_series(*_box_series(c, box))
        assert vals.dtype == np.float64 and ref.dtype == np.complex128
        assert np.abs(ref.imag).max() > 0.1
        assert np.abs(vals - ref.real).max() <= 1e-15 * np.abs(ref).max()

    def test_ladder_images_stay_real_series(self):
        # A_{+-j} act on mu alone and keep a real series real; A_0 takes
        # the real Nyquist row to an imaginary one (the grid values of
        # -d/drho c_N e^(i tau_N rho) are imaginary), so its image is a
        # real series only when that row is zero
        g = make_grid(2, 16, 5.0, 4, 6)
        c = _hermitian_coeffs(g, 11)
        assert np.abs(c.data[g.N_rho // 2]).max() > 0.0
        low = c.data.copy()
        low[:, g.mu_abs == g.K] = 0.0
        c_low = SpectralCoeffs(g, low)
        for j in range(-g.d, g.d + 1):
            assert _is_real_series(apply_A(j, c_low).data) == (j != 0)
        low[g.N_rho // 2] = 0.0
        assert _is_real_series(apply_A(0, c_low).data)


# ---------------------------------------------------------------------------
# one realness rule: a field is real iff its values are float64


def _band_sample(g, seed):
    """A real sample in the span of the grid's modes below the top
    Hermite shell and the Nyquist frequency: three terms
    a cos(tau_n rho + phase) Phi_mu(x), |mu| <= K - 1."""
    rng = np.random.default_rng(seed)
    low = g.mu[g.mu_abs < g.K]
    terms = [(rng.standard_normal(), rng.uniform(0.0, 2.0 * np.pi),
              np.pi / g.L_rho * rng.integers(0, max(g.N_rho // 2 - 1, 1)),
              low[rng.integers(len(low))]) for _ in range(3)]

    def fn(r, *xs):
        out = 0.0
        for a, phase, tau, mu in terms:
            term = a * np.cos(tau * r + phase)
            for x, m in zip(xs, mu):
                term = term * hermite_eval(int(m), x)
            out = out + term
        return out

    return sample(g, fn)


class TestRealnessRule:
    @settings(max_examples=25, deadline=None)
    @given(d=st.integers(1, 3), log2_n=st.integers(1, 4),
           L=st.floats(2.0, 8.0), K=st.integers(1, 4),
           extra=st.integers(0, 2), t=st.floats(0.05, 2.0),
           alpha=st.sampled_from([-0.5, 0.5]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_real_sample_stays_float64(self, d, log2_n, L, K, extra, t,
                                       alpha, seed):
        g = make_grid(d, 2 ** log2_n, L, K, K + 1 + extra)
        f = _band_sample(g, seed)
        assert f.values.dtype == np.float64
        c = forward(f)
        assert _is_real_series(c.data)
        back = inverse(c).values
        assert back.dtype == np.float64
        scale = max(np.abs(f.values).max(), 1e-300)
        assert np.abs(back - f.values).max() < 1e-13 * scale
        with warnings.catch_warnings():
            # tails, and the kernel floor on these small grids: the
            # dtype is tested here, not the accuracy
            warnings.simplefilter("ignore")
            images = [heat_spectral(f, t), spectral_frac_power(f, alpha),
                      heat_apply_kernel(f, t), frac_power_kernel(f, alpha)]
            images += [riesz(j, f) for j in range(-d, d + 1) if j != 0]
            r0 = riesz(0, f)
        for img in images:
            assert img.values.dtype == np.float64
        # A_0 = -i tau keeps the real Nyquist row only as an imaginary
        # one: R_0 f is float64 exactly when that row of f is zero
        nyquist = c.data[g.N_rho // 2].any()
        assert r0.values.dtype == (np.complex128 if nyquist else np.float64)

    @settings(max_examples=25, deadline=None)
    @given(d=st.integers(1, 3), log2_n=st.integers(2, 4),
           K=st.integers(0, 3), n=st.integers(-8, 7),
           pick=st.integers(0, 2 ** 16))
    def test_complex_fields_stay_complex(self, d, log2_n, K, n, pick):
        g = make_grid(d, 2 ** log2_n, 4.0, K, K + 1)
        n = n % g.N_rho - g.N_rho // 2      # in [-N/2, N/2)
        mu = tuple(g.mu[pick % g.n_mu])
        f = mode_field(g, n, mu)
        # e^(i tau_n rho) is real on the grid at n = 0 and at Nyquist
        real = n in (0, -g.N_rho // 2)
        assert f.values.dtype == (np.float64 if real else np.complex128)
        assert _is_real_series(forward(f).data) == real
        z = sample(g, lambda r, *xs: np.exp(1j * r) + 0.0 * sum(xs))
        assert z.values.dtype == np.complex128
        assert heat_apply_kernel(z, 0.3).values.dtype == np.complex128
        assert inverse(forward(z)).values.dtype == np.complex128
