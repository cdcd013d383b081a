from unittest import mock

import numpy as np
import pytest

from pharmonic import (
    SingularMultiplierError,
    SpectralCoeffs,
    TruncationError,
    apply_multiplier,
    forward,
    inner,
    inverse,
    lp_norm,
    make_grid,
    mode_field,
    power_multiplier,
)
from pharmonic import ladder as ladder_module
from pharmonic.ladder import (
    apply_A,
    commute_check,
    commute_matrix_report,
    duality_check,
    grad_H,
    inverse_riesz_check,
    riesz,
)


def band_limited(g, seed, margin=2):
    """Random coefficients vanishing on the top degree shells and Nyquist ring."""
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((g.N_rho, g.n_mu)) \
        + 1j * rng.standard_normal((g.N_rho, g.n_mu))
    data[:, g.mu_abs > g.K - margin] = 0.0
    n = np.abs(np.fft.fftfreq(g.N_rho, d=1.0 / g.N_rho))
    data[n >= g.N_rho // 2 - margin, :] = 0.0
    return inverse(SpectralCoeffs(g, data))


def test_apply_A_single_modes():
    g = make_grid(d=2, N_rho=16, L_rho=5.0, K=5, M=8)
    c = forward(mode_field(g, 0, (0, 0)))
    up = apply_A(1, c).data
    i = g.mode_index((1, 0))
    assert up[0, i] == pytest.approx(np.sqrt(2), rel=1e-12)
    up[0, i] = 0
    assert np.abs(up).max() < 1e-12

    down = apply_A(-1, c).data
    assert np.abs(down).max() < 1e-13  # ground state is annihilated

    c3 = forward(mode_field(g, 3, (0, 0)))
    drho = apply_A(0, c3).data
    tau3 = 3 * np.pi / 5.0
    assert drho[3, g.mode_index((0, 0))] == pytest.approx(-1j * tau3, rel=1e-12)


def test_apply_A_raising_truncation_guard():
    g = make_grid(d=1, N_rho=8, L_rho=4.0, K=3, M=5)
    c = forward(mode_field(g, 0, (g.K,)))
    with pytest.raises(TruncationError):
        apply_A(1, c)
    # lowering from the top shell is fine
    out = apply_A(-1, c).data
    assert out[0, g.mode_index((g.K - 1,))] == pytest.approx(
        np.sqrt(2.0 * g.K), rel=1e-12)


def test_adjointness():
    g = make_grid(d=2, N_rho=16, L_rho=5.0, K=6, M=8)
    f = band_limited(g, 1)
    h = band_limited(g, 2)
    for j in (1, 2):
        lhs = inner(inverse(apply_A(j, forward(f))), h)
        rhs = inner(f, inverse(apply_A(-j, forward(h))))
        assert lhs == pytest.approx(rhs, rel=1e-10)
    lhs0 = inner(inverse(apply_A(0, forward(f))), h)
    rhs0 = inner(f, inverse(apply_A(0, forward(h))))
    assert lhs0 == pytest.approx(-rhs0, rel=1e-10)


def test_reconstruction_identity():
    # (1/2) sum_j (A_j A_j* + A_j* A_j) = H on band-limited fields
    g = make_grid(d=1, N_rho=16, L_rho=5.0, K=8, M=10)
    f = band_limited(g, 3)
    c = forward(f)
    acc = np.zeros_like(c.data)
    pairs = [(0, 0)] + [(j, -j) for j in range(1, g.d + 1)]
    for j, jstar in pairs:
        sgn = -1.0 if j == 0 else 1.0  # A_0* = -A_0
        acc += sgn * 0.5 * apply_A(j, apply_A(jstar, c)).data
        acc += sgn * 0.5 * apply_A(jstar, apply_A(j, c)).data
    want = apply_multiplier(c, g.eigenvalues()).data
    assert np.abs(acc - want).max() < 1e-10 * np.abs(want).max()


def test_riesz_mode_factors():
    g = make_grid(d=1, N_rho=16, L_rho=np.pi, K=4, M=6)
    f = mode_field(g, 1, (0,))  # tau = 1
    got = riesz(0, f)
    np.testing.assert_allclose(got.values, -1j / np.sqrt(2) * f.values,
                               atol=1e-12)
    assert lp_norm(riesz(-1, f), 2) < 1e-12


def test_riesz_l2_bound():
    g = make_grid(d=2, N_rho=16, L_rho=5.0, K=6, M=8)
    f = band_limited(g, 4)
    n2 = lp_norm(f, 2) ** 2
    for j in range(-g.d, g.d + 1):
        assert lp_norm(riesz(j, f), 2) ** 2 <= 2 * n2 * (1 + 1e-12)


def test_grad_H_components_and_energy():
    g = make_grid(d=1, N_rho=16, L_rho=5.0, K=6, M=8)
    ground = mode_field(g, 0, (0,))
    parts = grad_H(ground)
    assert len(parts) == 3
    assert lp_norm(parts[0], 2) < 1e-12          # constant in rho
    up = forward(parts[1]).data
    assert up[0, g.mode_index((1,))] == pytest.approx(np.sqrt(2), rel=1e-12)
    assert lp_norm(parts[2], 2) < 1e-12          # annihilation

    f = band_limited(g, 5)
    c = forward(f)
    energy = sum(lp_norm(u, 2) ** 2 for u in grad_H(f))
    lam2 = g.eigenvalues().copy()
    lam2 = (g.tau ** 2)[:, None] + 4.0 * g.mu_abs[None, :] + 2 * g.d
    want = 2 * g.L_rho * np.sum(lam2 * np.abs(c.data) ** 2)
    assert energy == pytest.approx(want, rel=1e-10)


def test_riesz_left_inverse():
    # riesz(j) applied to H^(1/2) f recovers apply_A(j) f: the half
    # powers cancel inside R_j = A_j H^(-1/2) (order matters, A_j and
    # H do not commute)
    g = make_grid(d=1, N_rho=16, L_rho=5.0, K=6, M=8)
    f = band_limited(g, 6)
    half = inverse(apply_multiplier(forward(f), power_multiplier(g, 0.5)))
    got = forward(riesz(1, half)).data
    want = apply_A(1, forward(f)).data
    assert np.abs(got - want).max() < 1e-11 * np.abs(want).max()


def test_commute_single_mode_oracle():
    # mu=0, tau=0, d=3, j=1, alpha=-1/2: both routes scale by sqrt(2/3)
    g = make_grid(d=3, N_rho=8, L_rho=4.0, K=3, M=5)
    f = mode_field(g, 0, (0, 0, 0))
    c = forward(f)
    route1 = apply_A(1, apply_multiplier(c, power_multiplier(g, -0.5))).data
    from pharmonic.ladder import _power_on_support
    route2 = _power_on_support(apply_A(1, c), -0.5, -2.0).data
    i = g.mode_index((1, 0, 0))
    want = np.sqrt(2.0) / np.sqrt(3.0)
    assert route1[0, i] == pytest.approx(want, rel=1e-12)
    assert route2[0, i] == pytest.approx(want, rel=1e-12)


def test_commute_matrix_d3():
    g = make_grid(d=3, N_rho=8, L_rho=4.0, K=6, M=8)
    f = band_limited(g, 7)
    rep = commute_matrix_report(f)
    assert rep.all_passed
    assert max(m.value for m in rep.metrics) < 1e-10
    # five identity families appear across the matrix
    names = {m.name.split("[")[0] for m in rep.metrics}
    assert names == {"A0_commutes", "raise_pre_shift", "raise_post_shift",
                     "lower_pre_shift", "lower_post_shift"}


def test_commute_low_dimension_needs_d3():
    g = make_grid(d=1, N_rho=8, L_rho=4.0, K=4, M=6)
    f = band_limited(g, 8)
    # lowering after (H-2)^alpha touches lambda - 2 <= 0 modes
    with pytest.raises(SingularMultiplierError):
        commute_check(-1, -0.5, f)
    # raising identities stay well defined: the shifted power only
    # acts on the image, where the degree is already >= 1
    rep = commute_check(1, -0.5, f)
    assert rep.all_passed


def test_duality_mode_ratios():
    g = make_grid(d=1, N_rho=32, L_rho=np.pi, K=4, M=6)
    ground = mode_field(g, 0, (0,))
    rep = duality_check(ground)
    ratio = [m for m in rep.metrics if m.name.startswith("sandwich")][0]
    assert ratio.value == pytest.approx(2.0, rel=1e-10)  # bottom mode hits 2
    assert ratio.passed

    fast = mode_field(g, 15, (0,))  # tau = 15, factor ~ 1 + d/tau^2
    rep2 = duality_check(fast)
    r2 = [m for m in rep2.metrics if m.name.startswith("sandwich")][0]
    assert 1.0 <= r2.value < 1.02


def test_duality_sandwich_random_fields():
    for d in (1, 2):
        g = make_grid(d=d, N_rho=16, L_rho=5.0, K=5, M=8)
        for seed in range(5):
            f = band_limited(g, 100 + seed)
            f = type(f)(g, np.ascontiguousarray(f.values.real))
            rep = duality_check(f)
            assert rep.all_passed


def test_duality_with_itself_computes_each_image_once():
    # duality_check(f) transforms f once and applies each of the 2d + 1
    # ladder operators once, to H^(-1/2) f
    for d in (1, 2):
        g = make_grid(d=d, N_rho=16, L_rho=5.0, K=5, M=8)
        f = band_limited(g, 30 + d)
        with mock.patch.object(ladder_module, "apply_A",
                               wraps=apply_A) as spy_a, \
                mock.patch.object(ladder_module, "forward",
                                  wraps=forward) as spy_f:
            rep = duality_check(f)
        assert spy_a.call_count == 2 * d + 1
        assert spy_f.call_count == 1
        assert rep.all_passed


def test_inverse_riesz_p2():
    g = make_grid(d=1, N_rho=16, L_rho=5.0, K=6, M=8)
    rep = inverse_riesz_check(band_limited(g, 9), 2)
    sharp = [m for m in rep.metrics if m.name == "p2_sharp_ratio"][0]
    assert sharp.passed and sharp.value <= 1.0 + 1e-12

    ground = mode_field(g, 0, (0,))
    rep2 = inverse_riesz_check(ground, 2)
    vals = {m.name: m.value for m in rep2.metrics}
    assert vals["lhs_half_power_norm"] == pytest.approx(
        lp_norm(ground, 2), rel=1e-10)
    assert vals["rhs_ladder_sum"] == pytest.approx(
        np.sqrt(2) * lp_norm(ground, 2), rel=1e-10)


def _nyquist_fields(g, seed):
    """Fields that carry the Nyquist row: the real Nyquist mode
    (cos(pi rho / dx) on the grid, a float64 sample) and random
    complex coefficients with every rho row filled, the Nyquist row
    dominant, and the top degree shells empty."""
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((g.N_rho, g.n_mu)) \
        + 1j * rng.standard_normal((g.N_rho, g.n_mu))
    data[g.N_rho // 2] *= 10.0
    data[:, g.mu_abs > g.K - 2] = 0.0
    real = mode_field(g, -g.N_rho // 2, (0,) * g.d)
    assert real.values.dtype == np.float64
    return [real, inverse(SpectralCoeffs(g, data))]


@pytest.mark.parametrize("d", [1, 2])
def test_nyquist_row_keeps_the_factorisation(d):
    # A_0 = -i tau on every row, the Nyquist row included, so the
    # mode-wise identities behind both checks hold there too: the
    # p = 2 bound lambda <= tau^2 + 4|mu| + 2d and the sandwich
    # I <= S <= 2I; a real field whose Nyquist row is nonzero has a
    # complex A_0 image on the grid
    g = make_grid(d=d, N_rho=16, L_rho=5.0, K=5, M=8)
    for f in _nyquist_fields(g, 40 + d):
        rep = inverse_riesz_check(f, 2)
        sharp = [m for m in rep.metrics if m.name == "p2_sharp_ratio"][0]
        assert sharp.passed and sharp.value <= 1.0 + 1e-12
        assert duality_check(f).all_passed
    f = _nyquist_fields(g, 40 + d)[0]
    tau_n = g.tau[g.N_rho // 2]
    lam = tau_n ** 2 + d
    np.testing.assert_allclose(riesz(0, f).values,
                               -1j * tau_n / np.sqrt(lam) * f.values,
                               atol=1e-12)
