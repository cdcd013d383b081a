"""HLS / GNS / Hardy checks and the sharp-exponent demos.

Oracle notes.  The closed-form heat flow of a unit-mass Gaussian is
validated against the spectral route (independent code paths meeting
at 1e-7).  The L^1-endpoint threshold q* = (d+1)/(d+1-alpha) = 4/3 at
d = 1, alpha = 1/2 comes out of the demo as a verdict flip between
q = 1.2 and q = 1.5.  Ground-mode gradient arithmetic: the l^1 ladder
norm of the d-dimensional ground state is d sqrt(2) ||f||_2, giving
ratio 1/(3 sqrt 2) at d = 3 (the single-component count is 1/sqrt 2).
Empirical sups are pinned only by loose windows; their content is the
stability flags inside the reports.
"""
import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pharmonic import (
    DomainError,
    InvalidParameterError,
    ResolutionWarning,
    TestFamily,
    check_exponents,
    gns_check,
    hardy_check,
    hls_check,
    hls_endpoint_demo,
    lp_norm,
    make_grid,
    potential_norm,
    shifted_hls_check,
)
from pharmonic import grid as grid_module
from pharmonic import inequalities
from pharmonic import sobolev as sobolev_module
from pharmonic.cli import _parser, build_config, run_suite
from pharmonic.grid import (Field, UniformBox, _box_lp_norm_coeffs,
                            resample, sample)
from pharmonic.heat_kernel import k_alpha, t_quadrature
from pharmonic.inequalities import (
    _default_grid,
    _gauss_image_axes,
    _measured_box,
    _ratio_gns,
    _singular_weight,
)
from pharmonic.ladder import _grad_norms, apply_A, grad_H
from pharmonic.spectral import SpectralCoeffs, forward, inverse, \
    spectral_frac_power


def streamed_grad_norm(f, p):
    """The l^1 gradient norm as first written: every ladder component
    inverted and normed by grid quadrature, one at a time, in the order
    0, 1..d, -1..-d."""
    c = forward(f)
    d = f.grid.d
    return sum(lp_norm(inverse(apply_A(j, c)), p)
               for j in [0] + list(range(1, d + 1))
               + list(range(-1, -d - 1, -1)))


@pytest.fixture(scope="module")
def fam():
    return TestFamily("band_limited", 10, seed=2)


@pytest.fixture(scope="module")
def fam_small():
    return TestFamily("band_limited", 6, seed=2)


def metric(rep, name):
    hits = [m for m in rep.metrics if m.name == name]
    assert hits, f"metric {name} missing"
    return hits[0]


class TestIneqCase:
    """check_exponents on admissible and inadmissible inequality cases."""

    def test_valid_hls(self):
        assert check_exponents("hls", 0.5, 2.0, 4.0, 1) is None

    @pytest.mark.parametrize("args", [
        ("hls", 0.5, 2.0, 6.0, 1),     # 1/q below the window
        ("hls", 0.5, 2.0, 2.0, 1),     # q = p not allowed
        ("hls", 2.0, 2.0, 4.0, 1),     # alpha = d+1
        ("hls", -0.5, 2.0, 4.0, 1),
        ("hls-endpoint-1", 0.5, 1.0, 1.2, 1),         # no endpoint
        ("hls-endpoint-inf", 0.5, 5.0, math.inf, 1),  # tags any more
        ("gns", 1.0, 2.0, 2.5, 1),     # d < 3
        ("gns", 1.0, 2.0, 5.0, 3),     # q outside the window
        ("hardy", 0.75, 3.0, 2.0, 1),  # p not in {2, 4}
        ("hardy", 1.5, 2.0, 2.0, 1),   # alpha >= (d+1)/p
    ])
    def test_inadmissible(self, args):
        tag, alpha, p, q, d = args
        with pytest.raises(InvalidParameterError):
            check_exponents(tag, alpha, p, q, d)

    def test_bad_tag_dimension(self):
        with pytest.raises(InvalidParameterError):
            check_exponents("sobolev", 0.5, 2.0, 4.0, 1)
        with pytest.raises(InvalidParameterError):
            check_exponents("hls", 0.5, 2.0, 4.0, 0)


class TestHlsCheck:
    def test_subcritical_example(self, fam):
        rep = hls_check(1.0, 2.0, 4.0, 1, fam)
        assert rep.all_passed
        sup = metric(rep, "operator_sup").value
        assert 0.1 < sup < 1.0
        assert metric(rep, "gate_rel_max").value <= 1e-3

    def test_critical_example(self, fam):
        # 1/4 = 1/2 - (1/2)/2: the critical line of the exponent window
        rep = hls_check(0.5, 2.0, 4.0, 1, fam)
        assert rep.all_passed
        assert 0.1 < metric(rep, "operator_sup").value < 1.0

    def test_q2_route_is_spectral(self, fam_small):
        # q = 2 needs p < 2 for admissibility; exercises the lp_norm
        # branch where the box is inert
        rep = hls_check(0.5, 1.5, 2.0, 1, fam_small)
        assert rep.all_passed
        assert metric(rep, "box_change").value == 1.0

    def test_inadmissible_exponents_raise(self, fam):
        with pytest.raises(InvalidParameterError):
            hls_check(0.5, 2.0, 8.0, 1, fam)

    def test_grid_dimension_mismatch(self, fam):
        g3 = make_grid(2, 16, 6.0, 4, 8)
        with pytest.raises(InvalidParameterError):
            hls_check(0.5, 2.0, 4.0, 1, fam, grid=g3)

    def test_pointwise_domination(self):
        # H^(-alpha/2) f <= C int |f| |z - z'|^(alpha - d - 1) dz' for
        # nonnegative f; C measured about 0.08 here, pinned at 0.5
        g = _default_grid(1)
        f = sample(g, lambda r, x: np.exp(-((r - 0.5) ** 2
                                            + (x + 0.3) ** 2) / 2.0))
        img = spectral_frac_power(f, -0.25)
        box = UniformBox((8.0, 8.0), (160, 160))
        fv = np.abs(resample(f, box))
        mesh = box.mesh()
        h = box.spacings()[0]
        ratios = []
        for i, j in ((32, 20), (36, 22), (28, 18), (40, 21), (34, 23)):
            z = (g.rho[i], g.nodes_x[j])
            dist = np.sqrt((mesh[0] - z[0]) ** 2 + (mesh[1] - z[1]) ** 2)
            w = np.where(dist < 0.5 * h, 0.0, dist ** -1.5)
            rhs = box.cell_volume * float(np.sum(w * fv))
            lhs = img.values[i, j].real
            assert lhs > 0.0
            ratios.append(lhs / rhs)
        assert max(ratios) < 0.5


class TestShiftedHls:
    def test_positive_shift_dominated(self, fam):
        plain = hls_check(0.5, 2.0, 4.0, 1, fam)
        shifted = shifted_hls_check(0.5, 2.0, 4.0, 1, 2.0, fam)
        assert shifted.all_passed
        assert metric(shifted, "operator_sup").value \
            <= metric(plain, "operator_sup").value * (1.0 + 1e-9)

    def test_negative_shift_needs_d3(self, fam):
        with pytest.raises(DomainError):
            shifted_hls_check(0.5, 2.0, 4.0, 1, -2.0, fam)

    def test_shift_values_restricted(self, fam):
        with pytest.raises(InvalidParameterError):
            shifted_hls_check(0.5, 2.0, 4.0, 1, 3.0, fam)


class TestSplitMembers:
    """The family the checks score, split into the base members and the
    extras of TestFamily.size."""

    @pytest.mark.parametrize("kind", ["band_limited", "gaussian"])
    def test_lazy_extras_equal_the_enlarged_family(self, kind):
        g = make_grid(1, 16, 5.0, 6, 10)
        fam = TestFamily(kind, 3, seed=5)
        base, extra = fam.members(g), fam.extras(g)
        assert iter(extra) is extra        # built as consumed, not held
        got = list(extra)
        assert fam.size == 12 and len(base) == 3 and len(got) == 9
        for i, f in enumerate(base + got):
            assert f.values.tobytes() == fam.member(g, i).values.tobytes()


def per_axis_box(members, tol=1e-6, pad=1.3):
    """The half-widths of _measured_box by one |f| per (axis, member)."""
    g = members[0].grid
    coords = [g.rho] + [g.nodes_x] * g.d
    caps = [g.L_rho] + [float(np.max(np.abs(g.nodes_x)))] * g.d
    half = []
    for ax in range(g.d + 1):
        need = 0.0
        for f in members:
            a = np.abs(f.values)
            others = tuple(i for i in range(g.d + 1) if i != ax)
            live = coords[ax][a.max(axis=others) > tol * a.max()]
            if live.size:
                need = max(need, float(np.max(np.abs(live))))
        half.append(min(max(pad * need, 1.0), caps[ax]))
    return tuple(half)


class TestGnsCheck:
    def test_d3_example(self, fam):
        rep = gns_check(2.0, 2.5, 3, fam)
        assert rep.all_passed
        assert 0.0 < metric(rep, "gradient_ratio_sup").value < 1.0

    def test_ground_mode_arithmetic(self):
        # annihilators kill the ground state and each raising component
        # contributes sqrt(2) |f|, so the l^1 gradient norm is
        # d sqrt(2) |f| and the ratio 1/(d sqrt 2); the one-component
        # count 1/sqrt(2) is the d = 1 case
        def ground(r, *xs):
            return np.exp(-sum(x * x for x in xs) / 2.0) * np.ones_like(r)

        for d in (1, 3):
            g = make_grid(d, 32, 8.0, 6, 12)
            f = sample(g, ground)
            den = sum(lp_norm(c, 2.0) for c in grad_H(f))
            ratio = lp_norm(f, 2.0) / den
            assert abs(ratio - 1.0 / (d * math.sqrt(2.0))) < 1e-10

    @settings(max_examples=30, deadline=None)
    @given(d=st.integers(1, 3), log2_n=st.integers(1, 4),
           K=st.integers(1, 5), extra=st.integers(0, 3),
           L=st.floats(1.0, 10.0), seed=st.integers(0, 2 ** 32 - 1))
    def test_grad_norm_matches_streamed_quadrature(self, d, log2_n, K, extra,
                                                   L, seed):
        # p = 2 reads the norms off the coefficients, which is the grid
        # quadrature to rounding; other p run the quadrature itself
        g = make_grid(d, 2 ** log2_n, L, K, K + 1 + extra)
        rng = np.random.default_rng(seed)
        data = rng.standard_normal((g.N_rho, g.n_mu)) \
            + 1j * rng.standard_normal((g.N_rho, g.n_mu))
        data[:, g.mu_abs == g.K] = 0.0     # so raising drops nothing
        f = inverse(SpectralCoeffs(g, data))
        want = streamed_grad_norm(f, 2.0)
        c = forward(f)
        assert abs(sum(_grad_norms(c, 2.0)) - want) <= 1e-13 * want
        assert sum(_grad_norms(c, 3.0)).hex() == \
            streamed_grad_norm(f, 3.0).hex()

    def test_zero_field_guard(self):
        g = make_grid(3, 16, 6.0, 4, 8)
        z = Field(g, np.zeros(g.shape, dtype=complex))
        box = UniformBox((4.0,) * 4, (8,) * 4)
        with pytest.raises(InvalidParameterError):
            _ratio_gns(forward(z), 2.0, 2.5, box, None)

    @pytest.mark.parametrize("kind", ["gaussian"])
    def test_box_from_lazy_members_matches_per_axis_scan(self, kind):
        # members consumed one at a time give the half-widths of a scan
        # that takes |f| per (axis, member), bit for bit, on a grid
        # wide enough that the decay, not the window, sets the box on
        # the rho axis (and on the x axes of the gaussian members)
        g = make_grid(2, 32, 12.0, 6, 60)
        fam = TestFamily(kind, 4, seed=3)
        box = _measured_box(g, ([fam.member(g, i).values]
                                for i in range(4)), (8, 8, 8))
        assert box.half_widths == per_axis_box(fam.members(g))
        assert box.half_widths[0] < g.L_rho

    @settings(max_examples=40, deadline=None)
    @given(d=st.integers(1, 3), log2_n=st.integers(1, 4),
           K=st.integers(2, 5), extra=st.integers(0, 3),
           L=st.floats(1.0, 10.0), rows=st.integers(1, 3),
           kind=st.sampled_from(["band_limited", "gaussian"]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_streamed_box_matches_per_axis_scan(self, d, log2_n, K, extra,
                                                L, rows, kind, seed):
        # the box measured on TestFamily.draw's slabs, cut to a few rho
        # rows each, has the half-widths of a scan over whole members,
        # bit for bit; a gaussian member is one slab, its sampled values
        g = make_grid(d, 2 ** log2_n, L, K, K + 1 + extra)
        fam = TestFamily(kind, 3, seed=seed)
        with mock.patch.object(grid_module, "_SLAB_BYTES",
                               16 * rows * g.M ** d):
            box = _measured_box(g, (fam.draw(g, i)[1] for i in range(3)),
                                (8,) * (d + 1))
        assert box.half_widths == per_axis_box(fam.members(g))

    def test_d3_peak_below_one_grid_plane(self, fam):
        # no array the size of a 32 x 32^3 field (8.4 MB of float64) is
        # made: the box is sized on slabs of rho rows, the gradient
        # norms are read off the coefficient moduli, and the box norms
        # are summed one slab at a time
        plane = 32 * 32 ** 3 * 8
        tracemalloc.start()
        try:
            rep = gns_check(2.0, 2.5, 3, fam)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.all_passed
        assert peak < plane

    def test_low_dimension_rejected(self, fam):
        with pytest.raises(InvalidParameterError):
            gns_check(2.0, 2.5, 1, fam)

    def test_each_member_drawn_once(self):
        # the base members give the box and their coefficients from one
        # draw, so a kind with grid members builds 4n of them, not 5n;
        # K = 16 keeps the top shell of these Gaussians below the raising
        # threshold of apply_A
        g = make_grid(3, 8, 4.0, 16, 18)
        fam = TestFamily("gaussian", 2, seed=1)
        with mock.patch.object(sobolev_module, "_make_member",
                               wraps=sobolev_module._make_member) as made, \
                warnings.catch_warnings():
            warnings.simplefilter("ignore")
            gns_check(2.0, 2.5, 3, fam, grid=g)
        assert made.call_count == 4 * fam.count

    def test_box_norms_take_the_path_their_coefficients_select(self):
        # band_limited coefficients are Hermitian bit for bit, and so is
        # forward of the float64 kernel images that hls norms: both
        # suites sum float64 rows only
        real = grid_module._x_series

        def dtypes(suite):
            seen = set()

            def spy(rows, tables, bufs=None):
                seen.add(rows.dtype)
                return real(rows, tables, bufs)

            cfg = build_config(_parser().parse_args(["--suite", suite]))
            with mock.patch.object(grid_module, "_x_series", spy):
                assert run_suite(cfg).all_passed
            return seen

        assert dtypes("gns") == {np.dtype(np.float64)}
        assert dtypes("hls") == {np.dtype(np.float64)}


class TestHardyCheck:
    def test_d1_example(self, fam):
        rep = hardy_check(0.75, 2.0, 1, fam)
        assert rep.all_passed
        assert 0.1 < metric(rep, "hardy_sup").value < 1.5
        assert not any(m.name.startswith("gradient") for m in rep.metrics)

    def test_d3_gradient_variant(self, fam):
        rep = hardy_check(1.0, 2.0, 3, fam)
        assert rep.all_passed
        assert metric(rep, "gradient_sup").value > 0.0
        assert metric(rep, "gradient_box_change").value < 1.5

    def test_exponent_validation(self, fam):
        with pytest.raises(InvalidParameterError):
            hardy_check(1.0, 2.0, 1, fam)   # alpha = (d+1)/p
        with pytest.raises(InvalidParameterError):
            hardy_check(0.5, 3.0, 1, fam)

    def test_origin_weight_zeroed(self):
        box = UniformBox((7.55, 6.1), (24, 24))  # non-dyadic halves
        w = _singular_weight(box, 1.0)
        assert np.all(np.isfinite(w))
        assert w.min() == 0.0
        assert np.count_nonzero(w == 0.0) == 1

    def test_centered_beats_shifted(self):
        # the ratio hardy_check scores for one member
        g = make_grid(1, 64, 10.0, 12, 32)
        center = sample(g, lambda r, x: np.exp(-(r ** 2 + x ** 2) / 2.0))
        moved = sample(g, lambda r, x: np.exp(-((r - 3.0) ** 2 + x ** 2)
                                              / 2.0))
        box = UniformBox((8.0, 6.0), (64, 64))
        w = _singular_weight(box, 0.75)

        def ratio(f):
            c = forward(f)
            return _box_lp_norm_coeffs(c, box, 2.0, w) \
                / potential_norm(c, 0.75, 2.0)

        assert ratio(center) > 1.5 * ratio(moved)


class TestEndpointL1:
    def test_subcritical_bounded(self):
        rep = hls_endpoint_demo("L1-range", 0.5, 1, 1.2)
        assert rep.all_passed
        assert metric(rep, "increment_ratio").value < 0.92

    def test_supercritical_divergent(self):
        rep = hls_endpoint_demo("L1-range", 0.5, 1, 1.5)
        assert rep.all_passed
        assert metric(rep, "monotone").value == 1.0
        assert metric(rep, "increment_ratio").value > 1.0

    def test_critical_divergent(self):
        # q = q* = 4/3 exactly: increments flatten but do not decay
        rep = hls_endpoint_demo("L1-range", 0.5, 1, 4.0 / 3.0)
        assert metric(rep, "trend_matches").passed

    def test_control_flat(self):
        rep = hls_endpoint_demo("L1-range", 0.5, 1, 1.5, control=True)
        assert rep.all_passed
        assert metric(rep, "increment_ratio").value == 0.0

    def test_plateau_warns_when_underresolved(self):
        # at q = q* three levels are not enough: the early increments
        # still decay below the floor, so the demo must refuse the
        # divergence verdict and say why
        with pytest.warns(ResolutionWarning):
            rep = hls_endpoint_demo("L1-range", 0.5, 1, 4.0 / 3.0,
                                    levels=3)
        assert not metric(rep, "trend_matches").passed
        assert metric(rep, "monotone").value == 1.0

    def test_closed_form_matches_spectral(self):
        # sigma = 1 image on a box vs the eigenbasis route
        g = make_grid(1, 64, 10.0, 24, 32)
        f = sample(g, lambda r, x: np.exp(-(r ** 2 + x ** 2) / 2.0)
                   / (2.0 * math.pi))
        s = spectral_frac_power(f, -0.25)
        box = UniformBox((6.0, 6.0), (96, 96))
        sv = resample(s, box)
        t, w = t_quadrature(0.25, 1).nodes()
        amp = w * t ** -0.75 / math.gamma(0.25) / (2.0 * math.pi)
        u, v = _gauss_image_axes(1.0, t, amp, *box.axes())
        cv = u.T @ v
        rel = np.sqrt(np.sum(np.abs(cv - sv) ** 2)
                      / np.sum(np.abs(sv) ** 2))
        assert rel < 1e-5

    def test_ground_decay_rate(self):
        # sigma = 1: the x factor must be e^(-t) times the stationary
        # Gaussian, the ground eigenvalue per axis
        t = np.array([0.3, 1.0, 2.5])
        x = np.linspace(-3.0, 3.0, 7)
        _, v = _gauss_image_axes(1.0, t, np.ones(3), x, x)
        expect = np.exp(-t)[:, None] * np.exp(-x[None, :] ** 2 / 2.0)
        assert np.max(np.abs(v - expect)) < 1e-12


# norm_level_0..6 of the three L1-range demos (alpha = 1/2, d = 1) as
# float.hex, bit for bit as the mirror-orbit sums give them
L1_RANGE_NORM_LEVELS = {
    1.2: [
        "0x1.3a72788f87451p-1",
        "0x1.84e5122bd714cp-1",
        "0x1.b8dce7803c36fp-1",
        "0x1.df8670c1ac80bp-1",
        "0x1.fe430c8051fbbp-1",
        "0x1.0c26ff329f45ap+0",
        "0x1.174fa34cfc8fep+0",
    ],
    4.0 / 3.0: [
        "0x1.f3b7611ac0cdep-2",
        "0x1.4d4b8e754a7ebp-1",
        "0x1.928c63fc99538p-1",
        "0x1.cefeac7df8a1bp-1",
        "0x1.033b6d40d2814p+0",
        "0x1.1dc9561def8bap+0",
        "0x1.37729efee971dp+0",
    ],
    1.5: [
        "0x1.912be1142f563p-2",
        "0x1.2206eb6088067p-1",
        "0x1.78da848c354bbp-1",
        "0x1.d08b1425549b1p-1",
        "0x1.1664324928577p+0",
        "0x1.487a523598322p+0",
        "0x1.7f5be6644bb19p+0",
    ],
}

# the same levels as the full 512^2 boxes gave them, one image value per
# box point; the orbit sums add the same terms in another order
L1_RANGE_NORM_LEVELS_FULL_BOX = {
    1.2: [
        "0x1.3a72788f87451p-1",
        "0x1.84e5122bd714cp-1",
        "0x1.b8dce7803c36fp-1",
        "0x1.df8670c1ac80bp-1",
        "0x1.fe430c8051fbcp-1",
        "0x1.0c26ff329f45ap+0",
        "0x1.174fa34cfc8ffp+0",
    ],
    4.0 / 3.0: [
        "0x1.f3b7611ac0cddp-2",
        "0x1.4d4b8e754a7ebp-1",
        "0x1.928c63fc99538p-1",
        "0x1.cefeac7df8a1bp-1",
        "0x1.033b6d40d2813p+0",
        "0x1.1dc9561def8bap+0",
        "0x1.37729efee971dp+0",
    ],
    1.5: [
        "0x1.912be1142f563p-2",
        "0x1.2206eb6088067p-1",
        "0x1.78da848c354bbp-1",
        "0x1.d08b1425549b1p-1",
        "0x1.1664324928577p+0",
        "0x1.487a523598322p+0",
        "0x1.7f5be6644bb19p+0",
    ],
}


class TestL1ImageFactors:
    @pytest.mark.parametrize("n", range(7))
    def test_every_entry_is_zero_or_normal(self, n):
        # GEMM operands: each entry of amp u and of v is an exact 0 or at
        # least 2^-500, so no product of two is subnormal
        sigma = 2.0 ** -n
        t, w = t_quadrature(0.25, 1).nodes()
        amp = w * t ** -0.75 / math.gamma(0.25) \
            / (2.0 * math.pi * sigma * sigma)
        zeros = 0
        for half, count in ((inequalities._OUT_HALF, inequalities._OUT_N),
                            (inequalities._CORE_HALF,
                             inequalities._CORE_N)):
            box = UniformBox((half, half), (count, count))
            for f in _gauss_image_axes(sigma, t, amp, *box.axes()):
                assert f.shape == (t.size, count)
                assert np.all((f == 0.0) | (f >= 2.0 ** -500))
                zeros += int(np.count_nonzero(f == 0.0))
        # from sigma = 2^-2 on, the early-time Gaussians underflow on the
        # outer box, and the floor sends them to exact zeros
        assert (zeros > 0) == (n >= 2)

    @pytest.mark.parametrize("q", sorted(L1_RANGE_NORM_LEVELS))
    def test_norm_levels_pinned(self, q):
        rep = hls_endpoint_demo("L1-range", 0.5, 1, q)
        got = [metric(rep, f"norm_level_{i}").value.hex() for i in range(7)]
        assert got == L1_RANGE_NORM_LEVELS[q]

    @pytest.mark.parametrize("q", sorted(L1_RANGE_NORM_LEVELS_FULL_BOX))
    def test_norm_levels_within_4_ulp_of_full_box(self, q):
        rep = hls_endpoint_demo("L1-range", 0.5, 1, q)
        for i, old in enumerate(L1_RANGE_NORM_LEVELS_FULL_BOX[q]):
            want = float.fromhex(old)
            got = metric(rep, f"norm_level_{i}").value
            assert abs(got - want) <= 4 * math.ulp(want)


def full_box_cell_sum(sigma, alpha, q, t, w, box, hole=0.0):
    """inequalities._l1_cell_sum as first written: the image at every box
    point, the window's cells masked out of the sum."""
    amp = w * t ** (0.5 * alpha - 1.0) / math.gamma(0.5 * alpha) \
        / (2.0 * math.pi * sigma * sigma)
    u, v = _gauss_image_axes(sigma, t, amp, *box.axes())
    a = np.abs(u.T @ v) ** q
    ax = box.axes()[0]
    m = (ax >= -hole) & (ax < hole)
    return box.cell_volume * (a.sum() - a[np.outer(m, m)].sum())


def full_box_q_norm(sigma, alpha, q, t, w):
    """inequalities._l1_image_q_norm as first written, on the full boxes."""
    out = UniformBox((inequalities._OUT_HALF,) * 2,
                     (inequalities._OUT_N,) * 2)
    core = UniformBox((inequalities._CORE_HALF,) * 2,
                      (inequalities._CORE_N,) * 2)
    total = full_box_cell_sum(sigma, alpha, q, t, w, out,
                              inequalities._CORE_HALF) \
        + full_box_cell_sum(sigma, alpha, q, t, w, core)
    return total ** (1.0 / q)


def full_circle_center_value(fr, delta, alpha, n_theta=32):
    """inequalities._center_value as first written: the kernel at every
    one of the n_theta polar angles."""
    r, wr = inequalities._radial_nodes(delta, 0.5)
    th = 2.0 * np.pi * np.arange(n_theta) / n_theta
    zp = np.stack(np.broadcast_arrays(r[:, None] * np.cos(th),
                                      r[:, None] * np.sin(th)), axis=-1)
    ker = k_alpha(np.zeros(2), zp, 0.5 * alpha)
    ang = ker.sum(axis=1) * (2.0 * np.pi / n_theta)
    return float(np.sum(wr * r * fr(r) * ang))


def rel_gap(a, b):
    return abs(a - b) / abs(b)


class TestMirrorOrbits:
    """The endpoint witnesses are even in rho and x: each is evaluated
    once per reflection orbit, and the orbit sums must agree with the
    full-box and full-circle sums to roundoff."""

    @pytest.mark.parametrize("half, n", [(8.0, 512), (0.25, 512),
                                         (7.3, 96), (1.0, 2)])
    def test_orbit_map(self, half, n):
        box = UniformBox((half, 3.0), (n, 8))
        rep, orbit = box.mirror_orbits(0)
        assert rep.size == n // 2 + 1
        np.testing.assert_array_equal(orbit[rep], np.arange(rep.size))
        size = np.bincount(orbit)
        assert size.sum() == n
        assert size[0] == size[-1] == 1 and np.all(size[1:-1] == 2)
        # each point is its representative's mirror image, to an ulp
        ax = box.axes()[0]
        assert np.all(np.abs(np.abs(ax) - np.abs(ax[rep][orbit]))
                      <= 2.0 * np.spacing(half))
        assert box.mirror_orbits(1)[0].size == 5

    @pytest.mark.parametrize("half, n, hole", [
        (inequalities._OUT_HALF, inequalities._OUT_N,
         inequalities._CORE_HALF),
        (7.3, 96, 1.0), (7.3, 96, 0.9), (1.0, 2, 0.5)])
    def test_window_sizes_count_the_window(self, half, n, hole):
        box = UniformBox((half, half), (n, n))
        ax = box.axes()[0]
        inside = np.count_nonzero((ax >= -hole) & (ax < hole))
        assert inequalities._orbit_sizes(box).sum() == n
        assert inequalities._orbit_sizes(box, hole).sum() == inside
        # the outer box's core window: 16 points at spacing 1/32, whose
        # left end -1/4 has its mirror image outside
        if half == inequalities._OUT_HALF:
            sizes = inequalities._orbit_sizes(box, hole)
            assert inside == 16
            assert sizes[n // 2 - 8] == 1.0 and sizes[n // 2] == 1.0

    @pytest.mark.parametrize("q", [1.2, 4.0 / 3.0, 1.5])
    def test_q_norm_matches_full_box(self, q):
        t, w = t_quadrature(0.25, 1).nodes()
        for n in range(7):
            s = 2.0 ** -n
            assert rel_gap(inequalities._l1_image_q_norm(s, 0.5, q, t, w),
                           full_box_q_norm(s, 0.5, q, t, w)) <= 1e-14

    @pytest.mark.parametrize("hole", [0.0, 1.0])
    def test_cell_sum_matches_full_box_off_dyadic(self, hole):
        # at R = 7.3, n = 96 a point and its mirror image differ by an
        # ulp at some k, so the representative is not bit-equal to it
        box = UniformBox((7.3, 7.3), (96, 96))
        ax = box.axes()[0]
        assert np.any(-ax[1:48] != ax[:48:-1])
        t, w = t_quadrature(0.25, 1).nodes()
        for q in (1.2, 4.0 / 3.0, 1.5):
            for n in range(7):
                s = 2.0 ** -n
                got = inequalities._l1_cell_sum(s, 0.5, q, t, w, box, hole)
                want = full_box_cell_sum(s, 0.5, q, t, w, box, hole)
                # with a hole both sums are a whole-box sum less a window
                # sum, and at small sigma the window holds most of the
                # mass: the roundoff scale is the whole-box sum
                scale = full_box_cell_sum(s, 0.5, q, t, w, box)
                assert abs(got - want) <= 1e-14 * scale

    @pytest.mark.parametrize("control", [False, True])
    def test_center_value_matches_full_circle(self, control):
        alpha = 0.5
        kappa = (alpha / 2.0) * (1.0 + inequalities._PROFILE_EPS)

        def fr(r):
            if control:
                return np.exp(-2.0 * r * r)
            return r ** -alpha * np.log(1.0 / r) ** -kappa

        for m in range(7):
            dl = 2.0 ** -(m + 2)
            assert rel_gap(inequalities._center_value(fr, dl, alpha),
                           full_circle_center_value(fr, dl, alpha)) <= 1e-14


class TestEndpointLinf:
    def test_profile_divergent(self):
        rep = hls_endpoint_demo("Linf-range", 0.5, 1, 4.0)
        assert rep.all_passed
        assert np.isfinite(metric(rep, "profile_lp_norm").value)
        assert metric(rep, "increment_ratio").value > 0.9

    def test_control_stabilizes(self):
        rep = hls_endpoint_demo("Linf-range", 0.5, 1, 4.0, control=True)
        assert rep.all_passed
        assert metric(rep, "increment_ratio").value < 0.9

    def test_beyond_threshold_bounded(self):
        # p* = (d+1)/alpha = 4; p = 5 sits on the bounded side
        rep = hls_endpoint_demo("Linf-range", 0.5, 1, 5.0)
        assert rep.all_passed
        assert metric(rep, "bounded_sup").value < 2.0

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            hls_endpoint_demo("mid-range", 0.5, 1, 1.2)
        with pytest.raises(InvalidParameterError):
            hls_endpoint_demo("L1-range", 0.5, 2, 1.2)
        with pytest.raises(InvalidParameterError):
            hls_endpoint_demo("L1-range", 0.5, 1, 0.5)
        with pytest.raises(InvalidParameterError):
            hls_endpoint_demo("L1-range", 0.5, 1, 1.2, levels=12)
        with pytest.raises(InvalidParameterError):
            hls_endpoint_demo("L1-range", 2.5, 1, 1.2)


class TestBoxSizing:
    def test_box_sizing_respects_caps(self, fam_small):
        g = _default_grid(1)
        box = _measured_box(g, ([f.values] for f in fam_small.members(g)),
                            (32, 32))
        assert box.half_widths[0] <= g.L_rho
        assert box.half_widths[1] <= float(np.abs(g.nodes_x).max())
        assert box.counts == (32, 32)
