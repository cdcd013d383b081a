"""Sobolev norm families, equivalence, weighted decay, inclusions.

The ladder-norm ground mode value (1 + sqrt 2) ||f||_2 is exact ladder
arithmetic: A_0 and the annihilator kill the mode, the raise gives
sqrt(2) Phi_1.  The strict-inclusion growth numbers are pinned loosely;
the content is monotone non-stabilization vs a stabilizing Gaussian
control.
"""
import hashlib
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pharmonic import (
    InvalidParameterError,
    ResolutionWarning,
    TestFamily,
    equivalence_report,
    ladder_norm,
    lp_norm,
    make_grid,
    potential_norm,
    riesz_on_potential_check,
    strict_inclusion_demo,
    weighted_decay_check,
)
from pharmonic import grid as grid_module
from pharmonic.grid import Field, UniformBox, _sum_sq
from pharmonic.ladder import apply_A, riesz
from pharmonic.sobolev import _bessel_power
from pharmonic.spectral import SpectralCoeffs, forward, inverse, mode_field


@pytest.fixture(scope="module")
def g1():
    return make_grid(1, 64, 10.0, 24, 32)


@pytest.fixture(scope="module")
def g_quartic():
    # 4K <= 2M - 1 so p = 4 Gauss-Hermite quadrature is exact
    return make_grid(1, 64, 10.0, 12, 32)


class TestFamilyType:
    def test_unknown_kind(self):
        with pytest.raises(InvalidParameterError):
            TestFamily("chebyshev", 5)

    def test_empty(self):
        with pytest.raises(InvalidParameterError):
            TestFamily("gaussian", 0)

    def test_stable_prefix(self, g1):
        small = TestFamily("band_limited", 3, seed=11).members(g1)
        big = TestFamily("band_limited", 10, seed=11).members(g1)
        for a, b in zip(small, big):
            assert np.array_equal(a.values, b.values)

    def test_band_limited_members_are_real_and_limited(self, g1):
        for f in TestFamily("band_limited", 4, seed=2).members(g1):
            assert f.values.dtype == np.float64
            c = forward(f)
            top = np.abs(c.data[:, g1.mu_abs > g1.K - 2]) ** 2
            assert top.sum() < 1e-20 * (np.abs(c.data) ** 2).sum()

    @pytest.mark.parametrize("kind", ["band_limited", "gaussian"])
    @pytest.mark.parametrize("d", [1, 3])
    def test_coeffs_are_the_members_transform(self, kind, d):
        g = make_grid(d, 16, 6.0, 6, 10)
        fam = TestFamily(kind, 3, seed=8)
        for i in range(3):
            got = fam.coeffs(g, i).data
            want = forward(fam.member(g, i)).data
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    @pytest.mark.parametrize("kind", ["band_limited", "gaussian"])
    def test_draw_is_one_draw_of_coeffs_and_member(self, kind):
        # the slabs of a draw, copied as they come (each overwrites the
        # last), concatenate to the member's values bit for bit; a
        # band_limited member comes in slabs of rho rows (one slab
        # within the default budget, 6 when it is cut to 3 rows of
        # complex128), a gaussian member as its one sampled array
        g = make_grid(2, 16, 6.0, 6, 10)
        fam = TestFamily(kind, 2, seed=8)
        for budget, n_slabs in ((grid_module._SLAB_BYTES, 1),
                                (16 * 3 * g.M ** g.d, 6)):
            for i in range(2):
                with mock.patch.object(grid_module, "_SLAB_BYTES", budget):
                    c, slabs = fam.draw(g, i)
                    parts = [s.copy() for s in slabs]
                f = fam.member(g, i)
                assert c.data.tobytes() == fam.coeffs(g, i).data.tobytes()
                assert len(parts) == (1 if kind == "gaussian" else n_slabs)
                values = np.concatenate(parts)
                assert values.dtype == f.values.dtype == np.float64
                assert values.tobytes() == f.values.tobytes()

    def test_band_limited_member_bits_pinned(self):
        # the bits of d = 1 members on the hls default grid: a change
        # of draw, transform order or real-part handling shows here;
        # hashed as complex128, the dtype the digest was first taken in
        g = make_grid(1, 64, 10.0, 8, 40)
        fam = TestFamily("band_limited", 3, seed=5)
        h = hashlib.sha256()
        for f in fam.members(g):
            h.update(f.values.astype(np.complex128).tobytes())
        assert h.hexdigest() == ("d9a432711e42f39513334a2fa1a60c06"
                                 "b02319ff35dfc7146d0c27ae18564a34")

    @pytest.mark.parametrize("kind", ["gaussian"])
    def test_kinds_produce_finite_members(self, g1, kind):
        for f in TestFamily(kind, 3, seed=4).members(g1):
            assert np.isfinite(f.values).all()
            assert lp_norm(f, 2.0) > 0


class TestPotentialNorm:
    def test_ground_mode_alpha_two(self, g1):
        f = mode_field(g1, 0, (0,))
        assert potential_norm(f, 2.0, 2.0) == pytest.approx(
            lp_norm(f, 2.0), rel=1e-12)

    def test_alpha_zero_is_plain_norm(self, g1):
        f = TestFamily("gaussian", 1, seed=5).members(g1)[0]
        for p in (2.0, 4.0):
            assert potential_norm(f, 0.0, p) == pytest.approx(
                lp_norm(f, p), rel=1e-14)

    def test_homogeneity(self, g1):
        f = TestFamily("band_limited", 1, seed=6).members(g1)[0]
        scaled = Field(g1, -2.5 * f.values)
        assert potential_norm(scaled, 1.0, 2.0) == pytest.approx(
            2.5 * potential_norm(f, 1.0, 2.0), rel=1e-12)

    def test_negative_alpha_rejected(self, g1):
        f = mode_field(g1, 0, (0,))
        with pytest.raises(InvalidParameterError):
            potential_norm(f, -1.0, 2.0)


class TestLadderNorm:
    def test_ground_mode_value(self, g1):
        f = mode_field(g1, 0, (0,))
        got = ladder_norm(f, 1, 2.0) / lp_norm(f, 2.0)
        assert got == pytest.approx(1.0 + math.sqrt(2.0), rel=1e-12)

    def test_zero_field(self, g1):
        z = Field(g1, np.zeros(g1.shape, dtype=np.complex128))
        assert ladder_norm(z, 2, 2.0) == 0.0

    def test_monotone_in_k(self, g1):
        f = TestFamily("band_limited", 1, seed=7).members(g1)[0]
        assert ladder_norm(f, 2, 2.0) >= ladder_norm(f, 1, 2.0)

    def test_invalid_k(self, g1):
        f = mode_field(g1, 0, (0,))
        with pytest.raises(InvalidParameterError):
            ladder_norm(f, 3, 2.0)

    @settings(max_examples=20, deadline=None)
    @given(d=st.integers(1, 3), log2_n=st.integers(1, 3),
           K=st.integers(2, 4), extra=st.integers(0, 2),
           L=st.floats(1.0, 10.0), seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_tuple_enumeration(self, d, log2_n, K, extra, L, seed):
        # the reference lists every ladder tuple in the order
        # 0, 1, -1, 2, -2, ... and norms each image by grid quadrature
        g = make_grid(d, 2 ** log2_n, L, K, K + 1 + extra)
        rng = np.random.default_rng(seed)
        data = rng.standard_normal((g.N_rho, g.n_mu)) \
            + 1j * rng.standard_normal((g.N_rho, g.n_mu))
        data[:, g.mu_abs >= g.K - 1] = 0.0    # so raising twice drops nothing
        f = inverse(SpectralCoeffs(g, data))
        indices = [0] + [j for jj in range(1, d + 1) for j in (jj, -jj)]
        c = forward(f)
        firsts = {j: apply_A(j, c) for j in indices}
        for p in (2.0, 4.0):
            want = lp_norm(f, p)
            for j in indices:
                want += lp_norm(inverse(firsts[j]), p)
            assert abs(ladder_norm(f, 1, p) - want) <= 1e-13 * want
            for j1 in indices:
                for j2 in indices:
                    want += lp_norm(inverse(apply_A(j1, firsts[j2])), p)
            assert abs(ladder_norm(f, 2, p) - want) <= 1e-13 * want


class TestNormAxioms:
    @pytest.mark.parametrize("p", [2.0, 4.0])
    def test_triangle_and_homogeneity(self, g_quartic, p):
        g = g_quartic
        fa, fb = TestFamily("band_limited", 2, seed=8).members(g)
        for norm in (lambda h: potential_norm(h, 1.0, p),
                     lambda h: ladder_norm(h, 1, p)):
            na, nb = norm(fa), norm(fb)
            assert norm(fa + fb) <= na + nb + 1e-10 * (na + nb)
            assert norm(Field(g, 3.0 * fa.values)) == pytest.approx(
                3.0 * na, rel=1e-12)


class TestEquivalence:
    def test_gaussian_bracket(self, g1):
        rep = equivalence_report(g1, TestFamily("gaussian", 10, seed=1),
                                 ((1, 2.0),))
        assert rep.all_passed, rep.failures()
        vals = {m.name: m.value for m in rep.metrics}
        assert 0 < vals["k1p2_ratio_min"] <= vals["k1p2_ratio_max"] < 20

    def test_pairs_score_as_single_pairs(self, g1):
        # scoring every pair on each member, built once, gives each
        # pair's report, prefixed, bit for bit
        fam = TestFamily("gaussian", 2, seed=4)
        pairs = ((1, 2.0), (2, 2.0), (1, 4.0))
        both = equivalence_report(g1, fam, pairs)
        singles = [equivalence_report(g1, fam, (pr,)).metrics
                   for pr in pairs]
        assert both.metrics[:-2] == [m for one in singles for m in one[:-2]]
        # the inclusion chain closes every report, whatever the pairs
        assert all(one[-2:] == both.metrics[-2:] for one in singles)
        assert [m.name for m in both.metrics[::3]] == \
            ["k1p2_ratio_min", "k2p2_ratio_min", "k1p4_ratio_min",
             "oscillator_over_hermite_sup"]

    def test_ground_mode_ratio_exact(self, g1):
        f = mode_field(g1, 0, (0,))
        ratio = ladder_norm(f, 1, 2.0) / potential_norm(f, 1.0, 2.0)
        assert ratio == pytest.approx(1.0 + math.sqrt(2.0), rel=1e-12)

    def test_scaling_leaves_ratios(self, g1):
        f = TestFamily("band_limited", 1, seed=9).members(g1)[0]
        big = Field(g1, 10.0 * f.values)
        r1 = ladder_norm(f, 1, 2.0) / potential_norm(f, 1.0, 2.0)
        r2 = ladder_norm(big, 1, 2.0) / potential_norm(big, 1.0, 2.0)
        assert r1 == pytest.approx(r2, rel=1e-13)

    def test_second_order_quartic(self, g_quartic):
        rep = equivalence_report(g_quartic,
                                 TestFamily("band_limited", 6, seed=3),
                                 ((2, 4.0),))
        assert rep.all_passed, rep.failures()

    def test_p2_sharp_sandwich(self, g1):
        # lambda <= tau^2 + 4|mu| + 2d <= 2 lambda coefficientwise
        from pharmonic.ladder import apply_A
        from pharmonic.spectral import inverse
        for f in TestFamily("band_limited", 6, seed=10).members(g1):
            pot_sq = potential_norm(f, 1.0, 2.0) ** 2
            c = forward(f)
            grad_sq = sum(
                lp_norm(inverse(apply_A(j, c)), 2.0) ** 2
                for j in (0, 1, -1))
            assert pot_sq <= grad_sq * (1 + 1e-12)
            assert grad_sq <= 2.0 * pot_sq * (1 + 1e-12)


class TestRieszOnPotential:
    def test_j0_mode_bound(self, g1):
        rep = riesz_on_potential_check((0,), 1.0, 2.0, g1,
                                       TestFamily("band_limited", 5,
                                                  seed=12))
        assert rep.all_passed, rep.failures()
        vals = {m.name: m.value for m in rep.metrics}
        assert vals["j0_operator_ratio_sup"] <= 1.0 + 1e-10

    def test_j1_finite_stable(self, g1):
        rep = riesz_on_potential_check((1,), 1.0, 2.0, g1,
                                       TestFamily("band_limited", 5,
                                                  seed=13))
        assert rep.all_passed, rep.failures()
        assert rep.suite == "riesz"
        assert [m.name for m in rep.metrics] == \
            ["j1_operator_ratio_sup", "j1_refinement_growth"]

    def test_base_sup_is_the_head_of_the_family(self, g1):
        # one base member, so its ratio alone is the base sup; the
        # report's growth must divide by it, not by any other member's
        fam = TestFamily("band_limited", 1, seed=16)

        def ratio(f):
            return (potential_norm(riesz(1, f), 1.0, 2.0)
                    / potential_norm(f, 1.0, 2.0))

        base = ratio(fam.member(g1, 0))
        wide = max(ratio(fam.member(g1, i)) for i in range(fam.size))
        rep = riesz_on_potential_check((1,), 1.0, 2.0, g1, fam)
        vals = {m.name: m.value for m in rep.metrics}
        assert vals["j1_operator_ratio_sup"] == pytest.approx(wide,
                                                             rel=1e-12)
        assert vals["j1_refinement_growth"] == pytest.approx(wide / base,
                                                             rel=1e-12)


class TestWeightedDecay:
    def test_half_power(self, g1):
        rep = weighted_decay_check(0.5, 2.0, g1,
                                   TestFamily("gaussian", 5, seed=2))
        assert rep.all_passed, rep.failures()

    def test_alpha_zero_identity(self, g1):
        rep = weighted_decay_check(0.0, 2.0, g1,
                                   TestFamily("gaussian", 3, seed=2))
        vals = {m.name: m.value for m in rep.metrics}
        assert vals["weighted_operator_sup"] == pytest.approx(1.0,
                                                              abs=1e-6)
        assert vals["corollary_weighted_sup"] == pytest.approx(1.0,
                                                               abs=1e-6)

    def test_negative_alpha_rejected(self, g1):
        with pytest.raises(InvalidParameterError):
            weighted_decay_check(-0.5, 2.0, g1,
                                 TestFamily("gaussian", 2, seed=1))


class TestInclusionChain:
    def test_gaussian_ranking(self, g1):
        rep = equivalence_report(g1, TestFamily("gaussian", 6, seed=3),
                                 ((1, 2.0),))
        chain = {m.name: m.value for m in rep.metrics[-2:]}
        assert rep.all_passed, rep.failures()
        assert list(chain) == ["oscillator_over_hermite_sup",
                               "classical_over_oscillator_sup"]
        # ||rho f||^2 > 0 for every nonzero member
        assert 0 < chain["oscillator_over_hermite_sup"] < 1
        assert 0 < chain["classical_over_oscillator_sup"] <= 2


def assert_bessel_power_matches(a, b, box, alpha):
    fhat = np.fft.fftn(np.outer(a, b))
    fhat *= (1.0 + _sum_sq(box.freq_axes())) ** (alpha / 2.0)
    want = np.fft.ifftn(fhat)
    got = _bessel_power(a, b, box, alpha)
    assert got.dtype == np.float64 and got.shape == box.counts
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


class TestStrictInclusion:
    def test_f1_grows(self):
        rep = strict_inclusion_demo("f1", 0.5, 2.0)
        assert rep.all_passed, rep.failures()
        vals = {m.name: m.value for m in rep.metrics}
        assert vals["monotone"] == 1.0
        assert vals["mass_growth"] > 2.0

    def test_f2_grows(self):
        rep = strict_inclusion_demo("f2", 0.5, 2.0)
        assert rep.all_passed, rep.failures()
        assert {m.name: m.value for m in rep.metrics}["mass_growth"] > 2.0

    @pytest.mark.parametrize("which", ["f1", "f2"])
    def test_gaussian_control_stabilizes(self, which):
        rep = strict_inclusion_demo(which, 0.5, 2.0, control=True)
        assert rep.all_passed, rep.failures()
        assert {m.name: m.value
                for m in rep.metrics}["mass_growth"] < 1.01

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            strict_inclusion_demo("f3", 0.5, 2.0)
        with pytest.raises(InvalidParameterError):
            strict_inclusion_demo("f1", 1.5, 2.0)
        with pytest.raises(InvalidParameterError):
            strict_inclusion_demo("f1", 0.5, 1.0)
        with pytest.raises(InvalidParameterError):
            strict_inclusion_demo("f1", 0.5, 2.0, radii=(4.0, 8.0, 16.0))
        with pytest.raises(InvalidParameterError):
            strict_inclusion_demo("f1", 0.5, 2.0, radii=(4.0, 8.0, 8.0,
                                                         16.0))
        with pytest.raises(InvalidParameterError):
            strict_inclusion_demo("f1", 0.5, 2.0,
                                  radii=(8.0, 16.0, 32.0, 47.0))

    @pytest.mark.parametrize("control", [False, True])
    def test_bessel_power_equals_full_transform(self, control):
        # the f1 witnesses on the default box: the line transforms
        # against the complex fftn of the product they replaced
        box = UniformBox((48.0, 48.0), (1024, 1024))
        decay = 1.0 / 2.0 + 0.5
        line = ((lambda v: np.exp(-v ** 2 / 2.0)) if control
                else (lambda v: (1.0 + np.abs(v)) ** -decay))
        a, b = (line(ax) for ax in box.axes())
        assert_bessel_power_matches(a, b, box, -0.5)

    @pytest.mark.parametrize("seed", range(4))
    def test_bessel_power_random_separable(self, seed):
        rng = np.random.default_rng(seed)
        counts = tuple(int(2 * k) for k in rng.integers(1, 40, size=2))
        box = UniformBox(tuple(rng.uniform(1.0, 20.0, size=2)), counts)
        a, b = (rng.standard_normal(n) for n in counts)
        assert_bessel_power_matches(a, b, box, rng.uniform(-2.0, 2.0))

    def test_coarse_resolution_warns(self):
        # radii spaced below the grid spacing share the same cells, so
        # the weighted norms tie instead of increasing
        with pytest.warns(ResolutionWarning):
            strict_inclusion_demo("f1", 0.5, 2.0, n_points=16,
                                  radii=(4.0, 4.5, 5.0, 5.5))
