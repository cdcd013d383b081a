import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pharmonic import (
    DomainError,
    gauss_hermite,
    hermite_all,
    hermite_eval,
    mehler_closed_form,
    mehler_partial_sum,
    multi_indices,
    phi_mu,
    projection_kernel,
)
from pharmonic.hermite import compositions

# extended-precision recurrence oracle (mpmath, 60 digits), frozen
H_ORACLE = {
    (50, 1.3): -0.2262195338516221188693,
    (7, -0.4): 0.4061815609096454591582,
    (23, 2.0): -0.2533588974319642192746,
}


def test_recurrence_seed_values():
    assert hermite_eval(0, 0.0) == pytest.approx(np.pi ** -0.25, rel=1e-15)
    assert hermite_eval(1, 0.0) == 0.0


def test_recurrence_matches_extended_precision():
    for (k, x), val in H_ORACLE.items():
        got = hermite_eval(k, x)
        assert abs(got - val) < 1e-12 * abs(val), (k, x, got)


def test_hermite_all_consistent_with_eval():
    x = np.linspace(-4, 4, 41)
    tab = hermite_all(30, x)
    for k in (0, 3, 17, 30):
        np.testing.assert_allclose(tab[k], hermite_eval(k, x), rtol=1e-13)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 40), st.floats(-6, 6))
def test_parity(k, x):
    a = hermite_eval(k, x)
    b = hermite_eval(k, -x)
    assert abs(b - (-1) ** k * a) < 1e-13


def test_derivative_ladder_identity():
    # h_k'(x) = sqrt(2k) h_{k-1}(x) - x h_k(x), so the raising factor
    # (-d/dx + x) sends h_k to sqrt(2(k+1)) h_{k+1}
    x = np.linspace(-6, 6, 241)
    tab = hermite_all(31, x)
    worst = 0.0
    for k in range(31):
        low = np.sqrt(2.0 * k) * tab[k - 1] if k else 0.0
        dh = low - x * tab[k]
        raised = -dh + x * tab[k]
        worst = max(worst, np.abs(raised - np.sqrt(2.0 * (k + 1)) * tab[k + 1]).max())
    assert worst < 1e-10


def test_gauss_hermite_small_orders():
    nodes, weights = gauss_hermite(1)
    np.testing.assert_allclose(nodes, [0.0], atol=1e-15)
    np.testing.assert_allclose(weights, [np.sqrt(np.pi)], rtol=1e-14)
    nodes, weights = gauss_hermite(2)
    np.testing.assert_allclose(np.sort(nodes), [-2 ** -0.5, 2 ** -0.5], rtol=1e-14)
    np.testing.assert_allclose(weights, [np.sqrt(np.pi) / 2] * 2, rtol=1e-14)


def test_gauss_hermite_moments_and_mass():
    nodes, weights = gauss_hermite(17)
    assert abs(weights.sum() - np.sqrt(np.pi)) < 1e-12
    assert abs((weights * nodes ** 2).sum() - np.sqrt(np.pi) / 2) < 1e-12
    # degree-2M-1 exactness edge: x^32 moment = Gamma(16.5)
    import math
    assert (weights * nodes ** 32).sum() == pytest.approx(math.gamma(16.5), rel=1e-12)


def test_orthonormality():
    M, K = 33, 32
    nodes, weights = gauss_hermite(M)
    comp = weights * np.exp(nodes ** 2)
    tab = hermite_all(K, nodes)
    gram = np.einsum("q,jq,kq->jk", comp, tab, tab)
    np.testing.assert_allclose(gram, np.eye(K + 1), atol=1e-12)


def test_phi_mu_products():
    assert phi_mu(np.array([0, 0]), np.array([0.0, 0.0])) == pytest.approx(
        np.pi ** -0.5, rel=1e-14)
    assert phi_mu(np.array([1, 0]), np.array([0.0, 1.7])) == 0.0
    got = phi_mu(np.array([2, 3]), np.array([0.5, -0.2]))
    want = hermite_eval(2, 0.5) * hermite_eval(3, -0.2)
    assert got == pytest.approx(want, rel=1e-14)


def test_compositions_and_ordering():
    from math import comb
    for d in (1, 2, 3):
        for k in (0, 1, 4):
            rows = [tuple(r) for r in compositions(k, d)]
            assert len(rows) == comb(k + d - 1, d - 1)
            assert all(sum(row) == k for row in rows)
            assert rows == sorted(rows)  # lexicographic
    mi = multi_indices(2, 3)
    assert mi.shape == (10, 2)
    deg = mi.sum(axis=1)
    assert (np.diff(deg) >= 0).all()  # degree-major ordering


def test_projection_kernel_base_cases():
    assert projection_kernel(0, np.array([0.0]), np.array([0.0])) == pytest.approx(
        np.pi ** -0.5, rel=1e-14)
    assert projection_kernel(1, np.array([0.0]), np.array([2.3])) == 0.0


def test_projection_kernel_d2_enumeration():
    x = np.array([0.7, -0.3])
    xp = np.array([-1.1, 0.4])
    want = sum(phi_mu(np.array(mu), x) * phi_mu(np.array(mu), xp)
               for mu in [(0, 3), (1, 2), (2, 1), (3, 0)])
    got = projection_kernel(3, x, xp)
    assert got == pytest.approx(want, rel=1e-13)


def test_projection_kernel_d3_enumeration():
    x = np.array([0.7, -0.3, 1.2])
    xp = np.array([-1.1, 0.4, 0.5])
    for k in (0, 1, 4):
        want = sum(phi_mu(mu, x) * phi_mu(mu, xp) for mu in compositions(k, 3))
        got = projection_kernel(k, x, xp)
        assert got == pytest.approx(want, rel=1e-13, abs=1e-16)


def test_projection_kernel_generating_function():
    # sum_k r^k Phi_k(x,x') is Mehler's closed form; ties the kernel
    # enumeration to an independent formula
    x = np.array([0.7, -0.3])
    xp = np.array([-1.1, 0.4])
    r = 0.2
    acc = sum(r ** k * projection_kernel(k, x, xp) for k in range(40))
    want = mehler_closed_form(r, x, xp, d=2)
    assert acc == pytest.approx(want, rel=1e-12)


def test_mehler_closed_form_values():
    want = np.pi ** -0.5 * 0.75 ** -0.5
    assert mehler_closed_form(0.5, np.array(0.0), np.array(0.0), 1) == pytest.approx(
        want, rel=1e-14)
    # r -> 0 limit recovers the rank-one kernel h_0(x) h_0(x')
    assert mehler_closed_form(1e-12, np.array(0.0), np.array(0.0), 1) == pytest.approx(
        np.pi ** -0.5, rel=1e-9)
    a = mehler_closed_form(0.37, np.array(1.2), np.array(-0.8), 1)
    b = mehler_closed_form(0.37, np.array(-0.8), np.array(1.2), 1)
    assert a == b


def test_mehler_domain():
    for bad in (0.0, 1.0, -0.3, 1.7):
        with pytest.raises(DomainError):
            mehler_closed_form(bad, np.array(0.0), np.array(0.0), 1)


def test_partial_sum_base_case():
    for r in (0.1, 0.5, 0.9):
        got = mehler_partial_sum(0, r, np.array(0.0), np.array(0.0), 1)
        assert got == pytest.approx(np.pi ** -0.5, rel=1e-14)


def test_partial_sum_converges_small_r():
    got = mehler_partial_sum(60, 0.5, np.array(0.0), np.array(0.0), 1)
    want = mehler_closed_form(0.5, np.array(0.0), np.array(0.0), 1)
    assert abs(got - want) < 1e-10 * abs(want)


def test_partial_sum_convergence_envelope():
    # |partial_sum(K) - closed| <= r^(K+1)/(1-r) on |x|,|x'| <= 3:
    # the products |h_k h_k'| stay below 1, so the geometric tail bound
    # holds with constant 1
    pts = np.linspace(-3, 3, 7)
    X, XP = np.meshgrid(pts, pts, indexing="ij")
    X, XP = X[..., None], XP[..., None]
    for r in (0.5, 0.9):
        closed = mehler_closed_form(r, X, XP, 1)
        for K in (10, 30, 60):
            part = mehler_partial_sum(K, r, X, XP, 1)
            # geometric tail bound plus a roundoff floor
            bound = r ** (K + 1) / (1 - r) + 1e-13
            assert np.abs(part - closed).max() <= bound


@pytest.mark.parametrize("d", [2, 3])
def test_partial_sum_convergence_envelope_multi_d(d):
    # the d-axis shell sums against the closed form, on the diagonal
    # points (s, .., s) and (s', .., s'), |s|, |s'| <= 2
    pts = np.linspace(-2, 2, 5)
    X, XP = np.meshgrid(pts, pts, indexing="ij")
    x = np.broadcast_to(X[..., None], X.shape + (d,))
    xp = np.broadcast_to(XP[..., None], XP.shape + (d,))
    for r in (0.3, 0.5):
        closed = mehler_closed_form(r, x, xp, d)
        for K in (10, 30, 60):
            part = mehler_partial_sum(K, r, x, xp, d)
            bound = r ** (K + 1) / (1 - r) + 1e-13
            assert np.abs(part - closed).max() <= bound


def test_partial_sum_matches_float64_reference_r09():
    # frozen 50-digit value of the exact truncated sum at the hardest
    # acceptance point; confirms the float64 summation itself is sound
    got = mehler_partial_sum(60, 0.9, np.array(-2.0), np.array(2.0), 1)
    assert got == pytest.approx(-1.754219767165134e-05, rel=1e-9)


R09_ANALYSIS = """r=0.9 at K_sum=60 cannot meet a 1e-6 relative tolerance:
in exact arithmetic (60-digit evaluation) the truncated sum at
(x,x') = (-2,2) is -1.7542e-5 while the closed form is 1.2755e-33, a
relative error of 1.375e+28, because the alternating tail terms
r^k h_k(-2) h_k(2) still have magnitude ~1e-5 at k=60 and only fall
below the kernel value near k ~ 650.  Even normalizing by the kernel
maximum the truncation floor is 3.6e-4.  The identity itself is
correct; the truncation depth is what fails."""


@pytest.mark.xfail(strict=True, reason=R09_ANALYSIS)
def test_partial_sum_r09_tight_tolerance():
    pts = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    X, XP = np.meshgrid(pts, pts, indexing="ij")
    closed = mehler_closed_form(0.9, X[..., None], XP[..., None], 1)
    part = mehler_partial_sum(60, 0.9, X[..., None], XP[..., None], 1)
    assert (np.abs(part - closed) < 1e-6 * np.abs(closed)).all()
