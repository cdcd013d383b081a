import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pharmonic import (
    Field,
    InvalidParameterError,
    NonFiniteSampleError,
    TruncationWarning,
    UniformBox,
    box_lp_norm,
    inner,
    lp_norm,
    make_grid,
    mode_field,
    phi_mu,
    resample,
    sample,
)
from pharmonic import grid as grid_module
from pharmonic.grid import (_box_lp_norm_coeffs, _box_series,
                            _contract_axis, _pow_nonneg, _sum_sq, _x_series)
from pharmonic.hermite import hermite_all
from pharmonic.sobolev import TestFamily
from pharmonic.spectral import (SpectralCoeffs, _is_real_series, _to_cube,
                                forward)


def old_lp_norm(field, p):
    """lp_norm as first written, three full-size temporaries and the
    weight rebuilt per call; kept as the bit-exact reference."""
    a = np.abs(field.values)
    if p == np.inf:
        return float(a.max())
    w = field.grid.x_weight() * field.grid.drho
    return float(np.sum(w * a ** p) ** (1.0 / p))


def old_box_lp_norm(values, box, p):
    """box_lp_norm as first written: always a mask and a gather."""
    values = np.asarray(values)
    mask = np.ones(values.shape, dtype=bool)
    a = np.abs(values)
    if p == np.inf:
        return float(a[mask].max()) if mask.any() else 0.0
    return float((np.sum(a[mask] ** p) * box.cell_volume) ** (1.0 / p))


exponents = st.sampled_from([1, 1.5, 2, 2.0, 2.5, 4, np.inf])


def test_make_grid_shapes():
    g = make_grid(d=1, N_rho=64, L_rho=10, K=16, M=17)
    assert g.shape == (64, 17)
    g2 = make_grid(d=2, N_rho=32, L_rho=8, K=8, M=9)
    assert g2.shape == (32, 9, 9)
    assert g2.n_mu == 45  # binom(8+2,2)


def test_make_grid_rejects_bad_parameters():
    with pytest.raises(InvalidParameterError):
        make_grid(d=1, N_rho=64, L_rho=10, K=16, M=16)  # M < K+1
    with pytest.raises(InvalidParameterError):
        make_grid(d=1, N_rho=48, L_rho=10, K=4, M=8)    # not a power of two
    with pytest.raises(InvalidParameterError):
        make_grid(d=0, N_rho=64, L_rho=10, K=4, M=8)
    with pytest.raises(InvalidParameterError):
        make_grid(d=1, N_rho=64, L_rho=-1.0, K=4, M=8)


def test_make_grid_size_limits():
    # 2^24 points and C(362, 2) = 65341 <= 2^16 modes are accepted
    assert make_grid(d=3, N_rho=64, L_rho=4.0, K=0, M=64).shape == (64,) * 4
    assert make_grid(d=2, N_rho=2, L_rho=4.0, K=360, M=361).n_mu == 65341
    with pytest.raises(InvalidParameterError, match="points"):
        make_grid(d=3, N_rho=128, L_rho=4.0, K=0, M=64)
    with pytest.raises(InvalidParameterError, match="points"):
        make_grid(d=10 ** 12, N_rho=2, L_rho=4.0, K=0, M=2)
    # C(363, 2) = 65703
    with pytest.raises(InvalidParameterError, match="modes"):
        make_grid(d=2, N_rho=2, L_rho=4.0, K=361, M=362)
    # with M = 1 the rho axis alone sets the count
    with pytest.raises(InvalidParameterError, match="points"):
        make_grid(d=3, N_rho=2 ** 25, L_rho=4.0, K=0, M=1)


@pytest.mark.skipif(int(np.__version__.split(".")[0]) < 2,
                    reason="numpy 1.x arrays hold at most 32 axes")
def test_make_grid_axis_limit():
    # M = 1 passes both size limits at any d, but a kernel stack has
    # d + 2 axes and numpy 2.x arrays at most 64
    assert make_grid(62, 2, 1.0, 0, 1).shape == (2,) + (1,) * 62
    with pytest.raises(InvalidParameterError, match="axes"):
        make_grid(63, 2, 1.0, 0, 1)


@pytest.mark.parametrize("L_rho", [np.nan, np.inf, 1e308, 1e-320])
def test_make_grid_rejects_a_grid_that_is_not_finite(L_rho):
    # NaN or inf rho points, or infinite frequencies; silently
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidParameterError, match="not finite"):
            make_grid(d=1, N_rho=8, L_rho=L_rho, K=2, M=4)


def test_grid_frequencies_and_weights():
    g = make_grid(d=1, N_rho=8, L_rho=4.0, K=3, M=5)
    # fft ordering: 0, 1, 2, 3, -4, -3, -2, -1 times pi/L
    np.testing.assert_allclose(
        g.tau, np.pi / 4.0 * np.array([0, 1, 2, 3, -4, -3, -2, -1]), atol=1e-14)
    assert (g.weights_x > 0).all()
    assert g.drho == pytest.approx(1.0)


def test_mode_index_lookup():
    g = make_grid(d=2, N_rho=8, L_rho=4.0, K=4, M=6)
    for i, mu in enumerate(g.mu):
        assert g.mode_index(tuple(mu)) == i
    with pytest.raises(InvalidParameterError):
        g.mode_index((5, 5))


def test_sample_and_field_validation():
    g = make_grid(d=1, N_rho=16, L_rho=5.0, K=2, M=4)
    f = sample(g, lambda rho, x: np.ones_like(rho + x))
    assert f.values.shape == g.shape
    np.testing.assert_allclose(f.values, 1.0)
    with pytest.raises(NonFiniteSampleError):
        sample(g, lambda rho, x: np.full_like(rho + x, np.inf))
    with pytest.raises(InvalidParameterError):
        Field(g, np.zeros((3, 3), dtype=complex))


def test_lp_norm_gaussian():
    # odd M puts a node at x = 0 where the sup sits
    g = make_grid(d=1, N_rho=128, L_rho=12.0, K=4, M=9)
    f = sample(g, lambda rho, x: np.pi ** -0.25 * np.exp(-rho ** 2 / 2)
               * phi_mu(np.array([0]), x[..., None]))
    assert lp_norm(f, 2) == pytest.approx(1.0, abs=1e-10)
    assert lp_norm(f, np.inf) == pytest.approx(np.pi ** -0.5, rel=1e-12)
    # |f| only decays like exp(-x^2/2), outside the rule's exactness
    # class; h_0^2 has the full Gaussian weight and integrates exactly
    f1 = sample(g, lambda rho, x: np.exp(-rho ** 2 / 2)
                * phi_mu(np.array([0]), x[..., None]) ** 2)
    assert lp_norm(f1, 1) == pytest.approx(np.sqrt(2 * np.pi), rel=1e-12)


def test_lp_norm_indicator_sup():
    g = make_grid(d=1, N_rho=32, L_rho=6.0, K=3, M=5)
    f = sample(g, lambda rho, x: phi_mu(np.array([0]), x[..., None])
               * np.ones_like(rho))
    # nodes of an odd-order rule include 0, where h_0 peaks
    assert lp_norm(f, np.inf) == pytest.approx(np.pi ** -0.25, rel=1e-12)


def test_lp_norm_homogeneity_and_triangle():
    g = make_grid(d=1, N_rho=32, L_rho=6.0, K=6, M=10)
    rng = np.random.default_rng(7)
    a = Field(g, rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))
    b = Field(g, rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))
    for p in (1, 2, 4, np.inf):
        assert lp_norm(3.7 * a, p) == pytest.approx(3.7 * lp_norm(a, p), rel=1e-12)
        assert lp_norm(a + b, p) <= lp_norm(a, p) + lp_norm(b, p) + 1e-12


def test_inner_orthonormal_modes():
    g = make_grid(d=1, N_rho=16, L_rho=5.0, K=4, M=6)
    f = mode_field(g, 3, (1,))
    h = mode_field(g, 2, (1,))
    # modes have L^2 mass 2L over the period
    assert inner(f, f) == pytest.approx(2 * g.L_rho, rel=1e-12)
    assert abs(inner(f, h)) < 1e-12


def test_uniform_box_basics():
    box = UniformBox((4.0, 3.0), (8, 6))
    ax = box.axes()
    assert ax[0][0] == -4.0 and 0.0 in ax[0]
    assert box.cell_volume == pytest.approx(1.0)
    with pytest.raises(InvalidParameterError):
        UniformBox((4.0,), (7,))  # odd count
    with pytest.raises(InvalidParameterError):
        UniformBox((-1.0,), (8,))


@settings(max_examples=50, deadline=None)
@given(sizes=st.lists(st.integers(1, 7), min_size=1, max_size=4),
       seed=st.integers(0, 2 ** 32 - 1))
def test_sum_sq_matches_meshgrid(sizes, seed):
    rng = np.random.default_rng(seed)
    axes = [rng.standard_normal(n) for n in sizes]
    want = sum(m ** 2 for m in np.meshgrid(*axes, indexing="ij"))
    out = _sum_sq(axes)
    assert out.shape == want.shape
    np.testing.assert_array_equal(out, want)


def test_box_lp_norm_restrictions():
    box = UniformBox((2.0, 2.0), (8, 8))
    ones = np.ones((8, 8))
    assert box_lp_norm(ones, box, 1) == pytest.approx(16.0, rel=1e-12)
    # integer samples, powered in place, still give a float norm
    assert box_lp_norm(np.ones((8, 8), dtype=int), box, 2.5) == \
        pytest.approx(16.0 ** 0.4, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 3), log2_n=st.integers(1, 5), K=st.integers(0, 6),
       extra=st.integers(0, 3), L=st.floats(1.0, 10.0),
       L2=st.floats(1.0, 10.0), p=exponents, real=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_lp_norm_bit_equal_to_reference(d, log2_n, K, extra, L, L2, p, real,
                                        seed):
    # two grids of one shape that differ only in L_rho, used alternately:
    # a weight cached across grids would go stale on the second
    rng = np.random.default_rng(seed)
    grids = [make_grid(d, 2 ** log2_n, L_, K, K + 1 + extra) for L_ in (L, L2)]
    for g in grids + grids:
        values = rng.standard_normal(g.shape)
        if not real:
            values = values + 1j * rng.standard_normal(g.shape)
        f = Field(g, values)
        assert lp_norm(f, p).hex() == old_lp_norm(f, p).hex()


def test_lp_norm_weight_is_per_grid_and_read_only():
    a = make_grid(2, 8, 3.0, 3, 5)
    b = make_grid(2, 8, 5.0, 3, 5)
    np.testing.assert_array_equal(a._cell_weight, a.x_weight() * a.drho)
    np.testing.assert_array_equal(b._cell_weight, b.x_weight() * b.drho)
    assert a._cell_weight is a._cell_weight
    with pytest.raises(ValueError):
        a._cell_weight[...] = 0.0


@settings(max_examples=80, deadline=None)
@given(counts=st.lists(st.integers(1, 6), min_size=1, max_size=4),
       half=st.lists(st.floats(0.5, 8.0), min_size=4, max_size=4),
       p=exponents, real=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_box_lp_norm_bit_equal_to_reference(counts, half, p, real, seed):
    box = UniformBox(tuple(half[:len(counts)]), tuple(2 * n for n in counts))
    rng = np.random.default_rng(seed)
    shape = box.counts
    values = rng.standard_normal(shape)
    if not real:
        values = values + 1j * rng.standard_normal(shape)
    out = box_lp_norm(values, box, p)
    want = old_box_lp_norm(values, box, p)
    assert out.hex() == want.hex()


@settings(max_examples=120, deadline=None)
@given(shape=st.lists(st.integers(1, 5), min_size=1, max_size=4),
       m=st.integers(1, 6), data=st.data(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_contract_axis_float_view_matches_complex_matmul(shape, m, data,
                                                         seed):
    """A real matrix on a complex array, every axis (post = 1 and
    length-1 axes included), against the complex-promoted matmul."""
    axis = data.draw(st.integers(0, len(shape) - 1), label="axis")
    rng = np.random.default_rng(seed)
    arr = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    mat = rng.standard_normal((m, shape[axis]))
    got = _contract_axis(arr, mat, axis)
    pre = int(np.prod(shape[:axis]))
    view = arr.reshape(pre, shape[axis], -1)
    out_shape = tuple(shape[:axis]) + (m,) + tuple(shape[axis + 1:])
    want = np.matmul(mat.astype(np.complex128), view).reshape(out_shape)
    # the roundoff scale of each entry: sum |m_ij| |a_j|
    scale = (np.abs(mat) @ np.abs(view)).max()
    assert got.dtype == np.complex128 and got.shape == out_shape
    assert got.flags.c_contiguous
    assert np.abs(got - want).max() <= 1e-14 * scale


def test_resample_band_limited_exact():
    g = make_grid(d=1, N_rho=32, L_rho=6.0, K=5, M=8)
    f = mode_field(g, 1, (0,))
    box = UniformBox((4.0, 3.0), (16, 10))
    vals = resample(f, box)
    mr, mx = box.mesh()
    want = np.exp(1j * (np.pi / 6.0) * mr) * phi_mu(np.array([0]), mx[..., None])
    assert np.abs(vals - want).max() < 1e-8


def test_resample_gaussian_box():
    g = make_grid(d=1, N_rho=128, L_rho=12.0, K=12, M=16)
    f = sample(g, lambda rho, x: np.exp(-rho ** 2 / 2)
               * phi_mu(np.array([0]), x[..., None]))
    box = UniformBox((6.0, 6.0), (128, 128))
    vals = resample(f, box)
    mr, mx = box.mesh()
    want = np.exp(-mr ** 2 / 2) * phi_mu(np.array([0]), mx[..., None])
    assert np.abs(vals - want).max() < 1e-6


def test_resample_warns_on_top_shell():
    g = make_grid(d=1, N_rho=16, L_rho=5.0, K=4, M=6)
    box = UniformBox((2.0, 2.0), (4, 4))
    with pytest.warns(TruncationWarning):
        resample(mode_field(g, 0, (g.K,)), box)
    # a low mode is clean
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals = resample(mode_field(g, 1, (1,)), box)
    assert vals.shape == (4, 4)


# ---------------------------------------------------------------------------
# the streamed box norm


def old_resample_coeffs(coeffs, box):
    """grid._resample_coeffs as it was before the box norm was streamed:
    the x axes first, the rho plane waves last, on the whole box at
    once; kept as the reference without its tail check."""
    g = coeffs.grid
    axes = box.axes()
    out = _to_cube(g, coeffs.data)
    for axis in range(1, g.d + 1):
        out = _contract_axis(out, hermite_all(g.K, axes[axis]).T, axis)
    phases = np.exp(1j * np.outer(axes[0], g.tau))
    return _contract_axis(out, phases, 0)


@settings(max_examples=80, deadline=None)
@given(d=st.integers(1, 3), half_counts=st.lists(st.integers(1, 7),
                                                 min_size=4, max_size=4),
       half=st.lists(st.floats(0.5, 8.0), min_size=4, max_size=4),
       p=st.sampled_from([1, 1.5, 2, 2.3, 2.5, 3.5, 4, np.inf]),
       weight=st.sampled_from([None, "box", "x"]),
       slab_rows=st.none() | st.integers(1, 4),
       seed=st.integers(0, 2 ** 32 - 1))
@example(d=2, half_counts=[5, 2, 3, 1], half=[3.0, 2.0, 1.0, 1.0], p=2.5,
         weight="box", slab_rows=3, seed=1)   # 10 rows in slabs 3, 3, 3, 1
def test_box_lp_norm_coeffs_matches_reference(d, half_counts, half, p,
                                              weight, slab_rows, seed):
    g = make_grid(d, 8, 4.0, 4, 6)
    rng = np.random.default_rng(seed)
    c = SpectralCoeffs(g, rng.standard_normal((g.N_rho, g.n_mu))
                       + 1j * rng.standard_normal((g.N_rho, g.n_mu)))
    box = UniformBox(tuple(half[:d + 1]),
                     tuple(2 * n for n in half_counts[:d + 1]))
    w = None
    if weight == "box":           # one value per box point
        w = rng.uniform(0.0, 2.0, box.counts)
    elif weight == "x":           # broadcast over the rho rows
        w = rng.uniform(0.0, 2.0, (1,) + box.counts[1:])
    slab = 2 << 20 if slab_rows is None \
        else 16 * slab_rows * int(np.prod(box.counts[1:]))
    with mock.patch.object(grid_module, "_SLAB_BYTES", slab), \
            warnings.catch_warnings():
        # random coefficients fill the top shell; tested below
        warnings.simplefilter("ignore", TruncationWarning)
        out = _box_lp_norm_coeffs(c, box, p, w)
    vals = old_resample_coeffs(c, box)
    want = box_lp_norm(vals if w is None else w * vals, box, p)
    assert abs(out - want) <= 1e-14 * want


def pow_box_lp_norm_coeffs(coeffs, box, p, weight=None):
    """_box_lp_norm_coeffs with one pow per point, as before
    _pow_nonneg: s = |f|^2 w^2 on each slab, then s **= p/2; kept as
    the bit-exact reference where the power path keeps pow's bits."""
    rows, tables = _box_series(coeffs, box)
    step = max(1, grid_module._SLAB_BYTES
               // (16 * math.prod(box.counts[1:])))
    w2 = None if weight is None else np.broadcast_to(np.square(weight),
                                                     box.counts)
    acc = 0.0
    for i in range(0, box.counts[0], step):
        v = _x_series(rows[i:i + step], tables)
        if np.iscomplexobj(v):
            v = v.view(np.float64)
            v *= v
            s = v[..., 0::2] + v[..., 1::2]
        else:
            s = v
            s *= s
        if w2 is not None:
            s *= w2[i:i + step]
        if p == np.inf:
            acc = max(acc, float(s.max()))
        else:
            s **= 0.5 * p
            acc += float(np.sum(s))
    if p == np.inf:
        return math.sqrt(acc)
    return float((acc * box.cell_volume) ** (1.0 / p))


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_box_lp_norm_coeffs_power_path(kind, weighted, seed):
    """q = 2, 4 and inf (the hls, hardy and weighted-decay exponents)
    keep the bits of one pow per point; q = 1.5, 2.5 and 3.5 come from
    products and square roots within 1e-15 of it; q = 2.3, whose 2q is
    not an integer, still takes the pow."""
    g = make_grid(2, 8, 4.0, 5, 7)
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(g.shape)
    if kind == "complex":
        f = f + 1j * rng.standard_normal(g.shape)
    c = forward(Field(g, f))
    assert _is_real_series(c.data) == (kind == "real")
    box = UniformBox((4.0, 3.0, 3.0), (12, 10, 8))
    w = rng.uniform(0.0, 2.0, box.counts) if weighted else None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        for q in (2, 4, np.inf, 2.3):
            assert _box_lp_norm_coeffs(c, box, q, w) == \
                pow_box_lp_norm_coeffs(c, box, q, w)
        for q in (1.5, 2.5, 3.5):
            want = pow_box_lp_norm_coeffs(c, box, q, w)
            assert abs(_box_lp_norm_coeffs(c, box, q, w) - want) \
                <= 1e-15 * want


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("q", [2.0, 4.0, 2.3, np.inf])
def test_weighted_norm_past_the_double_range(kind, q):
    """A weight of 2^600 overflows s w^2 (and w^2 itself), though the
    norm is 2^600 times that of the unscaled weight: the sum is taken
    again with the weight scaled back by a power of two, with no
    overflow warning, and comes out finite."""
    g = make_grid(2, 8, 4.0, 5, 7)
    rng = np.random.default_rng(3)
    f = rng.standard_normal(g.shape)
    if kind == "complex":
        f = f + 1j * rng.standard_normal(g.shape)
    c = forward(Field(g, f))
    box = UniformBox((4.0, 3.0, 3.0), (12, 10, 8))
    w = rng.uniform(0.0, 2.0, box.counts)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        warnings.simplefilter("error", RuntimeWarning)
        want = math.ldexp(_box_lp_norm_coeffs(c, box, q, w), 600)
        got = _box_lp_norm_coeffs(c, box, q, np.ldexp(w, 600))
    assert math.isfinite(got)
    assert abs(got - want) <= 1e-15 * want


@pytest.mark.parametrize("e", [0.5,0.75, 1.0, 1.25, 1.5, 1.75, 2.0, 2.5,
                               3.0, 3.25, 4.0, 5.5, 7.75, 1.15, 2.3])
def test_pow_nonneg_matches_pow(e):
    rng = np.random.default_rng(0)
    a = rng.standard_normal(4096) ** 2 * 10.0 ** rng.uniform(-30, 30, 4096)
    a[:3] = (0.0, 5e-324, 1.0)
    want = a ** e
    got = _pow_nonneg(a.copy(), e)
    if e in (1.0, 2.0) or (4 * e) % 1:      # pow's own bits
        assert np.array_equal(got, want)
    else:                                   # a few ulps
        eps = np.finfo(np.float64).eps
        assert np.all(np.abs(got - want) <= (2.0 + 0.5 * e) * eps * want)


def test_box_lp_norm_coeffs_warns_once_per_call():
    g = make_grid(d=1, N_rho=16, L_rho=5.0, K=4, M=6)
    f = mode_field(g, 0, (g.K,))
    box = UniformBox((2.0, 2.0), (10, 4))
    with warnings.catch_warnings(record=True) as once:
        warnings.simplefilter("always")
        resample(f, box)
    # four slabs of 3, 3, 3 and 1 rows
    with mock.patch.object(grid_module, "_SLAB_BYTES", 3 * 16 * 4), \
            warnings.catch_warnings(record=True) as got:
        warnings.simplefilter("always")
        _box_lp_norm_coeffs(forward(f), box, 2.5)
    assert [w.category for w in got] == [TruncationWarning]
    assert str(got[0].message) == str(once[0].message)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _box_lp_norm_coeffs(forward(mode_field(g, 1, (1,))), box, 2.5)


def test_box_lp_norm_coeffs_slab_heights():
    """Slabs of as many rows as fit in 2 MiB of complex128: one row of a
    48^4 box (1.7 MiB), nine of a 24^4 box, a whole d = 1 box."""
    calls = []
    real = grid_module._x_series

    def counted(rows, tables, bufs=None):
        calls.append(rows.shape[0])
        return real(rows, tables, bufs)

    cases = [(make_grid(3, 4, 4.0, 1, 2), (48,) * 4, [1] * 48),
             (make_grid(3, 4, 4.0, 1, 2), (24,) * 4, [9, 9, 6]),
             (make_grid(1, 8, 4.0, 2, 3), (64, 64), [64])]
    for g, counts, want in cases:
        c = SpectralCoeffs(g, np.ones((g.N_rho, g.n_mu), dtype=complex))
        box = UniformBox((1.0,) * len(counts), counts)
        calls.clear()
        with mock.patch.object(grid_module, "_x_series", counted), \
                warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            _box_lp_norm_coeffs(c, box, 2.0)
        assert calls == want


def test_box_lp_norm_coeffs_memory_d3():
    """A d = 3 member's norm on the 48^4 fine gns box holds no box-sized
    array (85 MB of complex128): it peaks below 16 MB."""
    g = make_grid(3, 32, 8.0, 8, 32)
    c = forward(TestFamily("band_limited", 1, seed=0).members(g)[0])
    box = UniformBox((8.0, 4.0, 4.0, 4.0), (48,) * 4)
    tracemalloc.start()
    try:
        norm = _box_lp_norm_coeffs(c, box, 2.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(norm) and norm > 0.0
    assert peak < 16 * 2 ** 20
