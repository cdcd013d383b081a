"""Spectral calculus for the partial harmonic oscillator on R^(d+1).

The operator is H = -d^2/drho^2 - Delta_x + |x|^2: a free direction rho
paired with a d-dimensional harmonic oscillator in x.  The package
diagonalizes H on a mixed Fourier x Gauss-Hermite grid and builds the
functional calculus on top: heat flow, fractional powers, ladder and
Riesz operators, pseudodifferential symbols, Sobolev norms, and
numerical verification of the associated inequalities.
"""
from .errors import (
    AliasingWarning,
    ConfigError,
    DomainError,
    InvalidParameterError,
    NonFiniteSampleError,
    QuadratureError,
    ResolutionWarning,
    SingularMultiplierError,
    SingularPointError,
    TruncationError,
    TruncationWarning,
    UnknownSuiteError,
)
from .grid import (
    Field,
    Grid,
    UniformBox,
    box_lp_norm,
    inner,
    lp_norm,
    make_grid,
    resample,
    sample,
)
from .inequalities import (
    check_exponents,
    gns_check,
    hardy_check,
    hls_check,
    hls_endpoint_demo,
    shifted_hls_check,
)
from .sobolev import (
    TestFamily,
    equivalence_report,
    inclusion_chain_check,
    ladder_norm,
    potential_norm,
    riesz_on_potential_check,
    strict_inclusion_demo,
    weighted_decay_check,
)
from .symbols import (
    SampleDomain,
    SymbolFn,
    b_symbol,
    constant_symbol_fn,
    frequency_symbol_fn,
    gm_bound_estimate,
    p_t_symbol,
    quantize,
    riesz_symbol,
    riesz_symbol_fn,
    sigma_alpha,
    sigma_symbol_fn,
    symbol_decay_report,
)
from .heat_kernel import (
    TQuadrature,
    b_quadratic,
    frac_power_kernel,
    heat_apply_kernel,
    heat_kernel_E,
    k_alpha,
    kernel_bound_report,
    psi_alpha,
    sample_pairs,
    schur_weighted_report,
    t_quadrature,
)
from .hermite import (
    GHRule,
    gauss_hermite,
    hermite_all,
    hermite_eval,
    mehler_closed_form,
    mehler_partial_sum,
    multi_indices,
    phi_mu,
    projection_kernel,
)
from .ladder import (
    apply_A,
    commute_check,
    commute_matrix_report,
    duality_check,
    grad_H,
    inverse_riesz_check,
    riesz,
)
from .report import Metric, Report
from .spectral import (
    SpectralCoeffs,
    apply_multiplier,
    forward,
    heat_spectral,
    inverse,
    mode_field,
    plancherel_norm,
    power_multiplier,
    spectral_frac_power,
    tail_energy,
)

__version__ = "0.1.0"
