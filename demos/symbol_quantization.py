"""Fractional powers as pseudodifferential operators.

The negative power H^(-1/2) has an explicit phase-space symbol given
by a time integral of the semigroup symbol.  Quantizing it with the
FFT and applying it to a Gaussian field should land on the spectral
route; the Riesz symbol should land on the ladder route.  Both
cross-checks run below, followed by the anisotropic decay estimate
|D^beta sigma| <= C <|x| + |omega|>^(m - |beta|) sampled over dyadic
shells.
"""
import numpy as np

from pharmonic import make_grid, sample
from pharmonic.grid import UniformBox, resample
from pharmonic.ladder import riesz
from pharmonic.spectral import spectral_frac_power
from pharmonic.symbols import (SampleDomain, gm_bound_estimate, quantize,
                               riesz_symbol_fn, sigma_symbol_fn)

grid = make_grid(1, 64, 10.0, 24, 32)
f = sample(grid, lambda r, x: np.pi ** -0.25
           * np.exp(-0.5 * (r ** 2 + x ** 2)))
box = UniformBox((8.0, 8.0), (48, 48))
fbox = resample(f, box)


def rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


got = quantize(sigma_symbol_fn(-0.5, 1), fbox, box)
want = resample(spectral_frac_power(f, -0.5), box)
print(f"T_sigma(-1/2) f vs spectral H^(-1/2) f:   rel L2 {rel(got, want):.2e}")

got = quantize(riesz_symbol_fn(0, 1), fbox, box)
want = resample(riesz(0, f), box)
print(f"T_riesz(0) f  vs ladder A_0 H^(-1/2) f:   rel L2 {rel(got, want):.2e}")

# symbol-class membership: normalized derivative sups over a growing
# sample domain, stable when the cap doubles
dom = SampleDomain(d=1, cap=64.0, per_shell=2, seed=0)
rep = gm_bound_estimate(sigma_symbol_fn(-0.5, 1), dom, r=2)
print("\nsigma_(-1/2) in the anisotropic class of order -1:")
for m in rep.metrics:
    print(f"  {m.name:20s} {m.value:10.4f}   "
          f"{'ok' if m.passed else 'FAIL'}")
