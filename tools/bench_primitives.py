"""Time pharmonic's primitives on the two default grids and write the
per-call medians to BENCH_primitives.json.

    python tools/bench_primitives.py                  # everything, 7 calls
    python tools/bench_primitives.py --repeat 21 --out before.json
    python tools/bench_primitives.py --only heat_apply_kernel --grid d3

The grids are those of the kernel-route suites: d1 is 64 x 40
(N_rho x M, K = 8, L_rho = 10) and d3 is 32 x 32^3 (K = 8, L_rho = 8).
The field is member 0 of the seed-0 band_limited family on the grid.
heat_apply_kernel_complex is heat_apply_kernel on the complex field
member 0 + i member 1, which runs as two real fields.
box_lp_norm is the streamed box L^q norm (grid._box_lp_norm_coeffs) of
that member's coefficients, TestFamily.coeffs, at q = 2.5 on the box
gns norms at that size: 64^2 at d1, the fine 48^4 box at d3;
box_lp_norm_q4 is the same norm at the hls exponent q = 4.
measured_box is the box sizing of the gns check
(inequalities._measured_box) on that member's grid values as
TestFamily.draw gives them, slabs of rho rows of its series, so the
series evaluation is part of the time.
sigma_stencil is sigma_alpha(-1/2) in the layout of the symbols suite's
derivative stencil: x and xi of SampleDomain(1, 64.0, 2, 0) as
(1, P, 1), tau and its two shifted copies as (3, P).  symbols_stencil
is the whole order-2 derivative stencil (symbols._derivative_stencil)
of sigma_alpha(-1/2) on that domain, as the symbols suite evaluates it
on each of its two domains.  l1_image is the
sigma = 2^-3 image of the L1-range endpoint demo (alpha = 1/2) on the
mirror-orbit representatives of its 512^2 outer box, 257^2 points: two
closed-form factors and one GEMM.  center_value is one level of the
Linf-range demo (alpha = 1/2, p = 4): H^(-1/4) of the borderline
profile at the origin, with inner cutoff 2^-8, one k_alpha call on the
radial nodes times the 9 polar-angle orbits.  bessel_power is the f1
witness of the inclusions suite (alpha = 1/2, p = 2): the Bessel
potential of order -alpha of the slow product profile
(1 + |v|)^-(1/p + alpha) on the 1024^2 box (sobolev._bessel_power).
Each primitive makes one untimed call (per-grid constants, caches),
then --repeat timed calls, then one more untimed call under
tracemalloc; the JSON holds the median of the timed calls in ms and
the traced peak of the last in MB (2^20 bytes), both keyed
"<primitive>.<grid>", with the settings and the Python and numpy
versions.  quantize, sigma_stencil, symbols_stencil, l1_image,
center_value and bessel_power are d = 1 only, so they have no d3
entry.

Warnings (truncation, resolution) are silenced: the script measures
time, not accuracy.  It imports pharmonic from the `src/` next to this
directory, so a copy of the tree times that copy's code.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
import tracemalloc
import warnings

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", "src"))

from pharmonic import grid, heat_kernel, inequalities, spectral  # noqa: E402
from pharmonic import sobolev, symbols  # noqa: E402
from pharmonic.sobolev import TestFamily  # noqa: E402

GRIDS = {"d1": (1, 64, 10.0, 8, 40), "d3": (3, 32, 8.0, 8, 32)}
PRIMITIVES = ("forward", "inverse", "heat_apply_kernel",
              "heat_apply_kernel_complex", "frac_power_kernel",
              "resample", "box_lp_norm", "box_lp_norm_q4", "measured_box",
              "k_alpha", "sigma_alpha", "quantize", "sigma_stencil",
              "symbols_stencil", "l1_image", "center_value",
              "bessel_power")


def primitives(g: grid.Grid) -> dict:
    """name -> zero-argument call, on the grid g."""
    d = g.d
    fam = TestFamily("band_limited", 1, seed=0)
    f = fam.member(g, 0)
    fz = grid.Field(g, f.values + 1j * fam.member(g, 1).values)
    c = spectral.forward(f)
    box = grid.UniformBox((6.0,) + (4.0,) * d,
                          (64, 64) if d == 1 else (24,) * (d + 1))
    norm_box = grid.UniformBox(box.half_widths,
                               (64, 64) if d == 1 else (48,) * (d + 1))
    fc = fam.coeffs(g, 0)
    z, zp = heat_kernel.sample_pairs(d, 160, seed=0)
    rng = np.random.default_rng(0)
    x, xi = rng.uniform(-3.0, 3.0, (2, 256, d))
    tau = rng.uniform(-3.0, 3.0, 256)
    calls = {
        "forward": lambda: spectral.forward(f),
        "inverse": lambda: spectral.inverse(c),
        "heat_apply_kernel": lambda: heat_kernel.heat_apply_kernel(f, 0.5),
        "heat_apply_kernel_complex": lambda: heat_kernel.heat_apply_kernel(
            fz, 0.5),
        "frac_power_kernel": lambda: heat_kernel.frac_power_kernel(f, -0.25),
        "resample": lambda: grid.resample(f, box),
        "box_lp_norm": lambda: grid._box_lp_norm_coeffs(fc, norm_box, 2.5),
        "box_lp_norm_q4": lambda: grid._box_lp_norm_coeffs(fc, norm_box, 4.0),
        "measured_box": lambda: inequalities._measured_box(
            g, [fam.draw(g, 0)[1]], box.counts),
        "k_alpha": lambda: heat_kernel.k_alpha(z, zp, 0.75),
        "sigma_alpha": lambda: symbols.sigma_alpha(x, tau, xi, -0.5, d),
    }
    if d == 1:
        qbox = grid.UniformBox((8.0, 8.0), (48, 48))
        values = grid.resample(f, qbox)
        fn = symbols.sigma_symbol_fn(-0.5, 1)
        calls["quantize"] = lambda: symbols.quantize(fn, values, qbox)
        sx, stau, sxi = symbols.SampleDomain(1, 64.0, 2, 0).points()
        h = 1e-3 * np.maximum(1.0, np.sqrt(sx[:, 0] ** 2 + stau ** 2
                                           + sxi[:, 0] ** 2))
        taus = np.stack([stau, stau + h, stau - h])
        calls["sigma_stencil"] = lambda: symbols.sigma_alpha(
            sx[None], taus, sxi[None], -0.5, 1)
        calls["symbols_stencil"] = lambda: symbols._derivative_stencil(
            fn, sx, stau, sxi, 2)
        t, w = heat_kernel.t_quadrature(0.25, 1).nodes()
        out = grid.UniformBox((inequalities._OUT_HALF,) * 2,
                              (inequalities._OUT_N,) * 2)
        calls["l1_image"] = lambda: inequalities._l1_image(
            2.0 ** -3, 0.5, t, w, out)
        kappa = 0.25 * (1.0 + inequalities._PROFILE_EPS)
        calls["center_value"] = lambda: inequalities._center_value(
            lambda r: r ** -0.5 * np.log(1.0 / r) ** -kappa, 2.0 ** -8, 0.5)
        wbox = grid.UniformBox((sobolev._HALF_WIDTH,) * 2, (1024, 1024))
        a, b = ((1.0 + np.abs(ax)) ** -(1.0 / 2.0 + 0.5)
                for ax in wbox.axes())
        calls["bessel_power"] = lambda: sobolev._bessel_power(a, b, wbox,
                                                              -0.5)
    return calls


def time_call(call, repeat: int) -> float:
    """Median wall time of repeat calls after one untimed call, in ms."""
    call()
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        call()
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def traced_peak(call) -> float:
    """The tracemalloc peak of one call, in MB."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--only", action="append", choices=PRIMITIVES,
                    help="primitive to time, repeatable (default: all)")
    ap.add_argument("--grid", action="append", choices=sorted(GRIDS),
                    help="grid to time on, repeatable (default: both)")
    ap.add_argument("--repeat", type=int, default=7,
                    help="timed calls per primitive (default: 7)")
    ap.add_argument("--out", default="BENCH_primitives.json",
                    help="output path (default: BENCH_primitives.json)")
    args = ap.parse_args(argv)
    if args.repeat < 1:
        ap.error("--repeat must be at least 1")
    p50, peak = {}, {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for name in args.grid or sorted(GRIDS):
            calls = primitives(grid.make_grid(*GRIDS[name]))
            for prim, call in calls.items():
                if args.only is None or prim in args.only:
                    key = f"{prim}.{name}"
                    p50[key] = time_call(call, args.repeat)
                    peak[key] = traced_peak(call)
                    print(f"{key}: {p50[key]:.3f} ms, peak "
                          f"{peak[key]:.2f} MB", flush=True)
    doc = {
        "unit": "ms per call, median",
        "repeat": args.repeat,
        "grids": {name: dict(zip(("d", "N_rho", "L_rho", "K", "M"), spec))
                  for name, spec in GRIDS.items()},
        "p50_ms": p50,
        "peak_mb": peak,
        "environment": {"python": platform.python_version(),
                        "numpy": np.__version__,
                        "machine": platform.machine(),
                        "cpus": os.cpu_count()},
    }
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
