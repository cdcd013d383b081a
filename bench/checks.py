"""The benchmark's workloads: fixed lists of checks, each ending in a verdict.

A check is one verification a user of pharmonic would run: a CLI suite
(config, run, CSV and JSON emission) or one of the cross-route checks
of the acceptance criteria called through the library.  Every workload
is sized so that one layer does most of its work:

kernel-route       heat_kernel: the d=1 hls, powers and semigroup suites
                   and one d=3 gate check, (H-2)^(-1/4) by the kernel
                   route against the eigenbasis.  Mixes 41 KB fields
                   (d=1, inside L2) with 16.8 MB ones (d=3, beyond L2).
transform-ladder   spectral/grid/ladder/sobolev: the d=3 gns suite and
                   four exact-identity suites; no heat_apply_kernel call.
symbol-quadrature  symbols and the pointwise time quadrature (k_alpha,
                   TQuadrature) with no mixed grid: the symbols suite,
                   the criterion-9 quantization cross-check, kernel
                   bounds, four HLS endpoint demos, mehler, inclusions.

The workload seed is the only source of randomness: it becomes the
--seed of every suite and the seed of every TestFamily, so the program
receives generated inputs and nothing that names a workload.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from pharmonic import cli, grid, heat_kernel, inequalities, sobolev, spectral
from pharmonic import symbols

GATE_TOL = 1e-3     # the route gate of the HLS checks and of criterion 9


@dataclass
class Outcome:
    why: str = ""                            # empty when the check passed
    route_gap: float | None = None          # approximate cross-route checks
    csv: str | None = None                   # suite checks only

    @property
    def passed(self) -> bool:
        return not self.why


@dataclass(frozen=True)
class Check:
    name: str
    prepare: Callable[[int], object]          # seed -> inputs
    run: Callable[[object], Outcome]


# ---------------------------------------------------------------------------
# suite checks: the CLI path, build_config -> run_suite -> emit

def _emitted(rep, fmt: str) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli.emit(rep, fmt)
    return buf.getvalue()


def _same_float(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return float(a).hex() == float(b).hex()


def _json_mismatch(rep, text: str) -> str:
    """Why the JSON text does not re-parse to rep bit for bit, or ''."""
    doc = json.loads(text)
    if doc.get("suite") != rep.suite:
        return "json suite differs"
    if doc.get("params") != json.loads(json.dumps(rep.params)):
        return "json params differ"
    rows = doc.get("metrics", [])
    if len(rows) != len(rep.metrics):
        return "json metric count differs"
    for row, m in zip(rows, rep.metrics):
        if (row.get("name") != m.name or row.get("pass") is not m.passed
                or not _same_float(row.get("value"), m.value)
                or not _same_float(row.get("tolerance"), m.tolerance)):
            return f"json metric {m.name} does not round-trip"
    return ""


def suite_check(suite: str, gap_prefixes: tuple[str, ...] = ()) -> Check:
    """A CLI suite at its defaults; gap_prefixes name the metrics that are
    relative gaps between two independent routes."""
    def prepare(seed: int):
        return cli.build_config(argparse.Namespace(config=None, suite=suite,
                                                   seed=seed))

    def run(cfg) -> Outcome:
        rep = cli.run_suite(cfg)
        csv_text = _emitted(rep, "csv")
        json_text = _emitted(rep, "json")
        gaps = [m.value for m in rep.metrics
                if m.name.startswith(gap_prefixes)] if gap_prefixes else []
        failing = [m.name for m in rep.failures()]
        why = "failing metrics: " + ", ".join(failing) if failing else ""
        return Outcome(why or _json_mismatch(rep, json_text),
                       max(gaps) if gaps else None, csv_text)

    return Check(suite, prepare, run)


# ---------------------------------------------------------------------------
# library checks

def _d3_gate(seed: int):
    g = grid.make_grid(3, 32, 8.0, 8, 32)     # the default d=3 grid
    return sobolev.TestFamily("band_limited", 1, seed=seed).members(g)[0]


def _run_d3_gate(f) -> Outcome:
    """One member of the shifted d=3 HLS check: (H-2)^(-1/4) f by the
    kernel route against the eigenbasis route."""
    k = heat_kernel.frac_power_kernel(f, -0.25, shift=-2.0)
    s = spectral.spectral_frac_power(f, -0.25, shift=-2.0)
    gap = grid.lp_norm(k - s, 2.0) / grid.lp_norm(s, 2.0)
    return Outcome("" if gap <= GATE_TOL else f"gap {gap:.3e} > {GATE_TOL:g}",
                   gap)


def _quantization(seed: int):
    g = grid.make_grid(1, 64, 10.0, 24, 32)
    box = grid.UniformBox((8.0, 8.0), (48, 48))
    return g, box


def _run_quantization(inputs) -> Outcome:
    """Criterion 9: the quantized symbol of H^(-1/2) against the
    eigenbasis route, on the 48^2 box."""
    g, box = inputs
    f = grid.sample(g, lambda r, x: np.pi ** -0.25
                    * np.exp(-0.5 * (r ** 2 + x ** 2)))
    got = symbols.quantize(symbols.sigma_symbol_fn(-0.5, 1),
                           grid.resample(f, box), box)
    want = grid.resample(spectral.spectral_frac_power(f, -0.5), box)
    gap = float(np.linalg.norm(got - want) / np.linalg.norm(want))
    return Outcome("" if gap < GATE_TOL else f"gap {gap:.3e} >= {GATE_TOL:g}",
                   gap)


def endpoint_check(which: str, exponent: float) -> Check:
    """One HLS endpoint demo at alpha = 1/2, d = 1; its report's own
    verdicts (trend_matches, monotone) decide."""
    def run(_) -> Outcome:
        rep = inequalities.hls_endpoint_demo(which, 0.5, 1, exponent)
        return Outcome(", ".join(m.name for m in rep.failures()))

    return Check(f"endpoint-{which}-{exponent:.4g}", lambda seed: None, run)


WORKLOADS: dict[str, list[Check]] = {
    "kernel-route": [
        suite_check("hls", ("gate_rel_max",)),
        suite_check("powers", ("kernel_vs_spectral_",)),
        suite_check("semigroup", ("two_route_rel_",)),
        Check("d3-gate", _d3_gate, _run_d3_gate),
    ],
    "transform-ladder": [
        suite_check("gns"),
        suite_check("sobolev-equivalence"),
        suite_check("riesz"),
        suite_check("duality"),
        suite_check("commute"),
        # hardy and weighted-decay are left out: a workload must pass at
        # every seed, and their growth verdicts do not (hardy's
        # family_growth fails at 31 of 400 seeds, weighted-decay's
        # column_refinement_growth at 3 of 400)
    ],
    "symbol-quadrature": [
        suite_check("symbols"),
        Check("quantization", _quantization, _run_quantization),
        suite_check("kernel-bounds"),
        endpoint_check("L1-range", 1.2),
        endpoint_check("L1-range", 4.0 / 3.0),
        endpoint_check("L1-range", 1.5),
        endpoint_check("Linf-range", 4.0),
        suite_check("mehler"),
        suite_check("inclusions"),
    ],
}


# ---------------------------------------------------------------------------
# running a pass

@dataclass
class PassResult:
    wall_s: float
    check_s: dict[str, float]
    failures: dict[str, str]
    route_gaps: list[float]


@dataclass
class Contract:
    """CSV bytes of each suite check, as first emitted in this run; every
    later pass must reproduce them exactly."""
    csv: dict[str, str] = field(default_factory=dict)

    def violation(self, name: str, csv_text: str | None) -> str:
        if csv_text is None:
            return ""
        first = self.csv.setdefault(name, csv_text)
        return "" if first == csv_text else "csv bytes differ between passes"


def run_pass(checks: list[Check], seed: int, contract: Contract,
             on_check_start: Callable[[], None]) -> PassResult:
    """Run every check once, in order; a check that raises, fails a
    metric or breaks the output contract is recorded and the pass goes on."""
    times, failures, gaps = {}, {}, []
    start = time.perf_counter()
    for check in checks:
        on_check_start()
        t0 = time.perf_counter()
        try:
            out = check.run(check.prepare(seed))
            why = out.why or contract.violation(check.name, out.csv)
            if out.route_gap is not None:
                gaps.append(out.route_gap)
        except Exception as e:     # a failing check must not end the run
            why = f"{type(e).__name__}: {e}"
        times[check.name] = time.perf_counter() - t0
        if why:
            failures[check.name] = why
    return PassResult(time.perf_counter() - start, times, failures, gaps)


def prepare_all(workload: str, seed: int) -> None:
    """Build every config and grid of the workload (the set-up probe)."""
    for check in WORKLOADS[workload]:
        check.prepare(seed)
