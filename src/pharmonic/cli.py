"""Command line front end: run a named verification suite, emit a report.

    pharmonic --suite mehler
    pharmonic --suite hls --alpha 0.5 --p 2 --q 4 --out hls.csv
    pharmonic --suite semigroup --format json --config base.json

Configuration comes from flags, optionally over a JSON config file
whose keys are the flag names; flags win.  Every suite resolves the
parameters it does not use to None and fills the rest from its own
defaults, which are chosen so a bare `--suite <name>` reproduces the
desk-scale acceptance run.  All randomness flows from --seed.

Exit codes: 0 all metrics passed, 1 a metric failed or a suite raised,
2 the configuration was rejected before any computation started.

CSV output is byte-deterministic for a fixed config.  JSON output
carries wall_time_s, which varies run to run; everything else in it is
deterministic.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError, InvalidParameterError, UnknownSuiteError
from .grid import Grid, make_grid, lp_norm, sample
from .heat_kernel import (frac_power_kernel, heat_apply_kernel,
                          kernel_bound_report, sample_pairs,
                          schur_weighted_report)
from .hermite import mehler_closed_form, mehler_partial_sum
from .inequalities import (_default_grid, check_exponents, gns_check,
                           hardy_check, hls_check)
from .ladder import commute_matrix_report, duality_check, inverse_riesz_check
from .report import Report
from .sobolev import (TestFamily, equivalence_report,
                      riesz_on_potential_check, strict_inclusion_demo,
                      weighted_decay_check)
from .spectral import heat_spectral, spectral_frac_power
from .symbols import (SampleDomain, gm_bound_estimate, riesz_symbol_fn,
                      symbol_decay_report)

CSV_COLUMNS = ("suite", "metric", "value", "tolerance", "pass", "params",
               "provenance")

# per-suite defaults for the slots the flags leave unset; missing keys
# mean the suite ignores that slot
_DEFAULTS: dict[str, dict] = {
    "mehler": {"d": 1, "K": 60, "tol": 1e-6},
    # L_rho = 16: at t = 2 the rho Gaussian has spread to variance 5
    # and the periodized image at the window edge must sit below the
    # 1e-8 closed-form tolerance (it is ~5e-7 at L = 12)
    "semigroup": {"d": 1, "N_rho": 128, "L_rho": 16.0, "K": 24, "M": 128,
                  "tol": 1e-6},
    "powers": {"d": 1, "N_rho": 128, "L_rho": 12.0, "K": 24, "M": 128,
               "tol": 1e-12},
    "commute": {"d": 3, "N_rho": 8, "L_rho": 4.0, "K": 6, "M": 8,
                "tol": 1e-10},
    "kernel-bounds": {"d": 1, "alpha": 0.5},
    "weighted-decay": {"d": 1, "N_rho": 64, "L_rho": 10.0, "K": 12, "M": 32,
                       "alpha": 0.5, "p": 2.0},
    "riesz": {"d": 1, "N_rho": 64, "L_rho": 10.0, "K": 12, "M": 32,
              "alpha": 1.0, "p": 2.0},
    "duality": {"d": 1, "N_rho": 64, "L_rho": 10.0, "K": 24, "M": 32},
    "symbols": {"d": 1, "alpha": -0.5},
    "sobolev-equivalence": {"d": 1, "N_rho": 64, "L_rho": 10.0, "K": 24,
                            "M": 32},
    "inclusions": {"alpha": 0.5, "p": 2.0},
    "hls": {"d": 1, "alpha": 0.5, "p": 2.0, "q": 4.0},
    "gns": {"d": 3, "p": 2.0, "q": 2.5},
    "hardy": {"d": 1, "alpha": 0.75, "p": 2.0},
}


@dataclass(frozen=True)
class SuiteConfig:
    """Resolved parameters for one suite run.

    Slots a suite does not use stay None.  Instances are produced by
    build_config, which has already applied the suite defaults and
    validated the preconditions, so a SuiteConfig that exists is
    runnable.
    """
    suite: str
    d: int | None = None
    N_rho: int | None = None
    L_rho: float | None = None
    K: int | None = None
    M: int | None = None
    alpha: float | None = None
    p: float | None = None
    q: float | None = None
    tol: float | None = None
    seed: int = 0
    out: str | None = None
    format: str = "csv"


# ---------------------------------------------------------------------------
# configuration

def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="pharmonic",
        description="Run a verification suite for the partial harmonic "
                    "oscillator calculus and emit a CSV/JSON report.")
    ap.add_argument("--suite", help=f"one of: {', '.join(SUITES)}")
    ap.add_argument("--d", type=int, help="number of oscillator axes")
    ap.add_argument("--Nrho", type=int, dest="N_rho",
                    help="rho sample count (power of two)")
    ap.add_argument("--Lrho", type=float, dest="L_rho",
                    help="rho half-window")
    ap.add_argument("--K", type=int,
                    help="Hermite band limit (mehler: partial-sum depth)")
    ap.add_argument("--M", type=int, help="Gauss-Hermite node count")
    ap.add_argument("--alpha", type=float, help="power / weight exponent")
    ap.add_argument("--p", type=float, help="source Lebesgue exponent")
    ap.add_argument("--q", type=float, help="target Lebesgue exponent")
    ap.add_argument("--tol", type=float, help="tolerance override")
    ap.add_argument("--seed", type=int, help="seed for all randomness")
    ap.add_argument("--out", help="output path (default: stdout)")
    ap.add_argument("--format", choices=("csv", "json"),
                    help="output format (default csv)")
    ap.add_argument("--config",
                    help="JSON file of flag values; flags override it")
    return ap


_CONFIG_KEYS = tuple(f.name for f in fields(SuiteConfig))
# config files may use the flag spellings for the grid sizes
_KEY_ALIASES = {"Nrho": "N_rho", "Lrho": "L_rho"}


def _load_config_file(path: str) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config file: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"config file is not valid JSON: {e}") from e
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object")
    out = {}
    for key, value in data.items():
        key = _KEY_ALIASES.get(key, key)
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        # null would replace the suite default and skip every type check
        if value is None:
            raise ConfigError(f"config key {key!r} is null")
        out[key] = value
    return out


def build_config(args: argparse.Namespace) -> SuiteConfig:
    """Merge config file and flags, apply suite defaults, validate."""
    merged: dict = {}
    if args.config:
        merged.update(_load_config_file(args.config))
    for key in _CONFIG_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value

    suite = merged.get("suite")
    if suite is None:
        raise ConfigError("--suite is required")
    if suite not in SUITES:
        raise UnknownSuiteError(
            f"unknown suite {suite!r}; expected one of: {', '.join(SUITES)}")

    defaults = _DEFAULTS[suite]
    resolved = dict(merged)
    for key, value in defaults.items():
        resolved.setdefault(key, value)
    resolved.setdefault("seed", 0)
    resolved.setdefault("format", "csv")

    cfg = SuiteConfig(**{k: resolved.get(k) for k in _CONFIG_KEYS})
    _validate(cfg)
    return cfg


# The suites that raise grid or sample quantities to powers of order
# alpha: |x|^(2 alpha) weights (squared again in an L^2 norm),
# s^(2 alpha - (d+1)) near-diagonal profiles and lambda^(alpha/2)
# multipliers.  On the default grids the squared weight overflows past
# alpha = 88, the profile of the closest sampled pairs underflows past
# 118 and the time rule's 1/Gamma(alpha) past 171.
_POWER_SUITES = ("kernel-bounds", "weighted-decay", "riesz")
# the suites that draw a band_limited family, whose band |mu| <= K - 2
# is empty below K = 2
_BAND_LIMITED_SUITES = ("commute", "riesz", "duality", "sobolev-equivalence",
                        "hls", "gns", "hardy")
_ALPHA_MAX = 80.0
# symbols evaluates its order-2 stencil, 8d^2 + 8d + 3 points, at every
# sample of its two domains, in time about d times that: d = 6 takes
# about 3 s and d = 8 (579 points) about 5 s on a 2-core desk machine
_STENCIL_POINTS_MAX = 600


def _validate(cfg: SuiteConfig) -> None:
    if cfg.format not in ("csv", "json"):
        raise ConfigError(f"format must be csv or json, got {cfg.format!r}")
    # open() takes an integer as a file descriptor to write and close
    if cfg.out is not None and (not isinstance(cfg.out, str) or not cfg.out):
        raise ConfigError("out must be a non-empty file path")
    # config files carry JSON types: true is an int to Python, and
    # strings or NaN would only fail deep inside a suite
    for name in ("d", "N_rho", "K", "M", "seed"):
        v = getattr(cfg, name)
        if v is not None and (isinstance(v, bool) or not isinstance(v, int)):
            raise ConfigError(f"{name} must be an integer")
    for name in ("alpha", "p", "q", "tol", "L_rho"):
        v = getattr(cfg, name)
        if v is None:
            continue
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ConfigError(f"{name} must be a real number")
        if name in ("p", "q"):
            if not v >= 1.0:        # Lebesgue exponents: inf is allowed
                raise ConfigError(f"{name} must be >= 1 (inf allowed)")
        elif not math.isfinite(v):
            raise ConfigError(f"{name} must be finite")
    for name in ("tol", "L_rho"):
        v = getattr(cfg, name)
        if v is not None and v <= 0:
            raise ConfigError(f"{name} must be positive")
    for name in ("d", "N_rho", "K", "M", "seed"):
        v = getattr(cfg, name)
        if v is not None and v < 0:
            raise ConfigError(f"{name} must be a nonnegative integer")
    if cfg.d is not None and cfg.d < 1:
        raise ConfigError("d must be >= 1")
    # grid feasibility before any computation; the sizes come as a set,
    # and hls, gns and hardy size their own grid when none is given
    grid_vals = (cfg.N_rho, cfg.L_rho, cfg.K, cfg.M)
    try:
        if any(v is not None for v in grid_vals) and cfg.suite != "mehler":
            if any(v is None for v in grid_vals):
                raise ConfigError("grid parameters Nrho, Lrho, K, M must be "
                                  "given together")
            make_grid(cfg.d, cfg.N_rho, cfg.L_rho, cfg.K, cfg.M)
        elif cfg.suite in ("hls", "gns", "hardy"):
            _default_grid(cfg.d)
    except InvalidParameterError as e:
        raise ConfigError(f"grid parameters rejected: {e}") from e
    # suite-specific exponent windows; each message names its relation
    if cfg.suite in ("hls", "gns", "hardy"):
        try:
            check_exponents(cfg.suite, cfg.alpha, cfg.p, cfg.q, cfg.d)
        except InvalidParameterError as e:
            raise ConfigError(f"{cfg.suite} exponents rejected: {e}") from e
    if cfg.suite == "inclusions":
        if not 0.0 < cfg.alpha < 1.0:
            raise ConfigError("inclusions needs 0 < alpha < 1")
        if not 1.0 < cfg.p < math.inf:
            raise ConfigError("inclusions needs 1 < p < inf")
    if cfg.suite == "symbols":
        if cfg.alpha == 0 or cfg.alpha >= 1:
            raise ConfigError("symbols needs alpha < 0 or 0 < alpha < 1")
        # 1 / Gamma(-alpha) overflows past -171, and the normalized sups
        # leave the double range past about -130
        if cfg.alpha < -_ALPHA_MAX:
            raise ConfigError(f"symbols needs alpha >= -{_ALPHA_MAX:g}")
        points = 8 * cfg.d ** 2 + 8 * cfg.d + 3
        if points > _STENCIL_POINTS_MAX:
            raise ConfigError(
                f"grid parameters rejected: the symbols stencil has "
                f"8d^2 + 8d + 3 = {points} points per sample at d = "
                f"{cfg.d}, more than {_STENCIL_POINTS_MAX} (d <= 8)")
    if cfg.suite in ("kernel-bounds", "weighted-decay") and cfg.alpha <= 0:
        raise ConfigError(f"{cfg.suite} needs alpha > 0")
    if cfg.suite == "riesz" and cfg.alpha < 0:
        raise ConfigError("riesz needs alpha >= 0")
    if cfg.suite in _POWER_SUITES and cfg.alpha > _ALPHA_MAX:
        raise ConfigError(
            f"{cfg.suite} needs alpha <= {_ALPHA_MAX:g}: past it, its powers "
            "of order alpha reach the limits of the double range")
    # the suite checks (H - 2)^alpha, whose spectrum starts at d - 2
    if cfg.suite == "commute" and cfg.d < 3:
        raise ConfigError("commute needs d >= 3")
    if (cfg.suite in _BAND_LIMITED_SUITES and cfg.K is not None
            and cfg.K < 2):
        raise ConfigError(f"{cfg.suite} needs K >= 2: its band_limited "
                          "family keeps the Hermite shells |mu| <= K - 2")
    if cfg.suite == "mehler" and cfg.K < 1:
        raise ConfigError("mehler needs a positive partial-sum depth K")


# ---------------------------------------------------------------------------
# suites

def _grid(cfg: SuiteConfig) -> Grid:
    return make_grid(cfg.d, cfg.N_rho, cfg.L_rho, cfg.K, cfg.M)


def _rel(a, b) -> float:
    return lp_norm(a - b, 2) / lp_norm(b, 2)


def _ground_field(g: Grid):
    def fn(r, *xs):
        return (np.pi ** (-0.25 * g.d)
                * np.exp(-sum(x * x for x in xs) / 2.0)
                * np.exp(-r ** 2 / 2.0))
    return sample(g, fn)


def _suite_mehler(cfg: SuiteConfig) -> Report:
    rep = Report(suite="mehler",
                 params={"d": cfg.d, "K": cfg.K, "tol": cfg.tol,
                         "r_values": [0.3, 0.5, 0.9]})
    pts = np.linspace(-2.0, 2.0, 5)
    X, XP = np.meshgrid(pts, pts, indexing="ij")
    x = np.broadcast_to(X[..., None], X.shape + (cfg.d,))
    xp = np.broadcast_to(XP[..., None], XP.shape + (cfg.d,))
    for r in (0.3, 0.5, 0.9):
        closed = mehler_closed_form(r, x, xp, cfg.d)
        part = mehler_partial_sum(cfg.K, r, x, xp, cfg.d)
        abs_err = float(np.abs(part - closed).max())
        bound = r ** (cfg.K + 1) / (1.0 - r) + 1e-13
        rep.add(f"envelope_excess_r{r:g}", abs_err / bound, 1.0,
                abs_err <= bound,
                "max abs error over the geometric tail bound r^(K+1)/(1-r)")
        if r <= 0.5:
            rel = float((np.abs(part - closed) / np.abs(closed)).max())
            rep.add(f"rel_err_r{r:g}", rel, cfg.tol, rel < cfg.tol,
                    "5x5 grid in [-2,2]^2; relative tolerances are "
                    "attainable below the oscillatory-cancellation regime")
    return rep


def _suite_semigroup(cfg: SuiteConfig) -> Report:
    g = _grid(cfg)
    f = _ground_field(g)
    rep = Report(suite="semigroup",
                 params={"d": cfg.d, "N_rho": cfg.N_rho, "L_rho": cfg.L_rho,
                         "K": cfg.K, "M": cfg.M, "tol": cfg.tol})
    rho = g.rho.reshape((-1,) + (1,) * g.d)
    phi0 = sample(g, lambda r, *xs: np.pi ** (-0.25 * g.d)
                  * np.exp(-sum(x * x for x in xs) / 2.0)
                  * np.ones_like(r)).values
    for t in (0.1, 0.5, 2.0):
        spec = heat_spectral(f, t)
        kern = heat_apply_kernel(f, t)
        rel = _rel(kern, spec)
        rep.add(f"two_route_rel_t{t:g}", rel, cfg.tol, rel < cfg.tol,
                "spectral route vs kernel quadrature, relative L^2")
        spread = 1.0 + 2.0 * t
        want = (math.exp(-t * g.d) * spread ** -0.5
                * np.exp(-rho ** 2 / (2.0 * spread)) * phi0)
        err = float(np.abs(spec.values - want).max())
        rep.add(f"closed_form_max_err_t{t:g}", err, 1e-8, err < 1e-8,
                "free Gaussian spread in rho times e^(-td) ground decay")
    return rep


def _suite_powers(cfg: SuiteConfig) -> Report:
    g = _grid(cfg)
    f = _ground_field(g)
    rep = Report(suite="powers",
                 params={"d": cfg.d, "N_rho": cfg.N_rho, "L_rho": cfg.L_rho,
                         "K": cfg.K, "M": cfg.M, "tol": cfg.tol})
    law = _rel(heat_spectral(heat_spectral(f, 0.3), 0.7),
               heat_spectral(f, 1.0))
    rep.add("semigroup_law_rel", law, cfg.tol, law < cfg.tol,
            "e^(-0.3H) e^(-0.7H) vs e^(-H), spectral")
    comp = _rel(spectral_frac_power(spectral_frac_power(f, 0.5), -0.25),
                spectral_frac_power(f, 0.25))
    rep.add("power_composition_rel", comp, cfg.tol, comp < cfg.tol,
            "H^(1/2) then H^(-1/4) vs H^(1/4), spectral")
    for a in (0.5, -0.5):
        rel = _rel(frac_power_kernel(f, a), spectral_frac_power(f, a))
        rep.add(f"kernel_vs_spectral_alpha{a:g}", rel, 1e-4, rel < 1e-4,
                "kernel-quadrature fractional power against the eigenbasis")
    return rep


def _suite_commute(cfg: SuiteConfig) -> Report:
    g = _grid(cfg)
    c = TestFamily("band_limited", 1, seed=cfg.seed).coeffs(g, 0)
    return commute_matrix_report(c, tol=cfg.tol)


def _suite_kernel_bounds(cfg: SuiteConfig) -> Report:
    levels = [sample_pairs(cfg.d, 40 * 2 ** i, seed=cfg.seed + i)
              for i in range(3)]
    return kernel_bound_report(cfg.alpha, cfg.d, levels)


def _suite_weighted_decay(cfg: SuiteConfig) -> Report:
    rep = Report(suite="weighted-decay",
                 params={"alpha": cfg.alpha, "p": cfg.p, "d": cfg.d,
                         "seed": cfg.seed})
    rep.extend(schur_weighted_report(cfg.alpha, cfg.d))
    g = _grid(cfg)
    rep.extend(weighted_decay_check(cfg.alpha, cfg.p, g,
                                    TestFamily("gaussian", 5,
                                               seed=cfg.seed)))
    return rep


def _suite_riesz(cfg: SuiteConfig) -> Report:
    g = _grid(cfg)
    fam = TestFamily("band_limited", 5, seed=cfg.seed)
    rep = Report(suite="riesz",
                 params={"alpha": cfg.alpha, "p": cfg.p, "d": cfg.d,
                         "seed": cfg.seed})
    rep.extend(inverse_riesz_check(fam.coeffs(g, 0), cfg.p))
    rep.extend(riesz_on_potential_check((0, 1), cfg.alpha, cfg.p, g, fam))
    return rep


def _suite_duality(cfg: SuiteConfig) -> Report:
    g = _grid(cfg)
    fam = TestFamily("band_limited", 20, seed=cfg.seed)
    sandwich = [m for i in range(fam.count)
                for m in duality_check(fam.coeffs(g, i)).metrics
                if m.name == "sandwich_I_le_S_le_2I"]
    ratios = [m.value for m in sandwich]
    ok = all(m.passed for m in sandwich)
    rep = Report(suite="duality",
                 params={"d": cfg.d, "count": fam.count,
                         "seed": cfg.seed})
    rep.add("sandwich_ratio_min", min(ratios), None,
            min(ratios) >= 1.0 - 1e-12, "S/I over the family; >= 1")
    rep.add("sandwich_ratio_max", max(ratios), 2.0, ok,
            "S/I over the family; <= 2.  The displayed identity with "
            "constant 2 holds only at the bottom mode")
    return rep


def _suite_symbols(cfg: SuiteConfig) -> Report:
    dom = SampleDomain(d=cfg.d, cap=64.0, per_shell=2, seed=cfg.seed)
    rep = Report(suite="symbols",
                 params={"alpha": cfg.alpha, "d": cfg.d, "cap": dom.cap,
                         "seed": cfg.seed})
    rep.extend(symbol_decay_report(cfg.alpha, cfg.d, dom))
    for j in (0, 1):
        rep.extend(gm_bound_estimate(riesz_symbol_fn(j, cfg.d), dom, r=0),
                   prefix=f"riesz{j}_")
    return rep


def _suite_sobolev(cfg: SuiteConfig) -> Report:
    g = _grid(cfg)
    fam = TestFamily("band_limited", 6, seed=cfg.seed)
    pairs = ((1, cfg.p),) if cfg.p is not None else \
        ((1, 2.0), (2, 2.0), (1, 4.0))
    rep = Report(suite="sobolev-equivalence",
                 params={"d": cfg.d, "pairs": [list(pr) for pr in pairs],
                         "seed": cfg.seed})
    rep.extend(equivalence_report(g, fam, pairs))
    return rep


def _suite_inclusions(cfg: SuiteConfig) -> Report:
    rep = Report(suite="inclusions",
                 params={"alpha": cfg.alpha, "p": cfg.p})
    for which in ("f1", "f2"):
        for control in (False, True):
            sub = strict_inclusion_demo(which, cfg.alpha, cfg.p,
                                        control=control)
            rep.extend(sub, prefix=f"{which}_control_" if control
                       else f"{which}_")
    return rep


def _suite_hls(cfg: SuiteConfig) -> Report:
    fam = TestFamily("band_limited", 10, seed=cfg.seed)
    grid = _grid(cfg) if cfg.N_rho is not None else None
    return hls_check(cfg.alpha, cfg.p, cfg.q, cfg.d, fam, grid=grid)


def _suite_gns(cfg: SuiteConfig) -> Report:
    fam = TestFamily("band_limited", 10, seed=cfg.seed)
    grid = _grid(cfg) if cfg.N_rho is not None else None
    return gns_check(cfg.p, cfg.q, cfg.d, fam, grid=grid)


def _suite_hardy(cfg: SuiteConfig) -> Report:
    fam = TestFamily("band_limited", 10, seed=cfg.seed)
    grid = _grid(cfg) if cfg.N_rho is not None else None
    return hardy_check(cfg.alpha, cfg.p, cfg.d, fam, grid=grid)


_RUNNERS = {
    "mehler": _suite_mehler,
    "semigroup": _suite_semigroup,
    "powers": _suite_powers,
    "commute": _suite_commute,
    "kernel-bounds": _suite_kernel_bounds,
    "weighted-decay": _suite_weighted_decay,
    "riesz": _suite_riesz,
    "duality": _suite_duality,
    "symbols": _suite_symbols,
    "sobolev-equivalence": _suite_sobolev,
    "inclusions": _suite_inclusions,
    "hls": _suite_hls,
    "gns": _suite_gns,
    "hardy": _suite_hardy,
}
SUITES = tuple(_RUNNERS)


def run_suite(cfg: SuiteConfig) -> Report:
    """Dispatch to the named suite; the returned Report carries wall
    time and has been checked free of NaN metrics."""
    if cfg.suite not in _RUNNERS:
        raise UnknownSuiteError(f"unknown suite {cfg.suite!r}")
    start = time.perf_counter()
    rep = _RUNNERS[cfg.suite](cfg)
    rep.wall_time_s = time.perf_counter() - start
    rep.validate_finite()
    return rep


# ---------------------------------------------------------------------------
# emission

def _num17(v: float) -> str:
    """Decimal, 17 significant digits: bit-exact under float round trip.

    Negative zero is written -0.0, since JSON readers such as Python's
    json.loads turn "-0" into the integer 0 and lose the sign.
    """
    if math.isinf(v):
        return "Infinity" if v > 0 else "-Infinity"
    if v == 0.0 and math.copysign(1.0, v) < 0.0:
        return "-0.0"
    return format(float(v), ".17g")


def _param_str(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return _num17(v)
    if isinstance(v, (list, tuple)):
        return "[" + " ".join(_param_str(u) for u in v) + "]"
    return str(v)


def _params_cell(params: dict) -> str:
    return ";".join(f"{k}={_param_str(params[k])}" for k in sorted(params))


def _csv_cell(s: str) -> str:
    # RFC 4180 minimal quoting.  csv.writer quotes only the characters
    # of its line terminator, so a bare \r would split the row.
    if any(c in s for c in ',"\r\n'):
        return '"' + s.replace('"', '""') + '"'
    return s


def _to_csv(rep: Report) -> str:
    cell = _params_cell(rep.params)
    rows = [CSV_COLUMNS] + [
        (rep.suite, m.name, _num17(m.value),
         "" if m.tolerance is None else _num17(m.tolerance),
         "true" if m.passed else "false", cell, m.note)
        for m in rep.metrics]
    return "".join(",".join(map(_csv_cell, r)) + "\n" for r in rows)


def _json_value(v) -> str:
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, str):
        return json.dumps(v)
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return _num17(v)
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(_json_value(u) for u in v) + "]"
    if isinstance(v, dict):
        return "{" + ", ".join(f"{json.dumps(k)}: {_json_value(u)}"
                               for k, u in v.items()) + "}"
    raise ConfigError(f"cannot serialize parameter of type {type(v)}")


def _to_json(rep: Report) -> str:
    return _json_value({
        "suite": rep.suite,
        "params": {k: rep.params[k] for k in sorted(rep.params)},
        "wall_time_s": rep.wall_time_s,
        "metrics": [{"name": m.name, "value": m.value,
                     "tolerance": m.tolerance, "pass": m.passed,
                     "provenance": m.note} for m in rep.metrics],
    }) + "\n"


def emit(rep: Report, fmt: str = "csv", path: str | None = None) -> None:
    """Write the report as CSV or JSON to path (stdout when None)."""
    rep.validate_finite()
    if fmt == "csv":
        text = _to_csv(rep)
    elif fmt == "json":
        text = _to_json(rep)
    else:
        raise ConfigError(f"format must be csv or json, got {fmt!r}")
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# entry point

def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = build_config(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    try:
        rep = run_suite(cfg)
    except (ValueError, RuntimeError) as e:
        print(f"error: suite {cfg.suite}: {type(e).__name__}: {e}",
              file=sys.stderr)
        return 1
    emit(rep, cfg.format, cfg.out)
    if not rep.all_passed:
        for m in rep.failures():
            print(f"FAIL {m.name} = {_num17(m.value)}"
                  + (f" (tol {_num17(m.tolerance)})"
                     if m.tolerance is not None else ""),
                  file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
