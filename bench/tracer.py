"""Spans around pharmonic's public functions, installed from outside.

The tracer wraps every public function of each layer module plus a few
methods whose counts the benchmark reports.  A wrapped function is
replaced in every pharmonic namespace that holds it, because callers
import functions by name (``from .heat_kernel import frac_power_kernel``
in inequalities, cli, ...), so patching the defining module alone would
miss those calls.  A named target that no longer exists is skipped with
a note: its metrics then read zero.

A span records name, start, end and parent.  A span's self time is its
duration minus the durations of its direct children, so the self times
of all spans add up to the time covered by the top-level spans.
"""
from __future__ import annotations

import functools
import inspect
import math
import sys
import threading
import time
from collections import defaultdict

LAYERS = ("hermite", "grid", "spectral", "heat_kernel", "ladder", "symbols",
          "sobolev", "inequalities", "cli")

# (module, class, method, span name): methods traced besides the public
# functions; Field.__post_init__ is the finiteness check every field pays
METHODS = (
    ("grid", "Field", "__post_init__", "grid.Field"),
    ("sobolev", "TestFamily", "members", "sobolev.TestFamily.members"),
    ("heat_kernel", "TQuadrature", "nodes", "heat_kernel.t_quadrature.nodes"),
)

# functions whose per-layer metrics the benchmark names; a missing one is
# reported, the others are picked up by the public-function scan
NAMED = ("heat_kernel.heat_apply_kernel", "heat_kernel.frac_power_kernel",
         "heat_kernel.k_alpha", "symbols.sigma_alpha", "symbols.riesz_symbol",
         "symbols.quantize", "spectral.forward", "spectral.inverse",
         "grid.resample", "grid.lp_norm", "grid.make_grid",
         "hermite.hermite_all", "ladder.grad_H", "ladder.apply_A",
         "sobolev.potential_norm", "sobolev.ladder_norm", "cli.build_config",
         "cli.emit")


# ---------------------------------------------------------------------------
# computed work
#
# Floating-point operations and bytes follow from array shapes alone, by
# one fixed formula per function, whatever the implementation does: each
# axis pass of a separable transform applies a real n_out x n_in matrix
# to complex data (4 flops per real multiply-add on a complex value) and
# reads and writes the complex array once (16 bytes per value); a length
# N complex FFT counts 5 N log2 N flops.  Cache misses and copies are not
# counted, so bytes are a lower bound.

def _axis_passes(lead: int, dims_in: list[int], dims_out: list[int]):
    """Flops and bytes of contracting each axis of dims_in to dims_out,
    one axis after the other, with lead untouched values per row."""
    flops = byts = 0
    dims = list(dims_in)
    for i, (n_in, n_out) in enumerate(zip(dims_in, dims_out)):
        size_in = lead * math.prod(dims)
        dims[i] = n_out
        size_out = lead * math.prod(dims)
        flops += 4 * size_out * n_in
        byts += 16 * (size_in + size_out) + 8 * n_in * n_out
    return flops, byts


def heat_apply_work(grid) -> tuple[int, int]:
    """e^(-tH) f on the grid: one N x N pass in rho, one M x M per x axis."""
    return _axis_passes(1, [grid.N_rho] + [grid.M] * grid.d,
                        [grid.N_rho] + [grid.M] * grid.d)


def _fft_work(grid) -> tuple[int, int]:
    n, cols = grid.N_rho, grid.n_mu
    return (int(5 * n * math.log2(n) * cols), 32 * n * cols)


def forward_work(grid) -> tuple[int, int]:
    """Projection: each x axis M -> K+1, then the rho FFT on n_mu columns."""
    f, b = _axis_passes(grid.N_rho, [grid.M] * grid.d,
                        [grid.K + 1] * grid.d)
    f2, b2 = _fft_work(grid)
    return f + f2, b + b2


def inverse_work(grid) -> tuple[int, int]:
    """Synthesis: the rho FFT on n_mu columns, then each axis K+1 -> M."""
    f, b = _axis_passes(grid.N_rho, [grid.K + 1] * grid.d,
                        [grid.M] * grid.d)
    f2, b2 = _fft_work(grid)
    return f + f2, b + b2


WORK = {"heat_kernel.heat_apply_kernel": heat_apply_work,
        "spectral.forward": forward_work,
        "spectral.inverse": inverse_work}


# ---------------------------------------------------------------------------
# tracer

def _grid_of(args):
    """The grid of the first argument that carries one, else None."""
    for a in args[:2]:
        g = getattr(a, "grid", a)
        if hasattr(g, "N_rho") and hasattr(g, "d"):
            return g
    return None


class Stat:
    __slots__ = ("calls", "self_s", "total_s", "durations")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.durations = defaultdict(list)   # grid dimension -> seconds


class Tracer:
    """Spans are recorded between install() and uninstall(); spans,
    statistics and counters accumulate over installs."""

    def __init__(self):
        self.notes: list[str] = []
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self.counters: dict[str, float] = defaultdict(float)
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.top_level_s = 0.0
        self._seen_members: set = set()
        self._patches: list[tuple[object, str, object]] = []
        self._local = threading.local()
        self._after = {
            "sobolev.TestFamily.members": self._count_members,
            "heat_kernel.t_quadrature.nodes": self._count_nodes,
            "symbols.sigma_alpha": self._count_points,
            "symbols.riesz_symbol": self._count_points,
        }

    def new_check(self) -> None:
        """Family members count as useful once per check."""
        self._seen_members = set()

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        tracer = self
        work = WORK.get(name)
        after = self._after.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            span_id = len(tracer.spans)
            parent = stack[-1][0] if stack else -1
            tracer.spans.append((span_id, parent, name, 0.0, 0.0))
            frame = [span_id, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                else:
                    tracer.top_level_s += dur
                tracer.spans[span_id] = (span_id, parent, name, start, end)
                st = tracer.stats[name]
                st.calls += 1
                st.total_s += dur
                st.self_s += dur - frame[1]
                grid = _grid_of(args)
                d = grid.d if grid is not None else 0
                st.durations[d].append(dur)
                if work is not None and grid is not None:
                    flops, byts = work(grid)
                    tracer.counters[f"{name}.flop.d{d}"] += flops
                    tracer.counters[f"{name}.byte.d{d}"] += byts
            if after is not None:
                after(name, args, result)
            return result

        wrapper.__wrapped_by_tracer__ = True
        return wrapper

    def _count_members(self, name, args, result):
        fam, grid = args[0], args[1]
        key = (fam.kind, fam.seed, grid.d, grid.N_rho, grid.L_rho, grid.K,
               grid.M)
        self.counters["sobolev.TestFamily.members_built"] += len(result)
        for i in range(len(result)):
            if (key, i) not in self._seen_members:
                self._seen_members.add((key, i))
                self.counters["sobolev.TestFamily.members_useful"] += 1

    def _count_nodes(self, name, args, result):
        self.counters[name] += len(result[0])

    def _count_points(self, name, args, result):
        """Evaluation points; with_error returns (values, error)."""
        values = result[0] if isinstance(result, tuple) else result
        self.counters[name + ".points"] += int(getattr(values, "size", 1))

    def calls_under(self, outer: str, inner: str) -> list[int]:
        """For each span named outer, how many inner spans ran below it."""
        counts = {sid: 0 for sid, _, name, _, _ in self.spans
                  if name == outer}
        for _, parent, name, _, _ in self.spans:
            if name != inner:
                continue
            while parent >= 0 and parent not in counts:
                parent = self.spans[parent][1]
            if parent >= 0:
                counts[parent] += 1
        return list(counts.values())

    # -- installation ------------------------------------------------------

    def _namespaces(self):
        return [m for n, m in list(sys.modules.items())
                if m is not None and (n == "pharmonic"
                                      or n.startswith("pharmonic."))]

    def _patch_everywhere(self, original, wrapper) -> None:
        for mod in self._namespaces():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._patches.append((mod, attr, original))

    def install(self) -> None:
        """Wrap the public functions of every layer and the METHODS."""
        import pharmonic  # noqa: F401  (loads every layer module)
        self.notes = []
        found = set()
        for layer in LAYERS:
            mod = sys.modules.get(f"pharmonic.{layer}")
            if mod is None:
                self.notes.append(f"module pharmonic.{layer} not found")
                continue
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__
                        or getattr(fn, "__wrapped_by_tracer__", False)):
                    continue
                name = f"{layer}.{attr}"
                self._patch_everywhere(fn, self._wrap(name, fn))
                found.add(name)
        for layer, cls_name, meth, name in METHODS:
            cls = getattr(sys.modules.get(f"pharmonic.{layer}"), cls_name,
                          None)
            fn = getattr(cls, "__dict__", {}).get(meth)
            if fn is None:
                self.notes.append(f"{layer}.{cls_name}.{meth} not found; "
                                  "its metrics read 0")
                continue
            setattr(cls, meth, self._wrap(name, fn))
            self._patches.append((cls, meth, fn))
        for name in NAMED:
            if name not in found:
                self.notes.append(f"{name} not found; its metrics read 0")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
