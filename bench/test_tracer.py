"""The tracer and the benchmark definition, checked on the current code.

    python3 -m pytest bench/test_tracer.py

The exact counts pin the seed's kernel-route recipe: a change to the
time quadrature is expected to change them, and updates this file.
"""
import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

run.use_checkout_sources()
import checks  # noqa: E402
from tracer import Tracer, heat_apply_work  # noqa: E402

from pharmonic import cli, grid, heat_kernel, inequalities, sobolev  # noqa: E402

APPLY = "heat_kernel.heat_apply_kernel"
FRAC = "heat_kernel.frac_power_kernel"


@pytest.fixture
def tracer():
    tr = Tracer()
    tr.install()
    yield tr
    tr.uninstall()


def _ground(g):
    return grid.sample(g, lambda r, x: np.pi ** -0.25
                       * np.exp(-0.5 * (x * x + r * r)))


# heat applies per frac_power_kernel call: 6 for the head's semigroup
# differences, then 12 nodes per time panel for negative powers and 4
# applies at each of 12 nodes per panel for positive ones; the panel
# count follows from the grid's resolution floor (9 on the default d=1
# hls grid, 11 on the finer powers grid)
@pytest.mark.parametrize("shape, alpha, applies", [
    ((64, 10.0, 8, 40), -0.25, 114),
    ((64, 10.0, 8, 40), 0.5, 438),
    ((128, 12.0, 24, 128), -0.5, 138),
    ((128, 12.0, 24, 128), 0.5, 534),
])
def test_applies_per_frac_power_call(tracer, shape, alpha, applies):
    heat_kernel.frac_power_kernel(_ground(grid.make_grid(1, *shape)), alpha)
    assert tracer.calls_under(FRAC, APPLY) == [applies]


def test_hls_suite_counts_and_traced_csv_bytes():
    check = checks.suite_check("hls", ("gate_rel_max",))
    untraced = check.run(check.prepare(0))
    tr = Tracer()
    tr.install()
    try:
        traced = check.run(check.prepare(0))
    finally:
        tr.uninstall()
    assert untraced.passed and traced.passed
    assert tr.stats[FRAC].calls == 40
    assert tr.calls_under(FRAC, APPLY) == [114] * 40
    assert traced.csv == untraced.csv


def test_every_namespace_is_patched_and_restored():
    original = heat_kernel.frac_power_kernel
    tr = Tracer()
    tr.install()
    try:
        for mod in (heat_kernel, inequalities, cli):
            held = [getattr(mod, n) for n in ("frac_power_kernel",
                                              "heat_apply_kernel")
                    if hasattr(mod, n)]
            assert held and all(
                getattr(fn, "__wrapped_by_tracer__", False) for fn in held)
        assert getattr(sobolev.resample, "__wrapped_by_tracer__", False)
        assert not tr.notes
    finally:
        tr.uninstall()
    assert inequalities.frac_power_kernel is original
    assert heat_kernel.frac_power_kernel is original


def test_missing_name_is_skipped_with_a_note(monkeypatch):
    monkeypatch.delattr(heat_kernel, "k_alpha")
    tr = Tracer()
    tr.install()
    tr.uninstall()
    assert any("heat_kernel.k_alpha" in note for note in tr.notes)


def test_computed_work_follows_the_shapes():
    g = grid.make_grid(3, 32, 8.0, 8, 32)
    size = 32 * 32 ** 3
    assert 16 * size == 16_777_216                # the 16.8 MB d=3 field
    flops, _ = heat_apply_work(g)
    assert flops == 4 * size * (32 + 3 * 32)


def test_benchmark_json_matches_the_emitted_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) \
        == list(checks.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
