"""The committed primitive timer, tools/bench_primitives.py: one
primitive, one timed call, and the keys of the JSON it writes."""
import importlib.util
import json
import os

import numpy as np
import pytest

TOOL = os.path.join(os.path.dirname(__file__), "..", "tools",
                    "bench_primitives.py")


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_primitives", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_one_primitive_once(tmp_path, capsys):
    tool = load_tool()
    out = tmp_path / "BENCH_primitives.json"
    assert tool.main(["--only", "heat_apply_kernel", "--grid", "d1",
                      "--repeat", "1", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert set(doc) == {"unit", "repeat", "grids", "p50_ms", "peak_mb",
                        "environment"}
    assert doc["repeat"] == 1
    assert doc["grids"]["d1"] == {"d": 1, "N_rho": 64, "L_rho": 10.0,
                                  "K": 8, "M": 40}
    assert doc["grids"]["d3"] == {"d": 3, "N_rho": 32, "L_rho": 8.0,
                                  "K": 8, "M": 32}
    assert list(doc["p50_ms"]) == ["heat_apply_kernel.d1"]
    assert doc["p50_ms"]["heat_apply_kernel.d1"] > 0.0
    # one d = 1 field and its two work buffers, 20 KB each, at least
    assert list(doc["peak_mb"]) == ["heat_apply_kernel.d1"]
    assert doc["peak_mb"]["heat_apply_kernel.d1"] > 3 * 64 * 40 * 8 / 2 ** 20
    assert capsys.readouterr().out.startswith("heat_apply_kernel.d1: ")


def test_box_lp_norm_on_both_grids(tmp_path):
    tool = load_tool()
    out = tmp_path / "BENCH_primitives.json"
    assert tool.main(["--only", "box_lp_norm", "--only", "box_lp_norm_q4",
                      "--repeat", "1", "--out", str(out)]) == 0
    p50 = json.loads(out.read_text())["p50_ms"]
    assert sorted(p50) == ["box_lp_norm.d1", "box_lp_norm.d3",
                           "box_lp_norm_q4.d1", "box_lp_norm_q4.d3"]
    assert all(v > 0.0 for v in p50.values())


def test_d1_only_primitives(tmp_path):
    tool = load_tool()
    out = tmp_path / "BENCH_primitives.json"
    assert tool.main(["--only", "sigma_stencil", "--only", "l1_image",
                      "--only", "center_value", "--only", "symbols_stencil",
                      "--repeat", "1", "--out", str(out)]) == 0
    p50 = json.loads(out.read_text())["p50_ms"]
    assert sorted(p50) == ["center_value.d1", "l1_image.d1",
                           "sigma_stencil.d1", "symbols_stencil.d1"]
    assert all(v > 0.0 for v in p50.values())


def test_stencil_and_image_calls_return_their_arrays():
    tool = load_tool()
    calls = tool.primitives(tool.grid.make_grid(*tool.GRIDS["d1"]))
    sig = calls["sigma_stencil"]()
    assert sig.ndim == 2 and sig.shape[0] == 3
    assert np.all(np.isfinite(sig))
    # the whole order-2 stencil: the center, two derivatives in each of
    # x, tau and xi, and the three mixed ones, each on the P samples
    stencil = calls["symbols_stencil"]()
    assert [order for order, _ in stencil] == [0] + [1, 2] * 3 + [2] * 3
    assert all(v.shape == sig.shape[1:] for _, v in stencil)
    # one image value per mirror orbit of the 512-point axes
    assert calls["l1_image"]().shape == (257, 257)
    assert calls["center_value"]() > 0.0


def test_complex_apply_on_both_grids(tmp_path):
    tool = load_tool()
    out = tmp_path / "BENCH_primitives.json"
    assert tool.main(["--only", "heat_apply_kernel_complex", "--repeat", "1",
                      "--out", str(out)]) == 0
    p50 = json.loads(out.read_text())["p50_ms"]
    assert sorted(p50) == ["heat_apply_kernel_complex.d1",
                           "heat_apply_kernel_complex.d3"]
    assert all(v > 0.0 for v in p50.values())
    # member 0 + i member 1: a complex field with a nonzero imaginary part
    calls = tool.primitives(tool.grid.make_grid(*tool.GRIDS["d1"]))
    image = calls["heat_apply_kernel_complex"]().values
    assert image.dtype == np.complex128 and image.imag.any()


def test_every_primitive_has_a_call():
    tool = load_tool()
    g = tool.grid.make_grid(*tool.GRIDS["d1"])
    assert tuple(tool.primitives(g)) == tool.PRIMITIVES


def test_bad_repeat_rejected(tmp_path):
    tool = load_tool()
    with pytest.raises(SystemExit):
        tool.main(["--repeat", "0", "--out", str(tmp_path / "x.json")])


def test_measured_box_on_draw_slabs(tmp_path):
    # the box sizing of gns on the member's slabs: the d = 3 call holds
    # no grid-sized array (32 x 32^3 float64, 8 MB)
    tool = load_tool()
    out = tmp_path / "BENCH_primitives.json"
    assert tool.main(["--only", "measured_box", "--repeat", "1",
                      "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert sorted(doc["p50_ms"]) == sorted(doc["peak_mb"]) == \
        ["measured_box.d1", "measured_box.d3"]
    assert 0.0 < doc["peak_mb"]["measured_box.d3"] < 32 * 32 ** 3 * 8 / 2 ** 20
    g = tool.grid.make_grid(*tool.GRIDS["d3"])
    box = tool.primitives(g)["measured_box"]()
    assert box.counts == (24,) * 4 and box.half_widths[0] <= g.L_rho
