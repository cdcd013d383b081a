"""The demo scripts run to completion.  Each imports package names
(heat_apply_kernel, riesz, quantize, gm_bound_estimate) directly, so a
renamed or removed name fails here."""
import pathlib
import runpy

import pytest

DEMOS = pathlib.Path(__file__).parent.parent / "demos"


@pytest.mark.parametrize("script", ["endpoint_dichotomy.py",
                                    "heat_flow_two_routes.py",
                                    "symbol_quantization.py"])
def test_demo_runs(script, capsys):
    runpy.run_path(str(DEMOS / script), run_name="__main__")
    assert capsys.readouterr().out
