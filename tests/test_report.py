"""Report: the stability verdict of add_growth, and the CSV/JSON
serialization of any finite report.

add_growth is the one place a sup's growth under enlargement becomes a
pass/fail verdict.  The serialization properties are the CLI contract:
JSON re-parses to the report bit for bit, and every CSV value cell
parses back to the metric's float.
"""
import csv
import io
import json
import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pharmonic.cli import CSV_COLUMNS, _to_csv, _to_json
from pharmonic.report import STABILITY_LIMIT, Metric, Report


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


def fresh() -> Report:
    return Report(suite="t", params={})


class TestAddGrowth:
    @given(before=st.floats(min_value=0.0, exclude_min=True,
                            allow_infinity=False),
           after=st.floats(min_value=0.0))
    def test_value_is_the_ratio(self, before, after):
        rep = fresh()
        m = rep.add_growth("g", before, after, "note")
        assert bits(m.value) == bits(after / before)
        assert m.passed == (after / before < STABILITY_LIMIT)
        assert m.tolerance == STABILITY_LIMIT
        assert rep.metrics == [m]
        assert (m.name, m.note) == ("g", "note")

    def test_zero_to_zero_is_stable(self):
        m = fresh().add_growth("g", 0.0, 0.0, "")
        assert m.value == 1.0 and m.passed

    @pytest.mark.parametrize("after", [1e-300, 1.0, math.inf])
    def test_leaving_zero_is_unstable(self, after):
        m = fresh().add_growth("g", 0.0, after, "")
        assert m.value == math.inf and not m.passed

    @pytest.mark.parametrize("before", [0.0, 1.0, math.inf])
    @pytest.mark.parametrize("after", [math.inf, math.nan])
    def test_sup_that_is_not_finite_is_unstable(self, before, after):
        # an overflowed sup over both samples made inf / inf = NaN
        m = fresh().add_growth("g", before, after, "")
        assert m.value == math.inf and not m.passed

    def test_growth_at_the_limit_fails(self):
        m = fresh().add_growth("g", 2.0, 3.0, "")
        assert m.value == STABILITY_LIMIT == 1.5
        assert not m.passed

    def test_limit_is_honoured(self):
        rep = fresh()
        wide = rep.add_growth("g", 1.0, 1.9, "", limit=2.0)
        narrow = rep.add_growth("g", 1.0, 1.9, "")
        assert wide.passed and wide.tolerance == 2.0
        assert not narrow.passed
        assert not rep.add_growth("g", 1.0, 2.0, "", limit=2.0).passed


# ---------------------------------------------------------------------------
# serialization of any finite report

_value = st.floats(allow_nan=False)
_text = st.text(max_size=12)
_scalar = st.one_of(st.booleans(), st.integers(), _value, _text)
_param = st.one_of(_scalar, st.lists(_scalar, max_size=4))
_metric = st.builds(Metric, name=_text, value=_value,
                    tolerance=st.none() | _value, passed=st.booleans(),
                    note=_text)
_report = st.builds(Report, suite=_text,
                    params=st.dictionaries(_text, _param, max_size=5),
                    metrics=st.lists(_metric, max_size=5),
                    wall_time_s=_value)


def _same(parsed, expected) -> bool:
    if expected is None or isinstance(expected, (bool, str)):
        return type(parsed) is type(expected) and parsed == expected
    if isinstance(expected, int):
        return type(parsed) is int and parsed == expected
    if isinstance(expected, float):
        return type(parsed) in (int, float) \
            and bits(float(parsed)) == bits(expected)
    return isinstance(parsed, list) and len(parsed) == len(expected) \
        and all(_same(p, e) for p, e in zip(parsed, expected))


@settings(max_examples=300, deadline=None)
@given(rep=_report)
def test_json_reparses_bit_for_bit(rep):
    data = json.loads(_to_json(rep))
    assert list(data) == ["suite", "params", "wall_time_s", "metrics"]
    assert _same(data["suite"], rep.suite)
    assert list(data["params"]) == sorted(rep.params)
    for k, v in rep.params.items():
        assert _same(data["params"][k], v), k
    assert _same(data["wall_time_s"], rep.wall_time_s)
    assert len(data["metrics"]) == len(rep.metrics)
    for row, m in zip(data["metrics"], rep.metrics):
        assert list(row) == ["name", "value", "tolerance", "pass",
                             "provenance"]
        assert _same(row["name"], m.name)
        assert _same(row["value"], m.value)
        assert _same(row["tolerance"], m.tolerance)
        assert _same(row["pass"], m.passed)
        assert _same(row["provenance"], m.note)


@settings(max_examples=300, deadline=None)
@given(rep=_report)
def test_csv_value_cells_parse_back(rep):
    rows = list(csv.reader(io.StringIO(_to_csv(rep), newline="")))
    assert rows[0] == list(CSV_COLUMNS)
    assert len(rows) == 1 + len(rep.metrics)
    for row, m in zip(rows[1:], rep.metrics):
        suite, name, value, tol, passed, _, note = row
        assert (suite, name, note) == (rep.suite, m.name, m.note)
        assert bits(float(value)) == bits(m.value)
        if m.tolerance is None:
            assert tol == ""
        else:
            assert bits(float(tol)) == bits(m.tolerance)
        assert passed == ("true" if m.passed else "false")
