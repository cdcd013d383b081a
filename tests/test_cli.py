"""CLI contract: config resolution, dispatch, serialization, exit codes.

The serialization rules under test: CSV columns exactly
suite,metric,value,tolerance,pass,params,provenance; JSON object
{suite, params, wall_time_s, metrics}; numbers at 17 significant
digits so a parse gives back the original float bit for bit; identical
config gives identical CSV bytes run to run.
"""
import json
import math
import warnings
from unittest import mock

import numpy as np
import pytest

from pharmonic import ConfigError, Report, UnknownSuiteError
from pharmonic import sobolev
from pharmonic.cli import (SUITES, SuiteConfig, build_config, emit, main,
                           run_suite, _parser)


def cfg_for(argv):
    return build_config(_parser().parse_args(argv))


def run_main(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestConfig:
    def test_suite_required(self, capsys):
        code, _, err = run_main([], capsys)
        assert code == 2
        assert "--suite" in err

    def test_unknown_suite(self, capsys):
        code, _, err = run_main(["--suite", "sobolev"], capsys)
        assert code == 2
        assert "unknown suite" in err

    def test_suite_list_matches_contract(self):
        assert SUITES == ("mehler", "semigroup", "powers", "commute",
                          "kernel-bounds", "weighted-decay", "riesz",
                          "duality", "symbols", "sobolev-equivalence",
                          "inclusions", "hls", "gns", "hardy")

    def test_defaults_fill_unset_slots(self):
        cfg = cfg_for(["--suite", "hls"])
        assert (cfg.alpha, cfg.p, cfg.q, cfg.d) == (0.5, 2.0, 4.0, 1)
        assert cfg.N_rho is None
        assert cfg.format == "csv" and cfg.seed == 0

    def test_flag_overrides_default(self):
        cfg = cfg_for(["--suite", "hls", "--q", "3", "--seed", "7"])
        assert cfg.q == 3.0 and cfg.seed == 7

    def test_hls_window_violation_names_relation(self, capsys):
        code, _, err = run_main(["--suite", "hls", "--q", "8"], capsys)
        assert code == 2
        assert "1/p - alpha/(d+1) <= 1/q" in err

    def test_gns_low_dimension_rejected(self, capsys):
        code, _, err = run_main(["--suite", "gns", "--d", "1"], capsys)
        assert code == 2

    def test_partial_grid_rejected(self):
        with pytest.raises(ConfigError):
            cfg_for(["--suite", "hls", "--Nrho", "64"])

    def test_infeasible_grid_rejected(self):
        # M >= K + 1 is the resolution contract
        with pytest.raises(ConfigError):
            cfg_for(["--suite", "semigroup", "--Nrho", "64",
                     "--Lrho", "10", "--K", "30", "--M", "16"])

    def test_config_file_and_flag_override(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"suite": "mehler", "K": 40,
                                    "seed": 3}))
        cfg = cfg_for(["--config", str(path)])
        assert (cfg.suite, cfg.K, cfg.seed) == ("mehler", 40, 3)
        cfg = cfg_for(["--config", str(path), "--K", "60"])
        assert cfg.K == 60 and cfg.seed == 3

    def test_config_file_flag_spellings(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"suite": "hls", "Nrho": 64,
                                    "Lrho": 10.0, "K": 8, "M": 40}))
        cfg = cfg_for(["--config", str(path)])
        assert cfg.N_rho == 64 and cfg.L_rho == 10.0

    def test_config_file_unknown_key(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"suite": "mehler", "modes": 3}))
        with pytest.raises(ConfigError):
            cfg_for(["--config", str(path)])

    def test_config_file_not_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("K: 60")
        with pytest.raises(ConfigError):
            cfg_for(["--config", str(path)])

    def test_non_integer_seed_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"suite": "mehler", "seed": 2.5}))
        with pytest.raises(ConfigError):
            cfg_for(["--config", str(path)])

    def test_unknown_suite_is_config_error(self):
        with pytest.raises(UnknownSuiteError):
            run_suite(SuiteConfig(suite="laplace"))


class TestExitCodes:
    def test_pass_run_exits_zero(self, capsys):
        code, out, _ = run_main(["--suite", "mehler"], capsys)
        assert code == 0
        assert out.startswith("suite,metric,value,tolerance,pass,params,"
                              "provenance\n")

    def test_metric_failure_exits_one(self, capsys):
        code, out, err = run_main(["--suite", "commute", "--tol", "1e-300"],
                                  capsys)
        assert code == 1
        assert "FAIL" in err
        assert ",false," in out  # report still emitted

    @pytest.mark.parametrize("alpha", ["20", "30"])
    def test_weighted_decay_large_alpha_exits_zero(self, alpha, capsys):
        # the column moment's 1F1 overflows at the small-t nodes; 20
        # ended with "metric 'column_refinement_growth' is NaN" and 30
        # with "'column_sup' is NaN", both exit 1
        code, out, err = run_main(["--suite", "weighted-decay",
                                   "--alpha", alpha], capsys)
        assert code == 0 and err == ""
        assert ",false," not in out
        assert len(out.strip().split("\n")) == 8

    @pytest.mark.parametrize("suite,alpha", [("weighted-decay", "1e300"),
                                             ("kernel-bounds", "1e300"),
                                             ("riesz", "1e300"),
                                             ("weighted-decay", "100")])
    def test_alpha_past_the_double_range_exits_two(self, suite, alpha,
                                                   capsys):
        # these ended in an OverflowError traceback (an infinite node
        # count at 1e300), a non-finite multiplier (riesz) and
        # "metric 'column_refinement_growth' is NaN" (weighted-decay)
        code, out, err = run_main(["--suite", suite, "--alpha", alpha],
                                  capsys)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {suite} needs alpha <= 80")

    def test_overflowed_weighted_sup_is_a_verdict(self, capsys):
        # at p = 4 the weighted norms used to overflow on both family
        # sizes (|x|^(2 alpha) squared, then raised to p/2), first to
        # "metric 'refinement_growth' is NaN" and then to an inf sup that
        # failed; the weight is now scaled by a power of two inside the
        # norm, so the sup is finite and the suite passes
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run_main(["--suite", "weighted-decay",
                                       "--alpha", "56", "--p", "4"], capsys)
        assert code == 0 and err == ""
        assert ",false," not in out
        row = next(line for line in out.splitlines()
                   if line.startswith("weighted-decay,weighted_operator_sup,"))
        assert math.isfinite(float(row.split(",")[2]))

    @pytest.mark.parametrize("argv", [
        # C(106, 6) ~ 1.7e9 multi-indices for the validated grid
        ["--suite", "commute", "--d", "100"],
        # C(44, 20) ~ 1.8e12 multi-indices
        ["--suite", "duality", "--d", "20"],
        # C(108, 8) ~ 3.5e11 multi-indices in the suite's default grid
        ["--suite", "hls", "--d", "100", "--q", "2.01"],
        # 8 * 8^8 ~ 1.3e8 points per field
        ["--suite", "commute", "--d", "8"],
        # M = 1 passes both size limits, but a field has d + 1 axes and
        # a kernel stack d + 2, past numpy's limit
        ["--suite", "semigroup", "--Nrho", "8", "--Lrho", "4", "--K", "0",
         "--M", "1", "--d", "63"],
        ["--suite", "semigroup", "--Nrho", "8", "--Lrho", "4", "--K", "0",
         "--M", "1", "--d", "70"],
        ["--suite", "semigroup", "--Nrho", "8", "--Lrho", "4", "--K", "0",
         "--M", "1", "--d", "5000"],
    ])
    def test_oversized_grid_exits_two(self, argv, capsys):
        # each used to list every multi-index before checking any size,
        # and never returned or ran out of memory
        code, out, err = run_main(argv, capsys)
        assert code == 2
        assert out == "" and err.startswith("error: grid parameters rejected")

    def test_bad_flag_value_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["--suite", "mehler", "--format", "yaml"])
        assert exc.value.code == 2

    # config files bypass argparse's typing: JSON strings, true, NaN and
    # non-string paths must be refused before any suite runs
    @pytest.mark.parametrize("config", [
        '{"suite": "hls", "alpha": "x"}',
        '{"suite": "inclusions", "p": "2"}',
        '{"suite": "mehler", "tol": "1e-3"}',
        '{"suite": "mehler", "tol": NaN}',
        '{"suite": "semigroup", "d": true}',
        '{"suite": "mehler", "seed": true}',
        # an integer out would be opened as a file descriptor
        '{"suite": "mehler", "out": 99}',
        '{"suite": "mehler", "out": 2}',
        '{"suite": "mehler", "out": ["a"]}',
        '{"suite": "mehler", "out": ""}',
        # well typed but outside what the suite accepts
        '{"suite": "symbols", "alpha": 0}',
        '{"suite": "symbols", "alpha": 1.5}',
        '{"suite": "symbols", "seed": -5}',
        '{"suite": "mehler", "seed": -1}',
        # null would replace the suite default and skip the type checks
        '{"suite": "hls", "alpha": null}',
        '{"suite": "semigroup", "tol": null}',
        '{"suite": "riesz", "p": null}',
        '{"suite": "mehler", "K": null}',
        '{"suite": "kernel-bounds", "d": null}',
        '{"suite": "hls", "seed": null}',
    ])
    def test_mistyped_config_value_exits_two(self, config, tmp_path,
                                             capsys):
        path = tmp_path / "cfg.json"
        path.write_text(config)
        code, out, err = run_main(["--config", str(path)], capsys)
        assert code == 2
        assert out == "" and err.startswith("error: ")
        assert "Traceback" not in err


    @pytest.mark.parametrize("L_rho", ["1e308", "1e-320"])
    def test_grid_that_is_not_finite_exits_two(self, L_rho, capsys):
        # 1e308 overflows the rho points, 1e-320 the frequencies
        code, out, err = run_main(["--suite", "semigroup", "--Nrho", "8",
                                   "--Lrho", L_rho, "--K", "2", "--M", "4"],
                                  capsys)
        assert code == 2
        assert out == "" and err.startswith("error: grid parameters")

    @pytest.mark.parametrize("argv,needs", [
        (["--suite", "weighted-decay", "--alpha", "0"], "alpha > 0"),
        (["--suite", "weighted-decay", "--alpha", "-1"], "alpha > 0"),
        (["--suite", "riesz", "--alpha", "-1"], "alpha >= 0"),
        (["--suite", "commute", "--d", "1"], "d >= 3"),
        (["--suite", "commute", "--d", "2"], "d >= 3"),
    ])
    def test_suite_precondition_exits_two(self, argv, needs, capsys):
        # each of these raised mid-suite (exit 1) before it was
        # checked with the configuration
        code, out, err = run_main(argv, capsys)
        assert code == 2
        assert out == "" and err.startswith(f"error: {argv[1]} needs")
        assert needs in err


class TestCsv:
    def test_row_count_and_columns(self, capsys):
        code, out, _ = run_main(["--suite", "kernel-bounds"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        rep = run_suite(cfg_for(["--suite", "kernel-bounds"]))
        assert len(lines) == len(rep.metrics) + 1

    def test_byte_determinism_run_to_run(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["--suite", "hardy", "--out", str(a)]) == 0
        assert main(["--suite", "hardy", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_empty_report_is_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit(Report(suite="hls", params={}), "csv", str(path))
        assert path.read_text() == ("suite,metric,value,tolerance,pass,"
                                    "params,provenance\n")

    def test_values_carry_17_digits(self, capsys):
        _, out, _ = run_main(["--suite", "mehler"], capsys)
        row = out.strip().split("\n")[1].split(",")
        v = float(row[2])
        assert row[2] == format(v, ".17g")

    def test_tolerance_blank_when_absent(self, tmp_path):
        rep = Report(suite="hls", params={"p": 2.0})
        rep.add("sup", 0.25, None, True, "no tolerance, existential bound")
        path = tmp_path / "r.csv"
        emit(rep, "csv", str(path))
        text = path.read_text()
        assert 'hls,sup,0.25,,true,p=2,"no tolerance, existential bound"' \
            in text

    def test_infinite_value_serialized(self, tmp_path):
        rep = Report(suite="hls", params={})
        rep.add("ratio", math.inf, None, True, "")
        path = tmp_path / "r.csv"
        emit(rep, "csv", str(path))
        assert ",Infinity," in path.read_text()

    def test_nan_refused(self, tmp_path):
        rep = Report(suite="hls", params={})
        rep.add("bad", float("nan"), None, True, "")
        with pytest.raises(ValueError):
            emit(rep, "csv", str(tmp_path / "r.csv"))


class TestJson:
    def test_schema_and_bit_exact_round_trip(self, tmp_path):
        cfg = cfg_for(["--suite", "commute", "--format", "json"])
        rep = run_suite(cfg)
        path = tmp_path / "r.json"
        emit(rep, "json", str(path))
        doc = json.loads(path.read_text())
        assert set(doc) == {"suite", "params", "wall_time_s", "metrics"}
        assert doc["suite"] == "commute"
        assert doc["wall_time_s"] > 0.0
        assert len(doc["metrics"]) == len(rep.metrics)
        for got, m in zip(doc["metrics"], rep.metrics):
            assert set(got) == {"name", "value", "tolerance", "pass",
                                "provenance"}
            assert got["name"] == m.name
            assert got["value"] == m.value  # bit-exact after re-parse
            assert got["tolerance"] == m.tolerance
            assert got["pass"] is m.passed

    def test_infinity_round_trips(self, tmp_path):
        rep = Report(suite="hls", params={"cap": math.inf})
        rep.add("ratio", math.inf, None, True, "")
        path = tmp_path / "r.json"
        emit(rep, "json", str(path))
        doc = json.loads(path.read_text())
        assert doc["metrics"][0]["value"] == math.inf
        assert doc["params"]["cap"] == math.inf

    def test_stdout_json(self, capsys):
        code, out, _ = run_main(["--suite", "mehler", "--format", "json"],
                                capsys)
        assert code == 0
        doc = json.loads(out)
        assert all(m["pass"] for m in doc["metrics"])


MEHLER_D3_ANALYSIS = """At d = 3 the rel_err_r0.5 row reads 4.4e-3
against its 1e-6 tolerance, and roundoff sets it, not truncation.  The
worst point is (x, x') = ((-2,-2,-2), (2,2,2)), where the closed form
is 6.4e-17: the shell terms are many orders of magnitude larger and
cancel.  The error does not fall with the depth: it reads 2.7e-3 at
K = 90 and at K = 120, where the tail bound r^(K+1)/(1-r) is below
1e-27."""

RIESZ_LARGE_ALPHA_ANALYSIS = """At seed 0 and alpha = 60 the riesz
suite exits 1: j1_refinement_growth reads 1.85 and j0_refinement_growth
1.72 against the 1.5 limit, and the growth rises with alpha.  A family
of 5 -> 20 members does not settle the sup of a p = 2 ratio of quadratic
forms; the band sup of ROADMAP item 4 (a max over modes, since Riesz on
the potential space is diagonal) is the fix, and it must flip this
test."""


class TestDispatch:
    def test_every_suite_has_a_runner(self):
        from pharmonic.cli import _RUNNERS
        assert set(_RUNNERS) == set(SUITES)

    def test_exponent_flags_reach_the_suite(self, capsys):
        code, out, _ = run_main(["--suite", "kernel-bounds", "--alpha",
                                 "1.5"], capsys)
        assert code == 0
        assert "alpha=1.5" in out

    def test_mehler_envelope_rows(self, capsys):
        _, out, _ = run_main(["--suite", "mehler"], capsys)
        names = [line.split(",")[1] for line in out.strip().split("\n")[1:]]
        assert names == ["envelope_excess_r0.3", "rel_err_r0.3",
                         "envelope_excess_r0.5", "rel_err_r0.5",
                         "envelope_excess_r0.9"]

    def test_mehler_d2_passes(self, capsys):
        code, out, err = run_main(["--suite", "mehler", "--d", "2"], capsys)
        assert code == 0 and err == ""
        assert "d=2" in out

    @pytest.mark.xfail(strict=True, reason=MEHLER_D3_ANALYSIS)
    def test_mehler_d3_passes(self, capsys):
        code, _, _ = run_main(["--suite", "mehler", "--d", "3"], capsys)
        assert code == 0

    @pytest.mark.xfail(strict=True, reason=RIESZ_LARGE_ALPHA_ANALYSIS)
    def test_riesz_alpha_60_passes(self, capsys):
        code, _, _ = run_main(["--suite", "riesz", "--alpha", "60"], capsys)
        assert code == 0

    def test_duality_flags_displayed_constant(self, capsys):
        _, out, _ = run_main(["--suite", "duality"], capsys)
        assert "only at the bottom mode" in out
        assert out.count("\n") == 3  # header + min + max

    def test_seed_changes_family_rows(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["--suite", "hardy", "--out", str(a)]) == 0
        assert main(["--suite", "hardy", "--out", str(b),
                     "--seed", "5"]) == 0
        assert a.read_bytes() != b.read_bytes()


# (members built by sobolev._make_member, band_limited coefficient draws
# by sobolev._band_limited_coeffs) per default suite at seed 0; a check
# that built its family twice would double its row.  riesz builds member
# 0 once more, for inverse_riesz_check.
_BUILDS = {
    "sobolev-equivalence": (24, 24),
    "riesz": (21, 21),
    "weighted-decay": (20, 0),
    "hls": (40, 40),
    "hardy": (40, 40),
    "gns": (0, 40),
    "duality": (20, 20),
    "commute": (1, 1),
}


@pytest.mark.parametrize("suite", sorted(_BUILDS))
def test_each_member_built_once(suite):
    with mock.patch.object(sobolev, "_make_member",
                           wraps=sobolev._make_member) as made, \
            mock.patch.object(sobolev, "_band_limited_coeffs",
                              wraps=sobolev._band_limited_coeffs) as drawn, \
            warnings.catch_warnings():
        warnings.simplefilter("ignore")
        run_suite(cfg_for(["--suite", suite]))
    assert (made.call_count, drawn.call_count) == _BUILDS[suite]


class TestReport:
    def test_extend_prefixes_names(self):
        sub = Report(suite="hls", params={})
        sub.add("sup", 1.5, 2.0, True, "note")
        rep = Report(suite="riesz", params={})
        rep.extend(sub, prefix="j0_")
        rep.extend(sub)
        assert [m.name for m in rep.metrics] == ["j0_sup", "sup"]
        assert [(m.value, m.tolerance, m.passed, m.note)
                for m in rep.metrics] == [(1.5, 2.0, True, "note")] * 2
        assert sub.metrics[0].name == "sup"
