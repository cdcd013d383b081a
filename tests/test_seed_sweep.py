"""The committed seed sweep, tools/seed_sweep.py: a smoke run on a fast
suite, its failure report on made-up failing and raising suites, and
its --against diff of two sweeps' CSVs."""
import importlib.util
import os
import subprocess
import sys
from unittest import mock

import pytest

from pharmonic import cli
from pharmonic.report import Report

TOOL = os.path.join(os.path.dirname(__file__), "..", "tools",
                    "seed_sweep.py")


def load_tool():
    spec = importlib.util.spec_from_file_location("seed_sweep", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_commute_at_two_seeds():
    run = subprocess.run([sys.executable, TOOL, "--suite", "commute",
                          "--seeds", "0,1"],
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr
    assert run.stdout.splitlines() == [
        "0 of 2 runs failed (1 suites x 2 seeds)"]


def test_seed_list_spec():
    tool = load_tool()
    assert tool.parse_seeds("0-3,20,30") == [0, 1, 2, 3, 20, 30]
    assert len(tool.SEEDS) == len(set(tool.SEEDS)) == 50
    assert tool.SEEDS[:25] == tuple(range(25))


def test_failures_are_listed_not_hidden(capsys, tmp_path):
    tool = load_tool()

    def fake(cfg):
        rep = Report(suite=cfg.suite, params={"seed": cfg.seed})
        rep.add("steady", 1.0, 1.5, True)
        rep.add("family_growth", 2.0, 1.5, cfg.seed == 0)
        if cfg.seed == 2:
            raise ValueError("boom")
        return rep

    with mock.patch.object(cli, "run_suite", fake):
        code = tool.main(["--suite", "hardy", "--seeds", "0-2",
                          "--out", str(tmp_path)])
    out = capsys.readouterr().out.splitlines()
    assert code == 1
    assert out[0] == "FAIL hardy seed=1 family_growth value=2 tol=1.5"
    assert out[1].startswith("ERROR hardy seed=2 exit=1 ")
    assert "boom" in out[1]
    assert out[2] == "2 of 3 runs failed (1 suites x 3 seeds)"
    assert sorted(os.listdir(tmp_path)) == ["hardy-0.csv", "hardy-1.csv"]


def test_against_lists_every_moved_value(capsys, tmp_path):
    tool = load_tool()
    saved, now = tmp_path / "saved", tmp_path / "now"

    def fake_at(shift):
        def fake(cfg):
            rep = Report(suite=cfg.suite, params={"seed": cfg.seed})
            rep.add("steady", 1.0, 1.5, True)
            rep.add("drift", 2.0 + shift * cfg.seed, 2.5,
                    2.0 + shift * cfg.seed < 2.5)
            return rep
        return fake

    with mock.patch.object(cli, "run_suite", fake_at(0.0)):
        assert tool.main(["--suite", "hardy", "--seeds", "0-2",
                          "--out", str(saved)]) == 0
    os.remove(saved / "hardy-2.csv")
    capsys.readouterr()
    with mock.patch.object(cli, "run_suite", fake_at(0.25)):
        code = tool.main(["--suite", "hardy", "--seeds", "0-2",
                          "--out", str(now), "--against", str(saved)])
    out = capsys.readouterr().out.splitlines()
    # seed 2 fails its drift verdict now; the exit code says so
    assert code == 1
    assert out[0] == "MOVED hardy seed=1 drift 2 -> 2.25 rel=0.12"
    assert out[1] == "FAIL hardy seed=2 drift value=2.5 tol=2.5"
    assert out[2] == f"MISSING hardy seed=2 {saved / 'hardy-2.csv'}"
    assert out[3] == "hardy: 1 values moved in 1 of 3 CSVs, max rel 0.12"
    assert out[4] == "1 of 3 runs failed (1 suites x 3 seeds)"


def test_against_a_verdict_that_moved(capsys, tmp_path):
    tool = load_tool()

    def fake_at(value):
        def fake(cfg):
            rep = Report(suite=cfg.suite, params={"seed": cfg.seed})
            rep.add("growth", value, 1.5, value < 1.5)
            return rep
        return fake

    with mock.patch.object(cli, "run_suite", fake_at(1.0)):
        tool.main(["--suite", "hardy", "--seeds", "0",
                   "--out", str(tmp_path / "a")])
    capsys.readouterr()
    with mock.patch.object(cli, "run_suite", fake_at(2.0)):
        tool.main(["--suite", "hardy", "--seeds", "0",
                   "--against", str(tmp_path / "a")])
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "FAIL hardy seed=0 growth value=2 tol=1.5"
    assert out[1] == ("MOVED hardy seed=0 growth 1 -> 2 rel=1 "
                      "verdict true -> false")


def test_against_its_own_out_dir_refused(tmp_path):
    tool = load_tool()
    with pytest.raises(SystemExit) as exc:
        tool.main(["--suite", "hardy", "--seeds", "0", "--out",
                   str(tmp_path), "--against", str(tmp_path)])
    assert exc.value.code == 2
