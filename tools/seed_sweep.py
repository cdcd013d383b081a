"""Run pharmonic's CLI suites over a fixed list of seeds and list every
failure.

    python tools/seed_sweep.py                          # all suites, SEEDS
    python tools/seed_sweep.py --suite gns --seeds 0-49
    python tools/seed_sweep.py --suite commute --suite hls --seeds 0,7919
    python tools/seed_sweep.py --suite gns --out sweep/  # keep the CSVs
    python tools/seed_sweep.py --suite gns --against sweep/

Each (suite, seed) runs `pharmonic --suite <suite> --seed <seed>` with
the suite's defaults, in this process.  Every failing metric prints one
line `FAIL <suite> seed=<seed> <metric> value=<v> tol=<t>`; a suite that
raises or rejects its configuration prints `ERROR <suite> seed=<seed>`
with its message.  The exit code is 1 if anything failed, else 0.

A seed that fails is a finding, never a reason to drop the seed: the
sweep exists to show seed defects such as `hardy`'s (seeds 20, 48284
and 67052 of SEEDS fail its `family_growth`).  The whole sweep runs
every suite at every seed, minutes on a desk machine, so it is not part
of Tier-1.
It imports pharmonic from the `src/` next to this directory, so a copy
of the tree sweeps that copy's code; with --out the per-run CSVs can be
diffed between two trees.  --against DIR does that diff: each run's CSV
is compared with the one of the same name that --out saved in DIR, and
every metric whose value moved prints one line
`MOVED <suite> seed=<seed> <metric> <old> -> <new> rel=<change>`
(` verdict <old> -> <new>` appended when its pass column moved too),
a CSV or a metric missing from DIR prints `MISSING`, and one closing
line per suite gives its count of moved values and their largest
relative change.  Moved values do not change the exit code.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import io
import math
import os
import sys
import tempfile
import warnings

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", "src"))

from pharmonic import cli  # noqa: E402

# half counted from 0, half drawn once at random and frozen
SEEDS = tuple(range(25)) + (
    307, 6465, 11530, 16005, 17949, 18952, 19968, 23073, 25101, 31604,
    35005, 46803, 47300, 48284, 54158, 58201, 61279, 66417, 67052, 78632,
    85816, 89633, 94676, 95155, 97299)


def parse_seeds(spec: str) -> list[int]:
    """'0-49' or '0,7919' or a mix: '0-4,20,30'."""
    seeds = []
    for part in spec.split(","):
        lo, sep, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi) + 1) if sep else [int(lo)])
    return seeds


def run_one(suite: str, seed: int, path: str) -> list[str]:
    """Run one suite at one seed, its CSV written to path; the lines to
    print for its failures, empty when it passed."""
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err):
        warnings.simplefilter("ignore")
        code = cli.main(["--suite", suite, "--seed", str(seed),
                         "--out", path])
    if code == 0:
        return []
    if not os.path.exists(path):
        msg = err.getvalue().strip().replace("\n", " | ")
        return [f"ERROR {suite} seed={seed} exit={code} {msg}"]
    with open(path, newline="") as fh:
        rows = [r for r in csv.DictReader(fh) if r["pass"] != "true"]
    return [f"FAIL {suite} seed={seed} {r['metric']} value={r['value']} "
            f"tol={r['tolerance'] or '-'}" for r in rows]


def read_rows(path: str) -> dict[str, dict[str, str]]:
    with open(path, newline="") as fh:
        return {r["metric"]: r for r in csv.DictReader(fh)}


def rel_change(old: str, new: str) -> float:
    a, b = float(old), float(new)
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    return abs(b - a) / abs(a) if a != 0.0 else math.inf


def moved_values(suite: str, seed: int, path: str,
                 saved: str) -> tuple[list[str], list[float]]:
    """The lines to print for the values of path that differ from the
    CSV saved at the same name, and their relative changes."""
    if not os.path.exists(saved):
        return [f"MISSING {suite} seed={seed} {saved}"], []
    old = read_rows(saved)
    lines, changes = [], []
    for metric, row in read_rows(path).items():
        before = old.get(metric)
        if before is None:
            lines.append(f"MISSING {suite} seed={seed} {metric} in {saved}")
            continue
        if before["value"] == row["value"] and before["pass"] == row["pass"]:
            continue
        rel = rel_change(before["value"], row["value"])
        line = (f"MOVED {suite} seed={seed} {metric} {before['value']} -> "
                f"{row['value']} rel={rel:.2g}")
        if before["pass"] != row["pass"]:
            line += f" verdict {before['pass']} -> {row['pass']}"
        lines.append(line)
        changes.append(rel)
    return lines, changes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--suite", action="append", choices=cli.SUITES,
                    help="suite to sweep, repeatable (default: all)")
    ap.add_argument("--seeds", type=parse_seeds,
                    help="e.g. 0-49 or 0,7919 (default: the 50 SEEDS)")
    ap.add_argument("--out", help="directory for <suite>-<seed>.csv")
    ap.add_argument("--against",
                    help="directory of CSVs saved by --out to compare with")
    args = ap.parse_args(argv)
    if args.against and args.out and \
            os.path.realpath(args.against) == os.path.realpath(args.out):
        ap.error("--against must not be the --out directory")
    suites = args.suite or list(cli.SUITES)
    seeds = args.seeds if args.seeds is not None else list(SEEDS)
    with tempfile.TemporaryDirectory() as tmp:
        out = args.out or tmp
        os.makedirs(out, exist_ok=True)
        failed = 0
        summary = []
        for suite in suites:
            changes, moved_csvs = [], 0
            for seed in seeds:
                name = f"{suite}-{seed}.csv"
                path = os.path.join(out, name)
                if os.path.exists(path):
                    os.remove(path)
                lines = run_one(suite, seed, path)
                for line in lines:
                    print(line, flush=True)
                failed += bool(lines)
                if args.against and os.path.exists(path):
                    moved, rels = moved_values(
                        suite, seed, path, os.path.join(args.against, name))
                    for line in moved:
                        print(line, flush=True)
                    changes += rels
                    moved_csvs += bool(rels)
            if args.against:
                summary.append(
                    f"{suite}: {len(changes)} values moved in {moved_csvs} "
                    f"of {len(seeds)} CSVs, max rel "
                    f"{max(changes, default=0.0):.2g}")
    for line in summary:
        print(line)
    runs = len(suites) * len(seeds)
    print(f"{failed} of {runs} runs failed "
          f"({len(suites)} suites x {len(seeds)} seeds)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
