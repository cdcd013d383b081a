"""Set-up probe: start the interpreter, import pharmonic from this
checkout, build the configs and grids of one workload, and exit.

    python3 bench/probe.py <workload> <seed>

run.py times whole runs of this script; their median is setup_s.
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402  (needs the source path above)

checks.prepare_all(sys.argv[1], int(sys.argv[2]))
