"""Write the reference outputs that the benchmark's checks compare against.

    python3 perfbench/make_reference.py

Run it only at a commit whose outputs are trusted: every later run must
reproduce these files to within checks.RTOL.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

import run

sys.path.insert(0, str(run.SRC))
import ghostsim.cli as cli  # noqa: E402


def main() -> int:
    run.REFERENCE.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=run.ROOT))
    try:
        jobs = [["scan", "--preset", p, "--output", str(run.REFERENCE / f"{p}.csv")] for p in run.PRESETS]
        jobs.append(run.SWEEP_ARGS + ["--output", str(run.REFERENCE / "sweep.json")])
        config = run.tabulated.generate(0, work)
        jobs.append(["scan", "--config", str(config), "--output", str(run.REFERENCE / "tabulated_seed0.csv")])
        for argv in jobs:
            if cli.main(argv) != 0:
                print(f"failed: {argv}", file=sys.stderr)
                return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
