#!/usr/bin/env python
"""CLI smoke test: the real ``python -m repro.cli`` entry point, one process per command.

Runs, in a temporary directory and at the default (reduced) scale:

1. ``list``;
2. ``run fig9 --max-specs 1 --quiet`` into ``out/``;
3. ``sweep fig9 --max-units 1 --quiet`` into ``store/``;
4. ``query fig9 --max-units 1`` against that store.

Each command must exit 0, and the one file ``run`` wrote must be named after
the unit ``query`` reports: every command resolves a figure id through the
same registry, so they agree on unit names.  Exit status 0 means all of that
holds.  Run as::

    PYTHONPATH=src python scripts/cli_smoke.py
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _cli(*argv: str, cwd: Path) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    command = [sys.executable, "-m", "repro.cli", *argv]
    done = subprocess.run(command, cwd=cwd, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(
            f"cli smoke: {' '.join(argv)} exited {done.returncode}\n{done.stdout}{done.stderr}"
        )
    return done.stdout


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        cwd = Path(tmp)
        listing = _cli("list", cwd=cwd)
        if "fig9" not in listing:
            sys.exit(f"cli smoke: 'list' does not show fig9:\n{listing}")
        _cli("run", "fig9", "--max-specs", "1", "--quiet", "--output", "out", cwd=cwd)
        _cli("sweep", "fig9", "--max-units", "1", "--quiet", "--store", "store", cwd=cwd)
        query = _cli("query", "fig9", "--max-units", "1", "--store", "store", cwd=cwd)
        cached = [line.split()[1] for line in query.splitlines() if line.strip().startswith("cached")]
        written = sorted(path.stem for path in (cwd / "out").glob("*.json"))
        if len(cached) != 1 or written != cached:
            sys.exit(f"cli smoke: run wrote {written}, query reports {cached}:\n{query}")
        print(f"cli smoke: list/run/sweep/query agree on unit {cached[0]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
