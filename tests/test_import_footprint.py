"""Importing the package must not pull in the heavy SciPy subpackages.

``scipy.spatial`` (``cKDTree``) and ``scipy.optimize``
(``linear_sum_assignment``) are imported inside the functions that call them,
so a process that never builds a tree or solves an assignment — a fig9 sweep,
say — does not pay their memory.  ``scipy.special`` stays eager: every KSG
estimate needs ``digamma``.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import repro


def test_import_leaves_scipy_optimize_and_spatial_unloaded():
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import sys, repro, repro.core.plan\n"
        "print(' '.join(sorted(m for m in ('scipy.optimize', 'scipy.spatial', 'scipy.special')"
        " if m in sys.modules)))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.split() == ["scipy.special"]
