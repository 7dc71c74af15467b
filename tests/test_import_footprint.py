"""Importing the package must not pull in the heavy SciPy subpackages.

``scipy.spatial`` (``cKDTree``) and ``scipy.optimize``
(``linear_sum_assignment``) are imported inside the functions that call them,
so a process that never builds a tree or solves an assignment — a fig9 sweep,
say — does not pay their memory.  ``scipy.special`` stays eager: every KSG
estimate needs ``digamma``.  The particle simulation never builds a tree: the
sparse engine's neighbour backend is the cell list under every name.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro


def _run_python(code: str) -> str:
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return result.stdout


def test_import_leaves_scipy_optimize_and_spatial_unloaded():
    code = (
        "import sys, repro, repro.core.plan\n"
        "print(' '.join(sorted(m for m in ('scipy.optimize', 'scipy.spatial', 'scipy.special')"
        " if m in sys.modules)))\n"
    )
    assert _run_python(code).split() == ["scipy.special"]


@pytest.mark.parametrize("domain", ["free", "periodic:8.0"])
def test_sparse_ensemble_with_default_backend_leaves_scipy_spatial_unloaded(domain):
    code = (
        "import sys\n"
        "from repro import InteractionParams, SimulationConfig\n"
        "from repro.particles.ensemble import EnsembleSimulator\n"
        "config = SimulationConfig(\n"
        "    type_counts=(6, 6), params=InteractionParams.clustering(2), cutoff=2.0,\n"
        f"    n_steps=3, engine='sparse', domain={domain!r},\n"
        ")\n"
        "EnsembleSimulator(config, 4, seed=0).run()\n"
        "print(config.neighbor_backend, 'scipy.spatial' in sys.modules)\n"
    )
    assert _run_python(code).split() == ["kdtree", "False"]
