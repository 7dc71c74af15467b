"""Persistence of experiment results.

Ensembles are stored as compressed ``.npz`` (see
:meth:`repro.particles.trajectory.EnsembleTrajectory.save`); the experiment
summaries and measurement series produced by the pipeline are stored as JSON
documents so they remain human-readable and diff-able.

Both documents round-trip: :func:`load_measurement` restores every series a
measurement carries (including the per-step decomposition objects), and
:func:`experiment_result_from_dict` rebuilds a full
:class:`~repro.core.pipeline.ExperimentResult` (minus the raw ensemble, which
lives in its own ``.npz``) from :func:`experiment_result_to_dict`'s document.
The content-addressed run cache (:mod:`repro.io.artifacts`) persists exactly
that document; it is the one stored form of an experiment result.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

import numpy as np

from repro.core.pipeline import ExperimentResult
from repro.core.self_organization import AnalysisConfig, SelfOrganizationResult
from repro.particles.model import SimulationConfig

__all__ = [
    "save_measurement",
    "load_measurement",
]


def save_measurement(path: str | Path, result: SelfOrganizationResult) -> Path:
    """Write a measurement time series to JSON; returns the path written."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result.to_dict(), indent=2, sort_keys=True))
    return path


def load_measurement(path: str | Path) -> SelfOrganizationResult:
    """Load a measurement written by :func:`save_measurement`.

    Every series survives the round-trip: the optional entropy and alignment
    series come back as arrays, and the per-step
    :class:`~repro.infotheory.decomposition.DecompositionResult` objects are
    restored so ``decomposition_series()`` works on the loaded result.
    """
    payload: dict[str, Any] = json.loads(Path(path).read_text())
    result = SelfOrganizationResult.from_dict(payload)
    if result.decompositions is None and "decomposition" in payload:
        # Files written before the lossless round-trip only carry the
        # flattened per-term series; keep exposing it where the old loader
        # put it so existing consumers do not lose the data.
        result.metadata.setdefault("decomposition", payload["decomposition"])
    return result


def experiment_result_to_dict(result: ExperimentResult) -> dict[str, Any]:
    """JSON-serialisable document holding the full experiment result (no ensemble)."""
    return {
        "summary": result.summary(),
        "simulation_config": result.simulation_config.to_dict(),
        "analysis_config": result.analysis_config.to_dict(),
        "n_samples": result.n_samples,
        "seed": result.seed,
        "measurement": result.measurement.to_dict(),
        "mean_force_norm": result.mean_force_norm.tolist(),
        "fraction_at_equilibrium": result.fraction_at_equilibrium,
        "wall_time_seconds": dict(result.wall_time_seconds),
    }


def experiment_result_from_dict(payload: dict[str, Any]) -> ExperimentResult:
    """Inverse of :func:`experiment_result_to_dict` (``ensemble`` is ``None``)."""
    return ExperimentResult(
        simulation_config=SimulationConfig.from_dict(payload["simulation_config"]),
        analysis_config=AnalysisConfig.from_dict(payload["analysis_config"]),
        n_samples=int(payload["n_samples"]),
        seed=None if payload["seed"] is None else int(payload["seed"]),
        measurement=SelfOrganizationResult.from_dict(payload["measurement"]),
        mean_force_norm=np.asarray(payload["mean_force_norm"], dtype=float),
        fraction_at_equilibrium=float(payload["fraction_at_equilibrium"]),
        ensemble=None,
        wall_time_seconds=dict(payload.get("wall_time_seconds", {})),
    )
