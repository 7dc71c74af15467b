"""The step-hook protocol the particle engines call for every recorded step.

The engines duck-type against this protocol (they never import it), so any
object with a matching ``on_step`` works — :class:`~repro.monitor.live
.InformationMonitor` is the canonical implementation.

Contract for implementations:

* ``positions`` is a **read-only view** of the frame the engine just
  recorded — ``(m, n, 2)`` for an
  :class:`~repro.particles.ensemble.EnsembleSimulator` batch, ``(n, 2)``
  for a :class:`~repro.particles.model.ParticleSystem`, which runs the same
  step loop as an ``m = 1`` ensemble.  Copy it if you need to keep it
  beyond the call.
* Observers must not touch the engine's RNG or mutate any simulation state:
  an attached observer leaves the engine's trajectories bit-identical to an
  unobserved run (pinned in ``tests/test_monitor.py``).
* ``step`` counts recorded steps; the initial configuration arrives as
  step 0.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np

__all__ = ["StepObserver"]


@runtime_checkable
class StepObserver(Protocol):
    """Anything the simulation engines can notify about recorded steps."""

    def on_step(self, step: int, positions: np.ndarray) -> None:
        """Called after the engine records step ``step`` with its frame."""
        ...  # pragma: no cover - protocol body
