"""Adaptive engine selection on a contracting collective.

A strongly adhesive 300-particle collective starts as a ~10-unit disc —
wider than the 6-unit interaction cut-off, so the ``"auto"`` engine resolves
to the sparse neighbour-pair kernel.  As the attraction pulls the collective
together the cut-off disc stops pruning pairs, and the adaptive engine
(re-checking its choice every ``auto_reresolve_every`` recorded steps
against the live bounding box) drops to the dense broadcast kernel mid-run.
Because the two kernels agree bit for bit, the switch changes *nothing*
about the trajectory — only how fast it is computed, which this example
demonstrates by re-running the identical seed with each engine forced
end-to-end.

Run with ``PYTHONPATH=src python examples/adaptive_engine_contraction.py``.
"""

from __future__ import annotations

import time

import numpy as np

from repro import InteractionParams, ParticleSystem, SimulationConfig
from repro.particles.engine import AdaptiveDriftEngine, collective_radius


def make_config(engine: str) -> SimulationConfig:
    params = InteractionParams.clustering(2, self_distance=0.5, cross_distance=0.5, k=0.05)
    return SimulationConfig(
        type_counts=(150, 150),
        params=params,
        force="F1",
        cutoff=6.0,
        dt=0.05,
        substeps=1,
        n_steps=30,
        noise_variance=0.01,
        engine=engine,
        auto_reresolve_every=2,
    )


def run_adaptive() -> np.ndarray:
    config = make_config("auto")
    system = ParticleSystem(config, rng=42)
    assert isinstance(system.engine, AdaptiveDriftEngine)
    print(
        f"n = {config.n_particles}, r_c = {config.cutoff}, "
        f"initial disc radius = {config.disc_radius:.1f} "
        f"-> auto resolves to {system.engine.resolved!r}"
    )
    trajectory = [system.positions.copy()]
    engine_trace = [system.engine.resolved]
    for step in range(config.n_steps):
        system.step()
        trajectory.append(system.positions.copy())
        resolved = system.engine.resolved
        if resolved != engine_trace[-1]:
            print(
                f"  step {step + 1:3d}: collective radius "
                f"{collective_radius(system.positions):5.2f} -> engine switched "
                f"{engine_trace[-1]} -> {resolved}"
            )
        engine_trace.append(resolved)
    print(
        f"  final collective radius {collective_radius(system.positions):.2f}, "
        f"engine ended on {engine_trace[-1]!r}"
    )
    return np.stack(trajectory)


def main() -> None:
    adaptive = run_adaptive()

    # The same seed, with each engine forced end-to-end: identical bits,
    # different wall time (the adaptive run tracks whichever is cheaper).
    print("\nre-running the identical seed with each engine forced end-to-end:")
    for engine in ("auto", "dense", "sparse"):
        start = time.perf_counter()
        system = ParticleSystem(make_config(engine), rng=42)
        forced = [system.positions.copy()]
        for _ in range(system.config.n_steps):
            system.step()
            forced.append(system.positions.copy())
        elapsed = time.perf_counter() - start
        identical = np.array_equal(np.stack(forced), adaptive)
        print(f"  {engine:6s}: {elapsed * 1e3:7.1f} ms, bit-identical to adaptive: {identical}")


if __name__ == "__main__":
    main()
