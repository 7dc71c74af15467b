"""One drift evaluation per state: the step loop hands its drift forward.

``_Stepper.step`` computes the clipped drift of every recorded state for the
force norms, and the next step's first integration sub-step starts from that
drift instead of recomputing it.  These tests count the kernel calls and pin
that a cached drift never outlives the state it belongs to.  Byte identity
of the resulting trajectories against the re-evaluating step loop is pinned
by ``tests/test_single_path_oracle.py``.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.particles.engine import DenseDriftEngine
from repro.particles.ensemble import EnsembleSimulator
from repro.particles.model import ParticleSystem, SimulationConfig


@pytest.fixture
def drift_calls(monkeypatch) -> list[int]:
    """Record the batch size of every dense kernel call."""
    calls: list[int] = []
    original = DenseDriftEngine.drift_batch

    def counting(self, positions):
        calls.append(positions.shape[0])
        return original(self, positions)

    monkeypatch.setattr(DenseDriftEngine, "drift_batch", counting)
    return calls


def _config(two_type_params, **overrides) -> SimulationConfig:
    fields = dict(
        type_counts=(5, 5),
        params=two_type_params,
        force="F1",
        cutoff=2.5,
        dt=0.02,
        substeps=3,
        n_steps=7,
        init_radius=2.0,
        engine="dense",
        max_drift_norm=5.0,
    )
    fields.update(overrides)
    return SimulationConfig(**fields)


@pytest.mark.parametrize(
    "integrator, calls_per_substep", [("euler-maruyama", 1), ("heun", 2)]
)
def test_ensemble_drift_calls(two_type_params, drift_calls, integrator, calls_per_substep):
    config = _config(two_type_params, integrator=integrator)
    EnsembleSimulator(config, 6, seed=3).run(n_jobs=1)
    # The initial frame's drift, then each sub-step's evaluations, of which
    # the first sub-step of every recorded step reuses the previous drift.
    expected = calls_per_substep * config.n_steps * config.substeps + 1
    assert len(drift_calls) == expected
    assert set(drift_calls) == {6}


@pytest.mark.parametrize(
    "integrator, calls_per_substep", [("euler-maruyama", 1), ("heun", 2)]
)
def test_particle_system_drift_calls(two_type_params, drift_calls, integrator, calls_per_substep):
    config = _config(two_type_params, integrator=integrator)
    ParticleSystem(config, rng=4).run()
    # No drift is needed for the initial frame, so the first step evaluates
    # the initial state's drift itself.
    assert len(drift_calls) == calls_per_substep * config.n_steps * config.substeps + 1


def _mutated_run(config, mutate) -> tuple[np.ndarray, np.ndarray]:
    """Three steps, a state change, three more steps — and the same three
    steps from a fresh system started from the changed state and the same
    RNG state."""
    system = ParticleSystem(config, rng=11)
    for _ in range(3):
        system.step()
    mutate(system)
    fresh = ParticleSystem(
        config, rng=copy.deepcopy(system.rng), initial_positions=system.positions.copy()
    )
    after = [system.step().copy() for _ in range(3)]
    expected = [fresh.step().copy() for _ in range(3)]
    return np.stack(after), np.stack(expected)


@pytest.mark.parametrize("integrator", ["euler-maruyama", "heun"])
def test_setting_positions_drops_the_cached_drift(two_type_params, integrator):
    config = _config(two_type_params, integrator=integrator)

    def assign(system):
        system.positions = system.positions[::-1] * 1.5

    after, expected = _mutated_run(config, assign)
    assert after.tobytes() == expected.tobytes()


def test_writing_into_positions_drops_the_cached_drift(two_type_params):
    config = _config(two_type_params)

    def write(system):
        system.positions[2] = (0.25, -0.5)

    after, expected = _mutated_run(config, write)
    assert after.tobytes() == expected.tobytes()


def test_unchanged_state_reuses_the_drift(two_type_params, drift_calls):
    config = _config(two_type_params, substeps=1)
    system = ParticleSystem(config, rng=5)
    system.step()
    system.positions = system.positions.copy()  # same bytes: still reusable
    before = len(drift_calls)
    system.step()
    assert len(drift_calls) - before == 1
