"""The particle system: configuration, the step loop and single-run simulation.

This module wires the substrates together: interaction parameters
(:mod:`repro.particles.types`), the drift engines
(:mod:`repro.particles.engine`), a stochastic integrator
(:mod:`repro.particles.integrators`) and the equilibrium criterion
(:mod:`repro.particles.equilibrium`).

There is one step loop, :class:`_Stepper`, over ensemble states
``(m, n, 2)``.  Ensembles of runs — the unit of analysis in the paper — are
driven through it by :class:`repro.particles.ensemble.EnsembleSimulator`;
a single :class:`ParticleSystem` run is the ``m = 1`` case.  Both share the
:class:`SimulationConfig` defined here.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Mapping

import numpy as np

from repro.parallel.rng import as_generator
from repro.particles.domain import Domain, get_domain
from repro.particles.engine import (
    AdaptiveDriftEngine,
    engine_for_config,
    heuristic_domain_radius,
    resolve_engine,
)
from repro.particles.equilibrium import EquilibriumDetector
from repro.particles.forces import get_force_scaling, net_force_norms
from repro.particles.init_conditions import default_disc_radius, uniform_box, uniform_disc
from repro.particles.integrators import DEFAULT_NOISE_VARIANCE, get_integrator
from repro.particles.neighbors import get_neighbor_search
from repro.particles.trajectory import Trajectory
from repro.particles.types import InteractionParams, type_counts_to_assignment

__all__ = ["SimulationConfig", "ParticleSystem", "initial_positions_for"]


@dataclass(frozen=True)
class SimulationConfig:
    """Full specification of one particle experiment (shared by all samples).

    Parameters
    ----------
    type_counts:
        Number of particles of each type; the total is the collective size
        ``n`` and the length is the number of types ``l``.
    params:
        Symmetric interaction matrices (must have ``l`` types).
    force:
        ``"F1"`` (Eq. 7) or ``"F2"`` (Eq. 8).
    cutoff:
        Interaction radius ``r_c``; ``None`` or ``inf`` disables the cut-off.
    domain:
        Simulation domain spec: ``"free"`` (the paper's unbounded plane,
        default), ``"periodic:<L>"`` (square torus ``[0, L)²`` with
        minimum-image interactions) or ``"reflecting:<L>"`` (closed box with
        reflecting walls).  A :class:`~repro.particles.domain.Domain`
        instance is accepted and normalised to its canonical spec string.
        Bounded domains draw their initial configurations uniformly in the
        box (the disc radius is ignored) and confine positions after every
        integration step; on the torus a finite cut-off must satisfy
        ``r_c <= L/2`` (minimum-image convention).
    dt:
        Integration step size.  The paper reports results per *time step*;
        one recorded step corresponds to ``substeps`` integration steps of
        size ``dt``.
    substeps:
        Integration sub-steps per recorded time step (≥ 1).  Allows small,
        stable ``dt`` while keeping the paper's "250 time steps" semantics.
    n_steps:
        Number of recorded time steps (``t_max``); the stored trajectory has
        ``n_steps + 1`` frames including the initial state.
    noise_variance:
        Variance of the additive Gaussian noise ``w`` (paper: 0.05).
    init_radius:
        Radius of the initial uniform disc; ``None`` derives it from the
        particle count at unit density.
    integrator:
        ``"euler-maruyama"`` (paper) or ``"heun"``.
    neighbor_backend:
        Neighbour-search backend of the sparse drift engine: ``"kdtree"``
        (default; one tree per sample, strongest on non-uniform
        snapshots), ``"cell"`` (vectorised spatial hash of all samples at
        once, so prefer it for ensembles) or ``"brute"`` (reference
        implementation; materialises the full distance matrix, useful for
        testing only).  All backends return
        identical pair sets, so this is purely a performance choice.
    engine:
        Drift-evaluation engine — ``"dense"`` (all-pairs broadcast),
        ``"sparse"`` (neighbour-pair segment-sum) or ``"auto"`` (sparse for
        large collectives with a genuinely pruning cut-off; see
        :func:`repro.particles.engine.resolve_engine` and the
        "Choosing an engine/backend" section of
        :mod:`repro.particles.engine`).  Both single runs and ensembles
        honour this choice, and the engines agree bit-for-bit.
    auto_reresolve_every:
        Cadence (in recorded steps) at which an ``"auto"`` engine re-checks
        its dense/sparse choice against the *current* bounding box, so a
        contracting collective switches kernels mid-run (see
        :class:`repro.particles.engine.AdaptiveDriftEngine`).  ``0``
        disables adaptivity and resolves ``"auto"`` once from the initial
        disc radius.  Because the kernels agree bit-for-bit, this knob never
        changes a trajectory — only how fast it is computed.  Ignored for
        explicit ``"dense"``/``"sparse"`` choices.
    max_drift_norm:
        Optional per-particle cap on the drift magnitude, guarding against
        the ``F1`` singularity when two particles nearly coincide.
    equilibrium_threshold / equilibrium_patience:
        Parameters of the paper's stopping criterion.  The criterion is
        always *evaluated*; whether it stops the run early is decided by the
        caller (ensembles always run the full ``n_steps`` so that every
        sample has the same number of frames).
    """

    type_counts: tuple[int, ...]
    params: InteractionParams
    force: str = "F2"
    cutoff: float | None = None
    domain: str = "free"
    dt: float = 0.05
    substeps: int = 1
    n_steps: int = 250
    noise_variance: float = DEFAULT_NOISE_VARIANCE
    init_radius: float | None = None
    integrator: str = "euler-maruyama"
    neighbor_backend: str = "kdtree"
    engine: str = "auto"
    auto_reresolve_every: int = 25
    max_drift_norm: float | None = None
    equilibrium_threshold: float = 1e-2
    equilibrium_patience: int = 5

    def __post_init__(self) -> None:
        counts = tuple(int(c) for c in self.type_counts)
        object.__setattr__(self, "type_counts", counts)
        if len(counts) == 0 or any(c < 0 for c in counts) or sum(counts) == 0:
            raise ValueError("type_counts must contain non-negative counts summing to > 0")
        if len(counts) != self.params.n_types:
            raise ValueError(
                f"type_counts has {len(counts)} types but params has {self.params.n_types}"
            )
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.substeps <= 0:
            raise ValueError("substeps must be positive")
        if self.n_steps < 0:
            raise ValueError("n_steps must be non-negative")
        if self.noise_variance < 0:
            raise ValueError("noise_variance must be non-negative")
        if self.cutoff is not None and self.cutoff <= 0:
            raise ValueError("cutoff must be positive (use None for unconstrained interactions)")
        if self.init_radius is not None and self.init_radius <= 0:
            raise ValueError("init_radius must be positive")
        if self.max_drift_norm is not None and self.max_drift_norm <= 0:
            raise ValueError("max_drift_norm must be positive")
        if self.auto_reresolve_every < 0:
            raise ValueError("auto_reresolve_every must be non-negative (0 disables)")
        # Resolve names eagerly so configuration errors surface at construction.
        get_force_scaling(self.force)
        get_integrator(self.integrator)
        get_neighbor_search(self.neighbor_backend)
        resolve_engine(self.engine, n_particles=sum(counts), cutoff=self.cutoff)
        # Normalise the domain to its canonical spec string (a Domain
        # instance is accepted) and check it against the cut-off.
        domain = get_domain(self.domain)
        domain.validate_cutoff(self.cutoff)
        object.__setattr__(self, "domain", domain.spec)

    # ------------------------------------------------------------------ #
    @property
    def n_particles(self) -> int:
        """Total collective size ``n``."""
        return int(sum(self.type_counts))

    @property
    def n_types(self) -> int:
        """Number of types ``l``."""
        return len(self.type_counts)

    @property
    def types(self) -> np.ndarray:
        """Per-particle type assignment (fixed for the whole experiment)."""
        return type_counts_to_assignment(self.type_counts)

    @property
    def disc_radius(self) -> float:
        """Radius of the initial uniform disc (free domain only)."""
        if self.init_radius is not None:
            return float(self.init_radius)
        return default_disc_radius(self.n_particles)

    @property
    def resolved_domain(self) -> Domain:
        """The :class:`~repro.particles.domain.Domain` instance this config selects."""
        return get_domain(self.domain)

    @property
    def domain_radius(self) -> float:
        """Characteristic radius of the configuration's geometry.

        ``box / 2`` on bounded domains, the initial disc radius on the free
        plane — what the ``"auto"`` engine heuristic compares the cut-off
        against (see :func:`repro.particles.engine.heuristic_domain_radius`,
        the single definition of the bounded-domain rule).
        """
        return heuristic_domain_radius(self.resolved_domain, self.disc_radius)

    @property
    def effective_cutoff(self) -> float:
        """Cut-off radius as a float (``inf`` when unconstrained)."""
        if self.cutoff is None:
            return float("inf")
        return float(self.cutoff)

    @property
    def resolved_engine(self) -> str:
        """The concrete engine (``"dense"``/``"sparse"``) ``"auto"`` resolves to."""
        return resolve_engine(
            self.engine,
            n_particles=self.n_particles,
            cutoff=self.cutoff,
            domain_radius=self.domain_radius,
        )

    def with_updates(self, **changes: Any) -> "SimulationConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)

    def to_dict(self) -> dict[str, Any]:
        """JSON-serialisable representation (used by the experiment registry).

        The ``domain`` key is *omitted* when it is the default free plane:
        this representation feeds the content hash of
        :func:`repro.core.plan.unit_content_hash`, and omit-when-default
        keeps every pre-existing free-space hash (and therefore every warm
        :class:`~repro.io.artifacts.RunStore`) byte-for-byte valid.
        """
        payload = {
            "type_counts": list(self.type_counts),
            "params": self.params.to_dict(),
            "force": self.force,
            "cutoff": None if self.cutoff is None else float(self.cutoff),
            "dt": self.dt,
            "substeps": self.substeps,
            "n_steps": self.n_steps,
            "noise_variance": self.noise_variance,
            "init_radius": self.init_radius,
            "integrator": self.integrator,
            "neighbor_backend": self.neighbor_backend,
            "engine": self.engine,
            "auto_reresolve_every": self.auto_reresolve_every,
            "max_drift_norm": self.max_drift_norm,
            "equilibrium_threshold": self.equilibrium_threshold,
            "equilibrium_patience": self.equilibrium_patience,
        }
        if self.domain != "free":
            payload["domain"] = self.domain
        return payload

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SimulationConfig":
        """Inverse of :meth:`to_dict` (a missing ``domain`` key means free space)."""
        payload = dict(data)
        payload["type_counts"] = tuple(payload["type_counts"])
        payload["params"] = InteractionParams.from_dict(payload["params"])
        return cls(**payload)


def initial_positions_for(
    config: SimulationConfig, rng: np.random.Generator | int | None = None
) -> np.ndarray:
    """Draw one initial configuration for this config's domain.

    The free plane keeps the paper's uniform disc; bounded domains (periodic
    torus, reflecting box, channel — square or anisotropic) draw uniformly in
    the box — the box sides, not the particle count, then control the density.
    """
    rng = as_generator(rng)
    domain = config.resolved_domain
    if domain.bounded:
        return uniform_box(config.n_particles, domain.box, rng)
    return uniform_disc(config.n_particles, config.disc_radius, rng)


def _clip_drift(drift: np.ndarray, max_norm: float | None) -> np.ndarray:
    """Scale down per-particle drift vectors that exceed ``max_norm``."""
    if max_norm is None:
        return drift
    norms = net_force_norms(drift)
    factor = np.ones_like(norms)
    too_fast = norms > max_norm
    factor[too_fast] = max_norm / norms[too_fast]
    return drift * factor[..., None]


class _Stepper:
    """The one step loop of the particle model, over ensemble states ``(m, n, 2)``.

    :class:`~repro.particles.ensemble.EnsembleSimulator` drives it over a
    ``(batch, n, 2)`` state and :class:`ParticleSystem` over a ``(1, n, 2)``
    one.  It owns the config's drift engine, the integrator, drift clipping
    and the adaptive ``"auto"`` re-resolution cadence.
    """

    def __init__(self, config: SimulationConfig) -> None:
        self.config = config
        self.engine = engine_for_config(config)
        self.domain = config.resolved_domain
        self.integrator = get_integrator(config.integrator, noise_variance=config.noise_variance)
        adaptive = isinstance(self.engine, AdaptiveDriftEngine)
        self.reresolve_every = config.auto_reresolve_every if adaptive else 0

    def drift(self, positions: np.ndarray) -> np.ndarray:
        """Clipped deterministic drift of an ``(m, n, 2)`` state."""
        return _clip_drift(self.engine.drift_batch(positions), self.config.max_drift_norm)

    def step(
        self,
        positions: np.ndarray,
        rng: np.random.Generator,
        step: int,
        drift: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Advance to recorded step ``step``; return the new state and its clipped drift.

        One recorded step is ``config.substeps`` integration steps.
        ``drift`` is the clipped drift of ``positions`` if the caller has it
        — the one the previous call returned — and the first sub-step starts
        from it, so a recorded step costs ``substeps`` drift evaluations
        rather than ``substeps + 1`` (twice that under Heun).  Every
        ``auto_reresolve_every`` recorded steps an adaptive engine re-checks
        dense vs sparse against the new state — bit-identical kernels make
        the switch invisible in the trajectory.
        """
        config = self.config
        for _ in range(config.substeps):
            positions = self.integrator.step(
                positions, self.drift, config.dt, rng, self.domain, drift=drift
            )
            drift = None
        drift = self.drift(positions)
        if self.reresolve_every and step % self.reresolve_every == 0:
            self.engine.reresolve(positions)
        return positions, drift


class _Observable:
    """Step-observer hook shared by ParticleSystem and EnsembleSimulator.

    Observers (see :class:`repro.monitor.observer.StepObserver`) are
    notified with every *recorded* frame — a read-only view, after the frame
    has been stored — so they can watch a run without perturbing it: an
    attached observer leaves the trajectory bit-identical to an unobserved
    run, and an empty observer list costs nothing.
    """

    _observers: list

    def add_observer(self, observer) -> None:
        """Attach a step observer."""
        self._observers.append(observer)

    def remove_observer(self, observer) -> None:
        """Detach a previously attached step observer."""
        self._observers.remove(observer)

    def _notify_observers(self, step: int, frame: np.ndarray) -> None:
        view = frame.view()
        view.flags.writeable = False
        for observer in self._observers:
            observer.on_step(step, view)


class ParticleSystem(_Observable):
    """A single simulation run of the particle model.

    The system owns its positions, advances them step by step, tracks the
    equilibrium criterion and can record a full :class:`Trajectory`.  A
    single run is an ``m = 1`` ensemble: the state is held as ``(1, n, 2)``
    and advanced by the same step loop as
    :class:`~repro.particles.ensemble.EnsembleSimulator`, through the drift
    engine the configuration selects
    (:func:`repro.particles.engine.engine_for_config`).  The public surface
    — :attr:`positions`, :meth:`drift`, observer frames — is ``(n, 2)``.
    """

    def __init__(
        self,
        config: SimulationConfig,
        *,
        rng: np.random.Generator | int | None = None,
        initial_positions: np.ndarray | None = None,
    ) -> None:
        self.config = config
        self.rng = as_generator(rng)
        self.types = config.types
        self._stepper = _Stepper(config)
        self._equilibrium = EquilibriumDetector(
            threshold=config.equilibrium_threshold, patience=config.equilibrium_patience
        )
        if initial_positions is None:
            self.positions = initial_positions_for(config, self.rng)
        else:
            initial_positions = np.asarray(initial_positions, dtype=float)
            if initial_positions.shape != (config.n_particles, 2):
                raise ValueError(
                    f"initial_positions must have shape ({config.n_particles}, 2), "
                    f"got {initial_positions.shape}"
                )
            # Externally supplied states are mapped onto the domain's
            # canonical coordinates (identity on the free plane).
            self.positions = config.resolved_domain.wrap(initial_positions.copy())
        self._step_count = 0
        self._observers = []
        # (state bytes, clipped drift of that state) from the last step: the
        # next step starts from it unless the state has changed since.
        self._last_drift: tuple[bytes, np.ndarray] | None = None

    # ------------------------------------------------------------------ #
    @property
    def positions(self) -> np.ndarray:
        """Current configuration ``(n, 2)`` — a view of the ``(1, n, 2)`` state."""
        return self._state[0]

    @positions.setter
    def positions(self, value: np.ndarray) -> None:
        self._state = np.asarray(value, dtype=float)[None]

    @property
    def n_particles(self) -> int:
        return self.config.n_particles

    @property
    def step_count(self) -> int:
        """Number of recorded time steps taken so far."""
        return self._step_count

    @property
    def at_equilibrium(self) -> bool:
        """Whether the paper's stopping criterion has been met."""
        return self._equilibrium.quiet_steps >= self.config.equilibrium_patience

    @property
    def force_history(self) -> np.ndarray:
        """Summed force norm per recorded step (equilibrium diagnostic)."""
        return self._equilibrium.history

    @property
    def engine(self):
        """The resolved :class:`~repro.particles.engine.DriftEngine` of this run."""
        return self._stepper.engine

    def drift(self, positions: np.ndarray | None = None) -> np.ndarray:
        """Deterministic (clipped) drift at the given (default: current) ``(n, 2)`` positions."""
        pos = self.positions if positions is None else np.asarray(positions, dtype=float)
        if pos.ndim != 2:
            raise ValueError(f"positions must have shape (n, 2), got {pos.shape}")
        return self._stepper.drift(pos[None])[0]

    def step(self) -> np.ndarray:
        """Advance by one recorded time step (``config.substeps`` integration steps).

        The drift the previous step computed for the current state is handed
        to the first sub-step.  It is reused only while the state is byte for
        byte the one it was computed for, so assigning :attr:`positions` (or
        writing into it) between steps simply costs one fresh evaluation.
        """
        drift = None
        if self._last_drift is not None and self._last_drift[0] == self._state.tobytes():
            drift = self._last_drift[1]
        self._state, drift = self._stepper.step(
            self._state, self.rng, self._step_count + 1, drift
        )
        self._last_drift = (self._state.tobytes(), drift)
        self._step_count += 1
        self._equilibrium.update(drift[0])
        return self.positions

    def run(
        self,
        n_steps: int | None = None,
        *,
        stop_at_equilibrium: bool = False,
        record: bool = True,
    ) -> Trajectory:
        """Run the simulation and return the recorded trajectory.

        Parameters
        ----------
        n_steps:
            Number of recorded steps; defaults to ``config.n_steps``.
        stop_at_equilibrium:
            Stop early once the equilibrium criterion is satisfied.  The
            returned trajectory then contains only the frames actually taken.
        record:
            When False, only the final frame is kept (single-frame
            trajectory) — useful for equilibrium-shape studies.  Observers
            are notified only for recorded frames.
        """
        total = self.config.n_steps if n_steps is None else int(n_steps)
        if total < 0:
            raise ValueError("n_steps must be non-negative")
        frames = [self.positions.copy()]
        if record and self._observers:
            self._notify_observers(self._step_count, frames[0])
        for _ in range(total):
            self.step()
            if record:
                frames.append(self.positions.copy())
                if self._observers:
                    self._notify_observers(self._step_count, frames[-1])
            if stop_at_equilibrium and self.at_equilibrium:
                break
        if not record:
            frames = [self.positions.copy()]
        return Trajectory(
            positions=np.stack(frames, axis=0),
            types=self.types,
            dt=self.config.dt * self.config.substeps,
        )
