"""Particle-model substrate: types, forces, integration, ensembles.

This subpackage implements the interacting particle model of Harder & Polani
(2012), §4.1/§5.1 — the "physics" on top of which self-organization is
measured.  The public surface is re-exported here.
"""

from repro.particles.types import InteractionParams, random_symmetric_matrix, type_counts_to_assignment
from repro.particles.domain import (
    DOMAINS,
    ChannelDomain,
    Domain,
    FreeDomain,
    PeriodicDomain,
    ReflectingDomain,
    get_domain,
)
from repro.particles.forces import (
    FORCE_SCALINGS,
    ForceScaling,
    GaussianAdhesionForce,
    LinearAdhesionForce,
    drift_batch,
    drift_single,
    get_force_scaling,
    net_force_norms,
    pairwise_distance_matrix,
    preferred_distance_curve,
)
from repro.particles.neighbors import (
    NEIGHBOR_BACKENDS,
    BruteForceNeighbors,
    CellListNeighbors,
    NeighborSearch,
    get_neighbor_search,
)
from repro.particles.engine import (
    DRIFT_ENGINES,
    AdaptiveDriftEngine,
    DenseDriftEngine,
    DriftEngine,
    SparseDriftEngine,
    collective_radius,
    engine_for_config,
    make_engine,
    resolve_engine,
    sparse_drift_batch,
)
from repro.particles.init_conditions import (
    default_disc_radius,
    grid_layout,
    uniform_box,
    uniform_box_ensemble,
    uniform_disc,
    uniform_disc_ensemble,
)
from repro.particles.integrators import (
    DEFAULT_NOISE_VARIANCE,
    EulerMaruyama,
    Integrator,
    StochasticHeun,
    get_integrator,
)
from repro.particles.equilibrium import (
    EquilibriumDetector,
    LimitCycleReport,
    detect_limit_cycle,
    total_force_norm,
)
from repro.particles.trajectory import EnsembleTrajectory, Trajectory
from repro.particles.model import ParticleSystem, SimulationConfig, initial_positions_for
from repro.particles.ensemble import (
    EnsembleRunStats,
    EnsembleSimulator,
    initial_ensemble_for,
    simulate_ensemble,
)

__all__ = [
    "InteractionParams",
    "random_symmetric_matrix",
    "type_counts_to_assignment",
    "ChannelDomain",
    "Domain",
    "FreeDomain",
    "PeriodicDomain",
    "ReflectingDomain",
    "DOMAINS",
    "get_domain",
    "ForceScaling",
    "LinearAdhesionForce",
    "GaussianAdhesionForce",
    "FORCE_SCALINGS",
    "get_force_scaling",
    "drift_single",
    "drift_batch",
    "net_force_norms",
    "pairwise_distance_matrix",
    "preferred_distance_curve",
    "NeighborSearch",
    "BruteForceNeighbors",
    "CellListNeighbors",
    "NEIGHBOR_BACKENDS",
    "get_neighbor_search",
    "DRIFT_ENGINES",
    "DriftEngine",
    "DenseDriftEngine",
    "SparseDriftEngine",
    "AdaptiveDriftEngine",
    "collective_radius",
    "resolve_engine",
    "make_engine",
    "engine_for_config",
    "sparse_drift_batch",
    "uniform_disc",
    "uniform_disc_ensemble",
    "uniform_box",
    "uniform_box_ensemble",
    "grid_layout",
    "default_disc_radius",
    "Integrator",
    "EulerMaruyama",
    "StochasticHeun",
    "get_integrator",
    "DEFAULT_NOISE_VARIANCE",
    "EquilibriumDetector",
    "LimitCycleReport",
    "detect_limit_cycle",
    "total_force_norm",
    "Trajectory",
    "EnsembleTrajectory",
    "ParticleSystem",
    "SimulationConfig",
    "initial_positions_for",
    "EnsembleSimulator",
    "EnsembleRunStats",
    "initial_ensemble_for",
    "simulate_ensemble",
]
