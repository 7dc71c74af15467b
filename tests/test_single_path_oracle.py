"""Bit-identity oracle for the single simulation path.

Every single-sample entry point of :mod:`repro.particles` is an ``m = 1``
call into the batched kernels: ``drift_single`` and ``DriftEngine.drift``
into ``drift_batch``, ``NeighborSearch.pairs``/``neighbor_lists`` into
``pairs_batch``, and ``ParticleSystem`` into the ensemble step loop.  The
reference below is the single-sample code those wrappers replaced —
``drift_single`` (dense and ``neighbor_pairs`` branches), the dense and
sparse engines' ``drift``, each backend's ``pairs`` (the cell list's
included), the generic per-sample ``pairs_batch`` loop, ``neighbor_lists``,
``ParticleSystem.step``/``run`` and the ensemble's ``_run_batch`` — copied
verbatim (only renamed, with ``self`` made explicit) so that it cannot drift
with the library.  Drift, pair arrays, trajectories and force histories
must match byte for byte.  The one intended difference: the kdtree's single
``pairs`` used to come back unsorted and now comes back in lexicographic
``(i, j)`` order like every other backend, so it is compared after sorting.
"""

from __future__ import annotations

import itertools
from typing import Mapping

import numpy as np
import pytest
from scipy.spatial import cKDTree

from repro.parallel.rng import as_generator
from repro.particles.domain import Domain, get_domain
from repro.particles.engine import (
    AdaptiveDriftEngine,
    DenseDriftEngine,
    engine_for_config,
    make_engine,
)
from repro.particles.ensemble import EnsembleSimulator, initial_ensemble_for
from repro.particles.equilibrium import EquilibriumDetector
from repro.particles.forces import (
    ForceScaling,
    drift_single,
    get_force_scaling,
    net_force_norms,
    pair_interaction_weights,
)
from repro.particles.integrators import get_integrator
from repro.particles.model import (
    ParticleSystem,
    SimulationConfig,
    _clip_drift,
    initial_positions_for,
)
from repro.particles.neighbors import (
    BruteForceNeighbors,
    CellListNeighbors,
    _boxed_cell_ids,
    _boxed_grid,
    _grid_ids,
    _hashed_pairs,
    _lex_sorted,
    _validate,
    _validate_batch,
    get_neighbor_search,
)
from repro.particles.trajectory import Trajectory
from repro.particles.types import InteractionParams

# --------------------------------------------------------------------------- #
# Reference: the single-sample kernels, verbatim.
# --------------------------------------------------------------------------- #


def _ref_interaction_weights(
    distance: np.ndarray,
    pair: Mapping[str, np.ndarray],
    scaling: ForceScaling,
    cutoff: float | None,
) -> np.ndarray:
    weights = -scaling.scale(distance, pair["k"], pair["r"], pair["sigma"], pair["tau"])
    n = distance.shape[-1]
    eye = np.eye(n, dtype=bool)
    weights = np.where(eye, 0.0, weights)
    if cutoff is not None and np.isfinite(cutoff):
        weights = np.where(distance <= cutoff, weights, 0.0)
    return weights


def _ref_drift_single(
    positions,
    types,
    params,
    scaling,
    cutoff=None,
    *,
    neighbor_pairs=None,
    pair=None,
    domain=None,
):
    positions = np.asarray(positions, dtype=float)
    types = np.asarray(types, dtype=int)
    scaling = get_force_scaling(scaling)
    domain = get_domain(domain)
    n = positions.shape[0]
    if positions.shape != (n, 2):
        raise ValueError(f"positions must have shape (n, 2), got {positions.shape}")
    if types.shape != (n,):
        raise ValueError("types must have shape (n,)")

    if neighbor_pairs is not None:
        i_idx, j_idx = neighbor_pairs
        delta = domain.displacement(positions[i_idx], positions[j_idx])
        dist = np.sqrt(np.einsum("ij,ij->i", delta, delta))
        weights = pair_interaction_weights(
            dist, types[i_idx], types[j_idx], params, scaling, cutoff=cutoff
        )
        weights = np.where(i_idx == j_idx, 0.0, weights)
        drift = np.zeros_like(positions)
        np.add.at(drift, i_idx, weights[:, None] * delta)
        return drift

    if pair is None:
        pair = params.pair_matrices(types)
    delta = domain.displacement(positions[:, None, :], positions[None, :, :])
    dist = np.sqrt(np.einsum("ijk,ijk->ij", delta, delta))
    weights = _ref_interaction_weights(dist, pair, scaling, cutoff)
    return np.einsum("ij,ijk->ik", weights, delta)


def _ref_sorted_pairs(i_idx, j_idx):
    order = np.lexsort((j_idx, i_idx))
    return i_idx[order], j_idx[order]


def _ref_brute_pairs(positions, radius, domain=None):
    positions = _validate(positions, radius)
    domain = get_domain(domain)
    if not np.isfinite(radius):
        n = positions.shape[0]
        i_idx, j_idx = np.nonzero(~np.eye(n, dtype=bool))
        return i_idx.astype(np.int64), j_idx.astype(np.int64)
    delta = domain.displacement(positions[:, None, :], positions[None, :, :])
    dist = np.sqrt(np.einsum("ijk,ijk->ij", delta, delta))
    mask = (dist <= radius) & ~np.eye(positions.shape[0], dtype=bool)
    i_idx, j_idx = np.nonzero(mask)
    return i_idx.astype(np.int64), j_idx.astype(np.int64)


def _ref_kdtree_pairs(positions, radius, domain=None):
    positions = _validate(positions, radius)
    domain = get_domain(domain)
    if not np.isfinite(radius):
        return _ref_brute_pairs(positions, radius, domain)
    if positions.shape[0] == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    query_radius = radius * (1.0 + 1e-12)
    if domain.bounded and any(domain.periodic_axes):
        if any(
            periodic and 2.0 * query_radius >= side
            for side, periodic in zip(domain.extents, domain.periodic_axes)
        ):
            return _ref_brute_pairs(positions, radius, domain)
        boxsize = [
            side if periodic else 0.0
            for side, periodic in zip(domain.extents, domain.periodic_axes)
        ]
        tree = cKDTree(domain.wrap(positions), boxsize=boxsize)
    else:
        tree = cKDTree(positions)
    unordered = tree.query_pairs(r=query_radius, output_type="ndarray")
    if unordered.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    delta = domain.displacement(positions[unordered[:, 0]], positions[unordered[:, 1]])
    keep = np.sqrt(np.einsum("ij,ij->i", delta, delta)) <= radius
    unordered = unordered[keep]
    i_idx = np.concatenate([unordered[:, 0], unordered[:, 1]]).astype(np.int64)
    j_idx = np.concatenate([unordered[:, 1], unordered[:, 0]]).astype(np.int64)
    return i_idx, j_idx


def _ref_cell_pairs(positions, radius, domain=None):
    positions = _validate(positions, radius)
    domain = get_domain(domain)
    if not np.isfinite(radius):
        return _ref_brute_pairs(positions, radius, domain)
    if positions.shape[0] < 2:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    if any(domain.periodic_axes):
        grid = _boxed_grid(domain, radius)
        if grid is None:  # box too small (or grid too fine) for the wrapped shell
            return _ref_brute_pairs(positions, radius, domain)
        wrapped = domain.wrap(positions)
        ids = _boxed_cell_ids(wrapped, grid)
        pairs = _hashed_pairs(wrapped, ids, 0, radius, grid=grid)
        return _lex_sorted(*pairs, positions.shape[0])
    grid = _grid_ids(positions, radius)
    if grid is None:  # astronomically wide bounding box: id space overflow
        return _ref_kdtree_pairs(positions, radius, domain)
    ids, stride = grid
    pairs = _hashed_pairs(positions, ids, stride, radius)
    return _lex_sorted(*pairs, positions.shape[0])


_REF_PAIRS = {"brute": _ref_brute_pairs, "cell": _ref_cell_pairs, "kdtree": _ref_kdtree_pairs}


def _ref_pairs_batch(pairs_fn, positions, radius, domain=None):
    positions = _validate_batch(positions, radius)
    m, n, _ = positions.shape
    i_parts: list[np.ndarray] = []
    j_parts: list[np.ndarray] = []
    for sample in range(m):
        i_idx, j_idx = pairs_fn(positions[sample], radius, domain)
        offset = sample * n
        i_parts.append(np.asarray(i_idx, dtype=np.int64) + offset)
        j_parts.append(np.asarray(j_idx, dtype=np.int64) + offset)
    if not i_parts:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    i_all = np.concatenate(i_parts)
    j_all = np.concatenate(j_parts)
    order = np.lexsort((j_all, i_all))
    return i_all[order], j_all[order]


def _ref_neighbor_lists(pairs_fn, positions, radius, domain=None):
    n = np.asarray(positions).shape[0]
    if n == 0:
        return []
    i_idx, j_idx = pairs_fn(positions, radius, domain)
    order = np.lexsort((j_idx, i_idx))
    j_sorted = np.asarray(j_idx, dtype=np.int64)[order]
    counts = np.bincount(np.asarray(i_idx, dtype=np.int64), minlength=n)
    return np.split(j_sorted, np.cumsum(counts[:-1]))


def _ref_dense_drift(engine, positions):
    return _ref_drift_single(
        positions,
        engine.types,
        engine.params,
        engine.scaling,
        cutoff=engine.cutoff,
        # The engine's cached matrices, as DenseDriftEngine built them.
        pair=engine.params.pair_matrices(engine.types),
        domain=engine.domain,
    )


def _ref_sparse_drift(engine, positions):
    radius = float("inf") if engine.cutoff is None else engine.cutoff
    positions = np.asarray(positions, dtype=float)
    pairs_fn = _REF_PAIRS[engine.neighbors.name]
    pairs = _ref_sorted_pairs(*pairs_fn(positions, radius, engine.domain))
    return _ref_drift_single(
        positions,
        engine.types,
        engine.params,
        engine.scaling,
        cutoff=engine.cutoff,
        neighbor_pairs=pairs,
        domain=engine.domain,
    )


def _ref_engine_drift(engine, positions):
    """The old ``DriftEngine.drift`` of each engine class."""
    if isinstance(engine, AdaptiveDriftEngine):
        return _ref_engine_drift(engine.active, positions)
    if isinstance(engine, DenseDriftEngine):
        return _ref_dense_drift(engine, positions)
    return _ref_sparse_drift(engine, positions)


class _RefParticleSystem:
    """The single-run simulator with its own step loop, verbatim."""

    def __init__(self, config, *, rng=None, initial_positions=None):
        self.config = config
        self.rng = as_generator(rng)
        self.types = config.types
        self._domain = config.resolved_domain
        self._integrator = get_integrator(config.integrator, noise_variance=config.noise_variance)
        self._engine = engine_for_config(config)
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
            self.positions = self._domain.wrap(initial_positions.copy())
        self._step_count = 0
        self._observers: list = []

    @property
    def at_equilibrium(self):
        return self._equilibrium.quiet_steps >= self.config.equilibrium_patience

    @property
    def force_history(self):
        return self._equilibrium.history

    def add_observer(self, observer):
        self._observers.append(observer)

    def _notify_observers(self, step, frame):
        view = frame.view()
        view.flags.writeable = False
        for observer in self._observers:
            observer.on_step(step, view)

    def drift(self, positions=None):
        pos = self.positions if positions is None else np.asarray(positions, dtype=float)
        return _clip_drift(_ref_engine_drift(self._engine, pos), self.config.max_drift_norm)

    def step(self):
        for _ in range(self.config.substeps):
            self.positions = self._integrator.step(
                self.positions, self.drift, self.config.dt, self.rng, self._domain
            )
        self._step_count += 1
        self._equilibrium.update(self.drift())
        self._maybe_reresolve_engine()
        return self.positions

    def _maybe_reresolve_engine(self):
        cadence = self.config.auto_reresolve_every
        if (
            cadence
            and isinstance(self._engine, AdaptiveDriftEngine)
            and self._step_count % cadence == 0
        ):
            self._engine.reresolve(self.positions)

    def run(self, n_steps=None, *, stop_at_equilibrium=False, record=True):
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


def _ref_run_batch(simulator, initial, rng, record_initial=True):
    """The ensemble's own step loop (``EnsembleSimulator._run_batch``), verbatim."""

    def _drift(positions):
        drift = simulator.engine.drift_batch(positions)
        return _clip_drift(drift, simulator.config.max_drift_norm)

    config = simulator.config
    domain = config.resolved_domain
    integrator = get_integrator(config.integrator, noise_variance=config.noise_variance)
    positions = np.asarray(initial, dtype=float).copy()
    frames = [positions.copy()] if record_initial else []
    force_norms = [net_force_norms(_drift(positions)).sum(axis=-1)]
    cadence = config.auto_reresolve_every
    adaptive = cadence and isinstance(simulator.engine, AdaptiveDriftEngine)
    for step in range(1, config.n_steps + 1):
        for _ in range(config.substeps):
            positions = integrator.step(positions, _drift, config.dt, rng, domain)
        frames.append(positions.copy())
        force_norms.append(net_force_norms(_drift(positions)).sum(axis=-1))
        if adaptive and step % cadence == 0:
            simulator.engine.reresolve(positions)
    return np.stack(frames, axis=0), np.stack(force_norms, axis=0)


# --------------------------------------------------------------------------- #
# Corpus
# --------------------------------------------------------------------------- #

DOMAIN_KINDS = ("free", "periodic", "periodic-aniso", "channel", "reflecting")
CUTOFFS = (None, 2.5, 4.0)
SIZES = (2, 7, 50, 300)


def _box_side(n: int) -> float:
    """A box side holding ``n`` particles at moderate density, wide enough for ``r_c = 4``."""
    return float(max(8.5, 1.2 * np.sqrt(n)))


def _domain(kind: str, n: int) -> Domain:
    side = _box_side(n)
    return get_domain(
        {
            "free": "free",
            "periodic": f"periodic:{side}",
            "periodic-aniso": f"periodic:{side},{1.3 * side}",
            "channel": f"channel:{side},{1.3 * side}",
            "reflecting": f"reflecting:{side}",
        }[kind]
    )


def _positions(domain: Domain, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if domain.bounded:
        return rng.uniform(0.0, 1.0, size=(n, 2)) * np.asarray(domain.extents)
    half = 0.8 * np.sqrt(n) + 1.0
    return rng.uniform(-half, half, size=(n, 2))


def _system(n: int, seed: int) -> tuple[np.ndarray, InteractionParams]:
    rng = np.random.default_rng(seed)
    params = InteractionParams.random(3, rng=rng, r_range=(0.5, 2.0))
    return rng.integers(0, 3, size=n), params


def _assert_bytes_equal(actual: np.ndarray, expected: np.ndarray) -> None:
    actual = np.asarray(actual)
    expected = np.asarray(expected)
    assert actual.shape == expected.shape
    assert actual.dtype == expected.dtype
    assert actual.tobytes() == expected.tobytes()


# --------------------------------------------------------------------------- #
# Drift
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("kind", DOMAIN_KINDS)
@pytest.mark.parametrize("force", ["F1", "F2"])
def test_drift_single_matches_reference(kind, force):
    for cutoff, n in itertools.product(CUTOFFS, (0, 1) + SIZES):
        domain = _domain(kind, n)
        positions = _positions(domain, n, seed=n)
        types, params = _system(n, seed=n + 1)
        pair = params.pair_matrices(types)
        for kwargs in ({}, {"pair": pair}):
            _assert_bytes_equal(
                drift_single(positions, types, params, force, cutoff, domain=domain, **kwargs),
                _ref_drift_single(
                    positions, types, params, force, cutoff, domain=domain, **kwargs
                ),
            )


@pytest.mark.parametrize("kind", DOMAIN_KINDS)
@pytest.mark.parametrize(
    "engine_name, backend",
    [
        ("dense", "kdtree"),
        ("sparse", "brute"),
        ("sparse", "cell"),
        ("sparse", "kdtree"),
        ("auto", "cell"),
    ],
)
def test_engine_drift_matches_reference(kind, engine_name, backend):
    for force, cutoff, n in itertools.product(("F1", "F2"), CUTOFFS, SIZES):
        domain = _domain(kind, n)
        positions = _positions(domain, n, seed=10 + n)
        types, params = _system(n, seed=11 + n)
        engine = make_engine(
            engine_name,
            types=types,
            params=params,
            scaling=force,
            cutoff=cutoff,
            neighbors=backend,
            domain_radius=float(np.sqrt(n)),
            adaptive=True,
            domain=domain,
        )
        expected = _ref_engine_drift(engine, positions)
        _assert_bytes_equal(engine.drift(positions), expected)
        _assert_bytes_equal(engine(positions), expected)


# --------------------------------------------------------------------------- #
# Neighbour pairs
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("kind", DOMAIN_KINDS)
@pytest.mark.parametrize("backend", ["brute", "cell", "kdtree"])
def test_pairs_match_reference(kind, backend):
    search = get_neighbor_search(backend)
    ref_pairs = _REF_PAIRS[backend]
    for radius, n in itertools.product((2.5, 4.0, np.inf), (0, 1) + SIZES):
        domain = _domain(kind, n)
        positions = _positions(domain, n, seed=20 + n)
        expected = ref_pairs(positions, radius, domain)
        if backend == "kdtree":
            # The one intended change: single kdtree pairs are now sorted.
            expected = _ref_sorted_pairs(*expected)
        i_idx, j_idx = search.pairs(positions, radius, domain)
        _assert_bytes_equal(i_idx, expected[0])
        _assert_bytes_equal(j_idx, expected[1])

        lists = search.neighbor_lists(positions, radius, domain)
        ref_lists = _ref_neighbor_lists(ref_pairs, positions, radius, domain)
        assert len(lists) == len(ref_lists)
        for got, want in zip(lists, ref_lists):
            _assert_bytes_equal(got, want)

        for m in (1, 2):
            batch = np.stack([positions] + [_positions(domain, n, seed=21 + n)] * (m - 1))
            bi, bj = search.pairs_batch(batch, radius, domain)
            ri, rj = _ref_pairs_batch(ref_pairs, batch, radius, domain)
            _assert_bytes_equal(bi, ri)
            _assert_bytes_equal(bj, rj)


def _overflow_cloud() -> np.ndarray:
    # Extent/radius ratio ~1e13 per axis: the padded cell-id space overflows int64.
    return np.array([[0.0, 0.0], [1e-3, 0.0], [1e10, 1e10], [-1e10, 3e9]])


@pytest.mark.parametrize(
    "backend, spec, positions, radius",
    [
        ("cell", "free", _overflow_cloud(), 2e-3),
        ("cell", "periodic:2.0", np.array([[0.1, 0.1], [0.9, 0.2], [1.9, 1.8]]), 0.9),
        ("cell", "channel:2.0,5.0", np.array([[0.1, 0.1], [1.9, 0.2], [1.0, 4.8]]), 0.9),
        ("kdtree", "periodic:2.0", np.array([[0.1, 0.1], [0.9, 0.2], [1.9, 1.8]]), 0.9),
        ("kdtree", "periodic:2.0", np.array([[0.1, 0.1], [0.9, 0.2], [1.9, 1.8]]), 1.0),
        ("kdtree", "channel:2.0,5.0", np.array([[0.1, 0.1], [1.9, 0.2], [1.0, 4.8]]), 1.0),
        ("kdtree", "free", _overflow_cloud(), 2e-3),
    ],
)
def test_fallbacks_match_reference(backend, spec, positions, radius):
    domain = get_domain(spec)
    search = get_neighbor_search(backend)
    expected = _ref_sorted_pairs(*_REF_PAIRS[backend](positions, radius, domain))
    i_idx, j_idx = search.pairs(positions, radius, domain)
    _assert_bytes_equal(i_idx, expected[0])
    _assert_bytes_equal(j_idx, expected[1])
    batch = np.stack([positions, positions[::-1]])
    bi, bj = search.pairs_batch(batch, radius, domain)
    ri, rj = _ref_pairs_batch(_REF_PAIRS[backend], batch, radius, domain)
    _assert_bytes_equal(bi, ri)
    _assert_bytes_equal(bj, rj)


def test_cell_fallbacks_use_the_batched_queries():
    # The cell list's fallbacks call the other backends' pairs_batch
    # directly, so no pairs -> pairs_batch -> pairs cycle can arise.
    assert "pairs" not in vars(CellListNeighbors)
    assert "pairs" not in vars(BruteForceNeighbors)
    positions = _overflow_cloud()
    i_idx, j_idx = CellListNeighbors().pairs(positions, 2e-3)
    assert list(zip(i_idx.tolist(), j_idx.tolist())) == [(0, 1), (1, 0)]


# --------------------------------------------------------------------------- #
# Full runs
# --------------------------------------------------------------------------- #


def _run_config(n: int, domain: str, **overrides) -> SimulationConfig:
    params = InteractionParams.clustering(2, self_distance=1.0, cross_distance=2.0, k=2.0)
    base = dict(
        type_counts=(n // 2, n - n // 2),
        params=params,
        force="F1",
        cutoff=2.5,
        domain=domain,
        dt=0.02,
        n_steps=4,
        auto_reresolve_every=2,
    )
    base.update(overrides)
    return SimulationConfig(**base)


def _assert_runs_equal(new: ParticleSystem, ref: _RefParticleSystem, run_kwargs) -> None:
    for kwargs in run_kwargs:
        got = new.run(**kwargs)
        want = ref.run(**kwargs)
        _assert_bytes_equal(got.positions, want.positions)
        _assert_bytes_equal(new.force_history, ref.force_history)
        _assert_bytes_equal(new.positions, ref.positions)
        _assert_bytes_equal(new.drift(), ref.drift())
        assert new.step_count == ref._step_count
        assert new.at_equilibrium == ref.at_equilibrium
        assert got.dt == want.dt


@pytest.mark.parametrize("integrator", ["euler-maruyama", "heun"])
@pytest.mark.parametrize("engine", ["auto", "dense", "sparse"])
@pytest.mark.parametrize("substeps", [1, 2])
@pytest.mark.parametrize("max_drift_norm", [None, 0.5])
@pytest.mark.parametrize("domain", ["free", "periodic:16", "channel:16,12"])
def test_particle_system_matches_reference(integrator, engine, substeps, max_drift_norm, domain):
    backend = "cell" if substeps == 1 else "kdtree"
    for n in (6, 220):
        config = _run_config(
            n,
            domain,
            integrator=integrator,
            engine=engine,
            substeps=substeps,
            max_drift_norm=max_drift_norm,
            neighbor_backend=backend,
        )
        _assert_runs_equal(
            ParticleSystem(config, rng=n), _RefParticleSystem(config, rng=n), [{}]
        )


def test_single_particle_matches_reference():
    params = InteractionParams.single_type()
    config = SimulationConfig(type_counts=(1,), params=params, force="F1", n_steps=3)
    _assert_runs_equal(ParticleSystem(config, rng=0), _RefParticleSystem(config, rng=0), [{}])


def test_stop_at_equilibrium_matches_reference():
    # A huge threshold makes every step quiet, so the run stops after
    # ``patience`` steps — well before n_steps.
    config = _run_config(8, "free", n_steps=20, equilibrium_threshold=1e9)
    new = ParticleSystem(config, rng=1)
    ref = _RefParticleSystem(config, rng=1)
    _assert_runs_equal(new, ref, [{"stop_at_equilibrium": True}])
    assert new.step_count == config.equilibrium_patience


def test_unrecorded_run_matches_reference():
    config = _run_config(8, "periodic:9", n_steps=5)
    new = ParticleSystem(config, rng=2)
    ref = _RefParticleSystem(config, rng=2)
    _assert_runs_equal(new, ref, [{"record": False}, {"n_steps": 2}])


def test_explicit_initial_positions_match_reference():
    config = _run_config(10, "channel:6,5")
    raw = np.random.default_rng(3).uniform(-2.0, 8.0, size=(10, 2))
    _assert_runs_equal(
        ParticleSystem(config, rng=3, initial_positions=raw),
        _RefParticleSystem(config, rng=3, initial_positions=raw),
        [{}],
    )


class _Collector:
    def __init__(self):
        self.steps: list[int] = []
        self.frames: list[np.ndarray] = []

    def on_step(self, step, positions):
        assert not positions.flags.writeable
        self.steps.append(step)
        self.frames.append(positions.copy())


def test_observed_run_matches_reference():
    config = _run_config(12, "free", n_steps=5)
    new = ParticleSystem(config, rng=4)
    ref = _RefParticleSystem(config, rng=4)
    seen_new, seen_ref = _Collector(), _Collector()
    new.add_observer(seen_new)
    ref.add_observer(seen_ref)
    _assert_runs_equal(new, ref, [{}, {"n_steps": 3}, {"record": False}])
    assert seen_new.steps == seen_ref.steps == [0, 1, 2, 3, 4, 5, 5, 6, 7, 8]
    for got, want in zip(seen_new.frames, seen_ref.frames):
        assert got.shape == (12, 2)
        _assert_bytes_equal(got, want)


def _contracting_config(engine: str, **overrides) -> SimulationConfig:
    # Starts sparse from an 8-unit disc and contracts below the cut-off, so
    # the adaptive engine switches to dense mid-run.
    params = InteractionParams.clustering(2, self_distance=0.5, cross_distance=0.5, k=0.05)
    base = dict(
        type_counts=(100, 100),
        params=params,
        force="F1",
        cutoff=6.0,
        dt=0.05,
        n_steps=12,
        init_radius=8.0,
        noise_variance=0.01,
        engine=engine,
        neighbor_backend="cell",
        auto_reresolve_every=2,
    )
    base.update(overrides)
    return SimulationConfig(**base)


def test_adaptive_reresolution_across_repeated_runs_matches_reference():
    config = _contracting_config("auto", neighbor_backend="kdtree")
    new = ParticleSystem(config, rng=11)
    ref = _RefParticleSystem(config, rng=11)
    resolved = []
    for n_steps in (3, 3, 3, 3):
        _assert_runs_equal(new, ref, [{"n_steps": n_steps}])
        assert new.engine.resolved == ref._engine.resolved
        resolved.append(new.engine.resolved)
    assert resolved[0] == "sparse" and resolved[-1] == "dense"


@pytest.mark.parametrize("engine", ["auto", "dense", "sparse"])
@pytest.mark.parametrize("integrator", ["euler-maruyama", "heun"])
@pytest.mark.parametrize("domain", ["free", "periodic:20"])
def test_ensemble_batch_matches_reference(engine, integrator, domain):
    config = _contracting_config(
        engine, integrator=integrator, domain=domain, n_steps=6, max_drift_norm=0.3
    )
    initial = initial_ensemble_for(config, 2, np.random.default_rng(5))
    got = EnsembleSimulator(config, 2)._run_batch(initial, np.random.default_rng(6))
    want = _ref_run_batch(EnsembleSimulator(config, 2), initial, np.random.default_rng(6))
    _assert_bytes_equal(got[0], want[0])
    _assert_bytes_equal(got[1], want[1])


def test_single_run_is_the_m1_ensemble_step():
    # Same generator, same initial state: a ParticleSystem run equals one
    # ensemble batch of size 1, frame for frame.
    config = _contracting_config("auto", n_steps=6)
    system = ParticleSystem(config, rng=7)
    initial = system.positions.copy()
    trajectory = system.run()
    rng = np.random.default_rng(7)
    initial_positions_for(config, rng)  # consume the initial draw
    frames, norms = EnsembleSimulator(config, 1)._run_batch(initial[None], rng)
    _assert_bytes_equal(trajectory.positions, frames[:, 0])
    _assert_bytes_equal(system.force_history, norms[1:, 0])
