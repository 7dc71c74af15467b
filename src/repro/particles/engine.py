"""Unified drift-evaluation engine: one entry point over dense and sparse kernels.

A :class:`DriftEngine` evaluates the Eq. 6 drift of a whole ensemble
snapshot ``(m, n, 2)`` through one kernel, :meth:`DriftEngine.drift_batch`,
and every registered neighbour backend (:mod:`repro.particles.neighbors`)
feeds the sparse one.  A single configuration ``(n, 2)`` is the ``m = 1``
case: :meth:`DriftEngine.drift` is a thin wrapper on the base class, so each
engine carries exactly one kernel body.

Two engines are provided:

* :class:`DenseDriftEngine` — the O(n²·m) all-pairs kernel
  (:class:`~repro.particles.forces.DenseDriftKernel`: per-axis ``(m, n, n)``
  arrays in ``[sample, j, i]`` layout, in a workspace the engine keeps for
  its lifetime).  Fastest for the collective sizes of the paper's
  experiments (n ≤ 120) and mandatory when no cut-off radius is set (every
  pair interacts).
* :class:`SparseDriftEngine` — neighbour pairs from a
  :class:`~repro.particles.neighbors.NeighborSearch` backend, accumulated with
  a vectorised segment-sum (:func:`numpy.bincount` over flattened pair
  indices).  Cost is proportional to the number of interacting pairs, so it
  wins whenever the cut-off ``r_c`` is small relative to the collective
  diameter.

Selection is configured on :class:`~repro.particles.model.SimulationConfig`
via ``engine="dense" | "sparse" | "auto"``; :func:`resolve_engine` implements
the ``"auto"`` heuristic (sparse for large collectives with a genuinely
pruning cut-off, dense otherwise).  Because collectives contract over a run,
``"auto"`` is *adaptive* by default: :class:`AdaptiveDriftEngine` re-resolves
the choice every ``SimulationConfig.auto_reresolve_every`` recorded steps
from the **current** bounding box (:func:`collective_radius`), so a run that
starts sparse switches to the dense kernel once the cut-off disc covers the
shrunken collective — without changing a single bit of the trajectory (see
below).

Choosing an engine/backend
--------------------------
* n ≲ 200, or no cut-off, or ``r_c`` comparable to the collective diameter —
  ``"dense"`` (what ``"auto"`` resolves to).
* large n with a genuinely pruning cut-off — ``"sparse"``.  Its one
  neighbour backend is the cell list (``"cell"``, also spelled ``"kdtree"``
  so stored configurations keep their hash): its
  :meth:`~repro.particles.neighbors.CellListNeighbors.pairs_batch` hashes
  the whole ``(m, n, 2)`` snapshot in one vectorised query.  ``"brute"`` is
  the testing reference.
* unsure, or the collective contracts over the run — ``"auto"`` with the
  default adaptive re-resolution.

Bit-compatibility contract
--------------------------
Both engines produce *bit-identical* drift for the same configuration.
There is one summation order, sequential in ``j``: the dense kernel sums
``Σ_j`` as a reduction over the non-inner ``j`` axis of its ``[sample, j,
i]`` arrays, and the sparse kernel consumes pairs in lexicographic
``(sample, i, j)`` order (see
:meth:`~repro.particles.neighbors.NeighborSearch.pairs_batch`) through one
:func:`numpy.bincount` per coordinate.  Skipped pairs contribute exact
zeros in the dense kernel.  Because a single
configuration goes through the same kernel at ``m = 1``, single runs and
ensembles share the contract too.  ``tests/test_integration.py`` pins it, so
trajectories are reproducible across engine choices — and it is what makes
adaptive mid-run engine switching safe.

The contract holds on every simulation domain
(:mod:`repro.particles.domain`): both kernels and both neighbour backends
compute pairwise displacements through the same
:meth:`~repro.particles.domain.Domain.displacement`, so dense vs sparse
stays bit-identical on the periodic torus and in the reflecting box too
(fuzz-pinned in ``tests/test_neighbors_fuzz.py``).  On bounded domains the
``"auto"`` heuristic compares the cut-off against the fixed box size —
wrapped coordinates always fill the box, so the live bounding box carries
no signal there.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING

import numpy as np

from repro.particles.domain import Domain, get_domain
from repro.particles.forces import (
    DenseDriftKernel,
    ForceScaling,
    get_force_scaling,
    pair_interaction_weights,
)
from repro.particles.neighbors import NeighborSearch, get_neighbor_search
from repro.particles.types import InteractionParams

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.particles.model import SimulationConfig

__all__ = [
    "DRIFT_ENGINES",
    "SPARSE_AUTO_MIN_PARTICLES",
    "SPARSE_AUTO_CUTOFF_FRACTION",
    "DriftEngine",
    "DenseDriftEngine",
    "SparseDriftEngine",
    "AdaptiveDriftEngine",
    "collective_radius",
    "heuristic_domain_radius",
    "resolve_engine",
    "make_engine",
    "engine_for_config",
    "sparse_drift_batch",
]

#: Valid values of ``SimulationConfig.engine``.
DRIFT_ENGINES = ("auto", "dense", "sparse")

#: Below this collective size the dense broadcast kernel wins regardless of
#: the cut-off: the per-sample neighbour queries and index arithmetic of the
#: sparse path cost more than the full n² evaluation.
SPARSE_AUTO_MIN_PARTICLES = 192

#: The sparse engine only pays off when the cut-off disc covers a small part
#: of the collective.  ``"auto"`` stays dense when ``r_c`` exceeds this
#: fraction of the initial collective *diameter* (most pairs interact then,
#: so there is nothing to prune).
SPARSE_AUTO_CUTOFF_FRACTION = 0.5


def resolve_engine(
    engine: str,
    *,
    n_particles: int,
    cutoff: float | None,
    domain_radius: float | None = None,
) -> str:
    """Resolve an engine name, applying the ``"auto"`` heuristic.

    Parameters
    ----------
    engine:
        ``"dense"``, ``"sparse"`` or ``"auto"``.
    n_particles:
        Collective size ``n``.
    cutoff:
        Interaction radius ``r_c`` (``None``/``inf`` = unconstrained).
    domain_radius:
        Characteristic radius of the collective (the initial disc radius);
        used to judge whether the cut-off actually prunes pairs.  ``None``
        skips that part of the heuristic.
    """
    key = str(engine).lower()
    if key in ("dense", "sparse"):
        return key
    if key != "auto":
        raise KeyError(f"unknown drift engine {engine!r}; available: {list(DRIFT_ENGINES)}")
    if cutoff is None or not np.isfinite(cutoff):
        return "dense"
    if n_particles < SPARSE_AUTO_MIN_PARTICLES:
        return "dense"
    if domain_radius is not None and cutoff > SPARSE_AUTO_CUTOFF_FRACTION * 2.0 * float(domain_radius):
        return "dense"
    return "sparse"


def heuristic_domain_radius(domain: Domain, fallback: float | None) -> float | None:
    """Characteristic radius the ``"auto"`` heuristic compares the cut-off to.

    On bounded domains (periodic torus, reflecting box, channel) it is the
    fixed ``min(Lx, Ly) / 2`` — wrapped coordinates always span the box, so
    neither an initial disc radius nor the live bounding box carries any
    signal there, and on anisotropic boxes the *shorter* extent is the one
    that decides whether the cut-off disc still prunes pairs.  Unbounded
    domains keep the caller's ``fallback`` (the initial disc radius, or
    :func:`collective_radius` of the current snapshot).  This is the single
    definition of the bounded-domain rule; every heuristic call site routes
    through it.
    """
    if domain.bounded:
        return min(domain.extents) / 2.0
    return fallback


def collective_radius(positions: np.ndarray) -> float:
    """Characteristic radius of the current configuration(s).

    Half the longer side of the axis-aligned bounding box over *all*
    particles (and, for an ensemble snapshot ``(m, n, 2)``, all samples) —
    the live counterpart of the initial disc radius that the static
    ``"auto"`` heuristic uses.  Collectives contract over a run, so feeding
    this to :func:`resolve_engine` lets :class:`AdaptiveDriftEngine` notice
    when the cut-off disc stops pruning pairs.
    """
    positions = np.asarray(positions, dtype=float)
    if positions.size == 0:
        return 0.0
    flat = positions.reshape(-1, positions.shape[-1])
    spans = flat.max(axis=0) - flat.min(axis=0)
    return float(spans.max() / 2.0)


def sparse_drift_batch(
    positions: np.ndarray,
    types: np.ndarray,
    params: InteractionParams,
    scaling: ForceScaling | str,
    cutoff: float | None,
    neighbors: NeighborSearch | str,
    domain: Domain | str | None = None,
) -> np.ndarray:
    """Sparse drift for an ensemble snapshot ``(m, n, 2)``.

    Neighbour pairs of every sample are flattened into a single
    ``(sample, i, j)`` index space and the per-pair contributions are
    accumulated with one :func:`numpy.bincount` segment-sum per coordinate —
    no Python loop over pairs or particles, and the only per-sample work is
    the neighbour query itself.
    """
    positions = np.asarray(positions, dtype=float)
    if positions.ndim != 3 or positions.shape[-1] != 2:
        raise ValueError(f"positions must have shape (m, n, 2), got {positions.shape}")
    types = np.asarray(types, dtype=int)
    m, n, _ = positions.shape
    if types.shape != (n,):
        raise ValueError("types must have shape (n,)")
    scaling = get_force_scaling(scaling)
    neighbors = get_neighbor_search(neighbors)
    domain = get_domain(domain)
    radius = float("inf") if cutoff is None else float(cutoff)

    i_idx, j_idx = neighbors.pairs_batch(positions, radius, domain)
    if i_idx.size == 0:
        return np.zeros_like(positions)

    flat = positions.reshape(m * n, 2)
    delta = domain.displacement(flat[i_idx], flat[j_idx])
    dist = np.sqrt(np.einsum("ij,ij->i", delta, delta))
    tiled_types = np.tile(types, m)
    weights = pair_interaction_weights(
        dist, tiled_types[i_idx], tiled_types[j_idx], params, scaling, cutoff=cutoff
    )
    contrib = weights[:, None] * delta
    drift = np.stack(
        [np.bincount(i_idx, weights=contrib[:, c], minlength=m * n) for c in range(2)],
        axis=1,
    )
    return drift.reshape(m, n, 2)


class DriftEngine(abc.ABC):
    """Evaluates the deterministic Eq. 6 drift for one experiment's particles.

    An engine is bound to a fixed type assignment, interaction parameters,
    force scaling and cut-off; it is therefore safe to cache per-pair
    parameter data across time steps.  Subclasses implement one kernel,
    :meth:`drift_batch`; :meth:`drift` is its ``m = 1`` case.  Calling the
    engine dispatches on the input rank — ``(n, 2)`` or ``(m, n, 2)`` — which
    makes an engine directly usable as the ``drift_fn`` of any
    :class:`~repro.particles.integrators.Integrator`.
    """

    name: str = ""

    def __init__(
        self,
        types: np.ndarray,
        params: InteractionParams,
        scaling: ForceScaling | str,
        cutoff: float | None = None,
        *,
        domain: Domain | str | None = None,
    ) -> None:
        self.types = np.asarray(types, dtype=int)
        if self.types.ndim != 1 or self.types.size == 0:
            raise ValueError("types must be a non-empty 1-D array")
        self.params = params
        self.scaling = get_force_scaling(scaling)
        self.cutoff = None if cutoff is None or not np.isfinite(cutoff) else float(cutoff)
        self.domain = get_domain(domain)

    @property
    def n_particles(self) -> int:
        return int(self.types.size)

    @abc.abstractmethod
    def drift_batch(self, positions: np.ndarray) -> np.ndarray:
        """Drift for an ensemble snapshot ``(m, n, 2)``."""

    def drift(self, positions: np.ndarray) -> np.ndarray:
        """Drift for a single configuration ``(n, 2)``: :meth:`drift_batch` at ``m = 1``."""
        positions = np.asarray(positions, dtype=float)
        if positions.ndim != 2 or positions.shape[-1] != 2:
            raise ValueError(f"positions must have shape (n, 2), got {positions.shape}")
        return self.drift_batch(positions[None])[0]

    def __call__(self, positions: np.ndarray) -> np.ndarray:
        positions = np.asarray(positions, dtype=float)
        if positions.ndim == 2:
            return self.drift(positions)
        if positions.ndim == 3:
            return self.drift_batch(positions)
        raise ValueError(
            f"positions must have shape (n, 2) or (m, n, 2), got {positions.shape}"
        )

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"{type(self).__name__}(n={self.n_particles}, cutoff={self.cutoff})"


class DenseDriftEngine(DriftEngine):
    """All-pairs kernel; owns one :class:`~repro.particles.forces.DenseDriftKernel`.

    The kernel caches the transposed per-pair parameter matrices and keeps
    its workspace for the engine's lifetime, so repeated evaluations (every
    integration sub-step of a run) allocate nothing of size ``n²``.
    """

    name = "dense"

    def __init__(self, types, params, scaling, cutoff=None, *, domain=None) -> None:
        super().__init__(types, params, scaling, cutoff, domain=domain)
        self._kernel = DenseDriftKernel(
            self.types, params, self.scaling, self.cutoff, domain=self.domain
        )

    def drift_batch(self, positions: np.ndarray) -> np.ndarray:
        return self._kernel(positions)


class SparseDriftEngine(DriftEngine):
    """Neighbour-pair kernel driven by any registered search backend."""

    name = "sparse"

    def __init__(
        self,
        types,
        params,
        scaling,
        cutoff=None,
        *,
        neighbors: NeighborSearch | str = "cell",
        domain: Domain | str | None = None,
    ) -> None:
        super().__init__(types, params, scaling, cutoff, domain=domain)
        self.neighbors = get_neighbor_search(neighbors)

    def drift_batch(self, positions: np.ndarray) -> np.ndarray:
        return sparse_drift_batch(
            positions,
            self.types,
            self.params,
            self.scaling,
            self.cutoff,
            self.neighbors,
            domain=self.domain,
        )


class AdaptiveDriftEngine(DriftEngine):
    """``"auto"`` as a live choice: delegates to dense or sparse and can re-resolve.

    The engine holds lazily-built dense and sparse delegates (so per-pair
    parameter caches survive switches) and forwards every drift evaluation
    to the currently active one.  :meth:`reresolve` re-runs the ``"auto"``
    heuristic against the *current* bounding box — the simulation drivers
    call it every ``SimulationConfig.auto_reresolve_every`` recorded steps,
    which lets a contracting collective drop from sparse to dense mid-run
    (or the reverse, if a collective disperses).  Switching is free of
    observable side effects: the bit-compatibility contract guarantees both
    delegates produce identical drift for identical positions.

    On a *bounded* domain (periodic torus or reflecting box) the live
    bounding box is meaningless — wrapped coordinates always span the box —
    so the heuristic uses the fixed box size (``L/2`` as the characteristic
    radius) instead, and re-resolution becomes a constant-time no-op.
    """

    name = "adaptive"

    def __init__(
        self,
        types,
        params,
        scaling,
        cutoff=None,
        *,
        neighbors: NeighborSearch | str = "cell",
        domain_radius: float | None = None,
        domain: Domain | str | None = None,
    ) -> None:
        super().__init__(types, params, scaling, cutoff, domain=domain)
        self.neighbors = get_neighbor_search(neighbors)
        self._delegates: dict[str, DriftEngine] = {}
        self._resolved = resolve_engine(
            "auto",
            n_particles=self.n_particles,
            cutoff=self.cutoff,
            domain_radius=heuristic_domain_radius(self.domain, domain_radius),
        )

    @property
    def resolved(self) -> str:
        """Name of the currently active kernel (``"dense"``/``"sparse"``)."""
        return self._resolved

    @property
    def active(self) -> DriftEngine:
        """The delegate engine currently evaluating the drift."""
        if self._resolved not in self._delegates:
            if self._resolved == "dense":
                delegate = DenseDriftEngine(
                    self.types, self.params, self.scaling, self.cutoff, domain=self.domain
                )
            else:
                delegate = SparseDriftEngine(
                    self.types, self.params, self.scaling, self.cutoff,
                    neighbors=self.neighbors, domain=self.domain,
                )
            self._delegates[self._resolved] = delegate
        return self._delegates[self._resolved]

    def reresolve(self, positions: np.ndarray) -> str:
        """Re-run the ``"auto"`` heuristic from the current bounding box.

        Returns the resolved kernel name; the switch (if any) takes effect
        on the next drift evaluation and never changes its result.  On a
        bounded domain the characteristic radius is the fixed ``box / 2``
        (see :func:`heuristic_domain_radius`), so the choice never moves and
        the (m, n, 2) bounding-box scan is skipped entirely.
        """
        if self.domain.bounded:
            return self._resolved  # resolved once from box/2 at construction
        self._resolved = resolve_engine(
            "auto",
            n_particles=self.n_particles,
            cutoff=self.cutoff,
            domain_radius=collective_radius(positions),
        )
        return self._resolved

    def drift_batch(self, positions: np.ndarray) -> np.ndarray:
        return self.active.drift_batch(positions)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"{type(self).__name__}(n={self.n_particles}, cutoff={self.cutoff}, "
            f"resolved={self._resolved!r})"
        )


def make_engine(
    engine: str,
    *,
    types: np.ndarray,
    params: InteractionParams,
    scaling: ForceScaling | str,
    cutoff: float | None = None,
    neighbors: NeighborSearch | str = "cell",
    domain_radius: float | None = None,
    adaptive: bool = False,
    domain: Domain | str | None = None,
) -> DriftEngine:
    """Build a :class:`DriftEngine`, resolving ``"auto"`` with :func:`resolve_engine`.

    With ``adaptive=True`` (and ``engine="auto"``) the result is an
    :class:`AdaptiveDriftEngine` whose dense/sparse choice can be re-resolved
    mid-run; otherwise ``"auto"`` is resolved once, here.  On a bounded
    ``domain`` the characteristic radius used by ``"auto"`` is the fixed
    ``box / 2`` regardless of ``domain_radius``.
    """
    types = np.asarray(types, dtype=int)
    domain = get_domain(domain)
    domain_radius = heuristic_domain_radius(domain, domain_radius)
    if adaptive and str(engine).lower() == "auto":
        return AdaptiveDriftEngine(
            types, params, scaling, cutoff,
            neighbors=neighbors, domain_radius=domain_radius, domain=domain,
        )
    resolved = resolve_engine(
        engine, n_particles=types.size, cutoff=cutoff, domain_radius=domain_radius
    )
    if resolved == "dense":
        return DenseDriftEngine(types, params, scaling, cutoff, domain=domain)
    return SparseDriftEngine(types, params, scaling, cutoff, neighbors=neighbors, domain=domain)


def engine_for_config(config: "SimulationConfig") -> DriftEngine:
    """The drift engine a :class:`~repro.particles.model.SimulationConfig` selects."""
    return make_engine(
        config.engine,
        types=config.types,
        params=config.params,
        scaling=config.force,
        cutoff=config.cutoff,
        neighbors=config.neighbor_backend,
        domain_radius=config.domain_radius,
        adaptive=config.auto_reresolve_every > 0,
        domain=config.resolved_domain,
    )
