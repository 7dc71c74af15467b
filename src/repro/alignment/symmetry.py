"""Factoring out the shape symmetries of a particle ensemble.

The observable shape of a configuration is invariant under the group
``F = ISO+(2) × S*_n`` of planar rotations, translations and permutations of
same-type particles (§4.2).  To measure multi-information between observer
variables, every ensemble snapshot is mapped to a symmetry-reduced
representative ``w`` (§5.2):

1. **translation** — express every sample relative to its centroid,
2. **rotation** — align every sample to a common reference sample with the
   type-aware ICP,
3. **permutation** — reorder each sample's particles so that index ``i``
   refers to "the same" particle across samples, via the one-to-one
   type-preserving correspondence found by the ICP.

The correspondence is established *across samples at a fixed time step*;
identity of a particle across time is deliberately lost (§5.2).  All samples
of a frame are registered together: :func:`align_snapshot` hands the whole
snapshot to the aligner's lock-step ``align_batch``
(:mod:`repro.alignment.lockstep`), whose rows are bit-identical to aligning
each sample on its own.

On a wrapped domain (any periodic axis: torus or channel) the free-space
group is the wrong one — there are no continuous rotations, translations act
modulo L on the periodic axes only, and centroids are not well defined mod L
— so passing ``domain=`` to :func:`align_snapshot` / :func:`reduce_ensemble`
dispatches to the :class:`~repro.alignment.torus.TorusAligner`: samples stay
in wrapped box coordinates and are registered by mod-L translation plus the
admissible per-axis flips.  Free and reflecting domains keep the free-space
path unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.alignment.icp import TypeAwareICP
from repro.alignment.lockstep import BatchAlignment
from repro.alignment.torus import TorusAligner
from repro.particles.domain import Domain, get_domain
from repro.particles.trajectory import EnsembleTrajectory

__all__ = [
    "center_configurations",
    "select_reference",
    "select_reference_wrapped",
    "align_snapshot",
    "SnapshotAlignment",
    "reduce_ensemble",
    "ReducedEnsemble",
]


def center_configurations(positions: np.ndarray) -> np.ndarray:
    """Subtract the centroid of each configuration.

    Accepts a single configuration ``(n, 2)`` or any batch ``(..., n, 2)``;
    the centroid is taken over the particle axis.
    """
    positions = np.asarray(positions, dtype=float)
    if positions.ndim < 2 or positions.shape[-1] != 2:
        raise ValueError("positions must have shape (..., n, 2)")
    return positions - positions.mean(axis=-2, keepdims=True)


def select_reference(snapshot: np.ndarray, strategy: str = "medoid") -> int:
    """Choose the reference sample all others are aligned to.

    Strategies
    ----------
    ``"first"``
        Sample 0 (cheapest; what a streaming implementation would do).
    ``"medoid"``
        The sample whose centred configuration minimises the summed distance
        of its sorted radial profile to all other samples' profiles — a cheap
        rotation/permutation-insensitive proxy for "the most typical shape",
        which makes the subsequent ICP alignments smaller on average.
    """
    snapshot = np.asarray(snapshot, dtype=float)
    if snapshot.ndim != 3 or snapshot.shape[-1] != 2:
        raise ValueError("snapshot must have shape (n_samples, n_particles, 2)")
    if strategy == "first":
        return 0
    if strategy != "medoid":
        raise ValueError(f"unknown reference strategy {strategy!r}")
    centered = center_configurations(snapshot)
    return _profile_medoid(np.sort(np.sqrt(np.einsum("mik,mik->mi", centered, centered)), axis=1))


#: Rows of the pairwise profile distance evaluated at once: a block holds at
#: most this many ``|r_i - r_j|`` terms, so the medoid search needs O(m·n)
#: extra memory rather than an ``(m, m, n)`` temporary.
_MEDOID_BLOCK_TERMS = 1 << 18


def _profile_medoid(radii: np.ndarray) -> int:
    """Index of the profile with the smallest summed L1 distance to all others.

    The pairwise L1 is evaluated in row blocks; each row's sum runs over the
    same contiguous values as the unblocked ``(m, m, n)`` formula, so the
    totals — and the chosen index — are bit-identical to it.
    """
    m, n = radii.shape
    rows = max(1, _MEDOID_BLOCK_TERMS // max(m * n, 1))
    totals = np.empty(m)
    for start in range(0, m, rows):
        block = np.abs(radii[start:start + rows, None, :] - radii[None, :, :]).sum(axis=-1)
        totals[start:start + rows] = block.sum(axis=1)
    return int(totals.argmin())


def select_reference_wrapped(
    snapshot: np.ndarray, domain: Domain, strategy: str = "medoid"
) -> int:
    """Reference selection on a wrapped domain (the mod-L medoid proxy).

    The free-space medoid compares sorted distance-to-centroid profiles, but
    a centroid is not well defined modulo L.  The wrapped analogue uses the
    per-axis *circular* mean on periodic axes (plain mean on reflecting
    ones) and measures radii with the domain's minimum-image metric — the
    profiles are invariant under the symmetries the torus aligner factors
    out, so the choice is as transformation-insensitive as the free-space
    one.
    """
    snapshot = np.asarray(snapshot, dtype=float)
    if snapshot.ndim != 3 or snapshot.shape[-1] != 2:
        raise ValueError("snapshot must have shape (n_samples, n_particles, 2)")
    if strategy == "first":
        return 0
    if strategy != "medoid":
        raise ValueError(f"unknown reference strategy {strategy!r}")
    wrapped = domain.wrap(snapshot)
    centroids = np.empty((snapshot.shape[0], 2))
    for axis in range(2):
        column = wrapped[:, :, axis]
        side = domain.extents[axis]
        if domain.periodic_axes[axis]:
            angle = column * (2.0 * np.pi / side)
            mean_angle = np.arctan2(np.sin(angle).mean(axis=1), np.cos(angle).mean(axis=1))
            centroids[:, axis] = np.mod(mean_angle, 2.0 * np.pi) * (side / (2.0 * np.pi))
        else:
            centroids[:, axis] = column.mean(axis=1)
    delta = domain.displacement(wrapped, centroids[:, None, :])
    return _profile_medoid(np.sort(np.sqrt(np.einsum("mik,mik->mi", delta, delta)), axis=1))


@dataclass(frozen=True)
class SnapshotAlignment:
    """Symmetry-reduced ensemble snapshot at one time step.

    Attributes
    ----------
    reduced:
        ``(n_samples, n_particles, 2)`` aligned, permutation-reduced
        coordinates (the ``w`` samples of the paper).
    reference_index:
        Which sample served as the alignment reference.
    rmse:
        Per-sample ICP residual against the reference.
    """

    reduced: np.ndarray
    reference_index: int
    rmse: np.ndarray


def align_snapshot(
    snapshot: np.ndarray,
    types: np.ndarray,
    *,
    icp: TypeAwareICP | None = None,
    reference: int | np.ndarray | None = None,
    reference_strategy: str = "medoid",
    domain: "Domain | str | None" = None,
) -> SnapshotAlignment:
    """Reduce one ensemble snapshot to its symmetry-factored representation.

    Parameters
    ----------
    snapshot:
        ``(n_samples, n_particles, 2)`` raw simulation output at one step.
    types:
        ``(n_particles,)`` shared type assignment.
    icp:
        Registration engine (defaults to :class:`TypeAwareICP` defaults).  On
        a wrapped domain its ``max_iterations``/``tolerance``/
        ``use_assignment`` parameterise the torus aligner instead.
    reference:
        Either the index of the reference sample, an explicit reference
        configuration of shape ``(n_particles, 2)``, or ``None`` to pick one
        with ``reference_strategy``.
    domain:
        The simulation domain the snapshot was produced on.  Any domain with
        a periodic axis dispatches to the mod-L torus reduction (samples stay
        in wrapped box coordinates); free/reflecting domains — and the
        default ``None`` — keep the free-space ``ISO+(2)`` path unchanged.
    """
    snapshot = np.asarray(snapshot, dtype=float)
    types = np.asarray(types, dtype=int)
    if snapshot.ndim != 3 or snapshot.shape[-1] != 2:
        raise ValueError("snapshot must have shape (n_samples, n_particles, 2)")
    if types.shape != (snapshot.shape[1],):
        raise ValueError("types must have shape (n_particles,)")
    resolved_domain = get_domain(domain)
    if resolved_domain.bounded and any(resolved_domain.periodic_axes):
        return _align_snapshot_wrapped(
            snapshot,
            types,
            resolved_domain,
            icp=icp,
            reference=reference,
            reference_strategy=reference_strategy,
        )
    icp = icp or TypeAwareICP()

    centered = center_configurations(snapshot)
    if reference is None:
        reference_index = select_reference(centered, reference_strategy)
        reference_config = centered[reference_index]
    elif isinstance(reference, (int, np.integer)):
        reference_index = int(reference)
        reference_config = centered[reference_index]
    else:
        reference_index = -1
        reference_config = center_configurations(np.asarray(reference, dtype=float))

    return _reduce_against(centered, reference_index, reference_config, icp.align_batch, types)


def _reduce_against(
    samples: np.ndarray,
    reference_index: int,
    reference_config: np.ndarray,
    align_batch: Callable[[np.ndarray, np.ndarray, np.ndarray], BatchAlignment],
    types: np.ndarray,
) -> SnapshotAlignment:
    """Align every non-reference sample in one batch and reorder it to the reference.

    Slot ``i`` of every reduced sample corresponds to reference particle
    ``i``: particle ``j`` of an aligned sample is stored at slot
    ``correspondence[j]``.  The reference sample itself is kept as is with
    residual 0.  A correspondence that is not a permutation (an aligner with
    ``use_assignment=False``) leaves the slots nothing maps to as NaN.
    """
    n_samples = samples.shape[0]
    reduced = np.full_like(samples, np.nan)
    rmse = np.empty(n_samples)
    others = np.flatnonzero(np.arange(n_samples) != reference_index)
    if others.size < n_samples:
        reduced[reference_index] = reference_config
        rmse[reference_index] = 0.0
    if others.size:
        batch = align_batch(samples[others], reference_config, types)
        reduced[others[:, None], batch.correspondence] = batch.aligned
        rmse[others] = batch.rmse
    return SnapshotAlignment(reduced=reduced, reference_index=reference_index, rmse=rmse)


def _align_snapshot_wrapped(
    snapshot: np.ndarray,
    types: np.ndarray,
    domain: Domain,
    *,
    icp: TypeAwareICP | None = None,
    reference: "int | np.ndarray | None" = None,
    reference_strategy: str = "medoid",
) -> SnapshotAlignment:
    """Torus-path snapshot reduction: mod-L registration in wrapped coordinates.

    No centring happens here — centroids are not well defined modulo L; the
    reduced coordinates are wrapped box coordinates registered to the
    reference by per-axis mod-L translation, the admissible flips and the
    wrapped-metric type-preserving permutation.
    """
    aligner = TorusAligner(
        domain=domain,
        max_iterations=icp.max_iterations if icp is not None else 50,
        tolerance=icp.tolerance if icp is not None else 1e-6,
        use_assignment=icp.use_assignment if icp is not None else True,
    )
    wrapped = domain.wrap(snapshot)
    if reference is None:
        reference_index = select_reference_wrapped(wrapped, domain, reference_strategy)
        reference_config = wrapped[reference_index]
    elif isinstance(reference, (int, np.integer)):
        reference_index = int(reference)
        reference_config = wrapped[reference_index]
    else:
        reference_index = -1
        reference_config = domain.wrap(np.asarray(reference, dtype=float))

    return _reduce_against(wrapped, reference_index, reference_config, aligner.align_batch, types)


@dataclass(frozen=True)
class ReducedEnsemble:
    """Symmetry-reduced ensemble trajectory: the ``w^{(t)}`` samples of the paper.

    Attributes
    ----------
    positions:
        ``(n_steps, n_samples, n_particles, 2)`` reduced coordinates.
    types:
        Shared type assignment (the reduced slot ``i`` has type ``types[i]``).
    reference_indices:
        Reference sample chosen at each time step.
    rmse:
        ``(n_steps, n_samples)`` ICP residuals.
    """

    positions: np.ndarray
    types: np.ndarray
    reference_indices: np.ndarray
    rmse: np.ndarray

    @property
    def n_steps(self) -> int:
        return int(self.positions.shape[0])

    @property
    def n_samples(self) -> int:
        return int(self.positions.shape[1])

    @property
    def n_particles(self) -> int:
        return int(self.positions.shape[2])

    def snapshot(self, step: int) -> np.ndarray:
        """Reduced snapshot ``(n_samples, n_particles, 2)`` at the given step."""
        return self.positions[step]

    def observer_matrix(self, step: int) -> np.ndarray:
        """Snapshot flattened to ``(n_samples, n_particles * 2)`` for estimators."""
        snap = self.positions[step]
        return snap.reshape(snap.shape[0], -1)


def reduce_ensemble(
    ensemble: EnsembleTrajectory,
    *,
    icp: TypeAwareICP | None = None,
    reference_strategy: str = "medoid",
    steps: np.ndarray | list[int] | None = None,
    domain: "Domain | str | None" = None,
) -> ReducedEnsemble:
    """Symmetry-reduce every (or selected) time step of an ensemble trajectory.

    ``steps`` restricts the reduction to a subset of frames (e.g. every 10th
    step) — the estimation cost is dominated by the per-step alignment, so
    thinning here is the main lever for large experiments.  ``domain`` is the
    geometry the trajectory was simulated on: any periodic axis switches
    every step to the mod-L torus reduction (see :func:`align_snapshot`).
    """
    icp = icp or TypeAwareICP()
    if steps is None:
        step_indices = np.arange(ensemble.n_steps)
    else:
        step_indices = np.asarray(steps, dtype=int)
    reduced = np.empty((step_indices.size, ensemble.n_samples, ensemble.n_particles, 2))
    references = np.empty(step_indices.size, dtype=int)
    rmse = np.empty((step_indices.size, ensemble.n_samples))
    for out_index, step in enumerate(step_indices):
        alignment = align_snapshot(
            ensemble.snapshot(int(step)),
            ensemble.types,
            icp=icp,
            reference_strategy=reference_strategy,
            domain=domain,
        )
        reduced[out_index] = alignment.reduced
        references[out_index] = alignment.reference_index
        rmse[out_index] = alignment.rmse
    return ReducedEnsemble(
        positions=reduced,
        types=ensemble.types.copy(),
        reference_indices=references,
        rmse=rmse,
    )
