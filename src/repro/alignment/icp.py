"""Type-aware iterative closest point (ICP) registration.

The paper aligns all ensemble samples of a given time step to a common frame
with an ICP whose input is the particle configuration lifted to 3-D: the third
coordinate is the particle type scaled by a factor "a magnitude larger than
the diameter of the collective", so nearest-neighbour correspondences never
cross type boundaries (§5.2).  The rigid update itself acts only in the plane
— the transformation group being factored out is ``ISO+(2)``.

This implementation reproduces that construction with NumPy/SciPy:

1. find same-type nearest-neighbour correspondences (exactly equivalent to
   nearest neighbours in the lifted space once the type scale dominates),
2. solve the planar Kabsch problem for the matched pairs,
3. iterate until the correspondence set and error stabilise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# The single-pair correspondence and Kabsch entry points are re-exported here
# (their ``m = 1`` forms) so callers that reach them through this module keep
# working; the engine itself runs the batched forms.
from repro.alignment.correspondences import (  # noqa: F401
    TypeMatcher,
    assignment_correspondence,
    nearest_neighbor_correspondence,
)
from repro.alignment.lockstep import BatchAlignment, check_batch, descend, first_best
from repro.alignment.procrustes import RigidTransform, kabsch_2d, kabsch_2d_stack  # noqa: F401

__all__ = ["ICPResult", "TypeAwareICP", "lift_with_types"]


def lift_with_types(positions: np.ndarray, types: np.ndarray, type_scale: float) -> np.ndarray:
    """Lift a 2-D configuration to 3-D with the type as a scaled third coordinate.

    This is the representation the paper feeds to the point-cloud ICP.  It is
    exposed mainly for testing the equivalence with the per-type
    nearest-neighbour search used internally.
    """
    positions = np.asarray(positions, dtype=float)
    types = np.asarray(types, dtype=float)
    if positions.ndim != 2 or positions.shape[1] != 2:
        raise ValueError("positions must have shape (n, 2)")
    if types.shape != (positions.shape[0],):
        raise ValueError("types must have shape (n,)")
    return np.column_stack([positions, types * float(type_scale)])


@dataclass(frozen=True)
class ICPResult:
    """Outcome of an ICP registration.

    Attributes
    ----------
    transform:
        The fitted direct isometry mapping the source onto the target frame.
    aligned:
        The source configuration after applying ``transform``.
    correspondence:
        Final one-to-one, type-preserving permutation: ``correspondence[i]``
        is the target particle matched to source particle ``i``.
    rmse:
        Root-mean-square distance between matched pairs after alignment.
    n_iterations:
        Number of ICP iterations performed.
    converged:
        Whether the error improvement dropped below the tolerance before the
        iteration cap.
    """

    transform: RigidTransform
    aligned: np.ndarray
    correspondence: np.ndarray
    rmse: float
    n_iterations: int
    converged: bool


@dataclass
class TypeAwareICP:
    """Iterative closest point restricted to same-type correspondences.

    Parameters
    ----------
    max_iterations:
        Upper bound on ICP iterations.
    tolerance:
        Convergence threshold on the improvement of the RMS correspondence
        distance between consecutive iterations.
    use_assignment:
        When True the final correspondence (and optionally every iteration,
        see ``assignment_every_step``) is a one-to-one assignment; otherwise
        plain nearest neighbours are used throughout and only the final
        reordering step solves the assignment problem.
    assignment_every_step:
        Use the one-to-one assignment inside the ICP loop as well (slower,
        occasionally more robust for small collectives).
    global_init_angles:
        ICP is a local optimiser; when the source is rotated far from the
        target it can converge to a poor local minimum.  If the
        identity-initialised registration does not reach
        ``good_enough_rmse`` × (target radius of gyration), the search is
        restarted from this many evenly spaced initial rotations and the best
        result is kept.  Set to 0 to disable the multi-start search.
    good_enough_rmse:
        Relative RMSE below which the identity-initialised result is accepted
        without trying further initial rotations.
    """

    max_iterations: int = 50
    tolerance: float = 1e-6
    use_assignment: bool = True
    assignment_every_step: bool = False
    global_init_angles: int = 4
    good_enough_rmse: float = 0.1

    def __post_init__(self) -> None:
        if self.max_iterations <= 0:
            raise ValueError("max_iterations must be positive")
        if self.tolerance < 0:
            raise ValueError("tolerance must be non-negative")
        if self.global_init_angles < 0:
            raise ValueError("global_init_angles must be non-negative")
        if self.good_enough_rmse < 0:
            raise ValueError("good_enough_rmse must be non-negative")

    def align(
        self,
        source: np.ndarray,
        target: np.ndarray,
        types: np.ndarray,
        *,
        initial_transform: RigidTransform | None = None,
    ) -> ICPResult:
        """Register ``source`` onto ``target`` (both ``(n, 2)``, same type layout).

        When no ``initial_transform`` is given and the identity-initialised
        fit is poor, additional registrations are started from a grid of
        initial rotations (see ``global_init_angles``) and the best is kept.
        This is the ``m = 1`` case of :meth:`align_batch`.
        """
        source = np.asarray(source, dtype=float)
        target = np.asarray(target, dtype=float)
        if source.shape != target.shape or source.ndim != 2 or source.shape[1] != 2:
            raise ValueError("source and target must both have shape (n, 2)")
        batch = self.align_batch(source[None], target, types, initial_transform=initial_transform)
        rotation, translation = batch.params
        return ICPResult(
            transform=RigidTransform(rotation=rotation[0], translation=translation[0]),
            aligned=batch.aligned[0],
            correspondence=batch.correspondence[0],
            rmse=float(batch.rmse[0]),
            n_iterations=int(batch.n_iterations[0]),
            converged=bool(batch.converged[0]),
        )

    def align_batch(
        self,
        sources: np.ndarray,
        target: np.ndarray,
        types: np.ndarray,
        *,
        initial_transform: RigidTransform | None = None,
    ) -> BatchAlignment:
        """Register every ``sources[b]`` (``(m, n, 2)``) onto one ``(n, 2)`` target.

        All samples descend in lock step from the identity; only the samples
        whose fit misses ``good_enough_rmse`` are restarted, all of their
        ``global_init_angles - 1`` rotated starts in one second batch, and
        each keeps the first start with a strictly smaller residual (angle
        order).  Row ``b`` of the result is bit-identical to
        ``align(sources[b], target, types)``; ``params`` holds the fitted
        rotations ``(m, 2, 2)`` and translations ``(m, 2)``.
        """
        sources, target, types = check_batch(sources, target, types)
        matcher = TypeMatcher(target, types)
        m = sources.shape[0]
        if initial_transform is not None:
            start = (
                np.broadcast_to(initial_transform.rotation, (m, 2, 2)),
                np.broadcast_to(initial_transform.translation, (m, 2)),
            )
            return self._descend(matcher, sources, start)

        best = self._descend(matcher, sources, (np.broadcast_to(np.eye(2), (m, 2, 2)), np.zeros((m, 2))))
        centered = target - target.mean(axis=0)
        scale = float(np.sqrt(np.einsum("ij,ij->i", centered, centered).mean()))
        retry = np.flatnonzero(~(best.rmse <= self.good_enough_rmse * max(scale, 1e-12)))
        angles = np.linspace(0.0, 2.0 * np.pi, self.global_init_angles, endpoint=False)[1:]
        if retry.size == 0 or angles.size == 0:
            return best
        rotations = np.stack([RigidTransform.from_angle(float(angle)).rotation for angle in angles])
        source_mean = sources[retry].mean(axis=1)
        translations = target.mean(axis=0) - np.matmul(rotations, source_mean[:, None, :, None])[..., 0]
        restarts = self._descend(
            matcher,
            sources[np.repeat(retry, angles.size)],
            (np.tile(rotations, (retry.size, 1, 1)), translations.reshape(-1, 2)),
        )
        scores = np.column_stack([best.rmse[retry], restarts.rmse.reshape(retry.size, angles.size)])
        choice = first_best(scores)
        improved = np.flatnonzero(choice > 0)
        picked = improved * angles.size + choice[improved] - 1
        return best.replace_rows(retry[improved], restarts.take(picked))

    def _descend(
        self, matcher: TypeMatcher, sources: np.ndarray, start: tuple[np.ndarray, np.ndarray]
    ) -> BatchAlignment:
        """Lock-step ICP descents of every row of ``sources`` from its start transform."""
        uniform = np.ones(sources.shape[1])
        weights = uniform / uniform.sum()

        def place(rows: np.ndarray, params: tuple[np.ndarray, ...]) -> np.ndarray:
            rotation, translation = params
            return np.matmul(sources[rows], rotation.swapaxes(-1, -2)) + translation[:, None, :]

        def refit(params: tuple[np.ndarray, ...], current: np.ndarray, matched: np.ndarray):
            rotation, translation = params
            step_rotation, step_translation = kabsch_2d_stack(current, matched, weights)
            return (
                np.matmul(step_rotation, rotation),
                np.matmul(step_rotation, translation[:, :, None])[:, :, 0] + step_translation,
            )

        return descend(
            matcher,
            start,
            place,
            refit,
            max_iterations=self.max_iterations,
            tolerance=self.tolerance,
            assignment_every_step=self.assignment_every_step,
            use_assignment=self.use_assignment,
        )
