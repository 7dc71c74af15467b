"""Rigid (rotation + translation) alignment of 2-D point sets.

This is the inner solver of the ICP loop: given two point sets that are
already in correspondence, find the direct isometry (element of ``ISO+(2)``,
i.e. rotation and translation but no reflection) that minimises the summed
squared distance.  The optimal rotation follows from the Kabsch/Procrustes
construction via the SVD of the 2×2 cross-covariance matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["RigidTransform", "kabsch_2d", "kabsch_2d_stack", "apply_rigid", "alignment_error"]


@dataclass(frozen=True)
class RigidTransform:
    """A direct planar isometry ``x ↦ R x + t`` with ``det(R) = +1``."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self) -> None:
        rotation = np.asarray(self.rotation, dtype=float)
        translation = np.asarray(self.translation, dtype=float)
        if rotation.shape != (2, 2):
            raise ValueError("rotation must be a 2x2 matrix")
        if translation.shape != (2,):
            raise ValueError("translation must be a length-2 vector")
        object.__setattr__(self, "rotation", rotation)
        object.__setattr__(self, "translation", translation)

    @property
    def angle(self) -> float:
        """Rotation angle in radians, in ``(-pi, pi]``."""
        return float(np.arctan2(self.rotation[1, 0], self.rotation[0, 0]))

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Apply the transform to points of shape ``(..., 2)``."""
        points = np.asarray(points, dtype=float)
        return points @ self.rotation.T + self.translation

    def compose(self, other: "RigidTransform") -> "RigidTransform":
        """Return the transform equivalent to applying ``other`` first, then ``self``."""
        return RigidTransform(
            rotation=self.rotation @ other.rotation,
            translation=self.rotation @ other.translation + self.translation,
        )

    def inverse(self) -> "RigidTransform":
        """The inverse isometry."""
        rot_inv = self.rotation.T
        return RigidTransform(rotation=rot_inv, translation=-rot_inv @ self.translation)

    @classmethod
    def identity(cls) -> "RigidTransform":
        """The identity transform."""
        return cls(rotation=np.eye(2), translation=np.zeros(2))

    @classmethod
    def from_angle(cls, angle: float, translation: np.ndarray | tuple[float, float] = (0.0, 0.0)) -> "RigidTransform":
        """Build from a rotation angle (radians) and a translation vector."""
        c, s = np.cos(angle), np.sin(angle)
        return cls(rotation=np.array([[c, -s], [s, c]]), translation=np.asarray(translation, dtype=float))


def kabsch_2d(
    source: np.ndarray,
    target: np.ndarray,
    weights: np.ndarray | None = None,
) -> RigidTransform:
    """Least-squares rigid transform mapping ``source`` onto ``target``.

    Both inputs have shape ``(n, 2)`` and are assumed to be in one-to-one
    correspondence (row ``i`` of source matches row ``i`` of target).
    ``weights`` optionally down-weights unreliable correspondences.

    The returned rotation is always proper (``det = +1``); reflections are
    excluded because they are not shape-preserving symmetries of the particle
    system (the paper factors out ``ISO+(2)``, not ``ISO(2)``).
    """
    source = np.asarray(source, dtype=float)
    target = np.asarray(target, dtype=float)
    if source.shape != target.shape or source.ndim != 2 or source.shape[1] != 2:
        raise ValueError("source and target must both have shape (n, 2)")
    if source.shape[0] == 0:
        return RigidTransform.identity()
    if weights is None:
        weights = np.ones(source.shape[0])
    else:
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (source.shape[0],):
            raise ValueError("weights must have shape (n,)")
        if np.any(weights < 0):
            raise ValueError("weights must be non-negative")
    total = weights.sum()
    if total <= 0:
        return RigidTransform.identity()
    rotation, translation = kabsch_2d_stack(source[None], target[None], weights / total)
    return RigidTransform(rotation=rotation[0], translation=translation[0])


def kabsch_2d_stack(
    source: np.ndarray, target: np.ndarray, w: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise Kabsch for stacks ``(B, n, 2)`` with shared normalised weights ``w``.

    Returns rotations ``(B, 2, 2)`` and translations ``(B, 2)``.  Every
    product is an ``np.matmul`` on ``(B, …)`` stacks with the operand layout
    of the single-pair formula, and ``svd``/``det`` run on ``(B, 2, 2)``
    stacks, so each row reaches the same BLAS/LAPACK call as one
    :func:`kabsch_2d` and the stack is bit-identical to a loop over rows.
    """
    source_mean = np.matmul(w, source)
    target_mean = np.matmul(w, target)
    source_centered = source - source_mean[:, None, :]
    target_centered = target - target_mean[:, None, :]

    cross = np.matmul((source_centered * w[:, None]).swapaxes(-1, -2), target_centered)
    u, _singular, vt = np.linalg.svd(cross)
    v, ut = vt.swapaxes(-1, -2), u.swapaxes(-1, -2)
    det = np.linalg.det(np.matmul(v, ut))
    correction = np.zeros_like(cross)
    correction[:, 0, 0] = 1.0
    correction[:, 1, 1] = np.where(det != 0, np.sign(det), 1.0)
    rotation = np.matmul(np.matmul(v, correction), ut)
    translation = target_mean - np.matmul(rotation, source_mean[:, :, None])[:, :, 0]
    return rotation, translation


def apply_rigid(transform: RigidTransform, points: np.ndarray) -> np.ndarray:
    """Functional form of :meth:`RigidTransform.apply`."""
    return transform.apply(points)


def alignment_error(source: np.ndarray, target: np.ndarray) -> float:
    """Root-mean-square distance between corresponding points."""
    source = np.asarray(source, dtype=float)
    target = np.asarray(target, dtype=float)
    if source.shape != target.shape:
        raise ValueError("source and target must have the same shape")
    if source.size == 0:
        return 0.0
    delta = source - target
    return float(np.sqrt(np.einsum("...k,...k->...", delta, delta).mean()))
