"""Type-restricted correspondence search between particle configurations.

Two flavours are used by the alignment stack:

* **Nearest-neighbour** matching (possibly many-to-one) drives the inner ICP
  iterations, mirroring the paper's use of a point-cloud-library ICP with the
  particle type lifted to a scaled third coordinate so that matches never
  cross type boundaries.
* **Assignment** (one-to-one, Hungarian algorithm within each type) produces
  the final permutation that reorders a sample's particles to the reference
  ordering — a true element of the permutation group ``S*_n`` that only
  permutes particles of the same type (§4.2.1).

Both run through :class:`TypeMatcher`, which matches a whole batch of
configurations against one shared target (every sample of an analysed frame
against the reference); the single-configuration functions are its
``m = 1`` case.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from scipy.spatial import cKDTree

__all__ = [
    "TypeMatcher",
    "nearest_neighbor_correspondence",
    "assignment_correspondence",
    "is_type_preserving_permutation",
    "correspondence_distances",
]


def _check_inputs(source: np.ndarray, target: np.ndarray, types: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    source = np.asarray(source, dtype=float)
    target = np.asarray(target, dtype=float)
    types = np.asarray(types, dtype=int)
    if source.ndim != 2 or source.shape[1] != 2:
        raise ValueError("source must have shape (n, 2)")
    if target.shape != source.shape:
        raise ValueError("target must have the same shape as source")
    if types.shape != (source.shape[0],):
        raise ValueError("types must have shape (n,)")
    return source, target, types


def nearest_neighbor_correspondence(
    source: np.ndarray,
    target: np.ndarray,
    types: np.ndarray,
) -> np.ndarray:
    """For every source particle, the index of the nearest target particle of the same type.

    The returned array ``corr`` satisfies ``types[corr[i]] == types[i]`` but is
    generally *not* a permutation (several source particles may share a target).
    """
    source, target, types = _check_inputs(source, target, types)
    return TypeMatcher(target, types).nearest(source[None])[0]


def assignment_correspondence(
    source: np.ndarray,
    target: np.ndarray,
    types: np.ndarray,
) -> np.ndarray:
    """One-to-one, type-preserving correspondence minimising total squared distance.

    Solves a linear assignment problem independently within each type class;
    the result is a permutation of ``range(n)`` with ``types[perm[i]] ==
    types[i]``, i.e. an element of the paper's symmetry subgroup ``S*_n``.
    ``perm[i]`` is the target index matched to source particle ``i``.
    """
    source, target, types = _check_inputs(source, target, types)
    return TypeMatcher(target, types).assign(source[None])[0]


def is_type_preserving_permutation(perm: np.ndarray, types: np.ndarray) -> bool:
    """Check that ``perm`` is a permutation that never maps across type classes."""
    perm = np.asarray(perm, dtype=int)
    types = np.asarray(types, dtype=int)
    if perm.shape != types.shape:
        return False
    if sorted(perm.tolist()) != list(range(perm.size)):
        return False
    return bool(np.all(types[perm] == types))


def correspondence_distances(
    source: np.ndarray,
    target: np.ndarray,
    correspondence: np.ndarray,
) -> np.ndarray:
    """Euclidean distance between each source particle and its matched target."""
    source = np.asarray(source, dtype=float)
    target = np.asarray(target, dtype=float)
    correspondence = np.asarray(correspondence, dtype=int)
    return np.sqrt(squared_norms(source - target[correspondence]))


def squared_norms(delta: np.ndarray) -> np.ndarray:
    """``|delta|²`` over the last (length-2) axis of any ``(..., 2)`` array.

    Always evaluated as one flat ``(k, 2)`` einsum, so an element's value does
    not depend on the batch shape it sits in.
    """
    flat = np.ascontiguousarray(delta).reshape(-1, 2)
    return np.einsum("ij,ij->i", flat, flat).reshape(delta.shape[:-1])


#: Same-type groups up to this size are matched by a dense argmin over all
#: pairs; larger groups query one cKDTree built on the target.  On a 2-CPU
#: Xeon the dense search is ahead up to roughly this size per row.
DENSE_GROUP_LIMIT = 32

#: Row chunks of the dense search and of the assignment cost matrices hold
#: at most this many (source, target) pairs, so a batch of many rows with
#: large types never materialises more than a few MB at once.
PAIR_BUDGET = 1 << 17


class TypeMatcher:
    """Same-type correspondences of a batch of configurations to one target.

    ``target`` is ``(n, 2)``; every query is a batch ``(B, n, 2)`` with the
    same type layout.  The type classes are fixed once: singleton types match
    themselves without any search, small types by a dense type-masked argmin,
    large types through a :class:`scipy.spatial.cKDTree` built once on the
    target and queried by every row.  ``domain`` switches distances to its
    wrapped (minimum-image) metric, and then target and queries must be
    wrapped box coordinates; ``None`` is the free plane.
    """

    def __init__(self, target: np.ndarray, types: np.ndarray, domain=None) -> None:
        self.target = target
        self.types = types
        self.domain = domain
        self.groups = [np.nonzero(types == t)[0] for t in np.unique(types)]
        self._trees: dict[int, cKDTree] = {}

    def displacement(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self.domain is None:
            return a - b
        return self.domain.displacement(a, b)

    def distances(self, current: np.ndarray, correspondence: np.ndarray) -> np.ndarray:
        """``(B, n)`` distance of every particle to its matched target particle."""
        return np.sqrt(squared_norms(self.displacement(current, self.target[correspondence])))

    def _tree(self, group: int) -> cKDTree:
        if group not in self._trees:
            from scipy.spatial import cKDTree

            boxsize = None
            if self.domain is not None and any(self.domain.periodic_axes):
                boxsize = [
                    side if periodic else 0.0
                    for side, periodic in zip(self.domain.extents, self.domain.periodic_axes)
                ]
            self._trees[group] = cKDTree(self.target[self.groups[group]], boxsize=boxsize)
        return self._trees[group]

    def _row_chunks(self, n_rows: int, group_size: int):
        rows = max(1, PAIR_BUDGET // (group_size * group_size))
        for start in range(0, n_rows, rows):
            yield slice(start, start + rows)

    def _nearest_dense(self, block: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """Local index of the nearest of the ``idx`` targets for ``(b, s, 2)`` points."""
        squared = 0.0
        for axis in range(2):
            delta = block[:, :, None, axis] - self.target[idx, axis]
            if self.domain is not None and self.domain.periodic_axes[axis]:
                # Both sides lie in [0, L), so the minimum image is the
                # shorter way round.
                np.abs(delta, out=delta)
                np.minimum(delta, self.domain.extents[axis] - delta, out=delta)
            squared = squared + delta * delta
        return squared.argmin(axis=-1)

    def nearest(self, current: np.ndarray) -> np.ndarray:
        """Nearest same-type target index of every particle of every row."""
        corr = np.empty(current.shape[:2], dtype=int)
        for group, idx in enumerate(self.groups):
            if idx.size == 1:
                corr[:, idx] = idx
            elif idx.size <= DENSE_GROUP_LIMIT:
                for rows in self._row_chunks(current.shape[0], idx.size):
                    corr[rows, idx] = idx[self._nearest_dense(current[rows, idx], idx)]
            else:
                _dist, local = self._tree(group).query(current[:, idx].reshape(-1, 2), k=1)
                corr[:, idx] = idx[local.reshape(-1, idx.size)]
        return corr

    def assign(self, current: np.ndarray) -> np.ndarray:
        """Per-row, per-type optimal one-to-one assignment (Hungarian).

        The cost matrices are the squared displacements of the single-pair
        formula, evaluated for a chunk of rows at a time.
        """
        perm = np.empty(current.shape[:2], dtype=int)
        for idx in self.groups:
            if idx.size == 1:
                perm[:, idx] = idx
                continue
            # Imported only here: all-singleton frames (fig9/fig10) never
            # load scipy.optimize.
            from scipy.optimize import linear_sum_assignment

            target = self.target[idx][None, None, :, :]
            for rows in self._row_chunks(current.shape[0], idx.size):
                costs = squared_norms(self.displacement(current[rows, idx][:, :, None, :], target))
                for row, cost in zip(range(current.shape[0])[rows], costs):
                    local_rows, local_cols = linear_sum_assignment(cost)
                    perm[row, idx[local_rows]] = idx[local_cols]
        return perm
