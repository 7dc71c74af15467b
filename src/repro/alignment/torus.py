"""Torus-aware symmetry reduction: registration on wrapped domains.

On the free plane the shape symmetries are ``ISO+(2) × S*_n`` and the
reduction runs Kabsch/ICP (:mod:`repro.alignment.icp`).  On a bounded domain
with periodic axes the isometry group is different: there are no continuous
rotations, the continuous part is **translation modulo L along each periodic
axis** (a reflecting wall pins its axis — no translational freedom there),
and the discrete part is the per-axis flips every box axis admits
(``x → Lx − x`` is a symmetry of both a periodic seam and a reflecting
wall).  Aligning wrapped ensembles with the free-space Procrustes machinery
is simply wrong — a sample rigidly translated across the seam looks like a
large deformation to Kabsch, and centroids are not even well defined mod L —
so multi-information on the torus would otherwise be measured against raw
wrapped coordinates.

:class:`TorusAligner` mirrors the :class:`~repro.alignment.icp.TypeAwareICP`
construction under the wrapped metric:

1. same-type nearest-neighbour correspondences in the domain's wrapped
   metric (:class:`~repro.alignment.correspondences.TypeMatcher`),
2. the **exact** optimal translation mod L per periodic axis for the matched
   pairs (a sorted sweep over the circular breakpoints of the piecewise
   quadratic wrapped least-squares cost — not the circular-mean
   approximation),
3. iterate to convergence; the best of the admissible flip combinations is
   kept, and the final one-to-one assignment under the wrapped metric gives
   the type-preserving permutation (the ``S*_n`` factor).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from repro.alignment.correspondences import PAIR_BUDGET, TypeMatcher
from repro.alignment.lockstep import BatchAlignment, check_batch, descend, first_best
from repro.particles.domain import Domain

__all__ = ["TorusTransform", "TorusICPResult", "TorusAligner"]


@dataclass(frozen=True)
class TorusTransform:
    """Flip-then-translate isometry of a bounded per-axis box.

    ``flips[axis]`` applies ``x → L − x`` along that axis (a symmetry of both
    periodic and reflecting boundaries); ``translation[axis]`` shifts along
    the axis afterwards (non-zero only on periodic axes, where coordinates
    live mod L).  Applying the transform always re-wraps into the box.
    """

    flips: tuple[bool, bool]
    translation: tuple[float, float]

    def apply(self, positions: np.ndarray, domain: Domain) -> np.ndarray:
        positions = np.asarray(positions, dtype=float)
        out = positions.copy()
        for axis in range(2):
            column = out[..., axis]
            if self.flips[axis]:
                column = domain.extents[axis] - column
            out[..., axis] = column + self.translation[axis]
        return domain.wrap(out)


@dataclass(frozen=True)
class TorusICPResult:
    """Outcome of a wrapped-domain registration (mirrors ``ICPResult``).

    Attributes
    ----------
    transform:
        The fitted :class:`TorusTransform` mapping the source onto the target
        frame.
    aligned:
        The source configuration after applying ``transform`` (wrapped box
        coordinates).
    correspondence:
        Final one-to-one, type-preserving permutation: ``correspondence[i]``
        is the target particle matched to source particle ``i``.
    rmse:
        Root-mean-square wrapped distance between matched pairs.
    n_iterations:
        Iterations of the best flip candidate's descent.
    converged:
        Whether that descent's error improvement dropped below tolerance.
    """

    transform: TorusTransform
    aligned: np.ndarray
    correspondence: np.ndarray
    rmse: float
    n_iterations: int
    converged: bool


def _optimal_axis_shift(residuals: np.ndarray, length: float) -> np.ndarray:
    """Exact ``argmin_t Σ wrap_L(r_i − t)²`` for one periodic axis, per row.

    ``residuals`` is ``(..., n)``; the shift of every leading row is
    returned.  The wrapped least-squares cost is piecewise quadratic in
    ``t``; on each piece the minimiser is the mean of one circular
    re-labelling of the residuals, and the pieces correspond to wrapping the
    ``j`` smallest residuals up by ``L``.  Sorting once and scoring the ``n``
    candidate means under the wrapped metric finds the global minimum
    exactly — unlike the circular-mean estimator, which is only
    asymptotically optimal for concentrated residuals.
    """
    wrapped = np.sort(np.mod(residuals, length), axis=-1)
    n = wrapped.shape[-1]
    if n == 0:
        return np.zeros(wrapped.shape[:-1])
    candidates = (wrapped.sum(axis=-1, keepdims=True) + length * np.arange(n)) / n
    deltas = wrapped[..., None, :] - candidates[..., :, None]
    deltas -= length * np.round(deltas / length)
    flat = deltas.reshape(-1, n)
    costs = np.einsum("ij,ij->i", flat, flat).reshape(candidates.shape)
    best = np.take_along_axis(candidates, costs.argmin(axis=-1)[..., None], axis=-1)
    return np.mod(best[..., 0], length)


@dataclass
class TorusAligner:
    """ICP-style registration under the isometries of a wrapped box.

    Parameters
    ----------
    domain:
        The bounded per-axis domain (at least one periodic axis is what makes
        this aligner necessary; it degrades gracefully to flips-only on a
        purely reflecting box).
    max_iterations:
        Upper bound on correspondence/translation iterations per flip
        candidate.
    tolerance:
        Convergence threshold on the improvement of the mean correspondence
        distance between consecutive iterations.
    use_assignment:
        When True the final correspondence is the one-to-one wrapped-metric
        assignment; otherwise plain nearest neighbours are kept.
    try_flips:
        Search the per-axis flip combinations (``x → L − x``) and keep the
        best.  Every bounded axis — periodic seam or reflecting wall — admits
        its flip; the free-space notion of continuous rotation does not exist
        here, so flips are the entire discrete search space.
    """

    domain: Domain
    max_iterations: int = 50
    tolerance: float = 1e-6
    use_assignment: bool = True
    try_flips: bool = True

    def __post_init__(self) -> None:
        if not self.domain.bounded:
            raise ValueError("TorusAligner needs a bounded domain; use TypeAwareICP on the free plane")
        if self.max_iterations <= 0:
            raise ValueError("max_iterations must be positive")
        if self.tolerance < 0:
            raise ValueError("tolerance must be non-negative")

    def align(
        self, source: np.ndarray, target: np.ndarray, types: np.ndarray
    ) -> TorusICPResult:
        """Register ``source`` onto ``target`` (both ``(n, 2)``, same type layout).

        This is the ``m = 1`` case of :meth:`align_batch`.
        """
        source = np.asarray(source, dtype=float)
        target = np.asarray(target, dtype=float)
        if source.shape != target.shape or source.ndim != 2 or source.shape[1] != 2:
            raise ValueError("source and target must both have shape (n, 2)")
        batch = self.align_batch(source[None], target, types)
        translation, flips = batch.params
        return TorusICPResult(
            transform=TorusTransform(
                flips=(bool(flips[0, 0]), bool(flips[0, 1])),
                translation=(float(translation[0, 0]), float(translation[0, 1])),
            ),
            aligned=batch.aligned[0],
            correspondence=batch.correspondence[0],
            rmse=float(batch.rmse[0]),
            n_iterations=int(batch.n_iterations[0]),
            converged=bool(batch.converged[0]),
        )

    def align_batch(
        self, sources: np.ndarray, target: np.ndarray, types: np.ndarray
    ) -> BatchAlignment:
        """Register every ``sources[b]`` (``(m, n, 2)``) onto one ``(n, 2)`` target.

        Every ``(sample, flip)`` row descends in lock step; each sample keeps
        the first flip combination with a strictly smaller residual.  Row
        ``b`` is bit-identical to ``align(sources[b], target, types)``;
        ``params`` holds the translations ``(m, 2)`` and flips ``(m, 2)``.
        """
        sources, target, types = check_batch(sources, target, types)
        domain = self.domain
        sources = domain.wrap(sources)
        matcher = TypeMatcher(domain.wrap(target), types, domain)
        flip_space = (
            list(itertools.product((False, True), repeat=2)) if self.try_flips else [(False, False)]
        )
        m, n = sources.shape[:2]
        flipped = np.stack(
            [TorusTransform(flips=flips, translation=(0.0, 0.0)).apply(sources, domain) for flips in flip_space],
            axis=1,
        ).reshape(m * len(flip_space), n, 2)
        flips = np.tile(np.array(flip_space, dtype=bool), (m, 1))

        def place(rows: np.ndarray, params: tuple[np.ndarray, ...]) -> np.ndarray:
            return domain.wrap(flipped[rows] + params[0][:, None, :])

        def refit(params: tuple[np.ndarray, ...], current: np.ndarray, matched: np.ndarray):
            # Optimal translation update per periodic axis for the matched
            # pairs; reflecting axes have no translational freedom.
            translation = params[0].copy()
            residuals = domain.displacement(matched, current)
            for axis in range(2):
                if domain.periodic_axes[axis]:
                    translation[:, axis] += _optimal_axis_shift(residuals[..., axis], domain.extents[axis])
            return translation, params[1]

        result = descend(
            matcher,
            (self._initial_translations(flipped, matcher), flips),
            place,
            refit,
            max_iterations=self.max_iterations,
            tolerance=self.tolerance,
            use_assignment=self.use_assignment,
        )
        choice = first_best(result.rmse.reshape(m, len(flip_space)))
        return result.take(np.arange(m) * len(flip_space) + choice)

    def _initial_translations(self, flipped: np.ndarray, matcher: TypeMatcher) -> np.ndarray:
        """Global translation initialisation by anchor matching, per row.

        Correspondence/translation descent is a local search and stalls when
        the initial shift exceeds the typical particle spacing (the torus
        analogue of ICP's rotation local minima, which ``TypeAwareICP``
        handles with ``global_init_angles``).  Translation is the *only*
        continuous degree of freedom here, so a complete candidate set
        exists: anchor one source particle of the rarest type and consider
        the translation carrying it onto each same-type target particle.
        For an exactly rigid shift the true translation is always among the
        candidates; for noisy data the best-scoring candidate is a strong
        basin to descend from.  Reflecting axes contribute no freedom and
        stay at zero.  Each row keeps its first strictly best-scoring
        candidate (the zero shift first); candidates are scored in row
        chunks of bounded size.
        """
        domain = self.domain
        n_rows, n = flipped.shape[:2]
        if not any(domain.periodic_axes):
            return np.zeros((n_rows, 2))
        unique, counts = np.unique(matcher.types, return_counts=True)
        idx = np.nonzero(matcher.types == unique[int(counts.argmin())])[0]
        offsets = domain.displacement(matcher.target[idx][None], flipped[:, idx[0]][:, None, :])
        candidates = np.zeros((n_rows, idx.size + 1, 2))
        for axis in range(2):
            if domain.periodic_axes[axis]:
                candidates[:, 1:, axis] = offsets[:, :, axis]
        choice = np.empty(n_rows, dtype=int)
        chunk = max(1, PAIR_BUDGET // (candidates.shape[1] * n))
        for start in range(0, n_rows, chunk):
            rows = slice(start, start + chunk)
            moved = domain.wrap(flipped[rows, None] + candidates[rows, :, None, :]).reshape(-1, n, 2)
            scores = matcher.distances(moved, matcher.nearest(moved)).mean(axis=-1)
            # A NaN score never wins, not even as the first candidate.
            scores = np.where(np.isnan(scores), np.inf, scores)
            choice[rows] = first_best(scores.reshape(-1, candidates.shape[1]))
        return candidates[np.arange(n_rows), choice]
