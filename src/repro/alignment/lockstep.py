"""The lock-step descent engine shared by free-plane ICP and the torus aligner.

Both registrations are the same iteration: match every particle to its
nearest same-type target particle, refit the transform to the matched pairs,
re-place the source, and stop once the mean matched distance changes by less
than a tolerance; a final (usually one-to-one) correspondence then gives the
residual.  :func:`descend` runs that iteration for a whole batch of rows at
once — every ``(sample, start)`` pair of an analysed frame — against one
shared target.  Rows carry their own transform parameters and stop
individually (a per-row convergence mask), and every arithmetic step is
row-wise with the operand layout of the single-row formula, so each row's
result is bit-identical to a descent run on its own.

What differs between geometries is only how a row's parameters place the
source (``place``) and how they are refitted to matched pairs (``refit``);
distances and correspondences come from the
:class:`~repro.alignment.correspondences.TypeMatcher`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.alignment.correspondences import TypeMatcher

__all__ = ["BatchAlignment", "check_batch", "descend", "first_best"]

Params = tuple[np.ndarray, ...]


@dataclass(frozen=True)
class BatchAlignment:
    """Per-row outcome of a batched registration (leading axis: rows).

    Attributes
    ----------
    params:
        The fitted transform parameters of every row, in the layout of the
        aligner that produced them (rotations and translations for ICP,
        translations and flips for the torus aligner).
    aligned:
        ``(B, n, 2)`` sources after their fitted transforms.
    correspondence:
        ``(B, n)`` final type-preserving correspondence of every row.
    rmse:
        ``(B,)`` root-mean-square matched distance after alignment.
    n_iterations / converged:
        Iterations run and whether the tolerance was met, per row.
    """

    params: Params
    aligned: np.ndarray
    correspondence: np.ndarray
    rmse: np.ndarray
    n_iterations: np.ndarray
    converged: np.ndarray

    def take(self, rows: np.ndarray) -> "BatchAlignment":
        """The sub-batch of the given rows, in that order."""
        return BatchAlignment(
            params=tuple(p[rows] for p in self.params),
            aligned=self.aligned[rows],
            correspondence=self.correspondence[rows],
            rmse=self.rmse[rows],
            n_iterations=self.n_iterations[rows],
            converged=self.converged[rows],
        )

    def replace_rows(self, rows: np.ndarray, other: "BatchAlignment") -> "BatchAlignment":
        """A copy with ``rows`` taken from ``other`` (one ``other`` row per entry)."""

        def put(mine: np.ndarray, theirs: np.ndarray) -> np.ndarray:
            mine = mine.copy()
            mine[rows] = theirs
            return mine

        return BatchAlignment(
            params=tuple(put(a, b) for a, b in zip(self.params, other.params)),
            aligned=put(self.aligned, other.aligned),
            correspondence=put(self.correspondence, other.correspondence),
            rmse=put(self.rmse, other.rmse),
            n_iterations=put(self.n_iterations, other.n_iterations),
            converged=put(self.converged, other.converged),
        )


def check_batch(
    sources: np.ndarray, target: np.ndarray, types: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Validate and convert the inputs of an ``align_batch`` call."""
    sources = np.asarray(sources, dtype=float)
    target = np.asarray(target, dtype=float)
    types = np.asarray(types, dtype=int)
    if sources.ndim != 3 or sources.shape[1:] != target.shape or target.shape[-1] != 2:
        raise ValueError("sources must have shape (m, n, 2) and target shape (n, 2)")
    if types.shape != (target.shape[0],):
        raise ValueError("types must have shape (n,)")
    return sources, target, types


def first_best(scores: np.ndarray) -> np.ndarray:
    """Per row, the column a sequential "keep if strictly better" scan keeps.

    Column 0 is always the starting choice; a later column replaces the
    current one only when its score is strictly smaller, so ties (and NaNs)
    resolve to the earliest column, as in a candidate-by-candidate scan.
    """
    choice = np.zeros(scores.shape[0], dtype=int)
    best = scores[:, 0].copy()
    for column in range(1, scores.shape[1]):
        better = scores[:, column] < best
        choice[better] = column
        best[better] = scores[better, column]
    return choice


def descend(
    matcher: TypeMatcher,
    params: Params,
    place: Callable[[np.ndarray, Params], np.ndarray],
    refit: Callable[[Params, np.ndarray, np.ndarray], Params],
    *,
    max_iterations: int,
    tolerance: float,
    assignment_every_step: bool = False,
    use_assignment: bool = True,
) -> BatchAlignment:
    """Run every row's correspondence/refit descent in lock step.

    ``place(rows, params)`` returns the ``(len(rows), n, 2)`` placed sources
    of the given rows under their parameters; ``refit(params, current,
    matched)`` returns the parameters refitted to the matched pairs.  Rows
    whose mean matched distance moves by less than ``tolerance`` leave the
    batch; the rest keep iterating up to ``max_iterations``.
    """
    n_rows = params[0].shape[0]
    params = tuple(np.array(p) for p in params)
    current = place(np.arange(n_rows), params)
    previous = np.full(n_rows, np.inf)
    n_iterations = np.zeros(n_rows, dtype=int)
    converged = np.zeros(n_rows, dtype=bool)
    active = np.arange(n_rows)
    for iteration in range(1, max_iterations + 1):
        if active.size == 0:
            break
        moving = current[active]
        corr = matcher.assign(moving) if assignment_every_step else matcher.nearest(moving)
        stepped = refit(tuple(p[active] for p in params), moving, matcher.target[corr])
        placed = place(active, stepped)
        error = matcher.distances(placed, corr).mean(axis=-1)
        for p, s in zip(params, stepped):
            p[active] = s
        current[active] = placed
        n_iterations[active] = iteration
        done = np.abs(previous[active] - error) < tolerance
        converged[active[done]] = True
        previous[active] = error
        active = active[~done]
    final = matcher.assign(current) if use_assignment else matcher.nearest(current)
    rmse = np.sqrt((matcher.distances(current, final) ** 2).mean(axis=-1))
    return BatchAlignment(params, current, final, rmse, n_iterations, converged)
