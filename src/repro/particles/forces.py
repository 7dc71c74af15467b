"""Force-scaling functions and vectorised drift evaluation.

The equation of motion (Harder & Polani 2012, Eq. 6) is the overdamped SDE

.. math::

    \\dot z_i = \\sum_{j \\in N_{r_c}(i)} -F_{\\alpha\\beta}(\\lVert\\Delta z_{ij}\\rVert_2)\\,\\Delta z_{ij} + w

with ``Δz_ij = z_i - z_j``, additive white Gaussian noise ``w`` and a hard
interaction cut-off at radius ``r_c``.  Two force-scaling functions are used:

* ``F1`` (Eq. 7): ``k (1 - r / x)`` — strong long-range attraction, diverging
  short-range repulsion, preferred distance exactly ``r``.
* ``F2`` (Eq. 8): ``k (σ^{-2} e^{-x²/(2σ)} - e^{-x²/(2τ)})`` — Gaussian
  attraction/repulsion pair with finite range.

Because the velocity contribution is ``-F(x) Δz`` (the displacement vector is
*not* normalised), positive ``F`` pulls particles together and negative ``F``
pushes them apart, with a magnitude that also grows with distance.

Two drift kernels operate on these scalings, both over ensemble snapshots
``(m, n, 2)``: the dense all-pairs :class:`DenseDriftKernel` (one-shot as
:func:`drift_batch`; it computes on per-axis ``(m, n, n)`` arrays in a
workspace it reuses across calls) and a sparse neighbour-pair segment-sum
(:mod:`repro.particles.engine`).  Both sum ``Σ_j`` sequentially in ``j``.  A single
configuration is the ``m = 1`` case — :func:`drift_single` is a thin
wrapper over :func:`drift_batch`.  Which kernel runs is selected per
experiment via ``SimulationConfig.engine`` (``"dense"``/``"sparse"``/
``"auto"`` — adaptive by default, re-resolved mid-run as the collective
contracts); both agree bit-for-bit (see the bit-compatibility contract and
the "Choosing an engine/backend" guide in :mod:`repro.particles.engine`).

Both kernels take an optional :class:`~repro.particles.domain.Domain`: the
displacement ``Δz_ij`` goes through ``domain.displacement()``, which applies
the minimum image *per periodic axis* (every axis on a torus, only ``x`` in
a channel, with per-axis lengths on anisotropic boxes) and plain
subtraction on the free plane
and in a reflecting box.
"""

from __future__ import annotations

import abc
from typing import Mapping

import numpy as np

from repro.particles.domain import Domain, get_domain
from repro.particles.types import InteractionParams

__all__ = [
    "ForceScaling",
    "LinearAdhesionForce",
    "GaussianAdhesionForce",
    "get_force_scaling",
    "FORCE_SCALINGS",
    "pairwise_distance_matrix",
    "pair_interaction_weights",
    "drift_single",
    "drift_batch",
    "DenseDriftKernel",
    "net_force_norms",
    "preferred_distance_curve",
]

#: Numerical floor on pairwise distances to keep ``F1``'s ``r/x`` term finite
#: when two particles coincide (measure-zero event but reachable numerically).
_DISTANCE_FLOOR = 1e-9


class ForceScaling(abc.ABC):
    """Scalar force-scaling function ``F_{αβ}(x)`` evaluated element-wise."""

    #: Short identifier used in configs ("F1", "F2").
    name: str = ""

    def scale(
        self,
        distance: np.ndarray,
        k: np.ndarray,
        r: np.ndarray,
        sigma: np.ndarray,
        tau: np.ndarray,
    ) -> np.ndarray:
        """Evaluate the scaling on broadcastable arrays of distances/parameters.

        The built-in scalings implement only :meth:`negated_scale_into`, and
        this is its exact negation; a custom scaling overrides this instead.
        """
        return np.negative(_negated_scale(self, distance, k, r, sigma, tau))

    def __call__(self, distance, k, r, sigma, tau) -> np.ndarray:
        return self.scale(
            np.asarray(distance, dtype=float),
            np.asarray(k, dtype=float),
            np.asarray(r, dtype=float),
            np.asarray(sigma, dtype=float),
            np.asarray(tau, dtype=float),
        )

    def preferred_distance(self, k: float, r: float, sigma: float, tau: float) -> float:
        """Distance at which the scaling changes sign (zero crossing).

        For ``F1`` this is exactly ``r``; for ``F2`` it is found numerically
        on a fine grid (the analytic zero of Eq. 8 is
        ``x* = sqrt(2 ln(σ²) στ/(σ - τ))`` only when it exists).
        """
        xs = np.linspace(1e-3, 50.0, 20000)
        vals = self(xs, k, r, sigma, tau)
        sign_change = np.nonzero(np.diff(np.sign(vals)) != 0)[0]
        if sign_change.size == 0:
            return float("nan")
        i = sign_change[0]
        # Linear interpolation of the crossing.
        x0, x1 = xs[i], xs[i + 1]
        y0, y1 = vals[i], vals[i + 1]
        if y1 == y0:
            return float(x0)
        return float(x0 - y0 * (x1 - x0) / (y1 - y0))

    def kernel_constants(
        self, k: np.ndarray, r: np.ndarray, sigma: np.ndarray, tau: np.ndarray
    ) -> tuple[np.ndarray, ...]:
        """Per-pair constants :meth:`negated_scale_into` consumes.

        Computed once per dense kernel; the default passes the four
        parameter matrices through unchanged.
        """
        return (k, r, sigma, tau)

    def negated_scale_into(
        self,
        distance: np.ndarray,
        constants: tuple[np.ndarray, ...],
        out: np.ndarray,
        scratch: np.ndarray,
    ) -> None:
        """Write the drift weight ``-F(distance)`` into ``out``.

        The one body of a built-in force law, shared by both drift kernels
        and :meth:`scale`; ``constants`` come from :meth:`kernel_constants`.
        ``scratch`` is a buffer shaped like ``out`` that may *be*
        ``distance``: callers must not read ``distance`` afterwards.  This
        default is the allocating fallback for a custom scaling that
        overrides :meth:`scale` only.
        """
        if type(self).scale is ForceScaling.scale:
            raise NotImplementedError(
                f"{type(self).__name__} must override scale or negated_scale_into"
            )
        np.negative(self.scale(distance, *constants), out=out)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"{type(self).__name__}()"


class LinearAdhesionForce(ForceScaling):
    """``F1(x) = k (1 - r/x)`` — Eq. 7.

    Attraction saturates at ``k`` for large distances (until the cut-off) and
    the repulsion diverges as ``x → 0``, so the preferred distance ``r`` is a
    stiff minimum.
    """

    name = "F1"

    def kernel_constants(self, k, r, sigma, tau):
        return (k, r)

    def negated_scale_into(self, distance, constants, out, scratch) -> None:
        k, r = constants
        np.maximum(distance, _DISTANCE_FLOOR, out=out)
        np.divide(r, out, out=out)
        np.subtract(1.0, out, out=out)
        np.multiply(k, out, out=out)
        np.negative(out, out=out)


class GaussianAdhesionForce(ForceScaling):
    """``F2(x) = k (σ^{-2} exp(-x²/(2σ)) - exp(-x²/(2τ)))`` — Eq. 8.

    Both terms decay with distance, so interactions are effectively local even
    without a cut-off; the paper notes this makes ``F2`` collectives behave
    like locally-interacting systems.
    """

    name = "F2"

    def kernel_constants(self, k, r, sigma, tau):
        return (k, 2.0 * sigma, sigma * sigma, 2.0 * tau)

    def negated_scale_into(self, distance, constants, out, scratch) -> None:
        k, two_sigma, sigma_sq, two_tau = constants
        np.multiply(distance, distance, out=out)
        np.negative(out, out=out)  # -x², shared by both exponents
        np.divide(out, two_tau, out=scratch)
        np.exp(scratch, out=scratch)  # repulsion
        np.divide(out, two_sigma, out=out)
        np.exp(out, out=out)
        np.divide(out, sigma_sq, out=out)  # attraction
        np.subtract(out, scratch, out=out)
        np.multiply(k, out, out=out)
        np.negative(out, out=out)


FORCE_SCALINGS: Mapping[str, ForceScaling] = {
    "F1": LinearAdhesionForce(),
    "F2": GaussianAdhesionForce(),
}


def _negated_scale(
    scaling: ForceScaling,
    distance: np.ndarray,
    k: np.ndarray,
    r: np.ndarray,
    sigma: np.ndarray,
    tau: np.ndarray,
) -> np.ndarray:
    """``-scaling.scale(...)`` on broadcastable arrays, into fresh buffers."""
    distance = np.asarray(distance, dtype=float)
    shapes = (np.shape(a) for a in (k, r, sigma, tau))
    out = np.empty(np.broadcast_shapes(distance.shape, *shapes))
    scaling.negated_scale_into(
        distance, scaling.kernel_constants(k, r, sigma, tau), out, np.empty_like(out)
    )
    return out


def get_force_scaling(name: str | ForceScaling) -> ForceScaling:
    """Resolve a force scaling by name (``"F1"``/``"F2"``) or pass through an instance."""
    if isinstance(name, ForceScaling):
        return name
    key = str(name).upper()
    if key not in FORCE_SCALINGS:
        raise KeyError(f"unknown force scaling {name!r}; available: {sorted(FORCE_SCALINGS)}")
    return FORCE_SCALINGS[key]


def preferred_distance_curve(
    scaling: ForceScaling | str,
    params: InteractionParams,
) -> np.ndarray:
    """Preferred (zero-force) distance for every type pair, shape ``(l, l)``."""
    scaling = get_force_scaling(scaling)
    l = params.n_types
    out = np.empty((l, l))
    for a in range(l):
        for b in range(l):
            out[a, b] = scaling.preferred_distance(
                params.k[a, b], params.r[a, b], params.sigma[a, b], params.tau[a, b]
            )
    return out


# ---------------------------------------------------------------------- #
# drift evaluation
# ---------------------------------------------------------------------- #
def pairwise_distance_matrix(
    positions: np.ndarray, domain: Domain | str | None = None
) -> np.ndarray:
    """Pairwise distance matrix for positions of shape ``(..., n, 2)``.

    Works for a single configuration ``(n, 2)`` or a batch ``(m, n, 2)``;
    the result has shape ``(..., n, n)``.  Distances follow the domain's
    displacement convention (minimum-image on a periodic domain; plain
    Euclidean by default).
    """
    positions = np.asarray(positions, dtype=float)
    domain = get_domain(domain)
    delta = domain.displacement(positions[..., :, None, :], positions[..., None, :, :])
    return np.sqrt(np.einsum("...ijk,...ijk->...ij", delta, delta))


def pair_interaction_weights(
    distance: np.ndarray,
    types_i: np.ndarray,
    types_j: np.ndarray,
    params: InteractionParams,
    scaling: ForceScaling | str,
    cutoff: float | None = None,
) -> np.ndarray:
    """Scalar drift weight ``-F_{αβ}(d)`` for explicit particle pairs.

    ``types_i``/``types_j`` are the type indices of the two ends of each pair
    and broadcast against ``distance``.  Pairs beyond ``cutoff`` get weight
    exactly ``0.0``.  This is the primitive of the sparse kernel in
    :mod:`repro.particles.engine`; self-pairs are *not* masked here
    (neighbour backends never emit them).
    """
    weights = _negated_scale(
        get_force_scaling(scaling),
        distance,
        params.k[types_i, types_j],
        params.r[types_i, types_j],
        params.sigma[types_i, types_j],
        params.tau[types_i, types_j],
    )
    if cutoff is not None and np.isfinite(cutoff):
        weights = np.where(distance <= cutoff, weights, 0.0)
    return weights


def drift_single(
    positions: np.ndarray,
    types: np.ndarray,
    params: InteractionParams,
    scaling: ForceScaling | str,
    cutoff: float | None = None,
    *,
    pair: Mapping[str, np.ndarray] | None = None,
    domain: Domain | str | None = None,
) -> np.ndarray:
    """Deterministic drift ``Σ_j -F(d_ij) Δz_ij`` for one configuration.

    The ``m = 1`` case of :func:`drift_batch`: ``positions`` is ``(n, 2)``,
    ``types`` is ``(n,)``, and ``pair``/``domain`` have the same meaning
    there.  ``cutoff`` ``None`` or ``inf`` means unconstrained interactions.
    """
    positions = np.asarray(positions, dtype=float)
    types = np.asarray(types, dtype=int)
    n = positions.shape[0]
    if positions.shape != (n, 2):
        raise ValueError(f"positions must have shape (n, 2), got {positions.shape}")
    if types.shape != (n,):
        raise ValueError("types must have shape (n,)")
    return drift_batch(
        positions[None], types, params, scaling, cutoff, pair=pair, domain=domain
    )[0]


class DenseDriftKernel:
    """The dense all-pairs drift kernel, with a workspace reused across calls.

    Evaluates ``Σ_j -F(d_ij) Δz_ij`` for ensemble snapshots ``(m, n, 2)`` of
    one fixed type assignment.

    * **Layout.**  Every pairwise quantity is a contiguous ``(m, n, n)``
      array in ``[sample, j, i]`` order, one per coordinate axis
      (:meth:`~repro.particles.domain.Domain.pair_displacements`), so every
      step is a flat element-wise ufunc over contiguous memory.  The
      per-pair parameter matrices are cached transposed to match, together
      with the scaling's derived constants
      (:meth:`ForceScaling.kernel_constants`; ``2σ``, ``σ²`` and ``2τ`` for
      ``F2``).
    * **Workspace.**  Four float ``(m, n, n)`` buffers, plus a boolean mask
      under a finite cut-off, are allocated on first use and written with
      ``out=`` ufuncs on every later call; a call allocates nothing of size
      ``n²``.  The workspace grows to the largest batch seen and lives as
      long as the kernel, i.e. as long as the
      :class:`~repro.particles.engine.DenseDriftEngine` that owns it (for
      an ensemble, one batch).  One kernel must therefore not be called
      from two threads at once.
    * **Summation order.**  ``Σ_j`` is a reduction over the non-inner ``j``
      axis, which NumPy accumulates sequentially in ``j`` — the one
      summation order shared with the sparse kernel's per-coordinate
      :func:`numpy.bincount` over ``(sample, i, j)``-sorted pairs.  That is
      what keeps dense and sparse drift bit-identical.
    """

    def __init__(
        self,
        types: np.ndarray,
        params: InteractionParams,
        scaling: ForceScaling | str,
        cutoff: float | None = None,
        *,
        pair: Mapping[str, np.ndarray] | None = None,
        domain: Domain | str | None = None,
    ) -> None:
        self.types = np.asarray(types, dtype=int)
        self.scaling = get_force_scaling(scaling)
        self.cutoff = None if cutoff is None or not np.isfinite(cutoff) else float(cutoff)
        self.domain = get_domain(domain)
        if pair is None:
            pair = params.pair_matrices(self.types)
        transposed = {
            key: np.ascontiguousarray(np.asarray(pair[key], dtype=float).T)
            for key in ("k", "r", "sigma", "tau")
        }
        self._constants = self.scaling.kernel_constants(**transposed)
        n = self.types.size
        self._buffers = np.empty((4, 0, n, n))
        self._mask = np.empty((0, n, n), dtype=bool)

    def _workspace(self, m: int) -> tuple[np.ndarray, np.ndarray]:
        if self._buffers.shape[1] < m:
            n = self.types.size
            self._buffers = np.empty((4, m, n, n))
            if self.cutoff is not None:
                self._mask = np.empty((m, n, n), dtype=bool)
        return self._buffers[:, :m], self._mask[:m]

    def __call__(self, positions: np.ndarray) -> np.ndarray:
        positions = np.asarray(positions, dtype=float)
        if positions.ndim != 3 or positions.shape[-1] != 2:
            raise ValueError(f"positions must have shape (m, n, 2), got {positions.shape}")
        m, n, _ = positions.shape
        if n != self.types.size:
            raise ValueError(f"positions have {n} particles but types has {self.types.size}")
        drift = np.empty((m, n, 2))
        (dx, dy, dist, weights), outside = self._workspace(m)
        self.domain.pair_displacements(positions, (dx, dy), scratch=weights)
        np.multiply(dx, dx, out=dist)
        np.multiply(dy, dy, out=weights)
        np.add(dist, weights, out=dist)
        np.sqrt(dist, out=dist)
        if self.cutoff is not None:
            # Exactly np.where(dist <= cutoff, w, 0.0): NaN distances drop out.
            np.less_equal(dist, self.cutoff, out=outside)
            np.logical_not(outside, out=outside)
        self.scaling.negated_scale_into(dist, self._constants, out=weights, scratch=dist)
        weights.reshape(m, n * n)[:, :: n + 1] = 0.0  # no self-interaction
        if self.cutoff is not None:
            np.copyto(weights, 0.0, where=outside)
        for axis, delta in enumerate((dx, dy)):
            np.multiply(delta, weights, out=delta)
            np.add.reduce(delta, axis=1, out=drift[..., axis])
        return drift


def drift_batch(
    positions: np.ndarray,
    types: np.ndarray,
    params: InteractionParams,
    scaling: ForceScaling | str,
    cutoff: float | None = None,
    *,
    pair: Mapping[str, np.ndarray] | None = None,
    domain: Domain | str | None = None,
) -> np.ndarray:
    """Vectorised drift for an ensemble snapshot of shape ``(m, n, 2)``.

    All samples share the same type assignment (as in the paper's
    experiments), which lets the per-pair parameter matrices be computed once
    and broadcast across the ensemble axis.  ``pair`` allows the caller to
    reuse those matrices across time steps (``params.pair_matrices(types)``).
    ``domain`` selects the displacement convention: pairwise displacements
    follow :meth:`~repro.particles.domain.Domain.displacement`
    (minimum-image on periodic axes); ``None`` means the free plane.

    A one-shot :class:`DenseDriftKernel`; callers that evaluate the drift
    repeatedly (the :class:`~repro.particles.engine.DenseDriftEngine`) keep
    one kernel so its workspace is reused.
    """
    return DenseDriftKernel(types, params, scaling, cutoff, pair=pair, domain=domain)(positions)


def net_force_norms(drift: np.ndarray) -> np.ndarray:
    """Per-particle L2 norms of the drift; shape ``(..., n)``.

    The paper's equilibrium criterion sums these norms over particles and
    requires the sum to stay below a threshold for several steps.
    """
    drift = np.asarray(drift, dtype=float)
    return np.sqrt(np.einsum("...ik,...ik->...i", drift, drift))
