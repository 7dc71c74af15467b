"""Bit-identity oracle for the workspace dense drift kernel.

:class:`~repro.particles.forces.DenseDriftKernel` (behind ``drift_batch``
and :class:`~repro.particles.engine.DenseDriftEngine`) computes on per-axis
``(m, n, n)`` arrays in ``[sample, j, i]`` layout, in a workspace reused
across calls, and sums ``Σ_j`` as a reduction over the non-inner ``j`` axis.
The reference below is the broadcast ``drift_batch`` body it replaced,
copied verbatim (only renamed) so that it cannot drift with the library.
Drift must match byte for byte, so a ``-0.0`` vs ``0.0`` difference shows.

The one exception is the payload and sign of NaNs.  Which NaN an arithmetic
instruction propagates when both operands are NaN depends on operand order
inside NumPy's einsum loops, so non-finite inputs are compared on the NaN
mask plus the bytes of every non-NaN entry.  Finite inputs never produce a
NaN, and for them the comparison is the plain byte comparison.
"""

from __future__ import annotations

import tracemalloc
from typing import Mapping

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.particles.domain import Domain, get_domain
from repro.particles.engine import DenseDriftEngine
from repro.particles.forces import (
    DenseDriftKernel,
    ForceScaling,
    drift_batch,
    get_force_scaling,
)
from repro.particles.types import InteractionParams

# --------------------------------------------------------------------------- #
# Reference: the broadcast kernel, verbatim.
# --------------------------------------------------------------------------- #


def _ref_drift_batch(
    positions: np.ndarray,
    types: np.ndarray,
    params: InteractionParams,
    scaling: ForceScaling | str,
    cutoff: float | None = None,
    *,
    pair: Mapping[str, np.ndarray] | None = None,
    domain: Domain | str | None = None,
) -> np.ndarray:
    positions = np.asarray(positions, dtype=float)
    if positions.ndim != 3 or positions.shape[-1] != 2:
        raise ValueError(f"positions must have shape (m, n, 2), got {positions.shape}")
    types = np.asarray(types, dtype=int)
    scaling = get_force_scaling(scaling)
    domain = get_domain(domain)
    if pair is None:
        pair = params.pair_matrices(types)
    delta = domain.displacement(positions[:, :, None, :], positions[:, None, :, :])
    dist = np.sqrt(np.einsum("mijk,mijk->mij", delta, delta))
    weights = -scaling.scale(dist, pair["k"], pair["r"], pair["sigma"], pair["tau"])
    n = positions.shape[1]
    eye = np.eye(n, dtype=bool)
    weights[:, eye] = 0.0
    if cutoff is not None and np.isfinite(cutoff):
        weights = np.where(dist <= cutoff, weights, 0.0)
    return np.einsum("mij,mijk->mik", weights, delta)


def _ref_f1(distance, k, r, sigma, tau):
    safe = np.maximum(distance, 1e-9)
    return k * (1.0 - r / safe)


def _ref_f2(distance, k, r, sigma, tau):
    x2 = distance * distance
    attraction = np.exp(-x2 / (2.0 * sigma)) / (sigma * sigma)
    repulsion = np.exp(-x2 / (2.0 * tau))
    return k * (attraction - repulsion)


# --------------------------------------------------------------------------- #
# Corpus
# --------------------------------------------------------------------------- #

DOMAINS = ("free", "periodic:9.0", "periodic:9.0,6.5", "reflecting:8.0", "channel:9.0,4.0")
CUTOFFS = (None, 2.5)


def _system(n: int, seed: int) -> tuple[np.ndarray, InteractionParams]:
    rng = np.random.default_rng(seed)
    params = InteractionParams.random(3, rng=rng, r_range=(0.5, 2.0))
    return rng.integers(0, 3, size=n), params


def _positions(m: int, n: int, seed: int) -> np.ndarray:
    """Raw positions up to a box length outside ``[0, 9)²``, so wrapping and
    the channel's reflecting fold of ``y`` change the displacements, with a
    coincident pair (the F1 distance floor) and a particle far from the rest
    (every weight cut off, the ``-0.0`` products)."""
    rng = np.random.default_rng(seed)
    positions = rng.uniform(-9.0, 18.0, size=(m, n, 2))
    if n >= 2:
        positions[:, 1] = positions[:, 0]
    if n >= 3:
        positions[:, 2] = positions[:, 0] + np.array([0.0, 50.0])
    return positions


def _assert_bytes_equal(actual: np.ndarray, expected: np.ndarray) -> None:
    actual = np.asarray(actual)
    expected = np.asarray(expected)
    assert actual.shape == expected.shape
    assert actual.dtype == expected.dtype
    nan = np.isnan(expected)
    np.testing.assert_array_equal(np.isnan(actual), nan)
    if nan.any():
        actual = np.where(nan, 0.0, actual)
        expected = np.where(nan, 0.0, expected)
    assert actual.tobytes() == expected.tobytes()


# --------------------------------------------------------------------------- #
# Oracle
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("domain", DOMAINS)
@pytest.mark.parametrize("force", ["F1", "F2"])
@pytest.mark.parametrize("cutoff", CUTOFFS)
def test_drift_matches_reference(domain, force, cutoff):
    for m in (1, 7):
        for n in (1, 2, 50):
            positions = _positions(m, n, seed=31 * m + n)
            types, params = _system(n, seed=n)
            expected = _ref_drift_batch(positions, types, params, force, cutoff, domain=domain)
            _assert_bytes_equal(
                drift_batch(positions, types, params, force, cutoff, domain=domain), expected
            )
            # Asymmetric per-pair matrices: the kernel caches them transposed,
            # so a transposition mistake cannot hide behind k == k.T.
            rng = np.random.default_rng(n)
            pair = {key: rng.uniform(0.5, 2.5, (n, n)) for key in ("k", "r", "sigma", "tau")}
            _assert_bytes_equal(
                drift_batch(positions, types, params, force, cutoff, pair=pair, domain=domain),
                _ref_drift_batch(
                    positions, types, params, force, cutoff, pair=pair, domain=domain
                ),
            )


@pytest.mark.parametrize("force, reference", [("F1", _ref_f1), ("F2", _ref_f2)])
def test_force_law_matches_reference(force, reference):
    # Both kernels and ``scale`` share one body per law; this pins that body
    # against the formulas of Eqs. 7 and 8 as the library first wrote them.
    rng = np.random.default_rng(11)
    distance = np.concatenate(
        [[0.0, 1e-12, 1e-9, np.nan, np.inf], rng.uniform(0.0, 12.0, 200)]
    )[:, None]
    k, r, sigma, tau = rng.uniform(0.2, 3.0, (4, 1, 7))
    scaling = get_force_scaling(force)
    with np.errstate(invalid="ignore", over="ignore"):
        expected = reference(distance, k, r, sigma, tau)
        _assert_bytes_equal(scaling.scale(distance, k, r, sigma, tau), expected)
        _assert_bytes_equal(
            scaling(distance[:, 0], 1.5, 0.7, 1.3, 0.8),
            reference(distance[:, 0], 1.5, 0.7, 1.3, 0.8),
        )


def test_isolated_particle_gets_positive_zero_drift():
    # Every product of an isolated particle is a cut-off weight times a
    # displacement, -0.0 for negative displacements; the sum must still be
    # +0.0 as the zero-initialised einsum produced.
    positions = np.array([[[0.0, 0.0], [10.0, 10.0], [20.0, 20.0]]])
    types, params = _system(3, seed=1)
    drift = drift_batch(positions, types, params, "F1", cutoff=1.0)
    assert drift.tobytes() == np.zeros((1, 3, 2)).tobytes()
    _assert_bytes_equal(drift, _ref_drift_batch(positions, types, params, "F1", 1.0))


@pytest.mark.parametrize("domain", DOMAINS)
@pytest.mark.parametrize("force", ["F1", "F2"])
@pytest.mark.parametrize("cutoff", CUTOFFS)
def test_non_finite_positions_match_reference(domain, force, cutoff):
    # NaN distances are cut off by np.where(dist <= cutoff, w, 0.0), inf
    # coordinates give inf - inf = NaN displacements.
    types, params = _system(6, seed=2)
    for value in (np.nan, np.inf, -np.inf):
        positions = _positions(3, 6, seed=5)
        positions[0, 3, 0] = value
        positions[2, 4, 1] = value
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            _assert_bytes_equal(
                drift_batch(positions, types, params, force, cutoff, domain=domain),
                _ref_drift_batch(positions, types, params, force, cutoff, domain=domain),
            )


@pytest.mark.parametrize("domain", DOMAINS)
def test_engine_workspace_reuse_across_batch_sizes(domain):
    # One engine, batches growing and shrinking: the workspace is sliced,
    # reallocated and reused, and no call may see a previous call's data.
    types, params = _system(50, seed=3)
    engine = DenseDriftEngine(types, params, "F2", 2.5, domain=domain)
    for call, m in enumerate((3, 1, 30, 2, 13, 14, 30)):
        positions = _positions(m, 50, seed=100 + call)
        _assert_bytes_equal(
            engine.drift_batch(positions),
            _ref_drift_batch(positions, types, params, "F2", 2.5, domain=domain),
        )


def test_custom_scaling_takes_the_allocating_fallback():
    class Cubic(ForceScaling):
        name = "cubic"

        def scale(self, distance, k, r, sigma, tau):
            return k * (distance - r) ** 3 / (sigma + tau)

    types, params = _system(12, seed=4)
    positions = _positions(4, 12, seed=6)
    _assert_bytes_equal(
        drift_batch(positions, types, params, Cubic(), 3.0),
        _ref_drift_batch(positions, types, params, Cubic(), 3.0),
    )


def test_scaling_without_a_force_law_raises():
    class Empty(ForceScaling):
        name = "empty"

    types, params = _system(3, seed=4)
    with pytest.raises(NotImplementedError, match="Empty"):
        drift_batch(_positions(1, 3, seed=6), types, params, Empty())


def test_shape_errors():
    types, params = _system(4, seed=0)
    kernel = DenseDriftKernel(types, params, "F1")
    with pytest.raises(ValueError, match="shape"):
        kernel(np.zeros((4, 2)))
    with pytest.raises(ValueError, match="particles"):
        kernel(np.zeros((2, 5, 2)))


@pytest.mark.fuzz
@given(
    seed=st.integers(min_value=0, max_value=100_000),
    m=st.integers(min_value=1, max_value=6),
    n=st.integers(min_value=1, max_value=30),
    domain=st.sampled_from(DOMAINS),
    force=st.sampled_from(["F1", "F2"]),
    cutoff=st.one_of(st.none(), st.floats(min_value=0.05, max_value=4.5)),
    spread=st.floats(min_value=0.01, max_value=40.0),
)
def test_fuzz_drift_matches_reference(seed, m, n, domain, force, cutoff, spread):
    rng = np.random.default_rng(seed)
    positions = rng.uniform(-spread, spread, size=(m, n, 2))
    n_dup = n // 4
    if n_dup:
        positions[:, :n_dup] = positions[:, rng.integers(n_dup, n, size=n_dup)]
    types, params = _system(n, seed=seed + 1)
    _assert_bytes_equal(
        drift_batch(positions, types, params, force, cutoff, domain=domain),
        _ref_drift_batch(positions, types, params, force, cutoff, domain=domain),
    )


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("force", ["F1", "F2"])
def test_peak_memory_does_not_exceed_the_broadcast_kernel(force):
    m, n = 500, 50
    types, params = _system(n, seed=7)
    positions = _positions(m, n, seed=8)
    pair = params.pair_matrices(types)
    new = _traced_peak(lambda: drift_batch(positions, types, params, force, 2.5, pair=pair))
    old = _traced_peak(lambda: _ref_drift_batch(positions, types, params, force, 2.5, pair=pair))
    assert new <= old
