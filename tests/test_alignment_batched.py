"""Bit-identity oracle for the lock-step batched alignment engine.

The batched engine must reproduce the per-sample alignment it replaced bit
for bit: reduced snapshots, residuals, correspondences and transforms.  The
reference below is the per-sample code as it stood before the engine —
``align_snapshot``'s sample loop, ``TypeAwareICP.align``/``_align_once``, the
torus aligner's per-flip/per-candidate loops and the cKDTree correspondence
helpers — copied verbatim (only renamed) so that it cannot drift with the
library.  The corpus covers reduced fig4 / fig5 / fig9 / fig11 ensembles,
periodic and channel ensembles, ``m = 1`` and ``m = 2`` snapshots, explicit
reference arrays and indices, and every ``TypeAwareICP`` option.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment
from scipy.spatial import cKDTree

from repro.alignment import (
    RigidTransform,
    TorusAligner,
    TorusTransform,
    TypeAwareICP,
    align_snapshot,
    center_configurations,
    select_reference,
    select_reference_wrapped,
)
from repro.core.experiments import (
    fig4_multi_information,
    fig5_single_type_f1,
    fig9_radius_sweep,
    fig11_decomposition,
    params_from_preferred_distances,
)
from repro.particles.domain import Domain, get_domain
from repro.particles.ensemble import EnsembleSimulator
from repro.particles.model import SimulationConfig

# --------------------------------------------------------------------------- #
# Reference: the per-sample alignment path, verbatim.
# --------------------------------------------------------------------------- #


def _ref_nearest_neighbor_correspondence(source, target, types):
    corr = np.empty(source.shape[0], dtype=int)
    for type_id in np.unique(types):
        idx = np.nonzero(types == type_id)[0]
        tree = cKDTree(target[idx])
        _dist, local = tree.query(source[idx], k=1)
        corr[idx] = idx[np.atleast_1d(local)]
    return corr


def _ref_assignment_correspondence(source, target, types):
    perm = np.empty(source.shape[0], dtype=int)
    for type_id in np.unique(types):
        idx = np.nonzero(types == type_id)[0]
        delta = source[idx][:, None, :] - target[idx][None, :, :]
        cost = np.einsum("ijk,ijk->ij", delta, delta)
        rows, cols = linear_sum_assignment(cost)
        perm[idx[rows]] = idx[cols]
    return perm


def _ref_correspondence_distances(source, target, correspondence):
    source = np.asarray(source, dtype=float)
    target = np.asarray(target, dtype=float)
    correspondence = np.asarray(correspondence, dtype=int)
    delta = source - target[correspondence]
    return np.sqrt(np.einsum("ij,ij->i", delta, delta))


def _ref_kabsch_2d(source, target):
    weights = np.ones(source.shape[0])
    total = weights.sum()
    w = weights / total
    source_mean = w @ source
    target_mean = w @ target
    source_centered = source - source_mean
    target_centered = target - target_mean
    cross = (source_centered * w[:, None]).T @ target_centered
    u, _singular, vt = np.linalg.svd(cross)
    det = np.linalg.det(vt.T @ u.T)
    correction = np.diag([1.0, np.sign(det) if det != 0 else 1.0])
    rotation = vt.T @ correction @ u.T
    translation = target_mean - rotation @ source_mean
    return RigidTransform(rotation=rotation, translation=translation)


@dataclass(frozen=True)
class _RefResult:
    transform: object
    aligned: np.ndarray
    correspondence: np.ndarray
    rmse: float
    n_iterations: int
    converged: bool


@dataclass
class _RefICP:
    max_iterations: int = 50
    tolerance: float = 1e-6
    use_assignment: bool = True
    assignment_every_step: bool = False
    global_init_angles: int = 4
    good_enough_rmse: float = 0.1

    def align(self, source, target, types, *, initial_transform=None):
        source = np.asarray(source, dtype=float)
        target = np.asarray(target, dtype=float)
        types = np.asarray(types, dtype=int)
        if initial_transform is None:
            best = self._align_once(source, target, types, RigidTransform.identity())
            centered = target - target.mean(axis=0)
            scale = float(np.sqrt(np.einsum("ij,ij->i", centered, centered).mean()))
            if best.rmse <= self.good_enough_rmse * max(scale, 1e-12) or self.global_init_angles == 0:
                return best
            source_mean = source.mean(axis=0)
            target_mean = target.mean(axis=0)
            for angle in np.linspace(0.0, 2.0 * np.pi, self.global_init_angles, endpoint=False)[1:]:
                rotation_only = RigidTransform.from_angle(float(angle))
                translation = target_mean - rotation_only.rotation @ source_mean
                start = RigidTransform(rotation=rotation_only.rotation, translation=translation)
                candidate = self._align_once(source, target, types, start)
                if candidate.rmse < best.rmse:
                    best = candidate
            return best
        return self._align_once(source, target, types, initial_transform)

    def _align_once(self, source, target, types, initial_transform):
        transform = initial_transform
        current = transform.apply(source)
        previous_error = np.inf
        converged = False
        iterations = 0

        for iterations in range(1, self.max_iterations + 1):
            if self.assignment_every_step:
                corr = _ref_assignment_correspondence(current, target, types)
            else:
                corr = _ref_nearest_neighbor_correspondence(current, target, types)
            step = _ref_kabsch_2d(current, target[corr])
            transform = step.compose(transform)
            current = transform.apply(source)
            error = float(_ref_correspondence_distances(current, target, corr).mean())
            if abs(previous_error - error) < self.tolerance:
                converged = True
                break
            previous_error = error

        if self.use_assignment:
            final_corr = _ref_assignment_correspondence(current, target, types)
        else:
            final_corr = _ref_nearest_neighbor_correspondence(current, target, types)
        rmse = float(np.sqrt((_ref_correspondence_distances(current, target, final_corr) ** 2).mean()))
        return _RefResult(transform, current, final_corr, rmse, iterations, converged)


def _ref_optimal_axis_shift(residuals, length):
    wrapped = np.sort(np.mod(residuals, length))
    n = wrapped.size
    if n == 0:
        return 0.0
    candidates = (wrapped.sum() + length * np.arange(n)) / n
    deltas = wrapped[None, :] - candidates[:, None]
    deltas -= length * np.round(deltas / length)
    costs = np.einsum("ij,ij->i", deltas, deltas)
    return float(np.mod(candidates[int(costs.argmin())], length))


def _ref_wrapped_nearest(source, target, types, domain):
    boxsize = [
        side if periodic else 0.0
        for side, periodic in zip(domain.extents, domain.periodic_axes)
    ]
    corr = np.empty(source.shape[0], dtype=int)
    for type_id in np.unique(types):
        idx = np.nonzero(types == type_id)[0]
        tree = cKDTree(target[idx], boxsize=boxsize)
        _dist, local = tree.query(source[idx], k=1)
        corr[idx] = idx[np.atleast_1d(local)]
    return corr


def _ref_wrapped_assignment(source, target, types, domain):
    perm = np.empty(source.shape[0], dtype=int)
    for type_id in np.unique(types):
        idx = np.nonzero(types == type_id)[0]
        delta = domain.displacement(source[idx][:, None, :], target[idx][None, :, :])
        cost = np.einsum("ijk,ijk->ij", delta, delta)
        rows, cols = linear_sum_assignment(cost)
        perm[idx[rows]] = idx[cols]
    return perm


def _ref_wrapped_distances(source, target, correspondence, domain):
    delta = domain.displacement(source, target[np.asarray(correspondence, dtype=int)])
    return np.sqrt(np.einsum("ij,ij->i", delta, delta))


@dataclass
class _RefTorusAligner:
    domain: Domain
    max_iterations: int = 50
    tolerance: float = 1e-6
    use_assignment: bool = True
    try_flips: bool = True

    def align(self, source, target, types):
        source = np.asarray(source, dtype=float)
        target = np.asarray(target, dtype=float)
        types = np.asarray(types, dtype=int)
        source = self.domain.wrap(source)
        target = self.domain.wrap(target)
        flip_space = (
            itertools.product((False, True), repeat=2) if self.try_flips else [(False, False)]
        )
        best = None
        for flips in flip_space:
            candidate = self._align_once(source, target, types, tuple(flips))
            if best is None or candidate.rmse < best.rmse:
                best = candidate
        return best

    def _initial_translation(self, flipped, target, types):
        domain = self.domain
        if not any(domain.periodic_axes):
            return np.zeros(2)
        unique, counts = np.unique(types, return_counts=True)
        anchor_type = int(unique[int(counts.argmin())])
        idx = np.nonzero(types == anchor_type)[0]
        anchor = flipped[idx[0]]
        offsets = domain.displacement(target[idx], anchor[None, :])
        candidates = np.zeros((offsets.shape[0] + 1, 2))
        for axis in range(2):
            if domain.periodic_axes[axis]:
                candidates[1:, axis] = offsets[:, axis]
        best_score = np.inf
        best = candidates[0]
        for translation in candidates:
            moved = domain.wrap(flipped + translation)
            corr = _ref_wrapped_nearest(moved, target, types, domain)
            score = float(_ref_wrapped_distances(moved, target, corr, domain).mean())
            if score < best_score:
                best_score = score
                best = translation
        return best.copy()

    def _align_once(self, source, target, types, flips):
        domain = self.domain
        flipped = TorusTransform(flips=flips, translation=(0.0, 0.0)).apply(source, domain)
        translation = self._initial_translation(flipped, target, types)
        current = domain.wrap(flipped + translation)
        previous_error = np.inf
        converged = False
        iterations = 0
        for iterations in range(1, self.max_iterations + 1):
            corr = _ref_wrapped_nearest(current, target, types, domain)
            residuals = domain.displacement(target[corr], current)
            for axis in range(2):
                if domain.periodic_axes[axis]:
                    translation[axis] += _ref_optimal_axis_shift(
                        residuals[:, axis], domain.extents[axis]
                    )
            current = domain.wrap(flipped + translation)
            error = float(_ref_wrapped_distances(current, target, corr, domain).mean())
            if abs(previous_error - error) < self.tolerance:
                converged = True
                break
            previous_error = error
        if self.use_assignment:
            final_corr = _ref_wrapped_assignment(current, target, types, domain)
        else:
            final_corr = _ref_wrapped_nearest(current, target, types, domain)
        rmse = float(np.sqrt((_ref_wrapped_distances(current, target, final_corr, domain) ** 2).mean()))
        return _RefResult(
            TorusTransform(flips=flips, translation=(float(translation[0]), float(translation[1]))),
            current,
            final_corr,
            rmse,
            iterations,
            converged,
        )


def _ref_align_snapshot(snapshot, types, *, icp=None, reference=None, reference_strategy="medoid", domain=None):
    snapshot = np.asarray(snapshot, dtype=float)
    types = np.asarray(types, dtype=int)
    resolved_domain = get_domain(domain)
    if resolved_domain.bounded and any(resolved_domain.periodic_axes):
        return _ref_align_snapshot_wrapped(
            snapshot, types, resolved_domain, icp=icp, reference=reference,
            reference_strategy=reference_strategy,
        )
    icp = icp or _RefICP()

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

    n_samples = snapshot.shape[0]
    reduced = np.empty_like(centered)
    rmse = np.empty(n_samples)
    for m in range(n_samples):
        if m == reference_index:
            reduced[m] = reference_config
            rmse[m] = 0.0
            continue
        result = icp.align(centered[m], reference_config, types)
        reordered = np.empty_like(result.aligned)
        reordered[result.correspondence] = result.aligned
        reduced[m] = reordered
        rmse[m] = result.rmse
    return reduced, reference_index, rmse


def _ref_align_snapshot_wrapped(snapshot, types, domain, *, icp=None, reference=None, reference_strategy="medoid"):
    # The one deliberate edit to the copied code: ``use_assignment`` is passed
    # through (the per-sample path dropped it; with the default True nothing
    # changes).
    aligner = _RefTorusAligner(
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

    n_samples = snapshot.shape[0]
    reduced = np.empty_like(wrapped)
    rmse = np.empty(n_samples)
    for m in range(n_samples):
        if m == reference_index:
            reduced[m] = reference_config
            rmse[m] = 0.0
            continue
        result = aligner.align(wrapped[m], reference_config, types)
        reordered = np.empty_like(result.aligned)
        reordered[result.correspondence] = result.aligned
        reduced[m] = reordered
        rmse[m] = result.rmse
    return reduced, reference_index, rmse


# --------------------------------------------------------------------------- #
# Corpus: short simulated ensembles from the figure specs and wrapped domains.
# --------------------------------------------------------------------------- #


def _simulate(config: SimulationConfig, n_samples: int, n_steps: int, seed: int):
    config = config.with_updates(n_steps=n_steps)
    ensemble = EnsembleSimulator(config, n_samples, seed=seed).run()
    frames = sorted({0, ensemble.n_steps // 2, ensemble.n_steps - 1})
    return [ensemble.snapshot(step) for step in frames], ensemble.types


def _two_type_config(domain: str, counts=(8, 8)) -> SimulationConfig:
    return SimulationConfig(
        type_counts=counts,
        params=params_from_preferred_distances([[1.2, 2.5], [2.5, 1.2]], force="F2", k=3.0),
        force="F2",
        cutoff=3.0,
        domain=domain,
        dt=0.02,
        substeps=5,
        n_steps=10,
    )


_FREE_CORPUS = {
    "fig4": lambda: _simulate(fig4_multi_information(full=False).simulation, 8, 12, 4),
    "fig5": lambda: _simulate(fig5_single_type_f1(full=False).simulation, 8, 12, 5),
    "fig9": lambda: _simulate(fig9_radius_sweep(full=False, cutoffs=(2.5,))[0].simulation, 10, 12, 9),
    "fig9-inf": lambda: _simulate(fig9_radius_sweep(full=False, cutoffs=(None,))[0].simulation, 10, 12, 10),
    "fig11": lambda: _simulate(fig11_decomposition(full=False).simulation, 8, 12, 11),
    # Types larger than the dense-search limit go through the shared cKDTree.
    "large-types": lambda: _simulate(_two_type_config("free", counts=(70, 5)), 4, 6, 12),
}

_WRAPPED_CORPUS = {
    "periodic": lambda: _simulate(_two_type_config("periodic:8"), 6, 8, 21),
    "channel": lambda: _simulate(_two_type_config("channel:8"), 6, 8, 22),
    "periodic-aniso": lambda: _simulate(_two_type_config("periodic:9,7", counts=(3, 9)), 5, 8, 23),
    "periodic-large": lambda: _simulate(_two_type_config("periodic:12", counts=(60, 60)), 3, 4, 24),
}

_CACHE: dict[str, tuple] = {}


def _corpus(name: str):
    if name not in _CACHE:
        _CACHE[name] = {**_FREE_CORPUS, **_WRAPPED_CORPUS}[name]()
    return _CACHE[name]


def _domain_of(name: str):
    return {
        "periodic": "periodic:8",
        "channel": "channel:8",
        "periodic-aniso": "periodic:9,7",
        "periodic-large": "periodic:12",
    }.get(name)


def _assert_snapshot_identical(snapshot, types, *, icp_kwargs=None, domain=None, reference=None):
    icp_kwargs = icp_kwargs or {}
    got = align_snapshot(snapshot, types, icp=TypeAwareICP(**icp_kwargs), domain=domain, reference=reference)
    ref_reduced, ref_index, ref_rmse = _ref_align_snapshot(
        snapshot, types, icp=_RefICP(**icp_kwargs), domain=domain, reference=reference
    )
    assert got.reference_index == ref_index
    assert got.reduced.tobytes() == ref_reduced.tobytes()
    assert got.rmse.tobytes() == ref_rmse.tobytes()


# --------------------------------------------------------------------------- #
# Tests
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("name", sorted(_FREE_CORPUS))
def test_free_plane_snapshots_are_bit_identical(name):
    frames, types = _corpus(name)
    for snapshot in frames:
        _assert_snapshot_identical(snapshot, types)


@pytest.mark.parametrize("name", sorted(_WRAPPED_CORPUS))
def test_wrapped_snapshots_are_bit_identical(name):
    frames, types = _corpus(name)
    for snapshot in frames:
        _assert_snapshot_identical(snapshot, types, domain=_domain_of(name))


def _assert_partial_snapshot_identical(snapshot, types, icp_kwargs, domain=None):
    """Like the full check, for correspondences that need not be permutations.

    With ``use_assignment=False`` the final correspondence is nearest-neighbour,
    so some reference slots receive no particle; the per-sample code left them
    as uninitialised memory, the engine leaves them NaN.  Every written slot
    must match bit for bit, and exactly the slots no particle maps to are NaN.
    """
    got = align_snapshot(snapshot, types, icp=TypeAwareICP(**icp_kwargs), domain=domain)
    ref_reduced, ref_index, ref_rmse = _ref_align_snapshot(
        snapshot, types, icp=_RefICP(**icp_kwargs), domain=domain
    )
    assert got.reference_index == ref_index
    assert got.rmse.tobytes() == ref_rmse.tobytes()
    resolved = get_domain(domain)
    if domain is None:
        samples = center_configurations(snapshot)
        aligner = _RefICP(**icp_kwargs)
    else:
        samples = resolved.wrap(snapshot)
        aligner = _RefTorusAligner(
            resolved,
            max_iterations=icp_kwargs.get("max_iterations", 50),
            tolerance=icp_kwargs.get("tolerance", 1e-6),
            use_assignment=False,
        )
    written = np.ones(snapshot.shape[:2], dtype=bool)
    for m in range(snapshot.shape[0]):
        if m != ref_index:
            written[m] = False
            written[m, aligner.align(samples[m], samples[ref_index], types).correspondence] = True
    assert not written.all()
    assert np.array_equal(~np.isnan(got.reduced[..., 0]), written)
    assert got.reduced[written].tobytes() == ref_reduced[written].tobytes()


@pytest.mark.parametrize("name", ["fig4", "fig11", "periodic", "channel"])
def test_nearest_neighbour_final_correspondence_is_bit_identical(name):
    frames, types = _corpus(name)
    icp_kwargs = {"use_assignment": False, "max_iterations": 3}
    _assert_partial_snapshot_identical(frames[-1], types, icp_kwargs, domain=_domain_of(name))


@pytest.mark.parametrize(
    "icp_kwargs",
    [
        {"assignment_every_step": True},
        {"global_init_angles": 0},
        {"global_init_angles": 7, "max_iterations": 5},
        {"good_enough_rmse": 0.0, "tolerance": 0.0, "max_iterations": 4},
    ],
    ids=["assignment-every-step", "no-restarts", "seven-angles", "never-converges"],
)
@pytest.mark.parametrize("name", ["fig4", "fig11"])
def test_icp_options_are_bit_identical(name, icp_kwargs):
    frames, types = _corpus(name)
    _assert_snapshot_identical(frames[-1], types, icp_kwargs=icp_kwargs)


@pytest.mark.parametrize("name", ["fig4", "fig9", "periodic"])
def test_explicit_references_are_bit_identical(name):
    frames, types = _corpus(name)
    snapshot = frames[-1]
    domain = _domain_of(name)
    _assert_snapshot_identical(snapshot, types, domain=domain, reference=2)
    _assert_snapshot_identical(snapshot, types, domain=domain, reference=np.int64(-1))
    _assert_snapshot_identical(snapshot, types, domain=domain, reference=snapshot[1] + 0.25)


@pytest.mark.parametrize("name", ["fig4", "fig9", "channel"])
@pytest.mark.parametrize("m", [1, 2])
def test_tiny_ensembles_are_bit_identical(name, m):
    frames, types = _corpus(name)
    _assert_snapshot_identical(frames[-1][:m], types, domain=_domain_of(name))
    _assert_snapshot_identical(frames[-1][:m], types, domain=_domain_of(name), reference=frames[0][0])


def _assert_result_identical(got, ref):
    assert got.aligned.tobytes() == ref.aligned.tobytes()
    assert got.correspondence.tobytes() == np.asarray(ref.correspondence, dtype=got.correspondence.dtype).tobytes()
    assert np.float64(got.rmse).tobytes() == np.float64(ref.rmse).tobytes()
    assert got.n_iterations == ref.n_iterations
    assert got.converged == ref.converged


@pytest.mark.parametrize("name", ["fig4", "fig5", "fig9"])
def test_single_align_matches_reference_including_transform(name):
    frames, types = _corpus(name)
    centered = center_configurations(frames[-1])
    for kwargs in ({}, {"assignment_every_step": True}, {"use_assignment": False}):
        got = TypeAwareICP(**kwargs).align(centered[1], centered[0], types)
        ref = _RefICP(**kwargs).align(centered[1], centered[0], types)
        _assert_result_identical(got, ref)
        assert got.transform.rotation.tobytes() == ref.transform.rotation.tobytes()
        assert got.transform.translation.tobytes() == ref.transform.translation.tobytes()


@pytest.mark.parametrize("name", ["fig4", "fig11"])
def test_initial_transform_is_bit_identical(name):
    frames, types = _corpus(name)
    centered = center_configurations(frames[-1])
    start = RigidTransform.from_angle(0.7, (0.3, -0.2))
    got = TypeAwareICP(max_iterations=7).align(centered[2], centered[0], types, initial_transform=start)
    ref = _RefICP(max_iterations=7).align(centered[2], centered[0], types, initial_transform=start)
    _assert_result_identical(got, ref)
    assert got.transform.rotation.tobytes() == ref.transform.rotation.tobytes()
    assert got.transform.translation.tobytes() == ref.transform.translation.tobytes()


@pytest.mark.parametrize("name", sorted(_WRAPPED_CORPUS))
def test_single_torus_align_matches_reference_including_transform(name):
    frames, types = _corpus(name)
    domain = get_domain(_domain_of(name))
    for kwargs in ({}, {"try_flips": False}, {"use_assignment": False, "max_iterations": 2}):
        got = TorusAligner(domain, **kwargs).align(frames[-1][1], frames[-1][0], types)
        ref = _RefTorusAligner(domain, **kwargs).align(frames[-1][1], frames[-1][0], types)
        _assert_result_identical(got, ref)
        assert got.transform == ref.transform


def test_reflecting_box_torus_align_matches_reference():
    frames, types = _corpus("periodic")
    domain = get_domain("reflecting:8")
    got = TorusAligner(domain).align(frames[-1][1], frames[-1][0], types)
    ref = _RefTorusAligner(domain).align(frames[-1][1], frames[-1][0], types)
    _assert_result_identical(got, ref)
    assert got.transform == ref.transform


def test_pipeline_icp_settings_are_bit_identical():
    # The analysis pipeline aligns with max_iterations=30, tolerance=1e-5.
    settings = {"max_iterations": 30, "tolerance": 1e-5}
    for name in ("fig4", "fig9-inf"):
        frames, types = _corpus(name)
        _assert_snapshot_identical(frames[-1], types, icp_kwargs=settings)
    frames, types = _corpus("periodic")
    _assert_snapshot_identical(frames[-1], types, icp_kwargs=settings, domain="periodic:8")


def test_wrapped_path_honours_use_assignment():
    # Regression: the wrapped dispatch used to drop icp.use_assignment, so the
    # torus reduction always finished with the one-to-one assignment.
    frames, types = _corpus("periodic")
    snapshot = frames[0]
    icp = TypeAwareICP(use_assignment=False)
    got = align_snapshot(snapshot, types, icp=icp, domain="periodic:8")
    wrapped = get_domain("periodic:8").wrap(snapshot)
    reference_index = got.reference_index
    aligner = TorusAligner(get_domain("periodic:8"), use_assignment=False)
    for m in range(snapshot.shape[0]):
        if m == reference_index:
            continue
        expected = aligner.align(wrapped[m], wrapped[reference_index], types)
        assert got.rmse[m] == expected.rmse
    with_assignment = align_snapshot(snapshot, types, icp=replace(icp, use_assignment=True), domain="periodic:8")
    assert not np.array_equal(got.rmse, with_assignment.rmse)
