"""Tests for repro.particles.neighbors."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.particles.neighbors import (
    NEIGHBOR_BACKENDS,
    BruteForceNeighbors,
    CellListNeighbors,
    _grid_ids,
    _rank_compressed,
    get_neighbor_search,
)


def _pairs_as_set(i_idx, j_idx):
    return set(zip(i_idx.tolist(), j_idx.tolist()))


#: Every accepted backend spelling, "kdtree" (the config default, a
#: hash-stable second name for the cell list) included.
BACKEND_SPELLINGS = sorted(NEIGHBOR_BACKENDS)
BACKENDS = [get_neighbor_search(name) for name in BACKEND_SPELLINGS]


@pytest.mark.parametrize("backend", BACKENDS, ids=BACKEND_SPELLINGS)
class TestBackendsAgainstBruteForce:
    def test_simple_triangle(self, backend):
        positions = np.array([[0.0, 0.0], [1.0, 0.0], [10.0, 0.0]])
        i_idx, j_idx = backend.pairs(positions, radius=2.0)
        assert _pairs_as_set(i_idx, j_idx) == {(0, 1), (1, 0)}

    def test_no_self_pairs(self, backend):
        positions = np.random.default_rng(0).uniform(-3, 3, size=(20, 2))
        i_idx, j_idx = backend.pairs(positions, radius=2.0)
        assert np.all(i_idx != j_idx)

    def test_symmetric_pairs(self, backend):
        positions = np.random.default_rng(1).uniform(-3, 3, size=(15, 2))
        pairs = _pairs_as_set(*backend.pairs(positions, radius=1.5))
        assert all((j, i) in pairs for (i, j) in pairs)

    def test_matches_brute_force(self, backend):
        rng = np.random.default_rng(7)
        positions = rng.uniform(-5, 5, size=(40, 2))
        reference = _pairs_as_set(*BruteForceNeighbors().pairs(positions, radius=2.2))
        result = _pairs_as_set(*backend.pairs(positions, radius=2.2))
        assert result == reference

    def test_infinite_radius_gives_all_pairs(self, backend):
        positions = np.random.default_rng(3).uniform(-2, 2, size=(6, 2))
        pairs = _pairs_as_set(*backend.pairs(positions, radius=np.inf))
        assert len(pairs) == 6 * 5

    def test_empty_input(self, backend):
        i_idx, j_idx = backend.pairs(np.zeros((0, 2)), radius=1.0)
        assert i_idx.size == 0 and j_idx.size == 0

    def test_invalid_radius(self, backend):
        with pytest.raises(ValueError):
            backend.pairs(np.zeros((3, 2)), radius=0.0)

    def test_invalid_shape(self, backend):
        with pytest.raises(ValueError):
            backend.pairs(np.zeros((3, 3)), radius=1.0)


def _boundary_offset(radius: float) -> np.ndarray | None:
    """A 2-vector whose squared norm exceeds ``radius**2`` while its rounded
    Euclidean norm equals ``radius`` — the cut-off edge case where squared-
    distance and sqrt-based comparisons disagree."""
    rng = np.random.default_rng(123)
    for _ in range(10_000):
        v = rng.normal(size=2)
        v = v / np.sqrt(v @ v) * radius
        q = v[0] * v[0] + v[1] * v[1]
        if q > radius * radius and np.sqrt(q) <= radius:
            return v
    return None


@pytest.mark.parametrize("backend", BACKENDS, ids=BACKEND_SPELLINGS)
def test_cutoff_boundary_pairs_match_brute_force(backend):
    # Regression: the cell list used to prune on squared distances, dropping
    # pairs whose rounded distance lands exactly on the radius — pairs the
    # dense drift kernel (and brute force) includes.
    radius = 2.0
    offset = _boundary_offset(radius)
    assert offset is not None, "no representable boundary pair found"
    positions = np.array([[0.0, 0.0], offset])
    pairs = _pairs_as_set(*backend.pairs(positions, radius))
    assert pairs == {(0, 1), (1, 0)}


@given(
    st.integers(min_value=2, max_value=30),
    st.floats(min_value=0.3, max_value=4.0),
    st.integers(min_value=0, max_value=1000),
)
def test_cell_list_matches_brute_force_property(n, radius, seed):
    positions = np.random.default_rng(seed).uniform(-4, 4, size=(n, 2))
    brute = _pairs_as_set(*BruteForceNeighbors().pairs(positions, radius))
    cell = _pairs_as_set(*CellListNeighbors().pairs(positions, radius))
    assert cell == brute


class TestNeighborLists:
    def test_lists_match_pairs(self):
        positions = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [5.0, 5.0]])
        lists = BruteForceNeighbors().neighbor_lists(positions, radius=1.5)
        assert lists[0].tolist() == [1, 2]
        assert lists[3].tolist() == []

    def test_all_backends_identical_and_sorted_on_seeded_cloud(self):
        # Regression for the vectorised argsort/split implementation: every
        # backend must produce the same per-particle lists, each sorted
        # ascending, with one (possibly empty) integer array per particle.
        positions = np.random.default_rng(42).uniform(-6, 6, size=(60, 2))
        reference = BruteForceNeighbors().neighbor_lists(positions, radius=2.0)
        assert len(reference) == 60
        for backend in BACKENDS:
            lists = backend.neighbor_lists(positions, radius=2.0)
            assert len(lists) == len(reference)
            for mine, ref in zip(lists, reference):
                assert np.issubdtype(mine.dtype, np.integer)
                assert np.all(np.diff(mine) > 0)  # strictly ascending, no duplicates
                np.testing.assert_array_equal(mine, ref)

    def test_isolated_particles_get_empty_arrays(self):
        positions = np.array([[0.0, 0.0], [100.0, 0.0]])
        lists = BruteForceNeighbors().neighbor_lists(positions, radius=1.0)
        assert [lst.size for lst in lists] == [0, 0]

    def test_empty_input(self):
        assert BruteForceNeighbors().neighbor_lists(np.zeros((0, 2)), radius=1.0) == []


class TestPairsBatch:
    @pytest.mark.parametrize("backend", BACKENDS, ids=BACKEND_SPELLINGS)
    def test_matches_per_sample_pairs(self, backend):
        rng = np.random.default_rng(5)
        batch = rng.uniform(-4, 4, size=(3, 20, 2))
        i_idx, j_idx = backend.pairs_batch(batch, radius=2.0)
        expected = set()
        for sample in range(3):
            si, sj = backend.pairs(batch[sample], radius=2.0)
            expected |= {(sample * 20 + a, sample * 20 + b) for a, b in zip(si, sj)}
        assert _pairs_as_set(i_idx, j_idx) == expected

    @pytest.mark.parametrize("backend", BACKENDS, ids=BACKEND_SPELLINGS)
    @pytest.mark.parametrize(
        "query",
        [
            lambda backend, batch: backend.pairs_batch(batch, radius=2.5),
            # Single pairs are pairs_batch at m = 1, so they are sorted on
            # every backend.
            lambda backend, batch: backend.pairs(batch[0], radius=2.5),
        ],
        ids=["pairs_batch", "pairs"],
    )
    def test_lexicographic_order(self, backend, query):
        rng = np.random.default_rng(6)
        batch = rng.uniform(-4, 4, size=(2, 15, 2))
        i_idx, j_idx = query(backend, batch)
        keys = list(zip(i_idx.tolist(), j_idx.tolist()))
        assert keys and keys == sorted(keys)

    def test_validates_shape(self):
        with pytest.raises(ValueError):
            BruteForceNeighbors().pairs_batch(np.zeros((4, 2)), radius=1.0)


class TestRegistry:
    def test_lookup_by_name(self):
        assert isinstance(get_neighbor_search("cell"), CellListNeighbors)
        # "kdtree" is a hash-stable spelling of the cell list.
        assert isinstance(get_neighbor_search("kdtree"), CellListNeighbors)

    def test_instance_passthrough(self):
        backend = CellListNeighbors()
        assert get_neighbor_search(backend) is backend

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            get_neighbor_search("octree")

    def test_registry_complete(self):
        assert set(NEIGHBOR_BACKENDS) == {"brute", "cell", "kdtree"}


class TestGridIdOverflowFallback:
    """The int64-overflow path of the free-plane spatial hash.

    A bounding box astronomically wider than the cell size (or a NaN or
    infinite coordinate) would overflow the padded int64 id space;
    ``_grid_ids`` then rank-compresses each axis's occupied cell
    coordinates.  The pair set must stay byte-identical to the brute force.
    """

    def _overflow_cloud(self) -> np.ndarray:
        # Two interacting points amid far-flung loners: the extent/radius
        # ratio is ~1e13 per axis, so the padded id space would need ~1e26
        # cells — far past int64.
        return np.array(
            [
                [0.0, 0.0],
                [1e-3, 0.0],
                [1e10, 1e10],
                [-1e10, 3e9],
            ]
        )

    @staticmethod
    def _assert_matches_brute(batch: np.ndarray, radius: float) -> None:
        with np.errstate(invalid="ignore"):  # inf - inf in the distance filters
            got = CellListNeighbors().pairs_batch(batch, radius)
            want = BruteForceNeighbors().pairs_batch(batch, radius)
            for s in range(batch.shape[0]):
                got_s = CellListNeighbors().pairs(batch[s], radius)
                want_s = BruteForceNeighbors().pairs(batch[s], radius)
                for mine, ref in zip(got_s, want_s):
                    assert mine.dtype == ref.dtype and mine.tobytes() == ref.tobytes()
        for mine, ref in zip(got, want):
            assert mine.dtype == ref.dtype and mine.tobytes() == ref.tobytes()

    def test_grid_ids_compress_on_overflow(self):
        positions = self._overflow_cloud()
        _, stride = _grid_ids(positions, radius=2e-3)
        # Compressed extents are bounded by 2·n + 3 ...
        assert stride <= 2 * positions.shape[0] + 3
        # ... while a benign cloud keeps the plain padded layout.
        ids, stride = _grid_ids(np.array([[0.0, 0.0], [2.5, 0.5], [0.5, 3.5]]), radius=1.0)
        assert stride == 6 and ids.tolist() == [7, 19, 10]

    def test_rank_compression_keeps_adjacency(self):
        # Equal stays equal, one apart stays one apart, every larger gap
        # becomes 2, and NaN shares the +inf cell.
        coords = np.array([5.0, -np.inf, 1e15, np.nan, 6.0, 5.0, 1e15 + 1, np.inf, 3.0])
        assert _rank_compressed(coords).tolist() == [4, 0, 7, 10, 5, 4, 8, 10, 2]

    def test_grid_ids_overflow_via_sample_blocks(self):
        # Each sample's block is ~(1.5e9)^2 cells; a handful of samples pushes
        # the flattened id space over int64 even though one block fits.
        positions = np.concatenate([np.zeros((2, 2)), np.full((2, 2), 1.5e9)])
        tiled = np.tile(positions, (4, 1))
        sample = np.repeat(np.arange(4, dtype=np.int64), positions.shape[0])
        assert _grid_ids(positions, radius=1.0)[1] == int(1.5e9) + 3
        _, stride = _grid_ids(tiled, radius=1.0, sample=sample)
        assert stride <= 2 * tiled.shape[0] + 3
        self._assert_matches_brute(tiled.reshape(4, -1, 2), radius=1.0)

    def test_pairs_falls_back_and_matches_brute(self):
        positions = self._overflow_cloud()
        self._assert_matches_brute(positions[None], radius=2e-3)
        result = _pairs_as_set(*CellListNeighbors().pairs(positions, radius=2e-3))
        assert result == {(0, 1), (1, 0)}

    def test_pairs_batch_matches_brute(self):
        rng = np.random.default_rng(8)
        base = self._overflow_cloud()
        batch = np.stack([base + rng.normal(scale=1e-4, size=base.shape) for _ in range(3)])
        self._assert_matches_brute(batch, radius=2e-3)
        assert CellListNeighbors().pairs_batch(batch, radius=2e-3)[0].size == 3 * 2

    @pytest.mark.parametrize("seed", range(4))
    def test_far_flung_clusters_match_brute(self, seed):
        # Dense clusters whose pairs straddle cell boundaries on both axes,
        # plus loners 1e12 away: compression must keep every adjacent cell
        # adjacent.
        rng = np.random.default_rng(seed)
        radius = 0.5
        batch = rng.normal(scale=3 * radius, size=(3, 60, 2))
        batch[:, :2] = [[1e12, -1e12], [-1e12, 1e12]]
        self._assert_matches_brute(batch, radius)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_coordinates_match_brute(self, bad):
        cloud = np.concatenate(
            [self._overflow_cloud(), [[1e-3, 1e-3], [bad, 0.0], [0.0, bad], [np.nan, np.inf]]]
        )
        batch = np.stack([cloud, cloud[::-1]])
        for radius in (2e-3, 1.0, 3.0):
            self._assert_matches_brute(batch, radius)

    def test_batch_fallback_preserves_lexicographic_order(self):
        batch = np.stack([self._overflow_cloud()] * 2)
        i_idx, j_idx = CellListNeighbors().pairs_batch(batch, radius=2e-3)
        keys = list(zip(i_idx.tolist(), j_idx.tolist()))
        assert keys == sorted(keys)


class TestPairDtypes:
    @pytest.mark.parametrize("backend", BACKENDS, ids=BACKEND_SPELLINGS)
    def test_pairs_are_int64(self, backend):
        rng = np.random.default_rng(11)
        positions = rng.uniform(-3, 3, size=(12, 2))
        for radius in (1.5, np.inf):
            i_idx, j_idx = backend.pairs(positions, radius)
            assert i_idx.dtype == np.int64 and j_idx.dtype == np.int64, radius
        i_idx, j_idx = backend.pairs_batch(positions[None], 1.5)
        assert i_idx.dtype == np.int64 and j_idx.dtype == np.int64
