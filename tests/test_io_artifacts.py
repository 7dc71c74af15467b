"""Tests for the content-addressed run store (repro.io.artifacts)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.plan import RunUnit, single
from repro.io.artifacts import RunStore, RunStoreError

from test_core_plan import tiny_spec


@pytest.fixture
def unit() -> RunUnit:
    return RunUnit(tiny_spec())


@pytest.fixture
def executed(unit):
    return unit, unit.execute()


class TestStoreLifecycle:
    def test_creates_directory_and_marker(self, tmp_path):
        store = RunStore(tmp_path / "store")
        assert store.units_dir.is_dir()
        marker = json.loads((tmp_path / "store" / RunStore.MARKER_NAME).read_text())
        assert marker["format"] == "repro-run-store"

    def test_create_false_rejects_missing_directory(self, tmp_path):
        with pytest.raises(RunStoreError, match="does not exist"):
            RunStore(tmp_path / "nope", create=False)

    def test_create_false_rejects_unmarked_directory(self, tmp_path):
        (tmp_path / "plain").mkdir()
        with pytest.raises(RunStoreError, match="not a run store"):
            RunStore(tmp_path / "plain", create=False)

    def test_reopening_an_existing_store_is_idempotent(self, tmp_path):
        RunStore(tmp_path / "store")
        store = RunStore(tmp_path / "store", create=False)
        assert store.keys() == []

    def test_create_over_an_existing_file_raises_a_store_error(self, tmp_path):
        (tmp_path / "occupied").write_text("not a directory")
        with pytest.raises(RunStoreError, match="cannot create run store"):
            RunStore(tmp_path / "occupied")


class TestSaveLoad:
    def test_round_trips_the_full_experiment_result(self, tmp_path, executed):
        unit, result = executed
        store = RunStore(tmp_path / "store")
        path = store.save(unit, result)
        assert path == store.path_for(unit) and store.has(unit) and unit.content_hash in store
        loaded = store.load(unit.content_hash)
        np.testing.assert_array_equal(
            loaded.measurement.multi_information, result.measurement.multi_information
        )
        np.testing.assert_array_equal(loaded.mean_force_norm, result.mean_force_norm)
        assert loaded.simulation_config.to_dict() == result.simulation_config.to_dict()
        assert loaded.analysis_config == result.analysis_config
        assert loaded.n_samples == result.n_samples and loaded.seed == result.seed
        assert loaded.fraction_at_equilibrium == result.fraction_at_equilibrium

    def test_documents_are_deterministic(self, tmp_path, executed):
        unit, result = executed
        store = RunStore(tmp_path / "store")
        store.save(unit, result)
        first = store.path_for(unit).read_bytes()
        # A second execution has different wall times; the document must not.
        store.save(unit, unit.execute())
        assert store.path_for(unit).read_bytes() == first
        document = store.load_document(unit)
        assert document["wall_time_seconds"] == {}
        assert document["summary"]["wall_time_seconds"] == {}
        assert document["unit"]["content_hash"] == unit.content_hash

    def test_no_tmp_files_left_behind(self, tmp_path, executed):
        unit, result = executed
        store = RunStore(tmp_path / "store")
        store.save(unit, result)
        assert not list(store.units_dir.glob("*.tmp"))

    def test_keys_lists_persisted_hashes(self, tmp_path, executed):
        unit, result = executed
        store = RunStore(tmp_path / "store")
        assert len(store) == 0
        store.save(unit, result)
        assert store.keys() == [unit.content_hash] and list(store) == [unit.content_hash]


class TestErrorPaths:
    def test_missing_document_raises(self, tmp_path, unit):
        store = RunStore(tmp_path / "store")
        with pytest.raises(RunStoreError, match="no persisted result"):
            store.load(unit)

    def test_corrupt_json_raises_a_clear_error(self, tmp_path, executed):
        unit, result = executed
        store = RunStore(tmp_path / "store")
        store.save(unit, result)
        store.path_for(unit).write_text("{ not json")
        with pytest.raises(RunStoreError, match="corrupt run-store document"):
            store.load(unit)

    def test_valid_json_with_missing_fields_raises(self, tmp_path, executed):
        unit, result = executed
        store = RunStore(tmp_path / "store")
        store.save(unit, result)
        store.path_for(unit).write_text(json.dumps({"summary": {}}))
        with pytest.raises(RunStoreError, match="corrupt run-store document"):
            store.load(unit)

    def test_rejects_non_hash_keys(self, tmp_path):
        store = RunStore(tmp_path / "store")
        with pytest.raises(ValueError, match="sha256"):
            store.has("short")


class TestEnsemblePersistence:
    def test_ensemble_saved_and_reattached(self, tmp_path, unit):
        result = unit.execute(keep_ensemble=True)
        store = RunStore(tmp_path / "store")
        store.save(unit, result)
        assert store.ensemble_path_for(unit).is_file()
        assert not list(store.units_dir.glob("*.tmp.npz"))
        loaded = store.load(unit)
        np.testing.assert_array_equal(loaded.ensemble.positions, result.ensemble.positions)

    def test_with_ensemble_false_skips_the_archive(self, tmp_path, unit):
        result = unit.execute(keep_ensemble=True)
        store = RunStore(tmp_path / "store")
        store.save(unit, result)
        assert store.load(unit, with_ensemble=False).ensemble is None

    def test_truncated_ensemble_archive_raises_a_store_error(self, tmp_path, unit):
        result = unit.execute(keep_ensemble=True)
        store = RunStore(tmp_path / "store")
        store.save(unit, result)
        store.ensemble_path_for(unit).write_bytes(b"PK\x03\x04 truncated")
        with pytest.raises(RunStoreError, match="corrupt run-store ensemble"):
            store.load(unit)
        # The JSON summaries remain reachable regardless.
        assert store.load(unit, with_ensemble=False).ensemble is None

    def test_orphaned_archive_is_not_attached_to_an_ensembleless_result(self, tmp_path, unit):
        # Regression test: a crash in *another* sweep can leave an orphaned
        # .npz next to a document whose run never kept ensembles (inside the
        # grace window the sweep must not remove it either).  load() must
        # consult the document's unit.ensemble reference, not the filesystem.
        other = RunUnit(tiny_spec())
        with_ensemble = other.execute(keep_ensemble=True)
        store = RunStore(tmp_path / "store")
        store.save(unit, unit.execute())  # summaries only, no reference
        # Drop a fully valid archive at exactly the sibling path a crashed
        # keep-ensembles save of this unit would have left behind.
        with_ensemble.ensemble.save(store.ensemble_path_for(unit))
        assert store.load_document(unit)["unit"].get("ensemble") is None
        assert store.load(unit).ensemble is None
        # It is still reported (and sweepable) as an orphan.
        assert store.ensemble_path_for(unit) in store.orphaned_files(min_age_seconds=0.0)

    def test_referenced_archive_gone_missing_is_a_store_error(self, tmp_path, unit):
        # The save order makes this unreachable by crashes; if something
        # external removed the archive, silently returning a result without
        # its ensemble would hide real data loss.
        store = RunStore(tmp_path / "store")
        store.save(unit, unit.execute(keep_ensemble=True))
        store.ensemble_path_for(unit).unlink()
        with pytest.raises(RunStoreError, match="references missing ensemble archive"):
            store.load(unit)
        assert store.load(unit, with_ensemble=False).ensemble is None

    def test_execute_via_plan_matches_direct_unit_execution(self, unit):
        direct = unit.execute()
        via_plan = single(unit.spec).execute().results[0]
        np.testing.assert_array_equal(
            direct.measurement.multi_information, via_plan.measurement.multi_information
        )


class TestDurabilityAndOrphans:
    def test_save_commits_ensemble_before_document(self, tmp_path, unit, monkeypatch):
        # If the process dies between the two writes, the .npz must be the
        # file left behind (an orphan), never a document referencing a
        # missing archive: patch the document write to fail and check.
        import repro.io.artifacts as artifacts

        store = RunStore(tmp_path / "store")
        result = unit.execute(keep_ensemble=True)

        def boom(path, text, **kwargs):
            raise RuntimeError("crash between npz and json")

        monkeypatch.setattr(artifacts, "_atomic_write", boom)
        with pytest.raises(RuntimeError, match="crash"):
            store.save(unit, result)
        assert not store.has(unit)
        assert store.ensemble_path_for(unit).is_file()
        assert store.ensemble_path_for(unit) in store.orphaned_files(min_age_seconds=0.0)
        # ... but a freshly written archive is protected by the default
        # grace period: it is indistinguishable from a live writer's
        # mid-save state, which a concurrent sweep must never touch.
        assert store.orphaned_files() == []
        assert store.sweep_orphans() == []
        assert store.ensemble_path_for(unit).is_file()

    def test_orphaned_npz_is_listed_and_swept(self, tmp_path, unit):
        store = RunStore(tmp_path / "store")
        result = unit.execute(keep_ensemble=True)
        store.save(unit, result)
        assert store.orphaned_files(min_age_seconds=0.0) == []
        store.path_for(unit).unlink()  # simulate the crash aftermath
        orphans = store.orphaned_files(min_age_seconds=0.0)
        assert orphans == [store.ensemble_path_for(unit)]
        assert store.keys() == []  # read paths never see the orphan
        removed = store.sweep_orphans(min_age_seconds=0.0)
        assert removed == orphans
        assert not store.ensemble_path_for(unit).is_file()
        assert store.orphaned_files(min_age_seconds=0.0) == []

    def test_stale_temp_files_are_orphans_once_aged(self, tmp_path, unit):
        import os

        store = RunStore(tmp_path / "store")
        stale_json = store.units_dir / ("a" * 64 + ".json.12345.tmp")
        stale_npz = store.units_dir / ("b" * 64 + ".12345.tmp.npz")
        stale_json.write_text("{}")
        stale_npz.write_bytes(b"partial")
        # Fresh temporaries look like a live writer: the default grace
        # period hides them from the sweep.
        assert store.orphaned_files() == []
        # Age them past the window (as a genuine crash leftover would).
        for path in (stale_json, stale_npz):
            os.utime(path, (0, 0))
        assert set(store.orphaned_files()) == {stale_json, stale_npz}
        store.sweep_orphans()
        assert not stale_json.exists() and not stale_npz.exists()
        assert store.keys() == []

    def test_root_level_marker_temporaries_are_swept_once_aged(self, tmp_path):
        import os

        # Regression test: a writer that died between creating units/ and
        # renaming the store marker leaks run_store.json.<pid>.tmp at the
        # store *root*, which the units/-only scan never saw.
        store = RunStore(tmp_path / "store")
        leaked = store.root / f"{RunStore.MARKER_NAME}.12345.tmp"
        leaked.write_text("{}")
        # Inside the grace window it could be a live writer: protected.
        assert store.orphaned_files() == []
        os.utime(leaked, (0, 0))
        assert leaked in store.orphaned_files()
        assert leaked in store.sweep_orphans()
        assert not leaked.exists()
        # The committed marker itself is never a candidate.
        assert (store.root / RunStore.MARKER_NAME).is_file()
        assert store.orphaned_files(min_age_seconds=0.0) == []

    def test_root_level_non_temporaries_are_never_swept(self, tmp_path):
        import os

        # Only abandoned temporaries are store artifacts; a stray .npz (or
        # anything else) at the root is not ours to delete, however old.
        store = RunStore(tmp_path / "store")
        stray = store.root / "somebody_elses_data.npz"
        stray.write_bytes(b"not a store artifact")
        os.utime(stray, (0, 0))
        assert store.orphaned_files(min_age_seconds=0.0) == []
        assert store.sweep_orphans(min_age_seconds=0.0) == []
        assert stray.exists()

    def test_committed_pair_is_never_swept(self, tmp_path, unit):
        store = RunStore(tmp_path / "store")
        result = unit.execute(keep_ensemble=True)
        store.save(unit, result)
        assert store.sweep_orphans(min_age_seconds=0.0) == []
        assert store.has(unit)
        assert store.ensemble_path_for(unit).is_file()
        loaded = store.load(unit)
        assert loaded.ensemble is not None

    def test_atomic_write_leaves_no_temporaries(self, tmp_path):
        from repro.io.artifacts import _atomic_write

        target = tmp_path / "doc.json"
        _atomic_write(target, '{"ok": true}')
        assert json.loads(target.read_text()) == {"ok": True}
        assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]

    def test_resume_recomputes_after_orphan_sweep(self, tmp_path, unit):
        # An orphaned archive does not satisfy a keep_ensembles cache check:
        # the unit is recomputed and the pair becomes consistent again.
        store = RunStore(tmp_path / "store")
        plan = single(unit.spec)
        plan.execute(store, keep_ensembles=True)
        store.path_for(unit).unlink()
        execution = plan.execute(store, keep_ensembles=True)
        assert execution.n_computed == 1
        assert store.has(unit)
        assert store.orphaned_files(min_age_seconds=0.0) == []

class TestConditionalSave:
    """Write-once semantics for stores shared between concurrent workers."""

    def test_default_save_still_overwrites(self, tmp_path, executed):
        # Deterministic-document tests (and recompute sweeps) rely on a plain
        # save being unconditional.
        unit, result = executed
        store = RunStore(tmp_path / "store")
        store.save(unit, result)
        before = store.path_for(unit).stat()
        store.save(unit, result)
        assert store.path_for(unit).stat().st_mtime_ns >= before.st_mtime_ns

    def test_conditional_save_never_touches_a_committed_document(self, tmp_path, executed):
        unit, result = executed
        store = RunStore(tmp_path / "store")
        store.save(unit, result)
        before = store.path_for(unit).stat()
        store.save(unit, result, overwrite=False)
        after = store.path_for(unit).stat()
        assert (before.st_mtime_ns, before.st_ino) == (after.st_mtime_ns, after.st_ino)

    def test_conditional_save_upgrades_an_ensembleless_document(self, tmp_path, unit):
        # The one rewrite conditional save must allow: the document exists
        # but does not reference an ensemble, and the new result carries one.
        store = RunStore(tmp_path / "store")
        store.save(unit, unit.execute(), overwrite=False)
        assert "ensemble" not in store.load_document(unit)["unit"]
        store.save(unit, unit.execute(keep_ensemble=True), overwrite=False)
        document = store.load_document(unit)["unit"]
        assert document["ensemble"] == store.ensemble_path_for(unit).name
        assert store.load(unit).ensemble is not None

    def test_provides_ensemble_reads_the_reference_not_the_sibling_file(self, tmp_path, unit):
        store = RunStore(tmp_path / "store")
        assert not store.provides_ensemble(unit)  # nothing persisted at all
        store.save(unit, unit.execute())
        assert store.has(unit) and not store.provides_ensemble(unit)
        # A bare sibling .npz (orphan of a crashed save) must not count.
        store.ensemble_path_for(unit).write_bytes(b"orphaned archive")
        assert not store.provides_ensemble(unit)
        store.save(unit, unit.execute(keep_ensemble=True))
        assert store.provides_ensemble(unit)


class TestLeases:
    HASH = "a" * 64
    OTHER = "b" * 64

    def test_acquire_is_exclusive_until_released(self, tmp_path):
        store = RunStore(tmp_path / "store")
        assert store.try_acquire_lease(self.HASH, "worker-1", ttl_seconds=30.0)
        assert not store.try_acquire_lease(self.HASH, "worker-2", ttl_seconds=30.0)
        store.release_lease(self.HASH, "worker-1")
        assert store.try_acquire_lease(self.HASH, "worker-2", ttl_seconds=30.0)

    def test_reacquiring_ones_own_lease_renews_it(self, tmp_path):
        store = RunStore(tmp_path / "store")
        assert store.try_acquire_lease(self.HASH, "worker-1", ttl_seconds=30.0)
        assert store.try_acquire_lease(self.HASH, "worker-1", ttl_seconds=30.0)

    def test_independent_units_lease_independently(self, tmp_path):
        store = RunStore(tmp_path / "store")
        assert store.try_acquire_lease(self.HASH, "worker-1", ttl_seconds=30.0)
        assert store.try_acquire_lease(self.OTHER, "worker-2", ttl_seconds=30.0)

    def test_expired_lease_is_stolen(self, tmp_path):
        import time

        store = RunStore(tmp_path / "store")
        assert store.try_acquire_lease(self.HASH, "dead-worker", ttl_seconds=0.05)
        time.sleep(0.1)
        assert store.try_acquire_lease(self.HASH, "worker-2", ttl_seconds=30.0)
        # ... and the theft is visible to the dead owner's renewals.
        assert not store.renew_lease(self.HASH, "dead-worker", ttl_seconds=30.0)

    def test_renew_extends_only_ones_own_live_lease(self, tmp_path):
        store = RunStore(tmp_path / "store")
        assert not store.renew_lease(self.HASH, "worker-1")  # never acquired
        assert store.try_acquire_lease(self.HASH, "worker-1", ttl_seconds=30.0)
        assert store.renew_lease(self.HASH, "worker-1", ttl_seconds=30.0)
        assert not store.renew_lease(self.HASH, "worker-2", ttl_seconds=30.0)

    def test_release_ignores_leases_held_by_others(self, tmp_path):
        store = RunStore(tmp_path / "store")
        assert store.try_acquire_lease(self.HASH, "worker-1", ttl_seconds=30.0)
        store.release_lease(self.HASH, "worker-2")  # not yours: no-op
        assert not store.try_acquire_lease(self.HASH, "worker-2", ttl_seconds=30.0)

    def test_unreadable_lease_file_is_treated_as_stale(self, tmp_path):
        store = RunStore(tmp_path / "store")
        store.leases_dir.mkdir(parents=True, exist_ok=True)
        store.lease_path_for(self.HASH).write_text("not json {")
        assert store.try_acquire_lease(self.HASH, "worker-1", ttl_seconds=30.0)

    def test_a_peer_preempting_an_acquire_anywhere_never_makes_two_holders(self, tmp_path):
        # Deterministic interleaving: a line tracer pauses worker-1's acquire
        # at its k-th executed store line and runs worker-2's whole acquire
        # there, for every k.  Exactly one of them may end up holding the
        # lease — in particular, worker-2 must never read a claim worker-1
        # has created but not yet filled as an unreadable, stealable lease.
        import sys

        import repro.io.artifacts as artifacts_module

        point = 0
        while True:
            store = RunStore(tmp_path / f"store-{point}")
            lines = iter(range(point + 1))
            peer: list[bool] = []

            def on_line(frame, event, arg):
                if event == "line" and next(lines, None) == point:
                    peer.append(store.try_acquire_lease(self.HASH, "worker-2", 30.0))
                return on_line

            def on_call(frame, event, arg):
                return on_line if frame.f_code.co_filename == artifacts_module.__file__ else None

            previous = sys.gettrace()
            sys.settrace(on_call)
            try:
                mine = store.try_acquire_lease(self.HASH, "worker-1", 30.0)
            finally:
                sys.settrace(previous)
            if not peer:  # past worker-1's last line: every point was tried
                break
            assert mine != peer[0], f"preempted at line event {point}"
            holder = json.loads(store.lease_path_for(self.HASH).read_text())["owner"]
            assert holder == ("worker-1" if mine else "worker-2"), point
            point += 1
        assert point > 3

    def test_racing_threads_leave_exactly_one_holder_per_unit(self, tmp_path):
        # Stress companion of the interleaving test above: more acquirers
        # than cores, a shortened switch interval, fresh units throughout.
        import sys
        import threading

        store = RunStore(tmp_path / "store")
        hashes = [f"{i:064x}" for i in range(150)]
        winners: dict[str, list[str]] = {h: [] for h in hashes}
        barrier = threading.Barrier(4)
        errors: list[Exception] = []

        def acquirer(owner: str) -> None:
            try:
                barrier.wait(timeout=10.0)
                for content_hash in hashes:
                    if store.try_acquire_lease(content_hash, owner, 30.0):
                        winners[content_hash].append(owner)
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=acquirer, args=(f"w{i}",)) for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert all(len(owners) == 1 for owners in winners.values()), winners

    def test_expired_lease_files_are_orphans_once_aged(self, tmp_path):
        import os

        store = RunStore(tmp_path / "store")
        assert store.try_acquire_lease(self.HASH, "dead-worker", ttl_seconds=0.0)
        lease_path = store.lease_path_for(self.HASH)
        # Young files stay protected even when expired (a renewal may be in
        # flight); aged ones are crash leftovers and sweepable.
        assert lease_path not in store.orphaned_files(min_age_seconds=3600.0)
        os.utime(lease_path, (0, 0))
        assert lease_path in store.orphaned_files()
        store.sweep_orphans()
        assert not lease_path.exists()

    def test_live_lease_files_are_never_orphans(self, tmp_path):
        import os

        store = RunStore(tmp_path / "store")
        assert store.try_acquire_lease(self.HASH, "worker-1", ttl_seconds=10_000.0)
        os.utime(store.lease_path_for(self.HASH), (0, 0))
        assert store.lease_path_for(self.HASH) not in store.orphaned_files()
