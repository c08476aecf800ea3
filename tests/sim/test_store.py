"""Tests for the content-addressed result store and its engine integrations."""

import json
import os

import numpy as np
import pytest

from repro import faults
from repro.faults import FaultPlan, FaultSpec
from repro.sim.batch import BatchRunner
from repro.sim.metrics import SeriesResult, SweepResult
from repro.sim.network_engine import run_scenario_grid, run_scenario_stored
from repro.sim.scenario import get_scenario
from repro.sim.store import (
    READ_ONLY_THRESHOLD,
    ResultStore,
    figure_driver_key,
    scenario_key,
    waveform_cell_key,
)
from repro.sim.waveform_engine import ReceiverSpec, WaveformSweepSpec, run_sweep

KEY_A = {"kind": "test", "name": "a", "seed": 1}
KEY_B = {"kind": "test", "name": "b", "seed": 2}


def _entry_files(store: ResultStore):
    return [path for shard in sorted(store.root.iterdir()) if shard.is_dir()
            for path in sorted(shard.glob("*.json"))]


# ---------------------------------------------------------------------------
# Core store behaviour
# ---------------------------------------------------------------------------

class TestResultStore:
    def test_roundtrip(self, tmp_path):
        store = ResultStore(tmp_path)
        payload = {"values": [1, 2.5, "x"], "nested": {"k": [3, 4]}}
        store.put(KEY_A, payload)
        assert store.get(KEY_A) == payload
        assert store.stats()["hits"] == 1
        assert store.stats()["puts"] == 1

    def test_missing_entry_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.get(KEY_A) is None
        assert store.stats()["misses"] == 1

    def test_payload_dict_order_survives_the_roundtrip(self, tmp_path):
        store = ResultStore(tmp_path)
        payload = {"zeta": 1, "alpha": 2, "mid": 3}
        store.put(KEY_A, payload)
        assert list(store.get(KEY_A)) == ["zeta", "alpha", "mid"]

    def test_truncated_entry_is_a_miss_and_removed(self, tmp_path):
        store = ResultStore(tmp_path)
        path = store.put(KEY_A, {"x": 1})
        path.write_text(path.read_text()[: 10])  # simulate a torn write
        assert store.get(KEY_A) is None
        assert store.corrupt == 1
        assert not path.exists()
        # After the recompute-and-put the entry works again.
        store.put(KEY_A, {"x": 1})
        assert store.get(KEY_A) == {"x": 1}

    def test_garbage_entry_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        path = store.put(KEY_A, {"x": 1})
        path.write_text("not json at all")
        assert store.get(KEY_A) is None
        assert store.corrupt == 1

    def test_key_mismatch_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        # Write KEY_B's entry under KEY_A's digest (models a digest-scheme
        # change or a collision): the stored-key check must refuse it.
        path_a = store.path_for(store.digest(KEY_A))
        path_a.parent.mkdir(parents=True, exist_ok=True)
        path_a.write_text(json.dumps(
            {"schema": 1, "key": KEY_B, "payload": {"x": 1}}))
        assert store.get(KEY_A) is None
        assert store.corrupt == 1

    def test_lru_eviction_beyond_max_entries(self, tmp_path):
        store = ResultStore(tmp_path, max_entries=3)
        keys = [{"kind": "test", "i": i} for i in range(4)]
        for age, key in enumerate(keys[:3]):
            path = store.put(key, {"i": age})
            os.utime(path, (1000 + age, 1000 + age))
        store.put(keys[3], {"i": 3})
        assert store.evictions == 1
        assert store.get(keys[0]) is None          # oldest evicted
        assert store.get(keys[1]) == {"i": 1}      # survivors intact
        assert store.get(keys[3]) == {"i": 3}

    def test_hit_refreshes_recency(self, tmp_path):
        store = ResultStore(tmp_path, max_entries=2)
        first = store.put({"i": 0}, {"i": 0})
        second = store.put({"i": 1}, {"i": 1})
        os.utime(first, (1000, 1000))
        os.utime(second, (2000, 2000))
        assert store.get({"i": 0}) == {"i": 0}     # refreshes mtime to now
        store.put({"i": 2}, {"i": 2})
        assert store.get({"i": 0}) == {"i": 0}     # kept: recently used
        assert store.get({"i": 1}) is None         # evicted instead

    def test_eviction_tie_break_is_deterministic_on_equal_mtimes(self, tmp_path):
        """On 1s-granularity filesystems a put burst ties on mtime; the
        digest tie-break keeps LRU order total and deterministic."""
        store = ResultStore(tmp_path)
        keys = [{"kind": "test", "i": i} for i in range(4)]
        paths = {}
        for key in keys:
            path = store.put(key, {"ok": True})
            os.utime(path, (1000, 1000))           # everyone ties
            paths[path.name] = key
        assert store.gc(2) == 2
        survivors = sorted(paths)[2:]              # largest digests survive
        for name, key in paths.items():
            expected = {"ok": True} if name in survivors else None
            assert store.get(key) == expected

    def test_eviction_of_an_already_deleted_entry_is_benign(self, tmp_path):
        """A concurrent process deleting an entry mid-scan must not break
        eviction (the delete-vs-put race the serve layer exposes)."""
        store = ResultStore(tmp_path)
        paths = []
        for i in range(4):
            path = store.put({"i": i}, {"i": i})
            os.utime(path, (1000 + i, 1000 + i))
            paths.append(path)
        paths[0].unlink()                          # raced away behind our back
        removed = store.gc(1)
        assert removed == 2                        # only files actually deleted
        assert store.stats()["entries"] == 1
        assert store.get({"i": 3}) == {"i": 3}

    def test_concurrent_put_and_evict_stress(self, tmp_path):
        """Hammer put/get/gc from threads: no exceptions, bound respected,
        and every surviving entry still round-trips."""
        import threading

        store = ResultStore(tmp_path, max_entries=8)
        errors = []

        def writer(base):
            try:
                for i in range(40):
                    key = {"worker": base, "i": i}
                    store.put(key, {"worker": base, "i": i})
                    payload = store.get(key)
                    assert payload is None or payload == {"worker": base, "i": i}
            except Exception as error:  # noqa: BLE001 - collected for assert
                errors.append(error)

        def collector():
            try:
                for _ in range(25):
                    store.gc(4)
            except Exception as error:  # noqa: BLE001 - collected for assert
                errors.append(error)

        threads = [threading.Thread(target=writer, args=(n,)) for n in range(4)]
        threads.append(threading.Thread(target=collector))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        stats = store.stats()
        assert stats["entries"] == len(_entry_files(store))
        assert stats["entries"] <= 8
        for path in _entry_files(store):
            entry = json.loads(path.read_text())
            assert store.get(entry["key"]) == entry["payload"]

    def test_gc_prunes_to_bound(self, tmp_path):
        store = ResultStore(tmp_path)
        for i in range(5):
            path = store.put({"i": i}, {"i": i})
            os.utime(path, (1000 + i, 1000 + i))
        assert store.gc(2) == 3
        assert store.stats()["entries"] == 2
        assert store.get({"i": 4}) == {"i": 4}

    def test_clear_removes_everything(self, tmp_path):
        store = ResultStore(tmp_path)
        for i in range(3):
            store.put({"i": i}, {"i": i})
        assert store.clear() == 3
        assert store.stats()["entries"] == 0
        assert store.stats()["bytes"] == 0

    def test_stats_on_a_fresh_store(self, tmp_path):
        stats = ResultStore(tmp_path / "nowhere").stats()
        assert stats["entries"] == 0 and stats["bytes"] == 0

    def test_entries_shard_by_digest_prefix(self, tmp_path):
        store = ResultStore(tmp_path)
        path = store.put(KEY_A, {"x": 1})
        digest = store.digest(KEY_A)
        assert path.parent.name == digest[:2]
        assert path.name == f"{digest}.json"

    def test_non_json_payload_degrades_to_not_caching(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.put(KEY_A, {"x": float("nan")}) is None
        assert store.put(KEY_B, {"x": object()}) is None
        assert store.uncacheable == 2
        assert store.stats()["entries"] == 0

    def test_unwritable_store_degrades_to_not_caching(self, tmp_path, monkeypatch):
        # chmod tricks don't bite under root, so inject the failure where a
        # read-only or full filesystem would surface it.
        import tempfile as tempfile_module

        def denied(*args, **kwargs):
            raise PermissionError("read-only store")

        monkeypatch.setattr(tempfile_module, "mkstemp", denied)
        store = ResultStore(tmp_path)
        assert store.get(KEY_A) is None          # miss, no error
        assert store.put(KEY_A, {"x": 1}) is None
        assert store.uncacheable == 1
        assert store.stats()["entries"] == 0



# ---------------------------------------------------------------------------
# Key schemas
# ---------------------------------------------------------------------------

def _fake_driver_v1(*, random_state=3):
    result = SweepResult(title="Fake")
    result.add_series(SeriesResult.from_arrays("s", [0.0, 1.0],
                                               [float(random_state), 1.0]))
    result.add_scalar("seed", float(random_state))
    return result


def _fake_driver_v2(*, random_state=3):
    result = SweepResult(title="Fake")
    result.add_series(SeriesResult.from_arrays("s", [0.0, 1.0],
                                               [float(random_state), 2.0]))
    result.add_scalar("seed", float(random_state))
    return result


def _other_driver(*, random_state=5):
    result = SweepResult(title="Other")
    result.add_scalar("seed", float(random_state))
    return result


class TestKeySchemas:
    def test_figure_key_is_per_driver(self):
        key_v1 = figure_driver_key("a", _fake_driver_v1, {"random_state": 3}, 3)
        key_v2 = figure_driver_key("a", _fake_driver_v2, {"random_state": 3}, 3)
        other = figure_driver_key("b", _other_driver, {"random_state": 5}, 5)
        assert ResultStore.digest(key_v1) != ResultStore.digest(key_v2)
        # Swapping one driver's source leaves the other driver's key alone.
        assert ResultStore.digest(other) == ResultStore.digest(
            figure_driver_key("b", _other_driver, {"random_state": 5}, 5))

    def test_waveform_cell_key_ignores_engine_but_not_precision(self):
        spec = ReceiverSpec()
        base = waveform_cell_key(spec, -6.0, 2, 7, num_symbols=8,
                                 symbols_per_burst=4, precision="reference")
        fast = waveform_cell_key(spec, -6.0, 2, 7, num_symbols=8,
                                 symbols_per_burst=4, precision="fast")
        assert ResultStore.digest(base) != ResultStore.digest(fast)
        assert "engine" not in base  # engines are bit-identical by contract

    def test_waveform_cell_key_pins_the_substream_index(self):
        spec = ReceiverSpec()
        one = waveform_cell_key(spec, -6.0, 1, 7, num_symbols=8,
                                symbols_per_burst=4, precision="reference")
        two = waveform_cell_key(spec, -6.0, 2, 7, num_symbols=8,
                                symbols_per_burst=4, precision="reference")
        assert ResultStore.digest(one) != ResultStore.digest(two)

    def test_scenario_key_separates_engines(self):
        spec = get_scenario("aloha-dense")
        batch = scenario_key(spec, 0, "batch")
        event = scenario_key(spec, 0, "event")
        scalar = scenario_key(spec, 0, "scalar")
        assert ResultStore.digest(batch) != ResultStore.digest(event)
        assert ResultStore.digest(event) == ResultStore.digest(scalar)

    def test_library_fingerprint_is_stable_and_covers_the_library(self):
        from repro.sim.store import library_fingerprint

        assert library_fingerprint() == library_fingerprint()
        assert len(library_fingerprint()) == 64

    def test_scaffold_fingerprint_ignores_driver_bodies_not_helpers(self, tmp_path):
        import sys

        from repro.sim.store import _scaffold_fingerprint

        base = ("HELPER_CONSTANT = {constant}\n"
                "def helper(x):\n"
                "    return x + {helper_term}\n"
                "def driver():\n"
                "    return helper({driver_arg})\n")
        variants = {
            "scaffold_v1": dict(constant=1, helper_term=2, driver_arg=3),
            "scaffold_v2": dict(constant=1, helper_term=2, driver_arg=99),
            "scaffold_v3": dict(constant=1, helper_term=77, driver_arg=3),
        }
        for name, fields in variants.items():
            (tmp_path / f"{name}.py").write_text(base.format(**fields))
        sys.path.insert(0, str(tmp_path))
        try:
            v1 = _scaffold_fingerprint("scaffold_v1", ("driver",))
            v2 = _scaffold_fingerprint("scaffold_v2", ("driver",))
            v3 = _scaffold_fingerprint("scaffold_v3", ("driver",))
        finally:
            sys.path.remove(str(tmp_path))
            for name in variants:
                sys.modules.pop(name, None)
        # Editing only a registered driver's body leaves the scaffold
        # unchanged (per-driver invalidation survives) ...
        assert v1 == v2
        # ... while editing a shared helper changes it (no stale hits).
        assert v1 != v3

    def test_figure_key_includes_the_module_scaffold(self):
        key = figure_driver_key("a", _fake_driver_v1, {"random_state": 3}, 3)
        assert len(key["scaffold_fingerprint"]) == 64


# ---------------------------------------------------------------------------
# BatchRunner integration
# ---------------------------------------------------------------------------

class TestBatchRunnerStore:
    DRIVERS = {"fake": _fake_driver_v1, "other": _other_driver}

    def test_warm_rerun_is_bit_identical_and_all_hits(self, tmp_path):
        cold = BatchRunner(self.DRIVERS, store=ResultStore(tmp_path)).run()
        warm_store = ResultStore(tmp_path)
        warm = BatchRunner(self.DRIVERS, store=warm_store).run()
        for artefact in self.DRIVERS:
            assert (json.dumps(cold.results[artefact].to_dict(), sort_keys=True)
                    == json.dumps(warm.results[artefact].to_dict(), sort_keys=True))
            assert cold.manifests[artefact].store["hit"] is False
            assert warm.manifests[artefact].store["hit"] is True
            assert (warm.manifests[artefact].store["digest"]
                    == cold.manifests[artefact].store["digest"])
        assert warm_store.hits == len(self.DRIVERS)
        assert warm_store.misses == 0

    def test_store_matches_storeless_run(self, tmp_path):
        stored = BatchRunner(self.DRIVERS, store=ResultStore(tmp_path)).run()
        plain = BatchRunner(self.DRIVERS).run()
        for artefact in self.DRIVERS:
            assert (json.dumps(stored.results[artefact].to_dict(), sort_keys=True)
                    == json.dumps(plain.results[artefact].to_dict(), sort_keys=True))
            assert plain.manifests[artefact].store is None

    def test_editing_one_driver_invalidates_only_its_entries(self, tmp_path):
        BatchRunner(self.DRIVERS, store=ResultStore(tmp_path)).run()
        # "Edit" the fake driver by swapping in a source-divergent twin.
        edited = {"fake": _fake_driver_v2, "other": _other_driver}
        store = ResultStore(tmp_path)
        report = BatchRunner(edited, store=store).run()
        assert report.manifests["fake"].store["hit"] is False
        assert report.manifests["other"].store["hit"] is True
        assert report.results["fake"].get_series("s").y[1] == 2.0

    def test_seed_override_is_part_of_the_key(self, tmp_path):
        store = ResultStore(tmp_path)
        runner = BatchRunner(self.DRIVERS, store=store)
        runner.run(["fake"], random_state=11)
        warm = BatchRunner(self.DRIVERS, store=store)
        hit = warm.run(["fake"], random_state=11)
        assert hit.manifests["fake"].store["hit"] is True
        assert hit.results["fake"].scalars["seed"] == 11.0
        miss = warm.run(["fake"], random_state=12)
        assert miss.manifests["fake"].store["hit"] is False

    def test_corrupt_entry_recovers_by_recompute(self, tmp_path):
        store = ResultStore(tmp_path)
        BatchRunner(self.DRIVERS, store=store).run(["fake"])
        for path in _entry_files(store):
            path.write_text(path.read_text()[: 5])
        report = BatchRunner(self.DRIVERS, store=store).run(["fake"])
        assert report.manifests["fake"].store["hit"] is False
        assert report.results["fake"].scalars["seed"] == 3.0


# ---------------------------------------------------------------------------
# Waveform per-cell integration
# ---------------------------------------------------------------------------

SPEC = WaveformSweepSpec(
    name="store-test",
    receivers=(ReceiverSpec(), ReceiverSpec(kind="standard_lora")),
    snrs_db=(-6.0, 6.0),
    num_symbols=8,
    symbols_per_burst=4,
    seed=123,
)


class TestWaveformStore:
    def test_cold_then_warm_is_bit_identical(self, tmp_path):
        plain = run_sweep(SPEC)
        cold = run_sweep(SPEC, store=ResultStore(tmp_path))
        warm = run_sweep(SPEC, store=ResultStore(tmp_path))
        assert cold.cells == plain.cells == warm.cells
        assert cold.store_provenance == ("miss",) * SPEC.num_cells
        assert warm.store_provenance == ("hit",) * SPEC.num_cells
        assert cold.store_misses == warm.store_hits == SPEC.num_cells

    def test_serial_engine_hits_batch_entries(self, tmp_path):
        run_sweep(SPEC, store=ResultStore(tmp_path))
        warm = run_sweep(SPEC, engine="serial", store=ResultStore(tmp_path))
        assert warm.store_hits == SPEC.num_cells
        assert warm.cells == run_sweep(SPEC).cells

    def test_partial_invalidation_recomputes_only_missing_cells(self, tmp_path):
        store = ResultStore(tmp_path)
        cold = run_sweep(SPEC, store=store)
        victims = _entry_files(store)[:2]
        for path in victims:
            path.unlink()
        warm_store = ResultStore(tmp_path)
        warm = run_sweep(SPEC, store=warm_store)
        assert warm.cells == cold.cells
        assert warm.store_hits == SPEC.num_cells - 2
        assert warm.store_misses == 2

    def test_truncated_cell_is_recomputed(self, tmp_path):
        store = ResultStore(tmp_path)
        cold = run_sweep(SPEC, store=store)
        path = _entry_files(store)[0]
        path.write_text(path.read_text()[: 8])
        warm = run_sweep(SPEC, store=ResultStore(tmp_path))
        assert warm.cells == cold.cells
        assert warm.store_misses == 1

    def test_generator_seed_skips_the_store(self, tmp_path):
        store = ResultStore(tmp_path)
        result = run_sweep(SPEC, random_state=np.random.default_rng(1),
                           store=store)
        assert result.store_provenance is None
        assert store.stats()["entries"] == 0

    def test_without_store_provenance_is_none(self):
        assert run_sweep(SPEC).store_provenance is None


# ---------------------------------------------------------------------------
# Scenario integration
# ---------------------------------------------------------------------------

class TestScenarioStore:
    def test_stored_run_roundtrips(self, tmp_path):
        spec = get_scenario("aloha-dense")
        cold, cold_state = run_scenario_stored(spec, store=ResultStore(tmp_path))
        warm, warm_state = run_scenario_stored(spec, store=ResultStore(tmp_path))
        assert (cold_state, warm_state) == ("miss", "hit")
        assert warm.to_dict() == cold.to_dict()
        assert warm.comparison_key() == run_scenario_stored(spec)[0].comparison_key()

    def test_no_store_reports_off(self):
        result, state = run_scenario_stored(get_scenario("aloha-dense"))
        assert state == "off"
        assert result.scenario == "aloha-dense"

    def test_override_callables_fall_back_to_off(self, tmp_path):
        spec = get_scenario("aloha-dense").with_(
            uplink_probability_override=lambda tag, channel: 0.5)
        store = ResultStore(tmp_path)
        result, state = run_scenario_stored(spec, store=store)
        assert state == "off"
        assert store.stats()["entries"] == 0
        assert result.packets > 0

    def test_grid_warm_rerun_matches_plain(self, tmp_path):
        names = ["aloha-dense", "arq-outdoor"]
        cold = run_scenario_grid(names, store=ResultStore(tmp_path),
                                 parallel=False)
        warm_store = ResultStore(tmp_path)
        warm = run_scenario_grid(names, store=warm_store, parallel=False)
        plain = run_scenario_grid(names, parallel=False)
        assert warm_store.hits == len(names)
        for name in names:
            assert warm[name].to_dict() == cold[name].to_dict()
            assert warm[name].to_dict() == plain[name].to_dict()


# ---------------------------------------------------------------------------
# Fault injection and graceful degradation
# ---------------------------------------------------------------------------

class TestStoreFaultsAndDegradation:
    @pytest.fixture(autouse=True)
    def _clean_plan(self):
        faults.clear()
        yield
        faults.clear()

    def test_injected_write_fault_degrades_to_uncached_success(self, tmp_path):
        store = ResultStore(tmp_path)
        plan = FaultPlan(specs=(
            FaultSpec(kind="store_write_error", site="store.write", at=(0,)),))
        with faults.inject(plan):
            assert store.put(KEY_A, {"x": 1}) is None   # degraded to no-op
            assert store.get(KEY_A) is None             # nothing on disk
            path = store.put(KEY_A, {"x": 1})           # next write is healthy
        assert path is not None
        assert store.get(KEY_A) == {"x": 1}
        stats = store.stats()
        assert stats["write_errors"] == 1
        assert stats["read_only"] is False  # one blip is not persistent failure

    def test_persistent_write_failures_flip_read_only_then_self_heal(self, tmp_path):
        store = ResultStore(tmp_path)
        plan = FaultPlan(specs=(
            FaultSpec(kind="store_write_error", site="store.write",
                      probability=1.0, max_fires=READ_ONLY_THRESHOLD),))
        with faults.inject(plan):
            for i in range(READ_ONLY_THRESHOLD):
                assert store.put({"kind": "test", "i": i}, {"v": i}) is None
            assert store.read_only is True
            assert store.stats()["read_only"] is True
            # the fault budget is spent: the first healthy write self-heals
            assert store.put(KEY_B, {"ok": 1}) is not None
        assert store.read_only is False
        assert store.get(KEY_B) == {"ok": 1}

    def test_injected_corrupt_entry_is_a_miss_then_recovers(self, tmp_path):
        store = ResultStore(tmp_path)
        plan = FaultPlan(specs=(
            FaultSpec(kind="store_corrupt_entry", site="store.corrupt",
                      at=(0,)),))
        with faults.inject(plan):
            path = store.put(KEY_A, {"x": 1})
        assert path is not None and path.exists()
        assert store.get(KEY_A) is None   # bit-rot detected: a miss
        assert store.corrupt == 1
        assert not path.exists()          # the damaged file was dropped
        store.put(KEY_A, {"x": 1})
        assert store.get(KEY_A) == {"x": 1}

    def test_store_root_deleted_under_a_live_store(self, tmp_path):
        """`rm -rf` of the store root under a live server must degrade to
        misses (recompute) and recreate the tree on the next write — the
        daemon never crashes and never reports read-only."""
        import shutil

        root = tmp_path / "store"
        store = ResultStore(root)
        store.put(KEY_A, {"x": 1})
        assert store.get(KEY_A) == {"x": 1}
        shutil.rmtree(root)
        assert store.get(KEY_A) is None            # graceful miss
        path = store.put(KEY_A, {"x": 2})          # recreates the shard dirs
        assert path is not None and path.exists()
        assert store.get(KEY_A) == {"x": 2}
        assert store.stats()["read_only"] is False
        assert store.stats()["hits"] == 2
