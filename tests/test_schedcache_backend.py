"""Backend-aware schedule-cache keying and pre-fix-entry eviction.

The GPU analogue of the PR-4 extents-digest regression: a cached
schedule must record which backend's tile hierarchy produced it, and a
backend-aware load must evict entries that recorded a different one —
or none at all (entries written by a pre-backend build).
"""

import dataclasses
import json
import os

import pytest

from repro.backend import backend_name_for, machine_digest
from repro.fusion import ScheduleCache, dp_group, schedule_cache_key
from repro.model import AMD_OPTERON, GPU_A100, GPU_V100, XEON_HASWELL

from conftest import build_blur


def _entry_path(cache, pipeline, key):
    return os.path.join(cache.directory, f"{pipeline.name}-{key}.json")


class TestKeying:
    def test_cpu_and_gpu_machines_key_differently(self):
        pipe = build_blur()
        keys = {
            schedule_cache_key(pipe, m)
            for m in (XEON_HASWELL, AMD_OPTERON, GPU_V100, GPU_A100)
        }
        assert len(keys) == 4

    def test_any_capacity_change_changes_the_key(self):
        pipe = build_blur()
        tweaked = dataclasses.replace(GPU_V100, shared_mem_per_sm=2 ** 17)
        assert machine_digest(tweaked) != machine_digest(GPU_V100)
        assert schedule_cache_key(pipe, tweaked) != \
            schedule_cache_key(pipe, GPU_V100)
        # Registers too — a warp-budget change moves warp tiles.
        retweaked = dataclasses.replace(
            GPU_V100, register_file_per_sm=2 ** 19
        )
        assert schedule_cache_key(pipe, retweaked) != \
            schedule_cache_key(pipe, GPU_V100)

    def test_key_is_stable_for_the_same_machine(self):
        pipe = build_blur()
        assert schedule_cache_key(pipe, GPU_V100) == \
            schedule_cache_key(pipe, GPU_V100)


class TestBackendEviction:
    def _store(self, tmp_path, backend=None):
        pipe = build_blur()
        cache = ScheduleCache(str(tmp_path))
        grouping = dp_group(pipe, XEON_HASWELL)
        key = schedule_cache_key(pipe, XEON_HASWELL)
        cache.store(grouping, key, backend=backend)
        return pipe, cache, grouping, key

    def test_round_trip_with_backend_recorded(self, tmp_path):
        pipe, cache, grouping, key = self._store(tmp_path, backend="cpu")
        hit = cache.load(pipe, key, backend="cpu")
        assert hit is not None
        assert hit.group_names() == grouping.group_names()
        assert cache.hits == 1 and cache.evictions == 0

    def test_pre_backend_entry_is_evicted_and_rewritten(self, tmp_path):
        # Simulate an entry written before the backend field existed:
        # store normally, then strip the field on disk.
        pipe, cache, grouping, key = self._store(tmp_path, backend="cpu")
        path = _entry_path(cache, pipe, key)
        with open(path) as fh:
            data = json.load(fh)
        assert data["backend"] == "cpu"
        del data["backend"]
        with open(path, "w") as fh:
            json.dump(data, fh)
        assert cache.load(pipe, key, backend="cpu") is None
        assert cache.evictions == 1
        assert not os.path.exists(path)
        # Rescheduling repopulates the entry with the field present.
        cache.store(grouping, key, backend=backend_name_for(XEON_HASWELL))
        with open(path) as fh:
            assert json.load(fh)["backend"] == "cpu"
        assert cache.load(pipe, key, backend="cpu") is not None

    def test_other_backends_entry_is_evicted(self, tmp_path):
        pipe, cache, grouping, key = self._store(tmp_path, backend="gpu")
        assert cache.load(pipe, key, backend="cpu") is None
        assert cache.evictions == 1
        assert not os.path.exists(_entry_path(cache, pipe, key))

    def test_backend_agnostic_load_still_hits(self, tmp_path):
        # Callers that pass no backend keep the old behaviour.
        pipe, cache, grouping, key = self._store(tmp_path, backend=None)
        assert cache.load(pipe, key) is not None
        assert cache.hits == 1


class TestPlannerUsesBackendAwareCache:
    def test_plan_schedule_survives_pre_backend_entries(self, tmp_path):
        from repro.planner import build_benchmark, plan_schedule

        bench, pipe = build_benchmark("UM", 0.1)
        grouping, _ = plan_schedule(
            pipe, bench, XEON_HASWELL, "dp", 1_500_000,
            strict=False, schedule_cache=str(tmp_path),
        )
        entries = [n for n in os.listdir(str(tmp_path)) if n.endswith(".json")]
        assert len(entries) == 1
        path = os.path.join(str(tmp_path), entries[0])
        with open(path) as fh:
            data = json.load(fh)
        assert data["backend"] == "cpu"
        # Strip the field (pre-fix entry) — the next plan must evict,
        # reschedule, and land on the same grouping.
        del data["backend"]
        with open(path, "w") as fh:
            json.dump(data, fh)
        regrouping, _ = plan_schedule(
            pipe, bench, XEON_HASWELL, "dp", 1_500_000,
            strict=False, schedule_cache=str(tmp_path),
        )
        assert regrouping.group_names() == grouping.group_names()
        with open(path) as fh:
            assert json.load(fh)["backend"] == "cpu"

    @pytest.mark.parametrize("first_strict", [True, False])
    @pytest.mark.parametrize("key", ["UM", "PB"])
    def test_strict_and_degrade_paths_share_entries(
        self, key, first_strict, tmp_path
    ):
        """What ``plan_schedule`` stores through ``schedule_pipeline``
        (strict) its degrade path loads, and vice versa — ``dp`` on UM,
        ``dp-incremental`` (what ``dp`` means for PB) on PB: one entry,
        found by both."""
        from repro.obs import METRICS
        from repro.planner import build_benchmark, plan_schedule

        bench, pipe = build_benchmark(key, 0.05)

        def plan(strict):
            return plan_schedule(
                pipe, bench, XEON_HASWELL, "dp", 1_500_000,
                strict=strict, schedule_cache=str(tmp_path),
            )[0]

        stored = plan(first_strict)
        METRICS.reset(enabled=True)
        try:
            loaded = plan(not first_strict)
            events = "repro_schedule_cache_events_total"
            assert METRICS.value(events, event="hit") == 1.0
            assert not METRICS.value(events, event="store")
        finally:
            METRICS.reset(enabled=False)
        assert loaded.tile_sizes == stored.tile_sizes
        assert loaded.group_names() == stored.group_names()
        assert len(os.listdir(str(tmp_path))) == 1
