"""Schedule-cache keying across machine types.

The GPU analogue of the extents-digest regression: the key folds in
``machine_digest`` — the description's type name and every field — so
CPU and GPU machines never share a key, and any capacity change moves
it.
"""

import dataclasses
import os

import pytest

from repro.fusion import schedule_cache_key
from repro.model import AMD_OPTERON, GPU_A100, GPU_V100, XEON_HASWELL
from repro.model.machine import machine_digest

from conftest import build_blur


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


class TestPlannerUsesBackendAwareCache:
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
