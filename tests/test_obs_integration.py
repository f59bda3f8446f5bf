"""Observability end-to-end: instrumented executor/scheduler metrics,
retry classification, schedule-cache correctness fixes, and the CLI's
``--trace-json`` / ``--metrics`` flags."""

import json
import os
import threading

import numpy as np
import pytest

from repro.cli import main
from repro.errors import (
    InjectedFault,
    InputDtypeError,
    InputMissingError,
    TileExecutionError,
    is_retryable,
)
from repro.fusion import dp_group
from repro.fusion.schedcache import (
    ScheduleCache,
    extents_digest,
    schedule_cache_key,
)
from repro.fusion.api import schedule_pipeline
from repro.model import XEON_HASWELL
from repro.obs import METRICS, TRACE, parse_prometheus_text
from repro.resilience import (
    FaultSpec,
    GuardPolicy,
    ScheduleBudget,
    execute_guarded,
    inject_faults,
    resilient_schedule,
)
from repro.runtime import KernelTier, execute_grouping

from conftest import build_blur, random_inputs


@pytest.fixture(autouse=True)
def _reset_obs():
    """The global tracer/registry must never leak between tests."""
    yield
    TRACE.reset(enabled=False)
    METRICS.reset(enabled=False)


def _find_spans(node, name, out=None):
    if out is None:
        out = []
    if node["name"] == name:
        out.append(node)
    for c in node["children"]:
        _find_spans(c, name, out)
    return out


class TestExecutorMetrics:
    def test_tiles_pool_and_timing_series(self, blur_pipeline, rng):
        grouping = dp_group(blur_pipeline, XEON_HASWELL)
        METRICS.reset(enabled=True)
        execute_grouping(
            blur_pipeline, grouping, random_inputs(blur_pipeline, rng),
            nthreads=2,
        )
        assert METRICS.value("repro_tiles_total") > 0
        acquired = (
            METRICS.value("repro_pool_acquires_total", result="reused")
            + METRICS.value("repro_pool_acquires_total",
                            result="allocated")
        )
        # every pooled scratch acquisition goes back to its pool
        assert METRICS.value("repro_pool_reclaims_total") == acquired > 0
        count, total = METRICS.value(
            "repro_execute_seconds", pipeline=blur_pipeline.name,
            mode="strict",
        )
        assert count == 1 and total > 0
        for gi in range(grouping.num_groups):
            gcount, _ = METRICS.value(
                "repro_group_seconds", pipeline=blur_pipeline.name,
                group=str(gi),
            )
            assert gcount == 1

    def test_retry_counter_matches_injected_failures(
        self, blur_pipeline, rng
    ):
        grouping = dp_group(blur_pipeline, XEON_HASWELL)
        METRICS.reset(enabled=True)
        with inject_faults(
            seed=3, tile=FaultSpec(rate=1.0, max_failures=2)
        ) as injector:
            execute_grouping(
                blur_pipeline, grouping,
                random_inputs(blur_pipeline, rng),
                nthreads=1, tile_retries=3,
            )
        assert injector.total_failures() == 2
        assert METRICS.value("repro_tile_retries_total") == 2
        # nothing failed for good, so the failure metric never appears
        assert not METRICS.value(
            "repro_tile_failures_total", code="FAULT_INJECTED"
        )

    def test_exhausted_retries_count_one_failure(
        self, blur_pipeline, rng
    ):
        grouping = dp_group(blur_pipeline, XEON_HASWELL)
        METRICS.reset(enabled=True)
        with inject_faults(seed=1, tile=1.0):
            with pytest.raises(TileExecutionError) as exc_info:
                execute_grouping(
                    blur_pipeline, grouping,
                    random_inputs(blur_pipeline, rng),
                    nthreads=1, tile_retries=1,
                )
        assert exc_info.value.context["attempts"] == 2
        assert exc_info.value.context["retryable"] is True
        assert METRICS.value(
            "repro_tile_failures_total", code="FAULT_INJECTED"
        ) == 1.0
        assert METRICS.value("repro_tile_retries_total") == 1.0


class TestRetryClassification:
    def test_transient_exceptions_are_retryable(self):
        assert is_retryable(InjectedFault("boom"))
        assert is_retryable(ValueError("flaky"))
        assert is_retryable(MemoryError())

    def test_deterministic_exceptions_are_not(self):
        assert not is_retryable(KeyError("missing buffer"))
        assert not is_retryable(IndexError())
        assert not is_retryable(TypeError())
        assert not is_retryable(InputDtypeError("bad dtype"))

    def test_structured_missing_input_stays_nonretryable(self):
        # InputMissingError subclasses KeyError, but the ReproError code
        # is what classifies it
        assert not is_retryable(InputMissingError("missing"))

    def test_nonretryable_tile_fails_on_first_attempt(
        self, blur_pipeline, rng, monkeypatch
    ):
        """A deterministic failure must not burn the retry budget: the
        error surfaces with attempts=1 and the non-retryable marker."""
        from repro.runtime import executor as executor_mod

        def broken(*args, **kwargs):
            raise KeyError("buffer 'gone' not found")

        monkeypatch.setattr(
            executor_mod, "_compute_function_region", broken
        )
        grouping = dp_group(blur_pipeline, XEON_HASWELL)
        METRICS.reset(enabled=True)
        # STAGE: generated fused source never calls the per-stage
        # region helper this test breaks.
        with pytest.raises(TileExecutionError) as exc_info:
            execute_grouping(
                blur_pipeline, grouping,
                random_inputs(blur_pipeline, rng),
                nthreads=1, tile_retries=5,
                kernels=KernelTier.STAGE,
            )
        exc = exc_info.value
        assert exc.context["attempts"] == 1
        assert exc.context["retryable"] is False
        assert "(non-retryable)" in str(exc)
        assert METRICS.value("repro_tile_nonretryable_total") == 1.0
        assert not METRICS.value("repro_tile_retries_total")


class TestGuardedDegradation:
    def test_degraded_groups_metric_and_fallback_span(
        self, blur_pipeline, rng
    ):
        grouping = dp_group(blur_pipeline, XEON_HASWELL)
        METRICS.reset(enabled=True)
        TRACE.reset(enabled=True)
        with inject_faults(seed=2, tile=1.0):
            report = execute_guarded(
                blur_pipeline, grouping,
                random_inputs(blur_pipeline, rng),
                policy=GuardPolicy(tile_retries=1, degrade=True),
            )
        assert report.degraded
        degraded = sum(
            1 for o in report.outcomes if o.mode == "reference-fallback"
        )
        assert METRICS.value(
            "repro_degraded_groups_total", code="TILE_FAIL"
        ) == degraded > 0
        count, _ = METRICS.value(
            "repro_execute_seconds", pipeline=blur_pipeline.name,
            mode="guarded",
        )
        assert count == 1

        root = TRACE.to_dict()["root"]
        fallbacks = _find_spans(root, "reference-fallback")
        assert len(fallbacks) == degraded
        assert all(f["attrs"]["code"] == "TILE_FAIL" for f in fallbacks)
        groups = _find_spans(root, "group")
        assert any(
            g["attrs"].get("mode") == "reference-fallback" for g in groups
        )


class TestTraceCoverage:
    def test_group_spans_cover_executor_span(self, blur_pipeline, rng):
        """The acceptance bar: per-group spans account for >= 90% of the
        executor span's wall time (preparation is traced separately)."""
        grouping = dp_group(blur_pipeline, XEON_HASWELL)
        TRACE.reset(enabled=True)
        execute_grouping(
            blur_pipeline, grouping, random_inputs(blur_pipeline, rng),
            nthreads=2,
        )
        root = TRACE.to_dict()["root"]
        (executor,) = _find_spans(root, "execute_grouping")
        groups = [
            c for c in executor["children"] if c["name"] == "group"
        ]
        assert len(groups) == grouping.num_groups
        covered = sum(g["duration_s"] for g in groups)
        assert covered >= 0.9 * executor["duration_s"]
        # chunk spans nest under their group despite running on pool
        # worker threads
        assert _find_spans(root, "chunk")
        for g in groups:
            for chunk in g["children"]:
                assert chunk["name"] == "chunk"
                assert chunk["start_s"] >= g["start_s"]


class TestSchedulerObservability:
    def test_tier_attempts_metric_and_spans(self, blur_pipeline):
        METRICS.reset(enabled=True)
        TRACE.reset(enabled=True)
        # a zero state budget disqualifies both DP tiers -> greedy wins
        report = resilient_schedule(
            blur_pipeline, XEON_HASWELL,
            ScheduleBudget(dp_max_states=0),
        )
        assert report.tier == "greedy"
        assert METRICS.value(
            "repro_schedule_tier_attempts_total", tier="dp",
            status="failed",
        ) == 1.0
        assert METRICS.value(
            "repro_schedule_tier_attempts_total", tier="greedy",
            status="ok",
        ) == 1.0
        root = TRACE.to_dict()["root"]
        (sched,) = _find_spans(root, "resilient_schedule")
        assert sched["attrs"]["tier"] == "greedy"
        tiers = _find_spans(sched, "tier")
        assert [t["attrs"]["status"] for t in tiers][-1] == "ok"

    def test_schedule_pipeline_span_and_histogram(self, blur_pipeline):
        METRICS.reset(enabled=True)
        TRACE.reset(enabled=True)
        schedule_pipeline(blur_pipeline, XEON_HASWELL, strategy="greedy")
        count, _ = METRICS.value(
            "repro_schedule_seconds", strategy="greedy"
        )
        assert count == 1
        root = TRACE.to_dict()["root"]
        (span,) = _find_spans(root, "schedule_pipeline")
        assert span["attrs"]["strategy"] == "greedy"


class TestScheduleCacheExtents:
    """Satellite: schedules must not be shared across parameter bindings
    or domain extents (two ``--scale`` values = two cache entries)."""

    def test_key_differs_across_extents(self):
        big, small = build_blur(94, 130), build_blur(46, 64)
        assert extents_digest(big) != extents_digest(small)
        assert schedule_cache_key(big, XEON_HASWELL) != \
            schedule_cache_key(small, XEON_HASWELL)

    def test_same_extents_same_key(self):
        a, b = build_blur(94, 130), build_blur(94, 130)
        assert extents_digest(a) == extents_digest(b)
        assert schedule_cache_key(a, XEON_HASWELL) == \
            schedule_cache_key(b, XEON_HASWELL)

    def test_two_scales_get_distinct_entries(self, tmp_path):
        cache = ScheduleCache(str(tmp_path))
        big, small = build_blur(94, 130), build_blur(46, 64)
        g_big = schedule_pipeline(
            big, XEON_HASWELL, strategy="dp", schedule_cache=cache
        )
        g_small = schedule_pipeline(
            small, XEON_HASWELL, strategy="dp", schedule_cache=cache
        )
        entries = [f for f in os.listdir(tmp_path)
                   if f.endswith(".json")]
        assert len(entries) == 2
        assert cache.hits == 0
        # and each scale hits its own entry on re-schedule
        hit_big = schedule_pipeline(
            big, XEON_HASWELL, strategy="dp", schedule_cache=cache
        )
        hit_small = schedule_pipeline(
            small, XEON_HASWELL, strategy="dp", schedule_cache=cache
        )
        assert cache.hits == 2
        assert hit_big.tile_sizes == g_big.tile_sizes
        assert hit_small.tile_sizes == g_small.tile_sizes

    def test_entry_without_extents_digest_is_evicted(
        self, blur_pipeline, tmp_path
    ):
        """Entries written before the fix carry no extents digest — they
        must be evicted, not trusted."""
        cache = ScheduleCache(str(tmp_path))
        grouping = dp_group(blur_pipeline, XEON_HASWELL)
        key = schedule_cache_key(blur_pipeline, XEON_HASWELL)
        path = cache.store(grouping, key)
        data = json.loads(open(path).read())
        del data["extents"]
        with open(path, "w") as fh:
            json.dump(data, fh)
        assert cache.load(blur_pipeline, key) is None
        assert cache.evictions == 1
        assert not os.path.exists(path)

    def test_tampered_extents_digest_is_evicted(
        self, blur_pipeline, tmp_path
    ):
        cache = ScheduleCache(str(tmp_path))
        grouping = dp_group(blur_pipeline, XEON_HASWELL)
        key = schedule_cache_key(blur_pipeline, XEON_HASWELL)
        path = cache.store(grouping, key)
        data = json.loads(open(path).read())
        data["extents"] = "0" * 16
        with open(path, "w") as fh:
            json.dump(data, fh)
        assert cache.load(blur_pipeline, key) is None
        assert cache.evictions == 1

    def test_cache_event_metrics(self, blur_pipeline, tmp_path):
        METRICS.reset(enabled=True)
        cache = ScheduleCache(str(tmp_path))
        key = schedule_cache_key(blur_pipeline, XEON_HASWELL)
        assert cache.load(blur_pipeline, key) is None
        grouping = dp_group(blur_pipeline, XEON_HASWELL)
        cache.store(grouping, key)
        assert cache.load(blur_pipeline, key) is not None
        events = "repro_schedule_cache_events_total"
        assert METRICS.value(events, event="miss") == 1.0
        assert METRICS.value(events, event="store") == 1.0
        assert METRICS.value(events, event="hit") == 1.0
        assert METRICS.value(events, event="eviction") == 0.0


class TestScheduleCacheConcurrentStore:
    """Satellite: the temp-file name must be unique per call, not per
    process, so same-process concurrent stores never interleave."""

    def test_parallel_stores_leave_one_valid_entry(
        self, blur_pipeline, tmp_path
    ):
        cache = ScheduleCache(str(tmp_path))
        grouping = dp_group(blur_pipeline, XEON_HASWELL)
        key = schedule_cache_key(blur_pipeline, XEON_HASWELL)
        errors = []

        def store():
            try:
                for _ in range(10):
                    cache.store(grouping, key)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=store) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        files = os.listdir(tmp_path)
        assert [f for f in files if ".tmp." in f] == []
        (entry,) = files
        # the surviving entry is complete, valid JSON and loads cleanly
        json.loads(open(tmp_path / entry).read())
        assert cache.load(blur_pipeline, key) is not None

    def test_temp_names_are_unique_within_a_process(self):
        from repro.fusion import schedcache

        a = next(schedcache._TMP_COUNTER)
        b = next(schedcache._TMP_COUNTER)
        assert a != b


class TestCliObservability:
    def test_run_writes_trace_and_metrics(self, tmp_path, capsys):
        trace_path = tmp_path / "t.json"
        metrics_path = tmp_path / "m.prom"
        rc = main([
            "run", "HC", "--scale", "0.1", "--threads", "2",
            "--trace-json", str(trace_path),
            "--metrics", str(metrics_path),
        ])
        assert rc == 0
        capsys.readouterr()

        data = json.loads(trace_path.read_text())
        assert data["format"] == 1
        root = data["root"]
        executors = (
            _find_spans(root, "execute_guarded")
            or _find_spans(root, "execute_grouping")
        )
        (executor,) = executors
        groups = [c for c in executor["children"] if c["name"] == "group"]
        assert groups
        covered = sum(g["duration_s"] for g in groups)
        assert covered >= 0.9 * executor["duration_s"]
        # scheduling shares the tree with execution
        assert _find_spans(root, "resilient_schedule") or \
            _find_spans(root, "schedule_pipeline")
        assert _find_spans(root, "schedule_profile")

        samples = parse_prometheus_text(metrics_path.read_text())
        assert samples[("repro_tiles_total", ())] > 0
        assert any(n == "repro_execute_seconds_count"
                   for n, _ in samples)

        # collection is switched back off after the command
        assert not TRACE.enabled
        assert not METRICS.enabled

    def test_schedule_command_traces_without_execution(
        self, tmp_path, capsys
    ):
        trace_path = tmp_path / "t.json"
        rc = main([
            "schedule", "HC", "--scale", "0.1",
            "--trace-json", str(trace_path),
        ])
        assert rc == 0
        capsys.readouterr()
        root = json.loads(trace_path.read_text())["root"]
        assert _find_spans(root, "resilient_schedule") or \
            _find_spans(root, "schedule_pipeline")
        assert not _find_spans(root, "execute_grouping")

    def test_flags_off_leave_collection_disabled(self, capsys):
        rc = main(["schedule", "HC", "--scale", "0.1"])
        assert rc == 0
        capsys.readouterr()
        assert not TRACE.enabled
        assert not METRICS.enabled
