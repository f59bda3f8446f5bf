"""Worker-tier tests: shared-memory primitives, fork-after-warmup
execution with bit-identity across the process boundary, shard routing,
and the circuit breaker's state machine."""

import os
import time

import numpy as np
import pytest

from repro.model.machine import XEON_HASWELL
from repro.planner import (
    build_benchmark,
    make_inputs,
    output_digests,
    plan_schedule,
)
from repro.resilience import GuardPolicy, execute_guarded
from repro.serve import HostConfig, PipelineService, ServeConfig
from repro.serve.shm import (
    SHM_PREFIX,
    Segment,
    ShmRegistry,
    list_segments,
    plan_layout,
    sweep_stale,
    view_arrays,
    write_arrays,
)
from repro.serve.supervisor import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    CircuitBreaker,
)

SCALE = 0.05
THREADS = 2


def worker_config(**kwargs):
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("heartbeat_s", 0.2)
    kwargs.setdefault("worker_timeout_s", 60.0)
    kwargs.setdefault("dispatchers", 2)
    host = HostConfig(scale=SCALE, threads=THREADS,
                      **kwargs.pop("host_kwargs", {}))
    return ServeConfig(host=host, **kwargs)


@pytest.fixture
def worker_service():
    svc = PipelineService(worker_config()).start()
    svc.warm(["UM"])
    svc.start_workers()
    yield svc
    svc.shutdown(timeout_s=60.0)


def oneshot_digests(key, seed):
    bench, pipe = build_benchmark(key, SCALE)
    grouping, _ = plan_schedule(pipe, bench, XEON_HASWELL, "dp",
                                1_200_000, strict=False)
    report = execute_guarded(
        pipe, grouping, make_inputs(pipe, seed), nthreads=THREADS,
        policy=GuardPolicy(tile_retries=1, degrade=True),
    )
    return output_digests(report.outputs)


# ---------------------------------------------------------------------------
# shared-memory primitives
# ---------------------------------------------------------------------------


class TestShm:
    def test_layout_roundtrip(self, tmp_path):
        arrays = {
            "a/x": np.arange(35, dtype=np.float32).reshape(5, 7),
            "a/y": np.arange(12, dtype=np.uint16).reshape(3, 4),
            "b/x": np.linspace(0, 1, 9, dtype=np.float64).reshape(3, 3),
        }
        total, specs = plan_layout(
            (k, a.shape, a.dtype) for k, a in sorted(arrays.items())
        )
        for offset, _, _ in specs.values():
            assert offset % 64 == 0
        reg = ShmRegistry(str(tmp_path))
        seg = reg.create(total)
        write_arrays(seg, specs, arrays)
        other = Segment.attach(seg.name, str(tmp_path))
        views = view_arrays(other, specs)
        for key, arr in arrays.items():
            assert views[key].dtype == arr.dtype
            np.testing.assert_array_equal(views[key], arr)
        reg.release(seg)
        assert list_segments(str(tmp_path)) == []

    def test_views_survive_segment_gc(self, tmp_path):
        """The mapping must outlive the Segment object as long as a
        NumPy view exists (the supervisor drops the Segment immediately
        after adopting a worker reply)."""
        import gc

        a = np.arange(64, dtype=np.float32)
        total, specs = plan_layout([("x", a.shape, a.dtype)])
        seg = Segment.create(f"{SHM_PREFIX}-{os.getpid()}-gc0",
                             total, str(tmp_path))
        write_arrays(seg, specs, {"x": a})
        other = Segment.attach(seg.name, str(tmp_path))
        other.unlink()
        view = view_arrays(other, specs)["x"]
        del other
        gc.collect()
        np.testing.assert_array_equal(view, a)
        seg.close()
        seg.unlink()

    def test_names_embed_owner_pid(self, tmp_path):
        reg = ShmRegistry(str(tmp_path))
        seg = reg.create(128)
        assert seg.name.split("-")[2] == str(os.getpid())
        reg.close()

    def test_sweep_reclaims_dead_owners_only(self, tmp_path):
        # a dead owner: pid 1 is init (alive but not ours); fabricate a
        # pid that cannot exist
        dead = f"{SHM_PREFIX}-999999999-0"
        (tmp_path / dead).write_bytes(b"\0" * 16)
        reg = ShmRegistry(str(tmp_path))
        live = reg.create(16)
        removed = sweep_stale(str(tmp_path))
        assert removed == [dead]
        assert live.name in list_segments(str(tmp_path))
        reg.close()
        assert list_segments(str(tmp_path)) == []

    def test_sweep_ignores_foreign_files(self, tmp_path):
        (tmp_path / "not-ours.bin").write_bytes(b"x")
        (tmp_path / f"{SHM_PREFIX}-garbage").write_bytes(b"x")
        assert sweep_stale(str(tmp_path)) == []
        assert (tmp_path / "not-ours.bin").exists()

    def test_registry_stats_track_bytes(self, tmp_path):
        reg = ShmRegistry(str(tmp_path))
        a = reg.create(1024)
        b = reg.create(2048)
        assert reg.stats() == {"segments": 2, "bytes": 3072}
        reg.release(a)
        assert reg.stats() == {"segments": 1, "bytes": 2048}
        reg.release(b)


# ---------------------------------------------------------------------------
# end-to-end worker execution
# ---------------------------------------------------------------------------


class TestWorkerExecution:
    def test_seed_requests_bit_identical_across_processes(
            self, worker_service):
        expected = oneshot_digests("UM", 5)
        futures = [worker_service.submit("UM", seed=5) for _ in range(6)]
        pids = set()
        for fut in futures:
            r = fut.result(timeout=120)
            assert r.worker is not None
            pids.add(r.worker)
            assert output_digests(r.outputs) == expected
        assert pids <= set(
            worker_service.supervisor.worker_pids()
        ) | pids  # every result names a real worker pid

    def test_concurrent_requests_use_both_workers(self, worker_service):
        """A request that arrives while another is in flight is its own
        batch on the idle worker — no dispatcher holds the first one
        back to coalesce the second onto the same worker."""
        sup = worker_service.supervisor
        batches = []
        execute_batch = sup.execute_batch

        def recording(key, requests):
            batches.append([req.id for req in requests])
            if len(batches) > 1:
                # pick a worker only once the first batch sits on its own
                while not sup.busy_pids():
                    time.sleep(0.001)
            return execute_batch(key, requests)

        sup.execute_batch = recording
        # the hold keeps the first request in flight while the second
        # is routed; nothing below depends on how long either takes
        first = worker_service.submit(
            "UM", seed=5, _meta={"test_sleep_s": 0.3})
        while worker_service.queue.depth():
            time.sleep(0)
        second = worker_service.submit("UM", seed=5)
        results = [f.result(timeout=120) for f in (first, second)]
        assert [len(b) for b in batches] == [1, 1]
        assert [r.batch_size for r in results] == [1, 1]
        assert results[0].worker != results[1].worker
        assert {r.worker for r in results} <= set(sup.worker_pids())

    def test_explicit_inputs_travel_via_shared_memory(
            self, worker_service):
        host = worker_service.host("UM")
        inputs = make_inputs(host.pipeline, 5)
        r = worker_service.run("UM", inputs=inputs)
        assert r.worker is not None
        assert output_digests(r.outputs) == oneshot_digests("UM", 5)

    def test_input_validation_error_crosses_the_boundary(
            self, worker_service):
        from repro.errors import ReproError

        host = worker_service.host("UM")
        inputs = make_inputs(host.pipeline, 0)
        name = sorted(inputs)[0]
        inputs[name] = inputs[name][:-8]  # wrong shape
        with pytest.raises(ReproError) as excinfo:
            worker_service.run("UM", inputs=inputs)
        assert excinfo.value.code.startswith("INPUT")
        # the worker that rejected the bad input is still healthy
        r = worker_service.run("UM", seed=1)
        assert r.worker is not None

    def test_no_segments_leak_after_traffic(self, worker_service):
        for seed in range(4):
            worker_service.run("UM", seed=seed)
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline:
            mine = [
                n for n in list_segments()
                if any(
                    f"-{pid}-" in n for pid in
                    [os.getpid()]
                    + worker_service.supervisor.worker_pids()
                )
            ]
            if not mine:
                break
            time.sleep(0.05)
        assert mine == []

    def test_host_warmed_after_fork_falls_back_in_process(
            self, worker_service):
        """A pipeline warmed only in the parent is not in the workers'
        inherited template; its requests run on the in-process path."""
        r = worker_service.run("HC", seed=0)
        assert output_digests(r.outputs) == oneshot_digests("HC", 0)

    def test_health_reports_worker_tier(self, worker_service):
        worker_service.run("UM", seed=0)
        health = worker_service.health()
        workers = health["workers"]
        assert workers["restarts"] == 0
        assert workers["lost"] == 0
        assert len(workers["workers"]) == 2
        assert all(w["state"] == "live" for w in workers["workers"])
        assert workers["shm"] == {"segments": 0, "bytes": 0}


# ---------------------------------------------------------------------------
# circuit breaker
# ---------------------------------------------------------------------------


class TestCircuitBreaker:
    def test_closed_allows(self):
        br = CircuitBreaker(threshold=2, window_s=10.0, cooldown_s=0.05)
        assert br.allow("UM")
        assert br.state("UM") == BREAKER_CLOSED

    def test_opens_at_threshold_within_window(self):
        br = CircuitBreaker(threshold=2, window_s=10.0, cooldown_s=60.0)
        br.note_death("UM")
        assert br.allow("UM")
        br.note_death("UM")
        assert br.state("UM") == BREAKER_OPEN
        assert not br.allow("UM")
        assert br.trips == 1

    def test_deaths_outside_window_do_not_trip(self):
        br = CircuitBreaker(threshold=2, window_s=0.05, cooldown_s=60.0)
        br.note_death("UM")
        time.sleep(0.08)
        br.note_death("UM")
        assert br.state("UM") == BREAKER_CLOSED

    def test_half_open_probe_and_reclose(self):
        br = CircuitBreaker(threshold=1, window_s=10.0, cooldown_s=0.02)
        br.note_death("UM")
        assert not br.allow("UM")
        time.sleep(0.04)
        assert br.allow("UM")  # the probe
        assert br.state("UM") == BREAKER_HALF_OPEN
        assert not br.allow("UM")  # only one probe at a time
        br.note_result("UM", ok=True)
        assert br.state("UM") == BREAKER_CLOSED
        assert br.allow("UM")

    def test_failed_probe_reopens(self):
        br = CircuitBreaker(threshold=1, window_s=10.0, cooldown_s=0.02)
        br.note_death("UM")
        time.sleep(0.04)
        assert br.allow("UM")
        br.note_result("UM", ok=False)
        assert br.state("UM") == BREAKER_OPEN
        assert not br.allow("UM")

    def test_death_during_probe_reopens(self):
        br = CircuitBreaker(threshold=3, window_s=10.0, cooldown_s=0.02)
        for _ in range(3):
            br.note_death("UM")
        time.sleep(0.04)
        assert br.allow("UM")
        br.note_death("UM")
        assert br.state("UM") == BREAKER_OPEN

    def test_pipelines_are_independent(self):
        br = CircuitBreaker(threshold=1, window_s=10.0, cooldown_s=60.0)
        br.note_death("UM")
        assert not br.allow("UM")
        assert br.allow("HC")

    def test_aborted_probe_frees_the_slot(self):
        br = CircuitBreaker(threshold=1, window_s=10.0, cooldown_s=0.02)
        br.note_death("UM")
        time.sleep(0.04)
        assert br.allow("UM")
        br.abort("UM")
        assert br.allow("UM")  # slot free again, still half-open
