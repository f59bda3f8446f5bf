"""Worker-tier tests: shared-memory primitives, fork-after-warmup
execution with bit-identity across the process boundary, the per-worker
arena, shard routing, and the circuit breaker's state machine."""

import os
import sys
import threading
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
from repro.serve.batching import ServeRequest
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
    WorkerTierUnavailable,
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
        pipe = worker_service.host("UM").pipeline
        request_bytes = sum(
            plan_layout(items)[0] for items in (
                [(i.name, pipe.image_shape(i), i.scalar_type.np_dtype)
                 for i in pipe.images],
                [(o.name, pipe.domain_extents(o), o.scalar_type.np_dtype)
                 for o in pipe.outputs],
            )
        )
        assert workers["arena"] == {
            "slots": 2,  # one per dispatcher
            "slot_bytes": worker_service.config.max_batch_size
            * request_bytes,
        }
        assert all(w["free_slots"] == 2 for w in workers["workers"])


# ---------------------------------------------------------------------------
# the per-worker arena
# ---------------------------------------------------------------------------


def on_both_workers(svc, **kwargs):
    """Two requests, the second submitted while the first is held in
    flight, so they run on different workers; returns both results."""
    sup = svc.supervisor
    first = svc.submit("UM", _meta={"test_sleep_s": 0.3}, **kwargs)
    assert wait_until(lambda: sup.busy_pids())
    second = svc.submit("UM", **kwargs)
    results = [f.result(timeout=120) for f in (first, second)]
    assert results[0].worker != results[1].worker
    return results


def wait_until(predicate, timeout_s=30.0):
    deadline = time.monotonic() + timeout_s
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.002)
    return True


def held_request(rid, sleep_s=0.0):
    meta = {"seed": 5}
    if sleep_s:
        meta["test_sleep_s"] = sleep_s
    return ServeRequest(id=rid, pipeline="UM", batch_key=("UM", SCALE),
                        inputs=None, meta=meta)


class TestArena:
    def test_no_named_segment_is_ever_made(self, monkeypatch):
        """With named segments made impossible in the parent and (by
        fork) in every worker, seed and explicit-input requests on both
        workers still return the one-shot digests."""
        def refuse(*args, **kwargs):
            raise AssertionError("the worker tier made a named segment")

        monkeypatch.setattr(Segment, "create", classmethod(refuse))
        svc = PipelineService(worker_config()).start()
        try:
            svc.warm(["UM"])
            svc.start_workers()
            expected = oneshot_digests("UM", 5)
            inputs = make_inputs(svc.host("UM").pipeline, 5)
            for kwargs in ({"seed": 5}, {"inputs": inputs}):
                for r in on_both_workers(svc, **kwargs):
                    assert output_digests(r.outputs) == expected
        finally:
            svc.shutdown(timeout_s=60.0)

    def test_results_own_their_arrays(self, worker_service):
        """Outputs are copied out of the slot before it is freed: a
        later batch through the same slot leaves them untouched."""
        first = worker_service.run("UM", seed=5)
        kept = {n: a.copy() for n, a in first.outputs.items()}
        assert all(a.flags.owndata for a in first.outputs.values())
        worker_service.run("UM", seed=6)
        for name, arr in first.outputs.items():
            np.testing.assert_array_equal(arr, kept[name])
        assert output_digests(first.outputs) == oneshot_digests("UM", 5)

    def test_wrong_shape_input_fails_in_the_parent(self, worker_service):
        from repro.errors import ReproError

        sup = worker_service.supervisor
        inputs = make_inputs(worker_service.host("UM").pipeline, 0)
        name = sorted(inputs)[0]
        inputs[name] = inputs[name][:-8]
        before = [w["batches"] for w in sup.health()["workers"]]
        with pytest.raises(ReproError) as excinfo:
            worker_service.run("UM", inputs=inputs)
        assert excinfo.value.code.startswith("INPUT")
        assert [w["batches"] for w in sup.health()["workers"]] == before

    def test_concurrent_batches_never_share_a_slot(self):
        """More workers than cores, four dispatchers racing for slots
        and a short switch interval: every explicit-input request gets
        its own inputs' digests back, and every slot is free after."""
        svc = PipelineService(
            worker_config(workers=3, dispatchers=4)).start()
        interval = sys.getswitchinterval()
        try:
            svc.warm(["UM"])
            host = svc.host("UM")
            inputs = [make_inputs(host.pipeline, seed) for seed in range(4)]
            expected = [output_digests(host.execute(i).outputs) for i in inputs]
            svc.start_workers()
            sys.setswitchinterval(1e-5)
            futures = [svc.submit("UM", inputs=inputs[n % 4])
                       for n in range(48)]
            for n, fut in enumerate(futures):
                r = fut.result(timeout=120)
                assert r.worker is not None
                assert output_digests(r.outputs) == expected[n % 4]
            workers = svc.supervisor.health()["workers"]
            assert [w["free_slots"] for w in workers] == [4, 4, 4]
        finally:
            sys.setswitchinterval(interval)
            svc.shutdown(timeout_s=60.0)

    def test_concurrent_run_callers_all_reach_a_worker(self,
                                                       worker_service):
        """Four ``run()`` callers at once, on two execution slots over
        two workers with two arena slots each: never more than two
        batches at the worker tier, and every request reaches a worker.
        A batch run without claiming an execution slot could find its
        worker's arena full and fall back in process, with no error to
        show for it but ``worker`` unset."""
        sup = worker_service.supervisor
        expected = oneshot_digests("UM", 5)
        lock = threading.Lock()
        in_flight, peak = [0], [0]
        execute_batch = sup.execute_batch

        def counting(key, requests):
            with lock:
                in_flight[0] += 1
                peak[0] = max(peak[0], in_flight[0])
            try:
                return execute_batch(key, requests)
            finally:
                with lock:
                    in_flight[0] -= 1

        sup.execute_batch = counting
        barrier = threading.Barrier(4)
        results, errors = [], []

        def caller():
            try:
                barrier.wait(timeout=60)
                for _ in range(4):
                    results.append(worker_service.run(
                        "UM", seed=5, _meta={"test_sleep_s": 0.02}))
            except BaseException as exc:  # noqa: BLE001 - reported
                errors.append(exc)

        threads = [threading.Thread(target=caller) for _ in range(4)]
        interval = sys.getswitchinterval()
        # a short switch interval races the callers' worker picks
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert len(results) == 16
        assert 1 <= peak[0] <= 2
        assert all(r.worker is not None for r in results)
        assert all(output_digests(r.outputs) == expected for r in results)

    def test_a_caller_beyond_the_slots_is_turned_away(
            self, worker_service):
        """Two workers with two slots each hold four held batches; a
        fifth direct caller gets WorkerTierUnavailable, never a slot
        another batch holds, and the four finish bit-identically."""
        sup = worker_service.supervisor
        expected = oneshot_digests("UM", 5)
        results = {}

        def call(rid):
            results[rid] = sup.execute_batch(
                "UM", [held_request(rid, sleep_s=0.5)])

        threads = [threading.Thread(target=call, args=(rid,))
                   for rid in range(1001, 1005)]
        for t in threads:
            t.start()
        assert wait_until(lambda: all(
            w["free_slots"] == 0 for w in sup.health()["workers"]))
        with pytest.raises(WorkerTierUnavailable):
            sup.execute_batch("UM", [held_request(1005)])
        for t in threads:
            t.join(timeout=120)
        assert sorted(results) == [1001, 1002, 1003, 1004]
        for outcomes in results.values():
            (outcome,) = outcomes
            assert outcome.error is None
            assert output_digests(outcome.outputs) == expected
        assert all(w["free_slots"] == 2
                   for w in sup.health()["workers"])

    def test_a_batch_larger_than_a_slot_is_turned_away(
            self, worker_service):
        """Seed requests put nothing in the slot; explicit inputs do."""
        sup = worker_service.supervisor
        inputs = make_inputs(worker_service.host("UM").pipeline, 5)
        batch = [held_request(2000 + i)
                 for i in range(worker_service.config.max_batch_size + 1)]
        for req in batch:
            req.inputs = inputs
        with pytest.raises(WorkerTierUnavailable):
            sup.execute_batch("UM", batch)
        assert all(w["free_slots"] == 2
                   for w in sup.health()["workers"])


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
