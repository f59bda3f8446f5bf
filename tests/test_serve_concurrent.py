"""Concurrency tests: ``execute_guarded`` called from many threads at
once — with observability enabled, fault injection active, and a shared
persistent executor plus warm pool group — must stay race-free and
produce reference-identical outputs.  This is the contract the serve
layer's execution slots rely on."""

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.fusion import dp_group
from repro.model import XEON_HASWELL
from repro.obs import METRICS, TRACE
from repro.planner import output_digests
from repro.resilience import GuardPolicy, execute_guarded, inject_faults
from repro.runtime import (
    PoolGroup,
    execute_reference,
    shared_executor,
)
from repro.serve import HostConfig, PipelineService, ServeConfig

from conftest import build_blur, random_inputs


@pytest.fixture
def obs_enabled():
    METRICS.reset(enabled=True)
    TRACE.reset(enabled=True)
    yield
    METRICS.reset(enabled=False)
    TRACE.reset(enabled=False)


def run_many_guarded(pipeline, grouping, inputs_by_caller, *,
                     executor=None, pools=None, callers=8):
    """Run execute_guarded from ``callers`` threads at once; returns the
    per-caller reports (exceptions propagate)."""
    barrier = threading.Barrier(callers)

    def one(i):
        barrier.wait(timeout=60)
        return execute_guarded(
            pipeline, grouping, inputs_by_caller[i], nthreads=2,
            policy=GuardPolicy(tile_retries=1, degrade=True),
            executor=executor, pools=pools,
        )

    with ThreadPoolExecutor(max_workers=callers) as tp:
        return [f.result(timeout=300)
                for f in [tp.submit(one, i) for i in range(callers)]]


class TestConcurrentExecuteGuarded:
    CALLERS = 8

    def setup_method(self):
        self.pipeline = build_blur()
        self.grouping = dp_group(self.pipeline, XEON_HASWELL)
        rng = np.random.default_rng(42)
        self.inputs = [random_inputs(self.pipeline, rng)
                       for _ in range(self.CALLERS)]
        self.expected = [
            output_digests(execute_reference(self.pipeline, inp))
            for inp in self.inputs
        ]

    def test_shared_executor_and_pools(self, obs_enabled):
        pools = PoolGroup(max_free_bytes=64 * 1024 * 1024)
        reports = run_many_guarded(
            self.pipeline, self.grouping, self.inputs,
            executor=shared_executor(2), pools=pools,
            callers=self.CALLERS,
        )
        self.check_outputs(reports)
        stats = pools.stats()
        assert stats["allocated"] > 0
        # pool counters flushed from worker threads stay consistent
        # with the shared pools' own cumulative statistics
        flushed = (
            METRICS.value("repro_pool_acquires_total", result="reused")
            + METRICS.value("repro_pool_acquires_total",
                            result="allocated")
        )
        assert flushed == stats["reused"] + stats["allocated"]

    def test_under_fault_injection(self, obs_enabled):
        """Injected tile faults from concurrent callers degrade safely:
        every caller still gets reference-identical outputs."""
        pools = PoolGroup()
        with inject_faults(tile=1.0, seed=7):
            reports = run_many_guarded(
                self.pipeline, self.grouping, self.inputs,
                executor=shared_executor(2), pools=pools,
                callers=self.CALLERS,
            )
        self.check_outputs(reports)
        assert any(r.degraded for r in reports)

    def test_tracer_spans_complete(self, obs_enabled):
        run_many_guarded(
            self.pipeline, self.grouping, self.inputs,
            callers=self.CALLERS,
        )
        # every concurrent caller closed its span tree without
        # corrupting the thread-local parent stacks
        def count(node, name):
            if node is None:
                return 0
            return (node["name"] == name) + sum(
                count(c, name) for c in node["children"]
            )

        tree = TRACE.to_dict()
        assert count(tree["root"], "execute_guarded") == self.CALLERS

    def check_outputs(self, reports):
        assert len(reports) == self.CALLERS
        for i, report in enumerate(reports):
            ref = execute_reference(self.pipeline, self.inputs[i])
            for k in ref:
                np.testing.assert_allclose(
                    report.outputs[k].astype(np.float64),
                    ref[k].astype(np.float64), atol=3e-2, rtol=1e-3,
                )


class TestConcurrentService:
    def test_submit_stress_from_many_threads(self, obs_enabled):
        """Many client threads hammering submit() concurrently: every
        admitted request completes and determinism holds per seed."""
        svc = PipelineService(ServeConfig(
            host=HostConfig(scale=0.05, threads=2),
            max_queue=256, max_batch_size=4,
        )).start()
        try:
            svc.host("UM")
            barrier = threading.Barrier(8)

            def client(seed):
                barrier.wait(timeout=60)
                futs = [svc.submit("UM", seed=seed) for _ in range(4)]
                return [output_digests(
                    f.result(timeout=300).outputs
                ) for f in futs]

            with ThreadPoolExecutor(max_workers=8) as tp:
                per_client = [
                    f.result(timeout=600)
                    for f in [tp.submit(client, i % 2) for i in range(8)]
                ]
            # all requests with the same seed produced one digest
            by_seed = {0: set(), 1: set()}
            for i, digests in enumerate(per_client):
                for d in digests:
                    by_seed[i % 2].add(d["masked"])
            assert len(by_seed[0]) == 1
            assert len(by_seed[1]) == 1
            assert by_seed[0] != by_seed[1]
            snap = svc.admission.snapshot()
            assert snap["completed"] == 32
            assert snap["errors"] == 0
        finally:
            svc.shutdown(timeout_s=60.0)

    def test_queue_wait_means_enqueue_to_start_whoever_runs(
            self, obs_enabled):
        """Inline ``run()``s, a ``run()`` that found the one slot busy
        and queued ``submit()``s: ``repro_serve_queue_wait_seconds``
        counts every request exactly once, and each reply's
        ``queue_wait_s`` is the same enqueue → start interval — the held
        requests' covers the hold, the inline ones' does not."""
        svc = PipelineService(ServeConfig(
            host=HostConfig(scale=0.05, threads=1),
        )).start()
        try:
            host = svc.host("UM")
            execute = host.execute
            started, release = threading.Event(), threading.Event()

            def held(inputs):
                if not started.is_set():
                    started.set()
                    assert release.wait(timeout=60)
                return execute(inputs)

            inline = [svc.run("UM", seed=0) for _ in range(3)]
            host.execute = held
            results = []
            holder = threading.Thread(
                target=lambda: results.append(svc.run("UM", seed=0)))
            holder.start()
            assert started.wait(timeout=60)
            waiter = threading.Thread(
                target=lambda: results.append(svc.run("UM", seed=1)))
            waiter.start()
            futures = [svc.submit("UM", seed=2) for _ in range(2)]
            while svc.queue.depth() < 3:
                time.sleep(0.001)
            hold_s = 0.1
            time.sleep(hold_s)
            release.set()
            queued = [f.result(timeout=120) for f in futures]
            for t in (holder, waiter):
                t.join(timeout=120)
            queued += [r for r in results if r.queue_wait_s >= hold_s]
            first = [r for r in results if r.queue_wait_s < hold_s]
            assert len(queued) == 3 and len(first) == 1
            served = inline + first + queued
            count, total = METRICS.value(
                "repro_serve_queue_wait_seconds", pipeline="UM")
            assert count == len(served) == 7
            assert total == pytest.approx(
                sum(r.queue_wait_s for r in served), abs=1e-5)
            assert all(r.queue_wait_s < hold_s for r in inline)
        finally:
            svc.shutdown(timeout_s=60.0)
