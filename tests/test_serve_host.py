"""Integration tests for the serving core: warm hosts, bit-identity with
one-shot execution, micro-batch coalescing, the deterministic overload
contract, graceful drain, and the degradation ladder."""

import os
import threading
import time
import warnings

import pytest

from repro.errors import (
    ServeOverloadedError,
    ServeShutdownError,
    ServeTimeoutError,
    ServeUnknownPipelineError,
)
from repro.model.machine import XEON_HASWELL, GpuMachine
from repro.obs import METRICS
from repro.planner import (
    build_benchmark,
    make_inputs,
    output_digests,
    plan_schedule,
)
from repro.resilience import GuardPolicy, execute_guarded, inject_faults
from repro.runtime import (
    KernelTier,
    execute_reference,
    kernelcache,
)
from repro.runtime import executor as executor_mod
from repro.serve import host as host_mod
from repro.serve import (
    LADDER,
    HostConfig,
    PipelineHost,
    PipelineService,
    ServeConfig,
)

SCALE = 0.05
THREADS = 2


def small_config(**kwargs):
    host = HostConfig(scale=SCALE, threads=THREADS,
                      **kwargs.pop("host_kwargs", {}))
    return ServeConfig(host=host, **kwargs)


@pytest.fixture
def service():
    svc = PipelineService(small_config()).start()
    yield svc
    svc.shutdown(timeout_s=60.0)


def oneshot_digests(key, seed):
    """Digests of the CLI's degrade-mode execution path (what
    ``repro run --digest`` prints)."""
    bench, pipe = build_benchmark(key, SCALE)
    grouping, _ = plan_schedule(pipe, bench, XEON_HASWELL, "dp",
                                1_200_000, strict=False)
    report = execute_guarded(
        pipe, grouping, make_inputs(pipe, seed), nthreads=THREADS,
        policy=GuardPolicy(tile_retries=1, degrade=True),
    )
    return output_digests(report.outputs)


class TestBitIdentity:
    def test_50_requests_match_oneshot_runs(self, service):
        """The acceptance contract: N=50 served requests across two
        benchmarks are bit-identical to one-shot runs."""
        seeds = list(range(25))
        expected = {
            key: {s: oneshot_digests(key, s) for s in (0, 7)}
            for key in ("UM", "HC")
        }
        futures = [
            (key, s % 2 * 7, service.submit(key, seed=s % 2 * 7))
            for key in ("UM", "HC") for s in seeds
        ]
        assert len(futures) == 50
        for key, seed, fut in futures:
            result = fut.result(timeout=120)
            assert output_digests(result.outputs) == expected[key][seed]
        snap = service.admission.snapshot()
        assert snap["completed"] == 50
        assert snap["errors"] == 0

    def test_repeated_seed_is_deterministic(self, service):
        a = service.submit("UM", seed=3).result(timeout=120)
        b = service.submit("UM", seed=3).result(timeout=120)
        assert output_digests(a.outputs) == output_digests(b.outputs)


class BlockedHost:
    """Wraps a warm host's execute so the dispatcher blocks until
    released — makes overload and drain timing deterministic."""

    def __init__(self, host):
        self.started = threading.Event()
        self.release = threading.Event()
        self._orig = host.execute
        host.execute = self._blocked

    def _blocked(self, inputs):
        self.started.set()
        assert self.release.wait(timeout=60.0)
        return self._orig(inputs)


class TestBatching:
    def test_concurrent_requests_coalesce(self):
        """Requests that queue up while the dispatcher executes leave as
        one batch; the request it was busy with ran alone."""
        svc = PipelineService(small_config(max_batch_size=8)).start()
        try:
            blocked = BlockedHost(svc.host("UM"))
            first = svc.submit("UM", seed=0)
            assert blocked.started.wait(timeout=60.0)
            backlog = [svc.submit("UM", seed=0) for _ in range(4)]
            blocked.release.set()
            assert first.result(timeout=120).batch_size == 1
            results = [f.result(timeout=120) for f in backlog]
            assert [r.batch_size for r in results] == [4] * 4
            digests = {output_digests(r.outputs)["masked"]
                       for r in results}
            assert len(digests) == 1
        finally:
            svc.shutdown(timeout_s=60.0)


class TestThreadModel:
    def test_idle_service_runs_a_request_on_the_calling_thread(self,
                                                                service):
        """``run()`` on an idle service executes on the thread that
        waits for it — no dispatcher thread touches the request."""
        host = service.host("UM")
        ran_on = []
        execute = host.execute

        def recording(inputs):
            ran_on.append(threading.current_thread().name)
            return execute(inputs)

        host.execute = recording
        expected = oneshot_digests("UM", 4)
        for _ in range(3):
            result = service.run("UM", seed=4)
            assert output_digests(result.outputs) == expected
        assert ran_on == [threading.current_thread().name] * 3
        assert not any(n.startswith("repro-serve-dispatch") for n in ran_on)

    def test_batches_in_flight_never_exceed_the_slots(self):
        """Six concurrent ``run()`` callers and async ``submit()``s on
        two execution slots: never more than two batches at once, every
        request served, and the host's pools bounded by the slots plus
        the executor's threads — not one per caller thread."""
        svc = PipelineService(small_config(dispatchers=2)).start()
        lock = threading.Lock()
        in_flight, peak = [0], [0]
        run_batch = svc._run_batch

        def counting(batch):
            with lock:
                in_flight[0] += 1
                peak[0] = max(peak[0], in_flight[0])
            try:
                time.sleep(0.005)  # widen the overlap window
                return run_batch(batch)
            finally:
                with lock:
                    in_flight[0] -= 1

        svc._run_batch = counting
        try:
            host = svc.host("UM")
            expected = oneshot_digests("UM", 1)
            barrier = threading.Barrier(6)
            results, errors = [], []

            def caller():
                try:
                    barrier.wait(timeout=60)
                    for _ in range(4):
                        results.append(svc.run("UM", seed=1))
                except BaseException as exc:  # noqa: BLE001 - reported
                    errors.append(exc)

            threads = [threading.Thread(target=caller) for _ in range(6)]
            for t in threads:
                t.start()
            futures = [svc.submit("UM", seed=1) for _ in range(8)]
            results += [f.result(timeout=120) for f in futures]
            for t in threads:
                t.join(timeout=120)
            assert errors == []
            assert len(results) == 6 * 4 + 8
            assert all(output_digests(r.outputs) == expected
                       for r in results)
            assert 1 <= peak[0] <= 2
            assert host.pools.stats()["pools"] <= 2 + THREADS
        finally:
            svc.shutdown(timeout_s=60.0)


class TestOverload:
    def test_request_q_plus_1_is_shed(self):
        """With queue bound Q and a blocked executor, requests 1..Q+1
        are: 1 executing, Q queued, and exactly request Q+1 shed."""
        Q = 3
        svc = PipelineService(small_config(
            max_queue=Q, max_batch_size=1,
        )).start()
        try:
            blocked = BlockedHost(svc.host("UM"))
            first = svc.submit("UM", seed=0)
            assert blocked.started.wait(timeout=60.0)
            queued = [svc.submit("UM", seed=0) for _ in range(Q)]
            with pytest.raises(ServeOverloadedError) as exc_info:
                svc.submit("UM", seed=0)
            assert exc_info.value.code == "SERVE_OVERLOADED"
            assert svc.admission.shed == 1
            assert METRICS.value("repro_serve_shed_total") in (None, 0)

            blocked.release.set()
            for fut in [first] + queued:
                fut.result(timeout=120)
            snap = svc.admission.snapshot()
            assert snap["admitted"] == Q + 1
            assert snap["completed"] == Q + 1
            assert snap["shed"] == 1
        finally:
            svc.shutdown(timeout_s=60.0)

    def test_shed_counter_exported_when_metrics_on(self):
        METRICS.reset(enabled=True)
        try:
            svc = PipelineService(small_config(
                max_queue=1, max_batch_size=1,
            )).start()
            try:
                blocked = BlockedHost(svc.host("UM"))
                first = svc.submit("UM", seed=0)
                assert blocked.started.wait(timeout=60.0)
                second = svc.submit("UM", seed=0)
                with pytest.raises(ServeOverloadedError):
                    svc.submit("UM", seed=0)
                assert METRICS.value("repro_serve_shed_total",
                                     pipeline="UM") == 1
                blocked.release.set()
                first.result(timeout=120)
                second.result(timeout=120)
            finally:
                svc.shutdown(timeout_s=60.0)
        finally:
            METRICS.reset(enabled=False)


class TestTimeouts:
    def test_expired_request_fails_with_serve_timeout(self):
        svc = PipelineService(small_config(max_batch_size=1)).start()
        try:
            blocked = BlockedHost(svc.host("UM"))
            first = svc.submit("UM", seed=0)
            assert blocked.started.wait(timeout=60.0)
            # sits in the queue past its deadline while the first
            # request blocks the dispatcher
            doomed = svc.submit("UM", seed=0, timeout_s=0.01)
            time.sleep(0.05)
            blocked.release.set()
            first.result(timeout=120)
            with pytest.raises(ServeTimeoutError) as exc_info:
                doomed.result(timeout=120)
            assert exc_info.value.code == "SERVE_TIMEOUT"
            assert svc.admission.snapshot()["timeouts"] == 1
        finally:
            svc.shutdown(timeout_s=60.0)

    def test_null_timeout_is_no_deadline_on_the_waiting_side(self,
                                                             service):
        """``run(timeout_s=None)`` waits on its future without a timeout;
        the default waits the service deadline plus slack."""
        waits = []
        submit = service.submit

        def spying(*args, **kwargs):
            future = submit(*args, **kwargs)
            result = future.result

            def waiting(timeout=None):
                waits.append(timeout)
                return result(timeout)

            future.result = waiting
            return future

        service.submit = spying
        service.run("UM", seed=0, timeout_s=None)
        service.run("UM", seed=0)
        assert waits == [None, service.config.default_timeout_s + 30.0]


class TestDrain:
    def test_drain_completes_admitted_requests(self):
        svc = PipelineService(small_config(max_batch_size=1)).start()
        blocked = BlockedHost(svc.host("UM"))
        first = svc.submit("UM", seed=0)
        assert blocked.started.wait(timeout=60.0)
        queued = [svc.submit("UM", seed=0) for _ in range(3)]

        drained = []
        drainer = threading.Thread(
            target=lambda: drained.append(svc.shutdown(timeout_s=60.0)),
        )
        drainer.start()
        # drain must not cancel admitted work...
        with pytest.raises(ServeShutdownError):
            svc.submit("UM", seed=0)
        blocked.release.set()
        drainer.join(timeout=120)
        assert drained == [True]
        # ...and every admitted request completed
        for fut in [first] + queued:
            assert fut.result(timeout=1) is not None
        assert svc.admission.snapshot()["completed"] == 4
        assert svc.health()["status"] == "stopped"

    def test_drain_timeout_reports_dirty(self):
        svc = PipelineService(small_config(max_batch_size=1)).start()
        blocked = BlockedHost(svc.host("UM"))
        fut = svc.submit("UM", seed=0)
        assert blocked.started.wait(timeout=60.0)
        assert svc.drain(timeout_s=0.05) is False
        blocked.release.set()
        fut.result(timeout=120)
        assert svc.drain(timeout_s=60.0) is True
        svc.shutdown(timeout_s=60.0)


class TestDegradationLadder:
    def test_sustained_failure_steps_down_and_recovers(self, monkeypatch):
        """... and every rung executes with the grouping and the one
        ``GuardPolicy`` the host built for it at warm-up."""
        ran = []

        def recording(pipeline, grouping, inputs, **kwargs):
            ran.append((grouping, kwargs["policy"]))
            return execute_guarded(pipeline, grouping, inputs, **kwargs)

        monkeypatch.setattr(host_mod, "execute_guarded", recording)
        svc = PipelineService(small_config(host_kwargs=dict(
            degrade_after=2, recover_after=2,
        ))).start()
        try:
            host = svc.host("UM")
            assert host.tier_name == "compiled"
            with inject_faults(tile=1.0):
                for _ in range(2):
                    r = svc.submit("UM", seed=0).result(timeout=120)
                    assert r.degraded
                assert host.tier_name == "interpreter"
                for _ in range(2):
                    svc.submit("UM", seed=0).result(timeout=120)
                assert host.tier_name == "no-fusion"
                # the floor holds under continued failure
                svc.submit("UM", seed=0).result(timeout=120)
                assert host.tier_name == "no-fusion"
            # clean requests climb back up one tier per recover_after
            for _ in range(2):
                r = svc.submit("UM", seed=0).result(timeout=120)
                assert not r.degraded
            assert host.tier_name == "interpreter"
            for _ in range(2):
                svc.submit("UM", seed=0).result(timeout=120)
            assert host.tier_name == "compiled"
        finally:
            svc.shutdown(timeout_s=60.0)
        # 2 compiled, 2 interpreter, 3 no-fusion, 2 interpreter
        rungs = [LADDER.index(name) for name in (
            ["compiled"] * 2 + ["interpreter"] * 2 + ["no-fusion"] * 3
            + ["interpreter"] * 2
        )]
        for (grouping, policy), rung in zip(ran, rungs, strict=True):
            assert grouping is host._rungs[rung][0]
            assert policy is host._rungs[rung][1]
        for rung, (grouping, policy) in enumerate(host._rungs):
            assert policy.kernels is (
                KernelTier.INTERPRET if rung else host.kernels
            )
            assert (policy.tile_retries, policy.degrade) == (
                host.config.tile_retries, True
            )
            assert (grouping is host.grouping) == (rung < 2)
        assert host._rungs[2][0].num_groups == len(host.pipeline.stages)

    def test_degraded_tiers_stay_bit_identical(self):
        """The ladder changes *how* a pipeline executes, never what it
        computes — tier 2 output matches tier 0 output."""
        svc = PipelineService(small_config(host_kwargs=dict(
            degrade_after=1, recover_after=1000,
        ))).start()
        try:
            host = svc.host("UM")
            baseline = output_digests(
                svc.submit("UM", seed=5).result(timeout=120).outputs
            )
            with inject_faults(tile=1.0):
                svc.submit("UM", seed=5).result(timeout=120)
                svc.submit("UM", seed=5).result(timeout=120)
            assert host.tier_name == "no-fusion"
            r = svc.submit("UM", seed=5).result(timeout=120)
            assert r.tier == "no-fusion"
            assert output_digests(r.outputs) == baseline
        finally:
            svc.shutdown(timeout_s=60.0)


class TestHostLifecycle:
    def test_unknown_pipeline_rejected(self, service):
        with pytest.raises(ServeUnknownPipelineError) as exc_info:
            service.submit("NOPE")
        assert exc_info.value.code == "SERVE_UNKNOWN"

    def test_warm_is_idempotent(self):
        host = PipelineHost("UM", HostConfig(scale=SCALE, threads=THREADS))
        host.warm()
        grouping = host.grouping
        host.warm()
        assert host.grouping is grouping

    def test_health_snapshot(self, service):
        service.submit("UM", seed=0).result(timeout=120)
        health = service.health()
        assert health["status"] == "serving"
        assert health["pending"] == 0
        assert health["hosts"]["UM"]["warm"]
        assert health["hosts"]["UM"]["tier"] == "compiled"
        assert health["hosts"]["UM"]["requests"] == 1
        assert health["hosts"]["UM"]["pool"]["pools"] >= 1
        # what the process's environment resolved to at warm-up (the
        # suite's REPRO_KERNELS=stage)
        assert health["hosts"]["UM"]["kernels"] == "stage"
        assert health["hosts"]["UM"]["native_groups"] == 0
        assert health["hosts"]["UM"]["numpy_groups"] > 0


class TestGpuModelHost:
    @pytest.mark.parametrize("workers", [0, 1])
    def test_gpu_schedule_runs_on_the_one_executor(self, workers):
        """``machine="gpu-v100"`` chooses the model that schedules,
        nothing else: the ladder is :data:`LADDER`, nothing warns, and the
        GPU-model schedule's outputs are the reference's bits — in
        process and in a forked worker."""
        seed = 3
        _, pipe = build_benchmark("UM", SCALE)
        expected = output_digests(
            execute_reference(pipe, make_inputs(pipe, seed))
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            svc = PipelineService(small_config(
                workers=workers, heartbeat_s=0.2, worker_timeout_s=60.0,
                host_kwargs={"machine": "gpu-v100"},
            )).start()
            try:
                svc.warm(["UM"])
                host = svc.hosts["UM"]
                assert isinstance(host.machine, GpuMachine)
                assert host.health()["ladder"] == list(LADDER)
                assert host.health()["machine"] == "gpu-v100"
                if workers:
                    svc.start_workers()
                result = svc.submit("UM", seed=seed).result(timeout=120)
                assert (result.worker is not None) == bool(workers)
                assert result.tier == "compiled"
                assert not result.degraded
                assert output_digests(result.outputs) == expected
            finally:
                svc.shutdown(timeout_s=60.0)


class _NoReproEnviron:
    """``os.environ`` stand-in: any ``REPRO_*`` read raises."""

    def __init__(self, real):
        self._real = real

    def _check(self, key):
        if str(key).startswith("REPRO_"):
            raise AssertionError(f"os.environ[{key!r}] read on a warm path")

    def get(self, key, default=None):
        self._check(key)
        return self._real.get(key, default)

    def __getitem__(self, key):
        self._check(key)
        return self._real[key]

    def __contains__(self, key):
        self._check(key)
        return key in self._real

    def __getattr__(self, name):
        return getattr(self._real, name)


class TestWarmPath:
    @pytest.mark.parametrize("workers", [0, 1])
    @pytest.mark.parametrize("key", ["BG", "CP"])
    def test_warm_request_resolves_nothing(self, key, workers, monkeypatch):
        """After warm-up a request compiles nothing, looks no kernel up
        (``get_kernel`` / ``stage_kernels`` raise) and reads no
        ``REPRO_*`` variable (``os.environ`` raises) — in process, and in
        a worker forked with the traps armed.  A trap that fired would
        degrade the request or fail it."""
        seed = 2
        _, pipe = build_benchmark(key, SCALE)
        expected = output_digests(
            execute_reference(pipe, make_inputs(pipe, seed))
        )
        svc = PipelineService(small_config(
            workers=workers, heartbeat_s=0.2, worker_timeout_s=60.0,
        )).start()
        try:
            svc.warm([key])

            def trap(*args, **kwargs):
                raise AssertionError("kernel lookup on a warm path")

            monkeypatch.setattr(kernelcache, "get_kernel", trap)
            monkeypatch.setattr(executor_mod, "get_kernel", trap)
            monkeypatch.setattr(executor_mod, "stage_kernels", trap)
            monkeypatch.setattr(os, "environ", _NoReproEnviron(os.environ))
            if workers:
                svc.start_workers()
            for _ in range(3):
                result = svc.submit(key, seed=seed).result(timeout=120)
                assert (result.worker is not None) == bool(workers)
                assert result.tier == "compiled"
                assert not result.degraded
                assert output_digests(result.outputs) == expected
        finally:
            monkeypatch.undo()
            svc.shutdown(timeout_s=60.0)
