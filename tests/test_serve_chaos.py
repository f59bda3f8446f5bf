"""Chaos tests: SIGKILL workers mid-request and assert the supervision
contract — respawn from the warm template, at-most-once retry with
bit-identical output, ``SERVE_WORKER_LOST`` when the retry is also
lost, ``SERVE_WORKER_TIMEOUT`` for hung workers, breaker fallback,
zero leaked shared-memory segments, and every arena slot free again
after a kill storm."""

import os
import signal
import time

import pytest

from repro.errors import (
    ServeWorkerLostError,
    ServeWorkerTimeoutError,
    error_code,
    is_retryable,
)
from repro.planner import output_digests
from repro.serve import HostConfig, PipelineService, ServeConfig
from repro.serve.shm import list_segments
from repro.serve.supervisor import CircuitBreaker

SCALE = 0.05
THREADS = 2


def chaos_config(**kwargs):
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("heartbeat_s", 0.2)
    kwargs.setdefault("worker_timeout_s", 60.0)
    kwargs.setdefault("dispatchers", 2)
    kwargs.setdefault("default_timeout_s", 120.0)
    host = HostConfig(scale=SCALE, threads=THREADS)
    return ServeConfig(host=host, **kwargs)


def make_service(**kwargs):
    svc = PipelineService(chaos_config(**kwargs)).start()
    svc.warm(["UM"])
    svc.start_workers()
    return svc


def wait_for(predicate, timeout_s=10.0, poll_s=0.01):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(poll_s)
    return predicate()


def kill_first_busy(sup, timeout_s=10.0):
    """SIGKILL the first worker that picks up a request; returns its
    pid (or None if nothing became busy)."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        busy = sup.busy_pids()
        if busy:
            os.kill(busy[0], signal.SIGKILL)
            return busy[0]
        time.sleep(0.005)
    return None


class TestWorkerDeath:
    def test_sigkill_mid_request_retries_once_bit_identically(self):
        svc = make_service()
        try:
            sup = svc.supervisor
            baseline = output_digests(svc.run("UM", seed=3).outputs)
            fut = svc.submit("UM", seed=3,
                             _meta={"test_sleep_s": 1.0})
            victim = kill_first_busy(sup)
            assert victim is not None
            result = fut.result(timeout=120)
            assert result.retried
            assert result.worker != victim
            assert output_digests(result.outputs) == baseline
            # the dead slot is respawned from the warm template
            assert wait_for(lambda: len(sup.worker_pids()) == 2)
            assert sup.restarts == 1
            assert sup.retries == 1
            assert sup.lost == 0
        finally:
            svc.shutdown(timeout_s=60.0)

    def test_second_loss_fails_with_worker_lost(self):
        svc = make_service()
        try:
            sup = svc.supervisor
            fut = svc.submit("UM", seed=3,
                             _meta={"test_sleep_s": 1.0})
            killed = set()
            deadline = time.monotonic() + 60
            while not fut.done() and time.monotonic() < deadline:
                for pid in sup.busy_pids():
                    if pid not in killed:
                        killed.add(pid)
                        try:
                            os.kill(pid, signal.SIGKILL)
                        except ProcessLookupError:
                            pass
                time.sleep(0.005)
            with pytest.raises(ServeWorkerLostError) as excinfo:
                fut.result(timeout=120)
            assert error_code(excinfo.value) == "SERVE_WORKER_LOST"
            assert is_retryable(excinfo.value)
            assert len(killed) == 2  # original + the single retry
            assert sup.lost == 1
        finally:
            svc.shutdown(timeout_s=60.0)

    def test_worker_crash_via_exit_hook_is_detected(self):
        """A worker that dies by plain process exit (not SIGKILL) is
        detected the same way and its request retried."""
        svc = make_service()
        try:
            baseline = output_digests(svc.run("UM", seed=1).outputs)
            fut = svc.submit("UM", seed=1, _meta={"test_exit": 17})
            # the first worker to pick it up exits; the retry lands on
            # a worker whose item still carries the hook, so it exits
            # too -> SERVE_WORKER_LOST is also an acceptable outcome
            # only if the retry died; with the hook cleared on retry we
            # require success. The hook is carried in the request, so
            # both attempts die:
            with pytest.raises(ServeWorkerLostError):
                fut.result(timeout=120)
            # the tier healed and still serves bit-identical results
            assert wait_for(
                lambda: len(svc.supervisor.worker_pids()) == 2
            )
            result = svc.run("UM", seed=1)
            assert output_digests(result.outputs) == baseline
        finally:
            svc.shutdown(timeout_s=60.0)

    def test_idle_worker_sigkill_is_respawned(self):
        svc = make_service()
        try:
            sup = svc.supervisor
            victim = sup.worker_pids()[0]
            os.kill(victim, signal.SIGKILL)
            assert wait_for(
                lambda: sup.restarts >= 1
                and len(sup.worker_pids()) == 2
                and victim not in sup.worker_pids()
            )
            # and it still serves
            r = svc.run("UM", seed=0)
            assert r.worker is not None
        finally:
            svc.shutdown(timeout_s=60.0)


class TestWorkerTimeout:
    def test_hung_worker_is_killed_and_coded_timeout(self):
        svc = make_service(worker_timeout_s=1.0)
        try:
            with pytest.raises(ServeWorkerTimeoutError) as excinfo:
                svc.submit(
                    "UM", seed=0, _meta={"test_sleep_s": 30.0}
                ).result(timeout=120)
            assert error_code(excinfo.value) == "SERVE_WORKER_TIMEOUT"
            sup = svc.supervisor
            assert wait_for(lambda: len(sup.worker_pids()) == 2)
            assert sup.retries == 0  # timeouts are never retried
            r = svc.run("UM", seed=0)
            assert r.worker is not None
        finally:
            svc.shutdown(timeout_s=60.0)

    def test_connection_closed_under_recv_counts_as_death(self):
        """The timeout kill closes the pipe from the monitor thread; when
        that lands between ``recv``'s closed-check and its read,
        multiprocessing raises TypeError (its handle is None), and the
        receiver must still hand the worker to ``_on_death`` — else its
        batch sits unresolved until the supervision backstop."""
        from types import SimpleNamespace

        from repro.serve.supervisor import WorkerSupervisor

        class ClosedUnderRecv:
            def recv(self):
                raise TypeError(
                    "'NoneType' object cannot be interpreted as an integer")

        sup = WorkerSupervisor({}, workers=1)
        died = []
        sup._on_death = died.append
        handle = SimpleNamespace(conn=ClosedUnderRecv())
        sup._receive_loop(handle)
        assert died == [handle]


class TestBreakerFallback:
    def test_repeated_deaths_trip_to_in_process_tier(self):
        svc = make_service()
        try:
            sup = svc.supervisor
            # two deaths trip it, and it stays open for the test
            sup.breaker = CircuitBreaker(2, 60.0, 3600.0)
            baseline = output_digests(svc.run("UM", seed=2).outputs)
            deaths = 0
            for _ in range(3):  # two kills trip; allow one extra try
                fut = svc.submit("UM", seed=2,
                                 _meta={"test_sleep_s": 0.8})
                if kill_first_busy(sup, timeout_s=5.0) is not None:
                    deaths += 1
                try:
                    fut.result(timeout=120)
                except ServeWorkerLostError:
                    pass
                if sup.breaker.state("UM") == 1:
                    break
            assert sup.breaker.state("UM") == 1  # open
            # while open, requests succeed on the in-process fallback
            r = svc.run("UM", seed=2)
            assert r.worker is None
            assert output_digests(r.outputs) == baseline
        finally:
            svc.shutdown(timeout_s=60.0)


class TestShmHygiene:
    def test_no_segments_leak_across_kill_storm(self):
        svc = make_service()
        pids = set()
        try:
            sup = svc.supervisor
            pids.add(os.getpid())
            pids.update(sup.worker_pids())
            for _ in range(2):
                fut = svc.submit("UM", seed=0,
                                 _meta={"test_sleep_s": 0.8})
                kill_first_busy(sup)
                pids.update(sup.worker_pids())
                try:
                    fut.result(timeout=120)
                except ServeWorkerLostError:
                    pass
                pids.update(sup.worker_pids())
            # every lost batch gave its slot back when its worker was
            # reaped, every redriven one when its reply was copied out
            assert wait_for(lambda: len(sup.worker_pids()) == 2)
            slots = sup.health()["arena"]["slots"]
            assert [w["free_slots"] for w in sup.health()["workers"]] \
                == [slots, slots]
        finally:
            svc.shutdown(timeout_s=60.0)

        def ours():
            return [
                n for n in list_segments()
                if any(f"-{pid}-" in n for pid in pids)
            ]

        assert wait_for(lambda: not ours(), timeout_s=5.0)
