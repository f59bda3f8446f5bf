"""Worker processes for the crash-isolated serving tier.

A worker is forked from the service *after* warm-up, so it inherits the
warm state the paper says to pay for once — planned schedules, compiled
stage kernels, warm scratch pools — without re-deriving any of it
(fork-copy of the parent's memory; nothing is pickled).  What fork
cannot carry across is thread-backed state: locks that might be held at
the fork instant and thread pools whose threads simply do not exist in
the child.  :func:`fork_preamble` rebuilds exactly that set and nothing
else.

Control protocol (one duplex pipe per worker; arrays never cross it):

=========================================  =============================
message                                    direction / meaning
=========================================  =============================
``("run", batch_id, key, slot, in_specs,   supervisor -> worker: execute
items)``                                   one micro-batch whose inputs
                                           sit in arena slot ``slot``
``("stop",)``                              supervisor -> worker: clean
                                           exit
``("hb", pid)``                            worker -> supervisor:
                                           liveness
``("ok", batch_id, slot, out_specs,        worker -> supervisor: batch
entries)``                                 done; outputs sit in the same
                                           slot (per-item results or
                                           serialized errors)
=========================================  =============================

The arena (:class:`repro.serve.shm.Arena`) is mapped by the supervisor
before the worker is forked, so the worker inherits it; ``in_specs`` /
``out_specs`` are ``{key: (offset, shape, dtype)}`` places inside the
slot, the outputs laid out after the inputs.  Seed-addressed requests
put nothing in the slot: the worker regenerates their inputs via
:func:`repro.planner.make_inputs` — deterministic, so bit-identity with
``repro run --seed`` is preserved without shipping a byte.  The slot
belongs to the worker from the ``run`` until its ``ok``: the supervisor
copies the outputs out and only then frees it.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any, Dict, List, Mapping, Tuple

import numpy as np

from ..errors import ServeError, error_code
from ..obs import METRICS, TRACE
from ..runtime import reset_shared_executors_after_fork
from .shm import Arena, plan_layout, view_arrays, write_arrays

__all__ = ["fork_preamble", "worker_main", "spawn_worker"]


def fork_preamble(hosts: Mapping[str, Any]) -> None:
    """Make a freshly forked child self-consistent.

    Replaces every lock a parent thread might have held at the fork
    instant (metrics, tracing, per-host state locks) and forgets every
    inherited thread pool — their threads exist only in the parent.
    Process-global observability is disabled: the child's counters
    would never be scraped, and the supervisor accounts for worker
    health on its side of the pipe.
    """
    METRICS._lock = threading.Lock()
    METRICS.reset(enabled=False)
    TRACE._lock = threading.Lock()
    TRACE.reset(enabled=False)
    reset_shared_executors_after_fork()
    for host in hosts.values():
        host.reinit_after_fork()


def worker_main(conn, hosts: Mapping[str, Any], parent_pid: int,
                heartbeat_s: float, arena: Arena) -> None:
    """Child entry point: heartbeat + serve batches until told to stop.

    ``hosts`` is the parent's warm ``{benchmark key: PipelineHost}``
    map, inherited through fork.  The loop is deliberately serial — one
    batch at a time per worker; parallelism is the worker count, which
    is what keeps per-(pipeline, scale) batches coalesced on one warm
    host instead of interleaved across thread pools.  ``arena`` is this
    worker slot's mapping, inherited through fork.
    """
    fork_preamble(hosts)
    send_lock = threading.Lock()

    def _send(msg: Tuple) -> None:
        with send_lock:
            conn.send(msg)

    stop = threading.Event()

    def _heartbeat() -> None:
        pid = os.getpid()
        while not stop.wait(max(heartbeat_s, 0.01) / 2.0):
            if os.getppid() != parent_pid:
                # supervisor died; nobody will ever reap or stop us
                os._exit(0)
            try:
                _send(("hb", pid))
            except OSError:
                os._exit(0)

    threading.Thread(target=_heartbeat, name="repro-worker-hb",
                     daemon=True).start()

    try:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                break
            if msg[0] == "stop":
                break
            if msg[0] != "run":
                continue
            _, batch_id, key, slot, in_specs, items = msg
            try:
                reply = _run_batch(arena.buf(slot), hosts, key, in_specs,
                                   items)
            except Exception as exc:
                # batch-level failure (unknown key, protocol bug):
                # fail the items, never the worker
                reply = ({}, [
                    {"rid": it["rid"],
                     "error": (error_code(exc), str(exc))}
                    for it in items
                ])
            try:
                _send(("ok", batch_id, slot) + reply)
            except OSError:
                break
    finally:
        stop.set()
        try:
            conn.close()
        except OSError:
            pass


def _run_batch(slot: memoryview, hosts: Mapping[str, Any], key: str,
               in_specs, items: List[Dict[str, Any]]) -> Tuple:
    """Execute one batch whose explicit inputs sit in ``slot``; writes
    the outputs into the same slot, after the inputs, and returns the
    ``(out_specs, entries)`` tail of the reply.  Failures stay per-item
    — one bad request never poisons its batchmates."""
    host = hosts[key]
    in_views = view_arrays(slot, in_specs)
    entries: List[Dict[str, Any]] = []
    results: Dict[str, np.ndarray] = {}
    for item in items:
        rid = item["rid"]
        sleep_s = item.get("test_sleep_s")
        if sleep_s:
            # deterministic chaos-test window: hold the request
            # in-flight so the harness can kill us mid-execution
            time.sleep(float(sleep_s))
        if item.get("test_exit") is not None:
            os._exit(int(item["test_exit"]))
        try:
            if item.get("seed") is not None:
                from ..planner import make_inputs
                inputs = make_inputs(host.pipeline, int(item["seed"]))
            else:
                inputs = {name: in_views[f"{rid}/{name}"]
                          for name in item["images"]}
            outputs, report, tier = host.execute(inputs)
        except Exception as exc:
            entries.append({
                "rid": rid,
                "error": (error_code(exc), str(exc)),
            })
            continue
        for name, arr in outputs.items():
            results[f"{rid}/{name}"] = arr
        entries.append({
            "rid": rid,
            "tier": tier,
            "degraded": report.degraded,
            "outputs": sorted(outputs),
        })
    in_end = max((offset + int(np.prod(shape)) * np.dtype(dtype).itemsize
                  for offset, shape, dtype in in_specs.values()), default=0)
    end, out_specs = plan_layout(
        ((k, arr.shape, arr.dtype) for k, arr in sorted(results.items())),
        start=in_end,
    )
    if end > len(slot):
        raise ServeError(
            f"batch outputs need {end} bytes, the arena slot has "
            f"{len(slot)}"
        )
    write_arrays(slot, out_specs, results)
    return out_specs, entries


def spawn_worker(index: int, hosts: Mapping[str, Any],
                 heartbeat_s: float, arena: Arena):
    """Fork one worker from the current (warm) process, handing it the
    slot's ``arena``; returns ``(process, supervisor-side
    connection)``."""
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    parent_conn, child_conn = ctx.Pipe(duplex=True)
    proc = ctx.Process(
        target=worker_main,
        args=(child_conn, hosts, os.getpid(), heartbeat_s, arena),
        name=f"repro-serve-worker{index}",
        daemon=True,
    )
    proc.start()
    child_conn.close()
    return proc, parent_conn
