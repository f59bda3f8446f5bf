"""The traced run: a child process that times the calls into each
layer's public functions, from this file, at one workload's operating
point (its pipelines, scale and threads).

Two kinds of observation:

* **traced ops** — the workload's own op (an HTTP request against an
  in-process ``PipelineService``, or ``repro.cli.main(["run", ...])``)
  with spans around the public names it passes through.  The names are
  wrapped *before* ``repro.cli`` / ``repro.serve`` are imported, so those
  modules bind the wrapped functions; nothing under ``src/`` changes.
  One op is in flight at a time, so one stack gives every span its
  parent even though the spans of a request open on three threads.
* **direct probes** — each layer's entry point called on its own with
  default arguments on the same inputs.  A self time that cannot be
  seen inside one outer call is ``median(outer) - median(inner)``
  (*derived*).

A probe whose entry point is gone or changed reports no value and a
reason; it never raises, so a refactor of ``src/`` cannot break the
benchmark, only blank the metric until its probe is updated.

Reads ``{"workload", "seed", "seconds"}`` from stdin and prints one JSON
object as its last line: per metric and pipeline the median (``rows``),
why a metric is missing (``reasons``), and the spans.
"""

from __future__ import annotations

import contextlib
import functools
import http.client
import io
import json
import shutil
import statistics
import sys
import tempfile
import threading
import time
from typing import Callable, Dict, List

from stats import derived_self, self_times, spearman
from workloads import BY_NAME, REPO, Workload, derive_seeds

COLD_REPS = 5
WARM_REPS = 30
MIN_REPS = 5
STRATEGY_REPS = 3
MAX_STATES = 1_200_000
STRATEGIES = ("dp", "greedy", "h-manual", "halide-auto", "no-fusion")
#: shares of ``seconds`` one interleaved variant and the traced ops get
VARIANT_SHARE = 0.02
TRACED_OPS_SHARE = 0.12

#: planner/guard functions the outer surfaces call, wrapped in spans
WRAPPED = (("planner", "build_benchmark"), ("planner", "plan_schedule"),
           ("planner", "make_inputs"), ("planner", "output_digests"),
           ("resilience", "execute_guarded"))
#: metrics that need those wrappers
TRACED_OPS = ("trace.traced_op_ms", "serve.host.execute_self_ms",
              "serve.supervisor.transport_ms", "serve.workers.fork_ms")


class Tracer:
    """Spans ``{id, name, op_id, parent, pipeline, start, end}`` kept in
    memory; a span without a parent starts a new op."""

    def __init__(self):
        self.spans: List[dict] = []
        self._stack: List[int] = []
        self._ops = 0
        self._lock = threading.Lock()

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        with self._lock:
            parent = self._stack[-1] if self._stack else None
            if parent is None:
                self._ops += 1
            attrs.setdefault(
                "pipeline",
                "-" if parent is None else self.spans[parent]["pipeline"])
            rec = dict(attrs, id=len(self.spans), name=name,
                       op_id=self._ops, parent=parent,
                       start=time.perf_counter(), end=None)
            self.spans.append(rec)
            self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            with self._lock:
                self._stack.remove(rec["id"])

    def wrap_attr(self, owner, attr: str, name: str) -> None:
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        setattr(owner, attr, traced)


class Report:
    """Samples per metric and pipeline, and why a metric is missing."""

    def __init__(self):
        #: metric -> pipeline -> samples (ms for times)
        self.samples: Dict[str, Dict[str, List[float]]] = {}
        self.reasons: Dict[str, str] = {}

    def add(self, metric: str, key: str, value: float) -> None:
        self.samples.setdefault(metric, {}).setdefault(key, []).append(value)

    @contextlib.contextmanager
    def guard(self, *metrics: str):
        """Run one probe; a failure blanks ``metrics`` and goes on."""
        try:
            yield
        except Exception as exc:
            for m in metrics:
                self.reasons.setdefault(m, f"{type(exc).__name__}: {exc}")

    def rows(self) -> Dict[str, Dict[str, float]]:
        return {
            m: {k: statistics.median(v) for k, v in per.items()}
            for m, per in self.samples.items() if m not in self.reasons
        }


def _ms(t0: float) -> float:
    return (time.perf_counter() - t0) * 1e3


def _interleave(variants: Dict[str, Callable], cap_s: float,
                max_reps: int) -> Dict[str, List[float]]:
    """Time the variants round-robin, so drift of the box lands on all
    of them alike: ``MIN_REPS`` rounds, then more until ``cap_s``."""
    times: Dict[str, List[float]] = {name: [] for name in variants}
    deadline = time.perf_counter() + cap_s
    for rep in range(max_reps):
        if rep >= MIN_REPS and time.perf_counter() > deadline:
            break
        for name, fn in variants.items():
            t0 = time.perf_counter()
            fn()
            times[name].append(_ms(t0))
    return times


class Probes:
    def __init__(self, spec: Workload, seed: int, seconds: float):
        import repro.planner
        import repro.resilience
        from repro.backend import get_machine
        from repro.obs import METRICS

        self.spec = spec
        self.seeds = derive_seeds(seed, spec)
        self.seconds = seconds
        self.tracer, self.report = Tracer(), Report()
        # direct probes call the functions as they are; the spans go
        # around what repro.cli and repro.serve will import
        self.build_benchmark = repro.planner.build_benchmark
        self.plan_schedule = repro.planner.plan_schedule
        self.make_inputs = repro.planner.make_inputs
        self.output_digests = repro.planner.output_digests
        self.execute_guarded = repro.resilience.execute_guarded
        with self.report.guard(*TRACED_OPS):
            for module, attr in WRAPPED:
                self.tracer.wrap_attr(getattr(repro, module), attr,
                                      f"{module}.{attr}")
        self.metrics = METRICS
        METRICS.reset(enabled=True)
        self.machine = get_machine("xeon")
        #: per pipeline what the cold chain built, for the later probes
        self.state: Dict[str, dict] = {}

    def run(self) -> dict:
        for key in self.spec.pipelines:
            self.state[key] = {}
            self.cold_chain(key)
            self.warm_variants(key)
            self.strategies(key)
            self.shm_roundtrip(key)
        self.schedule_cache()
        if TRACED_OPS[0] not in self.report.reasons:
            if self.spec.kind == "serve":
                self.traced_requests()
            else:
                self.traced_cli()
        spans = self.tracer.spans
        for s, own in zip(spans, self_times(spans)):
            self.report.add(f"span.{s['name']}", s["pipeline"], own * 1e3)
        with self.report.guard("serve.host.execute_self_ms"):
            if self.spec.kind == "serve":
                self.report.samples["serve.host.execute_self_ms"] = (
                    self.report.samples["span.serve.host.execute"])
        return {"rows": self.report.rows(), "reasons": self.report.reasons,
                "spans": self.tracer.spans}

    # -- direct probes --------------------------------------------------
    def cold_chain(self, key: str) -> None:
        """What a cold op pays, one public call per layer, in order."""
        from repro.poly.analysis import PipelineAnalysis
        from repro.runtime import (execute_grouping, stage_kernels,
                                   warm_group_kernels)

        report, spec, st = self.report, self.spec, self.state[key]

        def step(metric: str, fn: Callable, *args, **kwargs):
            with self.tracer.span(metric):
                t0 = time.perf_counter()
                out = fn(*args, **kwargs)
                report.add(metric, key, _ms(t0))
            return out

        def compile_all(pipe, grouping):
            return (stage_kernels(pipe),
                    warm_group_kernels(pipe, grouping.groups))

        for _ in range(COLD_REPS):
            with self.tracer.span("cold.chain", pipeline=key):
                with report.guard("pipelines.build_ms"):
                    st["bench"], st["pipe"] = step(
                        "pipelines.build_ms", self.build_benchmark, key,
                        spec.scale)
                with report.guard("poly.analysis_ms"):
                    step("poly.analysis_ms", PipelineAnalysis.of, st["pipe"])
                with report.guard("fusion.schedule_ms", "fusion.dp_states",
                                  "fusion.cost_evaluations",
                                  "fusion.num_groups"):
                    grouping, _ = step(
                        "fusion.schedule_ms", self.plan_schedule, st["pipe"],
                        st["bench"], self.machine, "dp", MAX_STATES,
                        strict=False)
                    st["grouping"] = grouping
                    report.add("fusion.dp_states", key,
                               grouping.stats.enumerated)
                    report.add("fusion.cost_evaluations", key,
                               grouping.stats.cost_evaluations)
                    report.add("fusion.num_groups", key, grouping.num_groups)
                with report.guard("runtime.kernelcache.compile_ms",
                                  "runtime.kernelcache.kernels",
                                  "runtime.kernelcache.fused_groups"):
                    stage, fused = step("runtime.kernelcache.compile_ms",
                                        compile_all, st["pipe"],
                                        st["grouping"])
                    report.add("runtime.kernelcache.kernels", key, len(stage))
                    report.add("runtime.kernelcache.fused_groups", key,
                               len(fused))
                with report.guard("planner.make_inputs_ms"):
                    st["inputs"] = step(
                        "planner.make_inputs_ms", self.make_inputs,
                        st["pipe"], self.seeds[key][0])
                with report.guard("runtime.executor.first_execute_ms"):
                    st["outputs"] = step(
                        "runtime.executor.first_execute_ms", execute_grouping,
                        st["pipe"], st["grouping"], st["inputs"],
                        nthreads=spec.threads)
                with report.guard("planner.digest_ms"):
                    step("planner.digest_ms", self.output_digests,
                         st["outputs"])

    def _counters(self) -> Dict[str, float]:
        value = self.metrics.value
        return {
            "tiles": value("repro_tiles_total") or 0.0,
            "reuse": value("repro_halo_reuse_tiles_total") or 0.0,
            "retries": value("repro_tile_retries_total") or 0.0,
            "reused": value("repro_pool_acquires_total",
                            result="reused") or 0.0,
            "allocated": value("repro_pool_acquires_total",
                               result="allocated") or 0.0,
        }

    def warm_variants(self, key: str) -> None:
        """Warm execution through each executor-facing entry point."""
        from repro.runtime import execute_grouping, execute_reference

        report, st = self.report, self.state[key]
        with report.guard(
                "runtime.executor.execute_ms", "runtime.executor.tiles",
                "runtime.executor.us_per_tile", "runtime.executor.mpix_per_s",
                "runtime.executor.halo_reuse_tile_share",
                "runtime.executor.tile_retries",
                "runtime.executor.thread_scaling",
                "runtime.executor.speedup_vs_reference",
                "runtime.buffers.pool_reuse_share",
                "resilience.guard_overhead_ms", "resilience.degraded_groups"):
            pipe, grouping, inputs = st["pipe"], st["grouping"], st["inputs"]
            threads = self.spec.threads
            other = 2 if threads == 1 else 1

            before = self._counters()
            execute_grouping(pipe, grouping, inputs, nthreads=threads)
            count = {k: v - before[k] for k, v in self._counters().items()}

            degraded = [0]

            def guarded():
                out = self.execute_guarded(pipe, grouping, inputs,
                                           nthreads=threads)
                degraded[0] += sum(
                    o.mode == "reference-fallback" for o in out.outcomes)

            variants = {
                "tiled": functools.partial(execute_grouping, pipe, grouping,
                                           inputs, nthreads=threads),
                "other": functools.partial(execute_grouping, pipe, grouping,
                                           inputs, nthreads=other),
            }
            with report.guard("resilience.guard_overhead_ms",
                              "resilience.degraded_groups"):
                guarded()
                variants["guarded"] = guarded
            with report.guard("runtime.executor.speedup_vs_reference"):
                execute_reference(pipe, inputs)
                variants["reference"] = functools.partial(
                    execute_reference, pipe, inputs)
            times = _interleave(
                variants, self.seconds * VARIANT_SHARE * len(variants),
                WARM_REPS)

            tiled = statistics.median(times["tiled"])
            report.samples.setdefault(
                "runtime.executor.execute_ms", {})[key] = times["tiled"]
            report.add("runtime.executor.tiles", key, count["tiles"])
            report.add("runtime.executor.tile_retries", key, count["retries"])
            report.add("runtime.executor.us_per_tile", key,
                       tiled * 1e3 / count["tiles"])
            report.add("runtime.executor.halo_reuse_tile_share", key,
                       count["reuse"] / count["tiles"])
            report.add("runtime.executor.mpix_per_s", key,
                       sum(a.size for a in st["outputs"].values())
                       / 1e3 / tiled)
            report.add("runtime.buffers.pool_reuse_share", key,
                       count["reused"]
                       / (count["reused"] + count["allocated"]))
            one, two = ((times["tiled"], times["other"]) if threads == 1
                        else (times["other"], times["tiled"]))
            report.add("runtime.executor.thread_scaling", key,
                       statistics.median(one) / statistics.median(two))
            if "reference" in times:
                report.add("runtime.executor.speedup_vs_reference", key,
                           statistics.median(times["reference"]) / tiled)
            if "guarded" in times:
                report.add("resilience.guard_overhead_ms", key,
                           derived_self(times["guarded"], times["tiled"]))
                report.add("resilience.degraded_groups", key, degraded[0])

    def strategies(self, key: str) -> None:
        """Does the cost model rank schedules the way the executor
        does?  And is the DP's grouping faster than no fusion at all?"""
        from repro.model.cost import CostModel
        from repro.runtime import execute_grouping

        report, st = self.report, self.state[key]
        with report.guard("model.cost_rank_spearman",
                          "fusion.dp_gain_vs_nofusion"):
            pipe, inputs = st["pipe"], st["inputs"]
            model = CostModel(pipe, self.machine)
            groupings = {"dp": st["grouping"]}
            for strategy in STRATEGIES[1:]:
                groupings[strategy], _ = self.plan_schedule(
                    pipe, st["bench"], self.machine, strategy, MAX_STATES,
                    strict=False)
            costs = [sum(model.cost(g).cost for g in groupings[s].groups)
                     for s in STRATEGIES]
            times = _interleave(
                {s: functools.partial(execute_grouping, pipe, groupings[s],
                                      inputs, nthreads=self.spec.threads)
                 for s in STRATEGIES},
                0.0, STRATEGY_REPS)
            measured = [statistics.median(times[s]) for s in STRATEGIES]
            report.add("fusion.dp_gain_vs_nofusion", key,
                       measured[STRATEGIES.index("no-fusion")] / measured[0])
            rho = spearman(costs, measured)
            if rho is None:
                raise ValueError(
                    f"{key}: every strategy has the same model cost")
            report.add("model.cost_rank_spearman", key, rho)

    def shm_roundtrip(self, key: str) -> None:
        """Producer copy-in and consumer attach of an output-sized
        payload, as one worker reply does."""
        from repro.serve.shm import (Segment, ShmRegistry, plan_layout,
                                     view_arrays, write_arrays)

        with self.report.guard("serve.shm.roundtrip_ms"):
            outputs = self.state[key]["outputs"]
            registry = ShmRegistry()
            try:
                for _ in range(WARM_REPS):
                    t0 = time.perf_counter()
                    nbytes, specs = plan_layout(
                        (n, a.shape, a.dtype) for n, a in outputs.items())
                    seg = registry.create(nbytes)
                    write_arrays(seg, specs, outputs)
                    peer = Segment.attach(seg.name)
                    view_arrays(peer, specs)
                    peer.close()
                    registry.release(seg)
                    self.report.add("serve.shm.roundtrip_ms", key, _ms(t0))
            finally:
                registry.close()

    def schedule_cache(self) -> None:
        """A persistent-cache hit.  No workload passes
        ``--schedule-cache`` today; recorded so a later workload can."""
        with self.report.guard("fusion.schedcache_hit_ms"):
            work = tempfile.mkdtemp(prefix=".bench_work_", dir=REPO)
            try:
                for key in self.spec.pipelines:
                    st = self.state[key]
                    for rep in range(COLD_REPS + 1):
                        t0 = time.perf_counter()
                        self.plan_schedule(
                            st["pipe"], st["bench"], self.machine, "dp",
                            MAX_STATES, strict=False, schedule_cache=work)
                        if rep:  # the first call fills the cache
                            self.report.add("fusion.schedcache_hit_ms", key,
                                            _ms(t0))
            finally:
                shutil.rmtree(work, ignore_errors=True)

    # -- traced ops -----------------------------------------------------
    def _request_loop(self, address, mode: str) -> None:
        conn = http.client.HTTPConnection(*address, timeout=30.0)
        deadline = time.perf_counter() + self.seconds * TRACED_OPS_SHARE
        try:
            for rep in range(WARM_REPS + 1):
                if rep > MIN_REPS and time.perf_counter() > deadline:
                    break
                for key in self.spec.pipelines:
                    seeds = self.seeds[key]
                    body = json.dumps(
                        {"pipeline": key, "seed": seeds[rep % len(seeds)]})
                    with self.tracer.span("http.roundtrip", pipeline=key,
                                          mode=mode):
                        t0 = time.perf_counter()
                        conn.request("POST", "/run", body,
                                     {"Content-Type": "application/json"})
                        resp = conn.getresponse()
                        doc = json.loads(resp.read())
                        elapsed = _ms(t0)
                    if resp.status != 200:
                        raise RuntimeError(f"traced request failed: {doc}")
                    if rep:  # a connection's first request is warm-up
                        self.report.add(f"trace.{mode}.roundtrip_ms", key,
                                        elapsed)
                        self.report.add(f"trace.{mode}.execute_ms", key,
                                        doc["execute_s"] * 1e3)
        finally:
            conn.close()

    def traced_requests(self) -> None:
        """The serve workloads' op against an in-process service, with
        spans around ``PipelineService.run`` ⊃ ``PipelineHost.execute``
        ⊃ ``execute_guarded``.  For a worker-mode workload a second
        service forks workers; what their ``execute_s`` adds over
        in-process execution is the transport."""
        report, spec = self.report, self.spec
        with report.guard(*TRACED_OPS):
            from repro.serve import (HostConfig, PipelineHost,
                                     PipelineService, ServeConfig,
                                     make_server)

            self.tracer.wrap_attr(PipelineService, "run",
                                  "serve.service.run")
            self.tracer.wrap_attr(PipelineHost, "execute",
                                  "serve.host.execute")
            host = HostConfig(scale=spec.scale, threads=spec.threads)
            for mode, workers in (("inprocess", 0), ("workers", spec.workers)):
                if mode == "workers" and not workers:
                    continue
                service = PipelineService(ServeConfig(
                    host=host, dispatchers=max(1, workers), workers=workers,
                )).start()
                httpd = None
                try:
                    service.warm(spec.pipelines)
                    if workers:
                        t0 = time.perf_counter()
                        service.start_workers()
                        report.add("serve.workers.fork_ms", "all", _ms(t0))
                    httpd = make_server("127.0.0.1", 0, service)
                    threading.Thread(target=httpd.serve_forever,
                                     daemon=True).start()
                    self._request_loop(httpd.server_address[:2], mode)
                    if not workers:
                        # warm pools as the serve layer keeps them, not
                        # the per-call pools of the direct probe
                        for key, h in service.health()["hosts"].items():
                            pool = h["pool"]
                            report.samples[
                                "runtime.buffers.pool_reuse_share"][key] = [
                                pool["reused"]
                                / (pool["reused"] + pool["allocated"])]
                finally:
                    service.shutdown(timeout_s=30.0)
                    if httpd is not None:
                        httpd.shutdown()
                        httpd.server_close()

            report.samples["trace.traced_op_ms"] = report.samples[
                "trace.workers.roundtrip_ms" if spec.workers
                else "trace.inprocess.roundtrip_ms"]
            if spec.workers:
                for key in spec.pipelines:
                    report.add(
                        "serve.supervisor.transport_ms", key, derived_self(
                            report.samples["trace.workers.execute_ms"][key],
                            report.samples["trace.inprocess.execute_ms"][key]))

    def traced_cli(self) -> None:
        """The cold workload's op with spans around the planner and
        guard functions ``repro.cli`` calls; ``cli.main``'s self time
        is argument parsing and printing."""
        spec = self.spec
        with self.report.guard("trace.traced_op_ms"):
            from repro.cli import main as cli_main

            deadline = time.perf_counter() + self.seconds * TRACED_OPS_SHARE
            for rep in range(WARM_REPS):
                if rep >= MIN_REPS and time.perf_counter() > deadline:
                    break
                for key in spec.pipelines:
                    seeds = self.seeds[key]
                    argv = ["run", key, "--scale", str(spec.scale),
                            "--threads", str(spec.threads), "--seed",
                            str(seeds[rep % len(seeds)]), "--digest"]
                    with self.tracer.span("cli.main", pipeline=key):
                        t0 = time.perf_counter()
                        with contextlib.redirect_stdout(io.StringIO()):
                            rc = cli_main(argv)
                        elapsed = _ms(t0)
                    if rc != 0:
                        raise RuntimeError(f"traced cli.main returned {rc}")
                    self.report.add("trace.traced_op_ms", key, elapsed)


def main() -> int:
    req = json.load(sys.stdin)
    probes = Probes(BY_NAME[req["workload"]], req["seed"], req["seconds"])
    print(json.dumps(probes.run()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
