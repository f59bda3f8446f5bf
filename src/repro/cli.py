"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list``
    The registered benchmarks with their paper configurations.
``schedule <bench>``
    Run a scheduling strategy on a benchmark and print (or save) the
    grouping.
``run <bench>``
    Schedule and *execute* a benchmark (at a reduced scale by default)
    with the overlapped-tiling executor, verifying against the
    reference.
``estimate <bench>``
    Price all four paper configurations with the timing model.
``codegen <bench>``
    Print the C that serves a scheduled benchmark, as a program.
``serve``
    Boot the long-lived batching pipeline service with an HTTP API
    (see :mod:`repro.serve` and ``docs/serving.md``).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Optional

import numpy as np

from .fusion.serialize import load_grouping, save_grouping
from .obs import METRICS, TRACE
from .planner import MAX_STATES, build_benchmark, make_inputs, \
    output_digests, plan_schedule
from .profiling import PROFILE
from .model import Machine
from .model.machine import MACHINES, get_machine, machines_json
from .perfmodel import estimate_runtime
from .pipelines import BENCHMARKS, registry_json
from .reporting import format_table
from .resilience import GuardPolicy, execute_guarded
from .runtime import (
    KernelTier,
    execute_grouping,
    execute_reference,
    grouping_kernels,
)

__all__ = ["main"]


# The build/schedule logic lives in repro.planner now, shared verbatim
# with the serve layer so `repro run` and a PipelineHost make identical
# decisions (the serve layer's bit-identity contract depends on it).
_build = build_benchmark
_schedule = plan_schedule


def _obs_begin(args) -> None:
    """Enable tracing/metrics collection per ``--trace-json`` /
    ``--metrics`` (both default off, so the usual path pays nothing)."""
    if getattr(args, "trace_json", None):
        TRACE.reset(enabled=True)
        # Collect the scheduler's per-phase breakdown even without
        # --profile-schedule: the phases fold into the trace at the end,
        # so scheduling and execution land in one tree.
        if not args.profile_schedule:
            PROFILE.reset(enabled=True)
    if getattr(args, "metrics", None):
        METRICS.reset(enabled=True)


def _obs_finish(args) -> None:
    """Write the requested trace/metrics files and disable collection."""
    if getattr(args, "trace_json", None):
        PROFILE.emit_spans(TRACE)
        TRACE.write_json(args.trace_json)
        print(f"trace written to {args.trace_json}")
        TRACE.reset(enabled=False)
        if not args.profile_schedule:
            PROFILE.reset(enabled=False)
    if getattr(args, "metrics", None):
        METRICS.write(args.metrics)
        print(f"metrics written to {args.metrics}")
        METRICS.reset(enabled=False)


def cmd_list(args) -> int:
    if getattr(args, "machines", False):
        print(json.dumps(machines_json(), indent=2))
        return 0
    if getattr(args, "json", False):
        print(json.dumps(registry_json(), indent=2))
        return 0
    rows = []
    for ab, b in BENCHMARKS.items():
        rows.append([
            ab, b.name, "x".join(map(str, b.image_size)), b.paper_stages,
        ])
    print(format_table(
        "Registered benchmarks",
        ["key", "name", "paper size", "stages"],
        rows,
    ))
    return 0


def cmd_schedule(args) -> int:
    bench, pipe = _build(args.benchmark, args.scale)
    machine = get_machine(args.machine)
    _obs_begin(args)
    if args.profile_schedule:
        PROFILE.reset(enabled=True)
    start = time.perf_counter()
    grouping, report = _schedule(
        pipe, bench, machine, args.strategy, args.max_states,
        budget_s=args.schedule_budget_s, strict=args.strict,
        prune=args.prune, schedule_cache=args.schedule_cache,
    )
    elapsed = time.perf_counter() - start
    timing = PROFILE.snapshot() if args.profile_schedule else None
    print(grouping.describe())
    if report is not None:
        print(report.describe())
    print(f"scheduled in {elapsed:.2f}s "
          f"({grouping.stats.enumerated} states enumerated)")
    if args.profile_schedule:
        print(PROFILE.format())
        if not args.trace_json:
            PROFILE.reset(enabled=False)
    if isinstance(machine, Machine):
        t = estimate_runtime(pipe, grouping, machine, machine.num_cores)
        print(f"estimated run time at {machine.num_cores} cores: "
              f"{t * 1e3:.2f} ms")
    else:
        # The timing model prices CPU cache behaviour; GPU machines get
        # tile sizes and grouping only.
        print(f"(no runtime estimate: {type(machine).__name__} is outside "
              f"the CPU timing model)")
    if args.output:
        save_grouping(grouping, args.output, timing=timing)
        print(f"schedule written to {args.output}")
    _obs_finish(args)
    return 0


def cmd_run(args) -> int:
    try:
        kernels = KernelTier.resolve()
    except ValueError as exc:  # a malformed REPRO_KERNELS
        raise SystemExit(str(exc))
    bench, pipe = _build(args.benchmark, args.scale)
    machine = get_machine(args.machine)
    _obs_begin(args)
    if args.schedule:
        grouping = load_grouping(pipe, args.schedule)
    else:
        if args.profile_schedule:
            PROFILE.reset(enabled=True)
        grouping, report = _schedule(
            pipe, bench, machine, args.strategy, args.max_states,
            budget_s=args.schedule_budget_s, strict=args.strict,
            prune=args.prune, schedule_cache=args.schedule_cache,
        )
        if report is not None:
            print(report.describe())
        if args.profile_schedule:
            print(PROFILE.format())
            if not args.trace_json:
                PROFILE.reset(enabled=False)
    print(grouping.describe())

    inputs = make_inputs(pipe, args.seed)

    start = time.perf_counter()
    # All of the grouping's kernels at once: its native groups share one
    # artifact, found under --schedule-cache when that is given.
    grouping_kernels(
        pipe, grouping.groups, kernels, schedule_cache=args.schedule_cache
    )
    if args.strict:
        out = execute_grouping(
            pipe, grouping, inputs, nthreads=args.threads, kernels=kernels,
        )
    else:
        exec_report = execute_guarded(
            pipe, grouping, inputs, nthreads=args.threads,
            policy=GuardPolicy(
                tile_retries=1, degrade=True, kernels=kernels,
            ),
        )
        out = exec_report.outputs
        if exec_report.degraded:
            print(exec_report.describe())
    elapsed = time.perf_counter() - start
    print(f"executed in {elapsed:.2f}s on {args.threads} thread(s)")

    if args.digest:
        for name, digest in output_digests(out).items():
            print(f"digest {name} {digest}")

    rc = 0
    if args.verify:
        ref = execute_reference(pipe, inputs)
        ok = all(
            np.allclose(ref[k].astype(np.float64), out[k].astype(np.float64),
                        atol=3e-2, rtol=1e-3)
            for k in ref
        )
        print(f"verification against reference: {'OK' if ok else 'MISMATCH'}")
        rc = 0 if ok else 1
    _obs_finish(args)
    return rc


def cmd_estimate(args) -> int:
    bench, pipe = _build(args.benchmark, 1.0)
    machine = get_machine(args.machine)
    if not isinstance(machine, Machine):
        raise SystemExit(
            "`repro estimate` prices the paper's CPU configurations; "
            "the timing model has no GPU analogue — use `repro schedule "
            f"{args.benchmark} --machine {args.machine}` for block/warp "
            "tile sizes"
        )
    from .fusion import halide_auto_schedule, polymage_autotune

    rows = []
    configs = [
        ("H-manual", bench.h_manual(pipe), "halide"),
        ("H-auto", halide_auto_schedule(pipe, machine), "halide"),
        ("PolyMage-A", polymage_autotune(pipe, machine).best, "polymage"),
        ("PolyMageDP",
         _schedule(pipe, bench, machine, "dp", args.max_states,
                   prune=args.prune, schedule_cache=args.schedule_cache)[0],
         "polymage"),
    ]
    for name, grouping, codegen in configs:
        t1 = estimate_runtime(pipe, grouping, machine, 1, codegen=codegen)
        tn = estimate_runtime(pipe, grouping, machine, machine.num_cores,
                              codegen=codegen)
        rows.append([name, grouping.num_groups,
                     round(t1 * 1e3, 2), round(tn * 1e3, 2)])
    print(format_table(
        f"{bench.name} on {machine.name}",
        ["configuration", "groups", "1 core (ms)",
         f"{machine.num_cores} cores (ms)"],
        rows,
    ))
    return 0


def cmd_graph(args) -> int:
    from .reporting import pipeline_to_dot

    bench, pipe = _build(args.benchmark, args.scale)
    machine = get_machine(args.machine)
    grouping = None
    if args.strategy != "none":
        grouping, _ = _schedule(pipe, bench, machine, args.strategy,
                                args.max_states)
    dot = pipeline_to_dot(pipe, grouping)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(dot)
        print(f"wrote {args.output} (render with: dot -Tpdf {args.output})")
    else:
        print(dot)
    return 0


def cmd_codegen(args) -> int:
    from .codegen import generate_cpp, generate_main

    bench, pipe = _build(args.benchmark, args.scale)
    machine = get_machine(args.machine)
    grouping, _ = _schedule(pipe, bench, machine, args.strategy,
                            args.max_states, prune=args.prune,
                            schedule_cache=args.schedule_cache)
    code = generate_cpp(pipe, grouping)
    if args.with_main:
        code += generate_main(pipe)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(code)
        print(f"wrote {len(code.splitlines())} lines to {args.output}")
    else:
        print(code)
    return 0


def cmd_serve(args) -> int:
    """Boot the batching pipeline service behind the stdlib HTTP API.

    Runs until SIGTERM/SIGINT, then drains gracefully: admission stops,
    every admitted request completes (bounded by ``--drain-timeout-s``),
    and the exit code says whether the drain was clean.
    """
    import signal
    import threading

    # Deferred import: the serve layer pulls in the full runtime stack,
    # which the other subcommands shouldn't pay for at parse time.
    from .serve import HostConfig, PipelineService, ServeConfig, make_server

    METRICS.reset(enabled=True)
    config = ServeConfig(
        host=HostConfig(
            machine=args.machine,
            scale=args.scale,
            threads=args.threads,
            schedule_cache=args.schedule_cache,
        ),
        max_queue=args.max_queue,
        max_batch_size=args.max_batch,
        default_timeout_s=args.timeout_s,
        # one execution slot per worker keeps every worker busy; the
        # in-process tier runs one batch at a time
        dispatchers=max(1, args.workers),
        workers=args.workers,
        worker_timeout_s=args.worker_timeout_s,
        heartbeat_s=args.heartbeat_s,
    )
    service = PipelineService(config).start()
    for key in args.warm:
        print(f"warming {key} ...", flush=True)
        host = service.host(key)
        print(f"  {key}: {host.grouping.num_groups} groups via "
              f"{host.schedule_tier} in {host.warm_s:.2f}s", flush=True)
    if args.workers > 0:
        # fork after warm-up: every worker inherits the warm schedules,
        # compiled kernels, and scratch pools built above
        sup = service.start_workers()
        print(f"workers: {sup.worker_pids()} "
              f"(timeout={config.worker_timeout_s}s, "
              f"heartbeat={config.heartbeat_s}s)", flush=True)

    httpd = make_server(args.host, args.port, service,
                        max_body_bytes=int(args.max_body_mb * 1024 * 1024))
    bound_host, bound_port = httpd.server_address[:2]
    stop = threading.Event()

    def _on_signal(signum, frame):
        stop.set()

    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)

    server_thread = threading.Thread(
        target=httpd.serve_forever, name="repro-serve-http", daemon=True,
    )
    server_thread.start()
    print(f"serving on http://{bound_host}:{bound_port} "
          f"(queue={config.max_queue}, batch={config.max_batch_size}, "
          f"threads={config.host.threads})", flush=True)

    stop.wait()
    print("draining ...", flush=True)
    clean = service.shutdown(timeout_s=args.drain_timeout_s)
    httpd.shutdown()
    httpd.server_close()
    snap = service.admission.snapshot()
    print(f"drained clean={clean} admitted={snap['admitted']} "
          f"completed={snap['completed']} shed={snap['shed']} "
          f"timeouts={snap['timeouts']} errors={snap['errors']}",
          flush=True)
    return 0 if clean else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Fusion and tile-size model for image processing "
                    "pipelines (PPoPP 2018 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("list", help="list registered benchmarks")
    p.add_argument("--json", action="store_true",
                   help="machine-readable registry: key, params, input "
                        "extents and dtypes, outputs")
    p.add_argument("--machines", action="store_true",
                   help="machine-readable machine catalogue: every "
                        "preset with its capacities and digest")

    def machine_flag(p):
        p.add_argument("--machine", default="xeon", choices=sorted(MACHINES),
                       help="machine preset whose model schedules: a CPU "
                            "preset is priced by the paper's cache model, "
                            "a gpu-* preset by the block/warp model; every "
                            "schedule runs on the one CPU executor "
                            "(default: xeon)")

    def common(p, with_strategy=True):
        p.add_argument("benchmark", choices=sorted(BENCHMARKS),
                       help="benchmark key (see `list`)")
        machine_flag(p)
        p.add_argument("--max-states", type=int, default=MAX_STATES)
        p.add_argument("--schedule-budget-s", type=float, default=None,
                       help="wall-clock budget for the DP scheduling "
                            "tiers (degrade mode falls down the chain "
                            "when it runs out)")
        mode = p.add_mutually_exclusive_group()
        mode.add_argument("--strict", dest="strict", action="store_true",
                          help="fail hard on scheduling/execution errors")
        mode.add_argument("--degrade", dest="strict", action="store_false",
                          help="degrade gracefully: dp -> dp-incremental "
                               "-> greedy -> no-fusion for scheduling, "
                               "per-group reference fallback for "
                               "execution (default)")
        p.set_defaults(strict=False)
        p.add_argument("--schedule-cache", metavar="DIR", default=None,
                       help="persistent schedule cache directory: a hit "
                            "skips the DP search entirely, stale entries "
                            "are evicted and re-scheduled; `run` keeps "
                            "its native kernel artifacts in DIR/native")
        p.add_argument("--profile-schedule", action="store_true",
                       help="print a per-phase timing breakdown of the "
                            "scheduling run (and embed it in the schedule "
                            "file under a 'timing' key when -o is given)")
        p.add_argument("--no-prune", dest="prune", action="store_false",
                       help="disable the lossless branch-and-bound / "
                            "dominance pruning of the DP search (same "
                            "result, more explored states)")
        p.set_defaults(prune=True)
        if with_strategy:
            p.add_argument(
                "--strategy", default="dp",
                choices=["dp", "dp-incremental", "greedy", "polymage-auto",
                         "halide-auto", "h-manual", "no-fusion"],
            )

    def obs_flags(p):
        p.add_argument("--trace-json", metavar="FILE", default=None,
                       help="write a span-tree trace (scheduling phases, "
                            "per-group and per-chunk execution, fallback "
                            "tiers) to FILE as JSON")
        p.add_argument("--metrics", metavar="FILE", default=None,
                       help="write metrics (tiles, retries, kernel "
                            "compiles, pool recycling, cache events) to "
                            "FILE in Prometheus text format")

    p = sub.add_parser("schedule", help="schedule a benchmark")
    common(p)
    obs_flags(p)
    p.add_argument("--scale", type=float, default=1.0,
                   help="image-size fraction of the paper configuration")
    p.add_argument("-o", "--output", help="write the schedule as JSON")

    p = sub.add_parser("run", help="schedule and execute a benchmark "
                                   "(REPRO_KERNELS=stage: no native C)")
    common(p)
    obs_flags(p)
    p.add_argument("--scale", type=float, default=0.1)
    p.add_argument("--threads", type=int, default=1,
                   help="executor worker threads (default 1; see "
                        "'serve --help' for what more measured)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--schedule", help="load a saved schedule instead")
    p.add_argument("--verify", action="store_true",
                   help="compare against the untiled reference")
    p.add_argument("--digest", action="store_true",
                   help="print a 'digest <name> <sha256>' line per output "
                        "(bit-identity checks against the serve layer)")

    p = sub.add_parser("estimate",
                       help="price the four paper configurations")
    common(p, with_strategy=False)

    p = sub.add_parser("codegen", help="emit C for a schedule")
    common(p)
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("-o", "--output")
    p.add_argument("--with-main", action="store_true",
                   help="append a file-I/O main() harness")

    p = sub.add_parser(
        "serve",
        help="boot the long-lived batching pipeline service (HTTP API)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8177,
                   help="listen port (0 picks a free port)")
    machine_flag(p)
    p.add_argument("--scale", type=float, default=0.1,
                   help="image-size fraction hosts are built at")
    p.add_argument("--threads", type=int, default=1,
                   help="executor worker threads per request (default "
                        "1; measured warm latencies per thread count "
                        "are tabled in docs/serving.md).  Throughput "
                        "under concurrent load comes from --workers")
    p.add_argument("--max-queue", type=int, default=64,
                   help="admission bound: requests beyond this queue "
                        "depth are shed with SERVE_OVERLOADED")
    p.add_argument("--max-batch", type=int, default=8,
                   help="cap on same-pipeline requests one dispatch "
                        "takes from the backlog")
    p.add_argument("--timeout-s", type=float, default=30.0,
                   help="default per-request deadline")
    p.add_argument("--drain-timeout-s", type=float, default=60.0,
                   help="bound on the graceful drain at shutdown")
    p.add_argument("--workers", type=int, default=0,
                   help="worker processes forked after warm-up; requests "
                        "execute crash-isolated in them, with automatic "
                        "respawn and bounded retry on worker death "
                        "(0: execute in-process)")
    p.add_argument("--worker-timeout-s", type=float, default=30.0,
                   help="per-batch execution timeout on a worker before "
                        "the supervisor kills it (SERVE_WORKER_TIMEOUT)")
    p.add_argument("--heartbeat-s", type=float, default=1.0,
                   help="worker heartbeat interval; a worker silent for "
                        "3x this is killed and respawned")
    p.add_argument("--max-body-mb", type=float, default=8.0,
                   help="reject POST bodies larger than this with "
                        "HTTP 413 (SERVE_BODY_TOO_LARGE)")
    p.add_argument("--warm", nargs="*", default=[],
                   choices=sorted(BENCHMARKS), metavar="BENCH",
                   help="benchmarks to schedule/compile at boot instead "
                        "of on first request")
    p.add_argument("--schedule-cache", metavar="DIR", default=None,
                   help="persistent schedule cache directory shared "
                        "with `repro run`; native kernel artifacts go "
                        "to DIR/native (default: "
                        "${XDG_CACHE_HOME:-~/.cache}/repro/native)")

    p = sub.add_parser("graph", help="emit a Graphviz DAG of a benchmark")
    p.add_argument("benchmark", choices=sorted(BENCHMARKS))
    machine_flag(p)
    p.add_argument("--max-states", type=int, default=MAX_STATES)
    p.add_argument(
        "--strategy", default="dp",
        choices=["none", "dp", "dp-incremental", "greedy", "polymage-auto",
                 "halide-auto", "h-manual"],
        help="cluster nodes by this strategy's grouping ('none' for the "
             "bare DAG)",
    )
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("-o", "--output")
    return parser


_COMMANDS = {
    "list": cmd_list,
    "schedule": cmd_schedule,
    "run": cmd_run,
    "estimate": cmd_estimate,
    "codegen": cmd_codegen,
    "graph": cmd_graph,
    "serve": cmd_serve,
}


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
