"""End-to-end + per-layer benchmark of the repository (see README.md).

Two ways in, one measurement underneath:

* the driver's contract — ``run.py --workload W --seed N --seconds S
  --trace 0|1`` measures one workload and prints, as the last line, one
  JSON object ``{correct, attempted, failed, metrics}``: the end-to-end
  metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``;
* the whole picture — ``run.py [--seed N] [--runs K]`` measures all four
  workloads with their rounds interleaved, then does the traced run of
  each, and prints every metric by name with its unit.  ``--selfcheck``
  does that twice and holds the two sets against the bounds; ``--smoke``
  is a quick pass that only checks that everything works.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from stats import geomean, median_of_rounds, relative_tail
from workloads import (BY_NAME, HERE, REPO, SRC, WORKLOADS, Measured, Sample,
                       Workload, child_env, measure)

MANIFEST = REPO / "BENCHMARK.json"

#: below these a run is refused: a median needs a few dozen ops per
#: pipeline, and a p90 about ten ops beyond it
MIN_OPS = 50
MIN_OPS_PER_PIPELINE = 15
#: The box this runs on moves between speeds, within seconds and for
#: minutes (a fixed loop varies by a fifth), which no median within a
#: run removes.  So each round's latencies and throughput are scaled to
#: the speed at which the calibration loop, run right before and after
#: the round, takes this long.
REFERENCE_CALIB_MS = 9.0
#: value of a per-layer metric whose probe failed (the reason is printed)
UNMEASURED = -1.0
PROBES_TIMEOUT_S = 150

END_TO_END = (
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("throughput_rps", "ops/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: name, unit, how per-pipeline rows combine: "geomean" for measured
#: times and ratios, "mean" for derived differences and shares, "sum"
#: for counts.
PER_LAYER = (
    ("pipelines.build_ms", "ms", "geomean"),
    ("poly.analysis_ms", "ms", "geomean"),
    ("fusion.schedule_ms", "ms", "geomean"),
    ("fusion.dp_states", "count", "sum"),
    ("fusion.cost_evaluations", "count", "sum"),
    ("fusion.num_groups", "count", "sum"),
    ("fusion.schedcache_hit_ms", "ms", "geomean"),
    ("fusion.dp_gain_vs_nofusion", "ratio", "geomean"),
    ("model.cost_rank_spearman", "ratio", "mean"),
    ("runtime.kernelcache.compile_ms", "ms", "geomean"),
    ("runtime.kernelcache.kernels", "count", "sum"),
    ("runtime.kernelcache.fused_groups", "count", "sum"),
    ("runtime.executor.execute_ms", "ms", "geomean"),
    ("runtime.executor.tiles", "count", "sum"),
    ("runtime.executor.us_per_tile", "us", "geomean"),
    ("runtime.executor.mpix_per_s", "Mpix/s", "geomean"),
    ("runtime.executor.halo_reuse_tile_share", "ratio", "mean"),
    ("runtime.executor.tile_retries", "count", "sum"),
    ("runtime.executor.thread_scaling", "ratio", "geomean"),
    ("runtime.executor.speedup_vs_reference", "ratio", "geomean"),
    ("runtime.buffers.pool_reuse_share", "ratio", "mean"),
    ("resilience.guard_overhead_ms", "ms", "mean"),
    ("resilience.degraded_groups", "count", "sum"),
    ("planner.make_inputs_ms", "ms", "geomean"),
    ("planner.digest_ms", "ms", "geomean"),
    ("serve.host.warm_ms", "ms", "sum"),
    ("serve.host.first_request_ms", "ms", "geomean"),
    ("serve.host.execute_self_ms", "ms", "mean"),
    ("serve.batching.queue_wait_ms", "ms", "geomean"),
    ("serve.batching.batch_size_mean", "req/batch", "mean"),
    ("serve.admission.shed", "count", "sum"),
    ("serve.http.overhead_ms", "ms", "geomean"),
    ("serve.http.latency_p99_ms", "ms", "geomean"),
    ("serve.supervisor.transport_ms", "ms", "mean"),
    ("serve.shm.roundtrip_ms", "ms", "geomean"),
    ("serve.workers.fork_ms", "ms", "mean"),
    ("serve.workers.restarts", "count", "sum"),
    ("serve.workers.used", "count", "sum"),
    ("serve.workers.scaling", "ratio", "mean"),
    ("proc.cpu_ms_per_op", "ms", "mean"),
    ("trace.overhead_share", "ratio", "mean"),
    ("trace.unattributed_share", "ratio", "mean"),
    ("machine.calib_ms", "ms", "mean"),
    ("noise.round_spread", "ratio", "mean"),
)
_COMBINE = {"geomean": geomean, "mean": statistics.fmean, "sum": sum}
_UNITS = dict(END_TO_END, **{n: u for n, u, _ in PER_LAYER})

#: the per-layer times that should add up to one op, by what the op is;
#: what they leave of the untraced median is ``trace.unattributed_share``
_ATTRIBUTED = {
    "serve": ("serve.http.overhead_ms", "serve.batching.queue_wait_ms",
              "serve.supervisor.transport_ms", "serve.host.execute_self_ms",
              "resilience.guard_overhead_ms", "runtime.executor.execute_ms"),
    "cold": ("pipelines.build_ms", "poly.analysis_ms", "fusion.schedule_ms",
             "runtime.kernelcache.compile_ms", "planner.make_inputs_ms",
             "runtime.executor.first_execute_ms",
             "resilience.guard_overhead_ms", "planner.digest_ms"),
}

Rows = Dict[str, Dict[str, float]]


@dataclass(frozen=True)
class Plan:
    """How long and how often one set measures."""

    seconds: float
    rounds: int = 12
    boots: int = 5
    warmup_s: float = 2.0
    #: seconds the traced child sizes its loops by
    probe_seconds: float = 0.0
    #: refuse a run with too few timed ops
    floor: bool = True


# -- metrics of one untraced measurement ---------------------------------

def _by_pipeline(samples: Sequence[Sample], attr: str = "latency_s",
                 scale: float = 1e3) -> Dict[str, List[float]]:
    """Milliseconds (times ``scale`` / 1000) of the successful ops, per
    pipeline."""
    out: Dict[str, List[float]] = {}
    for s in samples:
        if s.failure is None:
            out.setdefault(s.key, []).append(getattr(s, attr) * scale)
    return out


def latency_rows(m: Measured, reference_speed: bool = False) -> Rows:
    """Per pipeline, in ms (wall clock, or at the reference machine
    speed): the median over rounds of the round's median; the p90 as
    that median times the 90th percentile of each op relative to its own
    round's median, so drift between rounds does not pose as a tail; and
    the sample count."""
    rounds = [
        _by_pipeline(r.samples, scale=1e3 * (
            REFERENCE_CALIB_MS / r.calib_ms if reference_speed else 1.0))
        for r in m.rounds]
    keys = sorted(set().union(*rounds))
    p50 = {k: median_of_rounds([r.get(k, []) for r in rounds]) for k in keys}
    return {
        "latency_p50_ms": p50,
        "latency_p90_ms": {
            k: p50[k] * relative_tail([r.get(k, []) for r in rounds], 90)
            for k in keys},
        "samples": {k: sum(len(r.get(k, [])) for r in rounds) for k in keys},
    }


def end_to_end(m: Measured):
    """The end-to-end metrics, and the per-pipeline latency rows behind
    them; latency is the geomean over pipelines, and latency and
    throughput are at the reference machine speed."""
    rows = latency_rows(m, reference_speed=True)
    p50 = geomean(rows["latency_p50_ms"].values())
    return {
        "latency_p50_ms": p50,
        "latency_p90_ms": p50 * relative_tail(
            [v for r in m.rounds for v in _by_pipeline(r.samples).values()],
            90),
        "throughput_rps": statistics.median(
            sum(s.failure is None for s in r.samples) / r.wall_s
            * r.calib_ms / REFERENCE_CALIB_MS for r in m.rounds),
        "setup_s": statistics.median(m.boot_s),
        "peak_rss_mb": m.peak_rss_mb,
    }, rows


def check_sample_counts(m: Measured, floor: bool) -> None:
    """Refuse a run that cannot carry its statistics: no successful op
    of some pipeline, or (``floor``) too few timed ops."""
    counts = latency_rows(m)["samples"] if m.timed() else {}
    if set(counts) != set(m.spec.pipelines) or (floor and (
            sum(counts.values()) < MIN_OPS
            or min(counts.values()) < MIN_OPS_PER_PIPELINE)):
        for s in m.failures()[:5]:
            print(f"FAILED op on {m.spec.name}/{s.key}: {s.failure}")
        raise SystemExit(
            f"invalid run: {m.spec.name} timed {counts} ops; needs "
            f"{MIN_OPS} in all and {MIN_OPS_PER_PIPELINE} per pipeline")


def program_rows(m: Measured) -> Rows:
    """Per-layer numbers the running program itself exposes: response
    fields, ``/healthz``, and its process tree."""
    timed = [s for s in m.timed() if s.failure is None]
    p50 = [geomean(statistics.median(v)
                   for v in _by_pipeline(r.samples).values())
           for r in m.rounds]
    rows: Rows = {
        "proc.cpu_ms_per_op": {
            "all": sum(r.cpu_s for r in m.rounds) * 1e3 / len(timed)},
        "machine.calib_ms": {
            "all": statistics.median(r.calib_ms for r in m.rounds)},
        "noise.round_spread": {"all": max(p50) / min(p50)},
    }
    if m.spec.kind != "serve":
        return rows
    rows["serve.batching.queue_wait_ms"] = {
        k: statistics.median(v)
        for k, v in _by_pipeline(timed, "queue_wait_s").items()}
    rows["serve.batching.batch_size_mean"] = {
        "all": statistics.fmean(s.batch_size for s in timed)}
    overhead: Dict[str, List[float]] = {}
    for s in timed:
        overhead.setdefault(s.key, []).append(
            (s.latency_s - s.queue_wait_s - s.execute_s) * 1e3)
    rows["serve.http.overhead_ms"] = {
        k: statistics.median(v) for k, v in overhead.items()}
    if len(timed) >= 1000:  # ten ops beyond a p99
        groups = [v for r in m.rounds
                  for v in _by_pipeline(r.samples).values()]
        rows["serve.http.latency_p99_ms"] = {
            k: v * relative_tail(groups, 99)
            for k, v in latency_rows(m)["latency_p50_ms"].items()}
    rows["serve.host.first_request_ms"] = {
        k: statistics.median(b[k] * 1e3 for b in m.first_request_s)
        for k in m.spec.pipelines}
    rows["serve.admission.shed"] = {"all": m.health["admission"]["shed"]}
    rows["serve.host.warm_ms"] = {
        k: h["warm_s"] * 1e3 for k, h in m.health["hosts"].items()}
    workers = m.health.get("workers")
    if workers:
        rows["serve.workers.restarts"] = {"all": workers["restarts"]}
        rows["serve.workers.used"] = {"all": sum(
            w.get("batches", 0) > 0 for w in workers["workers"])}
    return rows


# -- the traced run -------------------------------------------------------

def run_probes(spec: Workload, seed: int, seconds: float) -> dict:
    """The traced child (``probes.py``).  If it fails as a whole, its
    metrics are blanked and the run goes on."""
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "probes.py")],
            input=json.dumps({"workload": spec.name, "seed": seed,
                              "seconds": seconds}),
            env=child_env(), capture_output=True, text=True,
            timeout=PROBES_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(proc.stderr.strip().splitlines()[-1:])
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except Exception as exc:
        return {"rows": {}, "spans": [],
                "reasons": {n: f"traced run failed: {exc!r}"
                            for n, _, _ in PER_LAYER}}


def _off_path(name: str, spec: Workload) -> bool:
    """Layers a workload never enters do no work there and report 0:
    the serve layer for one-shot runs, the worker tier for in-process
    serving."""
    if spec.kind == "cold":
        return name.startswith("serve.") and name != "serve.shm.roundtrip_ms"
    return not spec.workers and name.startswith(
        ("serve.workers.", "serve.supervisor."))


def per_layer(m: Measured, probes: dict, small: Optional[Measured]):
    """One value per per-layer metric from what the program exposed and
    what the probes timed; returns ``(values, rows, reasons)``."""
    spec = m.spec
    rows: Rows = dict(probes["rows"])
    rows.update(program_rows(m))
    p50 = latency_rows(m)["latency_p50_ms"]
    if "trace.traced_op_ms" in rows:
        rows["trace.overhead_share"] = {
            k: rows["trace.traced_op_ms"][k] / p50[k] - 1.0 for k in p50}
    parts = [rows.get(n) for n in _ATTRIBUTED[spec.kind]
             if not _off_path(n, spec)]
    if all(parts):
        rows["trace.unattributed_share"] = {
            k: 1.0 - sum(statistics.fmean(p.values()) if k not in p else p[k]
                         for p in parts) / p50[k]
            for k in p50}
    if small is not None:
        rows["serve.workers.scaling"] = {
            "all": end_to_end(m)[0]["throughput_rps"]
            / end_to_end(small)[0]["throughput_rps"]}

    values: Dict[str, float] = {}
    reasons: Dict[str, str] = {}
    for name, _, how in PER_LAYER:
        if name in rows and name not in probes["reasons"]:
            values[name] = float(_COMBINE[how](rows[name].values()))
        elif _off_path(name, spec):
            values[name] = 0.0
        else:
            values[name] = UNMEASURED
            reasons[name] = probes["reasons"].get(
                name, "too few samples or an input of it is unmeasured")
    return values, rows, reasons


# -- running and reporting -------------------------------------------------

def envelope(seed: int) -> dict:
    """Where and on what the numbers were taken."""
    import numpy
    from repro.backend import get_machine, machine_digest

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True,
            text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        sha = ""
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {
        "git_sha": sha or "unknown",
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine_digest": machine_digest(get_machine("xeon")),
        "seed": seed,
    }


def _print_metrics(title: str, values: Dict[str, float], rows: Rows) -> None:
    print(title)
    for name, value in values.items():
        detail = "  ".join(f"{k}={v:.4g}" for k, v in rows.get(name, {}).items()
                           if k != "all")
        print(f"  {name:40s} {value:12.4f} {_UNITS[name]:7s} {detail}")


def measure_set(specs: Sequence[Workload], seed: int, plan: Plan,
                probe: Sequence[Workload] = ()) -> Dict[str, dict]:
    """One complete set: the untraced rounds of ``specs`` interleaved,
    then the traced run of each workload in ``probe``.  Returns, per
    workload, the metrics and the failure accounting."""
    measured = measure(specs, seed, plan.seconds, plan.rounds, plan.boots,
                       plan.warmup_s)
    out: Dict[str, dict] = {}
    for spec in specs:
        m = measured[spec.name]
        check_sample_counts(m, plan.floor)
        failures = m.failures()
        for s in failures[:5]:
            print(f"FAILED op on {spec.name}/{s.key}: {s.failure}")
        for problem in m.problems:
            print(f"UNCLEAN {problem}")
        values, rows = end_to_end(m)
        samples = latency_rows(m)["samples"]
        out[spec.name] = {
            "attempted": len(m.untimed) + len(m.timed()),
            "failed": len(failures),
            "correct": not failures and not m.problems,
            "samples": samples,
            "end_to_end": values,
        }
        _print_metrics(f"[{spec.name}] end to end, timed ops {samples}",
                       values, rows)
    for spec in probe:
        probes = run_probes(spec, seed, plan.probe_seconds)
        small = measured.get("serve_small") if spec.workers else None
        values, rows, reasons = per_layer(measured[spec.name], probes, small)
        out[spec.name].update(per_layer=values, spans=probes["spans"])
        _print_metrics(f"[{spec.name}] per layer", values, rows)
        print(f"[{spec.name}] span self times (ms)")
        for name in sorted(n for n in rows if n.startswith("span.")):
            print(f"  {name:40s} " + "  ".join(
                f"{k}={v:.4g}" for k, v in rows[name].items()))
        for name, why in reasons.items():
            print(f"  UNMEASURED {name}: {why}")
    return out


def _manifest() -> dict:
    doc = json.loads(MANIFEST.read_text())
    mine = [[w.name for w in WORKLOADS], [n for n, _ in END_TO_END],
            [n for n, _, _ in PER_LAYER]]
    theirs = [[e["name"] for e in doc[k]]
              for k in ("workloads", "end_to_end", "per_layer")]
    if mine != theirs:
        raise SystemExit(f"{MANIFEST.name} and run.py name different "
                         f"workloads or metrics")
    return doc


def run_driver(spec: Workload, seed: int, seconds: float, trace: bool) -> int:
    """One workload under the driver's contract."""
    print(json.dumps({"envelope": envelope(seed)}))
    if trace:
        # the traced run needs only a reference median of the untraced
        # op; worker scaling also needs serve_small's throughput
        specs = [spec] + ([BY_NAME["serve_small"]] if spec.workers else [])
        plan = Plan(seconds * 0.25, rounds=3, boots=1, warmup_s=1.0,
                    probe_seconds=seconds, floor=False)
    else:
        specs, plan = [spec], Plan(seconds)
    res = measure_set(specs, seed, plan, [spec] if trace else [])[spec.name]
    values = res["per_layer" if trace else "end_to_end"]
    print(json.dumps({
        "correct": res["correct"], "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {n: {"value": v, "unit": _UNITS[n]}
                    for n, v in values.items()},
    }))
    return 0 if res["correct"] else 1


def _summary(runs: Sequence[Dict[str, dict]]) -> Dict[str, dict]:
    """Per workload and metric, the median and quartiles over runs."""
    out: Dict[str, dict] = {}
    for name in runs[0]:
        out[name] = {"samples": runs[-1][name]["samples"]}
        for group in ("end_to_end", "per_layer"):
            if group not in runs[0][name]:
                continue
            out[name][group] = {}
            for metric in runs[0][name][group]:
                xs = [r[name][group][metric] for r in runs]
                q = (statistics.quantiles(xs, n=4) if len(xs) > 1
                     else [xs[0]] * 3)
                out[name][group][metric] = {
                    "value": statistics.median(xs), "unit": _UNITS[metric],
                    "q1": q[0], "q3": q[2], "runs": xs}
    return out


def _print_summary(summary: Dict[str, dict]) -> None:
    print("median [first quartile, third quartile] over the runs")
    for name, groups in summary.items():
        for group in ("end_to_end", "per_layer"):
            for metric, x in groups.get(group, {}).items():
                print(f"  {name:14s} {metric:40s} {x['value']:12.4f} "
                      f"[{x['q1']:.4f}, {x['q3']:.4f}] {x['unit']}")


def _selfcheck(a: Dict[str, dict], b: Dict[str, dict],
               bounds: Dict[str, float]) -> List[str]:
    """Two sets of runs of the same code must agree: end-to-end medians
    within the metric's bound, counts exactly."""
    bad = []
    print("selfcheck: metric @ workload, first set, second set, "
          "difference, bound")
    for name in a:
        for metric, bound in bounds.items():
            x, y = (s[name]["end_to_end"][metric] for s in (a, b))
            diff = abs(y["value"] - x["value"]) / x["value"]
            verdict = "ok" if diff <= bound else "DISAGREE"
            print(f"  {metric:16s} @ {name:14s} "
                  f"{x['value']:10.4f} [{x['q1']:.4f}, {x['q3']:.4f}]  "
                  f"{y['value']:10.4f} [{y['q1']:.4f}, {y['q3']:.4f}]  "
                  f"{diff:6.3f}  {bound:5.2f}  {verdict}")
            x["aa_diff"] = diff
            if diff > bound:
                bad.append(f"{metric} @ {name}: {diff:.3f} > {bound}")
        for metric, x in a[name].get("per_layer", {}).items():
            if x["unit"] == "count":
                seen = set(x["runs"] + b[name]["per_layer"][metric]["runs"])
                if len(seen) > 1:
                    bad.append(f"{metric} @ {name}: counts differ {seen}")
    return bad


def run_full(args, manifest: dict) -> int:
    """All workloads interleaved, ``--runs`` times (twice that with
    ``--selfcheck``), every metric printed."""
    if args.smoke:
        plan = Plan(2.0, rounds=1, boots=1, warmup_s=0.5, floor=False)
    else:
        plan = Plan(args.seconds, probe_seconds=args.seconds)
    probe = () if args.smoke or args.no_trace else WORKLOADS
    sets = []
    for _ in range(2 if args.selfcheck else 1):
        sets.append([measure_set(WORKLOADS, args.seed + i, plan, probe)
                     for i in range(args.runs)])
    runs = [r for s in sets for r in s]
    if args.trace_out:
        with open(args.trace_out, "w") as fh:
            json.dump({name: res.get("spans", [])
                       for name, res in runs[-1].items()}, fh)
    summaries = [_summary(s) for s in sets]
    if args.runs > 1:
        _print_summary(summaries[0])
    bad = []
    if args.selfcheck:
        bad = _selfcheck(*summaries, {
            e["name"]: e["bound"] for e in manifest["end_to_end"]})
        for line in bad:
            print(f"SELFCHECK {line}")
    results = [res for r in runs for res in r.values()]
    correct = all(res["correct"] for res in results)
    print(json.dumps({
        "envelope": envelope(args.seed),
        "plan": vars(plan) | {"runs": args.runs},
        "correct": correct,
        "attempted": sum(res["attempted"] for res in results),
        "failed": sum(res["failed"] for res in results),
        "workloads": summaries[0],
        **({"second_set": summaries[1]} if args.selfcheck else {}),
    }))
    return 0 if correct and not bad else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(BY_NAME),
                        help="measure this workload only and print the "
                             "driver's result line")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per workload (default: "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 prints the per-layer "
                             "metrics instead of the end-to-end ones")
    parser.add_argument("--runs", type=int, default=None,
                        help="complete sets to take the median over "
                             "(default 1; 3 with --selfcheck)")
    parser.add_argument("--selfcheck", action="store_true",
                        help="two times --runs sets; exit 1 if they "
                             "disagree by more than the bounds")
    parser.add_argument("--smoke", action="store_true",
                        help="1 round of 2 s, no traced run, no floor")
    parser.add_argument("--no-trace", action="store_true",
                        help="skip the traced runs")
    parser.add_argument("--trace-out", metavar="FILE",
                        help="write the last run's spans there as JSON")
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        raise SystemExit(f"nothing to measure: {SRC / 'repro'} is missing")
    sys.path.insert(0, str(SRC))
    manifest = _manifest()
    if args.seconds is None:
        args.seconds = float(manifest["run_seconds"])
    if args.runs is None:
        args.runs = 3 if args.selfcheck else 1
    if args.workload:
        return run_driver(BY_NAME[args.workload], args.seed, args.seconds,
                          bool(args.trace))
    return run_full(args, manifest)


if __name__ == "__main__":
    sys.exit(main())
