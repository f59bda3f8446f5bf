"""Metrics registry: counters, gauges, histograms; JSON and Prometheus
text-format exposition.

One process-global :data:`METRICS` registry collects what a long-running
deployment of the scheduler/executor needs to see — tile retries and
failures, kernel-compile outcomes, buffer-pool recycling, scheduling
degradations, schedule-cache hit rates — as labelled time series.  The
CLI's ``--metrics FILE`` enables collection and writes the Prometheus
text exposition at exit; :meth:`MetricsRegistry.to_dict` is the JSON
form for programmatic consumers.

Design points:

* **Disabled by default, free when disabled** — every mutator returns
  after a single attribute check, so instrumented sites cost nothing in
  production runs that don't ask for metrics (guarded against the
  ``BENCH_executor.json`` baselines).
* **Thread-safe** — one lock around the value maps; mutation sites sit
  at group/chunk/cache-event granularity, never per tile, so contention
  is negligible.
* **Self-describing** — metric names used by the instrumented sites are
  declared in :data:`METRIC_HELP` with their type and help string, and
  unknown names auto-register (counters via :meth:`~MetricsRegistry.inc`,
  gauges via :meth:`~MetricsRegistry.set`, histograms via
  :meth:`~MetricsRegistry.observe`), so ad-hoc instrumentation needs no
  registration ceremony.

:func:`parse_prometheus_text` is the strict round-trip parser the test
suite and the CI smoke step validate the exposition with.
"""

from __future__ import annotations

import json
import math
import re
import threading
from typing import Any, Dict, List, Mapping, Optional, Tuple

__all__ = [
    "MetricsRegistry",
    "METRICS",
    "METRIC_HELP",
    "BATCH_SIZE_BUCKETS",
    "parse_prometheus_text",
]

#: default histogram buckets (seconds) — spans group execution times from
#: sub-millisecond synthetic pipelines to multi-second full-scale runs
DEFAULT_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0,
)

#: metric name -> (type, help) for every site this package instruments
METRIC_HELP: Dict[str, Tuple[str, str]] = {
    "repro_tiles_total": (
        "counter", "Schedule tiles covered by completed steps of the "
                   "overlapped-tiling executor"),
    "repro_tile_steps_total": (
        "counter", "Steps completed: one group-kernel call over a span "
                   "of adjacent schedule tiles (== tiles on a group "
                   "without a carry dimension)"),
    "repro_tile_retries_total": (
        "counter", "Step attempts retried after a transient failure"),
    "repro_tile_failures_total": (
        "counter", "Tiles that failed for good (TILE_FAIL raised), "
                   "labelled by the causing error code"),
    "repro_tile_nonretryable_total": (
        "counter", "Tile failures classified non-retryable and surfaced "
                   "without burning retry attempts"),
    "repro_execute_seconds": (
        "histogram", "Wall time of one executor invocation"),
    "repro_group_seconds": (
        "histogram", "Wall time of one fused group's execution, by its "
                     "index in the grouping (group=)"),
    "repro_kernel_compile_total": (
        "counter", "Stage-kernel lookups: lowering outcomes and memo "
                   "hits (result=compiled|cached|fallback)"),
    "repro_kernel_native_total": (
        "counter", "Tiled groups and untiled reductions offered to the "
                   "native (C) tier at kernel resolution (result=built|"
                   "cached|ineligible|failed|demoted)"),
    "repro_kernel_native_build_seconds": (
        "histogram", "Wall time of one compiler call building a "
                     "grouping's native kernels (artifact-store misses "
                     "only)"),
    "repro_halo_reuse_tiles_total": (
        "counter", "Tiles that reused a carried run window instead of "
                   "recomputing their expanded region (a step's tiles, "
                   "less one if the step seeded)"),
    "repro_halo_reuse_saved_points_total": (
        "counter", "Iteration points halo reuse skipped recomputing "
                   "(carried-window points served to adjacent steps)"),
    "repro_halo_reuse_invalidations_total": (
        "counter", "Carried windows dropped after a failed step attempt "
                   "(the retry recomputes fresh windows)"),
    "repro_pool_acquires_total": (
        "counter", "Scratch-array acquisitions from a BufferPool "
                   "(result=reused|allocated)"),
    "repro_pool_reclaims_total": (
        "counter", "Scratch arrays returned to a BufferPool"),
    "repro_pool_evictions_total": (
        "counter", "Scratch arrays evicted from capped BufferPools to "
                   "respect max_free_bytes"),
    "repro_degraded_groups_total": (
        "counter", "Groups that fell back to reference execution, "
                   "labelled by the stable error code that forced it"),
    "repro_schedule_tier_attempts_total": (
        "counter", "Resilient-scheduling tier attempts "
                   "(tier=..., status=ok|failed|skipped)"),
    "repro_schedule_cache_events_total": (
        "counter", "Persistent schedule-cache events "
                   "(event=hit|miss|eviction|store)"),
    "repro_schedule_seconds": (
        "histogram", "Wall time of scheduling runs, labelled by strategy"),
    # -- serve layer (repro.serve) --------------------------------------
    "repro_serve_http_connections_total": (
        "counter", "Connections accepted by the HTTP front-end (a "
                   "keep-alive client is one, whatever it sends)"),
    "repro_serve_requests_total": (
        "counter", "Requests completed by the serve layer "
                   "(status=ok|error|timeout|shed)"),
    "repro_serve_queue_depth": (
        "gauge", "Requests currently waiting in the serve queue"),
    "repro_serve_batch_size": (
        "histogram", "Coalesced requests per executed micro-batch"),
    "repro_serve_batches_total": (
        "counter", "Micro-batches executed by the serve layer"),
    "repro_serve_queue_wait_seconds": (
        "histogram", "Time a request waited in the queue before its "
                     "batch started executing"),
    "repro_serve_shed_total": (
        "counter", "Requests shed by admission control (queue at its "
                   "depth bound, SERVE_OVERLOADED)"),
    "repro_serve_timeouts_total": (
        "counter", "Requests whose deadline expired before execution "
                   "(SERVE_TIMEOUT)"),
    "repro_serve_warm_seconds": (
        "histogram", "Time to warm a pipeline host (build + schedule + "
                     "kernel compile)"),
    # -- worker tier (repro.serve.supervisor) ---------------------------
    "repro_serve_workers": (
        "gauge", "Live worker processes in the supervised tier"),
    "repro_serve_worker_restarts_total": (
        "counter", "Worker respawns by the supervisor "
                   "(reason=crash|timeout|heartbeat)"),
    "repro_serve_worker_heartbeat_age_seconds": (
        "gauge", "Seconds since each worker's last heartbeat "
                 "(labelled by worker index)"),
    "repro_serve_worker_batches_total": (
        "counter", "Micro-batches executed on the worker tier, "
                   "labelled by worker index"),
    "repro_serve_worker_retries_total": (
        "counter", "In-flight requests retried on a replacement worker "
                   "after a worker death (at most once per request)"),
    "repro_serve_worker_lost_total": (
        "counter", "Requests failed with SERVE_WORKER_LOST after the "
                   "bounded retry also lost its worker"),
    "repro_serve_shm_bytes": (
        "gauge", "Bytes currently held in live shared-memory segments "
                 "owned by this process"),
    "repro_serve_shm_segments": (
        "gauge", "Live shared-memory segments owned by this process"),
    "repro_serve_breaker_state": (
        "gauge", "Per-pipeline worker-tier circuit breaker "
                 "(0=closed, 1=open, 2=half-open)"),
    "repro_serve_breaker_trips_total": (
        "counter", "Circuit-breaker trips to the in-process fallback "
                   "tier after repeated worker deaths"),
}

#: bucket edges for the batch-size histogram (requests, not seconds)
BATCH_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Mapping[str, Any]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _escape(value: str) -> str:
    return (value.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _fmt(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(float(value))


class _Histogram:
    """Cumulative-bucket histogram state for one label set."""

    __slots__ = ("buckets", "counts", "sum", "count")

    def __init__(self, buckets: Tuple[float, ...]):
        self.buckets = buckets
        self.counts = [0] * len(buckets)  # per-bucket (non-cumulative)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.sum += value
        self.count += 1
        for i, edge in enumerate(self.buckets):
            if value <= edge:
                self.counts[i] += 1
                break

    def cumulative(self) -> List[Tuple[float, int]]:
        out, running = [], 0
        for edge, n in zip(self.buckets, self.counts):
            running += n
            out.append((edge, running))
        out.append((math.inf, self.count))
        return out


class _Metric:
    __slots__ = ("name", "kind", "help", "buckets", "values")

    def __init__(self, name: str, kind: str, help: str = "",
                 buckets: Tuple[float, ...] = DEFAULT_BUCKETS):
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        if kind not in ("counter", "gauge", "histogram"):
            raise ValueError(f"unknown metric type {kind!r}")
        self.name = name
        self.kind = kind
        self.help = help
        self.buckets = tuple(sorted(buckets))
        #: label key -> float (counter/gauge) or _Histogram
        self.values: Dict[LabelKey, Any] = {}


class MetricsRegistry:
    """A named collection of counters, gauges, and histograms.

    All mutators take labels as keyword arguments::

        METRICS.inc("repro_tiles_total", 64)
        METRICS.inc("repro_tile_failures_total", code="FAULT_INJECTED")
        METRICS.set("repro_pool_free_arrays", 12)
        METRICS.observe("repro_group_seconds", 0.031, pipeline="harris")
    """

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self._lock = threading.Lock()
        self._metrics: Dict[str, _Metric] = {}

    def reset(self, enabled: bool = False) -> None:
        """Drop all recorded values; set the enabled flag."""
        with self._lock:
            self.enabled = enabled
            self._metrics = {}

    # -- registration ---------------------------------------------------
    def describe(self, name: str, kind: str, help: str = "",
                 buckets: Optional[Tuple[float, ...]] = None) -> None:
        """Pre-register a metric (idempotent; declared type must match)."""
        with self._lock:
            self._get(name, kind, help, buckets)

    def _get(self, name: str, kind: str, help: str = "",
             buckets: Optional[Tuple[float, ...]] = None) -> _Metric:
        metric = self._metrics.get(name)
        if metric is None:
            declared = METRIC_HELP.get(name)
            if declared is not None:
                kind, help = declared[0], help or declared[1]
            metric = _Metric(name, kind, help,
                             buckets or DEFAULT_BUCKETS)
            self._metrics[name] = metric
        elif metric.kind != kind:
            raise ValueError(
                f"metric {name!r} is a {metric.kind}, not a {kind}"
            )
        return metric

    # -- mutators (free when disabled) ----------------------------------
    def inc(self, name: str, value: float = 1.0, **labels: Any) -> None:
        """Add ``value`` (must be >= 0) to a counter."""
        if not self.enabled:
            return
        if value < 0:
            raise ValueError(f"counter increment must be >= 0, got {value}")
        key = _label_key(labels)
        with self._lock:
            metric = self._get(name, "counter")
            metric.values[key] = metric.values.get(key, 0.0) + value

    def set(self, name: str, value: float, **labels: Any) -> None:
        """Set a gauge to ``value``."""
        if not self.enabled:
            return
        key = _label_key(labels)
        with self._lock:
            metric = self._get(name, "gauge")
            metric.values[key] = float(value)

    def observe(self, name: str, value: float, **labels: Any) -> None:
        """Record one histogram observation."""
        if not self.enabled:
            return
        key = _label_key(labels)
        with self._lock:
            metric = self._get(name, "histogram")
            hist = metric.values.get(key)
            if hist is None:
                hist = metric.values[key] = _Histogram(metric.buckets)
            hist.observe(float(value))

    # -- reads ----------------------------------------------------------
    def value(self, name: str, **labels: Any):
        """The current value for tests and programmatic checks: a float
        for counters/gauges, a ``(count, sum)`` pair for histograms,
        ``0.0`` for a counter/gauge series never touched, and ``None``
        for an entirely unknown metric."""
        key = _label_key(labels)
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                return None
            v = metric.values.get(key)
            if metric.kind == "histogram":
                return (0, 0.0) if v is None else (v.count, v.sum)
            return 0.0 if v is None else v

    # -- exposition -----------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON exposition: metric name -> type/help/samples."""
        out: Dict[str, Any] = {}
        with self._lock:
            for name in sorted(self._metrics):
                metric = self._metrics[name]
                samples = []
                for key in sorted(metric.values):
                    v = metric.values[key]
                    if metric.kind == "histogram":
                        sample_value: Any = {
                            "count": v.count,
                            "sum": v.sum,
                            "buckets": [
                                {"le": _fmt(edge), "count": n}
                                for edge, n in v.cumulative()
                            ],
                        }
                    else:
                        sample_value = v
                    samples.append(
                        {"labels": dict(key), "value": sample_value}
                    )
                out[name] = {
                    "type": metric.kind,
                    "help": metric.help,
                    "samples": samples,
                }
        return out

    def to_prometheus(self) -> str:
        """The Prometheus text exposition format (version 0.0.4)."""
        lines: List[str] = []
        with self._lock:
            for name in sorted(self._metrics):
                metric = self._metrics[name]
                if metric.help:
                    lines.append(f"# HELP {name} {_escape(metric.help)}")
                lines.append(f"# TYPE {name} {metric.kind}")
                for key in sorted(metric.values):
                    v = metric.values[key]
                    if metric.kind == "histogram":
                        for edge, n in v.cumulative():
                            lines.append(_sample(
                                f"{name}_bucket",
                                key + (("le", _fmt(edge)),), n,
                            ))
                        lines.append(_sample(f"{name}_sum", key, v.sum))
                        lines.append(_sample(f"{name}_count", key, v.count))
                    else:
                        lines.append(_sample(name, key, v))
        return "\n".join(lines) + ("\n" if lines else "")

    def write(self, path: str, fmt: str = "prometheus") -> None:
        """Write the exposition to ``path`` (``"prometheus"`` text or
        ``"json"``)."""
        with open(path, "w") as fh:
            if fmt == "json":
                json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
                fh.write("\n")
            elif fmt == "prometheus":
                fh.write(self.to_prometheus())
            else:
                raise ValueError(f"unknown exposition format {fmt!r}")


def _sample(name: str, key: LabelKey, value: float) -> str:
    if key:
        labels = ",".join(f'{k}="{_escape(v)}"' for k, v in key)
        return f"{name}{{{labels}}} {_fmt(value)}"
    return f"{name} {_fmt(value)}"


# -- round-trip parser -------------------------------------------------

_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>\S+)\s*$"
)
_LABEL_PAIR_RE = re.compile(
    r'\s*(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"\s*'
    r"(?:,|$)"
)


def _unescape(value: str) -> str:
    return (value.replace("\\n", "\n").replace('\\"', '"')
            .replace("\\\\", "\\"))


def parse_prometheus_text(
    text: str,
) -> Dict[Tuple[str, LabelKey], float]:
    """Parse a Prometheus text exposition back into
    ``{(name, sorted_labels): value}``.

    Strict: any line that is neither a comment, blank, nor a well-formed
    sample raises ``ValueError`` — this is the validator the test suite
    and the CI smoke step run over ``--metrics`` output.
    """
    out: Dict[Tuple[str, LabelKey], float] = {}
    typed: Dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            parts = line.split(None, 3)
            if len(parts) != 4 or parts[3] not in (
                "counter", "gauge", "histogram", "summary", "untyped"
            ):
                raise ValueError(f"line {lineno}: malformed TYPE: {line!r}")
            typed[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            continue
        m = _SAMPLE_RE.match(line)
        if m is None:
            raise ValueError(f"line {lineno}: malformed sample: {line!r}")
        labels: Dict[str, str] = {}
        raw = m.group("labels")
        if raw:
            pos = 0
            while pos < len(raw):
                pair = _LABEL_PAIR_RE.match(raw, pos)
                if pair is None:
                    raise ValueError(
                        f"line {lineno}: malformed labels: {raw!r}"
                    )
                labels[pair.group("key")] = _unescape(pair.group("value"))
                pos = pair.end()
        value = m.group("value")
        try:
            parsed = float(value)
        except ValueError:
            if value == "+Inf":
                parsed = math.inf
            elif value == "-Inf":
                parsed = -math.inf
            elif value == "NaN":
                parsed = math.nan
            else:
                raise ValueError(
                    f"line {lineno}: malformed value: {value!r}"
                )
        out[(m.group("name"), _label_key(labels))] = parsed
    return out


#: the process-global registry every instrumented site reports into
METRICS = MetricsRegistry()
