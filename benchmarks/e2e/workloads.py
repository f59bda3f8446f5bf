"""Workloads, the programs under test and the closed-loop load generator.

The program under test always runs in a child process and is driven
only through its stable outer surfaces: the ``repro serve`` command line
and HTTP JSON API, and ``repro.cli.main(["run", ...])`` (inside
``coldloop.py``).  The program only ever sees ``{"pipeline", "seed"}``
or CLI arguments; the seeds come from the benchmark's ``--seed``.
"""

from __future__ import annotations

import http.client
import json
import os
import queue
import random
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
SRC = REPO / "src"

#: seeds per pipeline; requests cycle through them
SEEDS_PER_PIPELINE = 4
#: a hung program fails ops, not the benchmark
REQUEST_TIMEOUT_S = 30.0
BOOT_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 90.0

_SERVING = re.compile(r"serving on http://([^\s:]+):(\d+)")
_DRAINED = re.compile(r"drained clean=(\w+) admitted=(\d+) completed=(\d+)")
_CLK_TCK = os.sysconf("SC_CLK_TCK")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: "serve": HTTP requests against ``repro serve``; "cold": one-shot
    #: ``repro run`` ops in ``coldloop.py``
    kind: str
    pipelines: Tuple[str, ...]
    scale: float
    threads: int
    workers: int = 0
    connections: int = 1


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        "serve_small",
        "Tiny images: HTTP parse, input generation, the 2 ms batch window, "
        "sha256 and JSON are most of a request and the executor the rest; "
        "the serve layer dominates, fusion does nothing.",
        "serve", ("UM", "HC"), 0.02, threads=1,
    ),
    Workload(
        "serve_large",
        "Multi-group pipelines with hundreds of tiles: runtime.executor is "
        "most of the latency and serving overhead is noise; where kernels, "
        "tile-step and --threads changes must show.",
        "serve", ("CP", "PB", "BG"), 0.1, threads=2,
    ),
    Workload(
        "serve_workers",
        "serve_small's command with --workers 2 on 2 connections: the "
        "supervisor, fork, /dev/shm transport and worker-side inputs; the "
        "only workload with real parallelism.",
        "serve", ("UM", "HC"), 0.02, threads=1, workers=2, connections=2,
    ),
    Workload(
        "cold_oneshot",
        "Every op builds, DP-schedules, compiles kernels and executes once: "
        "fusion, poly, model and runtime.kernelcache dominate and do "
        "nothing in the warm workloads.",
        "cold", ("MI", "CP"), 0.05, threads=2,
    ),
)

BY_NAME: Dict[str, Workload] = {w.name: w for w in WORKLOADS}


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return env


def derive_seeds(seed: int, spec: Workload) -> Dict[str, List[int]]:
    """The input seeds each pipeline is requested with."""
    return {
        key: random.Random(f"{seed}:{spec.name}:{key}").sample(
            range(2 ** 31), SEEDS_PER_PIPELINE)
        for key in spec.pipelines
    }


def check_fits_machine(spec: Workload) -> None:
    """More connections or executor threads than cores would measure
    the scheduler of the box, not the program."""
    nproc = os.cpu_count() or 1
    threads = spec.threads * max(1, spec.workers)
    if spec.connections > nproc or threads > nproc:
        raise SystemExit(
            f"workload {spec.name} needs {spec.connections} connection(s) "
            f"and {threads} executor thread(s) but this machine has "
            f"{nproc} core(s)"
        )


def reference_digests(
    spec: Workload, seeds: Mapping[str, Sequence[int]],
) -> Dict[Tuple[str, int], Dict[str, str]]:
    """Expected sha256 per output for every (pipeline, seed) the
    workload sends, from the untiled reference interpreter — which
    shares no scheduling, tiling or kernel code with the paths the
    program under test takes."""
    from repro.planner import build_benchmark, make_inputs, output_digests
    from repro.runtime import execute_reference

    expected = {}
    for key in spec.pipelines:
        _, pipe = build_benchmark(key, spec.scale)
        for s in seeds[key]:
            expected[key, s] = output_digests(
                execute_reference(pipe, make_inputs(pipe, s)))
    return expected


# -- process accounting -------------------------------------------------

def _stat_fields(pid: int) -> Optional[List[str]]:
    try:
        text = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    # the command name may contain spaces; fields resume after ")"
    return text[text.rindex(")") + 2:].split()


def tree_pids(root: int) -> List[int]:
    """``root`` and its live descendants."""
    parents = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat_fields(int(entry))
            if fields is not None:
                parents[int(entry)] = int(fields[1])
    tree, frontier = [root], [root]
    while frontier:
        frontier = [p for p, pp in parents.items() if pp in frontier]
        tree.extend(frontier)
    return tree


def tree_cpu_s(root: int) -> float:
    """User + system CPU seconds of the tree, reaped children included."""
    ticks = 0
    for pid in tree_pids(root):
        fields = _stat_fields(pid)
        if fields is not None:
            ticks += sum(int(fields[i]) for i in (11, 12))
            if pid == root:
                ticks += sum(int(fields[i]) for i in (13, 14))
    return ticks / _CLK_TCK


def tree_peak_rss_mb(root: int) -> float:
    """Sum of ``VmHWM`` over the tree."""
    total_kb = 0
    for pid in tree_pids(root):
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        m = re.search(r"^VmHWM:\s+(\d+) kB", status, re.MULTILINE)
        if m:
            total_kb += int(m.group(1))
    return total_kb / 1024.0


def calibrate() -> float:
    """Milliseconds a fixed NumPy loop takes right now; printed beside
    the results so a slow box can be told from a slow program."""
    import numpy as np

    a = np.arange(16_384, dtype=np.float64)  # stays in cache
    t0 = time.perf_counter()
    for _ in range(200):
        np.sqrt(a * a + 1.0).sum()
    return (time.perf_counter() - t0) * 1e3


# -- programs under test ------------------------------------------------

@dataclass
class Sample:
    key: str
    latency_s: float
    failure: Optional[str] = None
    queue_wait_s: Optional[float] = None
    execute_s: Optional[float] = None
    batch_size: Optional[int] = None


class _Program:
    """A child process whose stdout is collected line by line."""

    def __init__(self, spec: Workload,
                 expected: Mapping[Tuple[str, int], Mapping[str, str]]):
        self.spec = spec
        self.expected = expected
        self.proc: Optional[subprocess.Popen] = None
        self.lines: "queue.Queue[Optional[str]]" = queue.Queue()

    def _spawn(self, argv: List[str], **kwargs) -> None:
        # own session, so kill() reaches forked workers too
        self.proc = subprocess.Popen(
            argv, env=child_env(), stdout=subprocess.PIPE, text=True,
            start_new_session=True, **kwargs,
        )
        threading.Thread(target=self._pump, daemon=True).start()

    def _pump(self) -> None:
        for line in self.proc.stdout:
            self.lines.put(line.rstrip("\n"))
        self.lines.put(None)

    def _next_line(self, timeout: float) -> Optional[str]:
        try:
            return self.lines.get(timeout=timeout)
        except queue.Empty:
            return None

    @property
    def pid(self) -> int:
        return self.proc.pid

    def kill(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            self.proc.wait()


class ServeProgram(_Program):
    """``python -m repro serve`` on an ephemeral port."""

    def boot(self) -> float:
        spec = self.spec
        t0 = time.perf_counter()
        self._spawn(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", str(spec.workers), "--threads", str(spec.threads),
             "--scale", str(spec.scale), "--warm", *spec.pipelines],
            stderr=subprocess.STDOUT,
        )
        deadline = t0 + BOOT_TIMEOUT_S
        while True:
            line = self._next_line(max(0.0, deadline - time.perf_counter()))
            if line is None:
                raise RuntimeError(
                    f"{spec.name}: server never reported its address")
            m = _SERVING.search(line)
            if m:
                self.address = (m.group(1), int(m.group(2)))
                break
        status, health = self._get("/healthz")
        warm = health.get("hosts", {})
        if status != 200 or not all(
                warm.get(k, {}).get("warm") for k in spec.pipelines):
            raise RuntimeError(f"{spec.name}: not warm after boot: {health}")
        return time.perf_counter() - t0

    def kill(self) -> None:
        from repro.serve.shm import sweep_stale

        killed = self.proc is not None and self.proc.poll() is None
        super().kill()
        if killed:
            sweep_stale()  # a killed worker's segments have no owner left

    def _get(self, path: str):
        conn = http.client.HTTPConnection(
            *self.address, timeout=REQUEST_TIMEOUT_S)
        try:
            conn.request("GET", path)
            resp = conn.getresponse()
            return resp.status, json.loads(resp.read())
        finally:
            conn.close()

    def health(self) -> dict:
        return self._get("/healthz")[1]

    def client(self) -> "ServeClient":
        return ServeClient(self)

    def stop(self) -> List[str]:
        """SIGTERM drain; returns what was not clean about it."""
        from repro.serve.shm import list_segments

        pids = set(tree_pids(self.pid))
        self.proc.send_signal(signal.SIGTERM)
        try:
            rc = self.proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            return [f"{self.spec.name}: no exit within {STOP_TIMEOUT_S}s "
                    f"of SIGTERM"]
        problems = []
        if rc != 0:
            problems.append(f"{self.spec.name}: exit code {rc} after SIGTERM")
        drained = None
        while True:
            line = self._next_line(5.0)
            if line is None:
                break
            drained = _DRAINED.search(line) or drained
        if drained is None:
            problems.append(f"{self.spec.name}: no drain report")
        elif drained.group(1) != "True" or drained.group(2) != drained.group(3):
            problems.append(f"{self.spec.name}: {drained.group(0)}")
        left = [n for n in list_segments() if int(n.split("-")[2]) in pids]
        if left:
            problems.append(f"{self.spec.name}: shm segments left: {left}")
        return problems


class ServeClient:
    """One keep-alive connection; a closed-loop caller."""

    def __init__(self, program: ServeProgram):
        self.expected = program.expected
        self.conn = http.client.HTTPConnection(
            *program.address, timeout=REQUEST_TIMEOUT_S)

    def op(self, key: str, seed: int) -> Sample:
        body = json.dumps({"pipeline": key, "seed": seed})
        t0 = time.perf_counter()
        try:
            self.conn.request("POST", "/run", body,
                              {"Content-Type": "application/json"})
            resp = self.conn.getresponse()
            raw = resp.read()
        except (OSError, http.client.HTTPException) as exc:
            self.conn.close()  # reconnects on the next request
            return Sample(key, time.perf_counter() - t0,
                          f"transport: {exc!r}")
        latency = time.perf_counter() - t0
        if resp.status != 200:
            return Sample(key, latency, f"http {resp.status}: {raw[:200]!r}")
        doc = json.loads(raw)
        got = {n: o["sha256"] for n, o in doc["outputs"].items()}
        return Sample(
            key, latency,
            None if got == self.expected[key, seed] else "digest mismatch",
            doc["queue_wait_s"], doc["execute_s"], doc["batch_size"],
        )

    def close(self) -> None:
        self.conn.close()


class ColdProgram(_Program):
    """``coldloop.py``: one ``repro run`` per op, nothing kept warm."""

    def boot(self) -> float:
        t0 = time.perf_counter()
        self._spawn([sys.executable, str(HERE / "coldloop.py")],
                    stdin=subprocess.PIPE)
        if self._next_line(BOOT_TIMEOUT_S) != "ready":
            raise RuntimeError(f"{self.spec.name}: driver never got ready")
        return time.perf_counter() - t0

    def health(self) -> dict:
        return {}

    def client(self) -> "ColdProgram":
        return self

    def op(self, key: str, seed: int) -> Sample:
        spec = self.spec
        argv = ["run", key, "--scale", str(spec.scale), "--threads",
                str(spec.threads), "--seed", str(seed), "--digest"]
        t0 = time.perf_counter()
        try:
            self.proc.stdin.write(json.dumps(argv) + "\n")
            self.proc.stdin.flush()
        except OSError as exc:
            return Sample(key, time.perf_counter() - t0,
                          f"transport: {exc!r}")
        line = self._next_line(REQUEST_TIMEOUT_S)
        latency = time.perf_counter() - t0
        if line is None:
            self.kill()  # a late reply would be read as the next op's
            return Sample(key, latency, "no reply (timeout or driver died)")
        reply = json.loads(line)
        if reply["rc"] != 0:
            return Sample(key, latency,
                          f"cli.main returned {reply['rc']}: {reply['error']}")
        return Sample(
            key, latency,
            None if reply["digests"] == self.expected[key, seed]
            else "digest mismatch",
        )

    def close(self) -> None:
        pass

    def stop(self) -> List[str]:
        self.proc.stdin.close()
        try:
            rc = self.proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            return [f"{self.spec.name}: driver did not exit"]
        return [] if rc == 0 else [f"{self.spec.name}: driver exit code {rc}"]


# -- load generation ----------------------------------------------------

@dataclass
class Round:
    samples: List[Sample]
    wall_s: float
    cpu_s: float
    #: mean of the calibration loop right before and right after
    calib_ms: float


@dataclass
class Measured:
    """Everything one workload's untraced measurement observed."""

    spec: Workload
    boot_s: List[float] = field(default_factory=list)
    #: per boot, the first request's latency per pipeline
    first_request_s: List[Dict[str, float]] = field(default_factory=list)
    rounds: List[Round] = field(default_factory=list)
    #: ops outside the timed rounds (first requests, warm-up)
    untimed: List[Sample] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    health: dict = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)

    def timed(self) -> List[Sample]:
        return [s for r in self.rounds for s in r.samples]

    def failures(self) -> List[Sample]:
        return [s for s in self.untimed + self.timed() if s.failure]


class _Caller:
    """One connection's closed loop: the next op is sent only after the
    previous reply.  Its position in the request sequence persists
    across rounds, so a run sends the same sequence whatever the pace."""

    def __init__(self, index: int, program, seeds: Mapping[str, List[int]]):
        self.index = index
        self.client = program.client()
        self.keys = program.spec.pipelines
        self.seeds = seeds
        self.sent = 0

    def next_op(self) -> Sample:
        n = len(self.keys)
        key = self.keys[(self.sent + self.index) % n]
        seed = self.seeds[key][(self.sent // n) % SEEDS_PER_PIPELINE]
        self.sent += 1
        return self.client.op(key, seed)

    def run_until(self, deadline: float, out: List[Sample]) -> None:
        while time.perf_counter() < deadline:
            out.append(self.next_op())


def _run_load(callers: Sequence[_Caller], seconds: float) -> List[Sample]:
    deadline = time.perf_counter() + seconds
    outs: List[List[Sample]] = [[] for _ in callers]
    threads = [
        threading.Thread(target=c.run_until, args=(deadline, out))
        for c, out in zip(callers[1:], outs[1:])
    ]
    for t in threads:
        t.start()
    callers[0].run_until(deadline, outs[0])
    for t in threads:
        t.join()
    return [s for out in outs for s in out]


def measure(
    specs: Sequence[Workload], seed: int, seconds: float, rounds: int,
    boots: int, warmup_s: float,
) -> Dict[str, Measured]:
    """Boot each workload's program ``boots`` times (keeping the last),
    warm it up, then run ``rounds`` timed rounds of ``seconds / rounds``
    interleaved across ``specs`` with the calibration loop between
    them, and drain.  Returns the observations per workload.

    Every child is killed if anything raises."""
    programs: Dict[str, _Program] = {}
    results: Dict[str, Measured] = {}
    callers: Dict[str, List[_Caller]] = {}
    try:
        for spec in specs:
            check_fits_machine(spec)
            seeds = derive_seeds(seed, spec)
            expected = reference_digests(spec, seeds)
            m = results[spec.name] = Measured(spec)
            for boot in range(boots):
                cls = ServeProgram if spec.kind == "serve" else ColdProgram
                prog = programs[spec.name] = cls(spec, expected)
                m.boot_s.append(prog.boot())
                client = prog.client()
                first = [client.op(k, seeds[k][0]) for k in spec.pipelines]
                client.close()
                m.untimed.extend(first)
                m.first_request_s.append(
                    {s.key: s.latency_s for s in first})
                if boot < boots - 1:
                    m.problems.extend(prog.stop())
            callers[spec.name] = [
                _Caller(i, prog, seeds) for i in range(spec.connections)]
            m.untimed.extend(_run_load(callers[spec.name], warmup_s))
        after = calibrate()
        for _ in range(rounds):
            for spec in specs:
                before = after
                pid = programs[spec.name].pid
                cpu0, t0 = tree_cpu_s(pid), time.perf_counter()
                samples = _run_load(callers[spec.name], seconds / rounds)
                wall_s = time.perf_counter() - t0
                cpu_s = tree_cpu_s(pid) - cpu0
                after = calibrate()
                results[spec.name].rounds.append(Round(
                    samples, wall_s, cpu_s, (before + after) / 2))
        for spec in specs:
            m, prog = results[spec.name], programs[spec.name]
            m.peak_rss_mb = tree_peak_rss_mb(prog.pid)
            m.health = prog.health()
            for c in callers[spec.name]:
                c.client.close()
            m.problems.extend(prog.stop())
    finally:
        for prog in programs.values():
            prog.kill()
    return results
