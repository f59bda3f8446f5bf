"""Chaos smoke test of the worker tier (the CI ``chaos-smoke`` job).

Boots ``repro serve --workers 2`` as a subprocess, fires concurrent
HTTP requests, and SIGKILLs one worker process mid-load.  The
supervision contract under test:

* the dead worker is respawned from the warm template (``/healthz``
  reports ``restarts >= 1`` and a full complement of live workers with
  a new pid);
* no admitted request fails beyond the bounded retry — with a single
  kill, the at-most-once redrive absorbs every in-flight loss, so
  every request must return 200 with digests bit-identical to a
  one-shot ``repro run --digest``;
* no ``repro-shm-*`` name appears in ``/dev/shm`` while requests are
  in flight (arrays cross through each worker's unnamed arena), and
  none owned by the server or any worker pid — including the killed
  one — survives after shutdown;
* SIGTERM still drains clean and exits 0.

Usage::

    PYTHONPATH=src python benchmarks/chaos_smoke.py
    PYTHONPATH=src python benchmarks/chaos_smoke.py --requests 30
"""

from __future__ import annotations

import argparse
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Set

SCALE = 0.05
SEED = 0
PIPELINE = "UM"


def repro_env() -> Dict[str, str]:
    env = dict(os.environ)
    src = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
    )
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def oneshot_digests() -> Dict[str, str]:
    out = subprocess.run(
        [sys.executable, "-m", "repro", "run", PIPELINE,
         "--scale", str(SCALE), "--seed", str(SEED), "--threads", "2",
         "--digest"],
        env=repro_env(), capture_output=True, text=True, timeout=600,
        check=True,
    ).stdout
    digests = dict(
        m.groups() for m in re.finditer(r"^digest (\S+) ([0-9a-f]{64})$",
                                        out, re.MULTILINE)
    )
    assert digests, f"no digest lines in repro run output:\n{out}"
    return digests


def get_json(base: str, path: str) -> Dict:
    with urllib.request.urlopen(base + path, timeout=30) as resp:
        return json.loads(resp.read())


def serve_request(base: str):
    """One POST /run; returns ('ok', digest-dict) or ('err', code)."""
    req = urllib.request.Request(
        base + "/run",
        data=json.dumps({"pipeline": PIPELINE, "seed": SEED}).encode(),
        headers={"Content-Type": "application/json"}, method="POST",
    )
    try:
        with urllib.request.urlopen(req, timeout=300) as resp:
            body = json.loads(resp.read())
        return "ok", {n: o["sha256"] for n, o in body["outputs"].items()}
    except urllib.error.HTTPError as err:
        return "err", json.loads(err.read())["error"]["code"]


def worker_pids(base: str) -> List[int]:
    tier = get_json(base, "/healthz").get("workers") or {}
    return [w["pid"] for w in tier.get("workers", [])
            if w.get("state") == "live"]


def shm_names() -> Set[str]:
    shm = "/dev/shm"
    if not os.path.isdir(shm):
        return set()
    return {name for name in os.listdir(shm)
            if name.startswith("repro-shm-")}


def shm_leftovers(pids: Set[int]) -> List[str]:
    return sorted(
        name for name in shm_names()
        if any(f"-{pid}-" in name for pid in pids)
    )


def sample_shm(before: Set[str], stop: threading.Event,
               seen: Set[str]) -> None:
    """Collect every ``repro-shm-*`` name not in ``before`` until
    ``stop`` is set."""
    while not stop.is_set():
        seen.update(shm_names() - before)
        time.sleep(0.002)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--requests", type=int, default=24,
                        help="requests fired across the kill window")
    parser.add_argument("--workers", type=int, default=2)
    args = parser.parse_args(argv)

    expected = oneshot_digests()
    print(f"one-shot digests: {sorted(expected.values())}")
    # names some other process left behind are not this run's
    shm_before = shm_names()

    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--scale", str(SCALE), "--threads", "2",
         "--warm", PIPELINE, "--workers", str(args.workers),
         "--heartbeat-s", "0.2"],
        env=repro_env(), stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True,
    )
    seen_pids: Set[int] = {proc.pid}
    try:
        base = None
        deadline = time.time() + 300
        for line in proc.stdout:
            print(f"[serve] {line.rstrip()}")
            m = re.search(r"serving on (http://\S+?)[\s(]", line + " ")
            if m:
                base = m.group(1).rstrip("/")
                break
            if time.time() > deadline:
                break
        assert base, "server never reported its address"

        for _ in range(600):
            try:
                with urllib.request.urlopen(base + "/healthz",
                                            timeout=5) as resp:
                    if resp.status == 200:
                        break
            except Exception:
                time.sleep(0.1)
        else:
            raise AssertionError("healthz never became ready")

        pids = worker_pids(base)
        assert len(pids) == args.workers, f"worker tier not up: {pids}"
        seen_pids.update(pids)
        victim = pids[0]
        print(f"server ready at {base}, workers {pids}, victim {victim}")

        # concurrent load; SIGKILL the victim once requests are in
        # flight, sampling /dev/shm all the while
        named: Set[str] = set()
        stop_sampling = threading.Event()
        sampler = threading.Thread(
            target=sample_shm, args=(shm_before, stop_sampling, named),
            daemon=True,
        )
        sampler.start()
        with ThreadPoolExecutor(max_workers=8) as tp:
            futures = [tp.submit(serve_request, base)
                       for _ in range(args.requests)]
            time.sleep(0.15)
            os.kill(victim, signal.SIGKILL)
            print(f"SIGKILLed worker {victim} mid-load")
            outcomes = [f.result() for f in futures]
        stop_sampling.set()
        sampler.join()
        assert not named, (
            f"shared-memory names appeared under load: {sorted(named)}"
        )
        print("no repro-shm-* name appeared in /dev/shm under load")

        failures = [code for kind, code in outcomes if kind == "err"]
        assert not failures, (
            f"{len(failures)} requests failed despite bounded retry: "
            f"{failures}"
        )
        mismatched = [d for kind, d in outcomes
                      if kind == "ok" and d != expected]
        assert not mismatched, f"digest mismatches: {mismatched[:3]}"
        print(f"{len(outcomes)} requests all served bit-identically "
              f"across the kill")

        # respawn: full complement of live workers, victim gone
        deadline = time.time() + 60
        while time.time() < deadline:
            pids = worker_pids(base)
            seen_pids.update(pids)
            tier = get_json(base, "/healthz").get("workers") or {}
            if (len(pids) == args.workers and victim not in pids
                    and tier.get("restarts", 0) >= 1):
                break
            time.sleep(0.1)
        else:
            raise AssertionError(
                f"worker {victim} never respawned: pids={pids}"
            )
        print(f"respawned: workers {pids}, restarts={tier['restarts']}, "
              f"retries={tier.get('retries')}, lost={tier.get('lost')}")
        assert tier.get("lost", 0) == 0, "requests lost beyond retry"

        proc.send_signal(signal.SIGTERM)
        tail = proc.stdout.read()
        for line in tail.splitlines():
            print(f"[serve] {line}")
        rc = proc.wait(timeout=300)
        assert rc == 0, f"server exited {rc} after SIGTERM"
        assert "drained clean=True" in tail, "drain was not clean"
        print("SIGTERM drain clean, exit 0")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=60)

    # crash-safe reclamation: nothing owned by any pid we ever saw —
    # server, live workers, or the SIGKILLed victim — remains mapped
    deadline = time.time() + 10
    left = shm_leftovers(seen_pids)
    while left and time.time() < deadline:
        time.sleep(0.2)
        left = shm_leftovers(seen_pids)
    assert not left, f"leaked shared-memory segments: {left}"
    print(f"/dev/shm clean for pids {sorted(seen_pids)}")
    print("PASS: chaos smoke")
    return 0


if __name__ == "__main__":
    sys.exit(main())
