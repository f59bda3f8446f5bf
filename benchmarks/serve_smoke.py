"""End-to-end smoke test of ``repro serve`` (the CI ``serve-smoke`` job).

Boots the server as a subprocess, waits for ``/healthz``, fires
concurrent HTTP requests against two benchmarks — each client thread
over one persistent connection — and asserts that every served digest
is bit-identical to what a one-shot ``repro run --digest`` subprocess
prints for the same seed and scale, that the server accepted exactly
one connection per client, and that no host holds more scratch pools
than execution slots plus executor threads.  Finally sends SIGTERM with
those connections still open and asserts the graceful drain: the server
exits 0 and reports every admitted request completed.

Usage::

    PYTHONPATH=src python benchmarks/serve_smoke.py
    PYTHONPATH=src python benchmarks/serve_smoke.py \
        --pipelines UM HC --requests 10
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import re
import signal
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional

SCALE = 0.05
SEED = 0
CLIENTS = 8


def repro_env() -> Dict[str, str]:
    env = dict(os.environ)
    src = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
    )
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def oneshot_digests(key: str) -> Dict[str, str]:
    """Digests printed by a fresh ``repro run --digest`` process."""
    out = subprocess.run(
        [sys.executable, "-m", "repro", "run", key, "--scale", str(SCALE),
         "--seed", str(SEED), "--threads", "2", "--digest"],
        env=repro_env(), capture_output=True, text=True, timeout=600,
        check=True,
    ).stdout
    digests = dict(
        m.groups() for m in re.finditer(r"^digest (\S+) ([0-9a-f]{64})$",
                                        out, re.MULTILINE)
    )
    assert digests, f"no digest lines in repro run output:\n{out}"
    return digests


def serve_request(conn: http.client.HTTPConnection,
                  key: str) -> Dict[str, str]:
    conn.request("POST", "/run",
                 json.dumps({"pipeline": key, "seed": SEED}),
                 {"Content-Type": "application/json"})
    resp = conn.getresponse()
    body = json.loads(resp.read())
    assert resp.status == 200, body
    return {name: o["sha256"] for name, o in body["outputs"].items()}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pipelines", nargs="+", default=["UM", "HC"])
    parser.add_argument("--requests", type=int, default=10,
                        help="concurrent requests per pipeline")
    args = parser.parse_args(argv)

    expected = {key: oneshot_digests(key) for key in args.pipelines}
    print(f"one-shot digests: "
          f"{ {k: sorted(v.values()) for k, v in expected.items()} }")

    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--scale", str(SCALE), "--threads", "2",
         "--warm", *args.pipelines],
        env=repro_env(), stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True,
    )
    try:
        # the CLI prints the bound address once the listener is up
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

        jobs = [key for key in args.pipelines
                for _ in range(args.requests)]
        # every byte of HTTP this script sends goes over these
        conns = [
            http.client.HTTPConnection(base[len("http://"):], timeout=300)
            for _ in range(min(CLIENTS, len(jobs)))
        ]
        for _ in range(600):
            try:
                conns[0].request("GET", "/healthz")
                resp = conns[0].getresponse()
                resp.read()
                if resp.status == 200:
                    break
            except (OSError, http.client.HTTPException):
                conns[0].close()  # reconnects on the next request
            time.sleep(0.1)
        else:
            raise AssertionError("healthz never became ready")
        print(f"server ready at {base}")

        def client(conn, keys):
            return [(key, serve_request(conn, key)) for key in keys]

        with ThreadPoolExecutor(max_workers=len(conns)) as tp:
            shares = [jobs[i::len(conns)] for i in range(len(conns))]
            digests = sum(tp.map(client, conns, shares), [])
        mismatches = [
            (key, got) for key, got in digests if got != expected[key]
        ]
        assert not mismatches, f"digest mismatches: {mismatches}"
        print(f"{len(jobs)} served requests bit-identical to one-shot "
              f"runs on {args.pipelines}")

        conns[0].request("GET", "/metrics")
        accepted = re.search(
            r"^repro_serve_http_connections_total (\d+)$",
            conns[0].getresponse().read().decode(), re.MULTILINE,
        )
        assert accepted and int(accepted.group(1)) == len(conns), (
            f"{len(conns)} keep-alive clients, server accepted "
            f"{accepted and accepted.group(1)} connections")
        print(f"{len(conns)} clients, {len(conns)} connections accepted")

        # scratch pools belong to execution slots and executor threads,
        # never to the connections' handler threads
        conns[0].request("GET", "/healthz")
        health = json.loads(conns[0].getresponse().read())
        bound = health["config"]["dispatchers"] + health["config"]["threads"]
        pools = {key: h["pool"]["pools"]
                 for key, h in health["hosts"].items()}
        assert all(n <= bound for n in pools.values()), (
            f"scratch pools per host {pools} exceed {bound} "
            f"(execution slots + executor threads)")
        print(f"scratch pools per host {pools}, at most {bound}")

        # the connections stay open: the drain must not wait for them
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
    print("PASS: serve smoke")
    return 0


if __name__ == "__main__":
    sys.exit(main())
