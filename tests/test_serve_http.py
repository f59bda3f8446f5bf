"""Tests for the stdlib HTTP front-end: routes, status codes, the
error-code mapping, digest agreement with the in-process service, and
persistent connections (reuse, when the server closes them, drain)."""

import contextlib
import http.client
import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import urllib.error
import urllib.request

import pytest

from repro.obs import METRICS
from repro.planner import output_digests
from repro.serve import (
    HostConfig,
    PipelineService,
    ServeConfig,
    make_server,
)


@contextlib.contextmanager
def serving():
    """A fresh service behind a fresh HTTP server: (service, port)."""
    service = PipelineService(ServeConfig(
        host=HostConfig(scale=0.05, threads=2),
    )).start()
    httpd = make_server("127.0.0.1", 0, service)
    threading.Thread(target=httpd.serve_forever, daemon=True).start()
    try:
        yield service, httpd.server_address[1]
    finally:
        httpd.shutdown()
        httpd.server_close()
        service.shutdown(timeout_s=60.0)


@pytest.fixture(scope="module")
def server():
    """One warm service + HTTP server shared by the module (warming a
    host per test would dominate the suite's runtime)."""
    with serving() as (service, port):
        yield service, f"http://127.0.0.1:{port}"


def get(url):
    with urllib.request.urlopen(url, timeout=60) as resp:
        return resp.status, json.loads(resp.read())


def post(url, payload):
    req = urllib.request.Request(
        url, data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"}, method="POST",
    )
    try:
        with urllib.request.urlopen(req, timeout=300) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


class TestRoutes:
    def test_healthz_serving(self, server):
        _, base = server
        status, body = get(base + "/healthz")
        assert status == 200
        assert body["status"] == "serving"
        assert "admission" in body

    def test_pipelines_lists_registry(self, server):
        _, base = server
        status, body = get(base + "/pipelines")
        assert status == 200
        keys = {p["key"] for p in body["pipelines"]}
        assert keys == {"UM", "HC", "BG", "MI", "CP", "PB"}
        um = next(p for p in body["pipelines"] if p["key"] == "UM")
        assert um["inputs"][0]["dtype"] == "float32"

    def test_metrics_exposition(self, server):
        _, base = server
        with urllib.request.urlopen(base + "/metrics", timeout=60) as resp:
            assert resp.status == 200
            text = resp.read().decode()
        # exposition parses even when collection is disabled
        assert isinstance(text, str)

    def test_unknown_route_404(self, server):
        _, base = server
        try:
            urllib.request.urlopen(base + "/nope", timeout=60)
            raise AssertionError("expected HTTP 404")
        except urllib.error.HTTPError as err:
            assert err.code == 404


class TestRun:
    def test_run_digests_match_inprocess_result(self, server):
        service, base = server
        status, body = post(base + "/run", {"pipeline": "UM", "seed": 9})
        assert status == 200
        expected = output_digests(
            service.submit("UM", seed=9).result(timeout=120).outputs
        )
        got = {name: o["sha256"] for name, o in body["outputs"].items()}
        assert got == expected
        assert body["tier"] == "compiled"
        assert body["degraded"] is False
        assert body["batch_size"] >= 1

    def test_return_data_roundtrips(self, server):
        _, base = server
        status, body = post(base + "/run", {
            "pipeline": "UM", "seed": 1, "return_data": True,
        })
        assert status == 200
        out = body["outputs"]["masked"]
        assert len(out["data"]) == out["shape"][0]

    def test_unknown_pipeline_404(self, server):
        _, base = server
        status, body = post(base + "/run", {"pipeline": "NOPE"})
        assert status == 404
        assert body["error"]["code"] == "SERVE_UNKNOWN"

    def test_missing_pipeline_400(self, server):
        _, base = server
        status, body = post(base + "/run", {})
        assert status == 400
        assert body["error"]["code"] == "BAD_REQUEST"

    @pytest.mark.parametrize("body", [
        {"pipeline": "UM", "seed": "abc"},
        {"pipeline": "UM", "seed": -1},
        {"pipeline": "UM", "seed": None},
        {"pipeline": "UM", "seed": 1.7},
        {"pipeline": "UM", "seed": True},
        {"pipeline": "UM", "timeout_s": "x"},
        {"pipeline": "UM", "timeout_s": False},
        [1, 2],
        "UM",
    ])
    def test_malformed_run_fields_400_before_admission(self, server,
                                                       body):
        service, base = server
        admitted = service.admission.snapshot()["admitted"]
        status, reply = post(base + "/run", body)
        assert status == 400
        assert reply["error"]["code"] == "BAD_REQUEST"
        assert service.admission.snapshot()["admitted"] == admitted

    def test_null_timeout_and_integral_seed_are_served(self, server):
        _, base = server
        status, body = post(base + "/run", {
            "pipeline": "UM", "seed": 2, "timeout_s": None,
        })
        assert status == 200
        assert body["seed"] == 2

    def test_invalid_json_400(self, server):
        _, base = server
        req = urllib.request.Request(
            base + "/run", data=b"{not json",
            headers={"Content-Type": "application/json"}, method="POST",
        )
        try:
            urllib.request.urlopen(req, timeout=60)
            raise AssertionError("expected HTTP 400")
        except urllib.error.HTTPError as err:
            assert err.code == 400

    def test_serve_metrics_visible_when_enabled(self, server):
        service, base = server
        METRICS.reset(enabled=True)
        try:
            status, _ = post(base + "/run", {"pipeline": "UM", "seed": 0})
            assert status == 200
            with urllib.request.urlopen(
                base + "/metrics", timeout=60
            ) as resp:
                text = resp.read().decode()
            assert 'repro_serve_requests_total{pipeline="UM",status="ok"}' \
                in text
            assert "repro_serve_batches_total" in text
        finally:
            METRICS.reset(enabled=False)


def exchange(conn, method, path, body=None, headers=None):
    """One request on ``conn``; the response with its body read."""
    conn.request(method, path, body, headers or {})
    resp = conn.getresponse()
    return resp, resp.read()


class TestPersistentConnections:
    @pytest.fixture
    def conn(self, server):
        """A client connection, with the accepted-connection counter
        starting from zero."""
        _, base = server
        METRICS.reset(enabled=True)
        conn = http.client.HTTPConnection(
            base[len("http://"):], timeout=60)
        yield conn
        conn.close()
        METRICS.reset(enabled=False)

    @staticmethod
    def accepted():
        return METRICS.value("repro_serve_http_connections_total")

    def test_sequential_requests_share_one_connection(self, conn):
        run = json.dumps({"pipeline": "UM", "seed": 0})
        sock = None
        for method, path, body in [
            ("POST", "/run", run), ("GET", "/healthz", None),
            ("GET", "/metrics", None),
        ] * 3:
            resp, raw = exchange(conn, method, path, body)
            assert resp.status == 200
            assert resp.version == 11
            assert not resp.will_close
            assert int(resp.getheader("Content-Length")) == len(raw)
            sock = sock or conn.sock
            assert conn.sock is sock
        assert b"repro_serve_http_connections_total 1\n" in raw
        assert self.accepted() == 1

    def test_errors_carry_content_length_and_keep_the_connection(
            self, conn):
        for body, status in [
            (json.dumps({"pipeline": "NOPE"}), 404),
            (json.dumps({}), 400),
            ("{not json", 400),
        ]:
            resp, raw = exchange(conn, "POST", "/run", body)
            assert resp.status == status
            assert int(resp.getheader("Content-Length")) == len(raw)
            assert "error" in json.loads(raw)
            assert not resp.will_close
        resp, raw = exchange(conn, "GET", "/nope")
        assert resp.status == 404
        assert int(resp.getheader("Content-Length")) == len(raw)
        assert self.accepted() == 1

    def test_413_closes_the_connection(self, conn):
        """The oversized body was never read, so the next request could
        not be told from it: the server hangs up instead."""
        conn.putrequest("POST", "/run")
        conn.putheader("Content-Length", str(1 << 30))
        conn.endheaders()
        resp = conn.getresponse()
        raw = resp.read()
        assert resp.status == 413
        assert json.loads(raw)["error"]["code"] == "SERVE_BODY_TOO_LARGE"
        assert int(resp.getheader("Content-Length")) == len(raw)
        assert resp.getheader("Connection") == "close"
        assert conn.sock is None  # http.client honoured it
        # the client object reconnects; the server counts a second socket
        assert exchange(conn, "GET", "/healthz")[0].status == 200
        assert self.accepted() == 2

    @pytest.mark.parametrize("request_bytes", [
        b"POST /run HTTP/1.1\r\nHost: x\r\nContent-Length: nope\r\n\r\n",
        b"POST /elsewhere HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\n\r\n{}",
        b"BREW /coffee HTTP/1.1\r\nHost: x\r\n\r\n",
    ], ids=["bad-content-length", "post-to-unknown-route", "unknown-method"])
    def test_malformed_request_is_answered_then_closed(
            self, server, request_bytes):
        _, base = server
        host, port = base[len("http://"):].split(":")
        with socket.create_connection((host, int(port)), timeout=60) as s:
            s.sendall(request_bytes)
            reply = b""
            while True:  # to EOF: the server closed, not the client
                chunk = s.recv(65536)
                if not chunk:
                    break
                reply += chunk
        head, _, body = reply.partition(b"\r\n\r\n")
        assert re.match(rb"HTTP/1\.1 [45]\d\d ", head)
        assert b"connection: close" in head.lower()
        length = re.search(rb"content-length: (\d+)", head.lower())
        assert int(length.group(1)) == len(body)


class TestDrainVisibility:
    def test_healthz_503_while_draining(self):
        with serving() as (service, port):
            service.admission.begin_drain()
            try:
                urllib.request.urlopen(
                    f"http://127.0.0.1:{port}/healthz", timeout=60)
                raise AssertionError("expected HTTP 503")
            except urllib.error.HTTPError as err:
                assert err.code == 503
                assert json.loads(err.read())["status"] == "draining"

    def test_live_connection_gets_503_and_close_while_draining(self):
        run = json.dumps({"pipeline": "UM", "seed": 0})
        with serving() as (service, port):
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
            try:
                resp, _ = exchange(conn, "POST", "/run", run)
                assert resp.status == 200 and not resp.will_close
                live = conn.sock
                # what SIGTERM does in `repro serve`, in its order
                assert service.shutdown(timeout_s=60.0) is True
                conn.request("POST", "/run", run)
                assert conn.sock is live
                resp = conn.getresponse()
                payload = json.loads(resp.read())
                assert resp.status == 503
                assert payload["error"]["code"] == "SERVE_SHUTDOWN"
                assert resp.getheader("Connection") == "close"
            finally:
                conn.close()

    def test_sigterm_with_idle_keepalive_connection_exits_clean(self):
        """An open, idle client connection must not hold the drain."""
        src = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--scale", "0.05", "--threads", "1", "--warm", "UM",
             "--drain-timeout-s", "20"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True,
        )
        conn = None
        try:
            for line in proc.stdout:
                m = re.search(r"serving on http://([^\s:]+):(\d+)", line)
                if m:
                    break
            else:
                raise AssertionError("server never reported its address")
            conn = http.client.HTTPConnection(
                m.group(1), int(m.group(2)), timeout=60)
            resp, _ = exchange(conn, "POST", "/run", json.dumps(
                {"pipeline": "UM", "seed": 0}))
            assert resp.status == 200 and not resp.will_close
            proc.send_signal(signal.SIGTERM)
            tail = proc.communicate(timeout=60)[0]
            assert proc.returncode == 0, tail
            assert "drained clean=True admitted=1 completed=1 " in tail
        finally:
            if conn is not None:
                conn.close()
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=60)
