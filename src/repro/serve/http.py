"""Stdlib HTTP front-end for :class:`repro.serve.PipelineService`.

One small JSON API over :class:`http.server.ThreadingHTTPServer` — no
third-party web framework, matching the repo's stdlib+numpy constraint:

``GET /healthz``
    The service's health snapshot; HTTP 200 while serving, 503 while
    draining or stopped (so load balancers stop routing during drain).

``GET /pipelines``
    Machine-readable benchmark registry
    (:func:`repro.pipelines.registry_json` — same payload as
    ``repro list --json``).

``GET /metrics``
    Prometheus text exposition of the process-global registry.

``POST /run``
    Body ``{"pipeline": "UM", "seed": 0, "timeout_s": 10,
    "return_data": false}``.  Responds with per-output shape, dtype and
    sha256 digest (plus the raw data as nested lists when
    ``return_data`` is true) and request metadata (ladder tier,
    batch size, queue wait).  Clients that only need to verify
    bit-identity against ``repro run --digest`` compare digests.  A
    body that is not a JSON object, names no pipeline, or carries a
    ``seed`` that is not a non-negative integer or a ``timeout_s`` that
    is neither a number nor ``null`` is answered 400 ``BAD_REQUEST``
    before admission.

Errors map onto HTTP statuses by their stable ``repro.errors`` code:

==========================  ======
``SERVE_OVERLOADED``        429
``SERVE_TIMEOUT``           504
``SERVE_WORKER_TIMEOUT``    504
``SERVE_SHUTDOWN``          503
``SERVE_WORKER_LOST``       503
``SERVE_UNKNOWN``           404
``SERVE_BODY_TOO_LARGE``    413
``INPUT_*``                 400
anything else               500
==========================  ======

and every error body is ``{"error": {"code": ..., "message": ...}}``.
Codes not in the table are *deliberately* 500: they describe failures
inside execution (``TILE_FAIL``, ``NUMERIC_NAN``, ``SCHED_*``, ...)
that the client neither caused nor can address — the defining property
of a server error.  ``tests/test_serve_errors_http.py`` pins the
classification of every code in the taxonomy.

Request bodies are capped: a ``Content-Length`` over the server's
``max_body_bytes`` (default 8 MiB, ``repro serve --max-body-mb``) is
rejected with 413 *before* reading a byte of the body, so one oversized
or adversarial request cannot exhaust server memory.

Connections are persistent (HTTP/1.1): a client's socket and its handler
thread serve request after request until the client closes, the socket
sits idle for :data:`IDLE_TIMEOUT_S`, or a response carries
``Connection: close`` — which the server sends when it left a request
body unread (413, an unusable ``Content-Length``, a POST to an unknown
route) and on everything it answers while draining.  Every response
leaves as one buffered, flushed write on a ``TCP_NODELAY`` socket.
"""

from __future__ import annotations

import json
from concurrent.futures import TimeoutError as FutureTimeoutError
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple

from ..errors import ServeBodyTooLargeError, ServeTimeoutError, error_code
from ..obs import METRICS
from ..pipelines import registry_json
from ..planner import array_digest
from .host import PipelineService

__all__ = ["make_server", "ServeHTTPServer"]

_STATUS_BY_CODE = {
    "SERVE_OVERLOADED": 429,
    "SERVE_TIMEOUT": 504,
    "SERVE_WORKER_TIMEOUT": 504,
    "SERVE_SHUTDOWN": 503,
    "SERVE_WORKER_LOST": 503,
    "SERVE_UNKNOWN": 404,
    "SERVE_BODY_TOO_LARGE": 413,
    "INPUT": 400,
    "INPUT_MISSING": 400,
    "INPUT_SHAPE": 400,
    "INPUT_DTYPE": 400,
}

#: default request-body cap (bytes); ``repro serve --max-body-mb``
DEFAULT_MAX_BODY_BYTES = 8 * 1024 * 1024

#: seconds a connection may sit between requests (or stall mid-request)
#: before the server closes it and its handler thread exits
IDLE_TIMEOUT_S = 120.0


def _http_status(exc: BaseException) -> Tuple[int, str]:
    code = error_code(exc)
    return _STATUS_BY_CODE.get(code, 500), code


def _run_fields(body: Any) -> Tuple[str, int, Optional[float]]:
    """``(pipeline, seed, timeout_s)`` of a ``POST /run`` body; raises
    ``ValueError`` naming the first malformed field, before anything is
    admitted.  ``seed`` must be a non-negative ``int`` (not a bool, not
    a float); ``timeout_s`` a number or ``null``."""
    if not isinstance(body, dict):
        raise ValueError("body must be a JSON object")
    pipeline = body.get("pipeline")
    if not isinstance(pipeline, str):
        raise ValueError("body must name a 'pipeline'")
    seed = body.get("seed", 0)
    if type(seed) is not int or seed < 0:
        raise ValueError(
            f"'seed' must be a non-negative integer, got {seed!r}")
    timeout_s = body.get("timeout_s", -1.0)
    if timeout_s is not None and (
            isinstance(timeout_s, bool)
            or not isinstance(timeout_s, (int, float))):
        raise ValueError(
            f"'timeout_s' must be a number or null, got {timeout_s!r}")
    return pipeline, seed, timeout_s


class ServeHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying the service reference.

    ``daemon_threads`` keeps in-flight handler threads from blocking
    process exit after a drain has already failed their requests.
    """

    daemon_threads = True

    def __init__(self, address, service: PipelineService,
                 max_body_bytes: int = DEFAULT_MAX_BODY_BYTES):
        self.service = service
        self.max_body_bytes = max_body_bytes
        super().__init__(address, _Handler)


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    timeout = IDLE_TIMEOUT_S
    # header and body leave together: buffered here, flushed by _send,
    # and never held back for an ACK of the previous response
    wbufsize = 64 * 1024
    disable_nagle_algorithm = True

    def setup(self) -> None:
        super().setup()
        if METRICS.enabled:
            METRICS.inc("repro_serve_http_connections_total")

    def handle_expect_100(self) -> bool:
        # the client sends no body until it has read this
        ok = super().handle_expect_100()
        self.wfile.flush()
        return ok

    # keep the access log out of the CLI's stdout protocol
    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass

    @property
    def service(self) -> PipelineService:
        return self.server.service  # type: ignore[attr-defined]

    # -- plumbing -------------------------------------------------------
    def _send(self, status: int, content_type: str, body: bytes) -> None:
        if self.service.admission.draining:
            self.close_connection = True
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)
        self.wfile.flush()

    def _send_json(self, status: int, payload: Dict[str, Any]) -> None:
        self._send(status, "application/json", json.dumps(payload).encode())

    def _send_error_json(self, exc: BaseException) -> None:
        status, code = _http_status(exc)
        self._send_json(status, {
            "error": {"code": code, "message": str(exc)},
        })

    # -- GET ------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        try:
            if self.path == "/healthz":
                health = self.service.health()
                status = 200 if health["status"] == "serving" else 503
                self._send_json(status, health)
            elif self.path == "/pipelines":
                self._send_json(200, {"pipelines": registry_json()})
            elif self.path == "/metrics":
                self._send(200, "text/plain; version=0.0.4",
                           METRICS.to_prometheus().encode())
            else:
                self._send_json(404, {"error": {
                    "code": "NOT_FOUND",
                    "message": f"no route {self.path!r}",
                }})
        except BrokenPipeError:
            pass
        except Exception as exc:  # pragma: no cover - defensive
            self._send_error_json(exc)

    # -- POST -----------------------------------------------------------
    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        if self.path != "/run":
            self.close_connection = True  # its body stays unread
            self._send_json(404, {"error": {
                "code": "NOT_FOUND",
                "message": f"no route {self.path!r}",
            }})
            return
        try:
            try:
                length = int(self.headers.get("Content-Length", "0"))
            except ValueError:
                length = -1
            if length < 0:
                # no telling where the next request starts
                self.close_connection = True
                self._send_json(400, {"error": {
                    "code": "BAD_REQUEST",
                    "message": "invalid Content-Length header",
                }})
                return
            cap = self.server.max_body_bytes  # type: ignore[attr-defined]
            if cap is not None and length > cap:
                # reject on the declared length, before reading a byte;
                # the unread body makes the connection unusable for
                # keep-alive, so close it
                self.close_connection = True
                self._send_error_json(ServeBodyTooLargeError(
                    f"request body of {length} bytes exceeds the "
                    f"{cap}-byte limit",
                    content_length=length, limit=cap,
                ))
                return
            try:
                body = json.loads(self.rfile.read(length) or b"{}")
                pipeline, seed, timeout_s = _run_fields(body)
            except ValueError as exc:
                # a JSONDecodeError is a ValueError too
                self._send_json(400, {"error": {
                    "code": "BAD_REQUEST",
                    "message": (f"invalid JSON body: {exc}"
                                if isinstance(exc, json.JSONDecodeError)
                                else str(exc)),
                }})
                return
            return_data = bool(body.get("return_data", False))
            try:
                result = self.service.run(
                    pipeline, seed=seed, timeout_s=timeout_s,
                )
            except FutureTimeoutError:
                # client-side guard fired before the server-side
                # deadline; present it under the same stable code
                self._send_error_json(ServeTimeoutError(
                    f"request for {pipeline!r} timed out",
                    pipeline=pipeline,
                ))
                return
            except Exception as exc:
                self._send_error_json(exc)
                return
            outputs = {}
            for name, arr in sorted(result.outputs.items()):
                entry = {
                    "shape": list(arr.shape),
                    "dtype": str(arr.dtype),
                    "sha256": array_digest(arr),
                }
                if return_data:
                    entry["data"] = arr.tolist()
                outputs[name] = entry
            self._send_json(200, {
                "id": result.request_id,
                "pipeline": result.pipeline,
                "seed": seed,
                "tier": result.tier,
                "degraded": result.degraded,
                "batch_size": result.batch_size,
                "queue_wait_s": round(result.queue_wait_s, 6),
                "execute_s": round(result.execute_s, 6),
                "outputs": outputs,
            })
        except BrokenPipeError:
            pass
        except Exception as exc:  # pragma: no cover - defensive
            self._send_error_json(exc)


def make_server(host: str, port: int, service: PipelineService,
                max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
                ) -> ServeHTTPServer:
    """Bind the front-end; ``port=0`` picks a free port (tests read
    ``server.server_address``)."""
    return ServeHTTPServer((host, port), service, max_body_bytes)
