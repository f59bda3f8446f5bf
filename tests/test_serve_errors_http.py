"""Totality tests for the error taxonomy's HTTP surface.

Every stable code in :mod:`repro.errors` must resolve to a deliberate
HTTP status in :mod:`repro.serve.http` — either an explicit entry in
the mapping table or membership in the documented classes that default
to 500 (failures inside execution the client neither caused nor can
address).  A new error code that nobody classified fails here, which is
the point: the classification is part of the code's contract.
"""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro import errors
from repro.errors import ERROR_CODES, is_retryable
from repro.serve import HostConfig, PipelineService, ServeConfig, make_server
from repro.serve.http import _STATUS_BY_CODE

#: codes that deliberately default to 500: server-side scheduling or
#: execution failures — retrying with the same request may help (a
#: transient fault) but the request itself was well-formed
_DELIBERATE_500 = {
    "REPRO",
    "SCHED_FAIL",
    "SCHED_BUDGET",
    "SCHED_INVALID",
    "EXEC_FAIL",
    "TILE_FAIL",
    "SCHEDULE",
    "SCHEDULE_FORMAT",
    "SCHEDULE_STALE",
    "KERNEL_COMPILE_FAIL",
    "KERNEL_FUSE_FAIL",
    "KERNEL_NATIVE_FAIL",  # a warning in practice: the groups run on NumPy
    "FAULT_INJECTED",
    "SERVE",  # bare base class: never raised with a specific meaning
}


class TestTaxonomyTotality:
    def test_every_code_has_an_explicit_classification(self):
        unclassified = set(ERROR_CODES) - set(_STATUS_BY_CODE) \
            - _DELIBERATE_500
        assert not unclassified, (
            f"error codes with no HTTP classification: "
            f"{sorted(unclassified)} — add them to serve/http.py's "
            f"_STATUS_BY_CODE or document them as deliberate 500s"
        )

    def test_mapped_codes_exist_in_the_taxonomy(self):
        ghosts = set(_STATUS_BY_CODE) - set(ERROR_CODES)
        assert not ghosts, f"mapped codes not in the taxonomy: {ghosts}"

    def test_client_errors_are_4xx_server_errors_5xx(self):
        for code, status in _STATUS_BY_CODE.items():
            if code.startswith("INPUT") or code in (
                "SERVE_UNKNOWN", "SERVE_BODY_TOO_LARGE",
                "SERVE_OVERLOADED",
            ):
                assert 400 <= status < 500, (code, status)
            if code in ("SERVE_TIMEOUT", "SERVE_WORKER_TIMEOUT",
                        "SERVE_SHUTDOWN", "SERVE_WORKER_LOST"):
                assert 500 <= status < 600, (code, status)

    def test_worker_codes_statuses(self):
        assert _STATUS_BY_CODE["SERVE_WORKER_LOST"] == 503
        assert _STATUS_BY_CODE["SERVE_WORKER_TIMEOUT"] == 504
        assert _STATUS_BY_CODE["SERVE_BODY_TOO_LARGE"] == 413


class TestRetryability:
    """``is_retryable`` keys client and supervisor retry policy; pin
    the classification of every SERVE_* code."""

    RETRYABLE = {
        "SERVE_OVERLOADED": errors.ServeOverloadedError,
        "SERVE_TIMEOUT": errors.ServeTimeoutError,
        "SERVE_WORKER_LOST": errors.ServeWorkerLostError,
        "SERVE_WORKER_TIMEOUT": errors.ServeWorkerTimeoutError,
    }
    NON_RETRYABLE = {
        "SERVE_SHUTDOWN": errors.ServeShutdownError,
        "SERVE_UNKNOWN": errors.ServeUnknownPipelineError,
        "SERVE_BODY_TOO_LARGE": errors.ServeBodyTooLargeError,
    }

    def test_retryable_serve_codes(self):
        for code, cls in self.RETRYABLE.items():
            exc = cls("boom")
            assert exc.code == code
            assert is_retryable(exc), code

    def test_non_retryable_serve_codes(self):
        for code, cls in self.NON_RETRYABLE.items():
            exc = cls("boom")
            assert exc.code == code
            assert not is_retryable(exc), code

    def test_every_serve_code_is_pinned(self):
        serve_codes = {c for c in ERROR_CODES if c.startswith("SERVE_")}
        assert serve_codes == set(self.RETRYABLE) | set(self.NON_RETRYABLE)


@pytest.fixture(scope="module")
def capped_server():
    """A real HTTP server with a tiny body cap (no warm hosts needed —
    the cap rejects before the service is consulted)."""
    service = PipelineService(ServeConfig(
        host=HostConfig(scale=0.05, threads=2),
    )).start()
    httpd = make_server("127.0.0.1", 0, service, max_body_bytes=256)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    port = httpd.server_address[1]
    yield f"http://127.0.0.1:{port}"
    httpd.shutdown()
    httpd.server_close()
    service.shutdown(timeout_s=60.0)


def post_raw(url, data, headers=None):
    req = urllib.request.Request(
        url, data=data,
        headers={"Content-Type": "application/json", **(headers or {})},
        method="POST",
    )
    try:
        with urllib.request.urlopen(req, timeout=60) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


class TestBodyCap:
    def test_oversized_body_is_413_with_stable_code(self, capped_server):
        body = json.dumps({
            "pipeline": "UM", "padding": "x" * 1024,
        }).encode()
        status, payload = post_raw(capped_server + "/run", body)
        assert status == 413
        assert payload["error"]["code"] == "SERVE_BODY_TOO_LARGE"

    def test_oversized_content_length_never_reads_the_body(
            self, capped_server):
        """The cap must act on the *declared* length — a huge
        Content-Length with a small (or absent) body is rejected
        immediately instead of blocking on a read."""
        status, payload = post_raw(
            capped_server + "/run", b"{}",
            headers={"Content-Length": str(1 << 30)},
        )
        assert status == 413
        assert payload["error"]["code"] == "SERVE_BODY_TOO_LARGE"

    def test_small_body_passes_the_cap(self, capped_server):
        # unknown pipeline proves the request reached the service
        status, payload = post_raw(
            capped_server + "/run",
            json.dumps({"pipeline": "NOPE"}).encode(),
        )
        assert status == 404
        assert payload["error"]["code"] == "SERVE_UNKNOWN"
