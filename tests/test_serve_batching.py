"""Unit tests for the serve layer's queue and admission control:
work-conserving coalescing from the backlog, bounded depth with
deterministic shedding, and the drain state machine."""

import threading

import pytest

from repro.errors import ServeOverloadedError, ServeShutdownError
from repro.serve import AdmissionController, MicroBatchQueue, ServeRequest


def make_request(rid, pipeline="UM", key=None):
    return ServeRequest(
        id=rid, pipeline=pipeline,
        batch_key=key if key is not None else (pipeline, 0.1),
        inputs={},
    )


class TestAdmissionController:
    def test_admits_below_bound(self):
        adm = AdmissionController(max_queue=2)
        adm.try_admit(0, "UM")
        adm.try_admit(1, "UM")
        assert adm.admitted == 2
        assert adm.shed == 0

    def test_sheds_at_bound_with_stable_code(self):
        adm = AdmissionController(max_queue=2)
        with pytest.raises(ServeOverloadedError) as exc_info:
            adm.try_admit(2, "UM")
        assert exc_info.value.code == "SERVE_OVERLOADED"
        assert exc_info.value.context["max_queue"] == 2
        assert adm.shed == 1
        assert adm.admitted == 0

    def test_drain_rejects_new_requests(self):
        adm = AdmissionController(max_queue=2)
        adm.begin_drain()
        with pytest.raises(ServeShutdownError) as exc_info:
            adm.try_admit(0, "UM")
        assert exc_info.value.code == "SERVE_SHUTDOWN"

    def test_snapshot_counts_outcomes(self):
        adm = AdmissionController(max_queue=4)
        adm.try_admit(0, "UM")
        adm.note_completed("UM")
        adm.note_timeout("UM")
        adm.note_error("UM")
        snap = adm.snapshot()
        assert snap["admitted"] == 1
        assert snap["completed"] == 1
        assert snap["timeouts"] == 1
        assert snap["errors"] == 1
        assert not snap["draining"]

    def test_rejects_nonpositive_bound(self):
        with pytest.raises(ValueError):
            AdmissionController(max_queue=0)


def make_queue(max_queue=16, max_batch_size=8):
    return MicroBatchQueue(
        AdmissionController(max_queue), max_batch_size=max_batch_size,
    )


def forbid_waiting(q):
    """Make any wait on the queue's condition fail the test: with
    requests already queued a dispatcher has no reason to sleep."""
    def wait(timeout=None):
        raise AssertionError("next_batch waited with a request in hand")

    q._cond.wait = wait


class TestMicroBatchQueue:
    def test_coalesces_same_key(self):
        q = make_queue()
        for i in range(3):
            q.submit(make_request(i))
        batch = q.next_batch(poll_s=0.01)
        assert [r.id for r in batch] == [0, 1, 2]
        assert q.depth() == 0

    def test_respects_max_batch_size(self):
        q = make_queue(max_batch_size=2)
        for i in range(3):
            q.submit(make_request(i))
        assert [r.id for r in q.next_batch(poll_s=0.01)] == [0, 1]
        assert [r.id for r in q.next_batch(poll_s=0.01)] == [2]

    def test_different_keys_keep_queue_order(self):
        q = make_queue()
        q.submit(make_request(0, key="a"))
        q.submit(make_request(1, key="b"))
        q.submit(make_request(2, key="a"))
        q.submit(make_request(3, key="b"))
        # first batch seeds from the head (key "a") and pulls id 2 from
        # behind id 1 without reordering the "b" requests
        assert [r.id for r in q.next_batch(poll_s=0.01)] == [0, 2]
        assert [r.id for r in q.next_batch(poll_s=0.01)] == [1, 3]

    def test_empty_queue_returns_none(self):
        q = make_queue()
        assert q.next_batch(poll_s=0.01) is None

    def test_lone_request_is_returned_without_waiting(self):
        """Nothing to coalesce with is no reason to linger: the batch
        of one comes back without a single wait on the condition."""
        q = make_queue()
        q.submit(make_request(0))
        forbid_waiting(q)
        assert [r.id for r in q.next_batch(poll_s=30.0)] == [0]

    def test_idle_dispatcher_wakes_on_arrival(self):
        """The only wait is the idle one, and an arrival ends it."""
        q = make_queue()
        got = []
        consumer = threading.Thread(
            target=lambda: got.append(q.next_batch(poll_s=60.0)))
        consumer.start()
        q.submit(make_request(0))
        consumer.join(timeout=30.0)
        assert [[r.id for r in batch] for batch in got] == [[0]]

    def test_backlog_behind_a_busy_dispatcher_is_one_capped_batch(self):
        """What piled up while the dispatcher ran its last batch leaves
        as one batch per key, capped, other keys in arrival order —
        and the short batches at the end are not held back for more."""
        q = make_queue(max_batch_size=4)
        for i in range(6):
            q.submit(make_request(i, key="a"))
            q.submit(make_request(100 + i, key="b"))
        forbid_waiting(q)
        assert [r.id for r in q.next_batch()] == [0, 1, 2, 3]
        assert [r.id for r in q.next_batch()] == [100, 101, 102, 103]
        assert [r.id for r in q.next_batch()] == [4, 5]
        assert [r.id for r in q.next_batch()] == [104, 105]
        assert q.depth() == 0

    def test_sheds_when_full(self):
        q = make_queue(max_queue=2)
        q.submit(make_request(0))
        q.submit(make_request(1))
        with pytest.raises(ServeOverloadedError):
            q.submit(make_request(2))
        assert q.depth() == 2
        assert q.admission.shed == 1

    def test_submit_stamps_enqueue_time(self):
        q = make_queue()
        req = make_request(0)
        assert req.enqueued_at == 0.0
        q.submit(req)
        assert req.enqueued_at > 0.0

    def test_drain_remaining_empties_queue(self):
        q = make_queue()
        q.submit(make_request(0))
        q.submit(make_request(1))
        leftovers = q.drain_remaining()
        assert [r.id for r in leftovers] == [0, 1]
        assert q.depth() == 0
