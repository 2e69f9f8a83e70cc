"""Visibility timeouts, retries, backoff, dead-letter — on a fake clock.

Every test here injects a hand-advanced clock, so lease expiry and
backoff windows are exact and no test sleeps.  Both brokers run the same
assertions: the at-least-once semantics are the contract, not an
implementation detail.
"""

from __future__ import annotations

import pytest


def test_crashed_worker_lease_is_redelivered_exactly_once_per_attempt(broker_factory, fake_clock):
    """A worker that leases and never heartbeats loses the job after one
    visibility timeout; the next delivery carries attempt 2 — and only
    one re-delivery exists however often reap runs."""
    clock = fake_clock
    broker = broker_factory(visibility=30.0, backoff_base=0.5, clock=clock)
    broker.publish("job-1", {"n": 1})

    zombie = broker.lease("zombie")
    assert zombie.attempt == 1
    assert zombie.deadline == pytest.approx(clock.now + 30.0)

    # Within the visibility window nothing is re-delivered.
    clock.advance(29.0)
    assert broker.reap() == 0
    assert broker.lease("w2") is None

    # Past the deadline the lease is reaped and re-queued with backoff.
    clock.advance(2.0)
    assert broker.reap() == 1
    assert broker.reap() == 0  # idempotent: one takeover per expiry
    snap = broker.snapshot("job-1")
    assert snap["state"] == "pending"
    assert "lease expired" in snap["error"]
    assert "zombie" in snap["error"]

    # The retry honours the backoff window before becoming deliverable.
    assert broker.lease("w2") is None
    clock.advance(broker.backoff(1))
    retry = broker.lease("w2")
    assert retry is not None
    assert retry.attempt == 2
    assert retry.job_id == "job-1"


def test_heartbeat_extends_the_lease(broker_factory, fake_clock):
    clock = fake_clock
    broker = broker_factory(visibility=30.0, clock=clock)
    broker.publish("job-1", {})
    lease = broker.lease("w1")

    clock.advance(25.0)
    new_deadline = broker.heartbeat("job-1", "w1")
    assert new_deadline == pytest.approx(clock.now + 30.0)

    # Past the original deadline but inside the extended one: still owned.
    clock.advance(10.0)
    assert broker.reap() == 0
    assert broker.snapshot("job-1")["worker"] == "w1"
    assert broker.complete("job-1", "w1", ["ok"]) is True
    assert lease.deadline < clock.now  # the original deadline had passed


def test_heartbeat_after_expiry_raises_lease_lost(broker_factory, fake_clock):
    from repro.distrib.broker import LeaseLostError

    clock = fake_clock
    broker = broker_factory(visibility=5.0, clock=clock)
    broker.publish("job-1", {})
    broker.lease("w1")
    clock.advance(6.0)
    broker.reap()
    with pytest.raises(LeaseLostError):
        broker.heartbeat("job-1", "w1")


def test_backoff_is_exponential_and_capped(broker_factory):
    broker = broker_factory(backoff_base=0.5, backoff_cap=4.0)
    assert [broker.backoff(n) for n in (1, 2, 3, 4, 5)] == [0.5, 1.0, 2.0, 4.0, 4.0]


def test_dead_letter_after_max_attempts(broker_factory, fake_clock):
    clock = fake_clock
    broker = broker_factory(visibility=5.0, max_attempts=3,
                            backoff_base=0.5, clock=clock)
    broker.publish("job-1", {})
    for attempt in (1, 2, 3):
        clock.advance(60.0)  # clear any backoff window
        lease = broker.lease(f"w{attempt}")
        assert lease is not None and lease.attempt == attempt
        broker.fail("job-1", f"w{attempt}", f"boom {attempt}")

    snap = broker.snapshot("job-1")
    assert snap["state"] == "dead"
    assert snap["attempts"] == 3
    assert snap["error"] == "boom 3"
    assert broker.counts()["dead"] == 1
    clock.advance(60.0)
    assert broker.lease("w9") is None  # dead-lettered jobs never deliver


def test_expiry_counts_against_the_attempt_budget(broker_factory, fake_clock):
    clock = fake_clock
    broker = broker_factory(visibility=5.0, max_attempts=2, clock=clock)
    broker.publish("job-1", {})
    for _ in range(2):  # two deliveries, both expire silently
        clock.advance(60.0)
        assert broker.lease("zombie") is not None
        clock.advance(6.0)
        broker.reap()
    snap = broker.snapshot("job-1")
    assert snap["state"] == "dead"
    assert "lease expired" in snap["error"]


def test_duplicate_completion_is_first_write_wins(broker_factory, fake_clock):
    """The crashed-worker race: the lease expires mid-run, the job is
    re-delivered, then *both* workers finish.  The first completion
    wins; the second is a quiet ``False``, and the stored results stay
    the first writer's."""
    clock = fake_clock
    broker = broker_factory(visibility=5.0, backoff_base=0.0, clock=clock)
    broker.publish("job-1", {})
    broker.lease("slow")

    clock.advance(6.0)
    broker.reap()
    twin = broker.lease("fast")
    assert twin is not None and twin.attempt == 2

    assert broker.complete("job-1", "fast", ["fast results"]) is True
    # The original worker wakes up and also finishes: no error, no write.
    assert broker.complete("job-1", "slow", ["slow results"]) is False
    snap = broker.snapshot("job-1")
    assert snap["state"] == "done"
    assert snap["results"] == ["fast results"]
    assert snap["worker"] == "fast"


def test_completion_by_the_expired_worker_still_wins_if_first(broker_factory, fake_clock):
    """Expiry without re-delivery yet: the zombie finishing first is a
    valid first write (results are deterministic), and the stale
    re-queued ticket must not resurrect the job."""
    clock = fake_clock
    broker = broker_factory(visibility=5.0, backoff_base=0.0, clock=clock)
    broker.publish("job-1", {})
    broker.lease("slow")
    clock.advance(6.0)
    broker.reap()  # re-queued, not yet re-leased

    assert broker.complete("job-1", "slow", ["late but first"]) is True
    assert broker.snapshot("job-1")["state"] == "done"
    assert broker.lease("w2") is None  # the stale ticket was discarded
    counts = broker.counts()
    assert counts["pending"] == 0 and counts["done"] == 1


def test_fail_requeues_with_backoff_window(broker_factory, fake_clock):
    clock = fake_clock
    broker = broker_factory(visibility=30.0, max_attempts=3,
                            backoff_base=2.0, clock=clock)
    broker.publish("job-1", {})
    broker.lease("w1")
    broker.fail("job-1", "w1", "transient")

    snap = broker.snapshot("job-1")
    assert snap["state"] == "pending"
    assert snap["error"] == "transient"
    assert broker.lease("w1") is None  # inside the backoff window
    clock.advance(2.0)
    retry = broker.lease("w1")
    assert retry is not None and retry.attempt == 2


def test_a_late_failure_report_changes_nothing(broker_factory, fake_clock):
    """A's lease expires and B holds attempt 2: A's late ``fail`` must not
    re-queue the job under B (a third delivery) nor leave it counted twice."""
    clock = fake_clock
    broker = broker_factory(visibility=5.0, backoff_base=0.0, clock=clock)
    broker.publish("job-1", {})
    assert broker.lease("A").attempt == 1
    clock.advance(6.0)
    assert broker.lease("B").attempt == 2

    broker.fail("job-1", "A", "late boom")
    assert broker.counts()["pending"] == 0
    assert broker.lease("C") is None

    assert broker.complete("job-1", "B", ["ok"]) is True
    clock.advance(6.0)
    assert broker.reap() == 0
    assert broker.counts() == {"pending": 0, "leased": 0, "done": 1, "dead": 0,
                               "cancelled": 0}
    assert broker.dead_letters() == []


def test_a_completion_racing_the_dead_letter_wins(broker_factory, fake_clock):
    """The last attempt's lease expires while its worker is finishing: the
    worker's ``done`` lands between the reaper's terminal check and its
    dead letter.  The results win; the job is never both done and dead."""
    clock = fake_clock
    broker = broker_factory(visibility=5.0, max_attempts=1, clock=clock)
    broker.publish("job-1", {})
    broker.lease("w1")
    clock.advance(6.0)

    create = broker._create

    def create_after_the_worker_finishes(kind, key, record):
        if kind == "dead":
            broker._create = create
            assert broker.complete("job-1", "w1", ["ok"]) is True
        return create(kind, key, record)

    broker._create = create_after_the_worker_finishes
    assert broker.reap() == 1
    assert broker.snapshot("job-1")["results"] == ["ok"]
    assert broker.counts() == {"pending": 0, "leased": 0, "done": 1, "dead": 0,
                               "cancelled": 0}
    assert broker.dead_letters() == []
