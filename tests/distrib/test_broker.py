"""Broker contract tests, run identically against both shipping brokers."""

from __future__ import annotations

import json
import os
import threading
import time

import pytest

from repro.distrib import FileBroker, MemoryBroker, connect_broker
from repro.distrib.broker import JOB_STATES, BrokerError, UnknownBrokerJobError


def test_publish_lease_complete_lifecycle(broker_factory):
    broker = broker_factory()
    broker.publish("job-1", {"requests": [{"n": 1}], "batch": False})
    assert broker.snapshot("job-1")["state"] == "pending"

    lease = broker.lease("w1")
    assert lease is not None
    assert lease.job_id == "job-1"
    assert lease.attempt == 1
    assert lease.payload == {"requests": [{"n": 1}], "batch": False}
    snap = broker.snapshot("job-1")
    assert snap["state"] == "leased"
    assert snap["worker"] == "w1"

    assert broker.complete("job-1", "w1", [{"mpki": 1.0}]) is True
    snap = broker.snapshot("job-1")
    assert snap["state"] == "done"
    assert snap["results"] == [{"mpki": 1.0}]
    assert snap["attempts"] == 1
    assert broker.counts()["done"] == 1


def test_republishing_an_id_is_an_error(broker_factory):
    broker = broker_factory()
    broker.publish("job-1", {})
    with pytest.raises(BrokerError):
        broker.publish("job-1", {})


def test_unknown_job_raises(broker_factory):
    broker = broker_factory()
    with pytest.raises(UnknownBrokerJobError):
        broker.snapshot("never-seen")
    with pytest.raises(UnknownBrokerJobError):
        broker.cancel("never-seen")


def test_delivery_is_fifo(broker_factory):
    broker = broker_factory()
    for index in range(5):
        broker.publish(f"job-{index}", {"index": index})
    order = [broker.lease("w1").job_id for _ in range(5)]
    assert order == [f"job-{index}" for index in range(5)]
    assert broker.lease("w1") is None


def test_a_job_is_leased_to_exactly_one_worker(broker_factory):
    broker = broker_factory()
    broker.publish("job-1", {})
    first = broker.lease("w1")
    second = broker.lease("w2")
    assert first is not None
    assert second is None  # the lease is exclusive until it expires


def test_cancel_only_while_pending(broker_factory):
    broker = broker_factory()
    broker.publish("job-1", {})
    broker.publish("job-2", {})
    lease = broker.lease("w1")
    assert lease.job_id == "job-1"

    assert broker.cancel("job-1") is False  # leased: the worker owns it
    assert broker.cancel("job-2") is True
    assert broker.snapshot("job-2")["state"] == "cancelled"
    assert broker.cancel("job-2") is False  # terminal now
    assert broker.lease("w2") is None  # the cancelled job is not delivered
    assert broker.counts()["cancelled"] == 1


def test_worker_registry_and_stats(broker_factory, fake_clock):
    clock = fake_clock
    broker = broker_factory(worker_ttl=30.0, clock=clock)
    broker.register_worker("w1", {"backends": ["interp"], "cores": 4})
    broker.register_worker("w2", {"backends": ["interp", "numpy"], "cores": 8})

    clock.advance(10.0)
    broker.worker_heartbeat("w1", completed=3, failed=1)
    clock.advance(25.0)  # w2's registration heartbeat is now 35s old

    rows = broker.workers()
    assert [row["id"] for row in rows] == ["w1", "w2"]
    w1, w2 = rows
    assert w1["alive"] and w1["heartbeat_age"] == pytest.approx(25.0)
    assert w1["completed"] == 3 and w1["failed"] == 1
    assert not w2["alive"]
    assert w2["capabilities"]["backends"] == ["interp", "numpy"]

    stats = broker.stats()
    assert stats["workers_alive"] == 1
    assert set(stats["jobs"]) == {"pending", "leased", "done", "dead", "cancelled"}

    broker.deregister_worker("w1")
    assert [row["id"] for row in broker.workers()] == ["w2"]


def test_heartbeat_for_unregistered_worker_raises(broker_factory):
    broker = broker_factory()
    with pytest.raises(BrokerError):
        broker.worker_heartbeat("ghost")


def test_file_broker_rejects_hostile_ids(tmp_path):
    broker = FileBroker(str(tmp_path / "broker"))
    with pytest.raises(ValueError):
        broker.publish("../escape", {})


def test_file_broker_state_is_shared_between_instances(tmp_path):
    """Two FileBroker objects on one directory see one queue (the
    cross-process deployment, exercised here without processes)."""
    root = str(tmp_path / "broker")
    front = FileBroker(root)
    worker_side = FileBroker(root)
    front.publish("job-1", {"n": 1})
    lease = worker_side.lease("w1")
    assert lease is not None and lease.payload == {"n": 1}
    assert worker_side.complete("job-1", "w1", ["ok"]) is True
    assert front.snapshot("job-1")["state"] == "done"
    assert front.snapshot("job-1")["results"] == ["ok"]


def _one_job_per_state(broker) -> dict:
    """Drive ``job-<state>`` into each of :data:`JOB_STATES`; their snapshots."""
    broker.publish("job-done", {})
    broker.lease("w1")
    broker.complete("job-done", "w1", ["ok"])
    broker.publish("job-dead", {}, max_attempts=1)
    broker.lease("w1")
    broker.fail("job-dead", "w1", "boom")
    broker.publish("job-leased", {})
    broker.lease("w1")
    broker.publish("job-pending", {})
    broker.publish("job-cancelled", {})
    broker.cancel("job-cancelled")
    snapshots = {state: broker.snapshot(f"job-{state}") for state in JOB_STATES}
    assert {state: snap["state"] for state, snap in snapshots.items()} == {
        state: state for state in JOB_STATES}
    return snapshots


def test_both_brokers_snapshot_every_state_alike(tmp_path, fake_clock):
    """One lifecycle: per state, both stores report the same fields, and
    every delivered job carries the time its delivery started."""
    memory = _one_job_per_state(MemoryBroker(clock=fake_clock))
    files = _one_job_per_state(FileBroker(str(tmp_path / "broker"), clock=fake_clock))
    assert {state: sorted(snap) for state, snap in memory.items()} == {
        state: sorted(snap) for state, snap in files.items()}
    for snapshots in (memory, files):
        for state in ("leased", "done", "dead"):
            assert snapshots[state]["started"] == fake_clock.now
        assert snapshots["dead"]["error"] == "boom"


def test_file_broker_drains_a_directory_in_the_earlier_format(tmp_path, fake_clock):
    """A rolling upgrade: records written before leases, done and dead
    records carried ``started`` must still lease, reap and snapshot."""
    root = tmp_path / "broker"
    for name in ("jobs", "pending", "leased", "done", "dead", "cancelled",
                 "workers", "spans", "tmp"):
        (root / name).mkdir(parents=True)

    def write(kind, name, record):
        (root / kind / f"{name}.json").write_text(json.dumps(record))

    created = fake_clock.now - 100.0
    for job_id in ("job-a", "job-b", "job-c"):
        write("jobs", job_id, {"id": job_id, "payload": {"name": job_id},
                               "max_attempts": 3, "created": created})
    write("pending", f"{int(created * 1000):013d}-001-job-a",
          {"id": "job-a", "attempt": 1, "not_before": created, "error": None})
    write("leased", "job-b", {"id": "job-b", "attempt": 1, "worker": "old",
                              "deadline": fake_clock.now - 1.0})
    write("done", "job-c", {"results": ["ok"], "worker": "old", "attempt": 1,
                            "finished": created + 1.0})

    broker = FileBroker(str(root), clock=fake_clock)
    lease = broker.lease("new")  # reaps job-b first, then claims job-a
    assert (lease.job_id, lease.attempt, lease.payload) == ("job-a", 1, {"name": "job-a"})
    reaped = broker.snapshot("job-b")
    assert reaped["state"] == "pending" and reaped["attempts"] == 1
    assert "lease expired after attempt 1 (worker old)" in reaped["error"]
    done = broker.snapshot("job-c")
    assert (done["state"], done["results"], done["attempts"]) == ("done", ["ok"], 1)
    assert done["started"] is None
    assert broker.complete("job-a", "new", ["a"]) is True
    assert broker.snapshot("job-a")["started"] == fake_clock.now
    assert broker.counts() == {"pending": 1, "leased": 0, "done": 2, "dead": 0,
                               "cancelled": 0}


def test_a_ticket_claimed_after_waiting_is_not_reaped_mid_claim(tmp_path):
    """Between the claiming rename and the lease write, a lease file holds
    the ticket's content (no deadline).  A reaper grants it a visibility
    window from the claim, however long the ticket waited before."""
    broker = FileBroker(str(tmp_path / "broker"), visibility=0.2)
    broker.publish("job-1", {})
    time.sleep(0.3)  # the ticket waits longer than the visibility timeout
    (ticket,) = os.listdir(tmp_path / "broker" / "pending")
    os.rename(tmp_path / "broker" / "pending" / ticket,
              tmp_path / "broker" / "leased" / "job-1.json")
    assert broker.reap() == 0
    time.sleep(0.3)  # a claimer that never writes its lease does lose it
    assert broker.reap() == 1
    assert broker.snapshot("job-1")["state"] == "pending"


def test_memory_broker_forgets_the_oldest_terminal_jobs(monkeypatch):
    """A long-running local service must not keep every finished job."""
    monkeypatch.setattr("repro.distrib.memory.TERMINAL_ENTRIES", 2)
    broker = MemoryBroker()
    for index in range(3):
        broker.publish(f"job-{index}", {})
        broker.lease("w1")
        broker.complete(f"job-{index}", "w1", [index])
    with pytest.raises(UnknownBrokerJobError):
        broker.snapshot("job-0")
    assert [broker.snapshot(f"job-{index}")["results"] for index in (1, 2)] == [[1], [2]]


def test_memory_broker_wakes_listeners_on_every_change():
    broker = MemoryBroker()
    event = threading.Event()
    broker.listen(event)
    for change in (lambda: broker.publish("job-1", {}), lambda: broker.cancel("job-1"),
                   lambda: broker.publish("job-2", {}), lambda: broker.lease("w1"),
                   lambda: broker.complete("job-2", "w1", ["ok"]),
                   lambda: broker.publish("job-3", {}), lambda: broker.lease("w1"),
                   lambda: broker.fail("job-3", "w1", "boom")):
        event.clear()
        change()
        assert event.is_set()
    event.clear()
    assert broker.lease("w1") is None  # an empty lease changes nothing
    assert not event.is_set()


def test_connect_broker_specs(tmp_path):
    # An in-process broker cannot be shared between processes: plain
    # ``repro serve`` is the in-process mode.
    for spec in ("memory", "memory:"):
        with pytest.raises(ValueError, match="plain 'repro serve'"):
            connect_broker(spec)
    file_broker = connect_broker(str(tmp_path / "b"), visibility=7.0)
    assert isinstance(file_broker, FileBroker)
    assert file_broker.visibility == 7.0
    with pytest.raises(ValueError):
        connect_broker("")


@pytest.mark.parametrize("spec", ["redis://localhost:6379/0", "rediss://cache.example:6380"])
def test_redis_spec_is_rejected_and_creates_no_directory(spec, tmp_path, monkeypatch):
    """No redis broker ships: the spec must fail loudly, not become a
    FileBroker directory named ``redis:`` under the working directory."""
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ValueError, match="directory path .* or 'memory'"):
        connect_broker(spec)
    assert os.listdir(tmp_path) == []
