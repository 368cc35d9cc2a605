"""Producer hot path: delivery-future semantics and send-time wire batching.

Delivery futures that nothing waits on settle in place (``Event.settle``);
these tests pin down that every way of waiting on one still observes the
outcome at the right simulated time.  The property test checks that
building wire batches at ``send`` time yields exactly the batches and
eager-flush decisions of a greedy drain from the head of a per-partition
record queue.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.broker import (
    BrokerCluster,
    ClusterConfig,
    ProducerConfig,
    ProducerRecord,
    RecordMetadata,
    TopicConfig,
)
from repro.broker.errors import DeliveryFailed
from repro.broker.producer import Producer
from repro.network.link import LinkConfig
from repro.network.topology import star_topology
from repro.simulation import Simulator


def started_cluster(delivery_timeout=120.0):
    """One topic, one partition, two brokers; a started producer on site1."""
    sim = Simulator(seed=5)
    network, sites = star_topology(
        sim, 2, link_config=LinkConfig(latency_ms=2.0, bandwidth_mbps=100.0)
    )
    cluster = BrokerCluster(network, coordinator_host=sites[0], config=ClusterConfig())
    for site in sites:
        cluster.add_broker(site)
    cluster.add_topic(TopicConfig(name="t", partitions=1, replication_factor=1))
    cluster.start(settle_time=2.0)
    producer = cluster.create_producer(
        sites[1], config=ProducerConfig(delivery_timeout=delivery_timeout)
    )
    producer.start()
    sim.run(until=5.0)  # metadata bootstrapped
    return sim, producer


def record(value, topic="t", partition=None):
    return ProducerRecord(topic=topic, value=value, size=20, partition=partition)


# ---------------------------------------------------------------------------
# Event.settle
# ---------------------------------------------------------------------------
class TestSettle:
    def test_unwaited_event_settles_without_a_kernel_event(self):
        sim = Simulator()
        event = sim.event().settle("v")
        assert event.processed and event.value == "v"
        sim.run()
        assert sim.processed_events == 0

    def test_waited_event_schedules_like_succeed(self):
        sim = Simulator()
        event = sim.event()
        seen = []
        event.callbacks.append(lambda ev: seen.append(ev.value))
        event.settle("v")
        assert not event.processed
        sim.run()
        assert seen == ["v"] and sim.processed_events == 1

    def test_undefused_failure_still_crashes_the_run(self):
        sim = Simulator()
        event = sim.event().settle(ValueError("boom"), ok=False)
        assert not event.processed
        with pytest.raises(ValueError, match="boom"):
            sim.run()

    def test_defused_failure_settles_in_place(self):
        sim = Simulator()
        event = sim.event()
        event.defuse()
        event.settle(ValueError("boom"), ok=False)
        assert event.processed and not event.ok
        sim.run()

    def test_settling_twice_is_an_error(self):
        sim = Simulator()
        event = sim.event().settle(1)
        with pytest.raises(RuntimeError):
            event.settle(2)


# ---------------------------------------------------------------------------
# Send futures
# ---------------------------------------------------------------------------
class TestSendFutures:
    def test_waiter_before_the_ack_resumes_at_the_ack(self):
        sim, producer = started_cluster()
        seen = []

        def app():
            metadata = yield producer.send(record("a"))
            seen.append((sim.now, metadata))

        sim.process(app())
        sim.run(until=10.0)
        (resumed_at, metadata), = seen
        assert isinstance(metadata, RecordMetadata)
        assert (metadata.topic, metadata.partition, metadata.offset) == ("t", 0, 0)
        assert resumed_at == producer.reports[0].acknowledged_at == metadata.timestamp

    def test_waiter_after_the_ack_resumes_at_the_same_time(self):
        sim, producer = started_cluster()
        seen = []

        def app():
            future = producer.send(record("a"))
            yield sim.timeout(2.0)
            assert future.processed  # acked and settled in place, unwaited
            yielded_at = sim.now
            metadata = yield future
            seen.append((yielded_at, sim.now, metadata.offset))

        sim.process(app())
        sim.run(until=10.0)
        (yielded_at, resumed_at, offset), = seen
        assert resumed_at == yielded_at
        assert offset == 0

    def test_all_of_over_send_futures(self):
        sim, producer = started_cluster()
        seen = []

        def app():
            futures = [producer.send(record(i)) for i in range(5)]
            outcome = yield sim.all_of(futures)
            seen.append((sim.now, [outcome[future].offset for future in futures]))

        sim.process(app())
        sim.run(until=10.0)
        (resumed_at, offsets), = seen
        assert offsets == [0, 1, 2, 3, 4]
        assert resumed_at == max(report.acknowledged_at for report in producer.reports)

    def test_run_until_a_send_future_stops_at_the_ack(self):
        sim, producer = started_cluster()

        def guard():
            yield sim.timeout(30.0)
            raise AssertionError("run(until=future) did not stop at the ack")

        sim.process(guard())
        metadata = sim.run(until=producer.send(record("a")))
        assert isinstance(metadata, RecordMetadata)
        assert sim.now == producer.reports[0].acknowledged_at
        assert metadata.offset == 0

    def test_delivery_timeout_raises_into_a_waiter(self):
        sim, producer = started_cluster(delivery_timeout=1.0)
        caught = []

        def app():
            try:
                yield producer.send(record("lost", topic="nowhere", partition=0))
            except DeliveryFailed as error:
                caught.append((sim.now, str(error)))

        sim.process(app())
        sim.run(until=10.0)
        (failed_at, reason), = caught
        assert reason == "delivery timeout"
        assert failed_at == producer.reports[0].failed_at

    def test_delivery_timeout_without_a_waiter_does_not_crash(self):
        sim, producer = started_cluster(delivery_timeout=1.0)
        future = producer.send(record("lost", topic="nowhere", partition=0))
        parked = producer.send(record("parked", topic="nowhere"))  # waits on metadata
        sim.run(until=10.0)
        for failed in (future, parked):
            assert failed.processed and not failed.ok
            assert isinstance(failed.value, DeliveryFailed)
        assert producer.records_failed == 2
        assert producer.buffer_used == 0

    def test_callback_on_a_send_future_fires_at_the_ack(self):
        sim, producer = started_cluster()
        future = producer.send(record("a"))
        seen = []
        future.callbacks.append(lambda event: seen.append((sim.now, event.value.offset)))
        sim.run(until=10.0)
        assert seen == [(producer.reports[0].acknowledged_at, 0)]


# ---------------------------------------------------------------------------
# Send-time batching vs a greedy drain of a record queue
# ---------------------------------------------------------------------------
class GreedyQueueModel:
    """One partition's accumulator as a FIFO of records drained greedily.

    ``drain`` takes records from the head while the batch stays within
    ``batch_size`` bytes and ``max_records`` records (the first record always
    joins); a partition is ready for an eager flush once its queued bytes
    reach ``batch_size`` or its queued records reach ``max_records``.
    """

    def __init__(self, batch_size, max_records, buffer_memory, timeout):
        self.batch_size = batch_size
        self.max_records = max_records
        self.buffer_memory = buffer_memory
        self.timeout = timeout
        self.queue = []  # (ident, size, enqueued_at)
        self.waiting = []
        self.buffer_used = 0
        self.failed = []
        self.flush_checks = 0

    def ready(self):
        return bool(self.queue) and (
            sum(size for _, size, _ in self.queue) >= self.batch_size
            or len(self.queue) >= self.max_records
        )

    def _enqueue(self, entry):
        self.buffer_used += entry[1]
        self.queue.append(entry)
        if self.ready():
            self.flush_checks += 1

    def send(self, entry):
        if self.buffer_used + entry[1] <= self.buffer_memory:
            self._enqueue(entry)
        else:
            self.waiting.append(entry)

    def drain(self):
        batch, size = [], 0
        while self.queue and len(batch) < self.max_records:
            candidate = self.queue[0][1]
            if batch and size + candidate > self.batch_size:
                break
            batch.append(self.queue.pop(0))
            size += candidate
        return batch

    def batches(self):
        """The idents of the batches that draining the whole queue would give."""
        queue, drained = list(self.queue), []
        while self.queue:
            drained.append([ident for ident, _, _ in self.drain()])
        self.queue = queue
        return drained

    def ack(self, batch):
        self.buffer_used -= sum(size for _, size, _ in batch)

    def _overdue(self, entry, now):
        return now >= entry[2] + self.timeout

    def admit(self, now):
        self.failed += [entry[0] for entry in self.waiting if self._overdue(entry, now)]
        waiting = [entry for entry in self.waiting if not self._overdue(entry, now)]
        self.waiting = []
        for entry in waiting:
            if self.buffer_used + entry[1] <= self.buffer_memory:
                self._enqueue(entry)
            else:
                self.waiting.append(entry)

    def expire(self, now):
        """Drop overdue records, then queue the survivors again in order."""
        if not any(self._overdue(entry, now) for entry in self.queue):
            return
        survivors, self.queue = self.queue, []
        for entry in survivors:
            if self._overdue(entry, now):
                self.failed.append(entry[0])
                self.buffer_used -= entry[1]
            else:
                self.queue.append(entry)
                if self.ready():
                    self.flush_checks += 1


OPERATIONS = st.one_of(
    st.tuples(st.just("send"), st.integers(min_value=0, max_value=3)),
    st.tuples(st.just("drain"), st.just(0)),
    st.tuples(st.just("ack"), st.just(0)),
    st.tuples(st.just("admit"), st.just(0)),
    st.tuples(st.just("tick"), st.integers(min_value=1, max_value=2)),
    st.tuples(st.just("expire"), st.just(0)),
)


@given(
    batch_size=st.integers(min_value=1, max_value=8),
    max_records=st.integers(min_value=1, max_value=5),
    buffer_factor=st.integers(min_value=1, max_value=6),
    sizes=st.lists(st.integers(min_value=0, max_value=10), min_size=1, max_size=40),
    operations=st.lists(OPERATIONS, max_size=80),
)
@settings(max_examples=200, deadline=None)
def test_send_time_batches_equal_greedy_drain(
    batch_size, max_records, buffer_factor, sizes, operations
):
    timeout = 2.0
    buffer_memory = batch_size * buffer_factor
    sim = Simulator()
    network, sites = star_topology(sim, 1)
    producer = Producer(
        network.host(sites[0]),
        bootstrap=[sites[0]],
        config=ProducerConfig(
            batch_size=batch_size,
            max_batch_records=max_records,
            buffer_memory=buffer_memory,
            delivery_timeout=timeout,
        ),
    )
    producer.metadata = {
        "version": 1,
        "brokers": {},
        "partitions": {"t-0": {"topic": "t", "partition": 0, "leader": None}},
    }
    flush_checks = []
    producer._maybe_schedule_flush = flush_checks.append  # the producer is not started
    model = GreedyQueueModel(batch_size, max_records, buffer_memory, timeout)
    in_flight = []  # (producer batch, model batch), oldest first
    next_size = iter(sizes * 3)

    def check_state():
        queue = producer._accumulator.get("t-0") or ()
        assert bool(queue and producer._ready(queue)) == model.ready()
        assert [batch.wire.values for batch in queue] == model.batches()
        assert [pending.record.value for pending in producer._waiting_for_buffer] == [
            ident for ident, _, _ in model.waiting
        ]
        assert producer.buffer_used == model.buffer_used
        assert len(flush_checks) == model.flush_checks
        assert producer.failed_sequences() == sorted(model.failed)

    for operation, argument in operations:
        if operation == "send":
            for _ in range(argument + 1):
                size = next(next_size, 7)
                ident = producer._sequence
                producer.send(ProducerRecord(topic="t", value=ident, size=size))
                model.send((ident, size, sim.now))
        elif operation == "drain":
            batch = producer._drain_batch("t-0")
            expected = model.drain()
            assert (batch.wire.values if batch else []) == [ident for ident, _, _ in expected]
            if batch:
                assert batch.wire.total_size == sum(size for _, size, _ in expected)
                assert batch.wire.produced_ats == [at for _, _, at in expected]
                in_flight.append((batch, expected))
        elif operation == "ack" and in_flight:
            batch, expected = in_flight.pop(0)
            producer._ack_batch(batch, 0)
            model.ack(expected)
        elif operation == "admit":
            producer._admit_waiting_records()
            model.admit(sim.now)
        elif operation == "tick":
            sim.run(until=sim.now + argument)
        elif operation == "expire":
            producer._expire_accumulated_records()
            model.expire(sim.now)
        check_state()
    # Draining everything left reproduces the model's remaining batches.
    while model.queue:
        assert producer._drain_batch("t-0").wire.values == [
            ident for ident, _, _ in model.drain()
        ]
    assert producer._drain_batch("t-0") is None
