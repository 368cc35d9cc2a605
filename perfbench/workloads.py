"""The three benchmark workloads: ``ingest``, ``replicated-failover``, ``wordcount``.

Each workload is an open loop in simulated time: a load generator sends on a
fixed simulated schedule whatever the system's state, so a slow emulation
never receives less load.  The seed drives input generation only (keys,
record sizes, send schedule, document text); the simulator seed is fixed,
so the same seed always gives the same simulated run.

One *episode* is one complete emulation:

* constructing it builds the simulator, topology, cluster, topics, clients
  and SPE context, and ``warm_up()`` runs simulated time (settle, metadata,
  group join) until the first record is due — together the set-up the
  benchmark times as ``setup_s``;
* ``run()`` is the timed part: the open-loop schedule, then the drain until
  every result reached the final consumer or a simulated deadline passed;
* ``check()`` compares what the final consumer received with the inputs and
  returns an :class:`Outcome`.

The offered rates sit below the emulated knee; the sustainability check in
``check()`` fails a run whose simulated latency grows from the first to the
last tenth of the results.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple

from repro.broker.cluster import BrokerCluster, ClusterConfig
from repro.broker.consumer import ConsumerConfig
from repro.broker.coordinator import CoordinationMode
from repro.broker.message import ProducerRecord
from repro.broker.producer import ProducerConfig
from repro.broker.topic import TopicConfig
from repro.engine import StreamingConfig, StreamingContext
from repro.network import LinkConfig
from repro.network.faults import FaultInjector, NodeDisconnection
from repro.network.topology import one_big_switch
from repro.simulation import Simulator
from repro.workloads.text import generate_sentences

#: Simulator seed of every episode.  Only the inputs depend on ``--seed``.
SIM_SEED = 7
#: Simulated seconds between drain checks once the schedule is exhausted.
DRAIN_POLL = 0.05
#: A run is unsustainable when the p50 latency of its last tenth of results
#: exceeds the first tenth's by this factor plus ``GROWTH_SLACK`` seconds.
GROWTH_FACTOR = 1.5
GROWTH_SLACK = 0.005
#: Clients start once the cluster created its topics, so their first
#: metadata fetch already sees them.
CLIENT_START = 1.5
#: Producer buffer large enough that no workload ever blocks on it.
BUFFER_MEMORY = 512 * 1024 * 1024


@dataclass
class Inputs:
    """Generated inputs of one seed: the send schedule and the record columns."""

    #: Simulated send time of every tick, relative to the first send.
    tick_times: List[float]
    #: Records sent at each tick.
    tick_counts: List[int]
    keys: Sequence
    values: Sequence
    sizes: List[int]
    #: Reference word counts (``wordcount`` only).
    expected: Dict[str, int] = field(default_factory=dict)


@dataclass
class Outcome:
    """What one episode delivered, judged against its inputs."""

    attempted: int
    failed: int
    #: Simulated latency (seconds) of every delivered result.
    latencies: List[float]
    problems: List[str]
    #: Exact work counts of the episode (identical for identical inputs).
    counts: Dict[str, int]


def _sustainability_problem(latencies: List[float]) -> List[str]:
    tenth = len(latencies) // 10
    if tenth < 10:
        return [f"too few latency samples ({len(latencies)}) for the backlog check"]
    first = sorted(latencies[:tenth])[tenth // 2]
    last = sorted(latencies[-tenth:])[tenth // 2]
    if last > first * GROWTH_FACTOR + GROWTH_SLACK:
        return [
            f"backlog grows: p50 latency {first * 1e3:.2f} ms in the first tenth of "
            f"results, {last * 1e3:.2f} ms in the last tenth"
        ]
    return []


class _Episode:
    """Open-loop load generator and the parts every workload shares."""

    topic = "events"
    #: Simulated time at which the first record is sent.
    start_at = 2.0
    #: Simulated seconds the drain may take after the last send.
    drain_limit = 30.0

    def __init__(self, inputs: Inputs) -> None:
        self.inputs = inputs
        self.sim = Simulator(seed=SIM_SEED)
        self.done = self.sim.event()
        #: ``(partition, batch, received_at)`` of every batch the final
        #: consumer received, checked after the run.
        self.batches: List[tuple] = []
        self.consumed = 0
        self.build()
        self.sim.process(self._generate(), name="bench-loadgen")

    def build(self) -> None:
        raise NotImplementedError

    def complete(self) -> bool:
        """True once every result reached the final consumer."""
        return self.consumed >= len(self.inputs.values)

    def _on_batch(self, topic, partition, batch, received_at, skip=None) -> None:
        self.batches.append((partition, batch, received_at))
        self.consumed += len(batch)

    def _generate(self):
        sim = self.sim
        inputs = self.inputs
        keys, values, sizes = inputs.keys, inputs.values, inputs.sizes
        send = self.producer.send
        topic = self.topic
        start = self.start_at
        yield sim.timeout(start - sim.now)
        first = 0
        for at, count in zip(inputs.tick_times, inputs.tick_counts):
            delay = start + at - sim.now
            if delay > 0:
                yield sim.timeout(delay)
            for index in range(first, first + count):
                send(ProducerRecord(topic=topic, key=keys[index], value=values[index], size=sizes[index]))
            first += count
        deadline = sim.now + self.drain_limit
        while not self.complete() and sim.now < deadline:
            yield sim.timeout(DRAIN_POLL)
        self.done.succeed()

    def warm_up(self) -> None:
        self.sim.run(until=self.start_at)

    def run(self) -> None:
        self.sim.run(until=self.done)

    def _offset_problems(self) -> List[str]:
        """Batches of each partition must arrive in offset order, without gaps."""
        problems = []
        next_offset: Dict[int, int] = {}
        for partition, batch, _ in self.batches:
            expected = next_offset.get(partition, 0)
            if batch.base_offset != expected or batch.offsets is not None:
                problems.append(
                    f"partition {partition}: batch at offset {batch.base_offset}, expected {expected}"
                )
            next_offset[partition] = batch.next_offset
        return problems

    def _counts(self) -> Dict[str, int]:
        hosts = self.network.hosts.values()
        transports = [
            component.transport
            for host in hosts
            for component in host.components
            if hasattr(component, "transport")
        ]
        return {
            "events": self.sim.processed_events,
            "packets": sum(host.packets_sent for host in hosts),
            "bytes": sum(host.port.stats.tx_bytes for host in hosts),
            "requests": sum(t.requests_sent for t in transports),
            "retries": sum(t.requests_retried for t in transports),
            "request_failures": sum(t.requests_failed for t in transports),
            "elections": len(self.cluster.coordinator.elections),
        }


class _KeyedEpisode(_Episode):
    """Keyed records whose value is their index; checked record by record.

    Every record must be acked and delivered exactly once across the
    consumer (or group), each partition in offset order, with the sent byte
    total.
    """

    def check(self) -> Outcome:
        inputs = self.inputs
        n = len(inputs.values)
        problems = self._offset_problems()
        seen = [0] * n
        latencies = [0.0] * n
        delivered_bytes = 0
        for _, batch, received_at in self.batches:
            delivered_bytes += batch.total_size
            for value, produced_at in zip(batch.values, batch.produced_ats):
                seen[value] += 1
                latencies[value] = received_at - produced_at
        reports = self.producer.reports
        unacked = lost = duplicated = 0
        for index in range(n):
            if seen[index] > 1:
                duplicated += 1
            elif not reports[index].acknowledged:
                unacked += 1
            elif seen[index] == 0:
                lost += 1
        failed = unacked + lost + duplicated
        if failed:
            problems.append(
                f"{unacked} records never acked, {lost} acked but not delivered, "
                f"{duplicated} delivered more than once"
            )
        if delivered_bytes != sum(inputs.sizes):
            problems.append(f"delivered {delivered_bytes} bytes, sent {sum(inputs.sizes)}")
        delivered = [latencies[i] for i in range(n) if seen[i]]
        problems += _sustainability_problem(delivered)
        counts = {**self._counts(), "delivered": sum(seen)}
        return Outcome(n, failed, delivered, problems, counts)


class IngestEpisode(_KeyedEpisode):
    """1 broker, 1 partition, ``acks=1``: one producer, one standalone consumer."""

    def build(self) -> None:
        self.network = one_big_switch(
            self.sim,
            ["source", "broker", "sink"],
            default_config=LinkConfig(latency_ms=0.5, bandwidth_mbps=10_000.0),
        )
        self.cluster = BrokerCluster(self.network, coordinator_host="broker", config=ClusterConfig())
        self.cluster.add_broker("broker")
        self.cluster.add_topic(TopicConfig(name=self.topic, partitions=1, replication_factor=1))
        self.cluster.start(settle_time=1.0)
        self.producer = self.cluster.create_producer(
            "source", config=ProducerConfig(linger=0.005, buffer_memory=BUFFER_MEMORY, acks=1)
        )
        consumer = self.cluster.create_consumer(
            "sink",
            config=ConsumerConfig(poll_interval=0.01, max_records_per_fetch=5000, keep_payloads=False),
        )
        consumer.on_batch = self._on_batch
        consumer.subscribe([self.topic])
        self.sim.call_later(CLIENT_START, self.cluster.start_clients)


class FailoverEpisode(_KeyedEpisode):
    """KRaft, 3 brokers, 4 partitions at RF=3, ``acks="all"`` + idempotence,
    a 4-member group, segmented logs, and one broker host cut off mid-stream."""

    start_at = 8.0
    #: The broker host cut off for ``outage`` simulated seconds, starting
    #: ``outage_at`` seconds after the first send.  Not the coordinator's
    #: host, so group membership stays stable.
    victim = "broker2"
    outage_at = 6.0
    outage = 4.0
    members = 4

    def build(self) -> None:
        brokers = ["broker1", "broker2", "broker3"]
        sinks = [f"sink{i + 1}" for i in range(self.members)]
        self.network = one_big_switch(
            self.sim,
            brokers + ["source"] + sinks,
            default_config=LinkConfig(latency_ms=1.0, bandwidth_mbps=1_000.0),
        )
        self.cluster = BrokerCluster(
            self.network,
            coordinator_host="broker1",
            config=ClusterConfig(
                mode=CoordinationMode.KRAFT,
                session_timeout=2.0,
                failure_check_interval=0.5,
                preferred_election_interval=5.0,
                segment_records=1000,
            ),
        )
        for host in brokers:
            self.cluster.add_broker(host)
        self.cluster.add_topic(TopicConfig(name=self.topic, partitions=4, replication_factor=3))
        self.cluster.start(settle_time=2.0)
        self.producer = self.cluster.create_producer(
            "source",
            config=ProducerConfig(
                acks="all",
                idempotence=True,
                linger=0.005,
                batch_size=64 * 1024,
                request_timeout=0.6,
                retry_backoff=0.1,
                buffer_memory=BUFFER_MEMORY,
            ),
        )
        config = ConsumerConfig(
            poll_interval=0.02, max_records_per_fetch=2000, keep_payloads=False, group="bench-group"
        )
        for host in sinks:
            consumer = self.cluster.create_consumer(host, config=config)
            consumer.on_batch = self._on_batch
            consumer.subscribe([self.topic])
        FaultInjector(self.network).schedule_node_disconnection(
            NodeDisconnection(node=self.victim, start=self.start_at + self.outage_at, duration=self.outage)
        )
        # Starting early leaves the group time to join and sync before the
        # first record is sent.
        self.sim.call_later(3.0, self.cluster.start_clients)


class WordcountEpisode(_Episode):
    """The paper's Fig. 2 application: documents -> broker -> SPE -> broker -> sink.

    SPE pipeline: ``flat_map(split)`` -> ``map_pairs`` -> ``reduce_by_key``
    -> ``update_state_by_key`` -> ``to_kafka``; the final consumer reads the
    running count of every word.
    """

    topic = "docs"
    drain_limit = 10.0

    def build(self) -> None:
        self.network = one_big_switch(
            self.sim,
            ["source", "broker", "spe", "sink"],
            default_config=LinkConfig(latency_ms=0.5, bandwidth_mbps=10_000.0),
        )
        cluster = self.cluster = BrokerCluster(self.network, coordinator_host="broker", config=ClusterConfig())
        cluster.add_broker("broker")
        cluster.add_topic(TopicConfig(name=self.topic, partitions=1, replication_factor=1))
        cluster.add_topic(TopicConfig(name="counts", partitions=1, replication_factor=1))
        cluster.start(settle_time=1.0)
        self.producer = cluster.create_producer(
            "source", config=ProducerConfig(linger=0.005, buffer_memory=BUFFER_MEMORY)
        )
        ctx = self.ctx = StreamingContext(
            self.network.host("spe"),
            config=StreamingConfig(batch_interval=0.25, vectorized=True),
            cluster=cluster,
        )
        self.sink = (
            ctx.kafka_stream(
                [self.topic],
                consumer_config=ConsumerConfig(
                    poll_interval=0.01, max_records_per_fetch=5000, keep_payloads=False
                ),
            )
            .flat_map(str.split)
            .map_pairs(lambda word: (word, 1))
            .reduce_by_key(lambda a, b: a + b)
            .update_state_by_key(lambda counts, total: (total or 0) + sum(counts))
            .to_kafka("counts")
        )
        self.consumer = cluster.create_consumer(
            "sink",
            config=ConsumerConfig(poll_interval=0.01, max_records_per_fetch=5000, keep_payloads=False),
        )
        self.consumer.on_batch = self._on_batch
        self.consumer.subscribe(["counts"])
        self.sim.call_later(CLIENT_START, cluster.start_clients)
        self.sim.call_later(CLIENT_START, ctx.start)

    def complete(self) -> bool:
        sink_producer = self.sink.producer
        return (
            self.ctx.total_input_records() == len(self.inputs.values)
            and sink_producer.records_acked == sink_producer.records_sent
            and self.consumed == sink_producer.records_sent
        )

    def check(self) -> Outcome:
        inputs = self.inputs
        problems = self._offset_problems()
        final: Dict[str, int] = {}
        latencies: List[float] = []
        for _, batch, received_at in self.batches:
            for word, envelope in zip(batch.keys, batch.values):
                final[word] = envelope["value"]
                latencies.append(received_at - envelope["event_time"])
        wrong = {
            word for word in set(final) | set(inputs.expected)
            if final.get(word) != inputs.expected.get(word)
        }
        failed = 0
        if wrong:
            problems.append(f"{len(wrong)} words with a wrong final count, e.g. {sorted(wrong)[:3]}")
            failed = sum(1 for text in inputs.values if wrong.intersection(text.split()))
        problems += _sustainability_problem(latencies)
        counts = {
            **self._counts(),
            "delivered": len(latencies),
            "engine_records_in": self.ctx.total_input_records(),
            "engine_records_out": self.ctx.total_output_records(),
        }
        return Outcome(len(inputs.values), failed, latencies, problems, counts)


# -- input generation ----------------------------------------------------------------------
def _poisson_ticks(rng: random.Random, rate: float, tick: float, n: int) -> Tuple[list, list]:
    """A fixed open-loop schedule: Poisson counts per ``tick`` until ``n`` records."""
    limit = pow(2.718281828459045, -rate * tick)
    times, counts = [], []
    total = index = 0
    while total < n:
        # Knuth's method; rate * tick stays small (tens) for every workload.
        k, p = 0, rng.random()
        while p > limit:
            k += 1
            p *= rng.random()
        k = min(k, n - total)
        if k:
            times.append(index * tick)
            counts.append(k)
            total += k
        index += 1
    return times, counts


def keyed_inputs(name: str, seed: int, rate: float, tick: float, n: int) -> Inputs:
    """``n`` records of 80–120 B over 10k keys; a record's value is its index."""
    rng = random.Random(f"{name}:{seed}")
    times, counts = _poisson_ticks(rng, rate, tick, n)
    keys = [f"user{rng.randrange(10_000)}" for _ in range(n)]
    sizes = [rng.randint(80, 120) for _ in range(n)]
    return Inputs(times, counts, keys=keys, values=range(n), sizes=sizes)


def wordcount_inputs(seed: int, rate: float, n: int) -> Inputs:
    """``n`` documents of eight sentences drawn from a seeded pool of 2,000."""
    rng = random.Random(f"wordcount:{seed}")
    # One document per tick at exponential gaps: a result carries the send
    # time of the first document of its micro-batch, so documents on a fixed
    # grid would give every seed the same latencies.
    times, at = [], 0.0
    for _ in range(n):
        times.append(at)
        at += rng.expovariate(rate)
    pool = generate_sentences(2000, seed=seed)
    documents = [" ".join(rng.choices(pool, k=8)) for _ in range(n)]
    expected = Counter()
    for text in documents:
        expected.update(text.split())
    return Inputs(
        times,
        [1] * n,
        keys=range(n),
        values=documents,
        sizes=[len(text) for text in documents],
        expected=dict(expected),
    )


@dataclass(frozen=True)
class Workload:
    episode: type
    generate: Callable[[int], Inputs]


WORKLOADS = {
    "ingest": Workload(
        IngestEpisode, lambda seed: keyed_inputs("ingest", seed, rate=20_000.0, tick=0.001, n=60_000)
    ),
    "replicated-failover": Workload(
        FailoverEpisode, lambda seed: keyed_inputs("failover", seed, rate=2_000.0, tick=0.005, n=40_000)
    ),
    "wordcount": Workload(WordcountEpisode, lambda seed: wordcount_inputs(seed, rate=1_000.0, n=10_000)),
}
