"""Producer client.

Implements the Kafka producer behaviours the paper's experiments depend on:

* ``buffer.memory`` — records wait in a bounded accumulator (Figure 9c shows
  its effect on the emulation's memory footprint);
* batching with a ``linger`` interval;
* ``request.timeout`` and retries — a producer cut off from the leader keeps
  re-sending records until they are either accepted or the delivery timeout
  expires (the latency inflation of Figure 6c);
* ``acks`` (0, 1 or "all");
* metadata refresh on ``not_leader`` errors so producers find newly elected
  leaders after a failure.

Records are tracked end to end: every send returns a future that fires with
:class:`RecordMetadata` on acknowledgement or fails with
:class:`DeliveryFailed`, and the producer keeps per-record accounting that the
delivery-matrix experiment (Figure 6b) reads back.  Futures that nothing
waits on settle in place, without a kernel event.  Like Kafka's
``RecordAccumulator``, ``send`` appends each record straight into its
partition's open wire :class:`RecordBatch`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.broker.batch import RecordBatch
from repro.broker.broker import BROKER_PORT, find_coordinator_host
from repro.broker.coordinator import COORDINATOR_PORT
from repro.broker.errors import (
    DeliveryFailed,
    InvalidTxnStateError,
    ProducerFencedError,
)
from repro.broker.message import ProducerRecord, RecordMetadata
from repro.network.host import Host
from repro.network.transport import RequestTimeout, Transport
from repro.simulation.events import Event


@dataclass
class ProducerConfig:
    """Producer tunables (YAML ``prodCfg`` keys map onto these).

    Batching knobs (mirroring Kafka's ``batch.size`` / ``linger.ms`` /
    ``max.in.flight``-per-partition semantics):

    * ``batch_size`` — byte threshold per partition batch.  A batch that
      reaches it (or ``max_batch_records``) is flushed *immediately* rather
      than waiting for the next linger tick, so one RPC, one size estimate
      and one broker CPU charge cover many records under heavy traffic.
    * ``linger`` — how long an under-filled batch may wait for more records
      before the sender flushes it anyway.

    Every ``send`` returns a delivery future.  One that nothing waits on
    settles in place when its batch is acknowledged or fails, so a reported
    send spends no more kernel events than ``send_noreport``.

    ``idempotence`` turns on the exactly-once produce path: the producer
    initializes a coordinator-allocated ``(producer_id, epoch)`` pair before
    sending, stamps every batch with per-partition sequence numbers, and
    partition leaders drop duplicate retries (acknowledged distinguishably —
    see ``docs/exactly_once.md``).  Orthogonal to ``acks``: dedup closes the
    retry-duplication window whatever the ack level, while *acked implies
    durable* additionally needs ``acks="all"`` (plus KRaft mode under
    partitions), exactly as without idempotence.

    ``transactional_id`` layers transactions on top (implies idempotence):
    sends must happen between :meth:`Producer.begin_transaction` and
    :meth:`Producer.commit_transaction` / ``abort_transaction``, partitions
    register with the coordinator automatically on first send, and commits
    are atomic across every touched partition for ``read_committed``
    consumers.  Re-initializing the same transactional id (producer restart)
    fences the previous instance and aborts its open transaction.
    ``transaction_timeout`` caps how long a transaction may stay open before
    the coordinator's sweeper aborts it.
    """

    buffer_memory: int = 32 * 1024 * 1024
    batch_size: int = 16 * 1024
    linger: float = 0.02
    request_timeout: float = 2.0
    delivery_timeout: float = 120.0
    retries: int = 1_000_000
    retry_backoff: float = 0.1
    acks: Any = 1
    metadata_refresh_interval: float = 5.0
    max_batch_records: int = 500
    idempotence: bool = False
    transactional_id: Optional[str] = None
    transaction_timeout: float = 60.0

    def __post_init__(self) -> None:
        if self.buffer_memory <= 0:
            raise ValueError("buffer_memory must be positive")
        if self.request_timeout <= 0:
            raise ValueError("request_timeout must be positive")
        if self.delivery_timeout <= 0:
            raise ValueError("delivery_timeout must be positive")
        if self.acks not in (0, 1, "all"):
            raise ValueError("acks must be 0, 1 or 'all'")
        if self.transaction_timeout <= 0:
            raise ValueError("transaction_timeout must be positive")
        if self.transactional_id:
            # Transactions are sequence-numbered batches plus markers — the
            # idempotent machinery is a prerequisite, exactly as in Kafka.
            self.idempotence = True


class PendingRecord:
    """A record on the waiting line, outside the accumulator.

    A record waits while ``buffer.memory`` is full or while its topic's
    partition count is unknown.  Fire-and-forget sends
    (:meth:`Producer.send_noreport`) carry no delivery future and no report
    slot: ``future`` is ``None`` and ``sequence`` is ``-1``.

    ``partition`` is -1 while the record waits for topic metadata (keyed and
    round-robin placement need the real partition count — hashing against a
    guessed count would split a key across partitions).  ``fallback`` is the
    shared round-robin index captured at send time, so late placement puts
    the record exactly where send-time placement would have.
    """

    __slots__ = ("record", "partition", "future", "enqueued_at", "sequence", "fallback")

    def __init__(
        self,
        record: ProducerRecord,
        partition: int,
        future: Optional[Event],
        enqueued_at: float,
        sequence: int,
        fallback: int = 0,
    ) -> None:
        self.record = record
        self.partition = partition
        self.future = future
        self.enqueued_at = enqueued_at
        self.sequence = sequence
        self.fallback = fallback


class OpenBatch:
    """One accumulator batch: the wire :class:`RecordBatch` built at send time
    (reused verbatim across retries) plus per-record ``futures`` and report
    ``sequences`` columns (``None`` / ``-1`` for fire-and-forget sends)."""

    __slots__ = ("wire", "futures", "sequences")

    def __init__(self, topic: str, partition: int) -> None:
        self.wire = RecordBatch(topic, partition)
        self.futures: List[Optional[Event]] = []
        self.sequences: List[int] = []


class DeliveryReport:
    """Final outcome of one record (kept for experiment post-processing)."""

    __slots__ = (
        "sequence",
        "topic",
        "key",
        "enqueued_at",
        "acknowledged_at",
        "failed_at",
        "offset",
        "duplicate",
    )

    def __init__(self, sequence: int, topic: str, key: Any, enqueued_at: float) -> None:
        self.sequence = sequence
        self.topic = topic
        self.key = key
        self.enqueued_at = enqueued_at
        self.acknowledged_at: Optional[float] = None
        self.failed_at: Optional[float] = None
        self.offset: Optional[int] = None
        #: True when the acknowledgement was a broker-side dedup hit (the
        #: record was already durable from an earlier attempt whose ack was
        #: lost) — a DuplicateSequence ack, not a silent success.
        self.duplicate = False

    @property
    def acknowledged(self) -> bool:
        return self.acknowledged_at is not None


class Producer:
    """A producer client bound to an emulated host."""

    def __init__(
        self,
        host: Host,
        bootstrap: List[str],
        config: Optional[ProducerConfig] = None,
        name: Optional[str] = None,
    ) -> None:
        if not bootstrap:
            raise ValueError("bootstrap list must contain at least one broker host")
        self.host = host
        self.sim = host.sim
        self.name = name or f"producer-{host.name}"
        self.bootstrap = list(bootstrap)
        self.config = config or ProducerConfig()
        self.transport = Transport(
            host, default_timeout=self.config.request_timeout, max_retries=0
        )
        self.metadata: dict = {"version": -1, "partitions": {}, "brokers": {}}
        #: Per partition key (``"<topic>-<partition>"``), the queue of open
        #: batches, oldest first; only the last one still takes records.
        self._accumulator: Dict[str, Deque[OpenBatch]] = {}
        self._in_flight: set = set()
        self._flush_scheduled: set = set()
        self._waiting_for_buffer: List[PendingRecord] = []
        self._buffer_used = 0
        self._sequence = 0
        #: Keyless-record round-robin fallback, shared by send and
        #: send_noreport so partition placement is identical however the two
        #: paths interleave (counts every send; equals _sequence when only
        #: reported sends are used, preserving historical placement).
        self._partition_fallback = 0
        self.running = False
        self.records_sent = 0
        self.records_acked = 0
        self.records_failed = 0
        #: Idempotence state: the coordinator-allocated identity (-1 until
        #: initialized), per-partition sequence counters consumed at drain
        #: time, and a counter of DuplicateSequence acks observed.
        self.producer_id = -1
        self.producer_epoch = -1
        self._next_sequences: Dict[str, int] = {}
        self.duplicate_acks = 0
        #: Transaction state: whether a transaction is open, which partitions
        #: it has registered with the coordinator, whether any record of it
        #: failed (commit then refuses and aborts), and whether this instance
        #: was fenced (fatal — every later transactional call raises).
        self._txn_active = False
        self._txn_registered: set = set()
        self._txn_had_failure = False
        self._txn_fatal = False
        self._coordinator_host: Optional[str] = None
        self.transactions_committed = 0
        self.transactions_aborted = 0
        #: One report per send, appended in sequence order — ``reports[seq]``
        #: is the report for sequence ``seq`` (no side dict needed).
        self.reports: List[DeliveryReport] = []
        #: (metadata version, topic -> partition keys), see _topic_keys.
        self._topic_keys_cache: tuple = (None, {})
        host.register_component(self)

    # -- lifecycle -------------------------------------------------------------------
    def start(self) -> None:
        if self.running:
            return
        self.running = True
        self.sim.process(self._sender_loop(), name=f"{self.name}:sender")

    def stop(self) -> None:
        self.running = False

    @property
    def buffer_used(self) -> int:
        """Bytes of ``buffer.memory`` currently occupied by unacknowledged records."""
        return self._buffer_used

    @property
    def buffer_available(self) -> int:
        return self.config.buffer_memory - self._buffer_used

    # -- public API ------------------------------------------------------------------
    def send(self, record: ProducerRecord) -> Event:
        """Queue a record for delivery; returns a future firing with RecordMetadata.

        A future that nothing waits on settles in place, without a kernel event.
        """
        self._check_txn_send()
        future = Event(self.sim)
        now = self.sim.now
        sequence = self._sequence
        self._sequence = sequence + 1
        self.reports.append(DeliveryReport(sequence, record.topic, record.key, now))
        self._place(record, future, sequence, now)
        return future

    def send_noreport(self, record: ProducerRecord) -> None:
        """Fire-and-forget send (``acks=0``-style client bookkeeping).

        Skips the per-record future, :class:`DeliveryReport` and sequence
        allocation of :meth:`send`.  Wire behavior is identical to
        :meth:`send`: the record takes the same placement and batch path,
        respects ``buffer.memory``, and still counts in ``records_sent`` /
        ``records_acked`` / ``records_failed``.
        """
        self._check_txn_send()
        self._place(record, None, -1, self.sim.now)

    def _place(self, record, future, sequence, enqueued_at, fallback=-1, partition=-1) -> None:
        """Route a record into its partition's open batch, or onto the waiting line.

        A fresh send (``fallback`` -1) takes the next shared round-robin
        index; admission re-places a waiting record with the index and
        partition it captured, so it places as a send-time decision would.
        A record waits (outside ``buffer.memory`` accounting) while the
        buffer is full or the topic's partition count is unknown: hashing
        against a guessed count would split a key across partitions.
        """
        if fallback < 0:
            fallback = self._partition_fallback
            self._partition_fallback = fallback + 1
            self.records_sent += 1
        keys = self._topic_keys(record.topic)
        if partition < 0:
            n_partitions = len(keys)
            if record.partition is None and n_partitions <= 1:
                # One partition needs no hashing; an unknown count gives -1.
                partition = n_partitions - 1
            else:
                partition = record.partition_for(n_partitions, fallback=fallback)
        size = record.size
        if partition < 0 or self._buffer_used + size > self.config.buffer_memory:
            self._waiting_for_buffer.append(
                PendingRecord(record, partition, future, enqueued_at, sequence, fallback)
            )
            return
        self._buffer_used += size
        key = keys[partition] if keys else f"{record.topic}-{partition}"
        self._append(key, partition, record, future, sequence, enqueued_at)

    def _append(self, key, partition, record, future, sequence, enqueued_at) -> None:
        """Append one record to the partition's last open batch, or open a new one.

        Greedy batching as Kafka's accumulator does it at send time: a record
        joins the open batch while the batch stays within ``batch_size``
        bytes and ``max_batch_records`` records; a record larger than
        ``batch_size`` gets a batch of its own.
        """
        queue = self._accumulator.get(key)
        if queue is None:
            queue = self._accumulator[key] = deque()
        size = record.size
        config = self.config
        batch = queue[-1] if queue else None
        if (
            batch is None
            or batch.wire.total_size + size > config.batch_size
            or len(batch.sequences) >= config.max_batch_records
        ):
            batch = OpenBatch(record.topic, partition)
            queue.append(batch)
        wire = batch.wire
        wire.append(record.key, record.value, size, enqueued_at, record.headers)
        batch.futures.append(future)
        batch.sequences.append(sequence)
        # The _ready rule, inlined because it runs once per record (the open
        # batch is the head whenever only one batch is queued).
        if (
            len(queue) > 1
            or wire.total_size >= config.batch_size
            or len(batch.sequences) >= config.max_batch_records
        ):
            self._maybe_schedule_flush(key)

    def _ready(self, queue: Deque[OpenBatch]) -> bool:
        """True when a full batch waits: more than one batch is queued, or the
        only one reached ``batch_size`` bytes or ``max_batch_records`` records."""
        if len(queue) != 1:
            return len(queue) > 1
        wire, config = queue[0].wire, self.config
        return wire.total_size >= config.batch_size or len(wire) >= config.max_batch_records

    def flush_pending(self) -> int:
        """Number of records not yet handed to a produce request.

        Counts the accumulator's open batches and the waiting line.  Batches
        in flight are not counted, which is why the transaction flush barrier
        in :meth:`_end_transaction` also checks ``_in_flight``.
        """
        queued = sum(
            len(batch.sequences) for queue in self._accumulator.values() for batch in queue
        )
        return queued + len(self._waiting_for_buffer)

    def _maybe_schedule_flush(self, key: str) -> None:
        """Schedule an immediate flush if a full batch is waiting.

        Kafka semantics: ``linger`` only delays *under-filled* batches; full
        ones ship as soon as the partition's in-flight slot frees up.  One
        scheduled flush per key at a time, so a same-instant burst past the
        threshold does not push a callback per record.
        """
        if (
            not self.running
            or key in self._in_flight
            or key in self._flush_scheduled
        ):
            return
        queue = self._accumulator.get(key)
        if queue and self._ready(queue):
            self._flush_scheduled.add(key)
            self.sim.call_later(0.0, self._eager_flush, key)

    def _eager_flush(self, key: str) -> None:
        self._flush_scheduled.discard(key)
        self._flush_key(key)

    def _flush_key(self, key: str) -> None:
        """Drain and transmit one partition's batch if one is ready."""
        if not self.running or key in self._in_flight:
            return
        if self.config.idempotence and self.producer_id < 0:
            # Sequences are only meaningful under an allocated identity; the
            # sender loop flushes everything once the init handshake lands.
            return
        batch = self._drain_batch(key)
        if batch is None:
            return
        self._in_flight.add(key)
        self.sim.process(
            self._send_batch_guarded(key, batch),
            name=f"{self.name}:send:{key}",
        )

    def _topic_keys(self, topic: str) -> Sequence[str]:
        """Partition keys (``"<topic>-<partition>"``) of a topic, by partition.

        Cached per metadata version, so placement builds no string and scans
        no partition map per record.  Empty while the topic is unknown.
        """
        version = self.metadata.get("version", -1)
        cached_version, keys = self._topic_keys_cache
        if cached_version != version:
            counts: Dict[str, int] = {}
            for info in self.metadata.get("partitions", {}).values():
                name = info["topic"]
                counts[name] = max(counts.get(name, 0), info["partition"] + 1)
            keys = {name: [f"{name}-{p}" for p in range(n)] for name, n in counts.items()}
            self._topic_keys_cache = (version, keys)
        return keys.get(topic, ())

    # -- sender machinery -----------------------------------------------------------------
    def _sender_loop(self):
        if self.config.idempotence:
            yield from self._init_producer_id()
        yield from self._refresh_metadata()
        last_metadata_refresh = self.sim.now
        while self.running:
            yield self.sim.timeout(self.config.linger)
            if self.sim.now - last_metadata_refresh > self.config.metadata_refresh_interval:
                yield from self._refresh_metadata()
                last_metadata_refresh = self.sim.now
            self._admit_waiting_records()
            for key in list(self._accumulator.keys()):
                # One in-flight batch per partition (enforced inside
                # _flush_key): a partition whose leader is unreachable must
                # not block the other partitions' traffic (the disconnected
                # producer in Figure 6 keeps feeding its local topic while
                # retrying the remote one).
                self._flush_key(key)

    def _send_batch_guarded(self, key: str, batch: OpenBatch):
        try:
            yield from self._send_batch(key, batch)
        finally:
            self._in_flight.discard(key)
            # The freed in-flight slot immediately serves the next full
            # batch; under-filled remainders wait for the linger tick.
            self._maybe_schedule_flush(key)

    def _overdue(self, enqueued_at: float) -> bool:
        """The single ``delivery_timeout`` deadline rule, shared by every
        expiry site (accumulator queues and the waiting line)."""
        return self.sim.now >= enqueued_at + self.config.delivery_timeout

    def _expire_accumulated_records(self) -> None:
        """Fail accumulator records whose ``delivery_timeout`` passed.

        The sender loop normally enforces the deadline inside ``_send_batch``
        after a drain; while flushing is gated (idempotence init still
        pending) nothing drains, so the deadline is enforced directly on the
        queued records instead of letting their futures hang forever.  The
        survivors are re-packed with the same greedy rule.
        """
        for key, queue in self._accumulator.items():
            batches = list(queue)
            if not any(self._overdue(min(batch.wire.produced_ats)) for batch in batches):
                continue
            queue.clear()
            expired = []
            for batch in batches:
                wire = batch.wire
                for index, enqueued_at in enumerate(wire.produced_ats):
                    future, sequence = batch.futures[index], batch.sequences[index]
                    size = wire.sizes[index]
                    if self._overdue(enqueued_at):
                        self._buffer_used -= size
                        expired.append((future, sequence))
                        continue
                    record = ProducerRecord(
                        wire.topic,
                        wire.values[index],
                        key=wire.keys[index],
                        headers=wire.headers_at(index),
                        size=size,
                    )
                    self._append(key, wire.partition, record, future, sequence, enqueued_at)
            self._fail_records(expired, reason="delivery timeout")

    def _admit_waiting_records(self) -> None:
        """Move waiting records into the accumulator as space/metadata allow.

        Waiting records still honor ``delivery_timeout``: a record parked on
        a topic that never appears in the metadata (or starved by a full
        buffer) fails with :class:`DeliveryFailed` at its deadline instead of
        waiting forever.
        """
        if not self._waiting_for_buffer:
            return
        waiting, self._waiting_for_buffer = self._waiting_for_buffer, []
        expired = [pending for pending in waiting if self._overdue(pending.enqueued_at)]
        if expired:
            # Waiting records never entered buffer accounting.
            self._fail_records(
                ((pending.future, pending.sequence) for pending in expired),
                reason="delivery timeout",
            )
        for pending in waiting:
            if not self._overdue(pending.enqueued_at):
                self._place(
                    pending.record,
                    pending.future,
                    pending.sequence,
                    pending.enqueued_at,
                    pending.fallback,
                    pending.partition,
                )

    def _drain_batch(self, key: str) -> Optional[OpenBatch]:
        """Pop the partition's oldest batch off the accumulator.

        Its wire batch was built at send time; under idempotence the drain
        stamps the producer identity and base sequence on it once.
        """
        queue = self._accumulator.get(key)
        if not queue:
            return None
        batch = queue.popleft()
        if self.config.idempotence:
            # The wire batch is reused verbatim across retries, so its
            # base_sequence never moves — which is exactly what lets the
            # leader recognize a retry as a duplicate.
            wire = batch.wire
            wire.producer_id = self.producer_id
            wire.producer_epoch = self.producer_epoch
            base_sequence = self._next_sequences.get(key, 0)
            wire.base_sequence = base_sequence
            self._next_sequences[key] = base_sequence + len(wire)
            if self._txn_active:
                wire.transactional = True
        return batch

    def _send_batch(self, key: str, batch: OpenBatch):
        wire_batch = batch.wire
        topic = wire_batch.topic
        partition = wire_batch.partition
        deadline = min(wire_batch.produced_ats) + self.config.delivery_timeout
        attempts = 0
        request_size = wire_batch.wire_size + 35
        if wire_batch.transactional and key not in self._txn_registered:
            # First send of this transaction to this partition: register it
            # with the coordinator so end_txn knows where markers go.  Kafka's
            # AddPartitionsToTxn, issued implicitly from the send path.
            registered = yield from self._add_partitions_to_txn(key, deadline)
            if not registered:
                self._fail_batch(
                    batch,
                    reason="producer_fenced" if self._txn_fatal else "transaction_aborted",
                )
                return
        while self.running:
            if self.sim.now >= deadline or attempts > self.config.retries:
                self._fail_batch(batch, reason="delivery timeout")
                return
            leader_host = self._leader_host(key)
            if leader_host is None:
                yield self.sim.timeout(self.config.retry_backoff)
                yield from self._refresh_metadata()
                attempts += 1
                continue
            try:
                reply = yield from self.transport.request(
                    leader_host,
                    BROKER_PORT,
                    {
                        "type": "produce",
                        "topic": topic,
                        "partition": partition,
                        "batch": wire_batch,
                        "acks": self.config.acks,
                    },
                    size=request_size,
                    timeout=self.config.request_timeout,
                )
            except RequestTimeout:
                attempts += 1
                yield self.sim.timeout(self.config.retry_backoff)
                continue
            error = reply.get("error")
            if error is None:
                duplicate = bool(reply.get("duplicate"))
                if duplicate:
                    self.duplicate_acks += 1
                self._ack_batch(batch, reply.get("base_offset", 0), duplicate=duplicate)
                return
            if error == "producer_fenced":
                # A newer instance re-initialized our producer id: fatal for
                # this zombie — retrying can never succeed.
                self._fail_batch(batch, reason="producer_fenced")
                return
            if error == "not_leader":
                attempts += 1
                yield self.sim.timeout(self.config.retry_backoff)
                yield from self._refresh_metadata()
                continue
            if error in ("not_enough_replicas", "unknown_topic"):
                attempts += 1
                yield self.sim.timeout(max(self.config.retry_backoff, 0.5))
                yield from self._refresh_metadata()
                continue
            self._fail_batch(batch, reason=error)
            return

    def _ack_batch(self, batch: OpenBatch, base_offset: int, duplicate: bool = False) -> None:
        now = self.sim.now
        reports = self.reports
        wire = batch.wire
        topic, partition = wire.topic, wire.partition
        # A duplicate ack for a stale retry may not know the original offsets
        # (base_offset -1): the records are durable, their positions just
        # aren't echoed back — report and metadata both carry None then,
        # never a fake position.
        offset = base_offset if base_offset >= 0 else None
        for sequence, future, enqueued_at in zip(
            batch.sequences, batch.futures, wire.produced_ats
        ):
            if sequence >= 0:  # fire-and-forget records have no report, no future
                report = reports[sequence]
                report.acknowledged_at = now
                report.offset = offset
                report.duplicate = duplicate
                if not future.triggered:
                    future.settle(RecordMetadata(topic, partition, offset, now, enqueued_at))
            if offset is not None:
                offset += 1
        self._buffer_used -= wire.total_size
        self.records_acked += len(wire)

    def _fail_batch(self, batch: OpenBatch, reason: str) -> None:
        """Fail every record of a drained or stranded batch, freeing its buffer."""
        self._buffer_used -= batch.wire.total_size
        self._fail_records(zip(batch.futures, batch.sequences), reason)

    def _fail_records(
        self, records: Iterable[Tuple[Optional[Event], int]], reason: str
    ) -> None:
        """Fail ``(future, sequence)`` pairs (buffer accounting is the caller's)."""
        now = self.sim.now
        if self.config.transactional_id:
            # A lost record poisons the transaction: commit_transaction will
            # abort instead of committing a partial write set.
            self._txn_had_failure = True
            if reason == "producer_fenced":
                self._txn_fatal = True
        for future, sequence in records:
            self.records_failed += 1
            if sequence < 0:  # fire-and-forget: no report, no future
                continue
            self.reports[sequence].failed_at = now
            if not future.triggered:
                future.defuse()  # experiment code may ignore the future
                future.settle(DeliveryFailed(reason), ok=False)

    # -- idempotence handshake --------------------------------------------------------------
    def _init_producer_id(self):
        """Obtain a ``(producer_id, epoch)`` from the coordinator (blocking).

        Runs once at sender start: nothing is flushed until the identity is
        allocated, because batches without sequence numbers could never be
        deduplicated.  Retries forever — like metadata bootstrap, a producer
        on a partitioned host simply keeps trying until the cluster answers —
        but queued records still honor ``delivery_timeout`` while it waits
        (no flush path runs yet, so expiry must happen here).
        """
        while self.running and self.producer_id < 0:
            self._expire_accumulated_records()
            self._admit_waiting_records()
            coordinator_host = yield from find_coordinator_host(
                self.transport,
                self.bootstrap,
                timeout=min(1.0, self.config.request_timeout),
            )
            if coordinator_host is None:
                yield self.sim.timeout(self.config.retry_backoff)
                continue
            self._coordinator_host = coordinator_host
            init_request = {"type": "init_producer_id", "name": self.name}
            if self.config.transactional_id:
                init_request["transactional_id"] = self.config.transactional_id
                init_request["transaction_timeout"] = self.config.transaction_timeout
            try:
                reply = yield from self.transport.request(
                    coordinator_host,
                    COORDINATOR_PORT,
                    init_request,
                    size=48,
                    timeout=min(1.0, self.config.request_timeout),
                )
            except RequestTimeout:
                yield self.sim.timeout(self.config.retry_backoff)
                continue
            if reply.get("error") is None:
                self.producer_id = reply["producer_id"]
                self.producer_epoch = reply["producer_epoch"]

    # -- transactions ----------------------------------------------------------------------
    def begin_transaction(self) -> None:
        """Open a transaction: later sends belong to it until commit/abort."""
        if not self.config.transactional_id:
            raise InvalidTxnStateError("producer has no transactional_id")
        if self._txn_fatal:
            raise ProducerFencedError(
                f"transactional id {self.config.transactional_id!r} was fenced"
            )
        if self._txn_active:
            raise InvalidTxnStateError("a transaction is already in progress")
        self._txn_active = True
        self._txn_registered = set()
        self._txn_had_failure = False

    def commit_transaction(self, timeout: Optional[float] = None):
        """Generator: flush, then atomically commit the open transaction.

        Returns only after the coordinator completed the marker fan-out —
        every record of the transaction is then visible to ``read_committed``
        consumers.  Raises :class:`DeliveryFailed` if any record of the
        transaction failed (the transaction is aborted instead) or the
        timeout expires, and :class:`ProducerFencedError` if a newer instance
        took over the transactional id.
        """
        yield from self._end_transaction("commit", timeout)

    def abort_transaction(self, timeout: Optional[float] = None):
        """Generator: flush in-flight sends, then abort the open transaction."""
        yield from self._end_transaction("abort", timeout)

    def in_transaction(self) -> bool:
        return self._txn_active

    def _check_txn_send(self) -> None:
        if self.config.transactional_id and not self._txn_active:
            raise InvalidTxnStateError(
                "transactional producer requires begin_transaction() before send"
            )

    def _end_transaction(self, outcome: str, timeout: Optional[float]):
        if not self.config.transactional_id:
            raise InvalidTxnStateError("producer has no transactional_id")
        if not self._txn_active:
            raise InvalidTxnStateError(f"no open transaction to {outcome}")
        if self._txn_fatal:
            self._txn_active = False
            raise ProducerFencedError(
                f"transactional id {self.config.transactional_id!r} was fenced"
            )
        deadline = self.sim.now + (
            timeout if timeout is not None else self.config.delivery_timeout
        )
        # Flush barrier: every record of the transaction must be acknowledged
        # (or failed) before the outcome is decided.
        while (self.flush_pending() or self._in_flight) and not self._txn_fatal:
            if self.sim.now >= deadline:
                if outcome == "commit":
                    yield from self._force_abort()
                    raise DeliveryFailed(
                        "transaction flush timed out before commit; aborted"
                    )
                break
            yield self.sim.timeout(0.01)
        if self._txn_fatal:
            self._txn_active = False
            raise ProducerFencedError(
                f"transactional id {self.config.transactional_id!r} was fenced"
            )
        if outcome == "commit" and self._txn_had_failure:
            # Some record of the transaction was never appended: committing
            # would expose a torn write set.  Abort and surface the failure.
            yield from self._send_end_txn("abort", deadline)
            self._txn_active = False
            self.transactions_aborted += 1
            raise DeliveryFailed(
                "records failed during the transaction; aborted instead of committed"
            )
        if not self._txn_registered:
            # Nothing was sent (or nothing reached a partition): no markers
            # to write — the transaction completes locally.
            self._txn_active = False
            if outcome == "commit":
                self.transactions_committed += 1
            else:
                self.transactions_aborted += 1
            return
        result = yield from self._send_end_txn(outcome, deadline)
        self._txn_active = False
        if result == "fenced":
            raise ProducerFencedError(
                f"transactional id {self.config.transactional_id!r} was fenced"
            )
        if result == "ok":
            if outcome == "commit":
                self.transactions_committed += 1
            else:
                self.transactions_aborted += 1
            return
        if outcome == "commit":
            # The coordinator refused the commit (its timeout sweeper or a
            # fencing re-init aborted the transaction first) or the deadline
            # expired mid-handshake.
            raise DeliveryFailed(f"transaction commit did not complete ({result})")
        self.transactions_aborted += 1

    def _force_abort(self):
        """Abandon a transaction whose flush never completed (best effort).

        Unsent records fail immediately; in-flight requests get a short grace
        to settle so same-epoch stragglers cannot land after the abort marker.
        """
        grace = self.sim.now + self.config.request_timeout + self.config.retry_backoff
        while self._in_flight and self.sim.now < grace:
            yield self.sim.timeout(0.01)
        for queue in self._accumulator.values():
            stranded = list(queue)
            queue.clear()
            for batch in stranded:
                self._fail_batch(batch, reason="transaction_aborted")
        waiting = self._waiting_for_buffer
        self._waiting_for_buffer = []
        if waiting:
            # Waiting records never entered buffer accounting.
            self._fail_records(
                ((pending.future, pending.sequence) for pending in waiting),
                reason="transaction_aborted",
            )
        if self._txn_registered:
            yield from self._send_end_txn("abort", self.sim.now + 10.0)
        self._txn_active = False
        self.transactions_aborted += 1

    def _txn_coordinator(self):
        """Generator: the coordinator's host (cached from the init handshake)."""
        if self._coordinator_host is not None:
            return self._coordinator_host
        coordinator_host = yield from find_coordinator_host(
            self.transport,
            self.bootstrap,
            timeout=min(1.0, self.config.request_timeout),
        )
        self._coordinator_host = coordinator_host
        return coordinator_host

    def _add_partitions_to_txn(self, key: str, deadline: float):
        """Generator: register one partition with the current transaction.

        Returns True on success; False when fenced (fatal) or the deadline
        expired.  ``invalid_txn_state`` (the previous transaction is still
        completing its marker fan-out) is retried.
        """
        while self.running and self.sim.now < deadline:
            coordinator_host = yield from self._txn_coordinator()
            if coordinator_host is None:
                yield self.sim.timeout(self.config.retry_backoff)
                continue
            try:
                reply = yield from self.transport.request(
                    coordinator_host,
                    COORDINATOR_PORT,
                    {
                        "type": "add_partitions_to_txn",
                        "transactional_id": self.config.transactional_id,
                        "producer_id": self.producer_id,
                        "producer_epoch": self.producer_epoch,
                        "partitions": [key],
                    },
                    size=64,
                    timeout=min(1.0, self.config.request_timeout),
                )
            except RequestTimeout:
                yield self.sim.timeout(self.config.retry_backoff)
                continue
            error = reply.get("error")
            if error is None:
                self._txn_registered.add(key)
                return True
            if error == "producer_fenced":
                self._txn_fatal = True
                return False
            yield self.sim.timeout(self.config.retry_backoff)
        return False

    def _send_end_txn(self, outcome: str, deadline: float):
        """Generator: drive the coordinator's end_txn to completion.

        Returns ``"ok"``, ``"fenced"``, ``"invalid"`` (the coordinator's
        state machine refused — e.g. the transaction was already aborted) or
        ``"timeout"``.  Safe to retry: end_txn is idempotent coordinator-side.
        """
        while self.running:
            if self.sim.now >= deadline:
                return "timeout"
            coordinator_host = yield from self._txn_coordinator()
            if coordinator_host is None:
                yield self.sim.timeout(self.config.retry_backoff)
                continue
            try:
                reply = yield from self.transport.request(
                    coordinator_host,
                    COORDINATOR_PORT,
                    {
                        "type": "end_txn",
                        "transactional_id": self.config.transactional_id,
                        "producer_id": self.producer_id,
                        "producer_epoch": self.producer_epoch,
                        "outcome": outcome,
                    },
                    size=64,
                    timeout=self.config.request_timeout,
                )
            except RequestTimeout:
                yield self.sim.timeout(self.config.retry_backoff)
                continue
            error = reply.get("error")
            if error is None:
                return "ok"
            if error == "producer_fenced":
                self._txn_fatal = True
                return "fenced"
            if error == "invalid_txn_state":
                return "invalid"
            yield self.sim.timeout(self.config.retry_backoff)
        return "invalid"

    # -- metadata ---------------------------------------------------------------------------
    def _leader_host(self, key: str) -> Optional[str]:
        info = self.metadata.get("partitions", {}).get(key)
        if not info or not info.get("leader"):
            return None
        broker_entry = self.metadata.get("brokers", {}).get(info["leader"])
        return broker_entry["host"] if broker_entry else None

    def _refresh_metadata(self):
        for bootstrap_host in self.bootstrap:
            try:
                reply = yield from self.transport.request(
                    bootstrap_host,
                    BROKER_PORT,
                    {"type": "metadata"},
                    size=32,
                    timeout=min(1.0, self.config.request_timeout),
                )
            except RequestTimeout:
                continue
            metadata = reply.get("metadata")
            if metadata and metadata.get("version", -1) >= self.metadata.get("version", -1):
                self.metadata = metadata
                # Records parked on an unknown partition count place as soon
                # as metadata lands (their captured round-robin index keeps
                # placement identical to send-time placement).
                self._admit_waiting_records()
            return
        return

    # -- experiment helpers -----------------------------------------------------------------
    def acked_sequences(self) -> List[int]:
        return [report.sequence for report in self.reports if report.acknowledged]

    def failed_sequences(self) -> List[int]:
        return [report.sequence for report in self.reports if report.failed_at is not None]
