"""Span tracer for the benchmark's traced runs.

Spans are recorded from the benchmark's own files: :func:`install` wraps the
public entry points of each layer with timers, and the function it returns
puts the originals back, so untraced episodes in the same process run the
unmodified code.  The wrappers change no simulated behaviour: every event, delay and
call order stays the same, which the benchmark proves by comparing the
determinism digests of traced and untraced episodes.

Entry points and the span names they record:

* ``Simulator.run`` — ``simulation.run``, the root of every episode's spans;
* each step of a process started through ``Simulator.process`` and each
  callback scheduled with ``Simulator.call_later`` — ``<layer>.<function>``,
  charged to the module that defined the generator or callback;
* handlers passed to ``Transport.register`` — ``broker.<type>`` or
  ``coordinator.<type>`` per request type, including every resume of a
  generator handler;
* ``Transport.request`` (``transport.request``) and ``Link.transmit``
  (``network.transmit``);
* ``Producer.send`` (``producer.send``);
* ``PartitionLog.append_batch`` / ``append_wire_batch`` (``log.append``) and
  ``read_batch`` (``log.read``);
* ``DStream.execute_columns`` (``engine.dstream``), ``apply_columns`` of every
  operator (``engine.<operator>``) and ``write_columns`` of every sink
  (``engine.sink``).

A span's self time is its duration minus the time its child spans cover.
Spans are kept in memory (name, start, end, parent) and written out by
:meth:`Tracer.write` when the run ends.

The wrappers cost time of their own, and without care it would land in
self times: the part of a wrapper outside its span's clock readings in the
parent span, the part inside in the span itself.  :func:`calibrate` times
every kind of wrapper around an empty function once per run, and each span
exit then takes the calibrated costs off its own and its parent's self time.
The sum taken off is reported as the tracing share, beside the layers.
"""

from __future__ import annotations

import json
import os
import statistics
from array import array
from collections import defaultdict
from functools import partial
from time import perf_counter_ns
from types import SimpleNamespace
from typing import Callable, Dict, List

from repro.broker import log as log_module
from repro.broker.producer import Producer
from repro.engine import operators as operators_module
from repro.engine import sinks as sinks_module
from repro.engine.dstream import DStream
from repro.network.link import Link
from repro.network.transport import Transport
from repro.simulation.engine import Simulator
from repro.simulation.process import Process

#: Source module (path below ``repro/``) -> layer.  First matching prefix wins.
MODULE_LAYERS = (
    ("simulation/", "simulation"),
    ("network/transport.py", "transport"),
    ("network/", "network"),
    ("broker/producer.py", "producer"),
    ("broker/consumer.py", "consumer"),
    ("broker/coordinator.py", "coordinator"),
    ("broker/log.py", "log"),
    ("broker/segment.py", "log"),
    ("broker/", "broker"),
    ("engine/", "engine"),
    ("workloads/", "workloads"),
)

#: Wrapper kinds, each with its own calibrated cost: plain calls (``_timed``),
#: generator resumes (:class:`TimedGen`), ``call_later`` callbacks and
#: transport request handlers.
KINDS = ("call", "gen", "callback", "handler")
#: Calls per calibration pass and passes per kind (the median is kept).
CALIBRATION_CALLS = 10_000
CALIBRATION_PASSES = 5

#: Layers whose self time is reported, and the span-name prefixes in each.
#: ``loadgen`` is the benchmark's own open-loop load generator.
LAYERS = {
    "simulation": ("simulation",),
    "network": ("network", "transport"),
    "producer": ("producer",),
    "broker": ("broker",),
    "log": ("log",),
    "consumer": ("consumer",),
    "coordinator": ("coordinator",),
    "engine": ("engine",),
    "loadgen": ("loadgen",),
}


def module_layer(filename: str) -> str:
    """The layer a source file belongs to (``other`` outside the program)."""
    path = filename.replace(os.sep, "/")
    marker = "/repro/"
    if marker in path:
        tail = path.rsplit(marker, 1)[1]
        for prefix, layer in MODULE_LAYERS:
            if tail.startswith(prefix):
                return layer
        return "other"
    if "/perfbench/" in path:
        return "loadgen"
    return "other"


class Tracer:
    """In-memory span store with per-name self-time accounting."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self._code_ids: Dict[object, int] = {}
        #: Work counts recorded at the span boundaries (see the wrappers).
        self.counts: Dict[str, int] = defaultdict(int)
        #: Wrapper kind -> (ns inside the span, ns charged to the parent)
        #: of one wrapped call, set by :func:`calibrate`.
        self.costs: Dict[str, tuple] = {kind: (0, 0) for kind in KINDS}
        self.reset()

    def reset(self) -> None:
        """Drop every recorded span and count (between episodes)."""
        self.self_ns = [0] * len(self.names)
        self.calls = [0] * len(self.names)
        self.counts.clear()
        #: Calibrated wrapper time taken off the self times so far.
        self.overhead_ns = 0
        self._stack: List[list] = []
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("i")

    def span_id(self, name: str) -> int:
        sid = self._ids.get(name)
        if sid is None:
            sid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.self_ns.append(0)
            self.calls.append(0)
        return sid

    def code_span(self, code) -> int:
        """Span id of a process step or callback, named after its function."""
        sid = self._code_ids.get(code)
        if sid is None:
            layer = module_layer(code.co_filename)
            sid = self._code_ids[code] = self.span_id(f"{layer}.{code.co_name}")
        return sid

    def enter(self, sid: int) -> None:
        stack = self._stack
        now = perf_counter_ns()
        index = len(self.span_start)
        self.span_name.append(sid)
        self.span_start.append(now)
        self.span_end.append(0)
        self.span_parent.append(stack[-1][3] if stack else -1)
        stack.append([sid, now, 0, index])

    def exit(self, inner: int = 0, outer: int = 0) -> None:
        """Close the innermost span; ``inner`` and ``outer`` are its wrapper's
        calibrated costs inside the span and in the parent span."""
        now = perf_counter_ns()
        stack = self._stack
        sid, start, children, index = stack.pop()
        duration = now - start
        self.span_end[index] = now
        self.self_ns[sid] += duration - children - inner
        self.calls[sid] += 1
        self.overhead_ns += inner + outer
        if stack:
            stack[-1][2] += duration + outer

    # -- summaries -----------------------------------------------------------------
    def self_seconds(self, prefixes) -> float:
        """Summed self time of every span whose name's first part is in ``prefixes``."""
        total = 0
        for sid, name in enumerate(self.names):
            if name.split(".", 1)[0] in prefixes:
                total += self.self_ns[sid]
        # The calibrated costs are medians, so a layer of tiny spans may
        # come out a little below zero.
        return max(total, 0) / 1e9

    def span_seconds(self, name: str) -> float:
        sid = self._ids.get(name)
        return 0.0 if sid is None else max(self.self_ns[sid], 0) / 1e9

    def write(self, path_stem: str) -> None:
        """Write the spans as ``<stem>.spans`` plus a JSON index ``<stem>.json``.

        The ``.spans`` file holds four little arrays back to back: name id
        (int32), start and end (int64 nanoseconds, ``perf_counter_ns``) and
        parent span index (int32, -1 for a root).
        """
        os.makedirs(os.path.dirname(path_stem) or ".", exist_ok=True)
        with open(path_stem + ".spans", "wb") as handle:
            for column in (self.span_name, self.span_start, self.span_end, self.span_parent):
                column.tofile(handle)
        index = {
            "spans": len(self.span_start),
            "columns": [["name", "int32"], ["start_ns", "int64"], ["end_ns", "int64"], ["parent", "int32"]],
            "names": self.names,
            "self_s": {name: self.self_ns[sid] / 1e9 for sid, name in enumerate(self.names)},
            "calls": {name: self.calls[sid] for sid, name in enumerate(self.names)},
            "wrapper_costs_ns": {kind: list(cost) for kind, cost in self.costs.items()},
        }
        with open(path_stem + ".json", "w") as handle:
            json.dump(index, handle, indent=1, sort_keys=True)


class TimedGen:
    """A generator proxy that times every resume of the wrapped generator.

    ``on_return`` sees the generator's return value.  The proxy forwards
    ``send``/``throw``/``close`` unchanged, so ``Simulator.process`` and
    ``yield from`` drive it exactly like the generator itself.
    """

    __slots__ = ("tracer", "sid", "gen", "on_return", "inner", "outer")

    def __init__(self, tracer: Tracer, sid: int, gen, on_return=None) -> None:
        self.tracer = tracer
        self.sid = sid
        self.gen = gen
        self.on_return = on_return
        self.inner, self.outer = tracer.costs["gen"]

    @property
    def __name__(self) -> str:
        return getattr(self.gen, "__name__", "process")

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)

    def send(self, value):
        tracer = self.tracer
        tracer.enter(self.sid)
        try:
            return self.gen.send(value)
        except StopIteration as stop:
            if self.on_return is not None:
                self.on_return(stop.value)
            raise
        finally:
            tracer.exit(self.inner, self.outer)

    def throw(self, *args):
        tracer = self.tracer
        tracer.enter(self.sid)
        try:
            return self.gen.throw(*args)
        except StopIteration as stop:
            if self.on_return is not None:
                self.on_return(stop.value)
            raise
        finally:
            tracer.exit(self.inner, self.outer)

    def close(self) -> None:
        self.gen.close()


def _timed(tracer: Tracer, name: str, fn: Callable, count=None) -> Callable:
    """Wrap a plain method in a span; ``count(result)`` records work counts."""
    sid = tracer.span_id(name)
    enter, leave = tracer.enter, tracer.exit
    inner, outer = tracer.costs["call"]

    def wrapper(*args, **kwargs):
        enter(sid)
        try:
            result = fn(*args, **kwargs)
        finally:
            leave(inner, outer)
        if count is not None:
            count(result)
        return result

    return wrapper


def _callback_runner(tracer: Tracer) -> Callable:
    """The function ``call_later`` schedules in place of a callback."""
    enter, leave = tracer.enter, tracer.exit
    inner, outer = tracer.costs["callback"]

    def traced_callback(sid, fn, *args):
        enter(sid)
        try:
            fn(*args)
        finally:
            leave(inner, outer)

    return traced_callback


def _batch_len(reply) -> int:
    payload = getattr(reply, "payload", reply)
    if isinstance(payload, dict):
        batch = payload.get("batch")
        return len(batch) if batch is not None else 0
    return 0


def _traced_handler(tracer: Tracer, handler: Callable) -> Callable:
    """Wrap a transport request handler in spans named per request type."""
    owner = getattr(handler, "__self__", None)
    prefix = type(owner).__name__.lower() if owner is not None else "handler"
    if prefix not in ("broker", "coordinator"):
        prefix = module_layer(handler.__code__.co_filename)
    counts = tracer.counts
    enter, leave = tracer.enter, tracer.exit
    inner, outer = tracer.costs["handler"]

    def count_reply(name, reply) -> None:
        if name in ("broker.fetch", "broker.replica_fetch") and not _batch_len(reply):
            counts[name + ".empty"] += 1

    def traced_handler(request):
        payload = request.payload
        kind = payload.get("type") if isinstance(payload, dict) else None
        name = f"{prefix}.{kind}"
        sid = tracer.span_id(name)
        counts[name + ".requests"] += 1
        if kind == "produce":
            counts["produce.records"] += len(payload["batch"])
        enter(sid)
        try:
            outcome = handler(request)
        finally:
            leave(inner, outer)
        if hasattr(outcome, "send") and hasattr(outcome, "throw"):
            return TimedGen(tracer, sid, outcome, on_return=lambda reply: count_reply(name, reply))
        count_reply(name, outcome)
        return outcome

    return traced_handler


def _empty(*_args) -> None:
    return None


def _endless():
    while True:
        yield


def _calibration_pairs(tracer: Tracer, child: int) -> Dict[str, tuple]:
    """Kind -> (wrapped, direct): the same empty call with and without the wrapper."""
    endless_wrapped, endless_direct = TimedGen(tracer, child, _endless()), _endless()
    next(endless_wrapped)
    next(endless_direct)
    request = SimpleNamespace(payload={"type": "calibrate"})
    return {
        "call": (_timed(tracer, tracer.names[child], _empty), _empty),
        "gen": (partial(endless_wrapped.send, None), partial(endless_direct.send, None)),
        "callback": (partial(_callback_runner(tracer), child, _empty), partial(_empty)),
        "handler": (partial(_traced_handler(tracer, _empty), request), partial(_empty, request)),
    }


def calibrate(tracer: Tracer) -> None:
    """Measure each wrapper kind's own cost and store it in ``tracer.costs``.

    Each pass calls an empty function ``CALIBRATION_CALLS`` times inside a
    parent span, once through the wrapper and once directly.  The wrapped
    span's self time per call is the cost inside the span; the parent's self
    time per call, less the direct call's time, is the cost the parent bears.
    """
    parent = tracer.span_id("calibrate.parent")
    child = tracer.span_id("calibrate.child")
    calls = range(CALIBRATION_CALLS)
    tracer.costs = {kind: (0, 0) for kind in KINDS}
    costs = {}
    for kind in KINDS:
        inners, outers = [], []
        for _ in range(CALIBRATION_PASSES):
            wrapped, direct = _calibration_pairs(tracer, child)[kind]
            tracer.reset()
            tracer.enter(parent)
            for _ in calls:
                wrapped()
            tracer.exit()
            started = perf_counter_ns()
            for _ in calls:
                direct()
            direct_ns = perf_counter_ns() - started
            # The handler wrapper names its span itself: the one other span called.
            inner_ns = sum(ns for sid, ns in enumerate(tracer.self_ns) if sid != parent)
            inners.append(inner_ns / CALIBRATION_CALLS)
            outers.append((tracer.self_ns[parent] - direct_ns) / CALIBRATION_CALLS)
        costs[kind] = (
            max(0, round(statistics.median(inners))),
            max(0, round(statistics.median(outers))),
        )
    tracer.costs = costs
    tracer.reset()


def install(tracer: Tracer) -> Callable[[], None]:
    """Patch every entry point; returns the function that restores them."""
    saved = []

    def patch(owner, attribute, replacement) -> None:
        saved.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    counts = tracer.counts

    patch(Simulator, "run", _timed(tracer, "simulation.run", Simulator.run))

    original_call_later = Simulator.call_later
    traced_callback = _callback_runner(tracer)

    def call_later(self, delay, fn, *args):
        code = getattr(getattr(fn, "__func__", fn), "__code__", None)
        if code is None:
            return original_call_later(self, delay, fn, *args)
        return original_call_later(self, delay, traced_callback, tracer.code_span(code), fn, *args)

    patch(Simulator, "call_later", call_later)

    original_process_init = Process.__init__

    def process_init(self, sim, generator, name=None):
        if not isinstance(generator, TimedGen) and hasattr(generator, "gi_code"):
            generator = TimedGen(tracer, tracer.code_span(generator.gi_code), generator)
        original_process_init(self, sim, generator, name)

    patch(Process, "__init__", process_init)

    original_register = Transport.register

    def register(self, port, handler):
        original_register(self, port, _traced_handler(tracer, handler))

    patch(Transport, "register", register)

    original_request = Transport.request
    request_sid = tracer.span_id("transport.request")

    def request(self, *args, **kwargs):
        return TimedGen(tracer, request_sid, original_request(self, *args, **kwargs))

    patch(Transport, "request", request)
    patch(Link, "transmit", _timed(tracer, "network.transmit", Link.transmit))
    patch(Producer, "send", _timed(tracer, "producer.send", Producer.send))

    log_cls = log_module.PartitionLog
    patch(log_cls, "append_batch", _timed(tracer, "log.append", log_cls.append_batch))
    patch(log_cls, "append_wire_batch", _timed(tracer, "log.append", log_cls.append_wire_batch))

    def count_read(batch) -> None:
        counts["log.reads"] += 1
        counts["log.records_read"] += len(batch)

    patch(log_cls, "read_batch", _timed(tracer, "log.read", log_cls.read_batch, count_read))
    patch(DStream, "execute_columns", _timed(tracer, "engine.dstream", DStream.execute_columns))
    for cls in vars(operators_module).values():
        if isinstance(cls, type) and "apply_columns" in vars(cls):
            patch(cls, "apply_columns", _timed(tracer, f"engine.{cls.name}", vars(cls)["apply_columns"]))
    for cls in vars(sinks_module).values():
        if isinstance(cls, type) and "write_columns" in vars(cls):
            patch(cls, "write_columns", _timed(tracer, "engine.sink", vars(cls)["write_columns"]))

    def uninstall() -> None:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)

    return uninstall
