"""Counting meters and the span tracer, attached from outside the program.

Both work by replacing methods at class level before a workload builds
anything, so every instance the workload creates goes through them.

* :class:`Meters` counts what no public counter exposes, at call sites
  that run once per ACK or once per compiled-plan pass (never once per
  packet), so it stays on in every run and its counts are the ones
  reported.
* :class:`SpanTracer` (the separate traced run only) wraps each public
  entry point of every layer in a span and derives per-layer self time:
  a span's duration minus the time its child spans cover.  The
  transfer phase is one root span, so the self times of all layers sum
  to the traced wall time.  Time spent in private event callbacks
  (link delivery, pacer release, retransmit and periodic-ACK timers)
  has no span of its own and lands in the innermost enclosing span,
  usually ``sim``.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import time
from pathlib import Path

from repro.control.ack import SelectiveAckTracker
from repro.ilp.compiler import CompiledPlan, PlanCache
from repro.net.host import Host

#: Layer of every benchmark-owned callback (delivery check, generator).
APP = "app"


def _owner(handler) -> str:
    """Class name of the object a (possibly wrapped) bound method is on."""
    return type(getattr(inspect.unwrap(handler), "__self__", None)).__name__


class Meters:
    """Per-ACK and per-plan-pass counts for one run.

    ``plan_cycles`` prices each compiled-plan pass the way the plan
    prices itself: per fused loop, ``cycles_per_word`` × words plus
    ``cycles_per_invocation`` per ADU row.
    """

    def __init__(self) -> None:
        self.plan_calls = 0
        self.plan_rows = 0
        self.plan_cycles = 0.0
        self.ack_payloads = 0
        self.ack_scan = 0
        self.acks_seen = 0
        self.sack_entries = 0

    def _price(self, plan: CompiledPlan, words: int, rows: int) -> None:
        self.plan_calls += 1
        self.plan_rows += rows
        for group in plan.groups:
            self.plan_cycles += (
                words * group.cycles_per_word + rows * group.cycles_per_invocation
            )

    def install(self) -> None:
        """Hook the plan passes, ACK builds and sender ACK handlers."""
        meters = self
        run, run_chain, run_batch = (
            CompiledPlan.run, CompiledPlan.run_chain, CompiledPlan.run_batch
        )

        @functools.wraps(run)
        def counted_run(plan, data):
            meters._price(plan, (len(data) + 3) // 4, 1)
            return run(plan, data)

        @functools.wraps(run_chain)
        def counted_run_chain(plan, chain):
            meters._price(plan, (len(chain) + 3) // 4, 1)
            return run_chain(plan, chain)

        @functools.wraps(run_batch)
        def counted_run_batch(plan, adus):
            words = sum((len(adu) + 3) // 4 for adu in adus)
            meters._price(plan, words, len(adus))
            return run_batch(plan, adus)

        CompiledPlan.run = counted_run
        CompiledPlan.run_chain = counted_run_chain
        CompiledPlan.run_batch = counted_run_batch

        ack_payload = SelectiveAckTracker.ack_payload

        @functools.wraps(ack_payload)
        def counted_ack_payload(tracker):
            payload = ack_payload(tracker)
            meters.ack_payloads += 1
            meters.ack_scan += payload["highest"] + 1
            return payload

        SelectiveAckTracker.ack_payload = counted_ack_payload

        bind = Host.bind

        @functools.wraps(bind)
        def counted_bind(host, protocol, flow_id, handler):
            if _owner(handler) == "AlfSender":
                handler = meters._count_sack(handler)
            return bind(host, protocol, flow_id, handler)

        Host.bind = counted_bind

    def _count_sack(self, handler):
        meters = self

        @functools.wraps(handler)
        def on_ack(packet):
            sack = packet.header["sack"]
            meters.acks_seen += 1
            meters.sack_entries += len(sack["received"]) + len(sack["missing"])
            return handler(packet)

        return on_ack


def _entry_points():
    """(class, method, layer) for every wrapped public entry point.

    ALF endpoints' packet handlers are not listed: they are private,
    so :class:`SpanTracer` wraps them where they are registered
    (``Host.bind``) and labels them by their owner's class.
    """
    from repro.buffers.chain import BufferChain
    from repro.buffers.pool import BufferPool
    from repro.control.ack import SelectiveAckTracker
    from repro.net.link import Link
    from repro.net.shard import SerialShardScheduler, ShardedHost
    from repro.net.switch import StoreAndForwardSwitch
    from repro.presentation.compiler import CodecCache
    from repro.sim.eventloop import EventLoop
    from repro.stages.presentation import PresentationConvertStage
    from repro.transport.alf import AlfReceiver, AlfSender
    from repro.transport.drain import SharedDrainEngine
    from repro.transport.pacing import TrainPacer

    return [
        (EventLoop, "run", "sim"),
        (SerialShardScheduler, "run", "sim"),
        (Link, "send", "net.link"),
        (StoreAndForwardSwitch, "receive", "net.switch"),
        (StoreAndForwardSwitch, "receive_burst", "net.switch"),
        (Host, "send", "net.host"),
        (Host, "receive", "net.host"),
        (Host, "receive_burst", "net.host"),
        (ShardedHost, "receive", "net.shard"),
        (ShardedHost, "receive_burst", "net.shard"),
        (ShardedHost, "steer_burst", "net.shard"),
        (ShardedHost, "drain", "net.shard"),
        (AlfSender, "send_adu", "transport.alf.sender"),
        (AlfSender, "send_batch", "transport.alf.sender"),
        (AlfSender, "close", "transport.alf.sender"),
        (AlfReceiver, "resolve_drained", "transport.alf.receiver"),
        (AlfReceiver, "finish_drain_dispatch", "transport.alf.receiver"),
        (AlfReceiver, "run_batch", "transport.alf.receiver"),
        (AlfReceiver, "close", "transport.alf.receiver"),
        (SelectiveAckTracker, "on_adu", "control.ack"),
        (SelectiveAckTracker, "ack_payload", "control.ack"),
        (SharedDrainEngine, "notify_ready", "transport.drain"),
        (SharedDrainEngine, "flush", "transport.drain"),
        (TrainPacer, "submit", "transport.pacing"),
        (TrainPacer, "on_pressure", "transport.pacing"),
        (TrainPacer, "flush", "transport.pacing"),
        (CompiledPlan, "run", "ilp"),
        (CompiledPlan, "run_chain", "ilp"),
        (CompiledPlan, "run_batch", "ilp"),
        (PlanCache, "get_or_compile", "ilp"),
        (PresentationConvertStage, "apply", "presentation"),
        (CodecCache, "get_or_compile", "presentation"),
        (BufferChain, "linearize", "buffers"),
        (BufferChain, "release", "buffers"),
        (BufferChain, "split", "buffers"),
        (BufferChain, "chunks", "buffers"),
        (BufferChain, "share", "buffers"),
        (BufferChain, "copy_into", "buffers"),
        (BufferChain, "wrap", "buffers"),
        (BufferChain, "from_bytes", "buffers"),
        (BufferPool, "dma_chain", "buffers"),
        (BufferPool, "try_allocate_segment", "buffers"),
        (BufferPool, "release", "buffers"),
    ]


#: Layer each handler registered through ``Host.bind`` is charged to,
#: by the class of the handler's owner.
_HANDLER_LAYERS = {
    "AlfSender": "transport.alf.sender",
    "AlfReceiver": "transport.alf.receiver",
    "SessionInitiator": "transport.session",
    "SessionListener": "transport.session",
}


class SpanTracer:
    """In-memory spans with per-layer self time.

    A span is (label, start, end, parent); its label names the layer
    and the wrapped function.  Spans are recorded only while
    :attr:`active` (the transfer phase), kept in memory and written
    out by :meth:`write`.
    """

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.active = False
        self.labels: list[tuple[str, str]] = []
        self._label_ids: dict[tuple[str, str], int] = {}
        self.spans: list[list[int]] = []
        self._stack: list[int] = []
        self._child_ns: list[int] = []
        self.self_ns: list[int] = []

    def _label(self, layer: str, name: str) -> int:
        key = (layer, name)
        if key not in self._label_ids:
            self._label_ids[key] = len(self.labels)
            self.labels.append(key)
            self.self_ns.append(0)
        return self._label_ids[key]

    def wrap(self, fn, layer: str, name: str):
        """``fn`` recording one span per call while the tracer is active."""
        label = self._label(layer, name)
        tracer = self
        spans = self.spans
        stack = self._stack
        child_ns = self._child_ns
        self_ns = self.self_ns
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append([label, 0, 0, stack[-1] if stack else -1])
            stack.append(index)
            child_ns.append(0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                span = spans[index]
                span[1] = start
                span[2] = end
                stack.pop()
                duration = end - start
                self_ns[label] += duration - child_ns.pop()
                if child_ns:
                    child_ns[-1] += duration

        return traced

    def install(self) -> None:
        """Wrap every entry point at class level, and ``Host.bind``."""
        for cls, name, layer in _entry_points():
            raw = cls.__dict__[name]
            label = f"{cls.__name__}.{name}"
            if isinstance(raw, classmethod):
                setattr(cls, name, classmethod(self.wrap(raw.__func__, layer, label)))
            else:
                setattr(cls, name, self.wrap(raw, layer, label))
        bind = Host.bind
        bind_protocol = Host.bind_protocol
        tracer = self

        def traced_handler(handler):
            owner = _owner(handler)
            layer = _HANDLER_LAYERS.get(owner)
            if layer is None:
                return handler
            return tracer.wrap(handler, layer, f"{owner}.{handler.__name__}")

        @functools.wraps(bind)
        def traced_bind(host, protocol, flow_id, handler):
            return bind(host, protocol, flow_id, traced_handler(handler))

        @functools.wraps(bind_protocol)
        def traced_bind_protocol(host, protocol, handler):
            return bind_protocol(host, protocol, traced_handler(handler))

        Host.bind = traced_bind
        Host.bind_protocol = traced_bind_protocol

    def span(self, fn, name: str):
        """Wrap a benchmark-owned callable as an ``app`` span."""
        return self.wrap(fn, APP, name)

    def layer_self_s(self) -> dict[str, float]:
        """Self seconds per layer (labels summed)."""
        totals: dict[str, float] = {}
        for (layer, _), ns in zip(self.labels, self.self_ns):
            totals[layer] = totals.get(layer, 0.0) + ns / 1e9
        return totals

    def write(self, path: Path) -> None:
        """Write every span as gzipped JSON (labels indexed once)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        record = {
            "workload": self.workload,
            "labels": [list(label) for label in self.labels],
            "fields": ["label", "start_ns", "end_ns", "parent"],
            "spans": self.spans,
        }
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump(record, handle, separators=(",", ":"))
