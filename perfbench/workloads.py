"""The benchmark's three workloads, each one end-to-end ALF transfer.

Every link is simulated; no real network is crossed.  A run has three
phases:

1. inputs — generated from the seed as numpy arrays and ``bytes``,
   with each ADU's expected digest, before any clock starts;
2. set-up (``setup_s``) — topology, shards, endpoints, the session
   handshake, plan and codec compiles, up to the first ``send_adu``;
3. transfer — from the first ``send_adu`` until every sender's
   ``on_complete``; the wall-clock rates are computed over it.

After the transfer every endpoint is closed and the simulation runs
one more simulated second, counting the events that still fire
(``sim.events_after_close``).  Then the correctness gate runs: every
ADU delivered exactly once with the digest of its input, ADUs offered
= delivered + abandoned, every pool's ``leak_report`` empty, and per
link ``sent + duplicated == delivered + lost + in flight``.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core.adu import Adu
from repro.ilp.compiler import shared_plan_cache
from repro.machine.accounting import datapath_counters, pacing_counters
from repro.machine.profile import MIPS_R2000
from repro.net.link import Link
from repro.net.shard import ShardedHost
from repro.net.topology import hosts_via_switch, two_hosts
from repro.presentation.abstract import ArrayOf, Int32
from repro.presentation.compiler import shared_codec_cache
from repro.presentation.negotiate import LocalSyntax
from repro.sim.eventloop import EventLoop
from repro.sim.rng import RngStreams
from repro.sim.trace import Tracer
from repro.transport.alf import AlfReceiver, AlfSender
from repro.transport.pacing import TrainPacer
from repro.transport.session import SessionConfig, SessionInitiator, SessionListener

#: Simulated seconds each step of the transfer loop advances.
STEP = 1e-3
#: A transfer not complete after this much simulated time fails the run.
SIM_LIMIT = 120.0
#: Simulated time run after every endpoint is closed.
AFTER_CLOSE = 1.0

# All links: 1 Gb/s, 1 ms, train mode on the data direction.
BANDWIDTH = 1e9
DELAY = 1e-3
MAX_TRAIN = 16
TRAIN_WINDOW = 200e-6
MTU = 1024

# bulk_lossy
BULK_ADUS = 3000
BULK_ADU_BYTES = 4096
BULK_LOSS = 0.01
BULK_WINDOW = 256

# fanin_sharded
FANIN_CLIENTS = 4
FANIN_FLOWS_PER_CLIENT = 16
# ADU sizes are drawn per ADU, mean 256 B, all single-fragment.
FANIN_ADU_BYTES = (128, 384)
FANIN_PERIOD = 1e-3
FANIN_TICKS = 128
FANIN_SHARDS = 4
FANIN_POOL_BUFFERS = 512
FANIN_PACER_RATE = 8e6
FANIN_TARGET_TRAIN = 8
FANIN_QUEUE = 64

# secure_large
SECURE_ADUS = 1024
SECURE_INTS = 4096
SECURE_LOSS = 0.001
SECURE_PACER_RATE = 100e6
SECURE_TARGET_TRAIN = 16
SECURE_SCHEMA = "block"


def digest(payload) -> bytes:
    """The 16-byte digest delivered bytes are checked against."""
    return hashlib.blake2b(payload, digest_size=16).digest()


class Ledger:
    """Exactly-once, byte-identical delivery check and latency samples.

    Keys are ``(flow_id, sequence)``.  A key delivered twice, or with
    bytes whose digest differs from its input's, is failed.
    """

    def __init__(self, expected: dict[tuple[int, int], bytes]):
        self.expected = expected
        self.handoff: dict[tuple[int, int], float] = {}
        self.arrival: dict[tuple[int, int], float] = {}
        self.bad: set[tuple[int, int]] = set()
        self.payload_bytes = 0

    def deliver(self, flow_id: int, adu) -> None:
        key = (flow_id, adu.sequence)
        if key in self.arrival or key not in self.expected:
            self.bad.add(key)
            return
        self.arrival[key] = adu.arrival_time
        self.payload_bytes += len(adu.payload)
        if digest(adu.payload) != self.expected[key]:
            self.bad.add(key)

    @property
    def good(self) -> int:
        """Keys delivered exactly once and intact."""
        return len(self.arrival) - len(self.bad & self.arrival.keys())

    def latencies_ms(self) -> list[float]:
        """Hand-off to delivery, simulated ms, for every good key."""
        return sorted(
            (arrival - self.handoff[key]) * 1e3
            for key, arrival in self.arrival.items()
            if key not in self.bad
        )


class Completion:
    """Counts senders down; notes the instant the last one completes."""

    def __init__(self, senders: int, clock: EventLoop):
        self.remaining = senders
        self.clock = clock
        self.wall: float | None = None
        self.sim: float | None = None
        self.at_completion: Callable[[], None] = lambda: None

    def sender_done(self) -> None:
        self.remaining -= 1
        if self.remaining == 0:
            self.wall = time.perf_counter()
            self.sim = self.clock.now
            self.at_completion()

    @property
    def done(self) -> bool:
        return self.remaining == 0


@dataclass
class Scenario:
    """A built workload, ready for its first ``send_adu``."""

    ledger: Ledger
    completion: Completion
    loops: list[EventLoop]
    advance: Callable[[], None]
    start: Callable[[], None]
    senders: list[AlfSender]
    receivers: list[AlfReceiver]
    links: list[Link]
    close: Callable[[], None]
    leak_reports: Callable[[], list[str]] = lambda: []
    counters: dict[str, float] = field(default_factory=dict)
    extra: dict[str, object] = field(default_factory=dict)


# ----------------------------------------------------------------------
# Inputs (before any clock)


def bulk_inputs(seed: int) -> dict:
    rng = np.random.default_rng([seed, 1])
    data = rng.integers(0, 256, size=(BULK_ADUS, BULK_ADU_BYTES), dtype=np.uint8)
    payloads = [row.tobytes() for row in data]
    return {
        "seed": seed,
        "payloads": payloads,
        "expected": {(1, seq): digest(p) for seq, p in enumerate(payloads)},
    }


def fanin_inputs(seed: int) -> dict:
    rng = np.random.default_rng([seed, 2])
    flows = FANIN_CLIENTS * FANIN_FLOWS_PER_CLIENT
    low, high = FANIN_ADU_BYTES
    data = rng.integers(0, 256, size=(flows, FANIN_TICKS, high), dtype=np.uint8)
    sizes = rng.integers(low, high + 1, size=(flows, FANIN_TICKS))
    payloads = {
        (flow, tick): data[flow, tick, : sizes[flow, tick]].tobytes()
        for flow in range(flows)
        for tick in range(FANIN_TICKS)
    }
    return {
        "seed": seed,
        "payloads": payloads,
        "expected": {key: digest(p) for key, p in payloads.items()},
        # Each client's application clock ticks at its own phase.
        "phases": [float(p) for p in rng.uniform(0.0, FANIN_PERIOD, FANIN_CLIENTS)],
    }


def secure_inputs(seed: int) -> dict:
    rng = np.random.default_rng([seed, 3])
    values = rng.integers(
        -(2**31), 2**31, size=(SECURE_ADUS, SECURE_INTS), dtype=np.int64
    ).astype(np.int32)
    # Handed over in the initiator's big-endian local syntax; delivered
    # in the listener's little-endian one.
    big = values.astype(">i4")
    little = values.astype("<i4")
    return {
        "seed": seed,
        "payloads": [row.tobytes() for row in big],
        "expected_rows": [digest(row.tobytes()) for row in little],
        "key": int(rng.integers(1, 2**32 - 1)),
    }


# ----------------------------------------------------------------------
# Builds (the set-up phase)


def build_bulk(inputs: dict, wrap_app) -> Scenario:
    """One ALF flow a→b, window 256 ADUs, 1% loss each way, inline receiver."""
    ledger = Ledger(inputs["expected"])
    path = two_hosts(
        seed=inputs["seed"],
        bandwidth_bps=BANDWIDTH,
        propagation_delay=DELAY,
        loss_rate=BULK_LOSS,
        max_train=MAX_TRAIN,
        train_window=TRAIN_WINDOW,
    )
    loop = path.loop
    completion = Completion(1, loop)
    receiver = AlfReceiver(
        loop, path.b, "a", 1, deliver=wrap_app(lambda adu: ledger.deliver(1, adu), "deliver")
    )
    sender = AlfSender(
        loop, path.a, "b", 1, mtu=MTU, max_outstanding=BULK_WINDOW,
        on_complete=wrap_app(completion.sender_done, "on_complete"),
    )
    sender.wire_plan  # plan compiles belong to set-up
    receiver.wire_plan
    payloads = inputs["payloads"]

    def start() -> None:
        for seq, payload in enumerate(payloads):
            ledger.handoff[(1, seq)] = loop.now
            sender.send_adu(Adu(seq, payload, {"seq": seq}))
        sender.close()

    def close() -> None:
        receiver.close()

    return Scenario(
        ledger=ledger,
        completion=completion,
        loops=[loop],
        advance=lambda: loop.run(until=loop.now + STEP),
        start=start,
        senders=[sender],
        receivers=[receiver],
        links=[path.a_to_b, path.b_to_a],
        close=close,
    )


def build_fanin(inputs: dict, wrap_app) -> Scenario:
    """64 open-loop flows from 4 paced clients through a switch into a
    4-shard steered receiver with a shared drain per shard."""
    ledger = Ledger(inputs["expected"])
    clients = [f"c{i}" for i in range(FANIN_CLIENTS)]
    net = hosts_via_switch(
        clients + ["r"],
        seed=inputs["seed"],
        bandwidth_bps=BANDWIDTH,
        propagation_delay=DELAY,
        queue_capacity=FANIN_QUEUE,
        preserve_trains=True,
        train_fairness_cap=MAX_TRAIN,
        max_train=MAX_TRAIN,
        train_window=TRAIN_WINDOW,
    )
    loop = net.loop
    sharded = ShardedHost(
        net.hosts["r"],
        FANIN_SHARDS,
        rng=RngStreams(inputs["seed"]),
        pool_buffers=FANIN_POOL_BUFFERS,
    )
    sharded.attach_link(net.downlinks["r"], steer=True)
    net.switch.set_steering("r", sharded.steering)
    n_flows = FANIN_CLIENTS * FANIN_FLOWS_PER_CLIENT
    completion = Completion(n_flows, loop)
    on_complete = wrap_app(completion.sender_done, "on_complete")
    pacers = [
        TrainPacer(
            loop,
            rate_bytes_per_s=FANIN_PACER_RATE,
            target_train=FANIN_TARGET_TRAIN,
            mtu=MTU,
            max_rate_bytes_per_s=FANIN_PACER_RATE,
            name=f"pacer-{name}",
        )
        for name in clients
    ]
    senders: list[AlfSender] = []
    receivers: list[AlfReceiver] = []
    for flow in range(n_flows):
        client = flow // FANIN_FLOWS_PER_CLIENT
        shard = sharded.shard_for("alf", flow)
        receivers.append(
            AlfReceiver(
                shard.loop, shard.host, clients[client], flow,
                deliver=wrap_app(
                    lambda adu, flow=flow: ledger.deliver(flow, adu), "deliver"
                ),
                drain_engine=shard.engine,
            )
        )
        senders.append(
            AlfSender(
                loop, net.hosts[clients[client]], "r", flow, mtu=MTU,
                pacing=pacers[client], on_complete=on_complete,
            )
        )
    for sender in senders:
        sender.wire_plan  # plan compiles belong to set-up
    payloads = inputs["payloads"]

    def tick(client: int, k: int) -> None:
        # The generator lives in simulated time, so it is never late:
        # each ADU's due time is the instant it is handed over.
        first = client * FANIN_FLOWS_PER_CLIENT
        for flow in range(first, first + FANIN_FLOWS_PER_CLIENT):
            ledger.handoff[(flow, k)] = loop.now
            senders[flow].send_adu(Adu(k, payloads[(flow, k)], {"seq": k}))
            if k == FANIN_TICKS - 1:
                senders[flow].close()
        if k + 1 < FANIN_TICKS:
            loop.schedule(FANIN_PERIOD, traced_tick, client, k + 1)

    traced_tick = wrap_app(tick, "generator")

    def start() -> None:
        for client, phase in enumerate(inputs["phases"]):
            loop.schedule_at(phase, traced_tick, client, 0)

    def advance() -> None:
        loop.run(until=loop.now + STEP)
        sharded.drain(until=loop.now)

    def close() -> None:
        for receiver in receivers:
            receiver.close()
        sharded.shutdown()

    def leak_reports() -> list[str]:
        return [label for shard in sharded.shards for label in shard.leak_report()]

    links = list(net.uplinks.values()) + list(net.downlinks.values())
    return Scenario(
        ledger=ledger,
        completion=completion,
        loops=[loop] + [shard.loop for shard in sharded.shards],
        advance=advance,
        start=start,
        senders=senders,
        receivers=receivers,
        links=links,
        close=close,
        leak_reports=leak_reports,
        extra={
            "sharded": sharded,
            "switch": net.switch,
            "pacers": pacers,
            "engines": [shard.engine for shard in sharded.shards],
        },
    )


def build_secure(inputs: dict, wrap_app) -> Scenario:
    """One presentation + encryption + zero-copy session, paced sender,
    shared-drain listener, 0.1% loss; the whole burst handed over at once."""
    flow_expected = inputs["expected_rows"]
    path = two_hosts(
        seed=inputs["seed"],
        bandwidth_bps=BANDWIDTH,
        propagation_delay=DELAY,
        loss_rate=SECURE_LOSS,
        max_train=MAX_TRAIN,
        train_window=TRAIN_WINDOW,
    )
    loop = path.loop
    schemas = {SECURE_SCHEMA: ArrayOf(Int32(), fixed_count=SECURE_INTS)}
    ledger = Ledger({})
    listener = SessionListener(
        loop, path.b, schemas,
        local_syntax=LocalSyntax("listener", "little"),
        deliver=wrap_app(ledger.deliver, "deliver"),
        presentation=True,
        encryption=inputs["key"],
        shared_drain=True,
    )
    pacer = TrainPacer(
        loop,
        rate_bytes_per_s=SECURE_PACER_RATE,
        target_train=SECURE_TARGET_TRAIN,
        mtu=MTU,
        max_rate_bytes_per_s=SECURE_PACER_RATE,
        name="pacer-a",
    )
    session_trace = Tracer(enabled=True)
    handshake_start = time.perf_counter()
    initiator = SessionInitiator(
        loop, path.a, "b",
        SessionConfig(
            schema_name=SECURE_SCHEMA, mtu=MTU,
            local_syntax=LocalSyntax("initiator", "big"),
        ),
        schemas,
        tracer=session_trace,
        zero_copy=True,
        presentation=True,
        encryption=inputs["key"],
        pacing=pacer,
    )
    while not initiator.established:
        if initiator.failed_reason is not None or loop.now > SIM_LIMIT:
            raise RuntimeError(f"handshake failed: {initiator.failed_reason}")
        loop.run(until=loop.now + STEP)
    handshake_s = time.perf_counter() - handshake_start
    flow = initiator.flow_id
    ledger.expected = {(flow, seq): d for seq, d in enumerate(flow_expected)}
    sender = initiator.session.sender
    receiver = listener.sessions[flow].receiver
    completion = Completion(1, loop)
    sender.on_complete = wrap_app(completion.sender_done, "on_complete")
    sender.wire_plan  # plan compiles belong to set-up
    established = [
        record.field_dict()
        for record in session_trace.by_category("session")
        if record.message == "established"
    ]
    payloads = inputs["payloads"]

    def start() -> None:
        for seq, payload in enumerate(payloads):
            ledger.handoff[(flow, seq)] = loop.now
            sender.send_adu(Adu(seq, payload, {"seq": seq}))
        sender.close()

    def close() -> None:
        listener.close()

    return Scenario(
        ledger=ledger,
        completion=completion,
        loops=[loop],
        advance=lambda: loop.run(until=loop.now + STEP),
        start=start,
        senders=[sender],
        receivers=[receiver],
        links=[path.a_to_b, path.b_to_a],
        close=close,
        extra={
            "pacers": [pacer],
            "engines": [listener.drain_engine],
            "handshake_s": handshake_s,
            "init_attempts": established[0]["attempts"],
        },
    )


WORKLOADS = {
    "bulk_lossy": (bulk_inputs, build_bulk),
    "fanin_sharded": (fanin_inputs, build_fanin),
    "secure_large": (secure_inputs, build_secure),
}


# ----------------------------------------------------------------------
# Measurement


def _in_flight(loops: list[EventLoop]) -> dict[int, int]:
    """Packets each link still holds: live delivery events in the heaps."""
    held: dict[int, int] = {}
    for loop in loops:
        for event in loop._heap:
            if event.cancelled:
                continue
            owner = getattr(event.callback, "__self__", None)
            if not isinstance(owner, Link):
                continue
            name = event.callback.__name__
            if name == "_deliver":
                count = 1
            elif name in ("_deliver_train", "_close_train"):
                count = len(event.args[0].packets)
            else:
                continue
            held[id(owner)] = held.get(id(owner), 0) + count
    return held


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def _events(loops: list[EventLoop]) -> int:
    return sum(loop.events_run for loop in loops)


def _counts(sc: Scenario, meters, copies0: dict) -> dict[str, float]:
    """Every deterministic per-layer count, taken at completion."""
    ledger = sc.ledger
    delivered = max(len(ledger.arrival), 1)
    offered = len(ledger.expected)
    senders, receivers = sc.senders, sc.receivers
    extra = sc.extra
    counts: dict[str, float] = {}
    counts["sim.events_per_adu"] = _events(sc.loops) / delivered

    train_links = [link for link in sc.links if link.train_mode]
    trains = sum(link.stats.trains for link in train_links)
    counts["net.link.packets_per_train"] = (
        sum(link.stats.train_packets for link in train_links) / trains
        if trains else 0.0
    )
    switch = extra.get("switch")
    counts["net.switch.forwarded"] = switch.stats.forwarded if switch else 0
    counts["net.switch.queue_drops"] = (
        sum(switch.stats.queue_drops.values()) if switch else 0
    )

    sharded = extra.get("sharded")
    if sharded is not None:
        demux = sharded.snapshot()["demux"]
        received = [shard.host.received for shard in sharded.shards]
        total = sum(received)
        counts["net.shard.steered_share"] = demux["steered_packets"] / total
        counts["net.shard.memo_probes_per_packet"] = (
            demux["demux_runs"] + demux["steering_hits"] + demux["steering_misses"]
        ) / total
        counts["net.shard.max_mean_load"] = max(received) / (total / len(received))
    else:
        counts["net.shard.steered_share"] = 0.0
        counts["net.shard.memo_probes_per_packet"] = 0.0
        counts["net.shard.max_mean_load"] = 0.0

    acks = sum(r.stats.acks_sent for r in receivers)
    retx = sum(s.stats.retransmissions for s in senders)
    transmissions = sum(s.adus_sent for s in senders) + retx
    counts["transport.alf.acks_per_adu"] = acks / delivered
    counts["transport.alf.sack_entries_per_ack"] = (
        meters.sack_entries / meters.acks_seen if meters.acks_seen else 0.0
    )
    counts["transport.alf.retransmissions_per_adu"] = retx / offered
    counts["transport.alf.useful_tx_ratio"] = len(ledger.arrival) / transmissions
    counts["control.ack.scan_len_per_ack"] = (
        meters.ack_scan / meters.ack_payloads if meters.ack_payloads else 0.0
    )

    engines = extra.get("engines", [])
    dispatches = sum(e.counters.dispatches for e in engines)
    scans = sum(e.counters.notify_scans for e in engines)
    counts["transport.drain.rows_per_dispatch"] = (
        sum(e.counters.rows_dispatched for e in engines) / dispatches
        if dispatches else 0.0
    )
    counts["transport.drain.scan_visits_per_notify"] = (
        sum(e.counters.scan_visits for e in engines) / scans if scans else 0.0
    )

    pacers = extra.get("pacers", [])
    counts["transport.pacing.trains"] = sum(p.trains for p in pacers)
    counts["transport.pacing.backoffs"] = sum(p.backoffs for p in pacers)
    counts["transport.pacing.stalls"] = pacing_counters().credit_stalls
    counts["transport.session.init_attempts"] = extra.get("init_attempts", 0)

    counts["ilp.plan_runs_per_adu"] = meters.plan_calls / delivered
    counts["ilp.rows_per_run"] = (
        meters.plan_rows / meters.plan_calls if meters.plan_calls else 0.0
    )
    counts["ilp.plan_cache_hit_rate"] = shared_plan_cache().stats.hit_rate
    counts["presentation.codec_cache_hit_rate"] = shared_codec_cache().stats.hit_rate

    copies = datapath_counters()
    counts["buffers.bytes_copied_per_adu"] = (
        copies.bytes_copied - copies0["bytes_copied"]
    ) / delivered
    counts["buffers.read_passes_per_adu"] = (
        copies.read_passes - copies0["read_passes"]
    ) / delivered

    instructions = sum(s.counter.total for s in senders) + sum(
        r.counter.total for r in receivers
    )
    counts["machine.control_instructions_per_adu"] = instructions / delivered
    counts["modelled_cycles_per_adu"] = (
        instructions * MIPS_R2000.cycles_per_instruction + meters.plan_cycles
    ) / delivered
    return counts


def run(name: str, seed: int, meters, tracer=None) -> dict:
    """Run one workload once; returns its measurements and gate results."""
    make_inputs, build = WORKLOADS[name]
    inputs = make_inputs(seed)
    if tracer is not None:
        wrap_app = tracer.span
    else:
        def wrap_app(fn, _name):
            return fn

    setup_start = time.perf_counter()
    sc = build(inputs, wrap_app)
    copies = datapath_counters()
    copies0 = {"bytes_copied": copies.bytes_copied, "read_passes": copies.read_passes}
    completion = sc.completion

    def at_completion() -> None:
        sc.counters = _counts(sc, meters, copies0)

    completion.at_completion = at_completion
    clock = sc.loops[0]
    sim_start = clock.now
    transfer_start = time.perf_counter()
    setup_s = transfer_start - setup_start

    def transfer() -> None:
        sc.start()
        while not completion.done:
            if clock.now - sim_start > SIM_LIMIT:
                raise RuntimeError(f"transfer incomplete after {SIM_LIMIT} sim-s")
            sc.advance()

    if tracer is not None:
        tracer.active = True
        tracer.span(transfer, "transfer")()
        tracer.active = False
    else:
        transfer()
    transfer_s = completion.wall - transfer_start
    sim_complete_s = completion.sim - min(sc.ledger.handoff.values())

    # Quiescence: every endpoint closed, then one more simulated second.
    sc.close()
    events_closed = _events(sc.loops)
    stop = clock.now + AFTER_CLOSE
    while clock.now < stop:
        sc.advance()
    counts = sc.counters
    counts["sim.events_after_close"] = _events(sc.loops) - events_closed
    leaks = sc.leak_reports()
    counts["buffers.leaks"] = len(leaks)

    errors = _gate(sc, leaks)
    ledger = sc.ledger
    latencies = ledger.latencies_ms()
    p99 = percentile(latencies, 0.99) if latencies else 0.0
    return {
        "workload": name,
        "seed": seed,
        "errors": errors,
        "offered": len(ledger.expected),
        "failed": len(ledger.expected) - ledger.good,
        "setup_s": setup_s,
        "transfer_s": transfer_s,
        "adus_delivered": ledger.good,
        "payload_bytes": ledger.payload_bytes,
        "handshake_s": sc.extra.get("handshake_s", 0.0),
        "deterministic": {
            "sim_complete_s": sim_complete_s,
            "adu_latency_p50_ms": percentile(latencies, 0.5) if latencies else 0.0,
            "adu_latency_p99_ms": p99,
            "latency_samples": len(latencies),
            "beyond_p99": sum(1 for v in latencies if v > p99),
            **counts,
        },
    }


def _gate(sc: Scenario, leaks: list[str]) -> list[str]:
    """The correctness gate; returns one message per violated check."""
    errors = []
    ledger = sc.ledger
    offered = len(ledger.expected)
    if ledger.good != offered:
        errors.append(
            f"{offered - ledger.good} of {offered} ADUs not delivered exactly "
            f"once and intact ({len(ledger.bad)} duplicate or corrupt)"
        )
    abandoned = sum(len(s.adus_abandoned) for s in sc.senders)
    if offered != len(ledger.arrival) + abandoned:
        errors.append(
            f"offered {offered} != delivered {len(ledger.arrival)} "
            f"+ abandoned {abandoned}"
        )
    if leaks:
        errors.append(f"leak reports not empty: {leaks[:5]} ({len(leaks)} total)")
    held = _in_flight(sc.loops)
    for link in sc.links:
        s = link.stats
        in_flight = held.get(id(link), 0)
        if s.sent + s.duplicated != s.delivered + s.lost + in_flight:
            errors.append(
                f"link {link.name}: sent {s.sent} + duplicated {s.duplicated} "
                f"!= delivered {s.delivered} + lost {s.lost} "
                f"+ in flight {in_flight}"
            )
    return errors
