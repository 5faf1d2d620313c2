"""ALF ACKs as a cumulative floor plus SACK ranges.

The receiver's tracker keeps the lowest undelivered sequence and the
received ``[lo, hi)`` ranges above it; the sender keeps its outstanding
sequences sorted and retires by slice.  These tests pin the encoding to
the set it stands for, the sender's retirement to exactly the
acknowledged entries, the ACK size to the holes rather than the
transfer length, and a finished transfer to an empty event heap.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.control.ack import SelectiveAckTracker
from repro.core.adu import Adu
from repro.machine.accounting import ShardCounters
from repro.net.packet import Packet
from repro.net.topology import sharded_ingress, two_hosts
from repro.transport.alf import AlfReceiver, AlfSender
from repro.transport.alf.sender import PROTOCOL


def decode(cum: int, ranges) -> set[int]:
    """The delivered set an ACK's (cum, ranges) stands for."""
    names = set(range(cum))
    for lo, hi in ranges:
        names.update(range(lo, hi))
    return names


@settings(max_examples=150, deadline=None)
@given(
    order=st.lists(st.integers(min_value=0, max_value=80), max_size=200),
    hole=st.integers(min_value=0, max_value=80),
)
def test_tracker_encoding_matches_delivered_set(order, hole):
    """Arrivals in any order, duplicates included, with one sequence
    that never arrives: after every arrival the floor plus ranges
    decode to exactly what was delivered, and ``missing`` is the
    brute-force scan below the highest."""
    tracker = SelectiveAckTracker()
    delivered: set[int] = set()
    for sequence in order:
        if sequence == hole:
            continue
        assert tracker.on_adu(sequence) is (sequence not in delivered)
        delivered.add(sequence)
        payload = tracker.ack_payload()
        cum, ranges = payload["cum"], payload["ranges"]
        assert decode(cum, ranges) == delivered
        highest = payload["highest"]
        assert highest == max(delivered)
        assert payload["missing"] == [
            s for s in range(highest + 1) if s not in delivered
        ]
        # Canonical form: the floor is undelivered, ranges are sorted,
        # non-empty, above the floor and never touch each other.
        assert cum not in delivered
        bounds = [cum] + [b for pair in ranges for b in pair]
        assert all(a < b for a, b in zip(bounds, bounds[1:]))
        assert len(tracker) == len(delivered)
        assert tracker.received_names() == delivered
    for sequence in range(82):
        assert (sequence in tracker) is (sequence in delivered)
    assert tracker.floor <= hole


def _ack(tracker: SelectiveAckTracker) -> Packet:
    payload = tracker.ack_payload()
    return Packet(
        src="b",
        dst="a",
        protocol=PROTOCOL,
        flow_id=1,
        header={
            "sack": {
                "cum": payload["cum"],
                "received": payload["ranges"],
                "missing": [],
                "highest": payload["highest"],
            }
        },
        payload=b"",
    )


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_sender_retires_exactly_the_acknowledged(data):
    """ADUs handed over in any order, then ACKs for arbitrary delivered
    sets (as reordered or lost ACKs would present them): after each
    ACK the outstanding entries are exactly those sent and never
    acknowledged, and one ``sequence_check`` is charged per retirement."""
    count = data.draw(st.integers(min_value=1, max_value=40))
    handover = data.draw(st.permutations(range(count)))
    acks = data.draw(
        st.lists(
            st.sets(st.integers(min_value=0, max_value=count + 4)), max_size=8
        )
    )
    path = two_hosts(seed=0)
    sender = AlfSender(path.loop, path.a, "b", 1, rto=1e9)
    for sequence in handover:
        sender.send_adu(Adu(sequence, b"x" * 8, {"seq": sequence}))
    outstanding = set(range(count))
    for acked in acks:
        tracker = SelectiveAckTracker()
        for sequence in acked:
            tracker.on_adu(sequence)
        checks = sender.counter.by_operation.get("sequence_check", 0)
        path.a.receive(_ack(tracker))
        retired = outstanding & acked
        outstanding -= acked
        assert set(sender._outstanding) == outstanding
        assert sender._outstanding_order == sorted(outstanding)
        charged = sender.counter.by_operation.get("sequence_check", 0) - checks
        assert charged == len(retired) * sender.counter.costs.sequence_check
    assert sender.outstanding_count == len(outstanding)


#: Flow-control window of the SACK-size transfers (ADUs).
WINDOW = 64


def _sack_entries(count: int) -> list[int]:
    """SACK entries (ranges + missing) of every ACK of one lossy,
    windowed transfer; same loss seed whatever the length."""
    path = two_hosts(
        seed=5, bandwidth_bps=1e9, propagation_delay=0.01, loss_rate=0.01
    )
    entries: list[int] = []
    send = path.b.send

    def counting_send(packet: Packet) -> None:
        sack = packet.header["sack"]
        entries.append(len(sack["received"]) + len(sack["missing"]))
        send(packet)

    path.b.send = counting_send  # b only ever sends ACKs
    receiver = AlfReceiver(
        path.loop, path.b, "a", 1, deliver=lambda adu: None, expected_adus=count
    )
    done: list[float] = []
    sender = AlfSender(
        path.loop, path.a, "b", 1, max_outstanding=WINDOW,
        on_complete=lambda: done.append(path.loop.now),
    )
    for sequence in range(count):
        sender.send_adu(Adu(sequence, b"\x5a" * 256, {"seq": sequence}))
    sender.close()
    while not done:
        path.loop.run(until=path.loop.now + 0.05)
    assert receiver.complete
    return entries


def test_sack_entries_bounded_independent_of_transfer_length():
    """Eight times the ADUs under the same loss seed: an ACK names the
    holes and the ranges between them, not the history, so its mean
    size stays within a constant of the short transfer's.  Every range
    sits above a hole, and holes are outstanding ADUs, so no ACK can
    exceed two entries per window slot (plus the last range)."""
    short = _sack_entries(1_000)
    long = _sack_entries(8_000)
    short_mean = sum(short) / len(short)
    long_mean = sum(long) / len(long)
    assert long_mean <= short_mean + 2, (short_mean, long_mean)
    assert max(short + long) <= 2 * WINDOW + 1


def test_completed_transfer_leaves_an_empty_heap():
    """Once the sender completes (its RTO tick is cancelled) and the
    receiver closes (its periodic ACK is cancelled), an unbounded run
    returns with nothing left to fire — on two hosts, and across a
    4-shard receiver with the default periodic ACK and per-shard drain
    engines, where the shard scheduler's unbounded run must return and
    leave the front loop and every shard loop empty."""
    path = two_hosts(seed=1)
    receiver = AlfReceiver(path.loop, path.b, "a", 1, deliver=lambda adu: None)
    done: list[float] = []
    sender = AlfSender(
        path.loop, path.a, "b", 1, on_complete=lambda: done.append(path.loop.now)
    )
    for sequence in range(4):
        sender.send_adu(Adu(sequence, bytes(range(200)), {"seq": sequence}))
    sender.close()
    path.loop.run(until=1.0)
    assert done and receiver.delivered_count == 4
    receiver.close()
    path.loop.run(max_events=10_000)
    assert path.loop.pending == 0

    ing = sharded_ingress(seed=1, shards=4, counters=ShardCounters())
    sharded = ing.sharded
    receivers = []
    finished: list[int] = []
    for flow in range(8):
        shard = sharded.shard_for(PROTOCOL, flow)
        receivers.append(
            AlfReceiver(
                shard.loop, shard.host, "a", flow,
                deliver=lambda adu: None, drain_engine=shard.engine,
            )
        )
        sender = AlfSender(
            ing.loop, ing.a, "b", flow, on_complete=lambda: finished.append(1)
        )
        for sequence in range(4):
            sender.send_adu(Adu(sequence, bytes(range(200)), {"seq": sequence}))
        sender.close()
    while len(finished) < 8 and ing.loop.now < 1.0:
        ing.loop.run(until=ing.loop.now + 0.01)
        sharded.drain()
    assert len(finished) == 8
    assert all(receiver.delivered_count == 4 for receiver in receivers)
    assert len({receiver.loop for receiver in receivers}) > 1
    for receiver in receivers:
        receiver.close()
    ing.loop.run(max_events=10_000)
    # Bounded first, so a timer that still rearms fails the test rather
    # than hanging the unbounded run below.
    sharded.scheduler.run(until=ing.loop.now + 10.0)
    assert all(shard.loop.next_event_time() is None for shard in sharded.shards)
    sharded.scheduler.run()
    assert ing.loop.pending == 0
    assert [shard.loop.pending for shard in sharded.shards] == [0, 0, 0, 0]
