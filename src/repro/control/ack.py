"""Acknowledgement generation.

"A common control function is positive acknowledgement of data receipt...
it is but one of many methods for dealing with network errors" (§3).
Two flavours are provided, matching the two transports:

* :class:`AckGenerator` — cumulative byte-stream ACKs with a delayed-ack
  policy (the TCP-style transport);
* :class:`SelectiveAckTracker` — per-ADU receipt tracking whose ACKs name
  *application data units*, not byte numbers (the ALF transport).  Naming
  ADUs is what lets the sending application choose its recovery method.
  An ALF ACK carries a cumulative floor plus the received ranges above
  it and the missing names between them, so its size and the work to
  build it scale with the holes, not with the transfer's length.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import chain
from typing import Any

from repro.control.instructions import InstructionCounter
from repro.errors import TransportError


class AckGenerator:
    """Cumulative acknowledgements over a byte stream.

    Tracks the highest in-order byte received; out-of-order arrivals are
    remembered so the cumulative point jumps when a gap fills.
    """

    def __init__(
        self,
        counter: InstructionCounter | None = None,
        delayed_ack_every: int = 2,
    ):
        if delayed_ack_every <= 0:
            raise TransportError("delayed_ack_every must be positive")
        self.counter = counter or InstructionCounter()
        self.delayed_ack_every = delayed_ack_every
        self.cumulative = 0
        self._out_of_order: dict[int, int] = {}  # start -> end
        self._since_last_ack = 0

    def on_segment(self, start: int, length: int) -> bool:
        """Record an arriving segment [start, start+length).

        Returns True when an ACK should be sent now: immediately for
        out-of-order segments (fast-retransmit support), otherwise per
        the delayed-ack policy.
        """
        if start < 0 or length < 0:
            raise TransportError("segment start/length must be >= 0")
        self.counter.record("sequence_check")
        self.counter.record("ack_compute")
        end = start + length

        if start > self.cumulative:
            # A gap: remember the island, ack immediately (duplicate ACK).
            current = self._out_of_order.get(start, start)
            self._out_of_order[start] = max(current, end)
            self._since_last_ack = 0
            return True

        # In-order (or overlapping) data advances the cumulative point,
        # then any contiguous islands are absorbed.
        self.cumulative = max(self.cumulative, end)
        absorbed = True
        while absorbed:
            absorbed = False
            for island_start in sorted(self._out_of_order):
                if island_start <= self.cumulative:
                    self.cumulative = max(
                        self.cumulative, self._out_of_order.pop(island_start)
                    )
                    absorbed = True
                    break

        self._since_last_ack += 1
        if self._since_last_ack >= self.delayed_ack_every:
            self._since_last_ack = 0
            return True
        return False

    @property
    def pending_islands(self) -> int:
        """Out-of-order islands currently held."""
        return len(self._out_of_order)


class SelectiveAckTracker:
    """Per-ADU receipt tracking: ACKs name ADUs, not bytes.

    The receiver records complete ADUs by name.  Receipt is kept as a
    cumulative :attr:`floor` — the lowest sequence not yet received —
    plus sorted, disjoint, non-adjacent ``[lo, hi)`` ranges above it.
    Recording an ADU is one bisection and a shift of the range lists;
    building an ACK is O(ranges + missing) — never O(sequences seen).
    :meth:`ack_payload` returns that floor, the ranges, and the names
    known missing (for sender-side recovery decisions).
    """

    def __init__(self, counter: InstructionCounter | None = None):
        self.counter = counter or InstructionCounter()
        self.floor = 0
        self._starts: list[int] = []
        self._ends: list[int] = []
        self._count = 0
        self._highest = -1

    def on_adu(self, adu_sequence: int) -> bool:
        """Record a complete ADU; returns True if it was new."""
        if adu_sequence < 0:
            raise TransportError("adu_sequence must be >= 0")
        self.counter.record("sequence_check")
        self.counter.record("ack_compute")
        if adu_sequence < self.floor:
            return False
        starts, ends = self._starts, self._ends
        # Range to the left of the new sequence (if any), and the one
        # after it: the sequence extends either, bridges both, or
        # starts a range of its own.
        index = bisect_right(starts, adu_sequence) - 1
        if index >= 0 and adu_sequence < ends[index]:
            return False
        joins_left = index >= 0 and ends[index] == adu_sequence
        after = index + 1
        joins_right = after < len(starts) and starts[after] == adu_sequence + 1
        if joins_left and joins_right:
            ends[index] = ends[after]
            del starts[after], ends[after]
        elif joins_left:
            ends[index] = adu_sequence + 1
        elif joins_right:
            starts[after] = adu_sequence
        else:
            starts.insert(after, adu_sequence)
            ends.insert(after, adu_sequence + 1)
        if starts[0] == self.floor:
            # The hole at the floor filled: absorb the first range.
            self.floor = ends[0]
            del starts[0], ends[0]
        self._count += 1
        if adu_sequence > self._highest:
            self._highest = adu_sequence
        return True

    def __contains__(self, adu_sequence: int) -> bool:
        """Whether ``adu_sequence`` has been received."""
        if adu_sequence < self.floor:
            return adu_sequence >= 0
        index = bisect_right(self._starts, adu_sequence) - 1
        return index >= 0 and adu_sequence < self._ends[index]

    def __len__(self) -> int:
        """ADUs received so far."""
        return self._count

    def ranges(self) -> list[tuple[int, int]]:
        """The received ``[lo, hi)`` ranges above :attr:`floor`."""
        return list(zip(self._starts, self._ends))

    def received_names(self) -> set[int]:
        """All ADU sequences received so far."""
        names = set(range(self.floor))
        for lo, hi in zip(self._starts, self._ends):
            names.update(range(lo, hi))
        return names

    def missing_below_highest(self) -> list[int]:
        """ADU sequences with a received successor but not yet received.

        These are the holes a sender (or its application) must decide
        about: retransmit, recompute, or ignore.  Only the gaps between
        ranges are walked, so the cost is O(ranges + missing).
        """
        # Gap k runs from the end of range k-1 (the floor for k = 0) to
        # the start of range k.
        gap_starts = chain((self.floor,), self._ends)
        return list(chain.from_iterable(map(range, gap_starts, self._starts)))

    def ack_payload(self) -> dict[str, Any]:
        """The control information an ALF ACK carries: the highest
        sequence seen, the cumulative floor (``cum``: everything below
        it is received), the received ``ranges`` above the floor, and
        the ``missing`` sequences between them."""
        return {
            "highest": self._highest,
            "cum": self.floor,
            "ranges": self.ranges(),
            "missing": self.missing_below_highest(),
        }
