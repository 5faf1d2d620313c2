"""A minimal, deterministic discrete-event loop.

Events are callbacks scheduled at absolute times; ties are broken by a
monotonically increasing sequence number, so runs are exactly
reproducible.  Time is a float in seconds.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable

from repro.errors import SimulationError


class Event:
    """A scheduled callback, ordered by ``(time, sequence)`` for the heap.

    A hand-written ``__lt__`` (the only comparison ``heapq`` makes)
    compares the two ordering fields directly; a generated dataclass
    ordering builds two tuples per comparison, and the heap makes
    several comparisons per push and pop.
    """

    __slots__ = ("time", "sequence", "callback", "args", "cancelled", "_loop")

    def __init__(
        self,
        time: float,
        sequence: int,
        callback: Callable[..., None],
        args: tuple[Any, ...] = (),
        loop: "EventLoop | None" = None,
    ) -> None:
        self.time = time
        self.sequence = sequence
        self.callback = callback
        self.args = args
        self.cancelled = False
        self._loop = loop

    def __lt__(self, other: "Event") -> bool:
        if self.time != other.time:
            return self.time < other.time
        return self.sequence < other.sequence

    def __repr__(self) -> str:
        return (
            f"Event(time={self.time!r}, sequence={self.sequence!r}, "
            f"callback={self.callback!r}, cancelled={self.cancelled!r})"
        )

    def cancel(self) -> None:
        """Prevent the event from firing.

        The entry is lazily discarded: it stays in the heap until it
        either surfaces or the owning loop compacts (which it does once
        cancelled entries dominate the queue), so retransmit-timer
        churn cannot grow the heap without bound.
        """
        if self.cancelled:
            return
        self.cancelled = True
        if self._loop is not None:
            self._loop._on_cancel()


class EventLoop:
    """Priority-queue event loop with deterministic tie-breaking."""

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: list[Event] = []
        self._sequence = itertools.count()
        self._cancelled = 0
        self.events_run = 0
        self.compactions = 0

    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay {delay})")
        event = Event(self.now + delay, next(self._sequence), callback, args, self)
        heapq.heappush(self._heap, event)
        return event

    def _on_cancel(self) -> None:
        self._cancelled += 1
        # Compact when dead entries outnumber live ones: O(n) rebuild,
        # amortized O(1) per cancellation.
        if self._cancelled > len(self._heap) // 2 and len(self._heap) > 8:
            self._compact()

    def _compact(self) -> None:
        self._heap = [event for event in self._heap if not event.cancelled]
        heapq.heapify(self._heap)
        self._cancelled = 0
        self.compactions += 1

    def schedule_at(self, time: float, callback: Callable[..., None], *args: Any) -> Event:
        """Schedule ``callback(*args)`` at absolute ``time``."""
        return self.schedule(time - self.now, callback, *args)

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Process events in time order.

        Args:
            until: stop once the next event would be later than this
                time (the clock advances to ``until``).  None runs to
                quiescence.
            max_events: safety valve against runaway simulations.
        """
        processed = 0
        while self._heap:
            if max_events is not None and processed >= max_events:
                raise SimulationError(f"exceeded max_events={max_events}")
            event = self._heap[0]
            if until is not None and event.time > until:
                break
            heapq.heappop(self._heap)
            if event.cancelled:
                self._cancelled -= 1
                continue
            if event.time < self.now:
                raise SimulationError("event heap corrupted: time went backwards")
            self.now = event.time
            event.callback(*event.args)
            self.events_run += 1
            processed += 1
        if until is not None and self.now < until:
            self.now = until

    def next_event_time(self) -> float | None:
        """Time of the earliest live event, or None when idle.

        Cancelled heap heads are discarded on the way, so the answer is
        exact.  This is what lets a
        :class:`~repro.net.shard.SerialShardScheduler` merge several
        loops into one global time order without running any of them.
        """
        while self._heap and self._heap[0].cancelled:
            heapq.heappop(self._heap)
            self._cancelled -= 1
        return self._heap[0].time if self._heap else None

    def step(self) -> bool:
        """Run exactly one (live) event; returns False when idle.

        The single-event counterpart of :meth:`run`, used by the
        shard scheduler to interleave several loops deterministically.
        """
        while self._heap:
            event = heapq.heappop(self._heap)
            if event.cancelled:
                self._cancelled -= 1
                continue
            if event.time < self.now:
                raise SimulationError("event heap corrupted: time went backwards")
            self.now = event.time
            event.callback(*event.args)
            self.events_run += 1
            return True
        return False

    @property
    def pending(self) -> int:
        """Events still queued (including cancelled ones)."""
        return len(self._heap)
