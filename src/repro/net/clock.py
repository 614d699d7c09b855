"""Virtual clock and event queue for the discrete-event network simulator.

All simulated components share one :class:`SimClock`.  Time is a float in
seconds and only advances when events run, which makes every test and
benchmark deterministic and independent of wall-clock speed.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Optional, Tuple

from repro.errors import ConfigurationError

EventCallback = Callable[[], None]


class ScheduledEvent:
    """Handle for a scheduled callback; allows cancellation."""

    __slots__ = ("time", "seq", "callback", "cancelled")

    def __init__(self, time: float, seq: int, callback: EventCallback) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the callback from running; safe to call twice."""
        self.cancelled = True


class SimClock:
    """Priority-queue driven virtual clock.

    Events scheduled for the same instant run in scheduling order, which
    keeps multi-endpoint interleavings reproducible.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)
        self._queue: List[Tuple[float, int, ScheduledEvent]] = []
        self._seq = itertools.count()

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    def schedule(self, delay: float, callback: EventCallback) -> ScheduledEvent:
        """Run ``callback`` ``delay`` seconds from now.

        ``delay`` must be non-negative; zero-delay events run on the next
        :meth:`step` in FIFO order.
        """
        if delay < 0:
            raise ConfigurationError(f"cannot schedule into the past: {delay!r}")
        event = ScheduledEvent(self._now + delay, next(self._seq), callback)
        heapq.heappush(self._queue, (event.time, event.seq, event))
        return event

    def schedule_at(self, when: float, callback: EventCallback) -> ScheduledEvent:
        """Run ``callback`` at absolute virtual time ``when``."""
        return self.schedule(when - self._now, callback)

    def pending(self) -> int:
        """Number of queued (possibly cancelled) events."""
        return sum(1 for __, __, ev in self._queue if not ev.cancelled)

    def step(self) -> bool:
        """Run the next event; return ``False`` when the queue is empty."""
        while self._queue:
            time, __, event = heapq.heappop(self._queue)
            if event.cancelled:
                continue
            self._now = time
            event.callback()
            return True
        return False

    def run_until(
        self,
        predicate: Callable[[], bool],
        deadline: Optional[float] = None,
    ) -> bool:
        """Run events until ``predicate()`` is true.

        Returns ``True`` when the predicate held, ``False`` when the event
        queue drained or virtual time passed ``deadline`` first.  The
        deadline is an absolute virtual time.
        """
        while True:
            if predicate():
                return True
            if deadline is not None and self._now >= deadline:
                return False
            if not self._peek_within(deadline):
                return predicate()
            self.step()

    def run_for(self, duration: float) -> None:
        """Run all events scheduled within the next ``duration`` seconds."""
        target = self._now + duration
        while self._queue:
            time, __, event = self._queue[0]
            if time > target:
                break
            self.step()
        self._now = max(self._now, target)

    def drain(self, max_events: int = 1_000_000) -> int:
        """Run events until none remain; returns the number executed.

        ``max_events`` guards against accidentally unbounded simulations.
        """
        count = 0
        while self.step():
            count += 1
            if count >= max_events:
                raise ConfigurationError(
                    f"simulation did not quiesce within {max_events} events"
                )
        return count

    def _peek_within(self, deadline: Optional[float]) -> bool:
        """True when a runnable event exists at or before ``deadline``.

        When nothing runnable remains before the deadline, virtual time
        jumps *to* the deadline, so callers waiting with a timeout always
        observe it elapse — even on an otherwise idle network.
        """
        while self._queue:
            time, __, event = self._queue[0]
            if event.cancelled:
                heapq.heappop(self._queue)
                continue
            if deadline is not None and time > deadline:
                self._now = deadline
                return False
            return True
        if deadline is not None:
            self._now = max(self._now, deadline)
        return False
