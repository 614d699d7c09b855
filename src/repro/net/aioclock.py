"""Event-loop-driven virtual time: asyncio on a :class:`SimClock`.

The historical stack advances the virtual clock from whichever *thread*
is blocked in ``transport.wait`` — which forces one call at a time and
made federated fan-out serial on simulated stacks.  A
:class:`SimEventLoop` inverts that: it is a real asyncio event loop
whose idea of time **is** the shared :class:`~repro.net.clock.SimClock`.
Whenever every task is blocked, the loop — instead of sleeping on the OS
selector — either runs the next due simulation event (a datagram
delivery, a scheduled fault) or jumps the virtual clock forward to its
own next timer.  Thousands of coroutines can therefore be in flight at
once, all sharing one deterministically-advancing clock:

* ``await asyncio.sleep(1.0)`` completes after one *virtual* second, in
  microseconds of wall time;
* ``asyncio.wait_for`` / ``loop.call_later`` deadlines fire in virtual
  time, so RPC retransmission pacing and cancellation-on-deadline behave
  identically to the wall-clock stack;
* simulation events and loop timers interleave in strict time order
  (ties: the simulation event runs first), one event per loop cycle, so
  a run is reproducible for a given seed — the chaos fingerprints hold.

The integration is a custom selector, not a patched loop: asyncio's
``BaseEventLoop._run_once`` computes "how long may I sleep" and hands it
to ``selector.select(timeout)``; :class:`_SimSelector` treats that span
as *virtual* seconds to advance instead of wall seconds to sleep.  Real
file descriptors (the loop's self-pipe, any sockets a test sneaks in)
are still polled, just without blocking.
"""

from __future__ import annotations

import asyncio
import selectors
import weakref
from typing import Any, Awaitable, List, Optional, Tuple, TypeVar

from repro.net.clock import SimClock

T = TypeVar("T")

#: When the loop has nothing scheduled at all (no timers, no ready
#: callbacks, no simulation events) it must still poll real FDs so
#: thread-safe wakeups can arrive; this bounds that real-time nap.
_IDLE_POLL_SECONDS = 0.02


class _SimSelector(selectors.BaseSelector):
    """A selector that converts "sleep time" into virtual-clock advance.

    Registration calls delegate to a real selector (the event loop
    registers its self-pipe at startup), but :meth:`select` never blocks
    on it while the simulation still has work: real FDs are polled with
    a zero timeout, then at most one simulation event runs — or, when
    none is due, the virtual clock jumps to the loop's next timer.
    """

    def __init__(self, clock: SimClock) -> None:
        self._clock = clock
        self._real = selectors.DefaultSelector()

    # -- delegation --------------------------------------------------------

    def register(self, fileobj, events, data=None):
        return self._real.register(fileobj, events, data)

    def unregister(self, fileobj):
        return self._real.unregister(fileobj)

    def modify(self, fileobj, events, data=None):
        return self._real.modify(fileobj, events, data)

    def get_map(self):
        return self._real.get_map()

    def get_key(self, fileobj):
        return self._real.get_key(fileobj)

    def close(self) -> None:
        self._real.close()

    # -- the virtual-time select ------------------------------------------

    def select(self, timeout: Optional[float] = None) -> List[Tuple[Any, int]]:
        ready = self._real.select(0)
        if ready:
            return ready
        if timeout is not None and timeout <= 0:
            # The loop has ready callbacks queued; do not advance time.
            return []
        if timeout is None:
            # No loop timers and nothing ready: the only possible
            # progress is a simulation event.  If even the simulation is
            # idle, nap briefly on real FDs so call_soon_threadsafe (and
            # run_in_executor completions) can still wake us.
            if not self._clock.advance_toward(None):
                return self._real.select(_IDLE_POLL_SECONDS)
            return []
        self._clock.advance_toward(self._clock.now + timeout)
        return []


class SimEventLoop(asyncio.SelectorEventLoop):
    """An asyncio event loop that runs on a :class:`SimClock`.

    ``loop.time()`` *is* the virtual clock, so every asyncio timing
    primitive — ``sleep``, ``wait_for``, ``call_later`` — operates in
    virtual seconds.  Use :func:`run` (or ``loop.run_until_complete``)
    to drive a coroutine to completion; wall-clock elapsed is bounded by
    the work done, not the virtual time simulated.
    """

    def __init__(self, clock: Optional[SimClock] = None) -> None:
        self.sim_clock = clock if clock is not None else SimClock()
        super().__init__(selector=_SimSelector(self.sim_clock))
        # Virtual time is exact: do not let the wall-clock resolution
        # fudge factor delay timer callbacks past their due time.
        self._clock_resolution = 1e-9

    def time(self) -> float:
        return self.sim_clock.now


#: One loop per clock, so every component of one simulated world — sync
#: callers driving ``run_until_complete``, heartbeats creating tasks —
#: schedules onto the same ready queue.  Weak keys: a dropped network
#: drops its loop; the finalizer closes the loop's real FDs.
_loops: "weakref.WeakKeyDictionary[SimClock, SimEventLoop]" = (
    weakref.WeakKeyDictionary()
)


def loop_for(clock: SimClock) -> SimEventLoop:
    """The shared :class:`SimEventLoop` driving ``clock`` (created once)."""
    loop = _loops.get(clock)
    if loop is None:
        loop = SimEventLoop(clock)
        _loops[clock] = loop
        weakref.finalize(clock, _close_quietly, loop)
    return loop


def _close_quietly(loop: SimEventLoop) -> None:
    try:
        if not loop.is_running():
            loop.close()
    except Exception:  # noqa: BLE001 - finalizers must never raise
        pass


def run(coro: Awaitable[T], clock: Optional[SimClock] = None) -> T:
    """Run ``coro`` to completion on the clock's shared loop.

    The virtual-time analogue of :func:`asyncio.run` — but the loop (and
    the clock's accumulated state) survives, so successive calls continue
    the same simulated world.  Must not be called while that loop is
    already running (e.g. from inside one of its own callbacks).
    """
    loop = loop_for(clock) if clock is not None else SimEventLoop()
    return loop.run_until_complete(coro)
