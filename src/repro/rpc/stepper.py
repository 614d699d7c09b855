"""The blocking driver of the one-body, two-drivers protocol code.

Every concurrency-bearing routine of the RPC stack (client attempt loop,
batch collection, failover rounds, bind rounds, link forwards) is written
once, as a coroutine whose few flavour-specific statements sit behind
seam methods.  The async façades ``await`` that body on an event loop;
the blocking façades hand it to :func:`step`.  On the blocking flavour
every seam blocks in ``Transport.wait`` and returns without ever
suspending, so one ``send(None)`` runs the body to completion.  The RPC
server steps a handler result that is awaitable the same way.
"""

from __future__ import annotations

from typing import Any, Coroutine


class BodySuspended(RuntimeError):
    """A body driven by a blocking façade awaited something for real.

    Only an asyncio primitive (a future, a sleep) can do that, and none
    may be reachable from a blocking façade: it is a wiring error — an
    ``async def`` handler on a blocking server, an async client behind a
    blocking caller — reported by naming what was awaited.
    """


def step(body: Coroutine[Any, Any, Any]) -> Any:
    """Run ``body`` to completion on the calling thread and return its value.

    Exceptions raised by the body propagate unchanged.  If the body
    suspends it is closed (its ``finally`` blocks run) and
    :class:`BodySuspended` is raised.
    """
    try:
        awaited = body.send(None)
    except StopIteration as done:
        return done.value
    body.close()
    raise BodySuspended(
        f"{getattr(body, '__qualname__', body)} suspended on {awaited!r} "
        f"under a blocking façade"
    )
