"""RPC error hierarchy."""

from __future__ import annotations

from typing import NoReturn

from repro.errors import CommunicationError, ProtocolError


class RpcError(CommunicationError):
    """Base class for RPC-level failures."""


class RpcTimeout(RpcError):
    """No reply arrived within the client's deadline (after retries)."""


class DeadlineExceeded(RpcTimeout):
    """The call's :class:`~repro.context.CallContext` deadline expired.

    Raised client-side when the remaining budget hits zero before (or
    between) attempts, and surfaced for the server-side rejection carried
    by ``ReplyStatus.DEADLINE_EXCEEDED``.  Subclasses :class:`RpcTimeout`
    so pre-context code catching timeouts keeps working.
    """


class ServerShedding(RpcError):
    """The server shed the call under load (``ReplyStatus.SHED``).

    The call's deadline budget was still live when the server declined
    it — the server judged (from its service-time histogram) that the
    work could not finish inside the remaining budget, or its admission
    queue was full.  Deliberately *not* a :class:`RpcTimeout`: the right
    reaction is to retry immediately against an alternate offer, not to
    retransmit into the overloaded server or treat the peer as dead.
    """

    retryable = True


class ProgramUnavailable(RpcError):
    """The destination server does not host the requested program."""


class ProcedureUnavailable(RpcError):
    """The program exists but the procedure number is not registered."""


class GarbageArguments(RpcError):
    """The server could not decode the call arguments."""


class RemoteFault(RpcError):
    """The remote procedure raised; carries the remote error text."""

    def __init__(self, kind: str, detail: str) -> None:
        super().__init__(f"{kind}: {detail}")
        self.kind = kind
        self.detail = detail

    def reraise_as(self, base: type) -> NoReturn:
        """Raise the subclass of ``base`` that ``kind`` names (the error the
        remote side raised), else this fault itself."""
        pending = [base]
        while pending:
            error = pending.pop()
            if error.__name__ == self.kind:
                raise error(self.detail) from self
            pending.extend(error.__subclasses__())
        raise self


class XdrError(ProtocolError):
    """Malformed XDR data or an unencodable value."""


class XdrTruncated(XdrError):
    """XDR data ended before the value did, or promises more elements
    than it has bytes; the message names offset, bytes wanted and bytes
    there.  "Incomplete" as opposed to "wrong" — still an
    :class:`XdrError` to every caller that does not care.
    """
