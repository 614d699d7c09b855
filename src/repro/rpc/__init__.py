"""From-scratch RPC stack (the paper's "Communication Level").

Replaces the prototype's Sun ONC RPC with a compatible-in-spirit layer:

* :mod:`repro.rpc.xdr` — XDR-style binary marshalling plus a tagged codec
  for dynamic (SID-driven) marshalling of arbitrary values,
* :mod:`repro.rpc.message` — CALL/REPLY message format with transaction ids,
* :mod:`repro.rpc.transport` — the two transports (simulated network, TCP),
* :mod:`repro.rpc.server` / :mod:`repro.rpc.client` — dispatch with an
  at-most-once duplicate-request cache, retrying client handles,
* :mod:`repro.rpc.portmap` — the portmapper on well-known port 111,
* :mod:`repro.rpc.multicast` — multicast/broadcast calls with reply
  gathering (the extended communication functions of Fig. 6),
* :mod:`repro.rpc.txn` — transactional RPC (two-phase commit coordinator),
  the "Transactional RPC" box of Fig. 6,
* :mod:`repro.rpc.resilience` — client-side failure recovery: decorrelated
  backoff, ranked-offer failover, per-endpoint circuit breakers,
* :mod:`repro.rpc.codec` — compiled per-signature wire codecs with
  transparent fallback to the tagged dynamic-marshalling path.
"""

from repro.rpc.client import RpcClient
from repro.rpc.codec import CODECS, CodecFallback, CodecRegistry, CompiledCodec
from repro.rpc.errors import (
    DeadlineExceeded,
    GarbageArguments,
    ProcedureUnavailable,
    ProgramUnavailable,
    RemoteFault,
    RpcError,
    RpcTimeout,
    ServerShedding,
)
from repro.rpc.message import (
    ReplyStatus,
    RpcCall,
    RpcReply,
    decode_messages,
    encode_batch,
)
from repro.rpc.multicast import MulticastCaller
from repro.rpc.portmap import PORTMAP_PORT, PORTMAP_PROGRAM, Portmapper, portmap_lookup
from repro.rpc.resilience import (
    BackoffPolicy,
    BreakerPolicy,
    CircuitBreaker,
    CircuitOpen,
    ResilientCaller,
)
from repro.rpc.server import (
    AdmissionPolicy,
    AdmissionQueue,
    RpcProgram,
    RpcServer,
)
from repro.rpc.transport import SimTransport, TcpTransport, Transport
from repro.rpc.txn import TransactionCoordinator, TransactionParticipant, TxnOutcome
from repro.rpc.xdr import decode_value, encode_value

__all__ = [
    "AdmissionPolicy",
    "AdmissionQueue",
    "BackoffPolicy",
    "BreakerPolicy",
    "CODECS",
    "CircuitBreaker",
    "CircuitOpen",
    "CodecFallback",
    "CodecRegistry",
    "CompiledCodec",
    "DeadlineExceeded",
    "GarbageArguments",
    "MulticastCaller",
    "PORTMAP_PORT",
    "PORTMAP_PROGRAM",
    "Portmapper",
    "ProcedureUnavailable",
    "ProgramUnavailable",
    "RemoteFault",
    "ReplyStatus",
    "ResilientCaller",
    "RpcCall",
    "RpcClient",
    "RpcError",
    "RpcProgram",
    "RpcReply",
    "RpcServer",
    "RpcTimeout",
    "ServerShedding",
    "SimTransport",
    "TcpTransport",
    "Transport",
    "TransactionCoordinator",
    "TransactionParticipant",
    "TxnOutcome",
    "decode_messages",
    "decode_value",
    "encode_batch",
    "encode_value",
    "portmap_lookup",
]
