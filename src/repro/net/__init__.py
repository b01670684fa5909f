"""repro.net — networked shards: sockets and processes under the cluster.

:mod:`repro.cluster` (PR 2) already pushed every cross-shard interaction
through a serialized-bytes boundary; this package puts real transport
under that boundary so shard fan-out escapes the GIL:

* :mod:`~repro.net.frame` — the length-prefixed binary frame protocol
  (msg type + request id + codec tag, chunked streaming for large
  payloads); ``docs/wire-protocol.md`` is its prose spec.
* :mod:`~repro.net.server` — :class:`ShardServer` (one
  :class:`~repro.cluster.shard.PoolShard` behind a TCP socket),
  :class:`ShardWorkerFleet` (one forked worker **process** per shard,
  readiness handshake, graceful drain) and :class:`NetworkedCluster`
  (fleet + gateway in one context manager).
* :mod:`~repro.net.client` — :class:`RemoteShardClient`: the same
  ``fetch_heads``/``serve``/``predict`` surface as an in-process shard,
  over pooled connections, so :class:`~repro.cluster.ClusterGateway`
  runs **bit-identical** against either backend via its
  ``shard_factory``.  It is the one networked client: every request that
  crosses the wire goes through it, with one retry/failover loop over
  the replicas and the policies of :mod:`~repro.net.retry`.
"""

from .chaos import ChaosMonkey
from .client import (
    RemoteOperationUnsupported,
    RemoteShardClient,
    RemoteShardError,
)
from .frame import (
    DEFAULT_CHUNK_BYTES,
    FEATURE_MUTATIONS,
    FEATURE_TRACE,
    FLAG_END,
    Frame,
    FrameDecoder,
    FrameError,
    HEADER_BYTES,
    IDEMPOTENT_MSG_TYPES,
    MAX_PAYLOAD_BYTES,
    MUTATION_MSG_TYPES,
    MsgType,
    PROTOCOL_VERSION,
    ProtocolMismatch,
    SUPPORTED_FEATURES,
    codec_for_transport,
    encode_buffers,
    encode_frame,
    encode_message,
    negotiate_features,
    payload_digest,
    transport_for_codec,
)
from .retry import (
    BreakerOpenError,
    CircuitBreaker,
    RetryPolicy,
    ShardDrainingError,
    StaleEpochError,
)
from .server import NetworkedCluster, ShardServer, ShardWorkerFleet

__all__ = [
    "DEFAULT_CHUNK_BYTES",
    "FEATURE_MUTATIONS",
    "FEATURE_TRACE",
    "FLAG_END",
    "Frame",
    "FrameDecoder",
    "FrameError",
    "HEADER_BYTES",
    "IDEMPOTENT_MSG_TYPES",
    "MAX_PAYLOAD_BYTES",
    "MUTATION_MSG_TYPES",
    "MsgType",
    "PROTOCOL_VERSION",
    "ProtocolMismatch",
    "SUPPORTED_FEATURES",
    "codec_for_transport",
    "encode_buffers",
    "encode_frame",
    "encode_message",
    "negotiate_features",
    "payload_digest",
    "transport_for_codec",
    "BreakerOpenError",
    "ChaosMonkey",
    "CircuitBreaker",
    "RetryPolicy",
    "ShardDrainingError",
    "StaleEpochError",
    "RemoteOperationUnsupported",
    "RemoteShardClient",
    "RemoteShardError",
    "NetworkedCluster",
    "ShardServer",
    "ShardWorkerFleet",
]
