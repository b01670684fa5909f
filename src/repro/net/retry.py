"""Fault-tolerance policy objects of the networked shard client.

Two small, independently testable pieces sit between a shard client
and its replica endpoints:

* :class:`RetryPolicy` — bounded attempts with exponential backoff and
  full jitter, plus a **per-operation timeout table** replacing the old
  single 120 s socket timeout (a PING should never wait two minutes; a
  cold cross-shard SERVE legitimately might).  The policy is
  idempotency-aware: the message types in
  :data:`~repro.net.frame.IDEMPOTENT_MSG_TYPES` are retried and failed
  over freely; :data:`~repro.net.frame.MUTATION_MSG_TYPES` are retried
  (their mutation-id dedup makes duplicates safe) but never failed over
  mid-flight; everything else gets exactly one delivery
  attempt.  A :class:`StaleEpochError` is a *fencing* rejection — the
  frame lost a topology race — and is deliberately not retryable:
  re-sending the same stale epoch can never succeed.
* :class:`CircuitBreaker` — per-replica closed → open → half-open state
  machine.  After ``failure_threshold`` *consecutive* failures the
  breaker opens and the replica stops soaking requests; after
  ``cooldown`` seconds one half-open probe is admitted, and its outcome
  either closes the breaker or re-opens it for another cooldown.

Everything here is transport-agnostic policy and state;
:class:`~repro.net.client.RemoteShardClient` drives it with threads.  See
``docs/fault-tolerance.md`` for the end-to-end semantics.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from typing import Mapping, Optional, Tuple

from .frame import IDEMPOTENT_MSG_TYPES, MUTATION_MSG_TYPES, MsgType

__all__ = [
    "BreakerOpenError",
    "ShardDrainingError",
    "StaleEpochError",
    "RETRYABLE_EXCEPTIONS",
    "DEFAULT_OP_TIMEOUTS",
    "RetryPolicy",
    "CircuitBreaker",
]


class ShardDrainingError(RuntimeError):
    """The replica is draining and refused a new request.

    Crosses the wire as a typed ERROR so clients can distinguish "this
    replica is going away, fail over" from a genuine server-side
    failure.  Subclasses :class:`RuntimeError` for compatibility with
    pre-replica clients, which mapped the drain rejection to a plain
    ``RuntimeError``.
    """


class BreakerOpenError(ConnectionError):
    """Every candidate replica's circuit breaker is open.

    Subclasses :class:`ConnectionError` because that is what it means:
    nothing is reachable right now.  Carries no partial result.
    """


class StaleEpochError(RuntimeError):
    """A mutation frame carried an epoch older than the worker's.

    The topology-epoch fence: the worker has already applied a newer
    placement, so this frame belongs to a superseded plan.  Crosses the
    wire as a typed ERROR.  Never retryable — the epoch in the frame
    cannot grow by re-sending it; the *sender* must re-plan.
    """


#: Errors that mean "the *transport* failed" — the request may never have
#: reached the shard, so re-issuing an idempotent operation is safe.
#: Typed application errors (KeyError and friends) and framing errors
#: are deliberately absent: those prove the request executed (or the
#: stream is corrupt), and retrying would duplicate work or loop.
RETRYABLE_EXCEPTIONS: Tuple[type, ...] = (
    ConnectionError,
    TimeoutError,
    OSError,
    ShardDrainingError,
)

#: Per-operation deadlines (seconds).  Control traffic is fast or dead;
#: payload-bearing operations get room for cold consolidation + transfer.
DEFAULT_OP_TIMEOUTS: Mapping[int, float] = {
    MsgType.PING: 5.0,
    MsgType.STATS: 10.0,
    MsgType.FETCH_HEADS: 60.0,
    MsgType.SERVE: 120.0,
    MsgType.PREDICT: 120.0,
    MsgType.DRAIN: 30.0,
    MsgType.INSTALL_HEADS: 60.0,
    MsgType.DROP_HEADS: 30.0,
    MsgType.REFRESH_LIBRARY: 120.0,
}
#: Deadline (seconds) of a message type the table does not name.
DEFAULT_TIMEOUT = 30.0
#: Backoff ceiling (seconds) before the first retry; it doubles per retry.
BASE_DELAY = 0.05


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff + full jitter.

    ``max_attempts`` counts total tries (1 = no retry).  Sleep before
    attempt ``k`` (k >= 1) is uniformly drawn from
    ``[0, min(BASE_DELAY * 2**(k-1), max_delay)]`` — full jitter, so a
    fleet of clients hammered by the same dead replica doesn't
    resynchronize into retry waves.
    """

    max_attempts: int = 3
    max_delay: float = 2.0

    def timeout_for(self, msg_type: int) -> float:
        """The deadline for one attempt of ``msg_type``: its
        :data:`DEFAULT_OP_TIMEOUTS` entry, else :data:`DEFAULT_TIMEOUT`."""
        return DEFAULT_OP_TIMEOUTS.get(msg_type, DEFAULT_TIMEOUT)

    def attempts_for(self, msg_type: int) -> int:
        """Total delivery attempts allowed: 1 unless idempotent or a
        dedup-protected mutation."""
        if msg_type in IDEMPOTENT_MSG_TYPES or msg_type in MUTATION_MSG_TYPES:
            return max(1, int(self.max_attempts))
        return 1

    def retryable(self, msg_type: int, error: BaseException) -> bool:
        """Whether ``error`` on ``msg_type`` permits another attempt.

        Mutations retry on transport failures like idempotent reads do —
        the worker's mutation-id journal turns a duplicate delivery into
        an acknowledged replay — but a :class:`StaleEpochError` proves
        the frame is fenced out and can never succeed.
        """
        if (
            msg_type not in IDEMPOTENT_MSG_TYPES
            and msg_type not in MUTATION_MSG_TYPES
        ):
            return False
        from .frame import FrameError  # framing is never retryable

        # PermissionError subclasses OSError but proves the peer is
        # read-only (no auth token): re-sending can never succeed
        if isinstance(error, (FrameError, StaleEpochError, PermissionError)):
            return False
        return isinstance(error, RETRYABLE_EXCEPTIONS)

    def backoff(self, attempt: int, rng: Optional[random.Random] = None) -> float:
        """Sleep before retry number ``attempt`` (1-based); full jitter."""
        if attempt < 1:
            return 0.0
        ceiling = min(BASE_DELAY * (2.0 ** (attempt - 1)), self.max_delay)
        draw = (rng or random).uniform(0.0, ceiling)
        return draw


class CircuitBreaker:
    """Per-replica breaker: open after K consecutive failures, probe later.

    States:

    * **closed** — requests flow; consecutive failures are counted.
    * **open** — :meth:`allow` answers ``False`` until ``cooldown``
      seconds have passed since the breaker opened.
    * **half-open** — exactly one probe request is admitted; its
      :meth:`record_success` closes the breaker, its
      :meth:`record_failure` re-opens it for another cooldown.

    Thread-safe; the clock is injectable for tests.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    def __init__(
        self,
        failure_threshold: int = 5,
        cooldown: float = 5.0,
        clock=time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        self.failure_threshold = failure_threshold
        self.cooldown = cooldown
        self._clock = clock
        self._lock = threading.Lock()
        self._state = self.CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probe_inflight = False

    @property
    def state(self) -> str:
        with self._lock:
            return self._effective_state()

    def _effective_state(self) -> str:
        if self._state == self.OPEN and (
            self._clock() - self._opened_at >= self.cooldown
        ):
            return self.HALF_OPEN
        return self._state

    def allow(self) -> bool:
        """Whether a request may be sent to this replica right now."""
        with self._lock:
            state = self._effective_state()
            if state == self.CLOSED:
                return True
            if state == self.HALF_OPEN:
                if self._probe_inflight:
                    return False
                self._state = self.HALF_OPEN
                self._probe_inflight = True
                return True
            return False

    def record_success(self) -> None:
        with self._lock:
            self._state = self.CLOSED
            self._consecutive_failures = 0
            self._probe_inflight = False

    def record_failure(self) -> None:
        with self._lock:
            self._probe_inflight = False
            if self._state == self.HALF_OPEN:
                self._state = self.OPEN
                self._opened_at = self._clock()
                return
            self._consecutive_failures += 1
            if self._consecutive_failures >= self.failure_threshold:
                self._state = self.OPEN
                self._opened_at = self._clock()

    def reset(self) -> None:
        """Force-close (e.g. after the replica was respawned)."""
        self.record_success()
