"""Unit tests for the fault-tolerance policy layer (``repro.net.retry``).

Pure state-machine and policy tests — no sockets, no processes.  The
circuit breaker runs against an injected fake clock so open/half-open
transitions are deterministic.
"""

from __future__ import annotations

import random

import pytest

from repro.net import (
    BreakerOpenError,
    CircuitBreaker,
    IDEMPOTENT_MSG_TYPES,
    MsgType,
    RetryPolicy,
    ShardDrainingError,
)
from repro.net.frame import FrameError
from repro.net.retry import (
    BASE_DELAY,
    DEFAULT_OP_TIMEOUTS,
    DEFAULT_TIMEOUT,
    RETRYABLE_EXCEPTIONS,
)


# ----------------------------------------------------------------------
# RetryPolicy
# ----------------------------------------------------------------------
def test_idempotent_msg_types_cover_reads_not_mutations():
    assert MsgType.FETCH_HEADS in IDEMPOTENT_MSG_TYPES
    assert MsgType.SERVE in IDEMPOTENT_MSG_TYPES
    assert MsgType.PREDICT in IDEMPOTENT_MSG_TYPES
    assert MsgType.STATS in IDEMPOTENT_MSG_TYPES
    assert MsgType.PING in IDEMPOTENT_MSG_TYPES
    assert MsgType.DRAIN not in IDEMPOTENT_MSG_TYPES
    assert MsgType.HELLO not in IDEMPOTENT_MSG_TYPES


def test_attempts_only_for_idempotent_ops():
    policy = RetryPolicy(max_attempts=4)
    assert policy.attempts_for(MsgType.SERVE) == 4
    assert policy.attempts_for(MsgType.FETCH_HEADS) == 4
    assert policy.attempts_for(MsgType.DRAIN) == 1
    assert policy.attempts_for(MsgType.HELLO) == 1


def test_per_op_timeouts_replace_the_single_socket_timeout():
    policy = RetryPolicy()
    assert policy.timeout_for(MsgType.PING) == DEFAULT_OP_TIMEOUTS[MsgType.PING]
    assert policy.timeout_for(MsgType.PING) < policy.timeout_for(MsgType.SERVE)
    # unknown types fall back to the default deadline
    assert policy.timeout_for(MsgType.HELLO) == DEFAULT_TIMEOUT


@pytest.mark.parametrize(
    "error", [ConnectionError("x"), TimeoutError("x"), OSError("x"), ShardDrainingError("x")]
)
def test_transport_errors_are_retryable_on_idempotent_ops(error):
    policy = RetryPolicy()
    assert policy.retryable(MsgType.SERVE, error)
    # ...but never on a non-idempotent op
    assert not policy.retryable(MsgType.DRAIN, error)


@pytest.mark.parametrize(
    "error", [KeyError("x"), ValueError("x"), RuntimeError("x"), FrameError("x")]
)
def test_application_and_framing_errors_are_never_retryable(error):
    policy = RetryPolicy()
    assert not policy.retryable(MsgType.SERVE, error)


def test_frame_error_excluded_despite_being_a_value_error():
    # FrameError subclasses ValueError, not OSError, so it was never in
    # RETRYABLE_EXCEPTIONS — but ShardDrainingError subclasses RuntimeError
    # and IS retryable; the policy must distinguish them
    assert issubclass(ShardDrainingError, RuntimeError)
    assert isinstance(ShardDrainingError("x"), RETRYABLE_EXCEPTIONS)
    assert not isinstance(FrameError("x"), RETRYABLE_EXCEPTIONS)


def test_backoff_is_bounded_exponential_with_full_jitter():
    policy = RetryPolicy(max_delay=3 * BASE_DELAY)
    rng = random.Random(7)
    for attempt, ceiling in ((1, 1), (2, 2), (3, 3), (4, 3), (10, 3)):
        draws = [policy.backoff(attempt, rng) for _ in range(50)]
        assert all(0.0 <= d <= ceiling * BASE_DELAY for d in draws)
    # full jitter: draws actually vary (not a fixed schedule)
    assert len({round(policy.backoff(3, rng), 9) for _ in range(20)}) > 1
    assert policy.backoff(0) == 0.0


def test_breaker_open_error_is_a_connection_error():
    assert issubclass(BreakerOpenError, ConnectionError)


# ----------------------------------------------------------------------
# CircuitBreaker (fake clock)
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_breaker_opens_after_consecutive_failures():
    clock = FakeClock()
    breaker = CircuitBreaker(failure_threshold=3, cooldown=5.0, clock=clock)
    assert breaker.state == CircuitBreaker.CLOSED
    for _ in range(2):
        breaker.record_failure()
    assert breaker.state == CircuitBreaker.CLOSED  # not yet
    breaker.record_failure()
    assert breaker.state == CircuitBreaker.OPEN
    assert not breaker.allow()


def test_success_resets_the_consecutive_count():
    clock = FakeClock()
    breaker = CircuitBreaker(failure_threshold=3, clock=clock)
    breaker.record_failure()
    breaker.record_failure()
    breaker.record_success()
    breaker.record_failure()
    breaker.record_failure()
    assert breaker.state == CircuitBreaker.CLOSED


def test_half_open_admits_exactly_one_probe():
    clock = FakeClock()
    breaker = CircuitBreaker(failure_threshold=1, cooldown=5.0, clock=clock)
    breaker.record_failure()
    assert breaker.state == CircuitBreaker.OPEN
    assert not breaker.allow()
    clock.now = 5.0  # cooldown elapsed
    assert breaker.state == CircuitBreaker.HALF_OPEN
    assert breaker.allow()  # the probe
    assert not breaker.allow()  # second caller waits for the probe outcome


def test_half_open_probe_success_closes():
    clock = FakeClock()
    breaker = CircuitBreaker(failure_threshold=1, cooldown=1.0, clock=clock)
    breaker.record_failure()
    clock.now = 1.0
    assert breaker.allow()
    breaker.record_success()
    assert breaker.state == CircuitBreaker.CLOSED
    assert breaker.allow()


def test_half_open_probe_failure_reopens_for_another_cooldown():
    clock = FakeClock()
    breaker = CircuitBreaker(failure_threshold=1, cooldown=1.0, clock=clock)
    breaker.record_failure()
    clock.now = 1.0
    assert breaker.allow()
    breaker.record_failure()
    assert breaker.state == CircuitBreaker.OPEN
    assert not breaker.allow()
    clock.now = 2.0  # second cooldown elapsed, probe admitted again
    assert breaker.allow()


def test_reset_force_closes():
    clock = FakeClock()
    breaker = CircuitBreaker(failure_threshold=1, clock=clock)
    breaker.record_failure()
    breaker.reset()
    assert breaker.state == CircuitBreaker.CLOSED


def test_breaker_rejects_bad_threshold():
    with pytest.raises(ValueError):
        CircuitBreaker(failure_threshold=0)


# ----------------------------------------------------------------------
# Mutation frames: dedup-retryable, never failed over, fenced
# ----------------------------------------------------------------------
def test_mutation_msg_types_are_not_idempotent():
    """Mutations must never qualify for failover (IDEMPOTENT set);
    their retry budget comes from mutation-id dedup instead."""
    from repro.net import MUTATION_MSG_TYPES

    assert MUTATION_MSG_TYPES == frozenset(
        {MsgType.INSTALL_HEADS, MsgType.DROP_HEADS, MsgType.REFRESH_LIBRARY}
    )
    assert not (MUTATION_MSG_TYPES & IDEMPOTENT_MSG_TYPES)


def test_mutations_get_full_retry_attempts_via_dedup():
    policy = RetryPolicy(max_attempts=5)
    assert policy.attempts_for(MsgType.INSTALL_HEADS) == 5
    assert policy.attempts_for(MsgType.DROP_HEADS) == 5
    assert policy.attempts_for(MsgType.REFRESH_LIBRARY) == 5
    # non-idempotent, non-mutation control frames still get exactly one
    assert policy.attempts_for(MsgType.DRAIN) == 1


@pytest.mark.parametrize(
    "error",
    [ConnectionError("x"), TimeoutError("x"), OSError("x"), ShardDrainingError("x")],
)
def test_transport_errors_are_retryable_on_mutations(error):
    policy = RetryPolicy()
    assert policy.retryable(MsgType.INSTALL_HEADS, error)
    assert policy.retryable(MsgType.DROP_HEADS, error)


def test_stale_epoch_is_a_fencing_rejection_never_retryable():
    from repro.net import MUTATION_MSG_TYPES, StaleEpochError

    policy = RetryPolicy()
    assert issubclass(StaleEpochError, RuntimeError)
    for msg_type in MUTATION_MSG_TYPES:
        assert not policy.retryable(msg_type, StaleEpochError("fenced out"))


def test_permission_error_not_retryable_despite_oserror_lineage():
    # PermissionError subclasses OSError — which IS in RETRYABLE_EXCEPTIONS —
    # but a read-only rejection can never succeed by re-sending the frame
    policy = RetryPolicy()
    assert isinstance(PermissionError("read-only"), RETRYABLE_EXCEPTIONS)
    assert not policy.retryable(MsgType.INSTALL_HEADS, PermissionError("x"))
    assert not policy.retryable(MsgType.SERVE, PermissionError("x"))


def test_mutation_op_timeouts_are_tabled():
    policy = RetryPolicy()
    for msg_type in (MsgType.INSTALL_HEADS, MsgType.DROP_HEADS, MsgType.REFRESH_LIBRARY):
        assert policy.timeout_for(msg_type) == DEFAULT_OP_TIMEOUTS[msg_type]
    # a library push ships the whole trunk: it gets the roomiest deadline
    assert (
        DEFAULT_OP_TIMEOUTS[MsgType.REFRESH_LIBRARY]
        >= DEFAULT_OP_TIMEOUTS[MsgType.INSTALL_HEADS]
        > DEFAULT_OP_TIMEOUTS[MsgType.DROP_HEADS]
    )
