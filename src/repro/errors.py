"""Exception hierarchy shared by every repro subpackage."""


class ReproError(Exception):
    """Base class for every error raised by this library."""


class MiniCError(ReproError):
    """Base class for MiniC front-end and runtime errors."""


class LexError(MiniCError):
    """Raised when the MiniC lexer meets an unexpected character."""

    def __init__(self, message, line=None, col=None):
        location = f" at {line}:{col}" if line is not None else ""
        super().__init__(f"{message}{location}")
        self.line = line
        self.col = col


class ParseError(MiniCError):
    """Raised when the MiniC parser meets an unexpected token."""

    def __init__(self, message, token=None):
        location = ""
        if token is not None and getattr(token, "line", None) is not None:
            location = f" at {token.line}:{token.col} (near {token.value!r})"
        super().__init__(f"{message}{location}")
        self.token = token


class TypeCheckError(MiniCError):
    """Raised by the MiniC type checker."""


class InterpError(MiniCError):
    """Raised by the MiniC reference interpreter on runtime faults."""


class CompileError(MiniCError):
    """Raised when compiling MiniC to Python fails."""


class SpecializationError(ReproError):
    """Raised by the Tempo specializer when a program cannot be handled."""


class VerificationError(SpecializationError):
    """Raised when the residual-code equivalence verifier rejects a
    residual codec (byte divergence from the generic codec, a bounds
    violation, uncovered output bytes, or a guard wider than the
    declared domain).  A rejected codec is never installed; callers
    fall back to the generic path."""


class XdrError(ReproError):
    """Raised on XDR encode/decode failure (buffer overflow, bad data)."""


class RpcError(ReproError):
    """Base class for RPC-level failures."""


class RpcTimeoutError(RpcError):
    """Raised when a client call exhausts its retransmission budget."""


class RpcDeadlineExceeded(RpcTimeoutError):
    """Raised when a call's *deadline budget* is exhausted.

    A deadline is an end-to-end bound shared by every stage of a call
    — encode, connect/reconnect, every retransmission window, and the
    reply wait all draw from one budget
    (:class:`~repro.rpc.resilience.Deadline`).  Subclasses
    :class:`RpcTimeoutError` so existing handlers that treat any
    client-side expiry uniformly keep working.
    """


class RpcRetryBudgetExhausted(RpcTimeoutError):
    """Raised when the client *retry budget* denies a retransmission
    or a failover rotation.

    A :class:`~repro.rpc.overload.RetryBudget` caps retries to a
    fraction of recent calls; once the bucket is dry the call fails
    fast with this typed error instead of feeding a retry storm.
    Subclasses :class:`RpcTimeoutError` so existing handlers that
    treat any client-side expiry uniformly keep working — but a
    budget denial is deliberately *not* counted as an endpoint
    failure by :class:`~repro.rpc.resilience.FailoverClient`'s
    circuit breakers.
    """


class RpcCircuitOpenError(RpcError):
    """Raised when a circuit breaker refuses a call locally.

    The endpoint's :class:`~repro.rpc.resilience.CircuitBreaker` is
    open: recent calls failed and the recovery timeout has not yet
    elapsed, so the call is rejected without touching the network.
    """


class RpcProtocolError(RpcError):
    """Raised on malformed or unexpected RPC messages."""


class RpcConnectionError(RpcProtocolError):
    """Raised when a stream transport fails mid-conversation (peer
    closed the connection, reset, broken pipe).

    Subclasses :class:`RpcProtocolError` so existing handlers that
    treat any protocol-level transport failure uniformly keep working.
    """


class FaultInjected(RpcError):
    """Raised by the fault-injection layer when an injected fault makes
    the local operation impossible to complete (e.g. a stream "drop"
    aborts the connection).  Never raised outside tests/benches that
    installed a :class:`~repro.rpc.faults.FaultPlan`."""


class RpcDeniedError(RpcError):
    """Raised when the server rejects a call (auth error, mismatch)."""


class IdlError(ReproError):
    """Raised by the rpcgen IDL front end."""


class SimulatorError(ReproError):
    """Raised by the platform simulator."""
