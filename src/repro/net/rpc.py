"""RPC transport between the MedicalServer and the DX executive (§5.2).

The paper's processes communicate by RPC across a router between a 16 Mbps
Token Ring and a 10 Mbps Ethernet; Table 3 reports the number of messages
and the elapsed network time per query.  :class:`RpcChannel` models the
part that is structural — payloads are carried in fixed-size chunks, and
every query exchanges a few control messages — and leaves elapsed time to
the cost model so counts stay exact and deterministic.
"""

from __future__ import annotations

import threading
from typing import NamedTuple

from repro.errors import ValidationError
from repro.obs import metrics, recorder

__all__ = ["RpcChannel", "TransferRecord"]


class TransferRecord(NamedTuple):
    """Accounting for one payload shipped over the channel."""

    payload_bytes: int
    data_messages: int
    control_messages: int

    @property
    def messages(self) -> int:
        """Total messages exchanged (data plus control)."""
        return self.data_messages + self.control_messages


class RpcChannel:
    """Chunks payloads into messages and counts traffic."""

    def __init__(self, chunk_size: int = 1024, control_messages_per_call: int = 4):
        if chunk_size <= 0:
            raise ValidationError("chunk size must be positive")
        self.chunk_size = chunk_size
        self.control_messages_per_call = control_messages_per_call
        self.total_bytes = 0
        self.total_messages = 0
        self.total_calls = 0
        # Sessions served concurrently share one channel; the traffic
        # counters stay exact under threads.
        self._lock = threading.Lock()

    def send(self, payload: bytes | int) -> TransferRecord:
        """Ship one result payload (bytes, or just its length) to the peer."""
        nbytes = payload if isinstance(payload, int) else len(payload)
        if nbytes < 0:
            raise ValidationError("payload size must be non-negative")
        was = recorder.enter("net")
        try:
            record = TransferRecord(
                nbytes, -(-nbytes // self.chunk_size), self.control_messages_per_call)
            messages = record.messages
            with self._lock:
                self.total_bytes += nbytes
                self.total_messages += messages
                self.total_calls += 1
            metrics.counter("rpc.calls").inc()
            metrics.counter("rpc.messages").inc(messages)
            metrics.counter("rpc.bytes").inc(nbytes)
            return record
        finally:
            recorder.leave(was)

    def reset(self) -> None:
        """Zero the cumulative traffic counters."""
        with self._lock:
            self.total_bytes = 0
            self.total_messages = 0
            self.total_calls = 0

    def __repr__(self) -> str:
        return (
            f"RpcChannel(chunk={self.chunk_size}B, {self.total_calls} calls, "
            f"{self.total_messages} messages, {self.total_bytes} bytes)"
        )
