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
import weakref
from typing import NamedTuple

from repro.errors import ValidationError
from repro.obs import metrics

__all__ = ["RpcChannel", "TransferRecord"]

#: what every channel sent, ``[calls, messages, bytes]`` since it was
#: made: the live channels' own totals (``_LIVE``, behind
#: ``_TRAFFIC_LOCK``), and what collected channels had sent
#: (``_RETIRED``).  The process-wide ``rpc.*`` counters are their sums,
#: computed when read, so a send counts its traffic once.
_TRAFFIC_LOCK = threading.Lock()
_LIVE: dict[int, list[int]] = {}  # by id() of the list
_RETIRED = [0, 0, 0]


def _retire(traffic: list[int]) -> None:
    with _TRAFFIC_LOCK:
        del _LIVE[id(traffic)]
        for i, amount in enumerate(traffic):
            _RETIRED[i] += amount


def _process_total(i: int):
    def read() -> int:
        with _TRAFFIC_LOCK:
            return _RETIRED[i] + sum(traffic[i] for traffic in _LIVE.values())
    return read


for _i, _name in enumerate(("rpc.calls", "rpc.messages", "rpc.bytes")):
    metrics.derived(_name, metrics.Counter, _process_total(_i))


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
        # Sessions served concurrently share one channel; the traffic
        # counts stay exact under threads.
        self._lock = threading.Lock()
        self._traffic = [0, 0, 0]  # since made; guarded_by: _lock
        self._zero = (0, 0, 0)  # the traffic at the last reset
        with _TRAFFIC_LOCK:
            _LIVE[id(self._traffic)] = self._traffic
        weakref.finalize(self, _retire, self._traffic)

    def send(self, payload: bytes | int) -> TransferRecord:
        """Ship one result payload (bytes, or just its length) to the peer."""
        nbytes = payload if isinstance(payload, int) else len(payload)
        if nbytes < 0:
            raise ValidationError("payload size must be non-negative")
        record = TransferRecord(
            nbytes, -(-nbytes // self.chunk_size), self.control_messages_per_call)
        with self._lock:
            traffic = self._traffic
            traffic[0] += 1
            traffic[1] += record.messages
            traffic[2] += nbytes
        return record

    @property
    def total_calls(self) -> int:
        """Payloads sent since the last :meth:`reset`."""
        return self._traffic[0] - self._zero[0]

    @property
    def total_messages(self) -> int:
        """Messages exchanged since the last :meth:`reset`."""
        return self._traffic[1] - self._zero[1]

    @property
    def total_bytes(self) -> int:
        """Payload bytes sent since the last :meth:`reset`."""
        return self._traffic[2] - self._zero[2]

    def reset(self) -> None:
        """Zero this channel's traffic totals (the process-wide ``rpc.*``
        counters keep counting)."""
        with self._lock:
            self._zero = tuple(self._traffic)

    def __repr__(self) -> str:
        return (
            f"RpcChannel(chunk={self.chunk_size}B, {self.total_calls} calls, "
            f"{self.total_messages} messages, {self.total_bytes} bytes)"
        )
