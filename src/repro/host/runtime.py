"""Host-side pipelining helper (Section IV-D's throughput optimization).

Given a stream of per-request stage costs ``(send, device, receive)``,
computes total wall time with and without the pre-send optimization:
pipelined, the host sends request *i+1* while the device processes *i*,
so the steady-state cost per request is ``max(send, device, receive)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Tuple

from repro.obs import names
from repro.sim import maxplus


@dataclass(frozen=True)
class StageCost:
    """One request's host-send / device / host-receive costs in ns."""

    send_ns: float
    device_ns: float
    receive_ns: float

    @property
    def serial_ns(self) -> float:
        return self.send_ns + self.device_ns + self.receive_ns


class HostPipeline:
    """Accumulates request costs and reports total wall time."""

    def __init__(self, pipelined: bool = True) -> None:
        self.pipelined = pipelined
        self._costs: List[StageCost] = []

    def add(self, send_ns: float, device_ns: float, receive_ns: float) -> None:
        self._costs.append(StageCost(send_ns, device_ns, receive_ns))

    def extend(self, costs: Iterable[Tuple[float, float, float]]) -> None:
        for send, device, receive in costs:
            self.add(send, device, receive)

    @property
    def requests(self) -> int:
        return len(self._costs)

    def total_ns(self) -> float:
        """Wall time for the whole stream: when the last receive ends
        in :meth:`emit_trace`'s stage recurrence."""
        return self.emit_trace(None)

    def speedup_from_pipelining(self) -> float:
        serial = sum(cost.serial_ns for cost in self._costs)
        piped = self.total_ns()
        return serial / piped if piped else 1.0

    def emit_trace(self, tracer, base_ns: float = 0.0) -> float:
        """Replay the stream as spans on three host-pipeline tracks.

        Each stage is one FIFO server (:func:`repro.sim.maxplus.serve`):
        pipelined, request *i+1*'s send starts as soon as the send stage
        frees (the Section IV-D pre-send); serial, it waits for request
        *i*'s receive.  Spans land on ``host.send`` / ``host.device`` /
        ``host.recv`` starting at ``base_ns``; returns when the last
        receive ends.
        """
        send_free = device_free = recv_free = base_ns
        for index, cost in enumerate(self._costs):
            send_gate = send_free if self.pipelined else recv_free
            send_start, send_end, _ = maxplus.serve(send_free, send_gate, cost.send_ns)
            device_start, device_end, _ = maxplus.serve(
                send_end, device_free, cost.device_ns
            )
            recv_start, recv_end, _ = maxplus.serve(
                device_end, recv_free, cost.receive_ns
            )
            if tracer is not None:
                args = {"request": index}
                tracer.add_span(
                    names.SPAN_HOST_SEND, send_start, send_end,
                    cat="host", track="host.send", args=args,
                )
                tracer.add_span(
                    names.SPAN_HOST_DEVICE, device_start, device_end,
                    cat="host", track="host.device", args=args,
                )
                tracer.add_span(
                    names.SPAN_HOST_RECV, recv_start, recv_end,
                    cat="host", track="host.recv", args=args,
                )
            send_free, device_free, recv_free = send_end, device_end, recv_end
        return recv_free
