"""Binding to the (simulated) Correctable ZooKeeper replicated queue.

Maps the ``enqueue`` and ``dequeue`` operations onto a
:class:`~repro.zookeeper_sim.client.ZKClient` connected to one ensemble
member:

* ``WEAK``   — the contacted replica's local simulation of the operation
  (the CZK fast path);
* ``STRONG`` — the result after Zab commits the operation (atomic).

``invoke`` with both levels issues a single ICG request and receives both
responses; ``invoke_weak`` still executes the operation (it completes in the
background) but only the preliminary result is surfaced.

The callback a :class:`~repro.core.client.CorrectableClient` passes is the
operation's Correctable, which speaks the sink protocol
(:mod:`repro.core.sink`): it is handed over as the sink.  Any other
callable gets the answers translated from the client's dict-callback API.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

from repro.bindings.base import Binding, CallbackType
from repro.core.consistency import ConsistencyLevel, STRONG, WEAK
from repro.core.correctable import Correctable
from repro.core.errors import OperationError
from repro.core.operations import Operation
from repro.zookeeper_sim.client import ZKClient


class ZooKeeperQueueBinding(Binding):
    """Correctables binding over a ZooKeeper-backed replicated queue."""

    def __init__(self, client: ZKClient, queue_path: str = "/queue") -> None:
        self.client = client
        self.queue_path = queue_path
        self.clock = client.scheduler.now

    def consistency_levels(self) -> List[ConsistencyLevel]:
        return [WEAK, STRONG]

    def submit_operation(self, operation: Operation,
                         levels: Sequence[ConsistencyLevel],
                         callback: CallbackType) -> None:
        name = operation.name
        if name not in ("enqueue", "dequeue"):
            self.reject_unsupported(operation, self.validate_levels(levels),
                                    callback)
            return
        path = operation.key or self.queue_path
        data = operation.args[0] if name == "enqueue" else None
        # The local-simulation preliminary is only requested when the weak
        # level is wanted; a strong-only invocation is exactly vanilla ZK.
        if isinstance(callback, Correctable):
            # Its client validated the levels it was made with.
            self.client.submit_sink(name, path, callback, data,
                                    icg=WEAK in levels)
            return
        levels = self.validate_levels(levels)
        strongest = levels[-1]

        def _on_preliminary(resp: Dict[str, Any]) -> None:
            callback(WEAK, resp["result"],
                     metadata={"latency_ms": resp["latency_ms"],
                               "preliminary": True})

        def _on_final(resp: Dict[str, Any]) -> None:
            # A failure is reported at whatever level would have closed the
            # operation; the committed result only if it was asked for.
            if not resp["ok"]:
                callback(strongest, None, error=OperationError(resp["error"]))
            elif strongest == STRONG:
                callback(STRONG, resp["result"],
                         metadata={"latency_ms": resp["latency_ms"],
                                   "preliminary": False})

        self.client.submit(name, path, data, icg=WEAK in levels,
                           on_preliminary=_on_preliminary, on_final=_on_final)
