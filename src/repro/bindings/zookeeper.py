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
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.bindings.base import Binding, CallbackType
from repro.core.consistency import ConsistencyLevel, STRONG, WEAK
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
                         levels: List[ConsistencyLevel],
                         callback: CallbackType) -> None:
        levels = self.validate_levels(levels)
        if operation.name not in ("enqueue", "dequeue"):
            self.reject_unsupported(operation, levels, callback)
            return
        queue_path = operation.key or self.queue_path

        def _on_preliminary(resp: Dict[str, Any]) -> None:
            callback(WEAK, resp["result"],
                     metadata={"latency_ms": resp["latency_ms"],
                               "preliminary": True})

        def _on_final(resp: Dict[str, Any]) -> None:
            if not resp["ok"]:
                callback(STRONG, None, error=OperationError(resp["error"]))
                return
            callback(STRONG, resp["result"],
                     metadata={"latency_ms": resp["latency_ms"],
                               "preliminary": False})

        # The local-simulation preliminary is only requested when the weak
        # level is wanted; a strong-only invocation is exactly vanilla ZK.
        # The client skips a callback that is None, so an unwanted level
        # costs nothing per response.
        icg = WEAK in levels
        on_preliminary = _on_preliminary if icg else None
        on_final = _on_final if STRONG in levels else None
        if operation.name == "enqueue":
            item = operation.args[0]
            self.client.enqueue(queue_path, item, icg=icg,
                                on_preliminary=on_preliminary,
                                on_final=on_final)
        else:
            self.client.dequeue(queue_path, icg=icg,
                                on_preliminary=on_preliminary,
                                on_final=on_final)
