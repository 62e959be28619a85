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

The Correctable is the request's sink: the client completes it directly
(:meth:`~repro.zookeeper_sim.client.ZKClient.submit_sink`).
"""

from __future__ import annotations

from typing import List, Sequence

from repro.bindings.base import Binding
from repro.core.consistency import ConsistencyLevel, STRONG, WEAK
from repro.core.correctable import Correctable
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
                         correctable: Correctable) -> None:
        name = operation.name
        if name not in ("enqueue", "dequeue"):
            correctable.deliver_error(self.unsupported_operation(operation),
                                      0.0)
            return
        # The local-simulation preliminary is only requested when the weak
        # level is wanted; a strong-only invocation is exactly vanilla ZK.
        self.client.submit_sink(name, operation.key or self.queue_path,
                                correctable,
                                operation.args[0] if name == "enqueue"
                                else None, icg=WEAK in levels)
