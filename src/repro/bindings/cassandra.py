"""Binding to the (simulated) Correctable Cassandra cluster.

The binding maps consistency levels onto quorum sizes:

* ``WEAK``   — read with R = 1 (the coordinator's closest/local copy);
* ``STRONG`` — read with R = ``strong_read_quorum`` (2 by default, 3 for the
  CC³ configuration of Figure 5);
* ``invoke`` with both levels issues a *single* ICG read: the coordinator
  flushes the preliminary response and later the final quorum response, as
  implemented by :class:`repro.cassandra_sim.reads.ReadCoordinator`.

Writes always use W = ``write_quorum`` (1 in the paper's experiments); the
strong view of a write is the coordinator's acknowledgement (carrying the
written value), and ``invoke`` shows the value as an optimistic weak view
first.  The client completes the Correctable (``lean_read``/``lean_write``).
"""

from __future__ import annotations

from typing import List

from repro.bindings.base import Binding
from repro.cassandra_sim.client import CassandraClient
from repro.core.consistency import ConsistencyLevel, STRONG, WEAK
from repro.core.correctable import Correctable
from repro.core.operations import Operation


class CassandraBinding(Binding):
    """Correctables binding over a :class:`CassandraClient`."""

    def __init__(self, client: CassandraClient,
                 strong_read_quorum: int = 2,
                 write_quorum: int = 1) -> None:
        if strong_read_quorum < 2:
            raise ValueError("strong reads need a quorum of at least 2")
        client.check_quorum(strong_read_quorum, "strong read")
        client.check_quorum(write_quorum, "write")
        self.client = client
        self.strong_read_quorum = strong_read_quorum
        self.write_quorum = write_quorum
        self.clock = client.scheduler.now

    def consistency_levels(self) -> List[ConsistencyLevel]:
        return [WEAK, STRONG]

    def submit_operation(self, operation: Operation,
                         levels: List[ConsistencyLevel],
                         correctable: Correctable) -> None:
        levels = self.validate_levels(levels)
        both = len(levels) == 2
        if operation.name == "read":
            # Both levels: one ICG request, preliminary and final from the
            # same coordinator.
            self.client.lean_read(
                operation.key,
                self.strong_read_quorum if STRONG in levels else 1, both,
                correctable)
        elif operation.name == "write":
            value = operation.args[0]
            if both:
                correctable.deliver_preliminary(value, None, 0.0)
            self.client.lean_write(operation.key, value, self.write_quorum,
                                   correctable)
        else:
            correctable.deliver_error(self.unsupported_operation(operation),
                                      0.0)
