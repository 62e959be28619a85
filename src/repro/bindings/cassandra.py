"""Binding to the (simulated) Correctable Cassandra cluster.

The binding maps consistency levels onto quorum sizes:

* ``WEAK``   — read with R = 1 (the coordinator's closest/local copy);
* ``STRONG`` — read with R = ``strong_read_quorum`` (2 by default, 3 for the
  CC³ configuration of Figure 5);
* ``invoke`` with both levels issues a *single* ICG read: the coordinator
  flushes the preliminary response and later the final quorum response, as
  implemented by :class:`repro.cassandra_sim.replica.CassandraReplica`.

Writes always use W = ``write_quorum`` (1 in the paper's experiments); the
strong view of a write is the coordinator's acknowledgement.
"""

from __future__ import annotations

from typing import List

from repro.bindings.base import Binding, CallbackType
from repro.cassandra_sim.client import CassandraClient
from repro.core.consistency import ConsistencyLevel, STRONG, WEAK
from repro.core.errors import OperationError
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
                         callback: CallbackType) -> None:
        levels = self.validate_levels(levels)
        if operation.name == "read":
            self._submit_read(operation, levels, callback)
        elif operation.name == "write":
            self._submit_write(operation, levels, callback)
        else:
            self.reject_unsupported(operation, levels, callback)

    # -- reads --------------------------------------------------------------
    def _submit_read(self, operation: Operation,
                     levels: List[ConsistencyLevel],
                     callback: CallbackType) -> None:
        want_weak = WEAK in levels
        want_strong = STRONG in levels
        level = STRONG if want_strong else WEAK
        quorum = self.strong_read_quorum if want_strong else 1

        def _on_final(resp: dict) -> None:
            if "error" in resp:
                callback(level, None, error=OperationError(resp["error"]))
            else:
                callback(level, resp["value"],
                         metadata=self._meta(resp, r=quorum))

        if want_weak and want_strong:
            # One ICG request: preliminary + final from the same coordinator.
            self.client.read(
                operation.key, r=quorum, icg=True,
                on_preliminary=lambda resp: callback(
                    WEAK, resp["value"], metadata=self._meta(resp, r=1)),
                on_final=_on_final)
        else:
            self.client.read(operation.key, r=quorum, icg=False,
                             on_final=_on_final)

    # -- writes ---------------------------------------------------------------
    def _submit_write(self, operation: Operation,
                      levels: List[ConsistencyLevel],
                      callback: CallbackType) -> None:
        value = operation.args[0]
        want_weak = WEAK in levels
        want_strong = STRONG in levels
        level = STRONG if want_strong else WEAK

        def _on_ack(resp: dict) -> None:
            if "error" in resp:
                callback(level, None, error=OperationError(resp["error"]))
            else:
                callback(level, value, metadata=self._meta(resp, r=None))

        if want_weak and want_strong:
            # The weak view of a write is an immediate optimistic local echo;
            # the strong view is the coordinator acknowledgement.
            callback(WEAK, value, metadata={"optimistic": True})
        self.client.write(operation.key, value, w=self.write_quorum,
                          on_final=_on_ack)

    @staticmethod
    def _meta(resp: dict, r) -> dict:
        return {
            "latency_ms": resp.get("latency_ms"),
            "is_confirmation": resp.get("is_confirmation", False),
            "found": resp.get("found"),
            "replica": resp.get("replica"),
            "read_quorum": r,
            "degraded": resp.get("degraded", False),
        }
