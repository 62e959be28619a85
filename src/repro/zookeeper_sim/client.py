"""Client node for the simulated ZooKeeper ensemble.

One entry, :meth:`ZKClient.submit_sink`, issues every operation the servers
know: the low-level znode operations (``"create"``, ``"delete"``,
``"get"``, ``"get_children"``) and the queue operations Correctable
ZooKeeper adds (``"enqueue"``, ``"dequeue"``).  An operation submitted with
``icg=True`` receives a preliminary answer from the contacted server's local
simulation before the final (Zab-committed) result arrives.

An operation completes into its *sink* (:mod:`repro.core.sink`): a
preliminary per attempt that reached a live server, then the final or the
error (refused, or every re-send timed out).  ZooKeeper results carry no
version, so the stamp is always ``None``.  Any sink will do: a
:class:`~repro.core.correctable.Correctable` is one (an application that
wants callbacks attaches them with ``set_callbacks``), the figure
harnesses bring recorders.

Each operation is one :class:`ZkOp` record, sent by reference to the
contacted server (``ZKServer._zk_request``) and, on a timeout, to the next
one; the servers answer into :meth:`ZKClient._zk_preliminary` and
:meth:`ZKClient._zk_response`.  All three hops are continuations scheduled
by :meth:`~repro.sim.network.Network.fused_send_to`: no ``Message``, no
payload dict.  With ``config.request_timeout_ms`` set, a request with no
final answer in time is re-sent at once to the server its attempt count
picks, at most ``config.client_retries`` times, and then fails
(:meth:`ZKClient._on_request_timeout`).
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Optional, Sequence

from repro.sim.network import MESSAGE_HEADER_BYTES, Network
from repro.sim.node import Node
from repro.zookeeper_sim.config import (ELEMENT_SIZE_BYTES, PATH_SIZE_BYTES,
                                        ZooKeeperConfig)


class ZkOp:
    """One client operation, from ``submit_sink`` to its final answer.

    The same record travels client → contacted server → leader; ``client``
    is the reply address.  Servers read the wire fields (``req_id`` …
    ``icg``) only; the rest is the client's own bookkeeping: ``attempts``
    (re-sends so far, which also picks the server) and the armed
    ``timeout_event``.  A plain allocation freed by refcount: no pool,
    nothing to leak.
    """

    __slots__ = ("client", "req_id", "op", "path", "data", "sequential",
                 "icg", "sink", "sent_at", "size_bytes",
                 "attempts", "timeout_event")

    def __init__(self, client: "ZKClient", req_id: int, op: str, path: str,
                 data: Any, sequential: bool, icg: bool, sink: Any,
                 sent_at: float, size_bytes: int) -> None:
        self.client = client
        self.req_id = req_id
        self.op = op
        self.path = path
        self.data = data
        self.sequential = sequential
        self.icg = icg
        self.sink = sink
        self.sent_at = sent_at
        self.size_bytes = size_bytes
        self.attempts = 0
        self.timeout_event: Optional[Any] = None


class ZKClient(Node):
    """A client connected to one server of the ensemble.

    With ``config.request_timeout_ms`` set and ``ensemble`` given, a request
    that receives no final response in time is re-issued to the next server
    of the ensemble — which is how sessions fail over when the contacted
    server (or the leader behind it) crashes.
    """

    def __init__(self, name: str, region: str, network: Network,
                 server: str, config: ZooKeeperConfig,
                 host: Optional[str] = None,
                 ensemble: Optional[Sequence[str]] = None) -> None:
        super().__init__(name, region, network, host=host)
        self.server = server
        self.config = config
        #: The failover rotation as node objects, connected server first.
        self._servers: List[Node] = [network.node(server)] + [
            network.node(s) for s in (ensemble or []) if s != server]
        self._req_ids = itertools.count(1)
        #: Request wire size without / with a data element.
        self._wire_sizes = (
            MESSAGE_HEADER_BYTES + PATH_SIZE_BYTES,
            MESSAGE_HEADER_BYTES + PATH_SIZE_BYTES + ELEMENT_SIZE_BYTES)
        self._pending: Dict[int, ZkOp] = {}
        self.requests_sent = 0
        # Fault-path instrumentation (stays zero with timeouts disabled).
        self.retries = 0
        self.failed_requests = 0

    # -- generic request plumbing -------------------------------------------
    def submit_sink(self, op: str, path: str, sink: Any, data: Any = None,
                    sequential: bool = False, icg: bool = False) -> int:
        """Send one operation to the connected server, to complete into
        ``sink`` (see the module docstring); returns the request id."""
        req_id = next(self._req_ids)
        self.requests_sent += 1
        pending = self._pending[req_id] = ZkOp(
            self, req_id, op, path, data, sequential, icg, sink,
            self.scheduler.clock._now, self._wire_sizes[data is not None])
        self._dispatch(pending)
        return req_id

    # -- dispatch & failover --------------------------------------------------
    def _dispatch(self, pending: ZkOp) -> None:
        """Send ``pending`` to the server its attempt count picks, and arm
        the request timeout."""
        server = self._servers[pending.attempts % len(self._servers)]
        self.network.fused_send_to(self, server.name, pending.size_bytes,
                                   server._zk_request, (pending,))
        timeout_ms = self.config.request_timeout_ms
        if timeout_ms > 0:
            pending.timeout_event = self.scheduler.schedule(
                timeout_ms, self._on_request_timeout, pending.req_id)

    def _on_request_timeout(self, req_id: int) -> None:
        """No final answer (which cancels this timer) in time: re-send at
        once to the next server, or fail once the retries are spent."""
        pending = self._pending[req_id]
        pending.timeout_event = None
        if pending.attempts < self.config.client_retries:
            pending.attempts += 1
            self.retries += 1
            self._dispatch(pending)
            return
        self.failed_requests += 1
        del self._pending[req_id]
        pending.sink.deliver_error("client timeout: no server responded",
                                   self.scheduler.now() - pending.sent_at)

    # -- responses (network continuations) -------------------------------------------
    def _zk_preliminary(self, req_id: int, result: Any) -> None:
        if not self.alive:
            self.network.messages_dropped += 1
            return
        self.network.messages_delivered += 1
        pending = self._pending.get(req_id)
        if pending is not None:
            pending.sink.deliver_preliminary(
                result, None, self.scheduler.clock._now - pending.sent_at)

    def _zk_response(self, req_id: int, ok: bool, result: Any,
                     error: Optional[str]) -> None:
        if not self.alive:
            self.network.messages_dropped += 1
            return
        self.network.messages_delivered += 1
        # A superseded server's late answer finds nothing here.
        pending = self._pending.pop(req_id, None)
        if pending is None:
            return
        if pending.timeout_event is not None:
            pending.timeout_event.cancel()
            pending.timeout_event = None
        latency_ms = self.scheduler.clock._now - pending.sent_at
        if ok:
            pending.sink.deliver_final(result, None, latency_ms)
        else:
            pending.sink.deliver_error(error, latency_ms)
