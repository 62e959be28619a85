"""Client node for the simulated ZooKeeper ensemble.

Offers the low-level znode operations (``create``, ``delete``, ``get``,
``get_children``) plus the queue-oriented operations used by Correctable
ZooKeeper (``enqueue``, ``dequeue``).  Every operation takes callbacks; an
operation submitted with ``icg=True`` receives a preliminary callback from
the contacted server's local simulation before the final (Zab-committed)
result arrives.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.core.retry import RetryPolicy
from repro.sim.failover import FailoverMixin
from repro.sim.network import MESSAGE_HEADER_BYTES, Message, Network
from repro.sim.node import Node
from repro.zookeeper_sim.config import ZooKeeperConfig

#: ``callback(response_dict)`` with keys ok/result/error/latency_ms.
ResponseCallback = Callable[[Dict[str, Any]], None]


@dataclass
class _PendingRequest:
    op: str
    sent_at: float
    on_preliminary: Optional[ResponseCallback] = None
    on_final: Optional[ResponseCallback] = None
    #: Failover state: the request payload for re-sends, retry count, and
    #: the pending client-side timeout event.
    request: Dict[str, Any] = field(default_factory=dict)
    size_bytes: int = 0
    attempts: int = 0
    rotation_index: int = 0
    timeout_event: Optional[Any] = None


class ZKClient(FailoverMixin, Node):
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
        self._servers: List[str] = [server] + [
            s for s in (ensemble or []) if s != server]
        self._req_ids = itertools.count(1)
        #: Request wire size without / with a data element.
        self._request_sizes = (
            MESSAGE_HEADER_BYTES + config.path_size_bytes,
            MESSAGE_HEADER_BYTES + config.path_size_bytes
            + config.element_size_bytes)
        self._pending: Dict[int, _PendingRequest] = {}
        self.requests_sent = 0
        # Fault-path instrumentation (stays zero with timeouts disabled).
        self.retries = 0
        self.failed_requests = 0

    # -- generic request plumbing -------------------------------------------
    def submit(self, op: str, path: str, data: Any = None,
               sequential: bool = False, icg: bool = False,
               on_preliminary: Optional[ResponseCallback] = None,
               on_final: Optional[ResponseCallback] = None,
               request_size: Optional[int] = None) -> int:
        """Send one operation to the connected server; returns the request id."""
        req_id = next(self._req_ids)
        self.requests_sent += 1
        if request_size is None:
            request_size = self._request_sizes[data is not None]
        pending = _PendingRequest(
            op=op, sent_at=self.scheduler.now(),
            on_preliminary=on_preliminary, on_final=on_final,
            request={"req_id": req_id, "op": op, "path": path, "data": data,
                     "sequential": sequential, "icg": icg},
            size_bytes=request_size)
        self._pending[req_id] = pending
        self._dispatch(pending)
        return req_id

    # -- dispatch & failover (see FailoverMixin) ----------------------------------
    def _dispatch(self, pending: _PendingRequest) -> None:
        server = self._servers[pending.rotation_index % len(self._servers)]
        self.send(server, "zk_request", dict(pending.request),
                  size_bytes=pending.size_bytes)
        self._arm_request_timeout(pending, pending.request["req_id"],
                                  self.config.request_timeout_ms)

    def _redispatch(self, pending: _PendingRequest) -> None:
        self._dispatch(pending)

    def _failover_retries(self) -> int:
        return self.config.client_retries

    def _retry_policy(self) -> RetryPolicy:
        policy = self._failover_policy
        if policy is None:
            policy = RetryPolicy(
                max_retries=self.config.client_retries,
                base_delay_ms=self.config.client_backoff_base_ms,
                multiplier=self.config.client_backoff_multiplier,
                cap_ms=self.config.client_backoff_cap_ms,
                jitter_ms=self.config.client_backoff_jitter_ms,
                label=f"failover:{self.name}")
            self._failover_policy = policy
        return policy

    def _timeout_failure_response(self, pending: _PendingRequest) -> Dict[str, Any]:
        return {
            "ok": False,
            "result": None,
            "error": "client timeout: no server responded",
            "latency_ms": self.scheduler.now() - pending.sent_at,
            "preliminary": False,
        }

    # -- convenience wrappers ---------------------------------------------------
    def create(self, path: str, data: Any = None, sequential: bool = False,
               icg: bool = False,
               on_preliminary: Optional[ResponseCallback] = None,
               on_final: Optional[ResponseCallback] = None) -> int:
        return self.submit("create", path, data=data, sequential=sequential,
                           icg=icg, on_preliminary=on_preliminary,
                           on_final=on_final)

    def delete(self, path: str,
               on_final: Optional[ResponseCallback] = None) -> int:
        return self.submit("delete", path, on_final=on_final)

    def get(self, path: str,
            on_final: Optional[ResponseCallback] = None) -> int:
        return self.submit("get", path, on_final=on_final)

    def get_children(self, path: str,
                     on_final: Optional[ResponseCallback] = None) -> int:
        return self.submit("get_children", path, on_final=on_final)

    def enqueue(self, queue_path: str, item: Any, icg: bool = False,
                on_preliminary: Optional[ResponseCallback] = None,
                on_final: Optional[ResponseCallback] = None) -> int:
        """Append ``item`` to the queue (a sequential create under the queue)."""
        return self.submit("enqueue", queue_path, data=item, icg=icg,
                           on_preliminary=on_preliminary, on_final=on_final)

    def dequeue(self, queue_path: str, icg: bool = False,
                on_preliminary: Optional[ResponseCallback] = None,
                on_final: Optional[ResponseCallback] = None) -> int:
        """Atomically remove the queue head (server-side, constant-size messages)."""
        return self.submit("dequeue", queue_path, icg=icg,
                           on_preliminary=on_preliminary, on_final=on_final)

    # -- responses ------------------------------------------------------------------
    def on_zk_preliminary(self, message: Message) -> None:
        payload = message.payload
        pending = self._pending.get(payload["req_id"])
        if pending is None or pending.on_preliminary is None:
            return
        pending.on_preliminary({
            "ok": payload["ok"],
            "result": payload["result"],
            "error": None,
            "latency_ms": self.scheduler.now() - pending.sent_at,
            "preliminary": True,
        })

    def on_zk_response(self, message: Message) -> None:
        payload = message.payload
        pending = self._pending.pop(payload["req_id"], None)
        if pending is None:
            return
        self._settle(pending)
        if pending.on_final is not None:
            pending.on_final({
                "ok": payload["ok"],
                "result": payload.get("result"),
                "error": payload.get("error"),
                "latency_ms": self.scheduler.now() - pending.sent_at,
                "preliminary": False,
            })
