"""The distributed-queue recipe.

Two dequeue implementations are provided, matching Section 6.2.2:

* :meth:`DistributedQueue.dequeue_recipe` — the standard ZooKeeper recipe:
  ``getChildren`` on the queue znode (a message whose size grows linearly
  with queue length), pick the lowest-numbered child, ``delete`` it, and
  retry when a concurrent consumer already removed it.  This is the ZK
  baseline of Figure 10.
* :meth:`ZKClient.dequeue` — the Correctable ZooKeeper server-side
  dequeue: a single constant-size transaction that removes the head
  atomically, optionally with an ICG preliminary from the server's local
  simulation.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from repro.zookeeper_sim.client import ResponseCallback, ZKClient


class DistributedQueue:
    """A FIFO queue stored under one znode, accessed through a :class:`ZKClient`."""

    def __init__(self, client: ZKClient, queue_path: str = "/queue") -> None:
        self.client = client
        self.queue_path = queue_path
        self.retries = 0

    # -- setup --------------------------------------------------------------
    def create_queue_node(self, on_done: Optional[ResponseCallback] = None) -> None:
        """Create the parent znode the queue lives under."""
        self.client.create(self.queue_path, data=None, sequential=False,
                           on_final=on_done or (lambda resp: None))

    # -- producers -------------------------------------------------------------
    def enqueue(self, item: Any, icg: bool = False,
                on_preliminary: Optional[ResponseCallback] = None,
                on_final: Optional[ResponseCallback] = None) -> None:
        """Append ``item`` (sequential create under the queue znode)."""
        self.client.enqueue(self.queue_path, item, icg=icg,
                            on_preliminary=on_preliminary, on_final=on_final)

    # -- consumers: standard ZooKeeper recipe ----------------------------------------
    def dequeue_recipe(self, on_final: ResponseCallback,
                       max_retries: int = 25) -> None:
        """The getChildren + delete recipe with retry under contention."""
        attempt = {"count": 0, "started": self.client.scheduler.now()}

        def _finish(item: Any, name: Optional[str], remaining: int,
                    ok: bool = True, error: Optional[str] = None) -> None:
            on_final({
                "ok": ok,
                "result": {"item": item, "name": name, "remaining": remaining},
                "error": error,
                "latency_ms": self.client.scheduler.now() - attempt["started"],
                "retries": attempt["count"],
            })

        def _try_once() -> None:
            self.client.get_children(self.queue_path, on_final=_got_children)

        def _got_children(resp: Dict[str, Any]) -> None:
            if not resp["ok"]:
                _finish(None, None, 0, ok=False, error=resp["error"])
                return
            children = resp["result"]
            if not children:
                _finish(None, None, 0)
                return
            head = children[0]
            remaining = len(children) - 1
            self.client.get(f"{self.queue_path}/{head}",
                            on_final=lambda r: _got_data(head, remaining, r))

        def _got_data(head: str, remaining: int, resp: Dict[str, Any]) -> None:
            if not resp["ok"]:
                _retry()
                return
            item = resp["result"]
            self.client.delete(
                f"{self.queue_path}/{head}",
                on_final=lambda r: _deleted(head, remaining, item, r))

        def _deleted(head: str, remaining: int, item: Any,
                     resp: Dict[str, Any]) -> None:
            if resp["ok"]:
                _finish(item, head, remaining)
            else:
                _retry()

        def _retry() -> None:
            attempt["count"] += 1
            self.retries += 1
            if attempt["count"] > max_retries:
                _finish(None, None, 0, ok=False, error="too many retries")
                return
            _try_once()

        _try_once()
