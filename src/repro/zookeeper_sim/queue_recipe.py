"""The distributed-queue recipe.

Two dequeue implementations are provided, matching Section 6.2.2:

* :meth:`DistributedQueue.dequeue_recipe` — the standard ZooKeeper recipe:
  ``getChildren`` on the queue znode (a message whose size grows linearly
  with queue length), ``get`` the lowest-numbered child, ``delete`` it, and
  retry when a concurrent consumer already removed it.  This is the ZK
  baseline of Figure 10.
* ``ZKClient.submit_sink("dequeue", …)`` — the Correctable ZooKeeper
  server-side dequeue: a single constant-size transaction that removes the
  head atomically, optionally with an ICG preliminary from the server's
  local simulation.

Both complete into a sink (:mod:`repro.core.sink`) with the same
``{"item", "name", "remaining"}`` result.
"""

from __future__ import annotations

from typing import Any

from repro.core.consistency import STRONG
from repro.core.correctable import Correctable
from repro.zookeeper_sim.client import ZKClient


class DistributedQueue:
    """A FIFO queue stored under one znode, accessed through a :class:`ZKClient`."""

    def __init__(self, client: ZKClient, queue_path: str = "/queue") -> None:
        self.client = client
        self.queue_path = queue_path
        #: Steps this queue's recipe dequeues re-ran under contention.
        self.retries = 0

    def dequeue_recipe(self, sink: Any, max_retries: int = 25) -> None:
        """The getChildren + get + delete recipe with retry under
        contention, completing into ``sink``: the head's result (``item``
        and ``name`` are ``None`` on an empty queue), or an error once
        getChildren fails or ``max_retries`` retries are spent.

        Each step is one operation whose sink is a strong-only
        :class:`Correctable`; its callbacks chain the next step.
        """
        client = self.client
        queue_path = self.queue_path
        started = client.scheduler.now()
        retries = 0

        def step(op: str, path: str, on_final, on_error) -> None:
            client.submit_sink(op, path, Correctable(levels=(STRONG,))
                               .set_callbacks(on_final=on_final,
                                              on_error=on_error))

        def finish(item: Any, name: Any, remaining: int) -> None:
            sink.deliver_final(
                {"item": item, "name": name, "remaining": remaining}, None,
                client.scheduler.now() - started)

        def fail(error: Any) -> None:
            sink.deliver_error(error, client.scheduler.now() - started)

        def try_once() -> None:
            step("get_children", queue_path, got_children, fail)

        def got_children(view) -> None:
            children = view.value
            if not children:
                finish(None, None, 0)
                return
            head = children[0]
            path = f"{queue_path}/{head}"
            remaining = len(children) - 1
            step("get", path, lambda got: step(
                "delete", path,
                lambda _: finish(got.value, head, remaining), retry), retry)

        def retry(_error: Any) -> None:
            nonlocal retries
            retries += 1
            self.retries += 1
            if retries > max_retries:
                fail("too many retries")
                return
            try_once()

        try_once()
