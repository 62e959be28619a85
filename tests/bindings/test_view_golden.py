"""What every binding shows an application: a golden of the views.

Every binding (Cassandra, ZooKeeper, local, primary-backup, and the cache
over local) runs every case (a read that finds its key, a read that does
not, a write, an operation the binding lacks and an error from the store)
through each of ``invoke``, ``invoke_weak`` and ``invoke_strong`` of a
:class:`~repro.core.client.CorrectableClient`, on a fresh stack each time.
The Correctable is recorded once the simulation drains: its state and
error, each view's level, value, confirmation flag, metadata keys and
simulated time, and how many late updates it dropped.

Regenerate only when *intentionally* changing what a binding delivers::

    PYTHONPATH=src python tests/bindings/test_view_golden.py --regenerate
"""

from __future__ import annotations

import json
import pathlib
import sys
from typing import Any, Callable, Dict, Tuple

import pytest

from repro.bindings.cached_store import CachedStoreBinding
from repro.bindings.cassandra import CassandraBinding
from repro.bindings.local import LocalBinding, LocalStore
from repro.bindings.primary_backup import PrimaryBackupBinding
from repro.bindings.zookeeper import ZooKeeperQueueBinding
from repro.core.client import CorrectableClient
from repro.core.correctable import Correctable
from repro.core.operations import (Operation, custom, dequeue, enqueue, read,
                                   write)
from repro.sim.scheduler import Scheduler

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "view_golden.json"

CASES = ("read-hit", "read-miss", "write", "unsupported", "store-error")
INVOCATIONS = ("invoke", "invoke_weak", "invoke_strong")

#: ``(run the simulation until idle, the binding)``
Stack = Tuple[Callable[[], None], Any]


def _cassandra(case: str) -> Tuple[Stack, Operation]:
    from repro.cassandra_sim.cluster import CassandraCluster
    from repro.cassandra_sim.config import CassandraConfig
    from repro.sim.environment import SimEnvironment
    from repro.sim.topology import Region

    env = SimEnvironment(seed=123)
    # With the *CC optimization an ICG read's final is a confirmation.
    cluster = CassandraCluster(
        env, CassandraConfig(confirmation_optimization=True))
    cluster.preload({f"key{i}": f"value{i}" for i in range(20)})
    client = cluster.add_client("test-client", region=Region.IRL,
                                contact_region=Region.FRK)
    if case == "store-error":
        # Every coordinator answers that it left the ring.
        for replica in cluster.replicas:
            replica.ring_state = "retired"
    operation = {"read-hit": read("key1"), "read-miss": read("absent"),
                 "write": write("key3", "vvv"),
                 "unsupported": custom("scan", "tbl"),
                 "store-error": read("key1")}[case]
    return (env.run_until_idle, CassandraBinding(client)), operation


def _zookeeper(case: str) -> Tuple[Stack, Operation]:
    from repro.sim.environment import SimEnvironment
    from repro.sim.topology import Region
    from repro.zookeeper_sim.cluster import ZooKeeperCluster

    env = SimEnvironment(seed=123)
    cluster = ZooKeeperCluster(env, leader_region=Region.IRL,
                               follower_regions=(Region.FRK, Region.VRG))
    cluster.preload_queue("/queue", [f"item-{i}" for i in range(10)])
    cluster.preload_queue("/empty", [])
    client = cluster.add_client("zk-test-client", region=Region.FRK,
                                connect_region=Region.FRK)
    operation = {"read-hit": dequeue("/queue"), "read-miss": dequeue("/empty"),
                 "write": enqueue("/queue", "new-item"),
                 "unsupported": read("some-key"),
                 "store-error": dequeue("/nowhere")}[case]
    return (env.run_until_idle,
            ZooKeeperQueueBinding(client, "/queue")), operation


def _local_store() -> LocalStore:
    store = LocalStore()
    store.put("k", "v1")
    store.put("k", "v2")
    return store


def _local(case: str) -> Tuple[Stack, Operation]:
    scheduler = Scheduler()
    binding = LocalBinding(_local_store(), scheduler=scheduler)
    # A key the store never saw is also its only error.
    operation = {"read-hit": read("k"), "read-miss": read("absent"),
                 "write": write("k", "w"), "unsupported": custom("scan", "k"),
                 "store-error": read("absent")}[case]
    return (scheduler.run_until_idle, binding), operation


def _primary_backup(case: str) -> Tuple[Stack, Operation]:
    scheduler = Scheduler()
    binding = PrimaryBackupBinding(scheduler=scheduler)
    binding.store.write("k", "v1")
    scheduler.run_until_idle()
    if case == "store-error":
        # On the primary, not yet on the backup: the weak level fails.
        binding.store.write("fresh", "f1")
    operation = {"read-hit": read("k"), "read-miss": read("absent"),
                 "write": write("k", "w"), "unsupported": custom("scan", "k"),
                 "store-error": read("fresh")}[case]
    return (scheduler.run_until_idle, binding), operation


def _cached_over_local(case: str) -> Tuple[Stack, Operation]:
    scheduler = Scheduler()
    store = _local_store()
    store.put("cold", "c1")
    binding = CachedStoreBinding(LocalBinding(store, scheduler=scheduler),
                                 scheduler=scheduler)
    binding.cache.put("k", "v-cached")
    # A miss is a key the store has and the cache does not.
    operation = {"read-hit": read("k"), "read-miss": read("cold"),
                 "write": write("k", "w"), "unsupported": custom("scan", "k"),
                 "store-error": read("absent")}[case]
    return (scheduler.run_until_idle, binding), operation


BINDINGS: Dict[str, Callable[[str], Tuple[Stack, Operation]]] = {
    "cassandra": _cassandra,
    "zookeeper": _zookeeper,
    "local": _local,
    "primary-backup": _primary_backup,
    "cached-over-local": _cached_over_local,
}


def _record(correctable: Correctable) -> Dict[str, Any]:
    error = correctable.error
    return {
        "state": correctable.state.value,
        "error": None if error is None else [type(error).__name__,
                                             str(error)],
        "views": [[view.consistency.name, repr(view.value),
                   view.is_confirmation, sorted(view.metadata),
                   repr(view.timestamp)]
                  for view in correctable.views()],
        "discarded_updates": correctable.discarded_updates,
    }


def run_case(binding_name: str, case: str, invocation: str) -> Dict[str, Any]:
    (run_until_idle, binding), operation = BINDINGS[binding_name](case)
    correctable = getattr(CorrectableClient(binding), invocation)(operation)
    run_until_idle()
    return _record(correctable)


def all_cases() -> Dict[str, Dict[str, Any]]:
    return {f"{name}/{case}/{invocation}": run_case(name, case, invocation)
            for name in BINDINGS for case in CASES
            for invocation in INVOCATIONS}


def _golden() -> Dict[str, Dict[str, Any]]:
    return json.loads(GOLDEN_PATH.read_text())


def test_the_golden_covers_every_case():
    assert sorted(_golden()) == sorted(
        f"{name}/{case}/{invocation}" for name in BINDINGS for case in CASES
        for invocation in INVOCATIONS)


@pytest.mark.parametrize("binding_name", list(BINDINGS))
@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("invocation", INVOCATIONS)
def test_views_match_the_golden(binding_name, case, invocation):
    expected = _golden()[f"{binding_name}/{case}/{invocation}"]
    assert run_case(binding_name, case, invocation) == expected


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: test_view_golden.py --regenerate")
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(all_cases(), indent=1, sort_keys=True)
                           + "\n")
