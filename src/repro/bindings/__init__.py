"""Storage bindings (Section 5).

A binding encapsulates everything specific to one storage stack — which
consistency levels it offers and how to execute an operation under each —
behind the two-method API of :class:`~repro.bindings.base.Binding`.
"""

from repro.bindings.base import Binding, CallbackType
from repro.bindings.local import LocalBinding, LocalStore
from repro.bindings.primary_backup import PrimaryBackupBinding, PrimaryBackupStore
from repro.bindings.cassandra import CassandraBinding
from repro.bindings.zookeeper import ZooKeeperQueueBinding
from repro.bindings.cached_store import CachedStoreBinding

__all__ = [
    "Binding",
    "CallbackType",
    "LocalBinding",
    "LocalStore",
    "PrimaryBackupBinding",
    "PrimaryBackupStore",
    "CassandraBinding",
    "ZooKeeperQueueBinding",
    "CachedStoreBinding",
]
