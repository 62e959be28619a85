"""Correctables core: the paper's primary contribution.

This package implements the client-side abstraction described in Sections 3
and 4 of the paper:

* :class:`~repro.core.consistency.ConsistencyLevel` — ordered consistency
  levels (weak < causal < strong by default; bindings may advertise others).
* :class:`~repro.core.promise.Promise` — the classic single-value
  asynchronous placeholder Correctables generalize.
* :class:`~repro.core.correctable.Correctable` — a placeholder for a result
  that is refined incrementally: it starts *updating*, emits preliminary
  views, and eventually *closes* with a final view (or an error).
* :class:`~repro.core.client.CorrectableClient` — the three-method API
  (``invoke_weak``, ``invoke_strong``, ``invoke``) wired to a storage
  binding.
* :class:`~repro.core.sink.Sink` — the one completion protocol every store
  completes operations into (a Correctable is one).
* :func:`~repro.core.correctable.Correctable.speculate` — the convenience
  combinator capturing the speculation pattern of Listing 3.
* :class:`~repro.core.cluster_spec.ClusterSpec` — declarative construction
  of the simulated deployments every experiment harness drives; import it
  from its module (this package does not, so the client API loads no
  simulated store).
"""

from repro.core.consistency import ConsistencyLevel, WEAK, CAUSAL, STRONG, CACHED
from repro.core.errors import (
    CorrectableError,
    OperationError,
    BindingError,
    TimeoutError_,
    UnsupportedConsistencyError,
    InvalidStateError,
)
from repro.core.operations import Operation, read, write, enqueue, dequeue, custom
from repro.core.promise import Promise
from repro.core.views import View
from repro.core.correctable import Correctable, CorrectableState
from repro.core.speculation import SpeculationStats
from repro.core.client import CorrectableClient

__all__ = [
    "ConsistencyLevel",
    "WEAK",
    "CAUSAL",
    "STRONG",
    "CACHED",
    "CorrectableError",
    "OperationError",
    "BindingError",
    "TimeoutError_",
    "UnsupportedConsistencyError",
    "InvalidStateError",
    "Operation",
    "read",
    "write",
    "enqueue",
    "dequeue",
    "custom",
    "Promise",
    "View",
    "Correctable",
    "CorrectableState",
    "SpeculationStats",
    "CorrectableClient",
]
