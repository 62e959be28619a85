"""The one completion protocol, from the wire to whoever issued the operation.

Every store (Cassandra, ZooKeeper, 2PC) completes every operation into a
*sink* the issuer handed over, by positional calls: any number of
preliminary views, then exactly one final view or one error.  A Cassandra
write has no preliminary; its ack is a final carrying the written value.
A :class:`~repro.core.correctable.Correctable` (which every binding
completes, :mod:`repro.bindings.base`), the load runners' records and the
figure harnesses' recorders are sinks.  There is no other completion
dialect: a caller that wants callbacks submits a ``Correctable`` and sets
them on it.
"""

from __future__ import annotations

from typing import Any, Optional, Protocol, Union


class Sink(Protocol):
    """Where one operation's answers go.

    ``stamp`` is the version the store attaches to ``value`` (Cassandra's
    LWW timestamp, a commit's timestamp; ``None`` for ZooKeeper or when
    nothing was found); ``latency_ms`` is simulated time since the issue;
    ``source`` is who produced a preliminary.  ``is_confirmation``: the
    store elided the final payload, which equals the preliminary's;
    ``degraded``: answered below the requested quorum.
    ``error`` is a message, or an exception to raise as is.
    """

    def deliver_preliminary(self, value: Any, stamp: Any, latency_ms: float,
                            source: Optional[str] = None) -> None: ...

    def deliver_final(self, value: Any, stamp: Any, latency_ms: float,
                      is_confirmation: bool = False,
                      degraded: bool = False) -> None: ...

    def deliver_error(self, error: Union[str, BaseException],
                      latency_ms: float) -> None: ...
