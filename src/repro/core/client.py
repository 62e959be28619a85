"""The application-facing Correctables client (Section 3.2).

The API has exactly three methods:

* :meth:`CorrectableClient.invoke_weak` — one result, weakest level;
* :meth:`CorrectableClient.invoke_strong` — one result, strongest level;
* :meth:`CorrectableClient.invoke` — incremental consistency guarantees: one
  view per requested level, weakest first, the strongest closing the
  Correctable.

CamelCase aliases (``invokeWeak`` etc.) are provided for parity with the
paper's listings.

For load experiments with many simulated users, :class:`SessionPool`
multiplexes lightweight :class:`ClientSession` handles over one client (and
therefore one binding): thousands of users share the underlying connection
state with no per-user thread or binding objects, each session only carrying
its id and invocation counters.  This is what the open-loop runner
(:class:`repro.workloads.runner.OpenLoopRunner`) drives its sessions
through.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, List, Optional, Tuple

from repro.core.consistency import ConsistencyLevel, validate_levels
from repro.core.correctable import Correctable
from repro.core.operations import Operation

Levels = Tuple[ConsistencyLevel, ...]


class CorrectableClient:
    """Entry point applications use to access a replicated store via a binding."""

    def __init__(self, binding, clock: Optional[Callable[[], float]] = None) -> None:
        self.binding = binding
        self._clock = clock if clock is not None else getattr(binding, "clock", None)
        #: ``(all, weakest only, strongest only)`` of the binding's levels,
        #: validated once by the first invocation that needs them.
        self._default_levels: Optional[Tuple[Levels, Levels, Levels]] = None
        # Lightweight instrumentation used by the evaluation harness.
        self.invocations = 0
        self.weak_invocations = 0
        self.strong_invocations = 0
        self.icg_invocations = 0

    # -- level bookkeeping --------------------------------------------------
    def available_levels(self) -> List[ConsistencyLevel]:
        """Consistency levels the binding advertises, weakest first."""
        # Validating the full set against itself sorts, checks non-emptiness,
        # and hits the same memo the per-invocation validation uses.
        levels = self.binding.consistency_levels()
        return validate_levels(levels, levels)

    def _learn_levels(self) -> Tuple[Levels, Levels, Levels]:
        # What a binding offers is a property of its stack, so it is asked
        # once.  Nothing is kept while it advertises nothing: the
        # invocation raises and the next one asks again.
        levels = tuple(self.available_levels())
        self._default_levels = learnt = (levels, levels[:1], levels[-1:])
        return learnt

    # -- the three API methods ------------------------------------------------
    def invoke(self, operation: Operation,
               levels: Optional[Iterable[ConsistencyLevel]] = None) -> Correctable:
        """Execute ``operation`` with incremental consistency guarantees.

        Returns a :class:`Correctable` that receives one view per requested
        level (weakest to strongest) and closes with the strongest one.  When
        ``levels`` is omitted, every level the binding offers is requested.
        """
        if levels is None:
            requested = (self._default_levels or self._learn_levels())[0]
        else:
            # The same validation routine every binding uses, so the client
            # and the bindings raise one consistent error type.
            requested = tuple(validate_levels(
                levels, self.binding.consistency_levels()))
        self.invocations += 1
        if len(requested) > 1:
            self.icg_invocations += 1
        return self._submit(operation, requested)

    def invoke_weak(self, operation: Operation) -> Correctable:
        """Execute ``operation`` under the weakest available level only."""
        self.invocations += 1
        self.weak_invocations += 1
        return self._submit(
            operation, (self._default_levels or self._learn_levels())[1])

    def invoke_strong(self, operation: Operation) -> Correctable:
        """Execute ``operation`` under the strongest available level only."""
        self.invocations += 1
        self.strong_invocations += 1
        return self._submit(
            operation, (self._default_levels or self._learn_levels())[2])

    # CamelCase aliases matching the paper's listings.
    invokeWeak = invoke_weak
    invokeStrong = invoke_strong

    # -- session multiplexing ------------------------------------------------
    def sessions(self, size: int) -> "SessionPool":
        """A pool of ``size`` lightweight sessions sharing this client."""
        return SessionPool(self, size)

    # -- plumbing ---------------------------------------------------------------
    def _submit(self, operation: Operation, levels: Levels) -> Correctable:
        # The Correctable is the operation's sink: the binding completes it.
        correctable = Correctable(self._clock, levels)
        self.binding.submit_operation(operation, levels, correctable)
        return correctable


class ClientSession:
    """One logical user multiplexed over a shared :class:`CorrectableClient`.

    Sessions carry no threads and no binding state — only an id and
    invocation counters — so an experiment can simulate thousands of users
    against one binding without thousands of connection objects.  Every
    ``invoke*`` delegates to the parent client (which does the level
    validation once, against the shared binding).
    """

    __slots__ = ("client", "session_id", "invocations")

    def __init__(self, client: CorrectableClient, session_id: int) -> None:
        self.client = client
        self.session_id = session_id
        self.invocations = 0

    def invoke(self, operation: Operation,
               levels: Optional[Iterable[ConsistencyLevel]] = None) -> Correctable:
        self.invocations += 1
        return self.client.invoke(operation, levels)

    def invoke_weak(self, operation: Operation) -> Correctable:
        self.invocations += 1
        return self.client.invoke_weak(operation)

    def invoke_strong(self, operation: Operation) -> Correctable:
        self.invocations += 1
        return self.client.invoke_strong(operation)

    # CamelCase aliases matching the paper's listings.
    invokeWeak = invoke_weak
    invokeStrong = invoke_strong


class SessionPool:
    """A fixed pool of :class:`ClientSession`\\ s over one client.

    :meth:`next_session` hands sessions out round-robin, which is
    deterministic — the property the open-loop load experiments need when
    mapping an arrival stream onto users.
    """

    def __init__(self, client: CorrectableClient, size: int) -> None:
        if size <= 0:
            raise ValueError(f"session pool needs a positive size, got {size}")
        self.client = client
        self._sessions = [ClientSession(client, i) for i in range(size)]
        self._next = 0

    def __len__(self) -> int:
        return len(self._sessions)

    def __iter__(self) -> Iterator[ClientSession]:
        return iter(self._sessions)

    def session(self, session_id: int) -> ClientSession:
        return self._sessions[session_id]

    def next_session(self) -> ClientSession:
        """The next session in deterministic round-robin order."""
        session = self._sessions[self._next]
        self._next += 1
        if self._next == len(self._sessions):
            self._next = 0
        return session

    def total_invocations(self) -> int:
        return sum(session.invocations for session in self._sessions)
