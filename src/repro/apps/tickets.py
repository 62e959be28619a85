"""The ticket-selling case study (Section 4.3, Listing 5, Figure 12).

Tickets live in a replicated queue (ZooKeeper).  A purchase dequeues one
ticket.  With ICG the retailer looks at the preliminary (locally simulated)
dequeue result: if plenty of tickets remain the purchase is confirmed
immediately from the preliminary view, because it does not matter *which*
ticket the customer gets; only when the stock drops below a threshold does
the retailer wait for the final, atomic result — avoiding overselling exactly
when contention over the last tickets makes it likely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from repro.core.client import CorrectableClient
from repro.core.correctable import Correctable
from repro.core.operations import dequeue, enqueue
from repro.core.views import View

#: Default stock level below which retailers wait for the final (atomic) view.
DEFAULT_THRESHOLD = 20


@dataclass
class PurchaseOutcome:
    """The result of one purchase attempt."""

    ticket: Optional[Any]
    latency_ms: float
    used_preliminary: bool
    sold_out: bool
    #: Stock size the deciding view reported (remaining tickets).
    remaining: int = 0

    @property
    def succeeded(self) -> bool:
        return not self.sold_out and self.ticket is not None


class _Purchase:
    """One purchase attempt: Listing 5's callbacks and what they share."""

    __slots__ = ("seller", "on_done", "started", "done")

    def __init__(self, seller: "TicketSeller",
                 on_done: Callable[[PurchaseOutcome], None],
                 started: float) -> None:
        self.seller = seller
        self.on_done = on_done
        self.started = started
        self.done = False

    def on_update(self, view: View) -> None:
        result = view.value or {}
        # Plenty of stock left: it is safe to confirm from the weak view,
        # the background dequeue will pick *some* ticket for us.
        if result.get("item") is not None \
                and result.get("remaining", 0) > self.seller.threshold:
            self._confirm(result, used_preliminary=True)

    def on_final(self, view: View) -> None:
        self._confirm(view.value, used_preliminary=False)

    def on_error(self, error: BaseException) -> None:
        self._confirm(None, used_preliminary=False)

    def _confirm(self, view_value: Optional[Dict[str, Any]],
                 used_preliminary: bool) -> None:
        if self.done:
            return
        self.done = True
        seller = self.seller
        remaining = int(view_value.get("remaining", 0)) if view_value else 0
        ticket = view_value.get("item") if view_value else None
        sold_out = ticket is None
        if sold_out:
            seller.sold_out_responses += 1
        elif used_preliminary:
            seller.purchases_from_preliminary += 1
        else:
            seller.purchases_from_final += 1
        self.on_done(PurchaseOutcome(ticket=ticket,
                                     latency_ms=seller._now() - self.started,
                                     used_preliminary=used_preliminary,
                                     sold_out=sold_out,
                                     remaining=remaining))


class TicketSeller:
    """A retailer selling tickets from a shared, replicated stock."""

    def __init__(self, client: CorrectableClient, queue_path: str = "/tickets",
                 threshold: int = DEFAULT_THRESHOLD,
                 clock: Optional[Callable[[], float]] = None) -> None:
        self.client = client
        self.queue_path = queue_path
        self.threshold = threshold
        if clock is None:
            clock = getattr(client.binding, "clock", None)
        self._now: Callable[[], float] = \
            clock if clock is not None else lambda: 0.0
        self._dequeue = dequeue(queue_path)
        self.purchases_attempted = 0
        self.purchases_from_preliminary = 0
        self.purchases_from_final = 0
        self.sold_out_responses = 0

    # -- stocking ------------------------------------------------------------
    def stock_ticket(self, ticket: Any,
                     on_done: Optional[Callable[[Dict[str, Any]], None]] = None
                     ) -> Correctable:
        """Add one ticket to the stock (event-organizer side)."""
        correctable = self.client.invoke_strong(enqueue(self.queue_path, ticket))
        if on_done is not None:
            correctable.set_callbacks(
                on_final=lambda view: on_done({"result": view.value}),
                on_error=lambda exc: on_done({"error": exc}))
        return correctable

    # -- purchasing (Listing 5) --------------------------------------------------
    def purchase_ticket(self, on_done: Callable[[PurchaseOutcome], None],
                        use_icg: bool = True) -> Correctable:
        """Attempt to buy one ticket.

        With ``use_icg=False`` the retailer always waits for the final
        (atomic) dequeue result — the vanilla ZooKeeper baseline of
        Figure 12.
        """
        self.purchases_attempted += 1
        purchase = _Purchase(self, on_done, self._now())
        if not use_icg:
            return self.client.invoke_strong(self._dequeue).set_callbacks(
                on_final=purchase.on_final, on_error=purchase.on_error)
        return self.client.invoke(self._dequeue).set_callbacks(
            purchase.on_update, purchase.on_final, purchase.on_error)
