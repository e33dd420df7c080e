"""The producer-consumer descriptor ring shared by netfront and netback.

"The ring buffers are nothing but a standard lockless shared memory
data structure built on top of two primitives -- grant tables and event
channels" (paper Sect. 2).  A slot is occupied from the moment the
producer pushes a request until the producer consumes the matching
response, which is what bounds the number of packets in flight across
the driver boundary and gives the path its backpressure.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from repro.sim.engine import Event, Simulator
from repro.sim.resources import WaitQueue

__all__ = ["RingFullError", "SlottedRing"]


class RingFullError(Exception):
    """push_request on a ring with no free slots."""
    pass


class SlottedRing:
    """Request/response ring; slots held until responses are consumed."""

    __slots__ = (
        "sim",
        "size",
        "_requests",
        "_responses",
        "outstanding",
        "_space_waiters",
        "total_requests",
        "req_event_armed",
        "rsp_event_armed",
    )

    def __init__(self, sim: Simulator, size: int):
        if size < 1:
            raise ValueError("ring needs at least one slot")
        self.sim = sim
        self.size = size
        self._requests: Deque[Any] = deque()
        self._responses: Deque[Any] = deque()
        #: slots held: queued requests + in-service + unconsumed responses.
        self.outstanding = 0
        self._space_waiters = WaitQueue(sim)
        self.total_requests = 0
        # The shared-page "event indices" of the real ring protocol,
        # reduced to their boolean meaning: whether each side currently
        # wants a notification.  Only the side that *wants* the wakeup
        # ever writes its own flag (armed before sleeping, cleared on
        # wake); the other side reads it in its
        # RING_PUSH_*_AND_CHECK_NOTIFY moment and skips the notify
        # hypercall when the flag is clear.  Because the notifier never
        # clears the flag, a fault-injected lost notify is healed by the
        # next push -- the flag is still armed.
        #: netback wants a kick when requests are pushed (armed while its
        #: drain worker sleeps).
        self.req_event_armed = True
        #: netfront wants an upcall when responses are pushed (armed only
        #: while blocked on ring space -- completions are otherwise
        #: reclaimed lazily in the transmit loop, NAPI-style).
        self.rsp_event_armed = True

    def snapshot_state(self) -> dict:
        """Ring occupancy, counters, and notify-arming flags for the
        snapshot manifest (slot payloads are live objects owned by
        netfront/netback; a restore rebuilds them by replay)."""
        return {
            "size": self.size,
            "queued_requests": len(self._requests),
            "queued_responses": len(self._responses),
            "outstanding": self.outstanding,
            "space_waiters": len(self._space_waiters),
            "total_requests": self.total_requests,
            "req_event_armed": self.req_event_armed,
            "rsp_event_armed": self.rsp_event_armed,
        }

    # -- producer side (e.g. netfront tx) ---------------------------------
    @property
    def free_slots(self) -> int:
        """Slots available to the producer right now."""
        return self.size - self.outstanding

    def push_request(self, item: Any) -> None:
        """Producer: occupy a slot with a request (raises when full)."""
        if self.outstanding >= self.size:
            raise RingFullError("no free slots")
        self._requests.append(item)
        self.outstanding += 1
        self.total_requests += 1

    def wait_space(self) -> Event:
        """Event firing once at least one slot is free."""
        if self.free_slots > 0:
            return self.sim.event(name="ring-space").succeed()
        return self._space_waiters.wait("ring-space")

    def pop_response(self) -> Optional[Any]:
        """Producer: consume a response, freeing its slot."""
        if not self._responses:
            return None
        item = self._responses.popleft()
        self.outstanding -= 1
        self._space_waiters.wake_one()
        return item

    # -- consumer side (e.g. netback) ----------------------------------------
    def pop_request(self) -> Optional[Any]:
        """Consumer: take the oldest request (None when empty)."""
        if not self._requests:
            return None
        return self._requests.popleft()

    def push_response(self, item: Any) -> None:
        """Consumer: complete a request (slot frees at pop_response)."""
        self._responses.append(item)

    @property
    def has_requests(self) -> bool:
        """Whether any requests await the consumer."""
        return bool(self._requests)

    @property
    def has_responses(self) -> bool:
        """Whether any responses await the producer."""
        return bool(self._responses)
