"""The lockless producer-consumer FIFO (paper Sect. 3.3, "FIFO design").

Faithful to the paper's construction:

* the FIFO occupies shared memory: one *descriptor page* plus a run of
  data pages holding ``2^k`` slots of 8 bytes each;
* each entry is one 8-byte metadata slot (length, type) followed by
  ``ceil(len/8)`` payload slots;
* the ``front`` and ``back`` indices are free-running **m-bit** counters
  (m = 32 here, with m > k), only ever incremented -- ``back`` by the
  producer, ``front`` by the consumer -- so no producer-consumer lock
  and no special wrap-around handling is needed: the occupied slot
  count is always ``(back - front) mod 2^m`` because ``m > k`` keeps
  the two counters within ``2^k <= 2^m`` of each other;
* the descriptor page also carries the channel state flags
  (``ACTIVE``, set at creation, cleared at teardown), the
  ``PRODUCER_WAITING`` bit used to ask the consumer for a
  space-available notification, and the ``CONSUMER_WAITING`` bit the
  consumer arms before sleeping so the producer can suppress the notify
  hypercall while the consumer is known to be awake (the FIFO analogue
  of the ring protocol's event index);
* in the real module the indices live in the shared descriptor page and
  are read/written by two kernel instances; here the descriptor page is
  a uint32 memoryview over genuinely shared
  :class:`~repro.xen.page.SharedRegion` memory, so both domains observe
  the same bytes.  The paper's producer-local / consumer-local
  spinlocks (for multiple producer or consumer *threads* within one
  guest) are subsumed by the simulator's run-to-completion semantics:
  ``push``/``pop`` contain no yield points.

All CPU costs (copy, bookkeeping) are charged by the *callers* in the
channel layer, since sender and receiver pay on their own CPUs.
"""

from __future__ import annotations

import struct
from typing import Optional

from repro.net.packet import WIRE_STATS
from repro.xen.page import PAGE_SIZE, SharedRegion

__all__ = ["Fifo", "FifoLayoutError", "fifo_pages_for_order"]

#: descriptor-page word offsets (uint32).
_MAGIC_WORD = 0
_ORDER_WORD = 1
_FRONT_WORD = 2
_BACK_WORD = 3
_FLAGS_WORD = 4

MAGIC = 0x58454E4C  # "XENL"

FLAG_ACTIVE = 0x1
FLAG_PRODUCER_WAITING = 0x2
FLAG_CONSUMER_WAITING = 0x4

#: byte offset inside the descriptor page where the grant references of
#: the data pages are stored (the bootstrap create_channel message only
#: carries the descriptor page's gref; the connector reads the rest from
#: here, exactly as in Sect. 3.3 "Channel bootstrap").
GREF_TABLE_OFFSET = 64
_GREF_WORD = GREF_TABLE_OFFSET // 4

INDEX_MASK = 0xFFFFFFFF  # m = 32

#: metadata slot: uint32 length | uint16 type | uint16 reserved.
_META = struct.Struct("<IHH")


def fifo_pages_for_order(k: int) -> int:
    """Number of data pages needed for 2^k slots of 8 bytes."""
    return max(1, (8 << k) // PAGE_SIZE)


class FifoLayoutError(Exception):
    """The shared region cannot hold (or does not contain) a valid FIFO."""
    pass


class Fifo:
    """One direction of the XenLoop channel."""

    def __init__(self, region: SharedRegion, k: Optional[int] = None):
        """Wrap ``region`` as a FIFO.

        With ``k`` given, the FIFO is (re)initialized as empty (producer
        side at creation).  With ``k=None`` the layout is read back from
        the descriptor page (consumer side after mapping).
        """
        self.region = region
        # Two memoryviews over the shared bytes: the descriptor page as
        # uint32 words (plain ints), the data pages as bytes (slot copies
        # are single slice assignments).  Both endpoint Fifo objects wrap
        # the SAME region, so every index and flag access goes through
        # shared memory.
        self._desc = region.array[:PAGE_SIZE].cast("I")
        self._data = region.array[PAGE_SIZE:]
        if k is not None:
            if k < 1 or k > 31:
                raise FifoLayoutError(f"k={k} out of range (need 1 <= k <= 31, m=32)")
            if len(self._data) < (8 << k):
                raise FifoLayoutError(
                    f"region has {len(self._data)} data bytes, need {8 << k}"
                )
            self._desc[_MAGIC_WORD] = MAGIC
            self._desc[_ORDER_WORD] = k
            self._desc[_FRONT_WORD] = 0
            self._desc[_BACK_WORD] = 0
            self._desc[_FLAGS_WORD] = FLAG_ACTIVE
        else:
            if self._desc[_MAGIC_WORD] != MAGIC:
                raise FifoLayoutError("descriptor page has no XenLoop magic")
            k = self._desc[_ORDER_WORD]
        self.k = k
        self.size = 1 << k
        self.mask = self.size - 1
        self._ring_bytes = self.size * 8
        self.pushes = 0
        self.pops = 0
        self.push_failures = 0

    # -- descriptor state ---------------------------------------------------
    @property
    def front(self) -> int:
        """Consumer index (free-running 32-bit counter in the descriptor page)."""
        return self._desc[_FRONT_WORD]

    @property
    def back(self) -> int:
        """Producer index (free-running 32-bit counter in the descriptor page)."""
        return self._desc[_BACK_WORD]

    @property
    def used_slots(self) -> int:
        """Occupied slots: ``(back - front) mod 2^32`` -- valid because m > k."""
        return (self.back - self.front) & INDEX_MASK

    @property
    def free_slots(self) -> int:
        """Slots available to the producer right now."""
        return self.size - self.used_slots

    @property
    def is_empty(self) -> bool:
        """True when the consumer has caught up with the producer."""
        return self.front == self.back

    @property
    def active(self) -> bool:
        """The shared ACTIVE flag (cleared by channel teardown)."""
        return bool(self._desc[_FLAGS_WORD] & FLAG_ACTIVE)

    def snapshot_state(self) -> dict:
        """Descriptor words, counters, and a digest of the data bytes.

        The full ring contents enter the snapshot as a sha256 over the
        data region (in-flight bytes are captured verifiably without
        bloating the manifest); the descriptor words -- front, back,
        flags, order -- are recorded verbatim, so two FIFOs with equal
        snapshots hold bit-identical shared pages.
        """
        import hashlib

        return {
            "order": self.k,
            "front": self.front,
            "back": self.back,
            "flags": self._desc[_FLAGS_WORD],
            "used_slots": self.used_slots,
            "pushes": self.pushes,
            "pops": self.pops,
            "push_failures": self.push_failures,
            "data_sha256": hashlib.sha256(self._data).hexdigest(),
        }

    def mark_inactive(self) -> None:
        """Clear ACTIVE in the shared descriptor (channel teardown)."""
        self._desc[_FLAGS_WORD] &= ~FLAG_ACTIVE

    @property
    def producer_waiting(self) -> bool:
        """Shared flag: the producer queued packets awaiting space."""
        return bool(self._desc[_FLAGS_WORD] & FLAG_PRODUCER_WAITING)

    def set_producer_waiting(self) -> None:
        """Ask the consumer for a space-available notification."""
        self._desc[_FLAGS_WORD] |= FLAG_PRODUCER_WAITING

    def clear_producer_waiting(self) -> None:
        """Acknowledge the space request (consumer side)."""
        self._desc[_FLAGS_WORD] &= ~FLAG_PRODUCER_WAITING

    @property
    def consumer_waiting(self) -> bool:
        """Shared flag: the consumer is (about to be) blocked and wants a
        data-available notification.  While clear, the producer may skip
        the notify hypercall entirely -- the consumer is awake and will
        find the entry on its final pre-sleep occupancy re-check."""
        return bool(self._desc[_FLAGS_WORD] & FLAG_CONSUMER_WAITING)

    def set_consumer_waiting(self) -> None:
        """Arm data-available notifications (consumer side, pre-sleep).

        Only the consumer ever sets or clears this bit: a producer that
        finds it set keeps notifying on every push until the consumer
        wakes and clears it, which is what makes a single lost notify
        recoverable by the next push."""
        self._desc[_FLAGS_WORD] |= FLAG_CONSUMER_WAITING

    def clear_consumer_waiting(self) -> None:
        """Disarm data-available notifications (consumer side, on wake)."""
        self._desc[_FLAGS_WORD] &= ~FLAG_CONSUMER_WAITING

    # -- capacity -------------------------------------------------------------
    @property
    def capacity_bytes(self) -> int:
        """Largest payload that can *ever* fit (one entry in an empty FIFO)."""
        return (self.size - 1) * 8

    @staticmethod
    def slots_needed(nbytes: int) -> int:
        """Slots one entry occupies: 1 metadata slot + ceil(len/8) payload slots."""
        return 1 + (nbytes + 7) // 8

    def fits(self, nbytes: int) -> bool:
        """Whether a payload of ``nbytes`` could fit in an *empty* FIFO."""
        return self.slots_needed(nbytes) <= self.size

    # -- the lockless operations ------------------------------------------
    def push(self, parts, msg_type: int = 1) -> bool:
        """Producer: append one entry.  ``parts`` is a sequence of buffers
        (bytes/memoryview) that together form the entry; each is written
        straight into the ring, so header and payload views never get
        joined into an intermediate bytes object.  Returns False when
        there is no room (the caller puts the entry on its waiting list,
        Sect. 3.1)."""
        total = 0
        for part in parts:
            total += len(part)
        need = 1 + (total + 7) // 8
        desc = self._desc
        back = desc[_BACK_WORD]
        if need > self.size - ((back - desc[_FRONT_WORD]) & INDEX_MASK):
            self.push_failures += 1
            return False
        slot = back & self.mask
        _META.pack_into(self._data, slot * 8, total, msg_type, 0)
        self._write_stream((back + 1) & self.mask, parts)
        # Single index store *after* the data write publishes the entry.
        desc[_BACK_WORD] = (back + need) & INDEX_MASK
        self.pushes += 1
        WIRE_STATS.fifo_bytes_in += total
        return True

    def pop(self) -> Optional[tuple[int, bytes]]:
        """Consumer: remove the oldest entry; returns (type, payload).

        The payload is materialized in a single pass even when the entry
        wraps around the ring edge (one join of the two ring views)."""
        entry = self.peek_view()
        if entry is None:
            return None
        msg_type, segments, need = entry
        payload = bytes(segments[0]) if len(segments) == 1 else b"".join(segments)
        WIRE_STATS.fifo_bytes_out += len(payload)
        self.advance(need)
        return msg_type, payload

    def peek_view(self) -> Optional[tuple[int, tuple, int]]:
        """Consumer: zero-copy view of the oldest entry's payload.

        Returns (type, segments, slots) where ``segments`` is a tuple of
        one or two memoryviews into the ring (two iff the entry wraps).
        Nothing is copied here: the views alias shared ring memory and
        stay valid until :meth:`advance` releases the slots, so callers
        must finish reading (or materialize -- e.g. via
        ``Packet.from_l3_bytes``, the receive path's single
        materialization point) before advancing.  :meth:`pop` copies
        the views out; the zero-copy receive variant (the design
        alternative of Sect. 3.3 in which the sk_buff points into the
        FIFO and the space is released only after protocol processing)
        reads them in place.
        """
        desc = self._desc
        front = desc[_FRONT_WORD]
        if front == desc[_BACK_WORD]:
            return None
        mv = self._data
        length, msg_type, _rsvd = _META.unpack_from(mv, (front & self.mask) * 8)
        need = 1 + (length + 7) // 8
        start = ((front + 1) & self.mask) * 8
        end = start + length
        ring_bytes = self._ring_bytes
        if end <= ring_bytes:
            segments = (mv[start:end],)
        else:
            segments = (mv[start:ring_bytes], mv[: end - ring_bytes])
        return msg_type, segments, need

    def advance(self, slots: int) -> None:
        """Consumer: release ``slots`` (from a previous :meth:`peek_view`)."""
        desc = self._desc
        desc[_FRONT_WORD] = (desc[_FRONT_WORD] + slots) & INDEX_MASK
        self.pops += 1

    # -- raw slot I/O with wrap-around ---------------------------------------
    def _write_stream(self, slot: int, parts) -> None:
        """Write ``parts`` contiguously into the ring starting at ``slot``,
        wrapping at the ring edge.  Each part is copied exactly once,
        directly from the caller's buffer into shared memory."""
        mv = self._data
        ring_bytes = self._ring_bytes
        pos = slot * 8
        for part in parts:
            n = len(part)
            end = pos + n
            if end <= ring_bytes:
                mv[pos:end] = part
                pos = 0 if end == ring_bytes else end
            else:
                first = ring_bytes - pos
                with memoryview(part) as pmv:
                    mv[pos:ring_bytes] = pmv[:first]
                    mv[: n - first] = pmv[first:]
                pos = n - first

    # -- gref table (bootstrap) ------------------------------------------
    def store_grefs(self, grefs: list[int]) -> None:
        """Record the data pages' grant references in the descriptor page:
        a count word, then one word per reference."""
        desc = self._desc
        desc[_GREF_WORD] = len(grefs)
        for i, gref in enumerate(grefs, _GREF_WORD + 1):
            desc[i] = gref

    def load_grefs(self) -> list[int]:
        """Read the data-page grant references back from the descriptor page."""
        start = _GREF_WORD + 1
        return self._desc[start : start + self._desc[_GREF_WORD]].tolist()

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<Fifo k={self.k} used={self.used_slots}/{self.size} "
            f"{'active' if self.active else 'inactive'}>"
        )
