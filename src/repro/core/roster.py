"""Guest-side roster view: the [guest-ID, MAC] table behind ``mapping``.

Every guest's :class:`~repro.core.control.ControlPlane` keeps one
:class:`RosterView`, and its ``mapping`` *is* the view's ``entries``
dict.  The two discovery modes share the view and differ only in what
Dom0 puts on the wire:

* **Announce mode** (the paper's, ``track_all=True``).  Each scan's
  :class:`~repro.core.protocol.Announce` lists the whole roster; the
  guest applies it with :meth:`RosterView.reconcile` -- an epoch-free
  full sync -- so the view mirrors Dom0's latest table (soft state,
  Sect. 3.2).
* **Delta mode** (the thousand-guest control plane,
  ``track_all=False``).  Dom0 multicasts one
  :class:`~repro.core.protocol.RosterDelta` per *changed* scan plus a
  periodic :class:`~repro.core.protocol.FullSync`, and the view only
  *stores* peers something asked about (a data-path miss resolved via
  WhoIs/PeerInfo, or an inbound handshake), so a guest's table is
  O(active peers) while joins/leaves still flow through for the peers
  it does track.

Delta mode adds two pieces of bookkeeping:

* **Epoch tracking.**  Dom0 increments its epoch once per changed
  scan.  A delta applies only when its epoch is exactly one past the
  last epoch applied here; a gap means a delta was lost (frame drop,
  late boot) and the view flags itself *desynced* and waits for the
  next full sync rather than applying a diff against unknown state.
  Stale/duplicate epochs are ignored, which is what makes the
  receive-side fault tap's ``dup`` rule safe.
* **Negative cache.**  A WhoIs answered "not found" is remembered so
  the data path does not re-query Dom0 on every packet to a
  non-XenLoop destination; any join or full roster listing that MAC
  clears the entry (a full roster clears the whole cache -- it is a
  purely local heuristic and epochs make re-population cheap).

Applying a frame returns the MACs whose channels must retire: tracked
peers that left, or that re-advertised under a new guest-ID (a
crash/restart reusing the MAC).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.protocol import FullSync, RosterDelta
    from repro.net.addr import MacAddr

__all__ = ["RosterView"]


class RosterView:
    """One guest's (possibly sparse) view of the Dom0 roster."""

    def __init__(self, own_mac: "MacAddr", track_all: bool = False):
        self.own_mac = own_mac
        self.track_all = track_all
        #: MAC -> guest-ID of tracked peers (never includes ``own_mac``).
        self.entries: dict["MacAddr", int] = {}
        #: last epoch applied; 0 = never heard from Dom0 (empty base).
        self.epoch = 0
        #: an epoch gap was seen; waiting for a full sync to repair.
        self.desynced = False
        #: MACs Dom0 answered "not a XenLoop peer" (sparse-mode cache).
        self.negative: set["MacAddr"] = set()
        self.deltas_applied = 0
        self.deltas_ignored = 0
        self.deltas_gapped = 0
        self.full_syncs_applied = 0

    # ------------------------------------------------------------------
    # Tracking policy
    # ------------------------------------------------------------------
    def track(self, mac: "MacAddr", domid: int) -> None:
        """Materialize one peer (WhoIs answer / inbound handshake)."""
        if mac != self.own_mac:
            self.entries[mac] = domid
            self.negative.discard(mac)

    def note_negative(self, mac: "MacAddr") -> None:
        """Remember a "not found" WhoIs answer."""
        self.negative.add(mac)

    # ------------------------------------------------------------------
    # Frame application
    # ------------------------------------------------------------------
    def apply_delta(self, msg: "RosterDelta") -> list["MacAddr"] | None:
        """Apply one delta; returns the MACs to retire, or None when the
        frame was ignored (stale/duplicate) or gapped (now desynced)."""
        if msg.epoch <= self.epoch:
            self.deltas_ignored += 1
            return None
        if msg.epoch != self.epoch + 1 or self.desynced:
            # Missed at least one delta: our base no longer matches the
            # scanner's, so diffing against it would corrupt the view.
            self.deltas_gapped += 1
            self.desynced = True
            return None
        self.epoch = msg.epoch
        self.deltas_applied += 1
        retire: list["MacAddr"] = []
        for _domid, mac in msg.leaves:
            if self.entries.pop(mac, None) is not None:
                retire.append(mac)
        for domid, mac in msg.joins:
            if mac == self.own_mac:
                continue
            self.negative.discard(mac)
            known = self.entries.get(mac)
            if known is not None and known != domid:
                retire.append(mac)  # crash/restart reusing the MAC
            if known is not None or self.track_all:
                self.entries[mac] = domid
        return retire

    def apply_full_sync(self, msg: "FullSync") -> list["MacAddr"] | None:
        """Reconcile against the scanner's complete roster; returns the
        MACs to retire, or None when the frame is stale."""
        if msg.epoch < self.epoch:
            self.deltas_ignored += 1
            return None
        self.epoch = msg.epoch
        self.desynced = False
        self.full_syncs_applied += 1
        return self.reconcile(msg.entries)

    def reconcile(self, entries: list[tuple[int, "MacAddr"]]) -> list["MacAddr"]:
        """Epoch-free full sync: replace the view with ``entries`` (a
        FullSync's or an Announce's [guest-ID, MAC] list), restricted to
        tracked peers unless ``track_all``.  Returns the MACs to retire."""
        self.negative.clear()
        roster = {mac: domid for domid, mac in entries if mac != self.own_mac}
        retire: list["MacAddr"] = []
        for mac, known in list(self.entries.items()):
            actual = roster.get(mac)
            if actual is None:
                del self.entries[mac]
                retire.append(mac)
            elif actual != known:
                self.entries[mac] = actual
                retire.append(mac)
        if self.track_all:
            for mac, domid in roster.items():
                self.entries.setdefault(mac, domid)
        return retire

    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict:
        """Complete view state for the snapshot manifest."""
        return {
            "track_all": self.track_all,
            "epoch": self.epoch,
            "desynced": self.desynced,
            "entries": {str(mac): domid for mac, domid in self.entries.items()},
            "negative": sorted(str(mac) for mac in self.negative),
            "deltas_applied": self.deltas_applied,
            "deltas_ignored": self.deltas_ignored,
            "deltas_gapped": self.deltas_gapped,
            "full_syncs_applied": self.full_syncs_applied,
        }
