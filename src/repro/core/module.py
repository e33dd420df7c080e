"""The guest-resident XenLoop module (paper Sect. 3.1).

A self-contained "kernel module": it registers a netfilter hook beneath
the network layer and splits its work across the two planes the paper
describes separately:

* **Data plane** (this file + :mod:`repro.core.channel`): the
  per-packet dispatch in :meth:`XenLoopModule._post_routing_hook` --
  resolve the next hop's MAC through the neighbour (ARP) cache; if that
  MAC belongs to a co-resident guest with a connected channel and the
  packet fits the FIFO, copy it onto the channel (STOLEN); otherwise
  let it continue down the standard netfront/netback path (ACCEPT).
  The hook only ever *reads* the control plane's tables.
* **Control plane** (:mod:`repro.core.control`): the [guest-ID, MAC]
  mapping table fed by Dom0 discovery announcements, channel bootstrap
  and teardown, the idle reaper, and the module-unload / guest-shutdown
  / live-migration responses.  Owned by ``self.control``, a
  :class:`~repro.core.control.ControlPlane`, whose methods the module
  registers directly as the guest's control-frame handler and its
  shutdown and migration callbacks; the module exposes read-only views
  (``mapping``, ``channels``) for the hook and for observers.

The control plane tells the module of one lifecycle event only: every
new channel is passed to :meth:`XenLoopModule.channel_created`, a no-op
here that the socket-bypass variant overrides to attach its stream
handler.

Ordering note: packets taking different paths (channel vs. standard)
can be reordered relative to each other -- a too-big datagram on the
slow path can be overtaken by a later small one through the FIFO.  The
real XenLoop has the same property; it is invisible to TCP (sequence
numbers) and permitted for UDP.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.core.channel import Channel, ChannelState
from repro.core.control import ControlPlane
from repro.net.addr import MacAddr
from repro.net.ethernet import ETH_P_IP, ETH_P_XENLOOP
from repro.net.netfilter import HookPoint, Verdict
from repro.net.packet import EthHeader, Packet

if TYPE_CHECKING:  # pragma: no cover
    from repro.xen.domain import Domain

__all__ = ["XenLoopModule"]


class XenLoopModule:
    """The self-contained guest 'kernel module' of the paper."""
    def __init__(
        self,
        guest: "Domain",
        fifo_order: int = 13,
        idle_timeout: Optional[float] = None,
        zero_copy_rx: bool = False,
    ):
        """Load the module into ``guest``.

        ``fifo_order``: k, so each FIFO holds 2^k 8-byte slots (the
        paper's default channel uses 64 KB per direction = k=13).
        ``idle_timeout``: optionally tear down channels with no traffic
        for this many seconds ("conserve system resources", Sect. 3.1).
        ``zero_copy_rx``: use the receive-side zero-copy variant the
        paper evaluated and rejected (ablation only).
        """
        if guest.stack is None or guest.netfront is None:
            raise ValueError("XenLoop needs a guest with a vif network stack")
        self.guest = guest
        self.fifo_order = fifo_order
        self.idle_timeout = idle_timeout
        self.zero_copy_rx = zero_copy_rx
        self.loaded = True

        #: the control plane: mapping/channel tables, bootstrap,
        #: teardown, idle reaping, migration response.
        self.control = ControlPlane(self)

        # Statistics (data-plane dispatch counters).
        self.pkts_via_channel = 0
        self.pkts_via_standard = 0
        self.pkts_too_big = 0

        control = self.control
        stack = guest.stack
        stack.netfilter.register(HookPoint.POST_ROUTING, self._post_routing_hook)
        stack.register_ethertype(ETH_P_XENLOOP, control.control_input)
        guest.pre_migrate_callbacks.append(control.pre_migrate)
        guest.post_migrate_callbacks.append(control.post_migrate)
        guest.shutdown_callbacks.append(control.shutdown)

        guest.spawn(control.advertise(), name="xenloop-advertise")
        if idle_timeout is not None:
            guest.spawn(control.idle_monitor(), name="xenloop-idle")

    # ------------------------------------------------------------------
    # Read-only views of the control plane's tables
    # ------------------------------------------------------------------
    @property
    def mapping(self) -> dict[MacAddr, int]:
        """MAC -> guest-ID of co-resident XenLoop-willing guests."""
        return self.control.mapping

    @property
    def channels(self) -> dict[MacAddr, Channel]:
        """MAC -> live channel endpoint."""
        return self.control.channels

    @property
    def announcements_seen(self) -> int:
        return self.control.announcements_seen

    def snapshot_state(self) -> dict:
        """Control plane and dispatch counters -- the
        whole per-guest module state for the snapshot manifest."""
        return {
            "loaded": self.loaded,
            "fifo_order": self.fifo_order,
            "control": self.control.snapshot_state(),
            "pkts_via_channel": self.pkts_via_channel,
            "pkts_via_standard": self.pkts_via_standard,
            "pkts_too_big": self.pkts_too_big,
        }

    # ------------------------------------------------------------------
    # The netfilter hook (sender context) -- the data plane
    # ------------------------------------------------------------------
    def _post_routing_hook(self, packet: Packet, dev):
        guest = self.guest
        if not self.loaded or dev is not guest.netfront.vif or packet.ip is None:
            return Verdict.ACCEPT
        # The hash-table lookup cost: everything between here and the
        # channel send is pure bookkeeping with no yield point, so on the
        # fast path the lookup is handed to send_packet as a precharge
        # (folded into its first CPU segment); the slower ACCEPT paths
        # charge it standalone as before.
        lookup = guest.costs.xenloop_lookup
        stack = guest.stack
        dst = packet.ip.dst
        if stack.ipv4.on_subnet(dst):
            next_hop = dst
        elif stack.gateway is not None:
            next_hop = stack.gateway
        else:
            yield guest.exec(lookup)
            return Verdict.ACCEPT
        mac = stack.arp.lookup(next_hop)
        if mac is None:
            yield guest.exec(lookup)
            return Verdict.ACCEPT  # let the standard path trigger ARP
        control = self.control
        peer_domid = control.mapping.get(mac)
        if peer_domid is None:
            yield guest.exec(lookup)
            self.pkts_via_standard += 1
            return Verdict.ACCEPT
        channel = control.channels_by_domid.get(peer_domid)
        if channel is None:
            yield guest.exec(lookup)
            control.initiate_bootstrap(mac, peer_domid)
            self.pkts_via_standard += 1
            return Verdict.ACCEPT
        if channel.state is not ChannelState.CONNECTED:
            yield guest.exec(lookup)
            self.pkts_via_standard += 1
            return Verdict.ACCEPT
        if not channel.fits(packet.l3_len):
            yield guest.exec(lookup)
            self.pkts_too_big += 1
            self.pkts_via_standard += 1
            return Verdict.ACCEPT
        taken = yield from channel.send_packet(packet, precharge=lookup)
        if not taken:
            # Channel went inactive under us (peer teardown/migration).
            self.pkts_via_standard += 1
            return Verdict.ACCEPT
        self.pkts_via_channel += 1
        return Verdict.STOLEN

    # ------------------------------------------------------------------
    # Control-plane services (the wire-facing surface stays on the
    # module: send_control is monkeypatch-friendly)
    # ------------------------------------------------------------------
    def send_control(self, dst_mac: MacAddr, msg):
        """Send an out-of-band XenLoop-type control frame via the standard
        netfront path (generator).

        This is the fault-injection tap point for control-frame loss,
        delay, and duplication (see :mod:`repro.faults`): with no plan
        installed the frame goes out exactly as before."""
        guest = self.guest
        repeats = 1
        plan = guest.sim.fault_plan
        if plan is not None and plan.has_control_rules:
            deliver, delay, dup = plan.on_control(guest.name, type(msg).__name__)
            if not deliver:
                return
            if delay > 0.0:
                yield guest.sim.timeout(delay)
            repeats += dup
        vif = guest.netfront.vif
        payload = msg.to_bytes()
        for _ in range(repeats):
            yield from guest.stack.link_output(vif, dst_mac, ETH_P_XENLOOP, payload)

    def channel_created(self, channel: Channel) -> None:
        """The control plane registered a new channel (any handshake
        path).  A no-op here; the socket-bypass variant overrides it to
        attach its stream handler."""

    def resend_via_standard_path(self, l3_bytes: bytes) -> None:
        """Re-send a saved packet over netfront (after teardown/migration)."""
        packet = Packet.from_l3_bytes(l3_bytes)
        guest = self.guest

        def _resend():
            stack = guest.stack
            mac = stack.arp.lookup(packet.ip.dst)
            if mac is None:
                mac = yield from stack.arp.resolve(packet.ip.dst)
                if mac is None:
                    return
            vif = guest.netfront.vif
            packet.eth = EthHeader(dst=mac, src=vif.mac, ethertype=ETH_P_IP)
            yield guest.exec(vif.tx_cost(packet))
            yield vif.queue_xmit(packet)

        guest.spawn(_resend(), name="xl-resend")

    # ------------------------------------------------------------------
    # Lifecycle: unload, shutdown, migration (Sect. 3.3-3.4)
    # ------------------------------------------------------------------
    def unload(self):
        """Remove the module (generator): forestall new connections, tear
        down all channels, unregister hooks."""
        if not self.loaded:
            return
        self.loaded = False
        control = self.control
        yield from control.unadvertise()
        for channel in list(control.channels.values()):
            saved = yield from channel.ctrl.teardown()
            for data in saved:
                self.resend_via_standard_path(data)
        guest = self.guest
        guest.stack.netfilter.unregister(HookPoint.POST_ROUTING, self._post_routing_hook)
        guest.stack.unregister_ethertype(ETH_P_XENLOOP)
        if guest.stack.transport_intercept is self:
            guest.stack.transport_intercept = None
        if control.pre_migrate in guest.pre_migrate_callbacks:
            guest.pre_migrate_callbacks.remove(control.pre_migrate)
        if control.post_migrate in guest.post_migrate_callbacks:
            guest.post_migrate_callbacks.remove(control.post_migrate)
        if control.shutdown in guest.shutdown_callbacks:
            guest.shutdown_callbacks.remove(control.shutdown)

    def stats(self) -> dict[str, int]:
        """Snapshot of per-module packet and channel counters."""
        return {
            "via_channel": self.pkts_via_channel,
            "via_standard": self.pkts_via_standard,
            "too_big": self.pkts_too_big,
            "channels": len(self.control.channels),
            "announcements": self.control.announcements_seen,
        }
