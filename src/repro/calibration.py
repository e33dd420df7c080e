"""Cost model for the simulated testbed.

Every CPU/latency constant used anywhere in the simulation lives in
:class:`CostModel`.  The default values (:data:`DEFAULT_COSTS`) are
calibrated so that the four evaluation scenarios land near the paper's
Tables 1-3 on the authors' testbed (dual-core Pentium D 2.8 GHz, Xen
3.2, Linux 2.6.18, 1 Gbps Ethernet).  The *structure* of the model --
which operations cost what, and on whose CPU -- is the part that
matters; see DESIGN.md section 4.

All times are in seconds, all rates in bytes/second.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

__all__ = ["CostModel", "DEFAULT_COSTS"]


@dataclass(frozen=True)
class CostModel:
    """Calibrated cost constants for the simulated testbed."""

    # ------------------------------------------------------------------
    # Raw machine parameters
    # ------------------------------------------------------------------
    #: memcpy bandwidth (bytes/s); every data copy is charged at this rate.
    memcpy_bps: float = 1.7e9
    #: checksum/verify bandwidth (bytes/s) for TCP/UDP checksumming.
    checksum_bps: float = 3.5e9
    #: penalty added when a CPU core switches between domains (TLB/cache).
    domain_switch_penalty: float = 2.5e-6

    # ------------------------------------------------------------------
    # Hypervisor primitives (Xen substrate)
    # ------------------------------------------------------------------
    #: base cost of any hypercall, charged to the calling domain.
    hypercall: float = 0.7e-6
    #: extra cost of mapping one granted page (on top of the hypercall).
    grant_map_page: float = 0.9e-6
    #: extra cost of unmapping one granted page.
    grant_unmap_page: float = 0.7e-6
    #: extra cost of a page transfer (GNTTABOP_transfer), per page.
    grant_transfer_page: float = 1.1e-6
    #: cost of zeroing a page before sharing/transferring it (security).
    page_zero: float = 0.9e-6
    #: grant/revoke at the granting side: table write, NO hypercall.
    grant_entry_update: float = 0.15e-6
    #: event-channel send (notify) hypercall cost at the sender.
    evtchn_send: float = 0.7e-6
    #: latency from notify until the target vCPU's handler starts,
    #: assuming the target is idle (virtual IRQ delivery + scheduler).
    virq_delivery_latency: float = 9.0e-6
    #: relative jitter on virq delivery: the actual latency is uniform in
    #: ``virq_delivery_latency * [1 - j/2, 1 + j/2]`` (mean unchanged).
    #: Models the variance of upcall delivery depending on what the
    #: target vCPU is doing; this burstiness is what FIFO capacity
    #: absorbs in Fig. 5.
    virq_jitter: float = 0.5
    #: cost charged to the target domain for taking the virtual IRQ.
    virq_entry: float = 1.2e-6
    #: one XenStore operation (read/write/ls), charged to the caller.
    xenstore_op: float = 8.0e-6

    # ------------------------------------------------------------------
    # Guest/host network stack (per packet unless noted)
    # ------------------------------------------------------------------
    #: user/kernel crossing for one socket syscall (send/recv).
    syscall: float = 1.3e-6
    #: socket-layer bookkeeping per operation.
    socket_layer: float = 0.5e-6
    #: UDP transport processing per datagram.
    udp_layer: float = 1.0e-6
    #: TCP transport processing per segment (send or receive side).
    tcp_layer: float = 1.3e-6
    #: IPv4 layer per packet (route lookup, header build/verify).
    ip_layer: float = 0.5e-6
    #: ICMP processing per message.
    icmp_layer: float = 0.5e-6
    #: invoking one netfilter hook chain.
    netfilter_hook: float = 0.05e-6
    #: building/parsing one IP fragment beyond the first.
    ip_fragment: float = 0.45e-6
    #: neighbour-cache (ARP) lookup.
    arp_lookup: float = 0.05e-6
    #: process wakeup (scheduler) when data arrives for a blocked socket.
    process_wakeup: float = 3.0e-6

    # ------------------------------------------------------------------
    # Devices
    # ------------------------------------------------------------------
    #: loopback device per-packet cost (softirq reinjection).
    loopback_xmit: float = 1.0e-6
    #: physical wire rate (bytes/s) -- 1 Gbps Ethernet.
    wire_bps: float = 125e6
    #: per-frame overhead on the wire (preamble+IFG+CRC, bytes).
    wire_frame_overhead: int = 24
    #: store-and-forward switch latency per frame (plus serialization).
    switch_latency: float = 2.0e-6
    #: NIC driver per-frame transmit cost (descriptor + doorbell).
    nic_tx: float = 0.8e-6
    #: NIC receive interrupt/NAPI latency before the frame reaches the
    #: stack (models interrupt moderation on the testbed's e1000).
    nic_rx_latency: float = 40.0e-6
    #: NIC driver per-frame receive cost.
    nic_rx: float = 0.9e-6
    #: DMA bandwidth between NIC and memory (bytes/s).
    nic_dma_bps: float = 8.0e9

    # ------------------------------------------------------------------
    # Split driver (netfront/netback) and Dom0 bridge
    # ------------------------------------------------------------------
    #: netfront per-packet transmit bookkeeping (ring request build).
    netfront_tx: float = 1.0e-6
    #: netfront per-packet receive bookkeeping.
    netfront_rx: float = 1.1e-6
    #: netback per-packet processing (request parse, skb build).
    netback_per_packet: float = 1.6e-6
    #: scheduling latency before the driver domain's netback worker runs
    #: after an event-channel kick (credit-scheduler delay with three
    #: schedulable domains on two cores).
    dom0_wakeup_latency: float = 12.0e-6
    #: Dom0 software bridge per-frame forwarding cost.
    bridge_forward: float = 0.9e-6
    #: below this size netback copies into a pre-shared page instead of
    #: doing a page grant-transfer on the guest-receive path (bytes).
    netback_copy_threshold: int = 512
    #: ring size (slots) for netfront/netback rings.
    ring_size: int = 256

    # ------------------------------------------------------------------
    # XenLoop module
    # ------------------------------------------------------------------
    #: software-bridge lookup in the XenLoop hook, per packet.
    xenloop_lookup: float = 0.15e-6
    #: FIFO push/pop bookkeeping per packet (indices, metadata).
    xenloop_fifo_op: float = 0.3e-6
    #: NAPI-style weight of the channel's drain worker: max FIFO entries
    #: popped (and delivered) per charged batch before the worker yields
    #: the CPU segment.  Bounds the latency distortion of batched cost
    #: charging and caps how long the consumer runs with notifications
    #: disarmed (the CONSUMER_WAITING bit stays clear while draining).
    xenloop_napi_budget: int = 64
    #: domain-discovery scan period in Dom0 (seconds); paper: 5 s.
    discovery_period: float = 5.0
    #: zero-copy-receive ablation only: how long FIFO slots stay held
    #: after protocol processing until the application's read copies the
    #: payload out of the sk_buff that points into the FIFO (process
    #: wakeup + syscall + user copy under load).  This is the
    #: "back-pressure on the sender" the paper cites for rejecting the
    #: zero-copy design (Sect. 3.3).
    zerocopy_hold: float = 30.0e-6
    #: channel-bootstrap create_channel retry timeout (seconds).
    bootstrap_timeout: float = 0.05
    #: number of create_channel retries before giving up; paper: 3.
    bootstrap_retries: int = 3

    # ------------------------------------------------------------------
    # TCP model parameters
    # ------------------------------------------------------------------
    #: maximum GSO super-segment size on virtual/loopback devices (bytes).
    gso_max: int = 16384
    #: TCP receive window (bytes) -- fixed, no dynamic tuning.
    tcp_window: int = 262144
    #: MSS fallback when the device has no GSO (bytes of payload).
    mss: int = 1448
    #: retransmission timeout (fixed; Linux's minimum RTO is 200 ms).
    #: Loss comes from frames in flight during a live migration's
    #: downtime window and from bridge-path drops injected through the
    #: fault plan (``faults.PKT_LOSS``); the RTO recovers both.
    tcp_rto: float = 0.2
    #: duplicate-ACK threshold for fast retransmit (RFC 5681: 3).
    tcp_dupack_threshold: int = 3

    # ------------------------------------------------------------------
    # Migration model
    # ------------------------------------------------------------------
    #: stop-and-copy downtime for a 512 MB guest on the testbed.
    migration_downtime: float = 0.12
    #: total live-migration duration (pre-copy phase included).
    migration_duration: float = 3.0

    def copy_cost(self, nbytes: int) -> float:
        """CPU time to copy ``nbytes`` (memcpy model)."""
        return nbytes / self.memcpy_bps

    def checksum_cost(self, nbytes: int) -> float:
        """CPU time to checksum ``nbytes``."""
        return nbytes / self.checksum_bps

    def wire_time(self, nbytes: int) -> float:
        """Serialization delay of one ``nbytes`` frame on the wire."""
        return (nbytes + self.wire_frame_overhead) / self.wire_bps

    def dma_cost(self, nbytes: int) -> float:
        """DMA transfer time between NIC and memory."""
        return nbytes / self.nic_dma_bps

    def replace(self, **kwargs) -> "CostModel":
        """Return a copy with the given fields overridden."""
        return dataclasses.replace(self, **kwargs)


#: Default calibrated model (see EXPERIMENTS.md for paper-vs-measured).
DEFAULT_COSTS = CostModel()
