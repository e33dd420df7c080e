"""Simplified TCP: handshake, reliable byte stream, GSO-sized segments,
immediate ACKs, RTO and fast retransmission, RFC-shaped congestion control.

Scope (documented in DESIGN.md): the FIFO falls back to netfront when
full and rings apply backpressure, but packets *can* be lost -- frames
in flight during a live migration's downtime window, and bridge-path
drops injected through the fault plan (:data:`repro.faults.PKT_LOSS`).
What is modelled, because the paper's numbers (and the loss-shaped
scenarios that extend them) depend on it:

* segment sizing from the route's device (GSO super-segments on
  virtual/loopback devices vs. MSS-sized segments on the physical NIC),
* flow control via the advertised receive window (this is what causes
  the large-message back-pressure effects in Figs. 8-9),
* a fixed-RTO retransmit timer: an RTO resends the unacked head that
  the collapsed window covers, and ACK-clocked recovery resends the rest,
* congestion control: slow start, AIMD congestion avoidance, dup-ACK
  fast retransmit and NewReno-style fast recovery.  ``cwnd`` composes
  with the peer's advertised window in
  :meth:`TcpConnection._window_avail`; every connection starts at
  RFC 6928's initial window of :data:`INITIAL_WINDOW` segments and
  grows to the ``tcp_window`` cap,
* per-segment transport CPU plus checksum and copy costs,
* ACK traffic flowing back through the same channel as data,
* out-of-order segment buffering, needed when a connection's packets
  switch between the netfront path and the XenLoop channel in flight
  (channel bootstrap, teardown, migration) -- and every segment that
  carries payload or FIN is ACKed, *including duplicates*: a
  below-window segment means the peer missed our ACK, and staying
  silent would leave its retransmit loop live-locked,
* RST on demux miss (non-SYN segments with no matching connection), so
  a peer whose final ACK was lost is told to stop retransmitting
  instead of go-back-N-ing into the void forever.

Sequence numbers are carried modulo 2^32 on the wire (the FIFO
round-trips real bytes) but connections are assumed to transfer less
than 4 GB, which every benchmark in the paper satisfies per run.
"""

from __future__ import annotations

from collections import Counter, deque
from typing import TYPE_CHECKING, Optional

from repro.net.addr import IPv4Addr
from repro.net.ethernet import IPPROTO_TCP
from repro.net.packet import (
    Packet,
    TCP_ACK,
    TCP_FIN,
    TCP_PSH,
    TCP_RST,
    TCP_SYN,
    TcpHeader,
)
from repro.sim.resources import WaitQueue

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.stack import NetworkStack

__all__ = ["ByteQueue", "StreamReceiver", "TcpConnection", "TcpLayer", "TcpListener"]

#: implicit window-scale shift applied to the 16-bit wire window field.
WINDOW_SCALE = 3

EPHEMERAL_BASE = 32768

#: out-of-order-buffer sentinel marking a FIN (identity-compared, so it
#: can never collide with real payload bytes).
_FIN_SENTINEL = b"\x00FIN-SENTINEL"

# Connection states (subset of the RFC 793 machine).
CLOSED = "CLOSED"
SYN_SENT = "SYN_SENT"
SYN_RCVD = "SYN_RCVD"
ESTABLISHED = "ESTABLISHED"
FIN_WAIT = "FIN_WAIT"
CLOSE_WAIT = "CLOSE_WAIT"
LAST_ACK = "LAST_ACK"

#: initial congestion window in MSS units (RFC 6928's IW10).
INITIAL_WINDOW = 10

#: bound on the per-connection cwnd trace (oldest entries roll off).
_CWND_TRACE_MAX = 256

#: per-connection counters aggregated into the owning layer when the
#: connection is forgotten (key -> TcpConnection attribute).
_CC_ROLLUP = (
    ("retransmissions", "retransmissions"),
    ("fast_retransmits", "fast_retransmits"),
    ("rto_retransmits", "rto_retransmits"),
    ("dup_acks", "dup_acks_rcvd"),
    ("dup_segments", "dup_segments"),
)


class ByteQueue:
    """FIFO byte buffer kept as the chunks appended to it: ``take``
    splits at most one chunk, and ``len()`` is the byte count."""

    __slots__ = ("_chunks", "_nbytes")

    def __init__(self):
        self._chunks: deque[bytes] = deque()
        self._nbytes = 0

    def __len__(self) -> int:
        return self._nbytes

    def append(self, data: bytes) -> None:
        """Queue ``data`` behind everything already buffered."""
        self._chunks.append(data)
        self._nbytes += len(data)

    def take(self, n: int) -> bytes:
        """Remove and return the oldest ``min(n, len(self))`` bytes."""
        chunks = self._chunks
        parts: list[bytes] = []
        taken = 0
        while chunks and taken < n:
            head = chunks[0]
            want = n - taken
            if len(head) <= want:
                parts.append(chunks.popleft())
                taken += len(head)
            else:
                parts.append(head[:want])
                chunks[0] = head[want:]
                taken += want
        self._nbytes -= taken
        return b"".join(parts)


class StreamReceiver:
    """The receive half of a byte-stream socket, shared by
    :class:`TcpConnection` and the socket-bypass stream so that readers
    of either see the same semantics: buffer, blocked readers, ``recv``
    and ``recv_exactly``."""

    _EOF_ERROR: type = OSError  # what recv_exactly raises on early EOF

    def _init_receiver(self, node) -> None:
        self._rx_node = node
        self._recv_buf = ByteQueue()
        self._readers = WaitQueue(node.sim)
        self.eof = False
        self.bytes_received = 0

    def recv(self, max_bytes: int):
        """Blocking receive of up to ``max_bytes``; b"" signals EOF."""
        node = self._rx_node
        yield node.exec(node.costs.syscall + node.costs.socket_layer)
        while not self._recv_buf and not self.eof:
            yield self._readers.wait("stream-recv")
        if not self._recv_buf:
            return b""
        was_shut = self._window_shut()
        data = self._recv_buf.take(max_bytes)
        yield node.exec(node.costs.copy_cost(len(data)))  # kernel->user
        if was_shut and not self._window_shut():
            # Window update: reopen a peer stalled on a zero window (real
            # TCP relies on persist-timer probes; lossless paths let the
            # receiver volunteer the update instead).
            yield from self._send_pure_ack()
        return data

    def recv_exactly(self, n: int):
        """Receive exactly ``n`` bytes (generator); raises on early EOF."""
        parts: list[bytes] = []
        got = 0
        while got < n:
            chunk = yield from self.recv(n - got)
            if not chunk:
                raise self._EOF_ERROR(f"connection closed after {got}/{n} bytes")
            parts.append(chunk)
            got += len(chunk)
        return b"".join(parts)

    def _window_shut(self) -> bool:
        # TCP overrides this (and sends the update); a stream with no
        # advertised window never has one to reopen.
        return False

    def _deliver(self, data: bytes) -> None:
        self.bytes_received += len(data)
        self._recv_buf.append(data)

    def _wake_readers(self) -> None:
        # One arrival wakes one reader (its payload is one reader's
        # breakfast), but EOF/close is terminal: every blocked reader
        # must wake or concurrent readers sleep forever.
        if self.eof:
            self._readers.wake_all()
        else:
            self._readers.wake_one()


class TcpConnection(StreamReceiver):
    """One direction-symmetric TCP connection endpoint."""

    def __init__(
        self,
        layer: "TcpLayer",
        local: tuple[IPv4Addr, int],
        remote: tuple[IPv4Addr, int],
        sndbuf: int = 262144,
        rcvbuf: int = 262144,
    ):
        self.layer = layer
        self.local = local
        self.remote = remote
        self.state = CLOSED
        self.sndbuf = sndbuf
        self.rcvbuf = rcvbuf

        node = layer.stack.node
        sim = node.sim
        self.established = sim.event(name="tcp-established")
        self.closed_event = sim.event(name="tcp-closed")

        # Send side.
        self.snd_una = 0
        self.snd_nxt = 0
        self.peer_window = 65535 << WINDOW_SCALE
        self._send_buf = ByteQueue()
        self._send_space_waiters = WaitQueue(sim)
        self._pump_running = False
        self._fin_queued = False
        self._fin_sent = False

        # Retransmission (fixed RTO; loss comes from migration downtime
        # and fault-plan bridge drops).
        self._retx_buf: deque[tuple[int, bytes, int]] = deque()
        self._retx_deadline: float = 0.0
        self._retx_running = False
        self.retransmissions = 0

        # Congestion control: slow start from IW10, AIMD, fast
        # retransmit.
        costs = node.costs
        self._cwnd_cap = costs.tcp_window
        self.cwnd = INITIAL_WINDOW * costs.mss
        self.ssthresh = costs.tcp_window
        self.dup_acks = 0  # consecutive, reset on ACK advance
        self.dup_acks_rcvd = 0
        self.dup_segments = 0
        self.fast_retransmits = 0
        self.rto_retransmits = 0
        self._in_fast_recovery = False
        self._recover_seq = 0
        self.cwnd_trace: deque[tuple[float, int]] = deque(maxlen=_CWND_TRACE_MAX)
        self.reset_by_peer = False

        # Receive side.
        self.rcv_nxt = 0
        self._init_receiver(node)
        self._ooo: dict[int, bytes] = {}

        # Stats.
        self.bytes_sent = 0
        self.segments_sent = 0
        self.segments_received = 0
        layer.conns_opened += 1

    # ------------------------------------------------------------------
    # Application interface (generators, app process context)
    # ------------------------------------------------------------------
    def send(self, data: bytes):
        """Blocking send: returns once all of ``data`` is buffered."""
        if self.state not in (ESTABLISHED, CLOSE_WAIT):
            raise OSError(f"send on {self.state} connection")
        node = self.layer.stack.node
        yield node.exec(node.costs.syscall + node.costs.socket_layer)
        offset = 0
        while offset < len(data):
            while len(self._send_buf) >= self.sndbuf:
                yield self._send_space_waiters.wait("tcp-sndbuf")
                if self.state == CLOSED:
                    raise OSError("connection closed while sending")
            chunk = data[offset : offset + (self.sndbuf - len(self._send_buf))]
            yield node.exec(node.costs.copy_cost(len(chunk)))  # user->kernel
            self._send_buf.append(chunk)
            offset += len(chunk)
            self._kick_pump()
        return len(data)

    def close(self):
        """Close the send direction (generator); FIN goes out after the
        send buffer drains."""
        if self.state in (CLOSED, FIN_WAIT, LAST_ACK):
            return
        node = self.layer.stack.node
        yield node.exec(node.costs.syscall)
        self._fin_queued = True
        self.state = FIN_WAIT if self.state == ESTABLISHED else LAST_ACK
        self._kick_pump()

    # ------------------------------------------------------------------
    # Transmit pump
    # ------------------------------------------------------------------
    def _kick_pump(self) -> None:
        if not self._pump_running and self._tx_work_possible():
            self._pump_running = True
            self.layer.stack.node.spawn(self._tx_pump(), name="tcp-pump")

    def _tx_work_possible(self) -> bool:
        if self._window_avail() <= 0:
            return False
        if self._send_buf:
            return True
        return self._fin_queued and not self._fin_sent

    def _window_avail(self) -> int:
        # cwnd composes with the peer's advertised window: the sender is
        # limited by whichever is tighter (RFC 5681 terms: min(cwnd,
        # rwnd) - flight size).
        inflight = self.snd_nxt - self.snd_una
        return max(0, min(self.peer_window, self.cwnd) - inflight)

    def _eff_mss(self) -> int:
        dev, _next_hop = self.layer.stack.ipv4.route(self.remote[0])
        costs = self.layer.stack.node.costs
        if dev.gso:
            return costs.gso_max
        return min(costs.mss, dev.mtu - 40)

    def _tx_pump(self):
        costs = self.layer.stack.node.costs
        try:
            while True:
                if self._send_buf and self._window_avail() > 0:
                    size = min(self._eff_mss(), len(self._send_buf), self._window_avail())
                    data = self._send_buf.take(size)
                    self.bytes_sent += len(data)
                    self.segments_sent += 1
                    yield from self._send_new(
                        TCP_ACK | TCP_PSH, data, costs.tcp_layer + costs.checksum_cost(len(data))
                    )
                    self._wake_send_space()
                elif (
                    self._fin_queued
                    and not self._fin_sent
                    and not self._send_buf
                    and self._window_avail() > 0
                ):
                    self._fin_sent = True
                    self.segments_sent += 1
                    yield from self._send_new(TCP_ACK | TCP_FIN, b"", costs.tcp_layer)
                else:
                    break
        finally:
            self._pump_running = False
            # Data may have been queued while the last output blocked.
            self._kick_pump()

    def _send_new(self, flags: int, data: bytes, cost: float):
        """Send the next segment of the sequence space and keep it for
        retransmission (generator); a SYN or FIN consumes one number."""
        hdr = self._make_header(flags, seq=self.snd_nxt)
        self._retx_buf.append((self.snd_nxt, data, flags))
        self.snd_nxt += len(data) or 1
        self._arm_retx()
        yield self.layer.stack.node.exec(cost)
        yield from self.layer.stack.ipv4.output(self.remote[0], IPPROTO_TCP, hdr, data)

    # ------------------------------------------------------------------
    # Retransmission
    # ------------------------------------------------------------------
    def _arm_retx(self) -> None:
        node = self.layer.stack.node
        self._retx_deadline = node.sim.now + node.costs.tcp_rto
        if not self._retx_running:
            self._retx_running = True
            node.spawn(self._retx_loop(), name="tcp-retx")

    def _retx_loop(self):
        node = self.layer.stack.node
        sim = node.sim
        costs = node.costs
        try:
            while self._retx_buf and self.state != CLOSED:
                wait = self._retx_deadline - sim.now
                if wait > 0:
                    yield sim.timeout(wait)
                    continue
                # RTO expired.  The timeout is a congestion signal
                # (RFC 5681 s3.1): collapse cwnd to one segment, fall
                # back to slow start, and resend only what the collapsed
                # window covers (with the original segment boundaries)
                # -- the cumulative ACK it elicits usually jumps past
                # everything the receiver already buffered.
                self.rto_retransmits += 1
                mss = self._eff_mss()
                flight = self.snd_nxt - self.snd_una
                self.ssthresh = max(flight // 2, 2 * mss)
                self._in_fast_recovery = False
                self.dup_acks = 0
                self._recover_seq = self.snd_nxt
                self._set_cwnd(mss)
                for seq, data, flags in list(self._retx_buf):
                    if self.state == CLOSED:
                        return
                    if seq + len(data) > self.snd_una + self.cwnd:
                        break
                    yield from self._resend(seq, data, flags)
                self._retx_deadline = sim.now + costs.tcp_rto
        finally:
            self._retx_running = False
            if self._retx_buf and self.state != CLOSED:
                self._arm_retx()

    def _prune_retx(self) -> None:
        """Drop fully-acked segments from the retransmit buffer."""
        while self._retx_buf:
            seq, data, flags = self._retx_buf[0]
            consumed = len(data) + (1 if flags & (TCP_FIN | TCP_SYN) else 0)
            if seq + consumed <= self.snd_una:
                self._retx_buf.popleft()
            else:
                break
        if self._retx_buf:
            # Progress restarts the timer (RFC 6298 5.3).
            node = self.layer.stack.node
            self._retx_deadline = node.sim.now + node.costs.tcp_rto

    def _wake_send_space(self) -> None:
        if len(self._send_buf) < self.sndbuf:
            self._send_space_waiters.wake_all()

    def _advertised_window(self) -> int:
        return max(0, self.rcvbuf - len(self._recv_buf))

    def _window_shut(self) -> bool:
        return (self._advertised_window() >> WINDOW_SCALE) == 0

    def _make_header(self, flags: int, seq: int) -> TcpHeader:
        return TcpHeader(
            sport=self.local[1],
            dport=self.remote[1],
            seq=seq & 0xFFFFFFFF,
            ack=self.rcv_nxt & 0xFFFFFFFF,
            flags=flags,
            window=self._advertised_window() >> WINDOW_SCALE,
        )

    # ------------------------------------------------------------------
    # Segment arrival (generator, softirq context)
    # ------------------------------------------------------------------
    def on_segment(self, packet: Packet):
        """Process one arriving segment (generator, softirq context)."""
        node = self.layer.stack.node
        costs = node.costs
        hdr: TcpHeader = packet.l4
        data = packet.payload
        yield node.exec(costs.tcp_layer + costs.checksum_cost(len(data)))
        self.segments_received += 1

        if hdr.flags & TCP_RST:
            # Peer aborted, or answered a segment it has no state for
            # (our side outlived it).  Tear down immediately; blocked
            # senders/receivers wake with EOF/OSError.
            self.reset_by_peer = True
            self._become_closed()
            if not self.established.triggered:
                self.established.succeed()
            return

        # -- handshake transitions ------------------------------------
        if self.state == SYN_SENT:
            if hdr.flags & TCP_SYN and hdr.flags & TCP_ACK:
                self.rcv_nxt = hdr.seq + 1
                self.snd_una = hdr.ack
                self._prune_retx()  # drop the acked SYN from the retx buffer
                self.peer_window = hdr.window << WINDOW_SCALE
                self.state = ESTABLISHED
                yield from self._send_pure_ack()
                if not self.established.triggered:
                    self.established.succeed()
            return
        if self.state == SYN_RCVD:
            if hdr.flags & TCP_ACK and hdr.ack >= self.snd_nxt:
                self.snd_una = hdr.ack
                self._prune_retx()  # drop the acked SYN-ACK
                self.peer_window = hdr.window << WINDOW_SCALE
                self.state = ESTABLISHED
                if not self.established.triggered:
                    self.established.succeed()
                self.layer._deliver_to_accept_queue(self)
                # The final handshake ACK may carry data (or a FIN race);
                # fall through to normal processing.
            else:
                return

        if hdr.flags & TCP_SYN:
            # Duplicate SYN/SYN-ACK (our handshake ACK was lost): re-ack
            # so the peer can stop retransmitting.
            yield from self._send_pure_ack()
            return

        # -- ACK processing --------------------------------------------
        if hdr.flags & TCP_ACK:
            new_wnd = hdr.window << WINDOW_SCALE
            if hdr.ack > self.snd_una:
                acked = hdr.ack - self.snd_una
                self.snd_una = hdr.ack
                self._prune_retx()
                if self._on_ack_advance(acked) and self._retx_buf:
                    # NewReno partial ACK (RFC 6582): the peer is still
                    # missing the segment right after this ACK -- resend
                    # it now, one hole per RTT, instead of waiting a
                    # full RTO per hole.
                    yield from self._resend(*self._retx_buf[0])
                    self._retx_deadline = node.sim.now + costs.tcp_rto
            elif (
                hdr.ack == self.snd_una
                and self.snd_nxt > self.snd_una
                and not data
                and not hdr.flags & (TCP_SYN | TCP_FIN)
                and new_wnd == self.peer_window
            ):
                # RFC 5681 duplicate ACK: no payload, nothing new acked,
                # data outstanding, window unchanged.
                yield from self._on_dup_ack()
            self.peer_window = new_wnd
            self._wake_send_space()
            if self._fin_sent and self.snd_una >= self.snd_nxt:
                if self.state == LAST_ACK:
                    self._become_closed()
                elif self.state == FIN_WAIT and self.eof:
                    self._become_closed()
            self._kick_pump()

        # -- data -------------------------------------------------------
        if self._rx_data(hdr.seq, data, bool(hdr.flags & TCP_FIN)):
            # Wake the blocked reader before generating the ACK -- the
            # wakeup is what the RR benchmarks' latency rides on.
            yield node.exec(costs.process_wakeup)
            self._wake_readers()
            yield from self._send_pure_ack()

    def _rx_data(self, seq: int, data: bytes, fin: bool) -> bool:
        """Receive-side state update (no yields, so it is directly
        property-testable over arbitrary segment interleavings).

        Returns True when the segment carried payload or FIN -- every
        such segment must be ACKed, *including* wholly-duplicate ones: a
        below-window segment means our previous ACK was lost, and
        staying silent would leave the peer's retransmit loop
        live-locked."""
        if not data and not fin:
            return False
        end = seq + len(data)
        if data:
            if end <= self.rcv_nxt:
                self.dup_segments += 1  # wholly below window: re-ACK only
            elif seq <= self.rcv_nxt:
                if seq < self.rcv_nxt:
                    # Partial overlap: trim the already-received head.
                    self.dup_segments += 1
                    data = data[self.rcv_nxt - seq :]
                self._accept_data(data)
                self._drain_ooo()
            else:
                self._ooo[seq] = data
        if fin:
            if end == self.rcv_nxt and not self.eof:
                self.rcv_nxt += 1
                self._set_eof()
            elif end > self.rcv_nxt:
                self._ooo[end] = _FIN_SENTINEL
        return True

    # ------------------------------------------------------------------
    # Congestion control (RFC 5681/6582 shaped)
    # ------------------------------------------------------------------
    def _set_cwnd(self, value: int) -> None:
        value = max(1, min(int(value), self._cwnd_cap))
        if value != self.cwnd:
            self.cwnd = value
            self.cwnd_trace.append((self.layer.stack.node.sim.now, value))

    def _on_ack_advance(self, acked: int) -> bool:
        """Congestion response to an ACK that advanced ``snd_una``.

        Returns True when the caller should retransmit the next hole
        (partial ACK while recovering from a fast retransmit or an
        RTO)."""
        self.dup_acks = 0
        in_recovery = self.snd_una < self._recover_seq
        if not self._in_fast_recovery and not in_recovery and self.cwnd >= self._cwnd_cap:
            # At the cap (every lossless path once slow start is done):
            # growth would only clamp back, so skip the route lookup.
            return False
        mss = self._eff_mss()
        if self._in_fast_recovery:
            if not in_recovery:
                # Full ACK: recovery complete, deflate to ssthresh.
                self._in_fast_recovery = False
                self._set_cwnd(self.ssthresh)
                return False
            # NewReno partial ACK: deflate by the amount acked, grant
            # one MSS; the caller resends the next hole.
            self._set_cwnd(max(mss, self.cwnd - acked + mss))
            return True
        if self.cwnd < self.ssthresh:
            self._set_cwnd(self.cwnd + min(acked, mss))  # slow start
        else:
            # Congestion avoidance: ~one MSS per RTT (AIMD additive part).
            self._set_cwnd(self.cwnd + max(1, (mss * mss) // self.cwnd))
        # Post-RTO loss recovery: ACK-clock the remaining holes too.
        return in_recovery

    def _on_dup_ack(self):
        """Dup-ACK bookkeeping; fires fast retransmit at the threshold
        (generator, softirq context)."""
        self.dup_acks += 1
        self.dup_acks_rcvd += 1
        node = self.layer.stack.node
        costs = node.costs
        if self._in_fast_recovery:
            # Each further dup ACK means one more segment left the
            # network: inflate cwnd so new data keeps flowing.
            self._set_cwnd(self.cwnd + self._eff_mss())
            self._kick_pump()
        elif self.dup_acks >= costs.tcp_dupack_threshold and self._retx_buf:
            mss = self._eff_mss()
            flight = self.snd_nxt - self.snd_una
            self.ssthresh = max(flight // 2, 2 * mss)
            self._in_fast_recovery = True
            self._recover_seq = self.snd_nxt
            self.fast_retransmits += 1
            self._set_cwnd(self.ssthresh + costs.tcp_dupack_threshold * mss)
            yield from self._resend(*self._retx_buf[0])
            self._retx_deadline = node.sim.now + costs.tcp_rto

    def _resend(self, seq: int, data: bytes, flags: int):
        """Retransmit one segment of the retransmit buffer (generator)."""
        node = self.layer.stack.node
        costs = node.costs
        hdr = self._make_header(flags, seq=seq)
        self.retransmissions += 1
        yield node.exec(costs.tcp_layer + costs.checksum_cost(len(data)))
        yield from self.layer.stack.ipv4.output(self.remote[0], IPPROTO_TCP, hdr, data)

    def _accept_data(self, data: bytes) -> None:
        self.rcv_nxt += len(data)
        self._deliver(data)

    def _drain_ooo(self) -> None:
        while True:
            nxt = self._ooo.pop(self.rcv_nxt, None)
            if nxt is None:
                return
            if nxt is _FIN_SENTINEL:
                self.rcv_nxt += 1
                self._set_eof()
                return
            self._accept_data(nxt)

    def _set_eof(self) -> None:
        self.eof = True
        if self.state == ESTABLISHED:
            self.state = CLOSE_WAIT
        elif self.state == FIN_WAIT and self._fin_sent and self.snd_una >= self.snd_nxt:
            self._become_closed()
        self._wake_readers()

    def _become_closed(self) -> None:
        if self.state == CLOSED:
            return
        self.state = CLOSED
        # No more data can arrive: blocked readers must see EOF, not
        # re-queue forever (matters for RST and backlog-overflow aborts;
        # the graceful paths reached here with eof already set).
        self.eof = True
        self.layer._forget(self)
        if not self.closed_event.triggered:
            self.closed_event.succeed()
        self._wake_readers()
        self._send_space_waiters.wake_all()

    def _send_pure_ack(self):
        node = self.layer.stack.node
        hdr = self._make_header(TCP_ACK, seq=self.snd_nxt)
        yield node.exec(node.costs.tcp_layer)
        yield from self.layer.stack.ipv4.output(self.remote[0], IPPROTO_TCP, hdr, b"")

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<TcpConnection {self.local[0]}:{self.local[1]} -> "
            f"{self.remote[0]}:{self.remote[1]} {self.state}>"
        )


class TcpListener:
    """Passive socket: accepts incoming connections on a port.

    Accepted connections inherit the listener's buffer sizes, as with
    real sockets."""

    def __init__(
        self,
        layer: "TcpLayer",
        port: int,
        backlog: int = 16,
        sndbuf: int = 262144,
        rcvbuf: int = 262144,
    ):
        self.layer = layer
        self.port = port
        self.backlog = backlog
        self.sndbuf = sndbuf
        self.rcvbuf = rcvbuf
        self._ready: deque[TcpConnection] = deque()
        self._accept_waiters = WaitQueue(layer.stack.node.sim)
        self.closed = False
        self.backlog_drops = 0

    def accept(self):
        """Wait for and return an ESTABLISHED connection (generator)."""
        node = self.layer.stack.node
        yield node.exec(node.costs.syscall)
        while not self._ready:
            yield self._accept_waiters.wait(f"accept:{self.port}")
        return self._ready.popleft()

    def close(self) -> None:
        """Stop listening (queued-but-unaccepted connections are kept)."""
        self.closed = True
        self.layer.listeners.pop(self.port, None)

    def _offer(self, conn: TcpConnection) -> None:
        if len(self._ready) >= self.backlog:
            # Overflow: abort the connection instead of leaving it
            # ESTABLISHED in the demux table forever (it would never be
            # accepted, so nothing could ever close it).  The peer's
            # next segment hits a demux miss and draws an RST.
            self.backlog_drops += 1
            self.layer.backlog_drops += 1
            conn._become_closed()
            return
        self._ready.append(conn)
        self._accept_waiters.wake_one()


class TcpLayer:
    """Per-stack TCP: listeners, connection demux, ephemeral ports."""
    def __init__(self, stack: "NetworkStack"):
        self.stack = stack
        stack.ipv4.register_protocol(IPPROTO_TCP, self.input)
        self.connections: dict[tuple, TcpConnection] = {}
        self.listeners: dict[int, TcpListener] = {}
        self._next_ephemeral = EPHEMERAL_BASE
        self.rx_no_match = 0
        self.rsts_sent = 0
        self.backlog_drops = 0
        self.conns_opened = 0
        #: congestion counters rolled up from forgotten connections
        #: (live ones are summed on demand in congestion_totals).
        self._closed_cc: Counter = Counter()
        stack.node.sim.metrics.register("tcp", self.congestion_totals)

    # -- API ----------------------------------------------------------
    def listen(self, port: int, backlog: int = 16, sndbuf: int = 262144,
               rcvbuf: int = 262144) -> TcpListener:
        """Open a passive socket; accepted connections inherit the buffers."""
        if port in self.listeners:
            raise OSError(f"TCP port {port} already listening")
        listener = TcpListener(self, port, backlog, sndbuf=sndbuf, rcvbuf=rcvbuf)
        self.listeners[port] = listener
        return listener

    def connect(self, remote: tuple[IPv4Addr, int], sndbuf: int = 262144, rcvbuf: int = 262144):
        """Active open (generator).  Returns the ESTABLISHED connection."""
        node = self.stack.node
        local = (self.stack.ip, self._alloc_ephemeral())
        conn = TcpConnection(self, local, remote, sndbuf=sndbuf, rcvbuf=rcvbuf)
        key = (remote[0], remote[1], local[1])
        self.connections[key] = conn
        conn.state = SYN_SENT
        yield from conn._send_new(TCP_SYN, b"", node.costs.syscall + node.costs.tcp_layer)
        yield conn.established
        if conn.state == CLOSED:
            raise OSError(f"connection to {remote[0]}:{remote[1]} refused")
        return conn

    def _alloc_ephemeral(self) -> int:
        for _ in range(65536 - EPHEMERAL_BASE):
            port = self._next_ephemeral
            self._next_ephemeral += 1
            if self._next_ephemeral >= 65536:
                self._next_ephemeral = EPHEMERAL_BASE
            if not any(k[2] == port for k in self.connections):
                return port
        raise OSError("out of ephemeral TCP ports")

    # -- demux ----------------------------------------------------------
    def input(self, packet: Packet):
        """Softirq-side segment demultiplexing (generator)."""
        hdr: TcpHeader = packet.l4
        key = (packet.ip.src, hdr.sport, hdr.dport)
        conn = self.connections.get(key)
        if conn is not None:
            yield from conn.on_segment(packet)
            return
        listener = self.listeners.get(hdr.dport)
        if listener is not None and hdr.flags & TCP_SYN and not hdr.flags & TCP_ACK:
            yield from self._passive_open(listener, packet)
            return
        self.rx_no_match += 1
        # Demux miss on a non-SYN segment: our side has no state (closed
        # and forgotten, or aborted on backlog overflow), so answer RST.
        # Without it a peer whose final ACK was lost retransmits its FIN
        # against the void forever -- the go-back-N livelock.  Bare SYNs
        # stay silently dropped: a connect racing ahead of listen()
        # relies on SYN retransmission finding the listener later.
        if not hdr.flags & (TCP_RST | TCP_SYN):
            yield from self._send_rst(packet)

    def _send_rst(self, packet: Packet):
        """Answer an unmatched segment with a RST (generator)."""
        node = self.stack.node
        hdr: TcpHeader = packet.l4
        seg_len = len(packet.payload) + (1 if hdr.flags & (TCP_SYN | TCP_FIN) else 0)
        rst = TcpHeader(
            sport=hdr.dport,
            dport=hdr.sport,
            seq=hdr.ack if hdr.flags & TCP_ACK else 0,
            ack=(hdr.seq + seg_len) & 0xFFFFFFFF,
            flags=TCP_RST | TCP_ACK,
            window=0,
        )
        self.rsts_sent += 1
        yield node.exec(node.costs.tcp_layer)
        yield from self.stack.ipv4.output(packet.ip.src, IPPROTO_TCP, rst, b"")

    def _passive_open(self, listener: TcpListener, packet: Packet):
        node = self.stack.node
        hdr: TcpHeader = packet.l4
        local = (self.stack.ip, hdr.dport)
        remote = (packet.ip.src, hdr.sport)
        conn = TcpConnection(
            self, local, remote, sndbuf=listener.sndbuf, rcvbuf=listener.rcvbuf
        )
        self.connections[(remote[0], remote[1], local[1])] = conn
        conn.state = SYN_RCVD
        conn.rcv_nxt = hdr.seq + 1
        conn.peer_window = hdr.window << WINDOW_SCALE
        yield from conn._send_new(TCP_SYN | TCP_ACK, b"", node.costs.tcp_layer)

    def _deliver_to_accept_queue(self, conn: TcpConnection) -> None:
        listener = self.listeners.get(conn.local[1])
        if listener is not None:
            listener._offer(conn)

    def _forget(self, conn: TcpConnection) -> None:
        key = (conn.remote[0], conn.remote[1], conn.local[1])
        if self.connections.pop(key, None) is None:
            return  # already rolled up (idempotent on double close)
        for counter_key, attr in _CC_ROLLUP:
            self._closed_cc[counter_key] += getattr(conn, attr)

    def congestion_totals(self) -> dict:
        """Aggregate congestion/retransmit counters for this stack:
        forgotten connections' rollup plus the live ones, summed --
        the per-layer slice of the simulator's ``tcp`` metrics group."""
        totals = Counter(self._closed_cc)
        for conn in self.connections.values():
            for counter_key, attr in _CC_ROLLUP:
                totals[counter_key] += getattr(conn, attr)
        out = {
            "conns": self.conns_opened,
            "backlog_drops": self.backlog_drops,
            "rsts_sent": self.rsts_sent,
        }
        for counter_key, _attr in _CC_ROLLUP:
            out[counter_key] = totals[counter_key]
        return out
