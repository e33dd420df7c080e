"""Experimental transport-layer XenLoop (the paper's future work).

Sect. 6: "we are presently investigating whether XenLoop functionality
can [be] implemented transparently between the socket and transport
layers in the protocol stack, instead of below the network layer ...
This can potentially lead to elimination of network protocol processing
overhead from the inter-VM data path."

:class:`SocketBypassModule` extends the regular XenLoop module with
exactly that: when an application connects a TCP socket to a
co-resident guest that has a connected channel, the connection is
transparently served by a :class:`BypassConnection` that moves the
application byte stream through the FIFO directly -- no TCP segments,
no IP headers, no checksums.  The server side is equally transparent:
the accepted connection object comes out of the ordinary listener's
``accept()``.

The channel is already reliable and ordered (it is shared memory with
producer/consumer indices), so the stream protocol is minimal: SYN /
SYN-ACK / DATA / FIN / RST frames multiplexed by stream id.  What this
variant gives up -- and why the paper left it as future work -- is
**migration transparency**: a TCP connection survives channel teardown
because the packets fall back to the standard path, but a byte stream
that lives *inside* the channel has nothing to fall back to.  Bypass
connections are therefore errored out when the channel dies, and the
module refuses to create new ones while any peer relationship is
unstable.  The ablation benchmark quantifies the protocol-processing
saving this buys on the steady-state data path.

Wiring: the control plane calls :meth:`SocketBypassModule.channel_created`
(the module's one lifecycle call) for every new channel, which attaches
the stream demultiplexer as the channel's ``stream_handler``; the
channel's controller reports the channel's death at teardown by calling
that handler with ``None``.
"""

from __future__ import annotations

import struct
from typing import TYPE_CHECKING, Optional

from repro.core.channel import Channel, ChannelDeadError, ChannelState, ENTRY_STREAM
from repro.core.module import XenLoopModule
from repro.net.tcp import StreamReceiver

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.addr import IPv4Addr
    from repro.xen.domain import Domain

__all__ = ["BypassConnection", "SocketBypassModule"]

_FRAME = struct.Struct("!IBH")  # stream_id, kind, port

KIND_SYN = 1
KIND_SYN_ACK = 2
KIND_DATA = 3
KIND_FIN = 4
KIND_RST = 5

#: per-frame payload cap: large writes are chunked so no frame outgrows
#: the FIFO and the receiver interleaves streams fairly.
MAX_FRAME_PAYLOAD = 16384

#: sender-side flow control: block the app while more than this many
#: bytes sit on the channel's waiting list.
WAITING_LIST_CAP = 65536


class BypassError(OSError):
    """A bypass stream operation failed (e.g. the channel died)."""
    pass


class BypassConnection(StreamReceiver):
    """A socket-compatible byte-stream endpoint over the XenLoop channel.

    Exposes the same blocking-generator API as
    :class:`repro.net.tcp.TcpConnection` (``send`` / ``recv`` /
    ``recv_exactly`` / ``close`` / ``established`` / ``closed_event`` /
    ``state``), so applications cannot tell which one ``connect`` or
    ``accept`` handed them.  The receive half is TCP's own
    :class:`~repro.net.tcp.StreamReceiver`, minus the window update: the
    FIFO's occupancy is the flow control.
    """

    _EOF_ERROR = BypassError

    def __init__(self, module: "SocketBypassModule", channel: Channel, stream_id: int, port: int):
        self.module = module
        self.channel = channel
        self.stream_id = stream_id
        self.port = port
        self.guest = module.guest
        # TcpConnection-compatible endpoint tuples.  The peer's IP is
        # recovered from the neighbour cache via the channel's MAC.
        peer_ip = module.peer_ip(channel)
        self.local = (self.guest.stack.ip, port)
        self.remote = (peer_ip, port)
        sim = self.guest.sim
        self.state = "CONNECTING"
        self.established = sim.event(name="bypass-established")
        self.closed_event = sim.event(name="bypass-closed")
        self._init_receiver(self.guest)
        self._fin_sent = False
        self.bytes_sent = 0

    # -- application API ------------------------------------------------
    def send(self, data: bytes):
        """Blocking send (generator): the byte stream goes through the
        FIFO with no transport/network processing at all."""
        if self.state != "ESTABLISHED":
            raise BypassError(f"send on {self.state} bypass stream")
        node = self.guest
        # The syscall + socket-layer cost rides as a precharge on the
        # first frame's FIFO charge (one calendar entry instead of two);
        # it is charged standalone only when there is no frame to carry
        # it or the sender blocks on flow control first.
        precharge = node.costs.syscall + node.costs.socket_layer
        if not data:
            yield node.exec(precharge)
            return 0
        offset = 0
        while offset < len(data):
            while self.channel.waiting_bytes > WAITING_LIST_CAP:
                if precharge:
                    yield node.exec(precharge)
                    precharge = 0.0
                try:
                    yield self.channel.wait_waiting_space()
                except ChannelDeadError as exc:
                    raise BypassError("bypass stream died while sending") from exc
                if self.state == "CLOSED":
                    raise BypassError("bypass stream died while sending")
            chunk = data[offset : offset + MAX_FRAME_PAYLOAD]
            taken = yield from self.module.send_stream_frame(
                self.channel, self.stream_id, KIND_DATA, self.port, chunk,
                precharge=precharge,
            )
            precharge = 0.0
            if not taken:
                raise BypassError("channel torn down mid-stream")
            self.bytes_sent += len(chunk)
            offset += len(chunk)
        return len(data)

    def close(self):
        """Half-close: send FIN; fully closed once both sides have."""
        if self.state in ("CLOSED",) or self._fin_sent:
            return
        node = self.guest
        yield node.exec(node.costs.syscall)
        self._fin_sent = True
        yield from self.module.send_stream_frame(
            self.channel, self.stream_id, KIND_FIN, self.port, b""
        )
        if self.eof:
            self._become_closed()

    # -- frame arrival (drain-worker context, synchronous) -----------------
    def on_data(self, payload: bytes) -> None:
        """Frame arrival (drain-worker context): buffer and wake readers."""
        self._deliver(payload)
        self._wake_readers()

    def on_fin(self) -> None:
        """Peer FIN arrival: mark EOF and finish the close handshake."""
        self.eof = True
        if self._fin_sent:
            self._become_closed()
        self._wake_readers()

    def on_channel_death(self) -> None:
        """The underlying channel died (teardown/migration): bypass
        streams have no fallback path and must error out."""
        self._become_closed()

    def _become_closed(self) -> None:
        if self.state == "CLOSED":
            return
        self.state = "CLOSED"
        # Nothing more can arrive: blocked readers must see EOF.
        self.eof = True
        self.module.forget_stream(self)
        if not self.closed_event.triggered:
            self.closed_event.succeed()
        self._wake_readers()

    def __repr__(self) -> str:  # pragma: no cover
        return f"<BypassConnection sid={self.stream_id} {self.state}>"


class SocketBypassModule(XenLoopModule):
    """XenLoop plus transparent socket-layer interception."""

    def __init__(self, guest: "Domain", **kwargs):
        super().__init__(guest, **kwargs)
        #: (channel, stream_id) -> BypassConnection
        self._streams: dict[tuple[Channel, int], BypassConnection] = {}
        self._next_stream_id = 2 if guest.domid % 2 == 0 else 1  # odd/even split
        self.bypass_connects = 0
        self.bypass_fallbacks = 0
        guest.stack.transport_intercept = self

    # -- transparent connect interception -----------------------------------
    def intercept_connect(self, remote: "tuple[IPv4Addr, int]"):
        """Called by the stack's tcp_connect (generator).  Returns a
        BypassConnection, or None to fall back to real TCP."""
        guest = self.guest
        stack = guest.stack
        dst_ip, dst_port = remote
        if not self.loaded or not stack.ipv4.on_subnet(dst_ip):
            return None
        mac = stack.arp.lookup(dst_ip)
        if mac is None:
            mac = yield from stack.arp.resolve(dst_ip)
            if mac is None:
                return None
        channel = self.channels.get(mac)
        if channel is None or channel.state is not ChannelState.CONNECTED:
            self.bypass_fallbacks += 1
            return None

        stream_id = self._next_stream_id
        self._next_stream_id += 2  # keep odd/even spaces disjoint per side
        conn = BypassConnection(self, channel, stream_id, dst_port)
        self._streams[(channel, stream_id)] = conn
        taken = yield from self.send_stream_frame(
            channel, stream_id, KIND_SYN, dst_port, b""
        )
        if taken:
            yield guest.sim.any_of(
                [conn.established, guest.sim.timeout(guest.costs.bootstrap_timeout * 4)]
            )
        if conn.state != "ESTABLISHED":
            # channel gone / no listener / peer refused: fall back to real TCP
            self.forget_stream(conn)
            self.bypass_fallbacks += 1
            return None
        self.bypass_connects += 1
        return conn

    # -- frame plumbing --------------------------------------------------
    def send_stream_frame(
        self,
        channel: Channel,
        stream_id: int,
        kind: int,
        port: int,
        payload: bytes,
        precharge: float = 0.0,
    ):
        """Push one stream frame onto the channel (generator).

        Scatter-gather: the frame header and the payload chunk go into
        the FIFO as two views -- the application bytes are copied once,
        straight into the ring.  ``precharge`` is extra caller-side CPU
        work folded into the frame's first charge."""
        return (yield from channel.send_entry_parts(
            ENTRY_STREAM, (_FRAME.pack(stream_id, kind, port), payload), precharge
        ))

    def channel_created(self, channel: Channel) -> None:
        """Every new channel -- whichever handshake path created it --
        gets the stream demultiplexer attached."""

        def handler(payload: Optional[bytes]) -> None:
            if payload is None:
                self._channel_died(channel)
            else:
                self._stream_input(channel, payload)

        channel.stream_handler = handler

    def _stream_input(self, channel: Channel, frame: bytes) -> None:
        if len(frame) < _FRAME.size:
            return
        stream_id, kind, port = _FRAME.unpack_from(frame)
        payload = frame[_FRAME.size :]
        conn = self._streams.get((channel, stream_id))
        if kind == KIND_SYN:
            self._passive_open(channel, stream_id, port)
        elif conn is None:
            return  # stale frame for a forgotten stream
        elif kind == KIND_SYN_ACK:
            conn.state = "ESTABLISHED"
            if not conn.established.triggered:
                conn.established.succeed()
        elif kind == KIND_DATA:
            conn.on_data(payload)
        elif kind == KIND_FIN:
            conn.on_fin()
        elif kind == KIND_RST:
            conn.on_channel_death()

    def _passive_open(self, channel: Channel, stream_id: int, port: int) -> None:
        guest = self.guest
        listener = guest.stack.tcp.listeners.get(port)
        if listener is None:
            guest.spawn(
                self.send_stream_frame(channel, stream_id, KIND_RST, port, b""),
                name="bypass-rst",
            )
            return
        conn = BypassConnection(self, channel, stream_id, port)
        conn.state = "ESTABLISHED"
        conn.established.succeed()
        self._streams[(channel, stream_id)] = conn
        listener._offer(conn)
        guest.spawn(
            self.send_stream_frame(channel, stream_id, KIND_SYN_ACK, port, b""),
            name="bypass-synack",
        )

    def _channel_died(self, channel: Channel) -> None:
        for (chan, _sid), conn in list(self._streams.items()):
            if chan is channel:
                conn.on_channel_death()

    def forget_stream(self, conn: BypassConnection) -> None:
        """Remove a finished stream from the demux table."""
        self._streams.pop((conn.channel, conn.stream_id), None)

    def peer_ip(self, channel: Channel):
        """Reverse-resolve the channel peer's IP from the ARP cache."""
        for ip, mac in self.guest.stack.arp.table.items():
            if mac == channel.peer_mac:
                return ip
        return None

    def stats(self) -> dict[str, int]:
        """Module stats extended with bypass connect/fallback counters."""
        base = super().stats()
        base["bypass_connects"] = self.bypass_connects
        base["bypass_fallbacks"] = self.bypass_fallbacks
        base["bypass_streams"] = len(self._streams)
        return base
