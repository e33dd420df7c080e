"""Golden-value determinism regression for the engine fast path.

These tuples were captured on the optimised engine (immediate run
queue, allocation-free resume, single-shot CPU completions, batched
cost charging) with seed=7 and the FAST control-plane costs.  Any
change to engine scheduling order, cost charging, or the data-path
batching that shifts simulated results will break these exact
comparisons -- which is the point: the fast path must not change what
the simulation computes, only how fast it computes it.
"""

from repro import scenarios
from repro.net.packet import WIRE_STATS
from repro.workloads.netperf import tcp_rr, udp_stream
from repro.xen.event_channel import NOTIFY_STATS

FAST = scenarios.DEFAULT_COSTS.replace(discovery_period=0.2, bootstrap_timeout=0.01)

GOLDEN_UDP = {
    # (bytes_received, mbps, messages_sent, drops)
    "xenloop": (1134592, 457.5352803299374, 362, 0),
    "netfront_netback": (1150976, 457.23153498833443, 366, 0),
}

#: same workload after scenario warmup (XenLoop channel CONNECTED), so
#: the traffic actually crosses the FIFO data path.
GOLDEN_UDP_WARM_XENLOOP = (5533696, 2216.5262726330157, 1966, 360)

#: the zero-copy data path's serialization counters for that warm run --
#: they are part of the deterministic output and must not drift.
GOLDEN_WIRE_COUNTERS = {
    "l3_cache_hits": 0,
    "l3_cache_misses": 1967,
    "header_cache_hits": 0,
    "header_cache_misses": 3934,
    "lazy_l4_parses": 1967,
    "bytes_packed": 55076,
    "bytes_parsed": 8068476,
    "fifo_bytes_in": 8107816,
    "fifo_bytes_out": 8107816,
}

#: event-channel suppression counters for the same warm run: the
#: notification-suppression protocol's behavior is deterministic output
#: too.  fifo_notifies < messages_sent (1,177 kicks for 1,966 entries)
#: and ~40% of data-available notifies suppressed is the tentpole's
#: whole point; ring traffic is zero because the warm run's datagrams
#: all cross the FIFO.
GOLDEN_NOTIFY_COUNTERS = {
    "fifo_notifies": 1177,
    "fifo_suppressed": 790,
    "ring_notifies": 0,
    "ring_suppressed": 0,
    "drain_batches": 1402,
    "drain_entries": 1967,
}

GOLDEN_TCP_RR = {
    # (transactions, trans_per_sec, latency_us, p50_us, p99_us); the
    # percentiles are LogHistogram bucket midpoints.
    "xenloop": (
        147,
        7327.289562248531,
        136.47611323458182,
        136.85226440429688,
        143.52798461914062,
    ),
    "netfront_netback": (
        148,
        7397.525022656094,
        135.18034706707192,
        134.94491577148438,
        142.57431030273438,
    ),
}


def _udp(name):
    scn = scenarios.build(name, FAST, seed=7)
    r = udp_stream(scn, msg_size=4096, duration=0.02)
    return (r.bytes_received, r.mbps, r.messages_sent, r.drops)


def _tcp_rr(name):
    scn = scenarios.build(name, FAST, seed=7)
    r = tcp_rr(scn, duration=0.02)
    return (r.transactions, r.trans_per_sec, r.latency_us, r.p50_us, r.p99_us)


class TestGoldenValues:
    """Bit-exact simulated results for fixed seeds (no approx here)."""

    def test_udp_stream_xenloop(self):
        assert _udp("xenloop") == GOLDEN_UDP["xenloop"]

    def test_udp_stream_netfront_netback(self):
        assert _udp("netfront_netback") == GOLDEN_UDP["netfront_netback"]

    def test_tcp_rr_xenloop(self):
        assert _tcp_rr("xenloop") == GOLDEN_TCP_RR["xenloop"]

    def test_tcp_rr_netfront_netback(self):
        assert _tcp_rr("netfront_netback") == GOLDEN_TCP_RR["netfront_netback"]

    def test_udp_stream_repeatable_within_process(self):
        assert _udp("xenloop") == _udp("xenloop")

    def test_udp_stream_warm_xenloop_fifo_path(self):
        """The FIFO data path's results AND wire counters are golden."""
        scn = scenarios.build("xenloop", FAST, seed=7)
        scn.warmup(max_wait=20.0)
        WIRE_STATS.reset()
        NOTIFY_STATS.reset()
        r = udp_stream(scn, msg_size=4096, duration=0.02)
        assert (
            r.bytes_received,
            r.mbps,
            r.messages_sent,
            r.drops,
        ) == GOLDEN_UDP_WARM_XENLOOP
        assert WIRE_STATS.snapshot() == GOLDEN_WIRE_COUNTERS
        assert NOTIFY_STATS.snapshot() == GOLDEN_NOTIFY_COUNTERS
