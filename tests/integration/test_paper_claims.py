"""Qualitative reproduction of the paper's headline claims.

These tests assert *shape* -- orderings and rough factors from
Tables 1-3 -- not absolute numbers.  They are the regression guard for
the calibration in repro.calibration.
"""

import pytest

from repro import scenarios
from repro.workloads import lmbench, netperf, pingpong

FAST = scenarios.DEFAULT_COSTS.replace(discovery_period=0.2, bootstrap_timeout=0.01)


@pytest.fixture(scope="module")
def results():
    """Measure the four paper scenarios once for the whole module."""
    out = {}
    for name in ("native_loopback", "xenloop", "netfront_netback", "inter_machine"):
        scn = scenarios.build(name, FAST)
        scn.warmup(max_wait=10.0)
        out[name] = {
            "ping_us": pingpong.flood_ping(scn, count=60).rtt_us,
            "tcp_rr": netperf.tcp_rr(scn, duration=0.05).trans_per_sec,
            "udp_rr": netperf.udp_rr(scn, duration=0.05).trans_per_sec,
            "tcp_stream": netperf.tcp_stream(scn, duration=0.02).mbps,
            "udp_stream": netperf.udp_stream(scn, duration=0.02, msg_size=8192).mbps,
            "lat_tcp": lmbench.lat_tcp(scn, round_trips=100).latency_us,
        }
    return out


class TestLatencyOrdering:
    def test_ping_native_fastest(self, results):
        assert results["native_loopback"]["ping_us"] < results["xenloop"]["ping_us"]

    def test_ping_xenloop_beats_netfront(self, results):
        """Headline: 'reduce inter-VM round trip latency by up to 5x'."""
        factor = results["netfront_netback"]["ping_us"] / results["xenloop"]["ping_us"]
        assert factor > 2.5

    def test_ping_xenloop_beats_inter_machine(self, results):
        assert results["xenloop"]["ping_us"] < results["inter_machine"]["ping_us"]

    def test_lat_tcp_ordering(self, results):
        r = results
        assert (
            r["native_loopback"]["lat_tcp"]
            < r["xenloop"]["lat_tcp"]
            < r["inter_machine"]["lat_tcp"]
        )
        assert r["xenloop"]["lat_tcp"] < r["netfront_netback"]["lat_tcp"]


class TestTransactionRates:
    def test_tcp_rr_ordering(self, results):
        r = results
        assert (
            r["native_loopback"]["tcp_rr"]
            > r["xenloop"]["tcp_rr"]
            > r["netfront_netback"]["tcp_rr"]
        )

    def test_udp_rr_xenloop_factor(self, results):
        """Paper Table 3: ~2.6x more UDP_RR transactions via XenLoop."""
        factor = results["xenloop"]["udp_rr"] / results["netfront_netback"]["udp_rr"]
        assert factor > 1.8

    def test_tcp_rr_xenloop_factor(self, results):
        """Paper Table 3: ~2.8x more TCP_RR transactions via XenLoop."""
        factor = results["xenloop"]["tcp_rr"] / results["netfront_netback"]["tcp_rr"]
        assert factor > 1.8


class TestBandwidth:
    def test_tcp_stream_ordering(self, results):
        r = results
        assert (
            r["native_loopback"]["tcp_stream"]
            > r["xenloop"]["tcp_stream"]
            > r["netfront_netback"]["tcp_stream"]
            > r["inter_machine"]["tcp_stream"]
        )

    def test_udp_stream_xenloop_factor(self, results):
        """Headline: 'increase bandwidth by up to a factor of 6'."""
        factor = (
            results["xenloop"]["udp_stream"]
            / results["netfront_netback"]["udp_stream"]
        )
        assert factor > 4

    def test_udp_stream_netfront_no_better_than_wire(self, results):
        """Paper Table 2: netfront UDP_STREAM (707) is no better than
        inter-machine (710) -- the original motivation."""
        assert (
            results["netfront_netback"]["udp_stream"]
            <= results["inter_machine"]["udp_stream"] * 1.1
        )

    def test_inter_machine_wire_limited(self, results):
        assert results["inter_machine"]["tcp_stream"] < 1000  # 1 Gbps wire
