"""Workload implementations: sanity of each benchmark's measurement loop."""

import pytest

from repro import scenarios
from repro.workloads import lmbench, migration_rr, netperf, netpipe, osu, pingpong

FAST = scenarios.DEFAULT_COSTS.replace(discovery_period=0.2, bootstrap_timeout=0.01)


@pytest.fixture(scope="module")
def xl():
    scn = scenarios.xenloop(FAST)
    scn.warmup(max_wait=10.0)
    return scn


@pytest.fixture(scope="module")
def loop():
    scn = scenarios.native_loopback(FAST)
    scn.warmup()
    return scn


class TestPing:
    def test_counts_and_stats(self, loop):
        res = pingpong.flood_ping(loop, count=50)
        assert res.count == 50
        assert res.lost == 0
        assert res.min_us <= res.rtt_us <= res.max_us

    def test_larger_payload_slower(self, loop):
        small = pingpong.flood_ping(loop, count=30, size=56)
        big = pingpong.flood_ping(loop, count=30, size=8000)
        assert big.rtt_us > small.rtt_us


class TestBadInputs:
    """Degenerate measurement requests are rejected up front instead of
    dying inside the loop (RuntimeError / ZeroDivisionError)."""

    @pytest.mark.parametrize("count", [0, -1])
    def test_flood_ping_needs_a_ping(self, loop, count):
        with pytest.raises(ValueError, match="count"):
            pingpong.flood_ping(loop, count=count)

    @pytest.mark.parametrize("duration", [0, 0.0, -0.01])
    @pytest.mark.parametrize("workload", [netperf.tcp_rr, netperf.udp_rr, netperf.tcp_crr])
    def test_rr_needs_positive_duration(self, loop, workload, duration):
        with pytest.raises(ValueError, match="duration"):
            workload(loop, duration=duration)


class TestNetperf:
    def test_tcp_rr_reports_consistent_rate(self, loop):
        res = netperf.tcp_rr(loop, duration=0.02)
        assert res.transactions > 0
        assert res.trans_per_sec == pytest.approx(1e6 / res.latency_us, rel=1e-6)

    def test_udp_rr(self, loop):
        res = netperf.udp_rr(loop, duration=0.02)
        assert res.trans_per_sec > 0

    def test_tcp_crr_connects_per_transaction(self, xl):
        res = netperf.tcp_crr(xl, duration=0.02, port=5506)
        assert res.transactions > 0
        # every transaction includes a handshake: CRR rate < RR rate
        rr = netperf.tcp_rr(xl, duration=0.02, port=5507)
        assert res.trans_per_sec < rr.trans_per_sec

    def test_tcp_stream_receives_what_was_sent(self, xl):
        res = netperf.tcp_stream(xl, duration=0.02, msg_size=8192, port=5501)
        assert res.bytes_received == res.messages_sent * 8192
        assert res.mbps > 0

    def test_udp_stream_reports_drops(self, xl):
        res = netperf.udp_stream(xl, duration=0.02, msg_size=4096, port=5502)
        assert res.bytes_received + res.drops * 4096 <= res.messages_sent * 4096
        assert res.mbps > 0

    def test_udp_stream_message_size_scales_throughput(self, xl):
        small = netperf.udp_stream(xl, duration=0.02, msg_size=256, port=5503)
        large = netperf.udp_stream(xl, duration=0.02, msg_size=16384, port=5504)
        assert large.mbps > small.mbps


class TestLmbench:
    def test_bw_tcp_moves_requested_bytes(self, xl):
        res = lmbench.bw_tcp(xl, total_bytes=1 << 20, port=5511)
        assert res.bytes_moved >= 1 << 20
        assert res.mbps > 0

    def test_lat_tcp(self, xl):
        res = lmbench.lat_tcp(xl, round_trips=100, port=5512)
        assert res.round_trips == 100
        assert res.latency_us > 0


class TestNetpipe:
    def test_sweep_produces_monotone_sizes(self, xl):
        res = netpipe.run(xl, sizes=[64, 1024, 8192], port=9301)
        sizes, mbps, lats = res.series()
        assert sizes == [64, 1024, 8192]
        assert all(v > 0 for v in mbps)
        # throughput grows with message size in this range
        assert mbps[0] < mbps[1] < mbps[2]
        # latency grows with message size
        assert lats[0] < lats[2]


class TestOsu:
    def test_bw_sweep(self, xl):
        res = osu.osu_bw(xl, sizes=[512, 8192], port=9302)
        sizes, values = res.series()
        assert sizes == [512, 8192]
        assert values[1] > values[0]

    def test_bibw_exceeds_uni_at_small_sizes(self, xl):
        uni = osu.osu_bw(xl, sizes=[2048], port=9303).points[0].value
        bi = osu.osu_bibw(xl, sizes=[2048], port=9304).points[0].value
        assert bi > uni

    def test_latency_sweep(self, xl):
        res = osu.osu_latency(xl, sizes=[1, 16384], port=9305)
        _sizes, values = res.series()
        assert values[1] > values[0]


class TestMigrationRr:
    @pytest.mark.slow
    def test_fig11_shape(self):
        """Transaction rate: low (remote) -> high (co-resident+XenLoop)
        -> low (remote again)."""
        costs = scenarios.DEFAULT_COSTS.replace(
            discovery_period=0.2,
            bootstrap_timeout=0.01,
            migration_duration=0.3,
            migration_downtime=0.05,
        )
        scn = scenarios.migration_pair(costs)
        scn.warmup()
        res = migration_rr.run(
            scn, co_resident_hold=3.0, bin_width=0.25, settle=2.0, port=5521
        )
        rates = res.rates()
        assert len(rates) > 10

        def mean_rate(t0, t1):
            vals = [v for t, v in rates if t0 <= t <= t1]
            assert vals, f"no samples in [{t0}, {t1}]"
            return sum(vals) / len(vals)

        remote_before = mean_rate(0.5, res.migrate_in_at)
        # skip 1.5s after migrate-in for discovery + bootstrap
        co_resident = mean_rate(res.migrate_in_at + 1.5, res.migrate_away_at)
        remote_after = mean_rate(res.migrate_away_at + 1.0, rates[-1][0])
        assert co_resident > 2 * remote_before
        assert remote_after < co_resident / 2
        # and the rates return to roughly the original level
        assert remote_after == pytest.approx(remote_before, rel=0.5)
