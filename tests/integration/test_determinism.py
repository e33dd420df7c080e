"""Reproducibility: same seed => identical results, bit for bit."""

import pytest

from repro import scenarios
from repro.workloads import netperf, pingpong

FAST = scenarios.DEFAULT_COSTS.replace(discovery_period=0.2, bootstrap_timeout=0.01)

#: pinned mesh results for seed=7 (see mesh_measure): two UDP streams
#: between distinct co-resident pairs of a 4-guest XenLoop mesh built
#: through the declarative topology layer.  If this moves, the spec
#: construction order (and hence the whole event sequence) changed.
GOLDEN_MESH = (
    (1269760, 502.57528436273225, 198, 0),
    (1236992, 501.1103562201159, 194, 0),
)


def measure(seed):
    scn = scenarios.xenloop(FAST, seed=seed)
    scn.warmup(max_wait=10.0)
    ping = pingpong.flood_ping(scn, count=50)
    rr = netperf.tcp_rr(scn, duration=0.02)
    return ping.rtt_us, ping.min_us, ping.max_us, rr.trans_per_sec, rr.p99_us


def mesh_measure(seed):
    scn = scenarios.xenloop_mesh(4, FAST, seed=seed)
    scn.warmup(max_wait=10.0)
    r12 = netperf.udp_stream(scn.view("vm1", "vm2"), duration=0.02, msg_size=8192)
    r34 = netperf.udp_stream(scn.view("vm3", "vm4"), duration=0.02, msg_size=8192)
    return (
        (r12.bytes_received, r12.mbps, r12.messages_sent, r12.drops),
        (r34.bytes_received, r34.mbps, r34.messages_sent, r34.drops),
    )


class TestDeterminism:
    def test_same_seed_identical_results(self):
        assert measure(seed=3) == measure(seed=3)

    def test_different_seed_different_jitter(self):
        a = measure(seed=1)
        b = measure(seed=2)
        # means are close (same model) but the jittered extremes differ
        assert a != b
        assert a[0] == pytest.approx(b[0], rel=0.2)

    def test_default_seed_stable(self):
        assert measure(seed=0) == measure(seed=0)

    def test_mesh_same_seed_identical_results(self):
        assert mesh_measure(seed=7) == mesh_measure(seed=7)

    def test_mesh_golden(self):
        """The 4-guest mesh (built via ClusterSpec) is pinned bit-for-bit."""
        assert mesh_measure(seed=7) == GOLDEN_MESH

    def test_zero_jitter_removes_all_randomness(self):
        costs = FAST.replace(virq_jitter=0.0)

        def run(seed):
            scn = scenarios.xenloop(costs, seed=seed)
            scn.warmup(max_wait=10.0)
            return pingpong.flood_ping(scn, count=30).rtt_us

        # with jitter off, even DIFFERENT seeds give identical timings
        assert run(seed=1) == run(seed=99)
