"""The per-simulator metrics registry on live scenarios.

Two properties pin it down:

* the summed ``channels`` group is a per-simulator ledger of the XenLoop
  FIFO notify and drain work, so it agrees exactly with the
  process-global ``notify`` counters when those are reset at build;
* per-simulator groups need no hand reset: two same-seed runs in one
  process report identical counters.
"""

import pytest

from repro import scenarios, trace
from repro.workloads import netperf, serving
from repro.xen.event_channel import NOTIFY_STATS

FAST = scenarios.DEFAULT_COSTS.replace(discovery_period=0.2, bootstrap_timeout=0.01)

#: channels-group key -> the NOTIFY_STATS key it duplicates.
LEDGER = {
    "notifies": "fifo_notifies",
    "notifies_suppressed": "fifo_suppressed",
    "drain_batches": "drain_batches",
    "drain_entries": "drain_entries",
}

WORKLOADS = {
    "udp_stream": lambda scn: netperf.udp_stream(scn, msg_size=4096, duration=0.01),
    "tcp_rr": lambda scn: netperf.tcp_rr(scn, duration=0.01),
    "tcp_stream": lambda scn: netperf.tcp_stream(scn, duration=0.01),
}

VARIANTS = {
    "default": {},
    "zero_copy_rx": {"zero_copy_rx": True},
    "socket_bypass": {"socket_bypass": True},
}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_channels_group_matches_notify_ledger(variant, workload):
    NOTIFY_STATS.reset()
    scn = scenarios.xenloop(FAST, seed=7, **VARIANTS[variant])
    scn.warmup(max_wait=20.0)
    WORKLOADS[workload](scn)
    stats = trace.engine_stats(scn.sim)
    channels, notify = stats["channels"], stats["notify"]
    assert channels["pkts_received"] > 0
    assert {k: channels[k] for k in LEDGER} == {k: notify[v] for k, v in LEDGER.items()}


def _serving_groups() -> dict:
    scn = scenarios.xenloop_serving(seed=3)
    scn.warmup()
    serving.open_loop_rr(scn, server="srv", clients=["c1", "c2"], requests=200)
    stats = trace.engine_stats(scn.sim)
    return {group: stats[group] for group in ("tcp", "serving", "channels")}


def test_same_seed_runs_report_identical_groups_without_reset():
    first = _serving_groups()
    assert first["serving"]["completed"] == 200
    assert first["tcp"]["conns"] > 0
    assert _serving_groups() == first
