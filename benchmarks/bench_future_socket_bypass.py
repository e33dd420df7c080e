"""Future-work evaluation: transport-layer XenLoop (Sect. 6).

The paper closes by proposing to move the interception "between the
socket and transport layers ... [to eliminate] network protocol
processing overhead from the inter-VM data path."  We implemented that
variant (repro.core.socket_bypass); this bench quantifies what it would
have bought, against the shipped below-network-layer design, for TCP
workloads between co-resident guests.
"""

from repro.experiments import render_bypass, socket_bypass

from _bench_utils import emit


def test_future_work_socket_bypass(run_once, benchmark):
    rows = run_once(socket_bypass)
    emit("future_socket_bypass", render_bypass(rows))
    benchmark.extra_info.update(
        {k: {c: round(v, 1) for c, v in row.items()} for k, row in rows.items()}
    )
    base = rows["below network layer (paper)"]
    future = rows["socket-layer bypass (future work)"]
    # Eliminating TCP/IP processing pays on both latency and throughput.
    assert future["tcp_rr_per_s"] > 1.2 * base["tcp_rr_per_s"]
    assert future["tcp_stream_mbps"] > base["tcp_stream_mbps"]
