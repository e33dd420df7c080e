"""Table 3 (and Table 1's latency rows): average latency comparison.

Rows: flood-ping RTT (us), lmbench lat_tcp (us), netperf TCP_RR and
UDP_RR (transactions/s), netpipe-mpich one-way latency (us), defined
with the paper's values in ``repro.experiments.TABLE3``.
"""

from repro.experiments import TABLE3, measure, render

from _bench_utils import emit


def test_table3_latency(run_once, benchmark):
    rows = run_once(lambda: measure(TABLE3))
    emit(TABLE3.name, render(TABLE3, rows))
    for label, values in rows.items():
        benchmark.extra_info[label] = {k: round(v, 1) for k, v in values.items()}
    # Shape assertions.
    ping = rows["flood ping RTT (us)"]
    assert ping["native_loopback"] < ping["xenloop"] < ping["inter_machine"]
    assert ping["xenloop"] * 2.5 < ping["netfront_netback"]
    rr = rows["netperf TCP_RR (trans/s)"]
    assert rr["xenloop"] > 1.8 * rr["netfront_netback"]
