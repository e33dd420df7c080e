"""Table 2: average bandwidth comparison (Mbit/s).

Rows: lmbench bw_tcp, netperf TCP_STREAM, netperf UDP_STREAM,
netpipe-mpich.  Columns: the four communication scenarios.  The rows,
their sizes and the paper's values are defined in
``repro.experiments.TABLE2``; the paper's values are printed alongside
for the shape comparison recorded in EXPERIMENTS.md.
"""

from repro.experiments import TABLE2, measure, render

from _bench_utils import emit


def test_table2_bandwidth(run_once, benchmark):
    rows = run_once(lambda: measure(TABLE2))
    emit(TABLE2.name, render(TABLE2, rows))
    for label, values in rows.items():
        benchmark.extra_info[label] = {k: round(v) for k, v in values.items()}
    # Shape assertions (same as the paper's ordering claims).
    for label, values in rows.items():
        assert values["xenloop"] > values["netfront_netback"]
        assert values["native_loopback"] > values["netfront_netback"]
